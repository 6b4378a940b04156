"""Block graphs and exhaustive strongly-regular-graph verification.

Adjacency rows are python ints used as bit vectors, so common-neighbour
counts (and the clique search built on top) reduce to word-parallel ``&``
plus popcount.  The SRG check proves A^2 = kI + lambda A + mu (J - I - A)
(Brouwer & Van Maldeghem 2022, 1.1) by one of two routes.  A graph built
from a 2-(n,m,1) design is proved in point coordinates: A = N^T N - mI and
N N^T = alpha I + beta J, from the pencils through each vertex and one
count.  Every other graph (raw rows, a net, a broken row) has its common
neighbours counted pair by pair in row-major order, so a failure names the
first bad pair.
All spectral quantities are exact: SRG eigenvalues are integers, or left
unset where they are irrational (conference graphs), so no numerical solver
is involved.
"""

from __future__ import annotations

from itertools import compress, count
from math import isqrt
from typing import NamedTuple

from .design import Design


class DegenerateGraphError(Exception):
    """Complete or empty graph: SRG parameters are not defined for it."""


class SrgVerificationError(Exception):
    """The graph failed an exhaustive strong-regularity check."""


class BlockGraph(NamedTuple):
    """Intersection graph of a design's blocks (symmetric, irreflexive), with
    the blocks through each point as vertex masks (``pencils``) if it was
    built from a design; only the SRG certificate reads them."""

    v: int
    rows: tuple[int, ...]
    pencils: tuple[int, ...] = ()

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def is_complete(self) -> bool:
        full = (1 << self.v) - 1
        return all(row == full & ~(1 << i) for i, row in enumerate(self.rows))

    def is_empty(self) -> bool:
        return all(r == 0 for r in self.rows)


class SrgParams(NamedTuple):
    v: int
    k: int
    lambda_param: int
    mu: int
    r_eig: int | None  # both None where irrational
    s_eig: int | None

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lambda_param, self.mu)


def build_block_graph(design: Design) -> BlockGraph:
    """Vertices are blocks; i ~ j iff blocks i and j share a point."""
    through, rows, _ = design.reach
    return BlockGraph(design.b, rows, through)


def _eigenvalues(k: int, lam: int, mu: int) -> tuple[int, int] | tuple[None, None]:
    """Roots of x^2 - (lam-mu)x - (k-mu), or None for both where they are
    irrational (a conference graph).  The discriminant is (lam-mu)^2 mod 4,
    so a square root has the parity of lam - mu and integral roots."""
    d = lam - mu
    disc = d * d + 4 * (k - mu)
    s = isqrt(disc)
    if s * s != disc:
        return None, None
    return (d + s) // 2, (d - s) // 2


# binary digits to 0/1 bytes, read as compress selectors
_BINARY = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending (its binary digits read backwards)."""
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_BINARY)))


def _certificate(rows: tuple[int, ...], pencils: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(k, lambda, mu) proved in point coordinates, or None where it does not apply.

    With N the pencil by vertex incidence matrix, A = N^T N - mI exactly where
    every vertex i lies on m pencils and those pencils, each less i, partition
    row i: their union less i is the row and their sizes less one add up to
    its degree.  Two pencils then share at most one vertex, and the pairs
    that meet are the v m(m-1)/2 pairs of pencils through a common vertex.
    So of n pencils no two meet if m = 1 (beta = 0), and all pairs meet iff
    v m(m-1) = n(n-1) (beta = 1), the count of a 2-(n,m,1) design.  Where
    that holds and the pencils, masked to the vertices, also hold alpha +
    beta vertices each, N N^T = alpha I + beta J and N^T J N = m^2 J give
    A^2 = (alpha - 2m) A + (alpha m - m^2) I + beta m^2 J.  On a regular
    graph that is neither complete nor empty, vertex 0 has a neighbour, so
    m >= 1 once its pencils partition its row.
    """
    v, n = len(rows), len(pencils)
    masked = [pencil & ((1 << v) - 1) for pencil in pencils]
    through: list[list[int]] = [[] for _ in range(v)]
    for pencil, x in zip(pencils, masked):
        for i in _bits(x):
            through[i].append(pencil)
    m = len(through[0])
    for i, (row, ps) in enumerate(zip(rows, through)):
        union = 0
        for p in ps:
            union |= p
        if (len(ps) != m or union & ~(1 << i) != row
                or sum(map(int.bit_count, ps)) - len(ps) != row.bit_count()):
            return None
    size, beta = masked[0].bit_count(), int(m > 1)
    if {*map(int.bit_count, masked)} != {size} or v * m * (m - 1) != beta * n * (n - 1):
        return None
    alpha, mu = size - beta, beta * m * m
    return alpha * m - m * m + mu, alpha - 2 * m + mu, mu


def _pair_counts(rows: tuple[int, ...]):
    """(i, j, adjacent, common neighbours) of every pair i < j, row-major."""
    for i, ri in enumerate(rows):
        for j in range(i + 1, len(rows)):
            yield i, j, ri >> j & 1, (ri & rows[j]).bit_count()


def verify_srg(graph: BlockGraph) -> SrgParams:
    """Exhaustively verify strong regularity and return its parameters.

    Checks constant degree k; lambda and mu come from the first adjacent and
    non-adjacent pair in row-major order.  Where ``_certificate`` proves A^2
    from the pencils and its (k, lambda, mu) are the measured ones, that is
    the whole check; A, I and J are independent since complete and empty
    graphs are rejected first.  Otherwise (no pencils, a declined
    certificate or a mismatch) every pair's common neighbours are counted in
    row-major order against lambda or mu, and the first failing pair is the
    one reported.  The row sums of the identity give k^2 = k + lambda k +
    mu (v - k - 1), so no separate feasibility check is needed; the
    eigenvalues are None where irrational.  Raises DegenerateGraphError for
    complete/empty/too-small graphs and SrgVerificationError otherwise.
    """
    v = graph.v
    if v < 2:
        raise DegenerateGraphError(f"graph with {v} vertices")
    if graph.is_complete():
        raise DegenerateGraphError("complete graph")
    if graph.is_empty():
        raise DegenerateGraphError("empty graph")

    degrees = {graph.degree(i) for i in range(v)}
    if len(degrees) != 1:
        raise SrgVerificationError(f"not regular: degrees {sorted(degrees)}")
    k = degrees.pop()

    # complete/empty were excluded, so both kinds of pair occur in row 0
    rows = graph.rows
    lam = next(c for _, _, adjacent, c in _pair_counts(rows) if adjacent)
    mu = next(c for _, _, adjacent, c in _pair_counts(rows) if not adjacent)
    if _certificate(rows, graph.pencils) != (k, lam, mu):
        for i, j, adjacent, c in _pair_counts(rows):
            expected = lam if adjacent else mu
            if c != expected:
                kind = "adjacent" if adjacent else "non-adjacent"
                raise SrgVerificationError(
                    f"{kind} pair ({i},{j}) has {c} common neighbours, expected {expected}"
                )
    return SrgParams(v, k, lam, mu, *_eigenvalues(k, lam, mu))


def delsarte_bound(params: SrgParams) -> int | None:
    """Clique bound floor(1 - k/theta) from the smallest eigenvalue theta;
    None where theta is irrational."""
    if params.s_eig is None:
        return None
    if params.s_eig >= 0:
        raise ValueError("smallest eigenvalue must be negative")
    return 1 + params.k // (-params.s_eig)

