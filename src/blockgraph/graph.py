"""Block graphs and exhaustive strongly-regular-graph verification.

Adjacency rows are python ints used as bit vectors, so common-neighbour
counts (and the clique search built on top) reduce to word-parallel ``&``
plus popcount.  ``verify_srg`` proves A^2 = kI + lambda A + mu (J - I - A)
(Brouwer & Van Maldeghem 2022, 1.1) for any graph by counting the common
neighbours of every pair in row-major order, so a failure names the first
bad pair.  The block graph of a 2-(n,m,1) design needs no rows:
``steiner_srg`` gives its parameters in closed form from n and m.
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
    """A symmetric, irreflexive graph on v vertices, each row the mask of a
    vertex's neighbours; built from a design, the intersection graph of its
    blocks."""

    v: int
    rows: tuple[int, ...]

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
    return BlockGraph(design.b, design.reach[1])


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
    """The set bits of a mask, ascending (its binary digits read backwards);
    a mask of one bit or none builds no string."""
    if not mask & (mask - 1):
        return (mask.bit_length() - 1,) if mask else ()
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_BINARY)))


def _pair_counts(rows: tuple[int, ...]):
    """(i, j, adjacent, common neighbours) of every pair i < j, row-major."""
    for i, ri in enumerate(rows):
        for j in range(i + 1, len(rows)):
            yield i, j, ri >> j & 1, (ri & rows[j]).bit_count()


def verify_srg(graph: BlockGraph) -> SrgParams:
    """Exhaustively verify strong regularity and return its parameters.

    Checks constant degree k; lambda and mu come from the first adjacent and
    non-adjacent pair in row-major order, and every pair's common neighbours
    are then counted in row-major order against lambda or mu, so the first
    failing pair is the one reported.  The row sums of the identity give
    k^2 = k + lambda k + mu (v - k - 1), so no separate feasibility check is
    needed; the eigenvalues are None where irrational.  Raises DegenerateGraphError for
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
    for i, j, adjacent, c in _pair_counts(rows):
        expected = lam if adjacent else mu
        if c != expected:
            kind = "adjacent" if adjacent else "non-adjacent"
            raise SrgVerificationError(
                f"{kind} pair ({i},{j}) has {c} common neighbours, expected {expected}"
            )
    return SrgParams(v, k, lam, mu, *_eigenvalues(k, lam, mu))


def steiner_srg(n: int, m: int) -> SrgParams:
    """The block graph of a 2-(n,m,1) design, n > m >= 2, in closed form.

    With N the point-by-block incidence matrix and r = (n-1)/(m-1), two
    blocks share at most one point, so A = N^T N - mI, and every pair of
    points lies in one block, so N N^T = (r-1)I + J.  With N^T J N = m^2 J,
    A^2 = (r-1-2m)A + (m(r-1) - m^2)I + m^2 J: srg(b, m(r-1),
    (m-1)^2 + r - 2, m^2).  Raises DegenerateGraphError where b = n (a
    projective plane), whose block graph is complete.
    """
    r = (n - 1) // (m - 1)
    b = n * r // m
    if b == n:
        raise DegenerateGraphError("complete graph")
    k, lam, mu = m * (r - 1), (m - 1) ** 2 + r - 2, m * m
    return SrgParams(b, k, lam, mu, *_eigenvalues(k, lam, mu))


def delsarte_bound(params: SrgParams) -> int | None:
    """Clique bound floor(1 - k/theta) from the smallest eigenvalue theta;
    None where theta is irrational."""
    if params.s_eig is None:
        return None
    if params.s_eig >= 0:
        raise ValueError("smallest eigenvalue must be negative")
    return 1 + params.k // (-params.s_eig)

