"""Block graphs and exhaustive strongly-regular-graph verification.

Adjacency rows are python ints used as bit vectors, so common-neighbour
counts (and the clique search built on top) reduce to word-parallel ``&``
plus popcount.  The SRG check proves A^2 = kI + lambda A + mu (J - I - A)
(Brouwer & Van Maldeghem 2022, 1.1) by one of two routes.  A graph built
from a 2-(n,m,1) design is proved in point coordinates: A = N^T N - mI and
N N^T = alpha I + beta J, at n^2/2 popcounts of pencil masks.  Every other
graph (raw rows, a net, a broken row) has its common neighbours counted
pair by pair in row-major order, so a failure names the first bad pair.
All spectral quantities are exact: SRG eigenvalues are integers, or left
unset where they are irrational (conference graphs), so no numerical solver
is involved.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from typing import NamedTuple

from .design import Design, admissibility


class DegenerateGraphError(Exception):
    """Complete or empty graph: SRG parameters are not defined for it."""


class SrgVerificationError(Exception):
    """The graph failed an exhaustive strong-regularity check."""


class BlockGraph(NamedTuple):
    """Intersection graph of a design's blocks (symmetric, irreflexive), with
    the blocks through each point as vertex masks (``pencils``) if it was
    built from a design."""

    v: int
    rows: tuple[int, ...]
    pencils: tuple[int, ...] = ()

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.v)) // 2

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


# format(mask, "b") digits to 0/1 bytes, so a mask flags its vertices
_BINARY = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int, v: int) -> bytes:
    """One 0/1 byte per vertex below v: whether the mask holds it."""
    return format(mask, f"0{v}b")[::-1].encode().translate(_BINARY)


def _certificate(rows: tuple[int, ...], pencils: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(k, lambda, mu) proved in point coordinates, or None where it does not apply.

    With N the pencil by vertex incidence matrix, A = N^T N - mI exactly where
    every vertex i lies on m pencils and those pencils, each less i, partition
    row i: their union less i is the row and their sizes less one add up to
    its degree.  Where the pencils, masked to the vertices, also hold alpha +
    beta vertices each and meet pairwise in beta, N N^T = alpha I + beta J and
    N^T J N = m^2 J give A^2 = (alpha - 2m) A + (alpha m - m^2) I + beta m^2 J.
    On a regular graph that is neither complete nor empty, vertex 0 has a
    neighbour, so m >= 1 once its pencils partition its row, and there are
    two pencils: one through every vertex would make the graph complete.
    """
    v = len(rows)
    through: list[list[int]] = [[] for _ in range(v)]
    for pencil in pencils:
        for i in compress(range(v), _flags(pencil, v)):
            through[i].append(pencil)
    m = len(through[0])
    for i, (row, ps) in enumerate(zip(rows, through)):
        union = 0
        for p in ps:
            union |= p
        if (len(ps) != m or union & ~(1 << i) != row
                or sum(map(int.bit_count, ps)) - len(ps) != row.bit_count()):
            return None
    masked = [pencil & ((1 << v) - 1) for pencil in pencils]
    size, beta = masked[0].bit_count(), (masked[0] & masked[1]).bit_count()
    for p, x in enumerate(masked):
        if x.bit_count() != size or {*map(int.bit_count, map(x.__and__, masked[p + 1:]))} - {beta}:
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


def srg_from_design_params(n: int, m: int) -> SrgParams:
    """Closed-form SRG parameters of the block graph of a 2-(n,m,1) design."""
    params = admissibility(n, m)
    if not params.admissible:
        raise ValueError(f"({n},{m}) is not admissible")
    b = int(params.b)
    if b <= n:
        raise ValueError(f"2-({n},{m},1) is symmetric; its block graph is complete")
    r = int(params.r)
    v = b
    k = m * (n - m) // (m - 1)
    lam = (m - 1) ** 2 + r - 2
    mu = m * m
    return SrgParams(v, k, lam, mu, *_eigenvalues(k, lam, mu))


def delsarte_bound(params: SrgParams) -> int | None:
    """Clique bound floor(1 - k/theta) from the smallest eigenvalue theta;
    None where theta is irrational."""
    if params.s_eig is None:
        return None
    if params.s_eig >= 0:
        raise ValueError("smallest eigenvalue must be negative")
    return 1 + params.k // (-params.s_eig)


# ---------------------------------------------------------------------------
# adjacency export

def serialize_graph(graph: BlockGraph, format: str = "matrix") -> str:
    """Canonical adjacency text: upper-triangular 0/1 rows or an edge list."""
    if format == "matrix":
        lines = []
        for i in range(graph.v):
            lines.append(
                "".join("1" if graph.adjacent(i, j) else "0" for j in range(i + 1, graph.v))
            )
        return "\n".join(lines) + "\n" if lines else ""
    if format == "edges":
        out = []
        for i in range(graph.v):
            row = graph.rows[i] >> (i + 1) << (i + 1)
            while row:
                j = (row & -row).bit_length() - 1
                row &= row - 1
                out.append(f"{i} {j}\n")
        return "".join(out)
    raise ValueError(f"unknown graph format {format!r}")
