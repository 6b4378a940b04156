"""Block graphs and exhaustive strongly-regular-graph verification.

Adjacency rows are python ints used as bit vectors, so common-neighbour
counts (and the clique search built on top) reduce to word-parallel ``&``
plus popcount.  The SRG check proves A^2 = kI + lambda A + mu (J - I - A)
(Brouwer & Van Maldeghem 2022, 1.1) entry by entry.  For a 2-(n,m,1) design
A = N^T N - mI and N N^T = alpha I + beta J, checked in point coordinates at
n^2/2 popcounts, fix A^2.  Otherwise (a raw graph, a net, a broken row) it
tests A^2 a row at a time on rows packed into byte fields, one strip of
columns at a time: a sum of pencil sums where the point pencils through a
block partition its neighbours, else a C-level ``sum`` of its neighbours'
rows; a mismatch is rescanned pair by pair to name the first witness.
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


# Bytes of packed adjacency fields verify_srg holds at once (one column strip)
_STRIP_BYTES = 1 << 19
# format(row, "b") digits to 0/1 bytes, so a row flags its neighbours
_BINARY = bytes.maketrans(b"01", b"\0\1")


def _packed(row: int, width: int, w: int) -> int:
    """The low ``width`` bits of a row, one w-byte field per bit."""
    digits = format(row & ((1 << width) - 1), f"0{width}b")[::-1]
    digits = digits.replace("0", "0" * w).replace("1", "1" + "0" * (w - 1))
    return int.from_bytes(digits.encode().translate(_BINARY), "little")


def _flags(mask: int, v: int) -> bytes:
    """One 0/1 byte per vertex below v: whether the mask holds it."""
    return format(mask, f"0{v}b")[::-1].encode().translate(_BINARY)


def _pencil_routes(rows: tuple[int, ...], pencils: tuple[int, ...]) -> list:
    """Per vertex i, the pencils through i if, each less i, they partition
    the row (union less i is the row, sizes less one sum to the degree)."""
    v = len(rows)
    through: list[list[int]] = [[] for _ in range(v)]
    for p, pencil in enumerate(pencils):
        for i in compress(range(v), _flags(pencil, v)):
            through[i].append(p)
    others = [pencil.bit_count() - 1 for pencil in pencils]
    routes = []
    for i, (row, ps) in enumerate(zip(rows, through)):
        union = 0
        for p in ps:
            union |= pencils[p]
        exact = union & ~(1 << i) == row and sum([others[p] for p in ps]) == row.bit_count()
        routes.append(ps if exact else None)
    return routes


def _strip_matches(rows: tuple[int, ...], pencils: tuple[int, ...], routes: list,
                   start: int, width: int, w: int, k: int, lam: int, mu: int) -> bool:
    """Whether rows [0, start + width) of A^2 equal kI + lambda A + mu (J - I - A)
    on the columns [start, start + width), row i summed from the pencils on
    ``routes[i]`` or, where that is None, from i's neighbours."""
    v = len(rows)
    packed = [_packed(r >> start, width, w) for r in rows]
    sums = [sum(compress(packed, _flags(pencil, v))) for pencil in pencils]
    ones = _packed(-1, width, w)
    for i in range(start + width):
        unit = 1 << 8 * w * (i - start) if i >= start else 0
        route = routes[i]
        if route is None:
            row = sum(compress(packed, _flags(rows[i], v)))
        else:
            row = sum([sums[p] for p in route]) - len(route) * packed[i]
        if row != lam * packed[i] + mu * (ones - packed[i] - unit) + k * unit:
            return False
    return True


def _certificate(pencils: tuple[int, ...], routes: list, v: int) -> tuple[int, int, int] | None:
    """(k, lambda, mu) proved in point coordinates, or None where it does not apply.

    With every row on the pencil route, A = N^T N - D exactly, N the pencil by
    vertex incidence matrix and D the pencils through each vertex.  Where
    D = mI and the pencils, masked to the vertices, meet pairwise in beta and
    hold alpha + beta vertices each, N N^T = alpha I + beta J and N^T J N =
    m^2 J give A^2 = (alpha - 2m) A + (alpha m - m^2) I + beta m^2 J.  It
    needs two pencils, which a graph that is not complete has here: with
    m >= 1 every vertex is on a pencil, and one pencil through them all
    would make the graph complete.
    """
    m = len(routes[0] or ())
    if not m or any(route is None or len(route) != m for route in routes):
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
    from the pencils (every row on the pencil route, every vertex on m
    pencils, N N^T = alpha I + beta J checked pair by pair) and its (k,
    lambda, mu) are the measured ones, that is the whole check; A, I and J
    are independent since complete and empty graphs are rejected first.
    Otherwise (no pencils, a declined certificate or a mismatch) row i of
    A^2 is the sum of its neighbours' rows packed into w = ceil(bit_length(k)
    / 8) bytes per vertex (no entry exceeds k, so no field carries), taken
    over column strips of ``_STRIP_BYTES`` and only rows before the strip's
    end (A^2 is symmetric).  Where the d_i pencils through i, each less i,
    partition i's neighbours (checked exactly, row by row), that sum is
    sum_{p through i} S_p - d_i P_i, with P_i row i packed and S_p the sum of
    pencil p's packed rows, once a strip.
    The row sums of the identity give k^2 = k + lambda k + mu (v - k - 1), so
    no separate feasibility check is needed; the eigenvalues are None where
    irrational.  Raises DegenerateGraphError for complete/empty/too-small
    graphs and SrgVerificationError (with the first failing pair, rescanned)
    otherwise.
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
    w = (k.bit_length() + 7) // 8
    step = max(1, _STRIP_BYTES // (v * w))
    routes = _pencil_routes(rows, graph.pencils)
    if _certificate(graph.pencils, routes, v) != (k, lam, mu) and not all(
        _strip_matches(rows, graph.pencils, routes, start, min(step, v - start), w, k, lam, mu)
        for start in range(0, v, step)
    ):
        for i, j, adjacent, c in _pair_counts(rows):
            expected = lam if adjacent else mu
            if c != expected:
                kind = "adjacent" if adjacent else "non-adjacent"
                raise SrgVerificationError(
                    f"{kind} pair ({i},{j}) has {c} common neighbours, expected {expected}"
                )
        raise AssertionError("a row of A^2 is wrong but every pair count is right")
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
