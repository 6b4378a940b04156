"""Block graphs and exhaustive strongly-regular-graph verification.

Adjacency rows are python ints used as bit vectors, so common-neighbour
counts (and the clique search built on top) reduce to word-parallel ``&``
plus popcount.  All spectral quantities are exact integers: SRG eigenvalues
here are integral, so no numerical solver is involved.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .design import Design, admissibility


class DegenerateGraphError(Exception):
    """Complete or empty graph: SRG parameters are not defined for it."""


class SrgVerificationError(Exception):
    """The graph failed an exhaustive strong-regularity check."""


class BlockGraph(NamedTuple):
    """Intersection graph of a design's blocks (symmetric, irreflexive)."""

    v: int
    rows: tuple[int, ...]
    design_ref: str = ""

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
    r_eig: int
    s_eig: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lambda_param, self.mu)


def build_block_graph(design: Design) -> BlockGraph:
    """Vertices are blocks; i ~ j iff blocks i and j share a point."""
    through = [0] * design.n  # the blocks through each point
    for i, blk in enumerate(design.blocks):
        for p in blk:
            through[p] |= 1 << i
    v = design.b
    rows = []
    for i, blk in enumerate(design.blocks):
        row = 0
        for p in blk:
            row |= through[p]
        rows.append(row & ~(1 << i))
    return BlockGraph(v, tuple(rows), design.name or f"2-({design.n},{design.m},{design.lam})")


def _integral_eigenvalues(k: int, lam: int, mu: int) -> tuple[int, int]:
    """Roots of x^2 - (lam-mu)x - (k-mu), required to be integers."""
    d = lam - mu
    disc = d * d + 4 * (k - mu)
    s = isqrt(disc)
    if s * s != disc or (d + s) % 2 != 0:
        raise SrgVerificationError(
            f"non-integral eigenvalues for (k,lambda,mu)=({k},{lam},{mu})"
        )
    return ((d + s) // 2, (d - s) // 2)


def verify_srg(graph: BlockGraph) -> SrgParams:
    """Exhaustively verify strong regularity and return its parameters.

    Checks constant degree, then counts common neighbours of every vertex
    pair: adjacent pairs must agree on lambda, non-adjacent pairs on mu.
    Raises DegenerateGraphError for complete/empty/too-small graphs and
    SrgVerificationError (with a witness pair) otherwise.
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

    lam = mu = None
    rows = graph.rows
    for i in range(v):
        ri = rows[i]
        for j in range(i + 1, v):
            c = (ri & rows[j]).bit_count()
            if ri >> j & 1:
                if lam is None:
                    lam = c
                elif c != lam:
                    raise SrgVerificationError(
                        f"adjacent pair ({i},{j}) has {c} common neighbours, expected {lam}"
                    )
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    raise SrgVerificationError(
                        f"non-adjacent pair ({i},{j}) has {c} common neighbours, expected {mu}"
                    )
    # complete/empty were excluded, so both kinds of pair exist
    r_eig, s_eig = _integral_eigenvalues(k, lam, mu)
    params = SrgParams(v, k, lam, mu, r_eig, s_eig)
    if k * (k - lam - 1) != (v - k - 1) * mu:
        raise SrgVerificationError(f"infeasible parameter set {params.as_tuple()}")
    return params


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
    r_eig, s_eig = _integral_eigenvalues(k, lam, mu)
    return SrgParams(v, k, lam, mu, r_eig, s_eig)


def delsarte_bound(params: SrgParams) -> int:
    """Clique bound floor(1 - k/theta) from the smallest eigenvalue theta."""
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
