"""Exhaustive maximum-clique census and subdesign analysis.

One branch-and-bound core serves ``clique_number`` and
``enumerate_maximum_cliques``.  Each node colours its bitset candidates
greedily, one class at a time (MCQ, Tomita & Seki 2003; BBMC, San Segundo
et al. 2011); classes numbered below the size still needed are coloured but
never listed or branched on.  Completeness is cross-checked against brute
force in the test suite.

Each maximum clique is analysed in one pass over its member blocks' point
bitmasks (AND, OR and pairwise ANDs); pair coverage and the core's 2-design
test are counting identities on them, exact for any blocklist.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .design import Design, DesignParameters, admissibility
from .graph import (
    BlockGraph,
    DegenerateGraphError,
    SrgParams,
    build_block_graph,
    delsarte_bound,
    verify_srg,
)


def _search(rows, roots, best: int, stop_at: int | None = None, found: list | None = None):
    """Colour-bounded branch and bound below each root ``(clique, candidates)``.

    Best mode (``found`` None): ``best`` grows with every larger clique and
    the search stops once it reaches ``stop_at``.  Target mode: ``best``
    stays fixed and every clique of ``best + 1`` vertices goes to ``found``.
    Returns ``best`` and the number of nodes (colourings) expanded.
    """
    nrows = [~(row | 1 << v) for v, row in enumerate(rows)]
    stack: list[int] = []
    nodes = 0

    def expand(candidates: int) -> bool:  # True: stop_at reached
        nonlocal best, nodes
        nodes += 1
        size = len(stack)
        need = best + 1 - size
        # greedy colouring one class at a time; only classes numbered >= need
        # can extend the stack past best, so the lower ones are not listed
        colour = 0
        uncoloured = candidates
        while uncoloured and colour + 1 < need:
            colour += 1
            avail = uncoloured
            while avail:
                low = avail & -avail
                uncoloured ^= low
                avail &= nrows[low.bit_length() - 1]
        order = []
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                low = avail & -avail
                uncoloured ^= low
                v = low.bit_length() - 1
                avail &= nrows[v]
                order.append((v, colour))
        # one colour per candidate: the candidates are a clique of exactly need
        if found is not None and colour == need == candidates.bit_count():
            found.append(tuple(sorted([*stack, *_bits(candidates)])))
            return False
        for v, c in reversed(order):
            if size + c <= best:
                return False
            stack.append(v)
            if size == best and found is not None:
                found.append(tuple(sorted(stack)))
            else:
                if size == best:
                    best += 1
                    if stop_at is not None and best >= stop_at:
                        return True
                rest = candidates & rows[v]
                if rest and expand(rest):
                    return True
            stack.pop()
            candidates ^= 1 << v
        return False

    for prefix, candidates in roots:
        stack[:] = prefix
        if len(stack) > best:  # the root alone is a clique of best + 1
            found.append(tuple(stack))
        elif expand(candidates):
            break
    return best, nodes


def clique_number(graph: BlockGraph, upper_bound: int | None = None) -> int:
    """Exact clique number by branch and bound.

    ``upper_bound`` (e.g. the Delsarte bound) is used as an early exit: the
    search stops as soon as a clique attaining it is found.
    """
    if graph.v == 0:
        return 0
    return _search(graph.rows, [((), (1 << graph.v) - 1)], 0, upper_bound)[0]


def enumerate_maximum_cliques(
    graph: BlockGraph, size: int | None = None
) -> list[tuple[int, ...]]:
    """All cliques of maximum size, sorted lexicographically.

    Each clique is rooted at its first member in decreasing-degree order
    (ties by index, so runs are reproducible) and extends into the root's
    neighbours that come later in that order.  A given ``size`` must be at
    least 1.
    """
    if size is not None and size < 1:
        raise ValueError(f"clique size must be at least 1, got {size}")
    if graph.v == 0:
        return []
    target = clique_number(graph) if size is None else size
    roots = []
    after = (1 << graph.v) - 1  # the vertices later in that order than v
    for v in sorted(range(graph.v), key=lambda u: (-graph.degree(u), u)):
        after ^= 1 << v
        later = graph.rows[v] & after
        if later.bit_count() + 1 >= target:
            roots.append(((v,), later))
    found: list[tuple[int, ...]] = []
    _search(graph.rows, roots, target - 1, found=found)
    return sorted(found)


# ---------------------------------------------------------------------------
# clique structure relative to the design

class Classification(NamedTuple):
    kind: str  # "canonical" | "non-canonical"
    witness: int | None  # point contained in every member block

    @property
    def canonical(self) -> bool:
        return self.kind == "canonical"


class CoreRestriction(NamedTuple):
    core_points: tuple[int, ...]
    restricted_blocks: tuple[tuple[int, ...], ...]
    restricted_params: DesignParameters | None  # set iff restriction is a 2-design


class SubdesignVerdict(NamedTuple):
    support: tuple[int, ...]
    support_size: int
    candidate_params: DesignParameters | None
    pair_coverage_ok: bool
    is_design: bool


def check_clique(design: Design, members) -> tuple[int, ...]:
    """Validate that the member blocks pairwise intersect; return sorted members."""
    members = tuple(sorted(members))
    if len(set(members)) != len(members):
        raise ValueError("repeated block index in clique")
    masks = design.block_masks
    for i in members:
        if not 0 <= i < len(masks):
            raise ValueError(f"block index out of range: {i}")
    for i, j in combinations(members, 2):
        if not masks[i] & masks[j]:
            raise ValueError(f"blocks {i} and {j} do not intersect")
    return members


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending (its binary digits read backwards)."""
    return tuple([p for p, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"])


def _summary(masks: list[int], full: int) -> tuple[int, int, int, bool]:
    """The masks' AND (from ``full``), OR and OR of pairwise ANDs, i.e. the
    common points, support and core, and whether some pairwise AND has >= 2
    bits, i.e. whether a point pair is covered twice."""
    common, support, core, twice = full, 0, 0, False
    for a, x in enumerate(masks):
        common &= x
        support |= x
        for y in masks[a + 1:]:
            shared = x & y
            core |= shared
            if shared & (shared - 1):
                twice = True
    return common, support, core, twice


# A census asks for the same few (n, m) once per clique; the results are frozen.
_admissibility = lru_cache(maxsize=256)(admissibility)


def _classification(common: int) -> Classification:
    if common:
        return Classification("canonical", (common & -common).bit_length() - 1)
    return Classification("non-canonical", None)


def _core_params(masks: list[int], core: int, twice: bool) -> DesignParameters | None:
    """Parameters of the restriction to the core, if it is a 2-(c,m_r,1) design.

    Member blocks meet only inside the core, so the restricted blocks share
    >= 2 points iff the blocks do; with no pair covered twice, a uniform
    restriction covers every core pair once iff k C(m_r,2) = C(c,2).
    """
    sizes = {(x & core).bit_count() for x in masks}
    if twice or len(sizes) != 1:
        return None
    m_r = sizes.pop()
    c = core.bit_count()
    if m_r < 2 or c <= m_r or len(masks) * m_r * (m_r - 1) != c * (c - 1):
        return None
    return _admissibility(c, m_r)


def _verdict(design: Design, masks: list[int], support: int, twice: bool) -> SubdesignVerdict:
    # with no pair covered twice, every support pair is covered once iff
    # the blocks' pair counts add up to C(|support|,2)
    points = _bits(support)
    ns = len(points)
    coverage_ok = (
        bool(masks)
        and not twice
        and sum(k * (k - 1) for k in map(int.bit_count, masks)) == ns * (ns - 1)
    )
    params = _admissibility(ns, design.m) if ns > design.m >= 2 else None
    is_design = (
        params is not None
        and params.admissible
        and coverage_ok
        and len(masks) == int(params.b)
    )
    return SubdesignVerdict(points, ns, params, coverage_ok, is_design)


def classify_clique(design: Design, members) -> Classification:
    """Canonical iff one point lies in every member block (unique for lam=1)."""
    masks = [design.block_masks[i] for i in check_clique(design, members)]
    return _classification(_summary(masks, (1 << design.n) - 1)[0])


def clique_support(design: Design, members) -> tuple[int, ...]:
    """Union of the member blocks' points."""
    return _bits(_summary([design.block_masks[i] for i in members], 0)[1])


def point_multiplicity_profile(design: Design, members) -> dict[int, int]:
    """How many member blocks each support point lies in."""
    masks = [design.block_masks[i] for i in members]
    return {p: sum(x >> p & 1 for x in masks) for p in clique_support(design, members)}


def core_restriction(design: Design, members) -> CoreRestriction:
    """Restrict the clique's blocks to its core (points in >= 2 member blocks).

    If the restricted blocks form a uniform 2-design on the core, its
    parameters are reported; degenerate or non-uniform restrictions simply
    carry no parameters.
    """
    masks = [design.block_masks[i] for i in members]
    _, _, core, twice = _summary(masks, 0)
    restricted = tuple(tuple(p for p in design.blocks[i] if core >> p & 1) for i in members)
    return CoreRestriction(_bits(core), restricted, _core_params(masks, core, twice))


def subdesign_test(design: Design, members) -> SubdesignVerdict:
    """Does the clique have a design structure on the union of its blocks?

    Combines the admissibility of (|support|, m), which is a fast arithmetic
    negative, with a definitive pair-coverage check over the support.
    """
    masks = [design.block_masks[i] for i in check_clique(design, members)]
    _, support, _, twice = _summary(masks, 0)
    return _verdict(design, masks, support, twice)


# ---------------------------------------------------------------------------
# full census

class CliqueRecord(NamedTuple):
    members: tuple[int, ...]
    classification: Classification
    support_size: int
    core_size: int
    restricted_params: DesignParameters | None
    subdesign: SubdesignVerdict


class CliqueCensus(NamedTuple):
    design: Design
    graph: BlockGraph
    srg: SrgParams | None
    degenerate: str | None
    delsarte: int | None
    clique_number: int
    records: tuple[CliqueRecord, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def canonical_count(self) -> int:
        return sum(1 for r in self.records if r.classification.canonical)

    @property
    def noncanonical_count(self) -> int:
        return self.total - self.canonical_count


def census_report(design: Design) -> CliqueCensus:
    """Run the full pipeline: graph, SRG, bound, enumeration, per-clique analysis."""
    graph = build_block_graph(design)
    srg = None
    degenerate = None
    bound = None
    try:
        srg = verify_srg(graph)
        bound = delsarte_bound(srg)
    except DegenerateGraphError as exc:
        degenerate = str(exc)
    omega = clique_number(graph, upper_bound=bound)
    cliques = enumerate_maximum_cliques(graph, size=omega) if omega else []
    full = (1 << design.n) - 1
    block_masks = design.block_masks
    records = []
    for members in cliques:
        members = check_clique(design, members)
        masks = [block_masks[i] for i in members]
        common, support, core, twice = _summary(masks, full)
        verdict = _verdict(design, masks, support, twice)
        records.append(CliqueRecord(
            members, _classification(common), verdict.support_size, core.bit_count(),
            _core_params(masks, core, twice), verdict,
        ))
    return CliqueCensus(design, graph, srg, degenerate, bound, omega, tuple(records))
