"""Exhaustive maximum-clique census and subdesign analysis.

One branch-and-bound core, searching from a single root that holds every
vertex, serves ``clique_number`` and ``enumerate_maximum_cliques``.  Each
node colours its bitset candidates greedily, one class at a time (MCQ,
Tomita & Seki 2003; BBMC, San Segundo et al. 2011); classes numbered below
the size still needed are coloured but never listed or branched on, and
candidates with one vertex per class form a clique that is taken whole.
The search runs on bit-reversed labels, so an O(1) top-bit walk colours
each class in ascending index order: the tree is that of a lowest-bit walk.
Completeness is cross-checked against brute force in the test suite.

``clique_record`` is the one checked pass per clique, shared by the census,
``classify_clique`` and ``subdesign_test``: O(k) bit operations over the k
member blocks' point masks (AND, OR and core) and their rows in
``Design.reach``, built once per design.  The members are a clique iff each
lies in the AND of the members' rows, own bits set; a pair of points is
covered twice iff a member lies in the OR of their ``twice`` rows.  Only a
failing clique is rescanned pairwise, to name its first disjoint pair.
The rest of a record costs what its shape costs: support size, core design
and subdesign verdict depend only on a few integers (k, |support|, |core|,
the blocks' core size if uniform, whether a pair is covered twice, the
blocks' pair counts and m), so they are built once per shape and shared.
Pair coverage and the core's 2-design test are counting identities on those
integers, exact for any blocklist.  ``clique_support`` lists a clique's
support points as one OR of the member masks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache, reduce
from itertools import combinations, compress, count
from operator import or_
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

_REV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))  # each byte's bits reversed
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as compress selectors


def _search(rows, best: int, stop_at: int | None = None, found: list | None = None):
    """Colour-bounded branch and bound from the root holding every vertex.

    Best mode (``found`` None): ``best`` grows with every larger clique and
    the search returns ``stop_at`` once ``best`` reaches it.  Target mode:
    ``best`` stays fixed and every clique of ``best + 1`` vertices goes to
    ``found``.  Returns ``best`` and the number of nodes (colourings)
    expanded.  Open nodes wait on a list, not in nested calls, so no
    recursion limit applies.  Vertex v is u = n-1-v inside (rows bit-reversed
    once per call), so the top set bit, found in O(1), is the lowest vertex:
    classes are walked in ascending index order.  The stack holds v.
    """
    n = len(rows)
    nb = (n + 7) // 8
    full, pad, top = (1 << n) - 1, 8 * nb - n, n - 1
    bit = [1 << u for u in range(n)]
    rrows = [int.from_bytes(r.to_bytes(nb, "big").translate(_REV8), "little") >> pad
             for r in reversed(rows)]
    keep = [full ^ (row | b) for row, b in zip(rrows, bit)]  # u's non-neighbours less u
    stack: list[int] = []
    nodes = 0

    def expand(candidates: int) -> tuple | None:  # (order, candidates, size) to branch
        nonlocal nodes, best
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
                u = avail.bit_length() - 1
                uncoloured ^= bit[u]
                avail &= keep[u]
        order = []
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                u = avail.bit_length() - 1
                uncoloured ^= bit[u]
                avail &= keep[u]
                order.append((u, colour))
        # one colour per candidate: the candidates are a clique, taken whole
        if colour == candidates.bit_count():
            if found is None:
                best = max(best, size + colour)
                return None
            if colour == need:  # members ascending: the digits of u from the top
                digits = bin(candidates)[2:].encode().translate(_DIGITS)
                found.append(tuple(sorted([*stack, *compress(count(n - len(digits)), digits)])))
                return None
        return order, candidates, size

    order, candidates, size = expand(full) or ([], 0, 0)
    parents = []  # the open nodes above this one
    while True:
        if stop_at is not None and best >= stop_at:
            return stop_at, nodes
        # branch on the highest colours first, while one can beat best
        if order:
            u, c = order.pop()
            if size + c > best:
                stack.append(top - u)
                if size == best and found is not None:
                    found.append(tuple(sorted(stack)))
                else:
                    best = max(best, size + 1)
                    rest = candidates & rrows[u]
                    node = expand(rest) if rest else None
                    if node is not None:
                        parents.append((order, candidates, size))
                        order, candidates, size = node
                        continue
                stack.pop()
                candidates ^= bit[u]
                continue
        if not parents:
            return best, nodes
        order, candidates, size = parents.pop()
        candidates ^= bit[top - stack.pop()]  # the vertex the parent branched on


def clique_number(graph: BlockGraph, upper_bound: int | None = None) -> int:
    """Exact clique number by branch and bound.

    ``upper_bound`` (e.g. the Delsarte bound) is used as an early exit: the
    search stops as soon as a clique attaining it is found.
    """
    return _search(graph.rows, 0, upper_bound)[0]


def enumerate_maximum_cliques(
    graph: BlockGraph, size: int | None = None
) -> list[tuple[int, ...]]:
    """All cliques of maximum size (or of a given ``size`` of at least 1),
    sorted lexicographically."""
    if size is not None and size < 1:
        raise ValueError(f"clique size must be at least 1, got {size}")
    if graph.v == 0:
        return []
    found: list[tuple[int, ...]] = []
    _search(graph.rows, (clique_number(graph) if size is None else size) - 1, found=found)
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
    support_size: int
    candidate_params: DesignParameters | None
    pair_coverage_ok: bool
    is_design: bool


class CliqueRecord(NamedTuple):
    members: tuple[int, ...]
    classification: Classification
    support_size: int
    core_size: int
    restricted_params: DesignParameters | None
    subdesign: SubdesignVerdict


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending (its binary digits read backwards)."""
    return tuple([p for p, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"])


_NON_CANONICAL = Classification("non-canonical", None)


@lru_cache(maxsize=1024)
def _shape(k: int, ns: int, c: int, m_r: int, twice: bool, pairs: int, m: int) -> tuple:
    """Support size, core size, core design and subdesign verdict of a clique
    of k blocks with ``m_r`` the size of each block's restriction to the core
    (0 if the sizes differ) and ``pairs`` the sum of |B|(|B|-1); a census
    asks for few shapes.

    Member blocks meet only inside the core, so the restricted blocks share
    >= 2 points iff the blocks do.  With no pair covered twice, a uniform
    restriction covers every core pair once iff k m_r(m_r-1) = c(c-1), and
    every support pair is covered once iff pairs = ns(ns-1).  A design's
    k = b >= 3 blocks leave no point in one block only, so the core is the
    support and the blocks all have m points iff m_r = m.
    """
    core_params = (
        admissibility(c, m_r)
        if not twice and 2 <= m_r < c and k * m_r * (m_r - 1) == c * (c - 1)
        else None
    )
    coverage_ok = k > 0 and not twice and pairs == ns * (ns - 1)
    params = admissibility(ns, m) if ns > m >= 2 else None
    is_design = (
        params is not None and params.admissible and coverage_ok and k == int(params.b)
        and m_r == m
    )
    return ns, c, core_params, SubdesignVerdict(ns, params, coverage_ok, is_design)


def _block_masks(design: Design, members) -> tuple[int, ...]:
    """The design's block masks, once every index in sorted ``members`` is checked."""
    masks = design.block_masks
    if members and not (0 <= members[0] and members[-1] < len(masks)):
        i = next(i for i in members if not 0 <= i < len(masks))
        raise ValueError(f"block index out of range: {i}")
    return masks


def _scan(design: Design, members) -> tuple[int, int, int, tuple]:
    """One pass over sorted ``members``, every index checked: the AND of their
    point masks, the core, the members disjoint from some member (``chosen``,
    the member mask, less the AND of their rows with their own bits) and the
    record fields after the classification, looked up by shape."""
    masks = _block_masks(design, members)
    _, rows, twice = design.reach
    common, support, core, pairs = (1 << design.n) - 1, 0, 0, 0
    chosen, meet_all, doubled = 0, -1, 0
    for i in members:
        x = masks[i]
        bit = 1 << i
        common &= x
        core |= support & x
        support |= x
        size = x.bit_count()
        pairs += size * (size - 1)
        chosen |= bit
        meet_all &= rows[i] | bit
        doubled |= twice[i]
    m_r = (masks[members[0]] & core).bit_count() if members else 0
    for i in members:  # the blocks' common core size, 0 if they differ
        if (masks[i] & core).bit_count() != m_r:
            m_r = 0
            break
    # a repeated member (only core_restriction takes one) shares its points
    # with itself: a pair covered twice if it has two, else no core design
    repeated = chosen.bit_count() < len(members)
    shape = _shape(len(members), support.bit_count(), core.bit_count(), m_r,
                   bool(chosen & doubled) or repeated, pairs, design.m)
    return common, core, chosen & ~meet_all, shape


def clique_record(design: Design, members) -> CliqueRecord:
    """Check and analyse a clique in one pass over its member blocks.

    Raises ValueError for a repeated member, then for one out of range, then
    for the first pair of member blocks (in sorted order) that are disjoint.
    """
    members = tuple(sorted(members))
    if len(set(members)) != len(members):
        raise ValueError("repeated block index in clique")
    common, _, apart, shape = _scan(design, members)
    if apart:
        masks = design.block_masks
        i, j = next((i, j) for i, j in combinations(members, 2) if not masks[i] & masks[j])
        raise ValueError(f"blocks {i} and {j} do not intersect")
    classification = (
        Classification("canonical", (common & -common).bit_length() - 1)
        if common else _NON_CANONICAL
    )
    return CliqueRecord(members, classification, *shape)


def classify_clique(design: Design, members) -> Classification:
    """Canonical iff one point lies in every member block (unique for lam=1)."""
    return clique_record(design, members).classification


def clique_support(design: Design, members) -> tuple[int, ...]:
    """Union of the member blocks' points."""
    members = sorted(members)
    return _bits(reduce(or_, map(_block_masks(design, members).__getitem__, members), 0))


def point_multiplicity_profile(design: Design, members) -> dict[int, int]:
    """How many member blocks each support point lies in."""
    members = sorted(members)
    masks = list(map(_block_masks(design, members).__getitem__, members))
    return {p: sum(x >> p & 1 for x in masks) for p in _bits(reduce(or_, masks, 0))}


def core_restriction(design: Design, members) -> CoreRestriction:
    """Restrict the clique's blocks to its core (points in >= 2 member blocks).

    If the restricted blocks form a uniform 2-design on the core, its
    parameters are reported; degenerate or non-uniform restrictions simply
    carry no parameters.
    """
    members = tuple(members)  # read twice: sorted for the scan, then in the caller's order
    _, core, _, shape = _scan(design, sorted(members))
    restricted = tuple(tuple(p for p in design.blocks[i] if core >> p & 1) for i in members)
    return CoreRestriction(_bits(core), restricted, shape[2])


def subdesign_test(design: Design, members) -> SubdesignVerdict:
    """Does the clique have a design structure on the union of its blocks?

    Combines the admissibility of (|support|, m), which is a fast arithmetic
    negative, with a definitive pair-coverage check over the support.
    """
    return clique_record(design, members).subdesign


# ---------------------------------------------------------------------------
# full census

class CliqueCensus(namedtuple(
    "CliqueCensus", "design graph srg degenerate delsarte clique_number records"
)):
    """The census of a design: its block graph, the SRG parameters or why it
    is degenerate, the Delsarte bound, the clique number and one
    ``CliqueRecord`` per maximum clique.  No ``__slots__``: the cached count
    needs a ``__dict__``, so a report counts the records once."""

    @property
    def total(self) -> int:
        return len(self.records)

    @cached_property
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
    # one search where the Delsarte bound is attained, as by a 2-design's pencils
    cliques = enumerate_maximum_cliques(graph, size=bound) if bound else []
    omega = bound if cliques else clique_number(graph, upper_bound=bound)
    if omega and not cliques:
        cliques = enumerate_maximum_cliques(graph, size=omega)
    records = tuple([clique_record(design, members) for members in cliques])
    return CliqueCensus(design, graph, srg, degenerate, bound, omega, records)
