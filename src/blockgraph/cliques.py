"""Exhaustive maximum-clique census and subdesign analysis.

One branch-and-bound search, from a single root that holds every vertex,
lists the maximum cliques; ``clique_number`` is their size.  Its bound
starts at 0 and rises with each larger clique found.  Each node colours its
bitset candidates greedily, one class at a time (MCQ, Tomita & Seki 2003;
BBMC, San Segundo et al. 2011); classes numbered below the size still
needed are coloured but never listed or branched on, and candidates with
one vertex per class form a clique that is taken whole.
The search runs on bit-reversed labels, so an O(1) top-bit walk colours
each class in ascending index order: the tree is that of a lowest-bit walk.
Completeness is cross-checked against brute force in the test suite.

``clique_records`` is the one checked pass over a census's sorted member
lists; the one-clique helpers run it on a list of one.  It keeps the scan
state after each prefix of the last list, so a list checks and scans only
the members after the prefix it shares with the one before (~1.25 of 6 in
AG(2,5)), in O(1) bit operations each on the block's point mask (AND, OR
and core) and its rows in ``Design.reach``, built once per design.  The
members are a clique iff each lies in the AND of the members' rows, own
bits set; a pair of points is covered twice iff a member lies in the OR of
their ``twice`` rows.  Only a failing clique is rescanned pairwise, to name
its first disjoint pair.
The rest of a record costs what its shape costs: support size, core design
and subdesign verdict depend only on a few integers (k, |support|, |core|,
the blocks' core size if uniform, whether a pair is covered twice, the
blocks' pair counts and m), so they are built once per shape and shared.
Pair coverage and the core's 2-design test are counting identities on those
integers, exact for any blocklist.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Iterator, NamedTuple

from .design import Design, DesignParameters, admissibility
from .graph import (
    BlockGraph,
    DegenerateGraphError,
    _bits,
    build_block_graph,
    delsarte_bound,
    steiner_srg,
    verify_srg,
)

_REV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))  # each byte's bits reversed


def _search(rows):
    """Colour-bounded branch and bound from the root holding every vertex.

    Returns every clique of the largest size (``best``, from 0, rises with
    each larger clique; smaller ones are dropped at the end) and the number
    of nodes (colourings) expanded.  A branch records its stack only when no
    candidate extends it.  Open nodes wait on a list, so no recursion limit
    applies.  Vertex v is u = n-1-v inside, so the top set bit, found in
    O(1), is the lowest vertex: classes are walked in ascending index
    order.  The stack holds v.  The one table per call is ``keep``: a
    colour class after u takes ``keep[u]``, a branch on u the rest, less u.
    """
    n = len(rows)
    nb = (n + 7) // 8
    full, pad, top = (1 << n) - 1, 8 * nb - n, n - 1
    bit = [1 << u for u in range(n)]
    # u's non-neighbours less u: its row bit-reversed, complemented
    keep = [full ^ (b | int.from_bytes(r.to_bytes(nb, "big").translate(_REV8), "little") >> pad)
            for r, b in zip(reversed(rows), bit)]
    stack: list[int] = []
    found: list[tuple[int, ...]] = []
    nodes = best = 0

    def expand(candidates: int) -> tuple | None:  # (order, candidates, size) to branch
        nonlocal nodes, best
        nodes += 1
        size = len(stack)
        need = best - size
        # greedy colouring one class at a time; only classes numbered >= need
        # can extend the stack to best, so the lower ones are not listed
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
        if colour == candidates.bit_count() and colour >= need:
            best = size + colour
            found.append(tuple(sorted([*stack, *map(top.__sub__, _bits(candidates))])))
            return None
        return order, candidates, size

    order, candidates, size = expand(full) or ([], 0, 0)
    parents = []  # the open nodes above this one
    while True:
        # branch on the highest colours first, while one can reach best
        if order:
            u, c = order.pop()
            if size + c >= best:
                stack.append(top - u)
                candidates ^= bit[u]  # u leaves before its branch: the parent is saved without it
                rest = candidates ^ (candidates & keep[u])
                if rest:
                    node = expand(rest)
                    if node is not None:
                        parents.append((order, candidates, size))
                        order, candidates, size = node
                        continue
                elif size + 1 >= best:
                    best = size + 1
                    found.append(tuple(sorted(stack)))
                stack.pop()
                continue
        if not parents:
            return [c for c in found if len(c) == best], nodes
        order, candidates, size = parents.pop()
        stack.pop()  # the vertex the parent branched on


def enumerate_maximum_cliques(graph: BlockGraph) -> list[tuple[int, ...]]:
    """All cliques of maximum size, sorted lexicographically, from one
    search of the rows alone."""
    return sorted(_search(graph.rows)[0]) if graph.v else []


def clique_number(graph: BlockGraph) -> int:
    """Exact clique number: the size of the maximum cliques."""
    return max(map(len, enumerate_maximum_cliques(graph)), default=0)


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
    """The design's block masks, once sorted ``members`` is checked for a
    repeated index and then for one out of range."""
    if len(set(members)) != len(members):
        raise ValueError("repeated block index in clique")
    masks = design.block_masks
    if members and not (0 <= members[0] and members[-1] < len(masks)):
        i = next(i for i in members if not 0 <= i < len(masks))
        raise ValueError(f"block index out of range: {i}")
    return masks


def _scans(design: Design, cliques) -> Iterator[tuple]:
    """Per member list, sorted first: its members, the AND of their point
    masks, the core, the members disjoint from some member (``chosen`` less
    the AND of their rows with own bits) and the fields looked up by shape.
    ``states[j]`` is the scan state after the last list's first j members:
    a list scans, and checks for a repeat, only the members after the prefix
    it shares with the one before; it is in range iff its ends are."""
    masks = design.block_masks
    _, rows, twice = design.reach
    b = len(masks)
    # AND, OR, core, sum of |B|(|B|-1), chosen, meet-all and doubled masks
    states = [((1 << design.n) - 1, 0, 0, 0, 0, -1, 0)]
    last: tuple[int, ...] = ()
    for members in cliques:
        members = tuple(sorted(members))
        s = 0
        for i, j in zip(last, members):
            if i != j:
                break
            s += 1
        if members and not (0 <= members[0] and members[-1] < b):
            _block_masks(design, members)  # raises for a repeat, else for one out of range
        del states[s + 1:]
        common, support, core, pairs, chosen, meet_all, doubled = states[s]
        for i in members[s:]:
            bit = 1 << i
            if chosen & bit:
                raise ValueError("repeated block index in clique")
            x = masks[i]
            size = x.bit_count()
            common &= x
            core |= support & x
            support |= x
            pairs += size * (size - 1)
            chosen |= bit
            meet_all &= rows[i] | bit
            doubled |= twice[i]
            states.append((common, support, core, pairs, chosen, meet_all, doubled))
        last = members
        m_r = (masks[members[0]] & core).bit_count() if members else 0
        for i in members:  # the blocks' common core size, 0 if they differ
            if (masks[i] & core).bit_count() != m_r:
                m_r = 0
                break
        shape = _shape(len(members), support.bit_count(), core.bit_count(), m_r,
                       bool(chosen & doubled), pairs, design.m)
        yield members, common, core, chosen & ~meet_all, shape


def clique_records(design: Design, cliques) -> list[CliqueRecord]:
    """Check and analyse each member list of ``cliques``, in order.

    Raises ValueError for the first list that is not a clique: for a
    repeated member, then for one out of range, then for the first pair of
    member blocks (in sorted order) that are disjoint.
    """
    records = []
    for members, common, _, apart, shape in _scans(design, cliques):
        if apart:
            masks = design.block_masks
            i, j = next((i, j) for i, j in combinations(members, 2) if not masks[i] & masks[j])
            raise ValueError(f"blocks {i} and {j} do not intersect")
        classification = (
            Classification("canonical", (common & -common).bit_length() - 1)
            if common else _NON_CANONICAL
        )
        records.append(CliqueRecord(members, classification, *shape))
    return records


def clique_record(design: Design, members) -> CliqueRecord:
    """``clique_records`` on a list of one: its record, or its error."""
    return clique_records(design, [members])[0]


def classify_clique(design: Design, members) -> Classification:
    """Canonical iff one point lies in every member block (unique for lam=1)."""
    return clique_record(design, members).classification


def point_multiplicity_profile(design: Design, members) -> dict[int, int]:
    """How many member blocks each support point lies in.  Raises ValueError
    for a repeated member, then for one out of range."""
    members = sorted(members)
    masks = list(map(_block_masks(design, members).__getitem__, members))
    return {p: sum(x >> p & 1 for x in masks) for p in _bits(reduce(or_, masks, 0))}


def core_restriction(design: Design, members) -> CoreRestriction:
    """Restrict the clique's blocks to its core (points in >= 2 member blocks).

    If the restricted blocks form a uniform 2-design on the core, its
    parameters are reported; degenerate or non-uniform restrictions simply
    carry no parameters.  Raises ValueError for a repeated member, then for
    one out of range.
    """
    members = tuple(members)  # read twice: sorted for the scan, then in the caller's order
    (_, _, core, _, shape), = _scans(design, [members])
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
    """Run the full pipeline: graph, SRG, Delsarte bound (reported, not
    searched), one enumeration, per-clique analysis.

    A 2-(n,m,1) design takes ``steiner_srg``, read off the design in O(b):
    b blocks of m points with no two sharing two points (no ``twice`` row)
    cover b m(m-1)/2 distinct pairs, all n(n-1)/2 of them, each once; then
    every point lies in (n-1)/(m-1) blocks, so the design is valid.  Any
    other input takes the pair pass of ``verify_srg``.
    """
    graph = build_block_graph(design)
    n, m = design.n, design.m
    steiner = (n > m >= 2 and design.b * m * (m - 1) == n * (n - 1)
               and all(len(blk) == m for blk in design.blocks)
               and not any(design.reach[2]))
    srg = None
    degenerate = None
    bound = None
    try:
        srg = steiner_srg(n, m) if steiner else verify_srg(graph)
        bound = delsarte_bound(srg)
    except DegenerateGraphError as exc:
        degenerate = str(exc)
    cliques = enumerate_maximum_cliques(graph)
    omega = len(cliques[0]) if cliques else 0
    records = tuple(clique_records(design, cliques))
    return CliqueCensus(design, graph, srg, degenerate, bound, omega, records)
