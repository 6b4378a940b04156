"""Graph automorphism groups via individualization-refinement.

Plain degree refinement cannot split a strongly regular graph (degrees and
common-neighbour counts are constant by definition), so vertices are seeded
with maximum-clique membership counts and common-neighbour-count multisets,
and the refinement additionally distinguishes edges by how many maximum
cliques contain both endpoints.  All of these are preserved by any graph
automorphism, so the seeded search still finds the full group; on the block
graphs of interest they shrink the search tree to a handful of nodes.

The search walks a deterministic tree: refine to an equitable partition,
individualize the lowest-index vertex in the first largest cell, recurse.
The first root-to-leaf path fixes a base labelling; every other leaf whose
refinement trace matches the first path yields a candidate automorphism,
which is verified explicitly before being kept.  The first-path nodes are
processed deepest first.  At each, a child in the orbit of an explored
child under the automorphisms found so far is skipped, and the search below
any other child stops at its first verified automorphism and jumps back to
the first-path node (McKay & Piperno 2014, *Practical graph isomorphism
II*).  Each kept automorphism therefore enlarges the group, and the group
is closed by Schreier-Sims with the first path as its base.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .cliques import enumerate_maximum_cliques
from .graph import BlockGraph
from .perms import PermGroup, Permutation, close_group, is_graph_automorphism, orbit

DEFAULT_NODE_LIMIT = 200_000


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search hit its node limit; partial generators attached."""

    def __init__(self, limit: int, generators: tuple[Permutation, ...]):
        super().__init__(f"automorphism search exceeded {limit} nodes")
        self.limit = limit
        self.generators = generators


def default_seed_invariants(graph: BlockGraph, cliques=None) -> list:
    """Per-vertex invariant: (max cliques through v, common-neighbour multiset)."""
    if cliques is None:
        cliques = enumerate_maximum_cliques(graph)
    counts = [0] * graph.v
    for cl in cliques:
        for v in cl:
            counts[v] += 1
    invariants = []
    for v in range(graph.v):
        row = graph.rows[v]
        profile: Counter = Counter()
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            profile[(graph.rows[v] & graph.rows[u]).bit_count()] += 1
        invariants.append((counts[v], tuple(sorted(profile.items()))))
    return invariants


def _edge_colour_rows(graph: BlockGraph, cliques) -> dict[int, list[int]]:
    """Adjacency split by edge colour = number of maximum cliques on the pair."""
    pair_counts: Counter = Counter()
    for cl in cliques:
        for a, b in combinations(cl, 2):
            pair_counts[(a, b)] += 1
    by_colour: dict[int, list[int]] = {0: [0] * graph.v}
    for i in range(graph.v):
        row = graph.rows[i] >> (i + 1) << (i + 1)
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            c = pair_counts.get((i, j), 0)
            rows = by_colour.setdefault(c, [0] * graph.v)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return by_colour


class _Refiner:
    """Equitable refinement of ordered partitions over an edge-coloured graph.

    Cells are bitmasks in a list whose order is canonical: a cell's splits
    are inserted in sorted-signature order, so positions (and hence the
    refinement trace) are comparable between different search branches.
    """

    def __init__(self, colour_rows: dict[int, list[int]]):
        self.colour_rows = [colour_rows[c] for c in sorted(colour_rows)]

    def refine(self, cells: list[int]) -> tuple[list[int], tuple]:
        cells = list(cells)
        trace = []
        changed = True
        while changed:
            changed = False
            out: list[int] = []
            round_trace = []
            for ci, cell in enumerate(cells):
                if cell & (cell - 1) == 0:  # singleton or empty
                    out.append(cell)
                    continue
                groups: dict[tuple, int] = {}
                rest = cell
                while rest:
                    v = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    sig = tuple(
                        (rows[v] & other).bit_count()
                        for rows in self.colour_rows
                        for other in cells
                    )
                    groups[sig] = groups.get(sig, 0) | (1 << v)
                if len(groups) > 1:
                    changed = True
                ordered = sorted(groups)
                out.extend(groups[sig] for sig in ordered)
                round_trace.append(
                    (ci, tuple((sig, groups[sig].bit_count()) for sig in ordered))
                )
            cells = out
            trace.append(tuple(round_trace))
        return cells, tuple(trace)


def _first_largest_cell(cells: list[int]) -> int | None:
    best = None
    best_size = 1
    for i, cell in enumerate(cells):
        size = cell.bit_count()
        if size > best_size:
            best, best_size = i, size
    return best


def _lowest(cell: int) -> int:
    return (cell & -cell).bit_length() - 1


def graph_automorphism_group(
    graph: BlockGraph,
    seed_invariants=None,
    cliques=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> PermGroup:
    """Complete automorphism group of a desk-scale graph.

    Returns the group generated by the automorphisms the search kept, with
    the first path as base and its exact order.  Raises SearchBudgetExceeded
    (carrying the generators found so far) if the tree grows past
    ``node_limit`` nodes.
    """
    v = graph.v
    if v == 0:
        raise ValueError("empty graph has no vertex domain")
    if cliques is None:
        cliques = enumerate_maximum_cliques(graph)
    if seed_invariants is None:
        seed_invariants = default_seed_invariants(graph, cliques)
    if len(seed_invariants) != v:
        raise ValueError("need one seed invariant per vertex")

    refiner = _Refiner(_edge_colour_rows(graph, cliques))
    seed_cells: dict = {}
    for vertex in range(v):
        key = seed_invariants[vertex]
        seed_cells[key] = seed_cells.get(key, 0) | (1 << vertex)

    generators: list[Permutation] = []
    nodes = 0

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchBudgetExceeded(node_limit, tuple(generators))

    def individualize(cells: list[int], ci: int, vertex: int):
        split = cells[:ci] + [1 << vertex, cells[ci] & ~(1 << vertex)] + cells[ci + 1:]
        return refiner.refine(split)

    # first path: always the lowest-index vertex of the first largest cell
    visit()
    cells, _ = refiner.refine([seed_cells[k] for k in sorted(seed_cells)])
    path: list[tuple[list[int], int]] = []
    base_traces: list[tuple] = []
    while (ci := _first_largest_cell(cells)) is not None:
        path.append((cells, ci))
        visit()
        cells, trace = individualize(cells, ci, _lowest(cells[ci]))
        base_traces.append(trace)
    base_leaf = [_lowest(c) for c in cells]
    base = tuple(_lowest(cells[ci]) for cells, ci in path)

    def automorphism_below(cells: list[int], depth: int) -> Permutation | None:
        """The first verified automorphism at a leaf below an off-path node."""
        visit()
        ci = _first_largest_cell(cells)
        if ci is None:
            images = [0] * v
            for a, c in zip(base_leaf, cells):
                images[a] = _lowest(c)
            candidate = Permutation(tuple(images))
            return candidate if is_graph_automorphism(graph, candidate) else None
        cell = cells[ci]
        while cell:
            vertex = _lowest(cell)
            cell &= cell - 1
            child, trace = individualize(cells, ci, vertex)
            if trace == base_traces[depth]:
                found = automorphism_below(child, depth + 1)
                if found is not None:
                    return found
        return None

    # Deepest first-path node first.  Every automorphism found so far then
    # fixes the node's prefix pointwise, so a child in the orbit of an
    # explored child roots an equivalent subtree and is skipped; one
    # automorphism below a child settles that child (McKay & Piperno 2014).
    for depth in reversed(range(len(path))):
        cells, ci = path[depth]
        explored = {base[depth]}
        rest = cells[ci] & ~(1 << base[depth])
        while rest:
            vertex = _lowest(rest)
            rest &= rest - 1
            if vertex in explored:
                continue
            child, trace = individualize(cells, ci, vertex)
            if trace == base_traces[depth]:
                found = automorphism_below(child, depth + 1)
                if found is not None:
                    generators.append(found)
            explored = orbit(explored | {vertex}, generators)

    gens = tuple(generators) if generators else (Permutation.identity(v),)
    return close_group(gens, base=base)
