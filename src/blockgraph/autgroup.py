"""Graph automorphism groups via individualization-refinement.

Plain degree refinement cannot split a strongly regular graph (degrees and
common-neighbour counts are constant by definition), so vertices are seeded
with their maximum-clique counts alone, and the refinement additionally
distinguishes edges by how many maximum cliques contain both endpoints.
Both are preserved by any graph automorphism, so the seeded search still
finds the full group; on the block graphs of interest they shrink the
search tree to a handful of nodes.

Counting is bit-sliced: a sum of vertex bitmasks is held as planes, bit v
of plane j being bit j of v's count, so one ripple-carry add per mask
counts every vertex at once.  The edge colours are the sliced sums of the
clique masks through each vertex.  Refinement is a splitter queue
(McKay & Piperno 2014; Paige & Tarjan 1987): a splitter's per-colour
counts are the sliced sum of its members' rows, and each cell splits by AND
with each count's mask, its fragments taking its place in ascending-count
order.  A split cell that was not queued queues all fragments but its
first largest.  After individualizing a vertex of an equitable partition
only the new singleton is queued: the rest of its cell splits nothing the
singleton does not.  The trace of (colour, position, (count, size) per
fragment) steps is isomorphism-invariant.

The search walks a deterministic tree: refine to an equitable partition,
individualize the lowest-index vertex in the first largest cell, recurse.
The first root-to-leaf path fixes a base labelling; every other leaf whose
refinement trace matches the first path yields a candidate automorphism,
which is verified explicitly before being kept.  The first-path nodes are
processed deepest first.  At each, a child in the orbit of an explored
child under the automorphisms found so far is skipped, and the search below
any other child stops at its first verified automorphism and jumps back to
the first-path node (McKay & Piperno 2014, *Practical graph isomorphism
II*).  Each kept automorphism therefore enlarges the group.  Once the node
at depth i is done, the kept automorphisms all fix the base points before
it and their orbit of its base point is the i-th basic orbit, so the order
is the product of those orbit lengths (McKay 1981), with no Schreier-Sims.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from typing import NamedTuple

from .cliques import enumerate_maximum_cliques
from .graph import BlockGraph, _bits
# close_group is not called here, but perfbench/tracing.py wraps this name
# and fails when one of its trace targets disappears
from .perms import Permutation, close_group, is_graph_automorphism, orbit

DEFAULT_NODE_LIMIT = 200_000


class SearchBudgetExceeded(RuntimeError):
    """The search hit its node limit: nodes visited, generators kept and the order
    of the pointwise stabilizer of the first-path levels settled so far."""

    def __init__(self, nodes: int, generators: tuple[Permutation, ...], order: int):
        super().__init__(
            f"{nodes} nodes visited, {len(generators)} generators kept, "
            f"settled stabilizer order {order}"
        )
        self.nodes = nodes
        self.generators = generators
        self.order = order


class GraphGroup(NamedTuple):
    """The kept automorphisms, the first-path base and the group's exact order."""

    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    order: int


def default_seed_invariants(graph: BlockGraph, cliques) -> list[int]:
    """The number of maximum cliques through each vertex.  No common-neighbour
    profile: it is the same at every vertex of an SRG, K_v or an empty graph,
    and elsewhere refinement still reaches the exact group without it."""
    counts = Counter(chain.from_iterable(cliques))
    return [counts[v] for v in range(graph.v)]


def _sliced_sum(masks) -> list[int]:
    """Bit-sliced sum of bitmasks: bit v of plane j is bit j of the number
    of masks holding v, so one ripple-carry add per mask counts every
    vertex at once."""
    planes: list[int] = []
    for carry in masks:
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def _count_classes(planes: list[int], within: int) -> list[tuple[int, int]]:
    """(count, mask) for each count the sliced sum takes on ``within``,
    ascending by count."""
    classes = [(0, within)]
    for j, plane in enumerate(planes):
        split = []
        for k, mask in classes:
            high = mask & plane
            if mask ^ high:
                split.append((k, mask ^ high))
            if high:
                split.append((k | 1 << j, high))
        classes = split
    return sorted(classes)


def _edge_colour_rows(graph: BlockGraph, cliques) -> list[list[int]]:
    """Adjacency split by edge colour = number of maximum cliques on the
    pair, one list of rows per colour, ascending by colour."""
    through: list[list[int]] = [[] for _ in range(graph.v)]
    for cl in cliques:
        mask = sum(1 << u for u in cl)
        for u in cl:
            through[u].append(mask)
    by_colour: dict[int, list[int]] = {0: [0] * graph.v}
    for u, row in enumerate(graph.rows):
        for colour, mask in _count_classes(_sliced_sum(through[u]), row):
            by_colour.setdefault(colour, [0] * graph.v)[u] = mask
    return [by_colour[c] for c in sorted(by_colour)]


def _refine(colour_rows, cells: list[int], splitters=None) -> tuple[list[int], tuple]:
    """The coarsest equitable partition finer than ``cells``, and the trace
    of the splits that produced it.

    Cells are bitmasks in a list whose order is canonical: a cell's
    fragments take its place in ascending-count order, so positions (and
    hence the trace) are comparable between search branches.  Splitters
    come off a queue that starts with ``splitters`` (default: every cell),
    which must be cells such that the partition is equitable with respect
    to every other cell.  A split cell's fragments are all queued if it was
    queued, otherwise all but its first largest, whose counts follow from
    the cell's and the other fragments' (Hopcroft's rule; Paige & Tarjan
    1987).
    """
    cells = list(cells)
    queue = deque(cells if splitters is None else splitters)
    queued = set(queue)
    active = sum(cell for cell in cells if cell & (cell - 1))  # non-singletons
    trace = []
    while active and queue:
        splitter = queue.popleft()
        if splitter not in queued:
            continue  # a queued cell that has split since
        queued.remove(splitter)
        members = _bits(splitter)
        for colour, rows in enumerate(colour_rows):
            classes = _count_classes(_sliced_sum([rows[u] for u in members]), active)
            if len(classes) < 2:
                continue  # no non-singleton cell can split
            # the vertices of non-singleton cells with a non-zero count
            touched = active ^ (classes[0][1] if classes[0][0] == 0 else 0)
            out: list[int] = []
            for cell in cells:
                if not cell & touched:
                    out.append(cell)
                    continue
                for _, mask in classes:
                    if cell & mask:
                        break
                if not cell & ~mask:  # inside the first class it meets
                    out.append(cell)
                    continue
                fragments = [(k, part) for k, mask in classes if (part := cell & mask)]
                sizes = [part.bit_count() for _, part in fragments]
                trace.append((colour, len(out), tuple(zip((k for k, _ in fragments), sizes))))
                skip = -1 if cell in queued else sizes.index(max(sizes))
                queued.discard(cell)
                for i, (_, part) in enumerate(fragments):
                    out.append(part)
                    if i != skip:
                        queue.append(part)
                        queued.add(part)
                    if not part & (part - 1):
                        active ^= part
            cells = out
    return cells, tuple(trace)


def _first_largest_cell(cells: list[int]) -> int | None:
    sizes = [cell.bit_count() for cell in cells]
    largest = max(sizes, default=0)
    return sizes.index(largest) if largest > 1 else None


def _lowest(cell: int) -> int:
    return (cell & -cell).bit_length() - 1


def graph_automorphism_group(
    graph: BlockGraph,
    cliques=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> GraphGroup:
    """Complete automorphism group of a desk-scale graph, seeded with the
    cells of equal maximum-clique counts.

    Returns the automorphisms the search kept (none for a trivial group),
    the first-path base and the exact order.  Raises SearchBudgetExceeded
    before a refinement past the first ``node_limit``: the root and every
    individualized vertex are one node each, matching trace or not.
    """
    v = graph.v
    if cliques is None:
        cliques = enumerate_maximum_cliques(graph)

    colour_rows = _edge_colour_rows(graph, cliques)
    seed_cells: dict[int, int] = {}
    for vertex, key in enumerate(default_seed_invariants(graph, cliques)):
        seed_cells[key] = seed_cells.get(key, 0) | (1 << vertex)

    generators: list[Permutation] = []
    nodes = 0
    order = 1  # of the pointwise stabilizer of the settled base prefix

    def visit() -> None:
        nonlocal nodes
        if nodes == node_limit:
            raise SearchBudgetExceeded(nodes, tuple(generators), order)
        nodes += 1

    def individualize(cells: list[int], ci: int, vertex: int):
        # every refinement is a node; the parent is equitable, so only the
        # new singleton can split a cell
        visit()
        split = cells[:ci] + [1 << vertex, cells[ci] & ~(1 << vertex)] + cells[ci + 1:]
        return _refine(colour_rows, split, [1 << vertex])

    # first path: always the lowest-index vertex of the first largest cell
    visit()
    cells, _ = _refine(colour_rows, [seed_cells[k] for k in sorted(seed_cells)])
    path: list[tuple[list[int], int]] = []
    base_traces: list[tuple] = []
    while (ci := _first_largest_cell(cells)) is not None:
        path.append((cells, ci))
        cells, trace = individualize(cells, ci, _lowest(cells[ci]))
        base_traces.append(trace)
    base_leaf = [_lowest(c) for c in cells]
    base = tuple(_lowest(cells[ci]) for cells, ci in path)

    def automorphism_below(cells: list[int], ci: int, vertex: int, depth: int):
        """The first verified automorphism (or None) at a leaf below the child
        of an off-path node at ``depth`` that individualizes ``vertex`` in
        cell ``ci``."""
        cells, trace = individualize(cells, ci, vertex)
        if trace != base_traces[depth]:
            return None
        ci = _first_largest_cell(cells)
        if ci is None:
            images = [0] * v
            for a, c in zip(base_leaf, cells):
                images[a] = _lowest(c)
            candidate = Permutation(tuple(images))
            return candidate if is_graph_automorphism(graph, candidate) else None
        for vertex in _bits(cells[ci]):
            found = automorphism_below(cells, ci, vertex, depth + 1)
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
        for vertex in _bits(cells[ci]):
            if vertex in explored:
                continue
            found = automorphism_below(cells, ci, vertex, depth)
            if found is not None:
                generators.append(found)
            explored = orbit(explored | {vertex}, generators)
        # the kept automorphisms now reach every child in the basic orbit
        order *= len(orbit({base[depth]}, generators))

    return GraphGroup(tuple(generators), base, order)
