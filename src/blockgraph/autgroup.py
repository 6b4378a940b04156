"""Graph automorphism groups via individualization-refinement.

Plain degree refinement cannot split a strongly regular graph (degrees and
common-neighbour counts are constant by definition), so the refinement
distinguishes edges by how many maximum cliques contain both endpoints;
any graph automorphism preserves that count.  The root is one cell of
every vertex: a vertex's colour-weighted degree is omega - 1 times the
number of maximum cliques through it, so the first splitter pass already
separates the vertices by that number.  On the block graphs of interest
the search tree is a handful of nodes.

Counting is bit-sliced: a sum of vertex bitmasks is held as planes, bit v
of plane j being bit j of v's count, so one ripple-carry add per mask
counts every vertex at once.  The edge colours come from one pass that
builds each maximum clique's mask once: a vertex's edge colours are the
sliced sum of the masks through it, one list of rows per colour that
occurs.  Refinement is a splitter queue
(McKay & Piperno 2014; Paige & Tarjan 1987): a splitter's per-colour
counts are the sliced sum of its members' rows, and each cell splits by AND
with each count's mask, its fragments taking its place in ascending-count
order.  A split cell that was not queued queues all fragments but its
first largest.  After individualizing a vertex of an equitable partition
only the new singleton is queued: the rest of its cell splits nothing the
singleton does not.  A partition is held as its open (non-singleton)
cells, in canonical order, and its closed vertices, in the order their
singleton cells were closed; as in nauty and Traces, fixed points leave
the cell list, so a refinement walks only the open cells and once most
cells are singletons a splitter costs what the few open cells cost.  The
trace of (colour, position among the open cells, (count, size) per
fragment) steps is isomorphism-invariant.

The search walks a deterministic tree: refine to an equitable partition,
individualize the lowest-index vertex in the first largest open cell,
repeat until no cell is open.  The first root-to-leaf path fixes a base
labelling, its closing order; every other leaf whose refinement trace
matches the first path yields a candidate automorphism, mapping the j-th
vertex closed on the first path to the j-th closed at the leaf, which is
verified explicitly before being kept.  Off the first path, a refinement
stops at the first step where its trace leaves the first path's trace at
that depth, or runs past its end (nauty's trace comparison): the tree is
the same, and each refuted node costs only the steps up to where it
parts.  The first-path nodes are processed deepest first, with the
orbits of the automorphisms found so far in one union-find, each class
rooted at its least vertex (nauty's orbits array; Tarjan 1975).  Each
kept automorphism fixes a node's prefix and so maps its cell onto itself,
and the base point is the cell's least vertex, so a child is explored, in
ascending order, iff it is its own root and not the base point (nauty's
least-in-orbit rule).  The search below it stops at its first verified
automorphism (McKay & Piperno 2014, *Practical graph isomorphism II*),
which thus enlarges the group.  The i-th basic orbit is then the cell's
vertices whose root is the base point, and the order is the product of
those orbit lengths (McKay 1981), with no Schreier-Sims.
"""

from __future__ import annotations

from collections import deque

from .cliques import enumerate_maximum_cliques
from .graph import BlockGraph, _bits
# close_group is not called here, but perfbench/tracing.py wraps this name
# and fails when one of its trace targets disappears
from .perms import PermGroup, Permutation, _join, _root, close_group, is_graph_automorphism

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
    classes = [(0, within)] if within else []
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


def default_seed_invariants(graph: BlockGraph, cliques) -> list[list[int]]:
    """The edge colours: the rows split by the number of maximum cliques on
    the edge, one list per colour that occurs, ascending, from one pass
    over the cliques' masks.  No common-neighbour profile: it is the same
    at every vertex of an SRG, K_v or an empty graph, and elsewhere
    refinement still reaches the exact group without it."""
    through: list[list[int]] = [[] for _ in range(graph.v)]
    for cl in cliques:
        mask = sum(1 << u for u in cl)
        for u in cl:
            through[u].append(mask)
    by_colour: dict[int, list[int]] = {}
    for u, (masks, row) in enumerate(zip(through, graph.rows)):
        for colour, mask in _count_classes(_sliced_sum(masks), row):
            by_colour.setdefault(colour, [0] * graph.v)[u] = mask
    return [by_colour[c] for c in sorted(by_colour)]


def _refine(
    colour_rows, cells: list[int], splitters=None, expect=None
) -> tuple[list[int], list[int], tuple]:
    """The coarsest equitable partition finer than ``cells``, as its open
    (non-singleton) cells and its closed vertices, and the trace of the
    splits that produced it.

    Cells are bitmasks.  The open list's order is canonical: a cell's open
    fragments take its place in ascending-count order, and each one-vertex
    fragment leaves it for ``closed``, which lists the singleton cells in
    the order they were closed (those of ``cells`` first, in list order).
    So positions in the open list, and hence the trace, are comparable
    between search branches, and so is the closing order.  Splitters come
    off a queue that starts with ``splitters`` (default: every cell), which
    must be cells such that the partition is equitable with respect to
    every other cell.  A split cell's fragments are all queued if it was
    queued, otherwise all but its first largest, whose counts follow from
    the cell's and the other fragments' (Hopcroft's rule; Paige & Tarjan
    1987).

    With ``expect``, a trace to match, the refinement stops at the first
    step that differs from ``expect`` or runs past its end, and returns the
    trace so far with the partition as split up to that step.
    """
    open_ = [cell for cell in cells if cell & (cell - 1)]
    closed = [_lowest(cell) for cell in cells if not cell & (cell - 1)]
    queue = deque(cells if splitters is None else splitters)
    queued = set(queue)
    active = sum(open_)
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
                continue  # no open cell can split
            # the vertices of open cells with a non-zero count
            touched = active ^ (classes[0][1] if classes[0][0] == 0 else 0)
            out: list[int] = []
            rest = iter(open_)
            for cell in rest:
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
                for j, (_, part) in enumerate(fragments):
                    if j != skip:
                        queue.append(part)
                        queued.add(part)
                    if part & (part - 1):
                        out.append(part)
                    else:
                        active ^= part
                        closed.append(_lowest(part))
                if expect is not None and (
                    len(trace) > len(expect) or trace[-1] != expect[len(trace) - 1]
                ):
                    out.extend(rest)
                    return out, closed, tuple(trace)
            open_ = out
    return open_, closed, tuple(trace)


def _first_largest_cell(cells: list[int]) -> int:
    sizes = [cell.bit_count() for cell in cells]
    return sizes.index(max(sizes))


def _lowest(cell: int) -> int:
    return (cell & -cell).bit_length() - 1


def graph_automorphism_group(
    graph: BlockGraph,
    cliques=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> PermGroup:
    """Complete automorphism group of a desk-scale graph, refined from one
    cell by the maximum-clique edge colours.

    Returns a ``PermGroup`` of the automorphisms the search kept (none for
    a trivial group), the first-path base and the exact order.  Raises
    SearchBudgetExceeded before a refinement past the first ``node_limit``:
    the root and every individualized vertex are one node each, matching
    trace or not, and whether or not the refinement stops early where the
    traces part.
    """
    v = graph.v
    if cliques is None:
        cliques = enumerate_maximum_cliques(graph)

    colour_rows = default_seed_invariants(graph, cliques)

    generators: list[Permutation] = []
    nodes = 0
    order = 1  # of the pointwise stabilizer of the settled base prefix

    def visit() -> None:
        nonlocal nodes
        if nodes == node_limit:
            raise SearchBudgetExceeded(nodes, tuple(generators), order)
        nodes += 1

    def individualize(open_: list[int], closed: list[int], ci: int, vertex: int, expect=None):
        # every refinement is a node, aborted or not; the parent is
        # equitable, so only the new singleton can split a cell
        visit()
        split = open_[:ci] + [1 << vertex, open_[ci] & ~(1 << vertex)] + open_[ci + 1:]
        open_, closing, trace = _refine(colour_rows, split, [1 << vertex], expect)
        return open_, closed + closing, trace

    # first path: always the lowest-index vertex of the first largest open cell
    visit()
    open_, closed, _ = _refine(colour_rows, [(1 << v) - 1] if v else [])
    path: list[tuple[list[int], list[int], int]] = []
    base_traces: list[tuple] = []
    while open_:
        ci = _first_largest_cell(open_)
        path.append((open_, closed, ci))
        open_, closed, trace = individualize(open_, closed, ci, _lowest(open_[ci]))
        base_traces.append(trace)
    base_index = sorted(range(v), key=closed.__getitem__)  # where each vertex closes
    base = tuple(_lowest(open_[ci]) for open_, _, ci in path)

    def automorphism_below(depth: int, vertex: int):
        """The first verified automorphism (or None) at a leaf below the child
        of first-path node ``depth`` that individualizes ``vertex``, walked
        by a stack of [open, closed, cell, children left] frames, the
        children left a mask whose lowest vertex is taken next."""
        frames = [[*path[depth], 1 << vertex]]
        while frames:
            frame = frames[-1]
            open_, closed, ci, left = frame
            if not left:
                frames.pop()
                continue
            frame[3] = left & (left - 1)
            vertex = _lowest(left)
            # stops where the trace leaves the first path's, which may also
            # end before the first path's does
            expect = base_traces[depth + len(frames) - 1]
            open_, closed, trace = individualize(open_, closed, ci, vertex, expect)
            if trace == expect and open_:
                ci = _first_largest_cell(open_)
                frames.append([open_, closed, ci, open_[ci]])
            elif trace == expect:
                # a leaf: the j-th vertex closed here is the image of the j-th
                # vertex closed on the first path
                candidate = Permutation(tuple(map(closed.__getitem__, base_index)))
                if is_graph_automorphism(graph, candidate):
                    return candidate
        return None

    # Deepest first-path node first; a child that is not the least of its
    # orbit, or is the base point, is skipped (see the module docstring).
    orbits = list(range(v))  # union-find of the kept automorphisms' orbits
    for depth in reversed(range(len(path))):
        open_, _, ci = path[depth]
        for vertex in _bits(open_[ci] & (open_[ci] - 1)):
            if _root(orbits, vertex) == vertex:
                found = automorphism_below(depth, vertex)
                if found is not None:
                    generators.append(found)
                    _join(orbits, found.images)
        order *= sum(_root(orbits, x) == base[depth] for x in _bits(open_[ci]))

    return PermGroup(tuple(generators), base, order)
