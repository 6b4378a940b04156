import math
import random
from collections import Counter, deque
from itertools import combinations, permutations

import pytest

from blockgraph import (
    BlockGraph,
    Permutation,
    build_block_graph,
    builtin_design,
    census_report,
    close_group,
    develop_base_blocks,
    graph_automorphism_group,
    induced_block_action,
    is_graph_automorphism,
    parse_design,
)
from blockgraph import autgroup
from blockgraph.autgroup import (
    SearchBudgetExceeded,
    _count_classes,
    _edge_colour_rows,
    _refine,
    _sliced_sum,
    default_seed_invariants,
)
from blockgraph.cliques import enumerate_maximum_cliques
from blockgraph.graph import _bits
from blockgraph.report import automorphism_section

from conftest import adjacent, point_line_blocklist, random_blocklists, same_group, steiner_design


def complete_graph(n):
    full = (1 << n) - 1
    return BlockGraph(n, tuple(full & ~(1 << i) for i in range(n)))


def petersen():
    verts = list(combinations(range(5), 2))
    rows = [0] * 10
    for i, a in enumerate(verts):
        for j, b in enumerate(verts):
            if i != j and not set(a) & set(b):
                rows[i] |= 1 << j
    return verts, BlockGraph(10, tuple(rows))


def path_graph(n):
    rows = [0] * n
    for i in range(n - 1):
        rows[i] |= 1 << (i + 1)
        rows[i + 1] |= 1 << i
    return BlockGraph(n, tuple(rows))


def test_main66_graph_group(main66, main66_census, main66_generators):
    cliques = [r.members for r in main66_census.records]
    found = graph_automorphism_group(main66_census.graph, cliques=cliques)
    assert found.order == 39
    for g in found.generators:
        assert is_graph_automorphism(main66_census.graph, g)
    group = close_group(found.generators)
    assert group.order == 39
    assert not group.abelian
    # independently closed induced design group is the same group
    induced = close_group(
        [induced_block_action(main66, g) for g in main66_generators]
    )
    assert induced.order == 39
    assert same_group(induced, group)


@pytest.mark.parametrize("name", ["appendixA66", "appendixB66"])
def test_appendix_graph_groups(name, request):
    census = request.getfixturevalue(
        "appendix_a_census" if name == "appendixA66" else "appendix_b_census"
    )
    group = graph_automorphism_group(
        census.graph, cliques=[r.members for r in census.records]
    )
    assert group.order == 39


def test_complete_graph_k7():
    group = graph_automorphism_group(complete_graph(7))
    assert group.order == 5040


def test_petersen_group_matches_s5_oracle():
    verts, graph = petersen()
    index = {v: i for i, v in enumerate(verts)}
    oracle = set()
    for sigma in permutations(range(5)):
        images = tuple(
            index[tuple(sorted((sigma[a], sigma[b])))] for (a, b) in verts
        )
        oracle.add(Permutation(images))
    for p in oracle:
        assert is_graph_automorphism(graph, p)
    found = graph_automorphism_group(graph)
    assert found.order == len(oracle) == 120
    group = close_group(found.generators)
    assert group.order == 120
    assert all(p in group for p in oracle)
    assert all(g in oracle for g in found.generators)


def test_path_graph_reversal_only():
    graph = path_graph(5)
    found = graph_automorphism_group(graph)
    assert found.order == 2
    reversal = Permutation(tuple(reversed(range(5))))
    assert found.generators == (reversal,)


def test_k13_group_is_symmetric():
    # the block graph of PG(2,3) is complete: its group is S13
    graph = build_block_graph(builtin_design("pg23"))
    assert graph.v == 13
    found = graph_automorphism_group(graph)
    assert found.order == 6_227_020_800
    group = close_group(found.generators, base=found.base)
    assert group.order == found.order
    assert Permutation((1, 0) + tuple(range(2, 13))) in group


def test_pg32_graph_group_includes_duality(pg32):
    # |PGL(4,2)| = 20160, doubled by the Klein duality that swaps the
    # point-stars and the planes among the maximum cliques
    assert (pg32.n, pg32.m, pg32.b) == (15, 3, 35)
    section, group = automorphism_section(pg32, census_report(pg32))
    assert section.order == group.order == 40_320
    assert not section.equals_design_group


def test_ag33_graph_group_is_design_group(ag33):
    # |AGL(3,3)| = 27 * (26 * 24 * 18)
    assert (ag33.n, ag33.m, ag33.b) == (27, 3, 117)
    census = census_report(ag33)
    section, group = automorphism_section(ag33, census)
    assert section.order == group.order == 303_264
    assert section.equals_design_group
    assert all(is_graph_automorphism(census.graph, g) for g in group.generators)


def test_generators_reclose_to_same_order(main66_census):
    group = graph_automorphism_group(
        main66_census.graph, cliques=[r.members for r in main66_census.records]
    )
    assert close_group(group.generators).order == group.order


def test_search_never_closes_the_group(monkeypatch, main66_census):
    def forbidden(*args, **kwargs):
        raise AssertionError("the search ran Schreier-Sims")

    for name in ("blockgraph.autgroup.close_group", "blockgraph.perms._schreier_sims"):
        monkeypatch.setattr(name, forbidden)
    group = graph_automorphism_group(
        main66_census.graph, cliques=[r.members for r in main66_census.records]
    )
    assert (group.order, len(group.generators)) == (39, 2)


def test_trivial_group_keeps_no_generator():
    # a triangle with a pendant path of length 2 at one corner and a
    # pendant edge at another: only the identity preserves it
    rows = [0] * 6
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    graph = BlockGraph(6, tuple(rows))
    assert [p for p in permutations(range(6)) if is_graph_automorphism(graph, Permutation(p))] == [
        tuple(range(6))
    ]
    group = graph_automorphism_group(graph)
    assert (group.generators, group.order) == ((), 1)


def test_budget_exceeded(main66_census):
    with pytest.raises(SearchBudgetExceeded) as info:
        graph_automorphism_group(
            main66_census.graph,
            cliques=[r.members for r in main66_census.records],
            node_limit=1,
        )
    assert (info.value.nodes, info.value.generators, info.value.order) == (1, (), 1)


def test_budget_exceeded_reports_settled_stabilizer():
    # Every budget short of the full search stops with the order of the
    # pointwise stabilizer of a settled suffix of the first path: a product
    # of the basic orbit lengths of a chain independently closed on the
    # same base, from some level to the last, growing with the budget.
    census = census_report(builtin_design("ag23"))
    cliques = [r.members for r in census.records]
    full = graph_automorphism_group(census.graph, cliques=cliques)
    chain = close_group(full.generators, base=full.base).chain
    suffixes = [math.prod(len(level.transversal) for level in chain[i:]) for i in range(len(chain))]
    seen = []
    for limit in range(1, 200):
        try:
            graph_automorphism_group(census.graph, cliques=cliques, node_limit=limit)
        except SearchBudgetExceeded as exc:
            assert exc.nodes == limit
            assert exc.order in suffixes + [1]
            assert all(is_graph_automorphism(census.graph, g) for g in exc.generators)
            seen.append(exc.order)
        else:
            break
    assert seen == sorted(seen)
    assert seen[0] == 1 and 1 < seen[-1] < full.order
    assert len(set(seen)) == len(full.base)


def test_budget_counts_every_refinement(monkeypatch):
    # A random STS(45) refines to one cell of 330 vertices at the root and
    # almost surely has a trivial group, so nothing prunes the tree: each
    # refinement, whether its trace matches or not, must count as a node.
    census = census_report(steiner_design(45, seed=1))
    calls = []
    monkeypatch.setattr(autgroup, "_refine", lambda *args: calls.append(args) or _refine(*args))
    with pytest.raises(SearchBudgetExceeded) as info:
        graph_automorphism_group(
            census.graph, cliques=[r.members for r in census.records], node_limit=10
        )
    assert info.value.nodes == 10
    assert len(calls) <= 10


def test_default_seed_invariants_are_invariant(main66_census):
    # vertices in the same true orbit must get equal seed invariants
    graph = main66_census.graph
    seeds = default_seed_invariants(graph, [r.members for r in main66_census.records])
    assert len(set(seeds)) == 2  # the infinity-star blocks vs all others


# ---------------------------------------------------------------------------
# differential tests: each kernel against a reference written the direct way


def all_cells_refine(colour_rows, cells):
    """Reference refinement: re-sign every vertex of every non-singleton cell
    by its per-colour neighbour counts in every cell, until nothing splits."""
    cells = list(cells)
    changed = True
    while changed:
        changed = False
        out = []
        for cell in cells:
            groups = {}
            for v in range(cell.bit_length()):
                if cell >> v & 1:
                    sig = tuple((rows[v] & other).bit_count() for rows in colour_rows for other in cells)
                    groups[sig] = groups.get(sig, 0) | (1 << v)
            changed |= len(groups) > 1
            out.extend(groups[sig] for sig in sorted(groups))
        cells = out
    return cells


def pair_counter_colours(graph, cliques):
    """Reference edge colours: a table of pairs counted clique by clique."""
    pair_counts = Counter(pair for cl in cliques for pair in combinations(cl, 2))
    by_colour = {0: [0] * graph.v}
    for i, j in combinations(range(graph.v), 2):
        if adjacent(graph, i, j):
            rows = by_colour.setdefault(pair_counts[(i, j)], [0] * graph.v)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return [by_colour[c] for c in sorted(by_colour)]


def per_edge_is_automorphism(graph, perm):
    """Reference check: every edge maps to an edge and every non-edge to a non-edge."""
    return perm.degree == graph.v and all(
        adjacent(graph, perm(a), perm(b)) == adjacent(graph, a, b)
        for a, b in combinations(range(graph.v), 2)
    )


def membership_counts(graph, cliques):
    through = Counter(v for cl in cliques for v in cl)
    return [through[v] for v in range(graph.v)]


def common_neighbour_profiles(graph):
    """The seed profile the search no longer uses: each vertex's multiset of
    common-neighbour counts with its neighbours."""
    out = []
    for v in range(graph.v):
        profile = Counter(
            (graph.rows[v] & graph.rows[u]).bit_count()
            for u in range(graph.v)
            if adjacent(graph, v, u)
        )
        out.append(tuple(sorted(profile.items())))
    return out


def random_graph(seed):
    """A seeded G(n, p) graph, or a circulant, whose rotations are automorphisms."""
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    pairs = combinations(range(n), 2)
    if seed % 2:
        gaps = {d for d in range(1, n // 2 + 1) if rng.random() < 0.4} or {1}
        edges = [(a, b) for a, b in pairs if min(b - a, n - b + a) in gaps]
    else:
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [pair for pair in pairs if rng.random() < p]
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return BlockGraph(n, tuple(rows))


@pytest.fixture(
    scope="module",
    params=["main66", "pg32", "ag33"] + [f"random{seed}" for seed in range(8)],
)
def graph_case(request):
    """(graph, maximum cliques, generators of its automorphism group)."""
    if request.param.startswith("random"):
        graph = random_graph(int(request.param[len("random"):]))
        cliques = enumerate_maximum_cliques(graph)
    else:
        if request.param == "main66":
            census = request.getfixturevalue("main66_census")
        else:
            census = census_report(request.getfixturevalue(request.param))
        graph, cliques = census.graph, [r.members for r in census.records]
    return graph, cliques, graph_automorphism_group(graph, cliques=cliques)


def seed_partition(graph, cliques):
    seeds = default_seed_invariants(graph, cliques)
    cells = {}
    for v, key in enumerate(seeds):
        cells[key] = cells.get(key, 0) | (1 << v)
    return [cells[k] for k in sorted(cells)]


def unsettled(cells):
    """The vertices in non-singleton cells."""
    return [v for c in cells if c & (c - 1) for v in range(c.bit_length()) if c >> v & 1]


def individualized(cells, vertex):
    ci = next(i for i, cell in enumerate(cells) if cell >> vertex & 1)
    return cells[:ci] + [1 << vertex, cells[ci] & ~(1 << vertex)] + cells[ci + 1:]


def image_mask(perm, mask):
    return sum(1 << perm(v) for v in range(perm.degree) if mask >> v & 1)


def closed_order(group, degree):
    """The order of the group the kept generators generate, by Schreier-Sims."""
    return close_group(group.generators or [Permutation.identity(degree)]).order


def test_first_path_order_matches_closure(graph_case):
    graph, _, group = graph_case
    assert group.order == closed_order(group, graph.v)


@pytest.mark.parametrize("seed", range(8, 40))
def test_first_path_order_matches_closure_on_random_graphs(seed):
    graph = random_graph(seed)
    group = graph_automorphism_group(graph)
    assert all(is_graph_automorphism(graph, g) for g in group.generators)
    assert group.order == closed_order(group, graph.v)


def test_first_path_order_matches_closure_on_random_block_graphs():
    for design in random_blocklists():
        graph = build_block_graph(design)
        group = graph_automorphism_group(graph)
        assert group.order == closed_order(group, graph.v)


def test_refine_matches_all_cells_reference(graph_case):
    graph, cliques, _ = graph_case
    colours = _edge_colour_rows(graph, cliques)
    rng = random.Random(graph.v)
    starts = [seed_partition(graph, cliques), [(1 << graph.v) - 1]]
    cells, _ = _refine(colours, starts[0])
    for vertex in rng.sample(unsettled(cells), min(len(unsettled(cells)), 6)):
        starts.append(individualized(cells, vertex))
        once, _ = _refine(colours, starts[-1])
        if unsettled(once):
            starts.append(individualized(once, rng.choice(unsettled(once))))
    for start in starts:
        got, _ = _refine(colours, start)
        assert set(got) == set(all_cells_refine(colours, start))
        assert sum(got) == (1 << graph.v) - 1


def test_singleton_splitter_refines_like_all_cells(graph_case):
    # from an equitable partition, queueing only an individualized vertex
    # reaches the same coarsest equitable partition as queueing every cell
    graph, cliques, _ = graph_case
    colours = _edge_colour_rows(graph, cliques)
    cells, _ = _refine(colours, seed_partition(graph, cliques))
    rng = random.Random(2 * graph.v)
    for _ in range(4):
        if not unsettled(cells):
            break
        vertex = rng.choice(unsettled(cells))
        start = individualized(cells, vertex)
        got, _ = _refine(colours, start, [1 << vertex])
        assert set(got) == set(all_cells_refine(colours, start))
        cells = got


def test_refine_trace_is_invariant(graph_case):
    # refining the image of a partition under an automorphism gives the
    # image of the refined partition, cell for cell, with the same trace,
    # whether every cell or only the new singleton is queued
    graph, cliques, group = graph_case
    colours = _edge_colour_rows(graph, cliques)
    cells, _ = _refine(colours, seed_partition(graph, cliques))
    for g in group.generators:
        for vertex in unsettled(cells)[::5]:
            start = individualized(cells, vertex)
            got, trace = _refine(colours, start)
            moved, moved_trace = _refine(colours, [image_mask(g, c) for c in start])
            assert moved == [image_mask(g, c) for c in got]
            assert moved_trace == trace
            got, trace = _refine(colours, start, [1 << vertex])
            moved, moved_trace = _refine(
                colours, [image_mask(g, c) for c in start], [1 << g(vertex)]
            )
            assert moved == [image_mask(g, c) for c in got]
            assert moved_trace == trace


def fragment_list_refine(colour_rows, cells, splitters=None):
    """Reference splitter queue that builds every touched cell's fragment
    list before asking whether the cell splits."""
    cells = list(cells)
    queue = deque(cells if splitters is None else splitters)
    queued = set(queue)
    active = sum(cell for cell in cells if cell & (cell - 1))
    trace = []
    while active and queue:
        splitter = queue.popleft()
        if splitter not in queued:
            continue
        queued.remove(splitter)
        members = _bits(splitter)
        for colour, rows in enumerate(colour_rows):
            classes = _count_classes(_sliced_sum([rows[u] for u in members]), active)
            if len(classes) < 2:
                continue
            touched = active ^ (classes[0][1] if classes[0][0] == 0 else 0)
            out = []
            for cell in cells:
                if not cell & touched:
                    out.append(cell)
                    continue
                fragments = [(k, part) for k, mask in classes if (part := cell & mask)]
                if len(fragments) == 1:
                    out.append(cell)
                    continue
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


BUILTINS = ["main66", "appendixA66", "appendixB66", "fano", "ag23", "pg23"]


def named_design(name, request):
    """A builtin, the pg32 or ag33 fixture, PG(3,3), or the STS(21) of seed 0."""
    if name in ("pg32", "ag33"):
        return request.getfixturevalue(name)
    if name == "pg33":
        return parse_design(point_line_blocklist("projective", 3, 3), name="PG(3,3)")
    if name == "sts21":
        return steiner_design(21, seed=0)
    return builtin_design(name)


@pytest.mark.parametrize("name", BUILTINS + ["pg32", "ag33", "sts21"])
def test_refine_matches_fragment_list_reference(name, request):
    # the same cells in the same order and the same trace, from the seed
    # partition and from every vertex individualized below it; the
    # reference walks every cell, the kernel only the non-singleton ones
    census = census_report(named_design(name, request))
    cliques = [r.members for r in census.records]
    colours = _edge_colour_rows(census.graph, cliques)
    seed = seed_partition(census.graph, cliques)
    cells, trace = _refine(colours, seed)
    assert (cells, trace) == fragment_list_refine(colours, seed)
    for vertex in unsettled(cells):
        start = individualized(cells, vertex)
        assert _refine(colours, start, [1 << vertex]) == fragment_list_refine(
            colours, start, [1 << vertex]
        )


def test_refine_with_its_own_trace_expected_runs_to_the_end(graph_case):
    graph, cliques, _ = graph_case
    colours = _edge_colour_rows(graph, cliques)
    seed = seed_partition(graph, cliques)
    cells, _ = _refine(colours, seed)
    starts = [(seed, None)] + [
        (individualized(cells, vertex), [1 << vertex]) for vertex in unsettled(cells)[::3]
    ]
    for start, splitters in starts:
        full = _refine(colours, start, splitters)
        assert _refine(colours, start, splitters, full[1]) == full


def test_refine_stops_where_the_trace_leaves_expect(graph_case):
    # an expected trace altered at step t, or cut to its first t steps: the
    # refinement returns t + 1 steps, the first t as expected and the last
    # not, and the partition split by those steps: between the start and
    # the full result, each step adding its fragments but one
    graph, cliques, _ = graph_case
    colours = _edge_colour_rows(graph, cliques)
    cells, _ = _refine(colours, seed_partition(graph, cliques))
    checked = 0
    for vertex in unsettled(cells)[::3]:
        start = individualized(cells, vertex)
        refined, full = _refine(colours, start, [1 << vertex])
        for t in sorted({0, len(full) // 2, len(full) - 1} & set(range(len(full)))):
            colour, position, counts = full[t]
            altered = full[:t] + ((colour, position + 1, counts),) + full[t + 1:]
            for expect in (altered, full[:t]):
                got, trace = _refine(colours, start, [1 << vertex], expect)
                assert trace == full[: t + 1] and expect[:t] == full[:t]
                assert trace != expect[: t + 1]
                assert len(got) == len(start) + sum(len(step[2]) - 1 for step in trace)
                assert all(any(c & ~s == 0 for s in start) for c in got)
                assert all(any(c & ~g == 0 for g in got) for c in refined)
                checked += 1
    assert checked or not unsettled(cells)


@pytest.mark.parametrize("name", BUILTINS + ["pg32", "ag33", "sts21"])
def test_trace_abort_changes_nothing_but_time(name, request, monkeypatch):
    # the same generators, base, order and number of refinements with the
    # abort as with every refinement run to its end
    census = census_report(named_design(name, request))
    cliques = [r.members for r in census.records]

    def run(refine):
        calls = []
        monkeypatch.setattr(autgroup, "_refine", lambda *args: calls.append(1) or refine(*args))
        group = graph_automorphism_group(census.graph, cliques=cliques)
        return group, len(calls)

    aborting = run(_refine)
    complete = run(lambda colour_rows, cells, splitters=None, expect=None: _refine(
        colour_rows, cells, splitters))
    assert aborting == complete
    if name == "sts21":
        assert (aborting[0].order, aborting[1]) == (1, 3011)


def test_edge_colours_match_pair_counter(graph_case):
    graph, cliques, _ = graph_case
    assert _edge_colour_rows(graph, cliques) == pair_counter_colours(graph, cliques)


def test_seed_invariants_match_per_neighbour_counter(graph_case):
    graph, cliques, _ = graph_case
    assert default_seed_invariants(graph, cliques) == membership_counts(graph, cliques)


def test_automorphism_check_matches_per_edge_loop(graph_case):
    graph, _, group = graph_case
    generators = group.generators
    rng = random.Random(1000 + graph.v)
    perms = list(generators) + [g.then(h) for g in generators for h in generators]
    for g in generators[:4]:
        for _ in range(6):
            a, b = rng.sample(range(graph.v), 2)
            swap = list(range(graph.v))
            swap[a], swap[b] = b, a
            perms.append(g.then(Permutation(tuple(swap))))
    images = list(range(graph.v))
    for _ in range(4):
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    verdicts = [is_graph_automorphism(graph, p) for p in perms]
    assert verdicts == [per_edge_is_automorphism(graph, p) for p in perms]
    assert all(verdicts[: len(generators)])


def test_automorphism_check_rejects_other_degree(main66_census):
    assert not is_graph_automorphism(main66_census.graph, Permutation.identity(5))
    assert is_graph_automorphism(BlockGraph(0, ()), Permutation(()))


# (order, kept generators, graph group = induced design group).  The orders
# are closed forms: the block graphs of fano and pg23 are K7 and K13 (S7,
# S13); that of ag23 is K(3,3,3,3) (S3 wr S4); PG(3,q) gives
# 2|PGL(4,q)| (Klein duality) and AG(3,3) gives |AGL(3,3)|.  The generator
# counts pin the search decisions: one kept automorphism per explored orbit.
# Refining from the individualized vertex alone changed the tree below the
# first path on two designs: AG(3,3) now keeps 8 generators (was 7) and
# PG(3,3) keeps 7 (was 8), with the same orders.
GROUP_TABLE = {
    "main66": (39, 2, True),
    "appendixA66": (39, 2, True),
    "appendixB66": (39, 2, True),
    "fano": (5040, 6, False),
    "ag23": (6**4 * 24, 8, False),
    "pg23": (6_227_020_800, 12, False),
    "pg32": (2 * 20160, 8, False),
    "ag33": (27 * 26 * 24 * 18, 8, True),
    "pg33": (2 * 12_130_560, 7, False),
}


@pytest.mark.parametrize("name", sorted(GROUP_TABLE))
def test_group_table(name, request):
    design = named_design(name, request)
    section, group = automorphism_section(design, census_report(design))
    assert (section.order, section.generator_count, section.equals_design_group) == GROUP_TABLE[name]
    assert group.order == section.order == close_group(group.generators).order


@pytest.mark.parametrize("name", sorted(GROUP_TABLE))
def test_common_neighbour_profile_never_splits(name, request):
    # the premise for seeding with clique counts alone: on every block graph
    # searched here (an SRG or K_v) the common-neighbour profile is one
    # value, so it could not split a seed cell
    graph = build_block_graph(named_design(name, request))
    assert len(set(common_neighbour_profiles(graph))) == 1


# Cyclic Steiner triple systems (Peltesohn 1939): the base blocks developed
# over Z_v, so the shift by 1 is an automorphism and v divides the order.
# STS(13) also has the multiplier 3 (order 3 mod 13), which maps {0,1,4} to
# {0,3,12} = {0,1,4} - 1.
@pytest.mark.parametrize(
    "v, base_blocks, order",
    [
        (13, [("0", "1", "4"), ("0", "2", "7")], 39),
        (19, [("0", "1", "4"), ("0", "2", "9"), ("0", "5", "11")], 19),
    ],
    ids=["sts13", "sts19"],
)
def test_cyclic_steiner_triple_system_orders(v, base_blocks, order):
    design = develop_base_blocks(base_blocks, v, name=f"cyclic STS({v})")
    census = census_report(design)
    group = graph_automorphism_group(census.graph, cliques=[r.members for r in census.records])
    assert group.order % v == 0
    assert group.order == order == closed_order(group, census.graph.v)
    assert all(is_graph_automorphism(census.graph, g) for g in group.generators)


def test_random_sts31_is_rigid_in_full_search(monkeypatch):
    # a random STS(31) has a trivial group, so nothing prunes the tree: the
    # whole search is 17,516 refinements, most cut short by the trace abort
    census = census_report(steiner_design(31, seed=0))
    calls = []
    monkeypatch.setattr(autgroup, "_refine", lambda *args: calls.append(1) or _refine(*args))
    group = graph_automorphism_group(census.graph, cliques=[r.members for r in census.records])
    assert (group.generators, group.order, len(calls)) == ((), 1, 17_516)


# |PGL(4,5)| = (5^4-1)(5^4-5)(5^4-5^2)(5^4-5^3)/(5-1), doubled by duality;
# |AGL(4,3)| = 3^4 * (3^4-1)(3^4-3)(3^4-3^2)(3^4-3^3)
@pytest.mark.slow
@pytest.mark.parametrize(
    "family, d, p, order",
    [
        ("projective", 3, 5, 2 * 624 * 620 * 600 * 500 // 4),
        ("affine", 4, 3, 81 * 80 * 78 * 72 * 54),
    ],
)
def test_large_geometric_group_orders(family, d, p, order):
    design = parse_design(point_line_blocklist(family, d, p))
    census = census_report(design)
    group = graph_automorphism_group(census.graph, cliques=[r.members for r in census.records])
    assert group.order == order
    assert all(is_graph_automorphism(census.graph, g) for g in group.generators)
