import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from blockgraph import (
    BlockGraph,
    Permutation,
    build_block_graph,
    builtin_design,
    census_report,
    close_group,
    graph_automorphism_group,
    induced_block_action,
    is_graph_automorphism,
    parse_design,
)
from blockgraph.autgroup import (
    SearchBudgetExceeded,
    _edge_colour_rows,
    _Refiner,
    default_seed_invariants,
)
from blockgraph.cliques import enumerate_maximum_cliques
from blockgraph.report import automorphism_section

from conftest import point_line_blocklist, same_group


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
    group = graph_automorphism_group(main66_census.graph, cliques=cliques)
    assert group.order == 39
    assert not group.abelian
    for g in group.generators:
        assert is_graph_automorphism(main66_census.graph, g)
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
    group = graph_automorphism_group(graph)
    assert group.order == len(oracle) == 120
    assert all(p in group for p in oracle)
    assert all(g in oracle for g in group.generators)


def test_path_graph_reversal_only():
    graph = path_graph(5)
    group = graph_automorphism_group(graph)
    assert group.order == 2
    reversal = Permutation(tuple(reversed(range(5))))
    assert reversal in group


def test_k13_group_is_symmetric():
    # the block graph of PG(2,3) is complete: its group is S13
    graph = build_block_graph(builtin_design("pg23"))
    assert graph.v == 13
    group = graph_automorphism_group(graph)
    assert group.order == 6_227_020_800
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


def test_budget_exceeded(main66_census):
    with pytest.raises(SearchBudgetExceeded) as info:
        graph_automorphism_group(
            main66_census.graph,
            cliques=[r.members for r in main66_census.records],
            node_limit=1,
        )
    assert info.value.limit == 1
    assert isinstance(info.value.generators, tuple)


def test_seed_invariants_validated(main66_census):
    with pytest.raises(ValueError, match="one seed invariant per vertex"):
        graph_automorphism_group(main66_census.graph, seed_invariants=[1, 2, 3])


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
    colour_rows = [colour_rows[c] for c in sorted(colour_rows)]
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
        if graph.adjacent(i, j):
            rows = by_colour.setdefault(pair_counts[(i, j)], [0] * graph.v)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return by_colour


def per_edge_is_automorphism(graph, perm):
    """Reference check: every edge maps to an edge and every non-edge to a non-edge."""
    return perm.degree == graph.v and all(
        graph.adjacent(perm(a), perm(b)) == graph.adjacent(a, b)
        for a, b in combinations(range(graph.v), 2)
    )


def per_neighbour_invariants(graph, cliques):
    through = Counter(v for cl in cliques for v in cl)
    out = []
    for v in range(graph.v):
        profile = Counter(
            (graph.rows[v] & graph.rows[u]).bit_count()
            for u in range(graph.v)
            if graph.adjacent(v, u)
        )
        out.append((through[v], tuple(sorted(profile.items()))))
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
    group = graph_automorphism_group(graph, cliques=cliques)
    return graph, cliques, group.generators


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


def test_refine_matches_all_cells_reference(graph_case):
    graph, cliques, _ = graph_case
    colours = _edge_colour_rows(graph, cliques)
    refiner = _Refiner(colours)
    rng = random.Random(graph.v)
    starts = [seed_partition(graph, cliques), [(1 << graph.v) - 1]]
    cells, _ = refiner.refine(starts[0])
    for vertex in rng.sample(unsettled(cells), min(len(unsettled(cells)), 6)):
        starts.append(individualized(cells, vertex))
        once, _ = refiner.refine(starts[-1])
        if unsettled(once):
            starts.append(individualized(once, rng.choice(unsettled(once))))
    for start in starts:
        got, _ = refiner.refine(start)
        assert set(got) == set(all_cells_refine(colours, start))
        assert sum(got) == (1 << graph.v) - 1


def test_refine_trace_is_invariant(graph_case):
    # refining the image of a partition under an automorphism gives the
    # image of the refined partition, cell for cell, with the same trace
    graph, cliques, generators = graph_case
    refiner = _Refiner(_edge_colour_rows(graph, cliques))
    cells, _ = refiner.refine(seed_partition(graph, cliques))
    for g in generators:
        for vertex in unsettled(cells)[::5]:
            start = individualized(cells, vertex)
            got, trace = refiner.refine(start)
            moved, moved_trace = refiner.refine([image_mask(g, c) for c in start])
            assert moved == [image_mask(g, c) for c in got]
            assert moved_trace == trace


def test_edge_colours_match_pair_counter(graph_case):
    graph, cliques, _ = graph_case
    assert _edge_colour_rows(graph, cliques) == pair_counter_colours(graph, cliques)


def test_seed_invariants_match_per_neighbour_counter(graph_case):
    graph, cliques, _ = graph_case
    assert default_seed_invariants(graph, cliques) == per_neighbour_invariants(graph, cliques)


def test_automorphism_check_matches_per_edge_loop(graph_case):
    graph, _, generators = graph_case
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
GROUP_TABLE = {
    "main66": (39, 2, True),
    "appendixA66": (39, 2, True),
    "appendixB66": (39, 2, True),
    "fano": (5040, 6, False),
    "ag23": (6**4 * 24, 8, False),
    "pg23": (6_227_020_800, 12, False),
    "pg32": (2 * 20160, 8, False),
    "ag33": (27 * 26 * 24 * 18, 7, True),
    "pg33": (2 * 12_130_560, 8, False),
}


@pytest.mark.parametrize("name", sorted(GROUP_TABLE))
def test_group_table(name, request):
    if name in ("pg32", "ag33"):
        design = request.getfixturevalue(name)
    elif name == "pg33":
        design = parse_design(point_line_blocklist("projective", 3, 3), name="PG(3,3)")
    else:
        design = builtin_design(name)
    section, group = automorphism_section(design, census_report(design))
    assert (section.order, section.generator_count, section.equals_design_group) == GROUP_TABLE[name]
    assert group.order == section.order
