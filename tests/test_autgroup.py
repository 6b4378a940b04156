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
)
from blockgraph.autgroup import SearchBudgetExceeded, default_seed_invariants
from blockgraph.report import automorphism_section

from conftest import same_group


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
