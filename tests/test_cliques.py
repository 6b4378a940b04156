import math
import random
from itertools import combinations

import pytest

from blockgraph import (
    BlockGraph,
    build_block_graph,
    builtin_design,
    census_report,
    classify_clique,
    clique_number,
    clique_support,
    core_restriction,
    enumerate_maximum_cliques,
    induced_block_action,
    point_multiplicity_profile,
    subdesign_test,
    validate_2design,
)
from blockgraph import cliques
from blockgraph.design import make_design, parse_design

from conftest import (
    PLANE_CLIQUE_BLOCKS,
    induced_subgraph,
    members_from_tokens,
    orbit_clique_members,
    point_line_blocklist,
)


def powerset_maximum_cliques(graph):
    """Literal subset scan: every vertex subset, kept if it is a clique."""
    best = []
    best_size = 0
    for mask in range(1, 1 << graph.v):
        members = [v for v in range(graph.v) if mask >> v & 1]
        if len(members) < best_size:
            continue
        if all(graph.adjacent(a, b) for a, b in combinations(members, 2)):
            if len(members) > best_size:
                best_size = len(members)
                best = []
            best.append(tuple(members))
    return sorted(best)


@pytest.fixture(scope="module")
def main66_graph(main66_census):
    return main66_census.graph


@pytest.fixture(scope="module")
def ag23_graph():
    return build_block_graph(builtin_design("ag23"))


# ---------------------------------------------------------------------------
# search

def test_clique_number_main66(main66_graph):
    assert clique_number(main66_graph) == 13
    assert clique_number(main66_graph, upper_bound=13) == 13


def test_clique_number_ag23(ag23_graph):
    assert clique_number(ag23_graph) == 4


def test_clique_number_trivial():
    assert clique_number(BlockGraph(1, (0,))) == 1
    assert clique_number(BlockGraph(0, ())) == 0
    assert clique_number(BlockGraph(3, (0, 0, 0))) == 1


def test_enumerate_main66(main66_census):
    cliques = [r.members for r in main66_census.records]
    assert len(cliques) == 80
    assert all(len(c) == 13 for c in cliques)
    assert cliques == sorted(cliques)


def test_enumerate_ag23_matches_powerset_scan(ag23_graph):
    cliques = enumerate_maximum_cliques(ag23_graph)
    assert len(cliques) == 81
    assert cliques == powerset_maximum_cliques(ag23_graph)


def test_enumerate_complete_graph():
    g = build_block_graph(builtin_design("fano"))
    assert enumerate_maximum_cliques(g) == [tuple(range(7))]


def test_enumerate_matches_powerset_on_induced_subgraphs(main66_graph):
    import random

    rng = random.Random(20240613)
    for _ in range(8):
        verts = rng.sample(range(main66_graph.v), 14)
        sub = induced_subgraph(main66_graph, verts)
        assert enumerate_maximum_cliques(sub) == powerset_maximum_cliques(sub)


def graph_from_edges(n, edges):
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return BlockGraph(n, tuple(rows))


def random_graphs(seed=20261018, count=24):
    """Seeded G(n, p) graphs, not block graphs: 10-16 vertices, p in 0.3-0.9."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(10, 16)
        p = rng.uniform(0.3, 0.9)
        yield graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def powerset_cliques_by_size(graph):
    """Literal subset scan: every vertex subset that is a clique, by size."""
    closed = [row | 1 << v for v, row in enumerate(graph.rows)]
    by_size = {}
    for mask in range(1, 1 << graph.v):
        members = [v for v in range(graph.v) if mask >> v & 1]
        if all(closed[v] & mask == mask for v in members):
            by_size.setdefault(len(members), []).append(tuple(members))
    return by_size


def test_enumerate_every_size_matches_powerset_on_random_graphs():
    for graph in random_graphs():
        by_size = powerset_cliques_by_size(graph)
        omega = max(by_size)
        assert clique_number(graph) == omega
        for s in range(1, omega + 2):
            assert enumerate_maximum_cliques(graph, size=s) == sorted(by_size.get(s, []))


@pytest.mark.parametrize(
    "graph",
    [BlockGraph(3, (2, 1, 0)), graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])],
    ids=["edge-and-vertex", "triangle"],
)
@pytest.mark.parametrize("size", [0, -2])
def test_enumerate_rejects_size_below_one(graph, size):
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_maximum_cliques(graph, size=size)


def test_clique_number_stops_at_upper_bound(main66_graph):
    # the bound is an early exit: a smaller one is attained and returned
    for graph in [main66_graph, *random_graphs(count=8)]:
        omega = clique_number(graph)
        for b in range(1, omega + 3):
            assert clique_number(graph, upper_bound=b) == min(b, omega)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_complete_graph_below_its_size(n):
    # the candidates below every root form a clique larger than needed
    graph = graph_from_edges(n, combinations(range(n), 2))
    for s in range(1, n + 2):
        found = enumerate_maximum_cliques(graph, size=s)
        assert found == list(combinations(range(n), s))
        assert len(found) == math.comb(n, s)


def test_search_nodes_main66(monkeypatch, main66_graph):
    # the colourings the search expands; a change to the search tree shows here
    nodes = []
    search = cliques._search

    def counting_search(*args, **kwargs):
        best, count = search(*args, **kwargs)
        nodes.append(count)
        return best, count

    monkeypatch.setattr(cliques, "_search", counting_search)
    assert len(enumerate_maximum_cliques(main66_graph, size=13)) == 80
    assert clique_number(main66_graph, upper_bound=13) == 13
    assert clique_number(main66_graph) == 13
    assert nodes == [935, 13, 407]


def test_census_pg33_planes_and_points():
    # PG(3,3): 40 points and 40 planes, each with 13 lines through it or in it
    design = parse_design(point_line_blocklist("projective", 3, 3), name="PG(3,3)")
    c = census_report(design)
    assert c.clique_number == 13
    assert (c.total, c.canonical_count, c.noncanonical_count) == (80, 40, 40)


# ---------------------------------------------------------------------------
# classification and structure

def test_canonical_clique_at_infinity(main66):
    # the 13 translates of the block through infinity are exactly the blocks
    # containing infinity, hence a canonical clique there
    blocks = [
        " ".join(["inf"] + [f"{e}_{t}" for t in ("0", "1", "2", "a", "b")])
        for e in range(13)
    ]
    members = members_from_tokens(main66, blocks)
    cls = classify_clique(main66, members)
    assert cls.canonical
    assert main66.labels[cls.witness] == "inf"


def test_plane_clique_is_non_canonical(main66):
    members = members_from_tokens(main66, PLANE_CLIQUE_BLOCKS)
    assert not classify_clique(main66, members).canonical


def test_orbit_clique_is_non_canonical(main66):
    members = orbit_clique_members(main66)
    assert not classify_clique(main66, members).canonical


def test_classify_rejects_non_clique(main66):
    # blocks 0 and some block disjoint from it
    masks = main66.block_masks
    other = next(j for j in range(main66.b) if not masks[0] & masks[j])
    with pytest.raises(ValueError, match="do not intersect"):
        classify_clique(main66, (0, other))


def test_clique_support_sizes(main66):
    plane_clique = members_from_tokens(main66, PLANE_CLIQUE_BLOCKS)
    assert len(clique_support(main66, plane_clique)) == 39
    orbit_clique = orbit_clique_members(main66)
    assert len(clique_support(main66, orbit_clique)) == 26
    assert len(clique_support(main66, (5,))) == 6


def test_point_multiplicities(main66):
    orbit_clique = orbit_clique_members(main66)
    assert set(point_multiplicity_profile(main66, orbit_clique).values()) == {3}
    blocks = [
        " ".join(["inf"] + [f"{e}_{t}" for t in ("0", "1", "2", "a", "b")])
        for e in range(13)
    ]
    star = members_from_tokens(main66, blocks)
    profile = point_multiplicity_profile(main66, star)
    inf_idx = main66.label_index["inf"]
    assert profile[inf_idx] == 13
    assert all(c == 1 for p, c in profile.items() if p != inf_idx)
    assert set(point_multiplicity_profile(main66, (4,)).values()) == {1}


def test_plane_clique_core_is_projective_plane(main66):
    members = members_from_tokens(main66, PLANE_CLIQUE_BLOCKS)
    core = core_restriction(main66, members)
    assert len(core.core_points) == 13
    tokens = {main66.labels[p] for p in core.core_points}
    expected = {"inf"} | {f"{n}_{x}" for n in (0, 2, 3, 7) for x in ("0", "1", "2")}
    assert tokens == expected
    assert core.restricted_params is not None
    assert (core.restricted_params.n, core.restricted_params.m) == (13, 4)
    # each member block has exactly two points outside the core
    assert all(len(rb) == 4 for rb in core.restricted_blocks)


def test_core_of_canonical_clique_degenerates(main66):
    blocks = [
        " ".join(["inf"] + [f"{e}_{t}" for t in ("0", "1", "2", "a", "b")])
        for e in range(13)
    ]
    members = members_from_tokens(main66, blocks)
    core = core_restriction(main66, members)
    assert [main66.labels[p] for p in core.core_points] == ["inf"]
    assert set(core.restricted_blocks) == {(main66.label_index["inf"],)}
    assert core.restricted_params is None


def test_subdesign_plane_clique(main66):
    verdict = subdesign_test(main66, members_from_tokens(main66, PLANE_CLIQUE_BLOCKS))
    assert verdict.support_size == 39
    assert not verdict.candidate_params.admissible
    assert not verdict.pair_coverage_ok
    assert not verdict.is_design


def test_subdesign_orbit_clique(main66):
    verdict = subdesign_test(main66, orbit_clique_members(main66))
    assert verdict.support_size == 26
    assert not verdict.candidate_params.admissible
    assert not verdict.is_design


def test_subdesign_pg23_whole_design():
    pg = builtin_design("pg23")
    verdict = subdesign_test(pg, tuple(range(pg.b)))
    assert verdict.support_size == 13
    assert verdict.candidate_params.admissible
    assert verdict.pair_coverage_ok
    assert verdict.is_design
    # mutual consistency with the validator
    sub = make_design(
        [pg.labels[p] for p in verdict.support],
        [pg.block_tokens(i) for i in range(pg.b)],
    )
    assert validate_2design(sub).valid


# ---------------------------------------------------------------------------
# census

def test_census_main66(main66_census):
    c = main66_census
    assert (c.total, c.canonical_count, c.noncanonical_count) == (80, 66, 14)
    assert c.clique_number == 13
    assert c.delsarte == 13
    assert all(not r.subdesign.is_design for r in c.records if not r.classification.canonical)


def test_census_ag23():
    c = census_report(builtin_design("ag23"))
    assert (c.total, c.canonical_count, c.noncanonical_count) == (81, 9, 72)
    assert c.clique_number == 4 == c.delsarte


def test_census_pg23_degenerate_path():
    c = census_report(builtin_design("pg23"))
    assert c.srg is None
    assert c.degenerate == "complete graph"
    assert c.delsarte is None
    assert c.clique_number == 13
    assert c.total == 1


def test_census_canonical_count_equals_n():
    for name in ("ag23", "main66"):
        d = builtin_design(name)
        c = census_report(d)
        assert c.canonical_count == d.n
        # every point's block star appears among the canonical cliques
        witnesses = {
            r.classification.witness for r in c.records if r.classification.canonical
        }
        assert witnesses == set(range(d.n))


def test_census_bound_consistency():
    # clique number never exceeds the Delsarte bound, with equality for the
    # non-symmetric builtins
    for name in ("main66", "appendixA66", "appendixB66", "ag23"):
        c = census_report(builtin_design(name))
        assert c.clique_number <= c.delsarte
        assert c.clique_number == c.delsarte


def test_translate_closure_of_plane_clique(main66, main66_census, main66_generators):
    # shifting by one (the 13-cycle generator) maps the analysed clique onto
    # its translates; all 13 must occur in the census
    residue_shift = main66_generators[1]
    shift = induced_block_action(main66, residue_shift)
    enumerated = {r.members for r in main66_census.records}
    members = members_from_tokens(main66, PLANE_CLIQUE_BLOCKS)
    seen = set()
    for _ in range(13):
        members = tuple(sorted(shift(v) for v in members))
        assert members in enumerated
        seen.add(members)
    assert len(seen) == 13


def test_census_record_fields_consistent(main66_census):
    # a canonical clique's 13 blocks meet pairwise only at the witness, so
    # its support is 13*5 + 1 = 66 points and its core is the witness alone
    design = main66_census.design
    for r in main66_census.records:
        assert r.members == tuple(sorted(set(r.members)))
        if r.classification.canonical:
            assert r.support_size == 66
            assert r.core_size == 1
            witness = r.classification.witness
            assert all(witness in design.blocks[i] for i in r.members)
        else:
            assert r.classification.witness is None
            assert (r.support_size, r.core_size) in {(39, 13), (26, 26)}
