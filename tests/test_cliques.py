import random
from itertools import combinations, permutations

import pytest

from blockgraph import (
    BlockGraph,
    build_block_graph,
    builtin_design,
    census_report,
    classify_clique,
    clique_number,
    core_restriction,
    enumerate_maximum_cliques,
    induced_block_action,
    point_multiplicity_profile,
    subdesign_test,
    validate_2design,
)
from blockgraph import cliques
from blockgraph.design import Design, make_design, parse_design
from blockgraph.graph import _bits

from conftest import (
    PLANE_CLIQUE_BLOCKS,
    adjacent,
    induced_subgraph,
    members_from_tokens,
    orbit_clique_members,
    point_line_blocklist,
    steiner_design,
)


def powerset_maximum_cliques(graph):
    """Literal subset scan: every vertex subset, kept if it is a clique."""
    best = []
    best_size = 0
    for mask in range(1, 1 << graph.v):
        members = [v for v in range(graph.v) if mask >> v & 1]
        if len(members) < best_size:
            continue
        if all(adjacent(graph, a, b) for a, b in combinations(members, 2)):
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


def random_graphs(seed=20261018, count=24, sizes=(10, 16)):
    """Seeded G(n, p) graphs, not block graphs: n in ``sizes``, p in 0.3-0.9."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*sizes)
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


def count_search_nodes(monkeypatch):
    """The nodes (colourings) each later ``_search`` call expands, in call
    order; a change to the search tree shows here."""
    nodes = []
    search = cliques._search

    def counting_search(*args, **kwargs):
        found, count = search(*args, **kwargs)
        nodes.append(count)
        return found, count

    monkeypatch.setattr(cliques, "_search", counting_search)
    return nodes


def test_enumerate_every_size_matches_powerset_on_random_graphs():
    # the search pads each row to whole bytes: 1-9 vertices cover both
    # sides of the first byte boundary, 10-16 the second byte
    small = list(random_graphs(seed=20261019, count=54, sizes=(1, 9)))
    assert {graph.v for graph in small} == set(range(1, 10))
    for graph in [*small, *random_graphs()]:
        by_size = powerset_cliques_by_size(graph)
        omega = max(by_size)
        assert clique_number(graph) == omega
        assert enumerate_maximum_cliques(graph) == sorted(by_size[omega])


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_complete_graph_below_its_size(monkeypatch, n):
    # the search starts from 0, below the clique of all n vertices: the root's
    # candidates take one colour each, so that clique is taken whole at once
    graph = graph_from_edges(n, combinations(range(n), 2))
    nodes = count_search_nodes(monkeypatch)
    assert enumerate_maximum_cliques(graph) == [tuple(range(n))]
    assert nodes == [1]


def test_search_nodes_main66(monkeypatch, main66_graph):
    # one root, the set of all vertices, its bound rising from 0
    nodes = count_search_nodes(monkeypatch)
    assert len(enumerate_maximum_cliques(main66_graph)) == 80
    assert nodes == [856]
    nodes.clear()
    assert clique_number(main66_graph) == 13
    assert nodes == [856]
    # main66 less the edge between block 0 and its lowest neighbour: the
    # point pencil through both is no clique, and the other 79 maximum
    # cliques are found
    j = (main66_graph.rows[0] & -main66_graph.rows[0]).bit_length() - 1
    rows = list(main66_graph.rows)
    rows[0] ^= 1 << j
    rows[j] ^= 1
    broken = BlockGraph(main66_graph.v, tuple(rows))
    assert len(enumerate_maximum_cliques(broken)) == 79
    # seven vertices and no edges: each vertex alone
    empty = BlockGraph(7, (0,) * 7)
    assert enumerate_maximum_cliques(empty) == [(v,) for v in range(7)]
    assert clique_number(empty) == 1


@pytest.mark.parametrize(
    "family, d, p, pin",
    [
        ("projective", 3, 2, [80]),
        ("affine", 3, 3, [64]),
        ("projective", 3, 3, [220]),
        ("affine", 2, 5, [3906]),
        ("projective", 3, 5, [2801]),
        ("projective", 4, 3, [901]),
        ("affine", 4, 3, [190]),
    ],
)
def test_search_nodes_geometric(monkeypatch, family, d, p, pin):
    # the search trees of the geometric designs, pinned: a change to the
    # search shows here
    graph = build_block_graph(parse_design(point_line_blocklist(family, d, p)))
    nodes = count_search_nodes(monkeypatch)
    assert enumerate_maximum_cliques(graph)
    assert nodes == pin


@pytest.mark.parametrize(
    "family, d, p, pin", [("projective", 3, 5, 2801), ("projective", 4, 3, 901), ("affine", 4, 3, 190)]
)
def test_census_searches_once_when_the_bound_is_attained(monkeypatch, family, d, p, pin):
    # the point pencils attain the Delsarte bound, and the census takes
    # omega from its one search
    design = parse_design(point_line_blocklist(family, d, p))
    nodes = count_search_nodes(monkeypatch)
    census = census_report(design)
    assert census.clique_number == census.delsarte
    assert census.canonical_count == design.n
    assert nodes == [pin]


def shrikhande_design():
    """The Shrikhande graph srg(16,6,2,2) as the block graph of its vertices'
    edge sets."""
    steps = {(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)}  # in Z4 x Z4
    edges = [(x, y) for x, y in combinations(range(16), 2)
             if ((y // 4 - x // 4) % 4, (y % 4 - x % 4) % 4) in steps]
    labels = [f"{x}_{y}" for x, y in edges]
    return make_design(labels, [[f"{x}_{y}" for x, y in edges if z in (x, y)]
                                for z in range(16)])


@pytest.mark.parametrize(
    "design, srg, delsarte, omega, total, pin",
    [
        # Delsarte bound 1 + 6/2 = 4, but the largest cliques are the 32
        # triangles, above the pencils' 2 blocks
        (shrikhande_design(), (16, 6, 2, 2), 4, 3, 32, [29]),
        # C5 = srg(5,2,0,1) has irrational eigenvalues, so no bound
        (make_design("01234", ["01", "12", "23", "34", "40"]), (5, 2, 0, 1), None, 2, 5, [4]),
        # disjoint blocks: an empty graph, degenerate, so no bound
        (make_design("012345", ["01", "23", "45"]), None, None, 1, 3, [1]),
        # fano's block graph is complete, degenerate, so no bound
        (builtin_design("fano"), None, None, 7, 1, [1]),
    ],
    ids=["shrikhande", "pentagon", "disjoint-blocks", "fano"],
)
def test_census_searches_once_below_the_bound(monkeypatch, design, srg, delsarte, omega,
                                              total, pin):
    # where no clique reaches the Delsarte bound, or there is none, the
    # census still makes one search
    nodes = count_search_nodes(monkeypatch)
    census = census_report(design)
    assert (census.srg and census.srg.as_tuple()) == srg
    assert (census.delsarte, census.clique_number, census.total) == (delsarte, omega, total)
    assert census == census._replace(records=tuple(
        cliques.clique_record(census.design, members)
        for members in powerset_maximum_cliques(census.graph)))
    assert nodes == pin


def test_census_pg33_planes_and_points():
    # PG(3,3): 40 points and 40 planes, each with 13 lines through it or in it
    design = parse_design(point_line_blocklist("projective", 3, 3), name="PG(3,3)")
    c = census_report(design)
    assert c.clique_number == 13
    assert (c.total, c.canonical_count, c.noncanonical_count) == (80, 40, 40)


@pytest.mark.parametrize("v, seed", [(19, 1), (21, 2), (25, 3), (27, 4), (31, 5), (33, 6)])
def test_census_random_steiner_triple_systems(v, seed):
    # closed forms for any STS(v) with v > 15: pairwise-meeting triples with
    # no common point number at most 7 (a Fano plane), fewer than r = (v-1)/2,
    # so srg(b, 3(r-1), r+2, 9), omega = r and the v pencils are all there is
    census = census_report(steiner_design(v, seed))
    r, b = (v - 1) // 2, v * (v - 1) // 6
    assert census.srg.as_tuple() == (b, 3 * (r - 1), r + 2, 9)
    assert census.clique_number == r
    assert (census.canonical_count, census.noncanonical_count) == (v, 0)


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


@pytest.mark.parametrize("kind", ["disjoint", "repeated", "out of range"])
def test_census_rejects_non_clique_like_clique_record(monkeypatch, main66, kind):
    # the census checks intersection only through the reach rows' flag, so
    # a member list from the search that is not a clique must still fail
    # with clique_record's own text
    masks = main66.block_masks
    other = next(j for j in range(main66.b) if not masks[0] & masks[j])
    members = {
        "disjoint": (other, 0, 1), "repeated": (0, 0, 1), "out of range": (0, 1, 10**6)
    }[kind]
    if kind == "disjoint":  # the first disjoint pair in sorted order
        i, j = next((i, j) for i, j in combinations(sorted(members), 2)
                    if not masks[i] & masks[j])
        expected = f"blocks {i} and {j} do not intersect"
    else:
        expected = {
            "repeated": "repeated block index in clique",
            "out of range": f"block index out of range: {10**6}",
        }[kind]
    with pytest.raises(ValueError) as record:
        cliques.clique_record(main66, members)
    monkeypatch.setattr(cliques, "enumerate_maximum_cliques", lambda graph: [members])
    with pytest.raises(ValueError) as exc:
        census_report(main66)
    assert str(exc.value) == str(record.value) == expected


@pytest.mark.parametrize("helper", [
    point_multiplicity_profile, core_restriction, cliques.clique_record
])
def test_helpers_reject_block_index_out_of_range(main66, helper):
    # -1 would otherwise wrap round to the last block
    for bad in (-1, main66.b):
        with pytest.raises(ValueError, match=f"^block index out of range: {bad}$"):
            helper(main66, (0, bad))


def test_support_and_profile_need_no_pairwise_pass(monkeypatch, main66):
    orbit_clique = orbit_clique_members(main66)
    profile = point_multiplicity_profile(main66, orbit_clique)

    def clique_pass(*args):
        raise AssertionError("record pass")

    monkeypatch.setattr(cliques, "_scans", clique_pass)
    assert point_multiplicity_profile(main66, orbit_clique) == profile
    assert len(profile) == 26 and set(profile.values()) == {3}


def test_scan_flags_match_pairwise_and(monkeypatch):
    # random blocks, any two of which may be disjoint or share two points:
    # the members the record pass flags apart and the pair-covered-twice flag
    # handed to _shape against a pairwise AND of the point masks
    shapes = []
    monkeypatch.setattr(cliques, "_shape", lambda *args: shapes.append(args))
    rng = random.Random(11)
    for _ in range(300):
        masks = [rng.getrandbits(12) | 1 << rng.randrange(12) for _ in range(rng.randrange(1, 7))]
        design = Design(12, 3, tuple(map(str, range(12))), tuple(map(_bits, masks)))
        members = list(range(len(masks)))
        apart = {j for i, j in permutations(members, 2) if not masks[i] & masks[j]}
        twice = any((x & y).bit_count() >= 2 for x, y in combinations(masks, 2))
        (_, _, _, flagged, _), = cliques._scans(design, [members])
        assert set(_bits(flagged)) == apart
        assert shapes.pop()[5] == twice  # (canonical, k, ns, c, m_r, twice, ...)


def reference_error(design, members):
    """The first failure in the documented order, or None for a clique."""
    members = sorted(members)
    if len(set(members)) < len(members):
        return "repeated block index in clique"
    for i in members:
        if not 0 <= i < design.b:
            return f"block index out of range: {i}"
    for i, j in combinations(members, 2):
        if not set(design.blocks[i]) & set(design.blocks[j]):
            return f"blocks {i} and {j} do not intersect"
    return None


@pytest.mark.parametrize("members, expected", [
    ((0, 0, 1), "repeated block index in clique"),
    ((12, 0, 0), "repeated block index in clique"),
    ((0, 1, 12), "block index out of range: 12"),
    ((10, 1, 0), "blocks 0 and 10 do not intersect"),
])
def test_ag23_error_texts(members, expected):
    design = builtin_design("ag23")
    assert reference_error(design, members) == expected
    with pytest.raises(ValueError) as exc:
        cliques.clique_record(design, members)
    assert str(exc.value) == expected


def test_error_precedence_matches_reference(monkeypatch):
    # repeated, out-of-range and disjoint members mixed at random: clique_record
    # and the census raise the reference's first failure, or agree on the record
    design = builtin_design("ag23")
    pool = [*range(design.b), -1, design.b, 10**6]
    rng = random.Random(17)
    seen = set()
    for _ in range(200):
        members = [rng.choice(pool) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.3:
            members.append(rng.choice(members))
        expected = reference_error(design, members)
        monkeypatch.setattr(cliques, "enumerate_maximum_cliques", lambda graph: [members])
        if expected is None:
            record = cliques.clique_record(design, members)
            assert census_report(design).records == (record,)
        else:
            for analyse in (cliques.clique_record, lambda d, _: census_report(d)):
                with pytest.raises(ValueError) as exc:
                    analyse(design, members)
                assert str(exc.value) == expected
        seen.add((expected or "clique").split(" ")[0])
    assert seen == {"repeated", "block", "blocks", "clique"}


def test_clique_support_sizes(main66):
    plane_clique = members_from_tokens(main66, PLANE_CLIQUE_BLOCKS)
    assert cliques.clique_record(main66, plane_clique).shape.support_size == 39
    orbit_clique = orbit_clique_members(main66)
    assert cliques.clique_record(main66, orbit_clique).shape.support_size == 26
    assert cliques.clique_record(main66, (5,)).shape.support_size == 6


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


def test_core_restriction_reads_one_shot_iterables():
    ag23 = builtin_design("ag23")
    members = (6, 0, 3)
    expected = core_restriction(ag23, members)
    assert expected.restricted_blocks  # three blocks, each with its core points
    assert core_restriction(ag23, iter(members)) == expected
    assert core_restriction(ag23, (m for m in members)) == expected
    # the restricted blocks follow the caller's order, not the sorted one
    assert expected.restricted_blocks == tuple(
        tuple(p for p in ag23.blocks[i] if p in expected.core_points) for i in members
    )


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
        [pg.labels[p] for p in point_multiplicity_profile(pg, range(pg.b))],
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
    assert all(not r.shape.is_design for r in c.records if r.witness is None)


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


def test_census_counts_its_records_once():
    class Walked(tuple):
        walks = 0

        def __iter__(self):
            Walked.walks += 1
            return super().__iter__()

    c = census_report(builtin_design("main66"))
    c = c._replace(records=Walked(c.records))
    for _ in range(2):  # a text and a structured report
        assert (c.total, c.canonical_count, c.noncanonical_count) == (80, 66, 14)
    assert Walked.walks == 1


def test_census_canonical_count_equals_n():
    for name in ("ag23", "main66"):
        d = builtin_design(name)
        c = census_report(d)
        assert c.canonical_count == d.n
        # every point's block star appears among the canonical cliques
        witnesses = {r.witness for r in c.records if r.shape.kind == "canonical"}
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
        if r.shape.kind == "canonical":
            assert r.shape.support_size == 66
            assert r.shape.core_size == 1
            assert all(r.witness in design.blocks[i] for i in r.members)
        else:
            assert r.witness is None
            assert (r.shape.support_size, r.shape.core_size) in {(39, 13), (26, 26)}
