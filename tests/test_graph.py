import pytest

from blockgraph import (
    BlockGraph,
    DegenerateGraphError,
    SrgParams,
    SrgVerificationError,
    build_block_graph,
    builtin_design,
    delsarte_bound,
    parse_design,
    serialize_graph,
    srg_from_design_params,
    verify_srg,
)

from conftest import induced_subgraph


@pytest.fixture(scope="module")
def main66_graph(main66):
    return build_block_graph(main66)


def brute_common_neighbours(graph, i, j):
    return sum(
        1 for u in range(graph.v) if graph.adjacent(i, u) and graph.adjacent(j, u)
    )


def test_main66_graph_degrees(main66, main66_graph):
    assert main66_graph.v == 143
    assert all(main66_graph.degree(i) == 72 for i in range(143))
    # independent recount straight from the blocks
    for i in (0, 71, 142):
        blk = set(main66.blocks[i])
        count = sum(
            1 for j in range(main66.b) if j != i and blk & set(main66.blocks[j])
        )
        assert count == 72


def test_fano_graph_complete():
    g = build_block_graph(builtin_design("fano"))
    assert g.v == 7
    assert g.is_complete()


def test_single_block_graph():
    g = build_block_graph(parse_design("1 2 3\n"))
    assert g.v == 1
    assert g.is_empty()


def test_symmetry_irreflexivity_handshake(main66_graph):
    g = main66_graph
    for i in range(g.v):
        assert not g.adjacent(i, i)
    for i in range(0, g.v, 17):
        for j in range(g.v):
            assert g.adjacent(i, j) == g.adjacent(j, i)
    assert sum(g.degree(i) for i in range(g.v)) == 2 * g.edge_count()


def test_verify_srg_main66(main66_graph):
    srg = verify_srg(main66_graph)
    assert srg.as_tuple() == (143, 72, 36, 36)
    assert (srg.r_eig, srg.s_eig) == (6, -6)


def test_verify_srg_ag23_brute_force():
    g = build_block_graph(builtin_design("ag23"))
    srg = verify_srg(g)
    assert srg.as_tuple() == (12, 9, 6, 9)
    assert srg.s_eig == -3
    # cross-check counts on every pair with a naive loop
    for i in range(g.v):
        for j in range(i + 1, g.v):
            c = brute_common_neighbours(g, i, j)
            assert c == (6 if g.adjacent(i, j) else 9)


def test_verify_srg_degenerate_cases():
    with pytest.raises(DegenerateGraphError):
        verify_srg(build_block_graph(builtin_design("fano")))
    with pytest.raises(DegenerateGraphError):
        verify_srg(BlockGraph(3, (0, 0, 0)))
    with pytest.raises(DegenerateGraphError):
        verify_srg(BlockGraph(1, (0,)))


def test_verify_srg_rejects_irregular():
    # path on 3 vertices: degrees 1, 2, 1
    g = BlockGraph(3, (0b010, 0b101, 0b010))
    with pytest.raises(SrgVerificationError, match="not regular"):
        verify_srg(g)


def test_verify_srg_catches_single_flipped_edge(main66_graph):
    # fault injection: flipping one adjacency bit must break strong regularity
    rows = list(main66_graph.rows)
    i, j = 0, 1
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    broken = BlockGraph(main66_graph.v, tuple(rows))
    with pytest.raises(SrgVerificationError):
        verify_srg(broken)


def test_verify_srg_rejects_nonconstant_counts():
    # 5-cycle plus a chord pattern is irregular; use C6 instead: regular but
    # adjacent pairs have 0 common neighbours while non-adjacent pairs vary (0 or 2)
    rows = [0] * 6
    for i in range(6):
        for j in ((i + 1) % 6, (i - 1) % 6):
            rows[i] |= 1 << j
    with pytest.raises(SrgVerificationError, match="common neighbours"):
        verify_srg(BlockGraph(6, tuple(rows)))


def test_srg_from_design_params():
    srg = srg_from_design_params(66, 6)
    assert srg.as_tuple() == (143, 72, 36, 36)
    assert srg.s_eig == -6
    srg = srg_from_design_params(9, 3)
    assert srg.as_tuple() == (12, 9, 6, 9)
    assert srg.s_eig == -3


def test_srg_from_design_params_rejects_symmetric_and_inadmissible():
    with pytest.raises(ValueError, match="symmetric"):
        srg_from_design_params(7, 3)
    with pytest.raises(ValueError, match="admissible"):
        srg_from_design_params(39, 6)


def test_formula_matches_exhaustive_check_on_builtins():
    for name in ("main66", "appendixA66", "appendixB66", "ag23"):
        d = builtin_design(name)
        srg = verify_srg(build_block_graph(d))
        assert srg == srg_from_design_params(d.n, d.m)
        assert srg.s_eig == -d.m


def test_eigenvalue_identities():
    for n, m in ((66, 6), (9, 3), (25, 4), (91, 6)):
        s = srg_from_design_params(n, m)
        assert s.r_eig * s.s_eig == s.mu - s.k
        assert s.r_eig + s.s_eig == s.lambda_param - s.mu
        assert s.r_eig >= 0 > s.s_eig


def test_delsarte_bound():
    assert delsarte_bound(srg_from_design_params(66, 6)) == 13
    assert delsarte_bound(srg_from_design_params(9, 3)) == 4
    # minimal case: k = -theta gives the bound for a single edge
    assert delsarte_bound(SrgParams(6, 3, 0, 3, 0, -3)) == 2
    with pytest.raises(ValueError):
        delsarte_bound(SrgParams(4, 2, 0, 2, 2, 0))


def test_delsarte_equals_replication_for_block_graphs():
    for n, m in ((66, 6), (9, 3), (25, 4)):
        assert delsarte_bound(srg_from_design_params(n, m)) == (n - 1) // (m - 1)


def test_serialize_graph_formats():
    g = build_block_graph(parse_design("1 2\n2 3\n4 5\n"))
    assert serialize_graph(g, "matrix") == "10\n0\n\n"
    assert serialize_graph(g, "edges") == "0 1\n"
    with pytest.raises(ValueError):
        serialize_graph(g, "dot")


def test_induced_subgraph(main66_graph):
    # the helper the powerset and DFS oracles in test_cliques and
    # test_acceptance run on: it must keep adjacency between kept vertices
    sub = induced_subgraph(main66_graph, range(10))
    assert sub.v == 10
    for a in range(10):
        for b in range(10):
            if a != b:
                assert sub.adjacent(a, b) == main66_graph.adjacent(a, b)
