import random

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
    verify_srg,
)

from blockgraph import graph as graph_module
from blockgraph.graph import _certificate

from itertools import combinations
from math import isqrt

from conftest import adjacent, induced_subgraph, point_line_blocklist, srg_from_design_params


@pytest.fixture(scope="module")
def main66_graph(main66):
    return build_block_graph(main66)


def brute_common_neighbours(graph, i, j):
    return sum(
        1 for u in range(graph.v) if adjacent(graph, i, u) and adjacent(graph, j, u)
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
        assert not adjacent(g, i, i)
    for i in range(0, g.v, 17):
        for j in range(g.v):
            assert adjacent(g, i, j) == adjacent(g, j, i)
    edges = sum(adjacent(g, i, j) for i, j in combinations(range(g.v), 2))
    assert sum(g.degree(i) for i in range(g.v)) == 2 * edges


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
            assert c == (6 if adjacent(g, i, j) else 9)


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


# ---------------------------------------------------------------------------
# verify_srg against a pair-at-a-time reference


def reference_verify_srg(graph):
    """Strong regularity checked one pair at a time, in row-major order."""
    v = graph.v
    if v < 2:
        raise DegenerateGraphError(f"graph with {v} vertices")
    if graph.is_complete():
        raise DegenerateGraphError("complete graph")
    if graph.is_empty():
        raise DegenerateGraphError("empty graph")
    degrees = {graph.degree(i) for i in range(v)}
    if len(degrees) != 1:
        raise SrgVerificationError(f"not regular: degrees {sorted(degrees)}")
    k = degrees.pop()
    lam = mu = None
    rows = graph.rows
    for i in range(v):
        for j in range(i + 1, v):
            c = (rows[i] & rows[j]).bit_count()
            if adjacent(graph, i, j):
                if lam is None:
                    lam = c
                elif c != lam:
                    raise SrgVerificationError(
                        f"adjacent pair ({i},{j}) has {c} common neighbours, expected {lam}"
                    )
            elif mu is None:
                mu = c
            elif c != mu:
                raise SrgVerificationError(
                    f"non-adjacent pair ({i},{j}) has {c} common neighbours, expected {mu}"
                )
    # every pair count holds, so the parameters are feasible: each row of
    # A^2 = kI + lambda A + mu (J - I - A) sums to k^2
    assert k * (k - lam - 1) == (v - k - 1) * mu
    d = lam - mu
    disc = d * d + 4 * (k - mu)
    if isqrt(disc) ** 2 != disc:  # a conference graph
        return SrgParams(v, k, lam, mu, None, None)
    return SrgParams(v, k, lam, mu, (d + isqrt(disc)) // 2, (d - isqrt(disc)) // 2)


def outcome(check, graph):
    """The parameters a check returns, or the type and text of what it raises."""
    try:
        return check(graph)
    except (DegenerateGraphError, SrgVerificationError) as exc:
        return type(exc), str(exc)


def assert_matches_reference(graph):
    got = outcome(verify_srg, graph)
    assert got == outcome(reference_verify_srg, graph)
    if graph.pencils:  # and raw, where only the pair pass can accept it
        assert outcome(verify_srg, BlockGraph(graph.v, graph.rows)) == got
    return got


def from_edges(v, edges):
    rows = [0] * v
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return BlockGraph(v, tuple(rows))


def flipped(graph, *pairs):
    """The graph with the given pairs' adjacency flipped; its pencils stay,
    but no longer partition the broken rows."""
    rows = list(graph.rows)
    for i, j in pairs:
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
    return graph._replace(rows=tuple(rows))


def pencil_rows(graph):
    """The vertices i whose pencils, each less i, partition row i: their
    union less i is the row and their sizes less one add up to its degree."""
    rows, pencils = graph.rows, graph.pencils
    exact = set()
    for i, row in enumerate(rows):
        ps = [p for p in pencils if p >> i & 1]
        union = 0
        for p in ps:
            union |= p
        if union & ~(1 << i) == row and sum(p.bit_count() - 1 for p in ps) == row.bit_count():
            exact.add(i)
    return exact


def pair_count_calls(monkeypatch, graph):
    """How many times verify_srg on the graph calls ``_pair_counts``: none
    where it stops at the degree check, two to read lambda and mu, and a
    third only for the full pair-by-pair pass."""
    calls = []
    pair_counts = graph_module._pair_counts

    def counting(rows):
        calls.append(rows)
        return pair_counts(rows)

    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "_pair_counts", counting)
        outcome(verify_srg, graph)
    return len(calls)


def switched(graph, a, c):
    """Swap edges a~b, c~d for a~d, c~b, with b and d as late as possible;
    every degree stays the same, so only the pair counts can go wrong."""
    def last(x, y):  # the last neighbour of x that is neither y nor next to y
        cand = graph.rows[x] & ~graph.rows[y] & ~(1 << y)
        return cand.bit_length() - 1

    b, d = last(a, c), last(c, a)
    return flipped(graph, (a, b), (c, d), (a, d), (c, b))


@pytest.fixture(scope="module")
def pg35_graph():
    return build_block_graph(parse_design(point_line_blocklist("projective", 3, 5)))


@pytest.mark.parametrize(
    "name", ["main66", "appendixA66", "appendixB66", "fano", "ag23", "pg23"]
)
def test_verify_srg_matches_reference_on_builtins(name):
    assert_matches_reference(build_block_graph(builtin_design(name)))


@pytest.mark.parametrize("family, d, p", [("projective", 3, 2), ("affine", 3, 3)])
def test_verify_srg_matches_reference_on_geometries(family, d, p):
    graph = build_block_graph(parse_design(point_line_blocklist(family, d, p)))
    got = assert_matches_reference(graph)
    assert isinstance(got, SrgParams)


def test_verify_srg_matches_reference_on_pg35(pg35_graph):
    assert assert_matches_reference(pg35_graph).as_tuple() == (806, 180, 54, 36)


@pytest.mark.parametrize("graph_name", ["main66_graph", "pg35_graph"])
def test_verify_srg_matches_reference_after_flips(monkeypatch, request, graph_name):
    graph = request.getfixturevalue(graph_name)
    v = graph.v
    # one flip, then two; and degree-preserving switches, which only the
    # pair pass can catch
    for broken in (
        flipped(graph, (0, v - 1)),
        flipped(graph, (0, v - 1), (5, 10)),
        switched(graph, 0, 1),
        switched(graph, 5, v - 1),
        switched(graph, v - 2, v - 1),
    ):
        exc_type, _ = assert_matches_reference(broken)
        assert exc_type is SrgVerificationError
        # the certificate declines the broken rows; a switch keeps the
        # degrees and leaves the graph to the pair pass, a flip is
        # irregular and rejected before
        assert _certificate(broken.rows, broken.pencils) is None
        regular = len({broken.degree(i) for i in range(v)}) == 1
        assert pair_count_calls(monkeypatch, broken) == (3 if regular else 0)


def test_verify_srg_matches_reference_on_small_graphs():
    c6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    p3 = from_edges(3, [(0, 1), (1, 2)])
    k4s = from_edges(
        20, [(4 * q + a, 4 * q + b) for q in range(5) for a in range(4) for b in range(a)]
    )
    assert assert_matches_reference(c6)[0] is SrgVerificationError
    assert assert_matches_reference(p3) == (SrgVerificationError, "not regular: degrees [1, 2]")
    # mu = 0: every non-adjacent pair has no common neighbour
    assert assert_matches_reference(k4s).as_tuple() == (20, 3, 2, 0)


def test_verify_srg_conference_graphs_have_irrational_eigenvalues():
    c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    residues = {1, 3, 4, 9, 10, 12}  # the squares mod 13
    paley13 = from_edges(13, [(i, j) for i, j in combinations(range(13), 2)
                              if (j - i) % 13 in residues])
    assert assert_matches_reference(c5) == SrgParams(5, 2, 0, 1, None, None)
    assert assert_matches_reference(paley13) == SrgParams(13, 6, 2, 3, None, None)
    assert delsarte_bound(verify_srg(paley13)) is None


@pytest.mark.parametrize("s", [255, 256])
def test_verify_srg_field_width_edge(s):
    # K_{s,s} = srg(2s, s, 0, s) and two broken variants
    kss = from_edges(2 * s, [(i, s + j) for i in range(s) for j in range(s)])
    assert assert_matches_reference(kss) == SrgParams(2 * s, s, 0, s, 0, -s)
    assert assert_matches_reference(flipped(kss, (0, 2 * s - 1)))[0] is SrgVerificationError
    # remove 0~s and 1~s+1, add 0~1 and s~s+1: still s-regular
    broken = flipped(kss, (0, s), (1, s + 1), (0, 1), (s, s + 1))
    assert assert_matches_reference(broken)[0] is SrgVerificationError


def test_raw_and_switched_graphs_take_the_pair_pass(monkeypatch, main66_graph):
    assert pair_count_calls(monkeypatch, main66_graph) == 2  # certified
    # the raw graph has no pencils, and switched rows are not partitioned
    raw = BlockGraph(main66_graph.v, main66_graph.rows)
    assert assert_matches_reference(raw).as_tuple() == (143, 72, 36, 36)
    assert pair_count_calls(monkeypatch, raw) == 3
    for a, c in ((0, 1), (0, 142), (70, 71), (141, 142)):
        broken = switched(main66_graph, a, c)
        assert assert_matches_reference(broken)[0] is SrgVerificationError
        assert pair_count_calls(monkeypatch, broken) == 3


@pytest.mark.parametrize("strip_cells", [143, 143 * 8, 143 * 50])
def test_verify_srg_matches_reference_in_narrow_strips(monkeypatch, main66_graph, strip_cells):
    # a switch between the two end columns of a strip of A 1, 8 or 50
    # columns wide (143, 1144 or 7150 entries), at the start, the middle
    # and the end of main66's rows: the certificate declines it and the
    # pair pass names the reference's first failing pair
    width = strip_cells // main66_graph.v
    for a in (0, (main66_graph.v - 1 - width) // 2, main66_graph.v - 1 - width):
        broken = switched(main66_graph, a, a + width)
        assert _certificate(broken.rows, broken.pencils) is None
        assert assert_matches_reference(broken)[0] is SrgVerificationError
        assert pair_count_calls(monkeypatch, broken) == 3


def test_every_small_graph_raw_and_with_edge_pencils(monkeypatch):
    # every graph on 2 to 5 vertices, raw and with its edges as 2-vertex
    # pencils, which partition every row: the certificate decides only
    # where the graph is regular and the edges meet pairwise in one beta.
    # It accepts a perfect matching (beta = 0) and declines C4 and C5
    # (beta 0 or 1); a raw regular graph always takes the pair pass
    calls = set()
    for v in range(2, 6):
        pairs = list(combinations(range(v), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
            raw = from_edges(v, edges)
            graph = raw._replace(pencils=tuple(1 << i | 1 << j for i, j in edges))
            assert pencil_rows(graph) == set(range(v))
            assert_matches_reference(graph)
            assert pair_count_calls(monkeypatch, raw) in (0, 3)
            calls.add(pair_count_calls(monkeypatch, graph))
    assert calls == {0, 2, 3}


LINEAR_BUILTINS = ["main66", "appendixA66", "appendixB66", "fano", "ag23", "pg23"]


@pytest.mark.parametrize("name", LINEAR_BUILTINS)
def test_every_row_of_a_linear_design_takes_the_pencil_route(name):
    # in a 2-(n,m,1) design two blocks share at most one point, so the
    # pencils through a block, less the block, partition its neighbours
    # pencils, and the certificate gives the closed form (for fano and pg23,
    # whose graphs are complete, mu is m^2 but multiplies J - I - A = 0)
    design = builtin_design(name)
    graph = build_block_graph(design)
    assert len(graph.pencils) == design.n
    assert pencil_rows(graph) == set(range(graph.v))
    m, r = design.m, (design.n - 1) // (design.m - 1)
    assert _certificate(graph.rows, graph.pencils) == (m * (r - 1), (m - 1) ** 2 + r - 2, m * m)


@pytest.mark.parametrize("family, d, p", [("projective", 3, 2), ("affine", 3, 3)])
def test_every_row_of_a_geometry_takes_the_pencil_route(family, d, p):
    graph = build_block_graph(parse_design(point_line_blocklist(family, d, p)))
    assert pencil_rows(graph) == set(range(graph.v))
    assert _certificate(graph.rows, graph.pencils) == verify_srg(graph).as_tuple()[1:]


def test_every_row_of_pg35_takes_the_pencil_route(pg35_graph):
    assert pencil_rows(pg35_graph) == set(range(pg35_graph.v))
    assert _certificate(pg35_graph.rows, pg35_graph.pencils) == (180, 54, 36)


def all_triples(n):
    return parse_design(
        "".join(" ".join(map(str, c)) + "\n" for c in combinations(range(1, n + 1), 3))
    )


def test_verify_srg_on_triples_of_6_points():
    # two triples sharing two points lie on two common pencils, so the
    # pencils double-cover edges, no row is partitioned and the pair pass
    # decides; the graph is K_20 less a perfect matching
    graph = build_block_graph(all_triples(6))
    assert pencil_rows(graph) == set()
    assert _certificate(graph.rows, graph.pencils) is None
    assert assert_matches_reference(graph).as_tuple() == (20, 18, 16, 18)


def test_verify_srg_on_triples_of_7_points():
    graph = build_block_graph(all_triples(7))
    assert assert_matches_reference(graph) == (
        SrgVerificationError, "adjacent pair (0,9) has 25 common neighbours, expected 26"
    )


def test_pencils_that_do_not_partition_change_nothing():
    # whatever the pencils are, the certificate applies only where they
    # partition every row exactly: the 3x3 rook's graph = srg(9,4,1,2),
    # Petersen = srg(10,3,0,1)
    rook = from_edges(9, [(a, b) for a in range(9) for b in range(a)
                          if a // 3 == b // 3 or a % 3 == b % 3])
    petersen = from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    rng = random.Random(20261018)
    for graph, params in ((rook, (9, 4, 1, 2)), (petersen, (10, 3, 0, 1))):
        assert verify_srg(graph).as_tuple() == params
        star = [1 | 1 << j for j in range(graph.v) if adjacent(graph, 0, j)]
        other = next(j for j in range(1, graph.v) if not adjacent(graph, 0, j))
        # row 0's neighbours one by one, the sizes adding up to its degree in
        # each case, but only the first is a partition
        for pencils in [
            tuple(star),
            (star[0],) * len(star),  # one neighbour covered again and again
            (1 | 1 << other,) + tuple(star[1:]),  # a non-neighbour for a neighbour
            (star[0] | 1 << graph.v,) + tuple(star[2:]),  # a bit past the last vertex
        ] + [
            tuple(rng.getrandbits(graph.v) for _ in range(rng.randint(1, 2 * graph.v)))
            for _ in range(100)
        ]:
            assert verify_srg(graph._replace(pencils=pencils)).as_tuple() == params
    # pencils that partition every row, so only N N^T decides whether the
    # certificate applies: T(5) (the lines of K5 through its points,
    # srg(10,6,3,4)) is certified; a pencil through no vertex
    # with a bit past the last, pencils of two sizes (the rows and columns
    # of the 3x4 rook's graph, not srg; 2K3 with one triangle as a line and
    # three single points) or two overlaps (the 3x3 rook's rows and
    # columns) leave it to the pair pass
    pairs = list(combinations(range(5), 2))
    t5 = from_edges(10, [(a, b) for b in range(10) for a in range(b) if set(pairs[a]) & set(pairs[b])])
    t5_pencils = tuple(sum(1 << i for i, e in enumerate(pairs) if x in e) for x in range(5))
    rook34 = from_edges(12, [(a, b) for b in range(12) for a in range(b)
                             if a // 4 == b // 4 or a % 4 == b % 4])
    two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for graph, pencils, certified in [
        (t5, t5_pencils, True),
        (t5, t5_pencils + (1 << 10,), False),
        (rook, (0b111, 0b111 << 3, 0b111 << 6, 0b1001001, 0b10010010, 0b100100100), False),
        (rook34, tuple(0b1111 << 4 * r for r in range(3)) + tuple(0x111 << c for c in range(4)),
         False),
        (two_triangles, (0b111, 1, 2, 4, 0b11000, 0b110000, 0b101000), False),
    ]:
        graph = graph._replace(pencils=pencils)
        assert pencil_rows(graph) == set(range(graph.v))
        assert (_certificate(graph.rows, pencils) is not None) == certified
        assert_matches_reference(graph)


CERTIFIED = ["main66", "appendixA66", "appendixB66", "ag23",
             ("projective", 3, 2), ("affine", 3, 3), ("projective", 3, 3), ("projective", 3, 5)]


@pytest.mark.parametrize("source", CERTIFIED, ids=str)
def test_designs_are_certified_without_strips(monkeypatch, source):
    # the pencils partition every row, each block lies on m pencils and the
    # pencils of a 2-design meet pairwise in one block: N N^T = (r-1) I + J,
    # so the certificate is the whole check and the pair pass never runs
    design = (builtin_design(source) if isinstance(source, str)
              else parse_design(point_line_blocklist(*source)))
    graph = build_block_graph(design)
    assert verify_srg(graph) == srg_from_design_params(design.n, design.m)
    assert pair_count_calls(monkeypatch, graph) == 2


def test_net_falls_back_to_the_pair_pass(monkeypatch):
    # AG(2,3) less one parallel class: a partial linear space, not a 2-design.
    # The pencils partition every row, but two points meet in a line or in
    # none, so N N^T is not alpha I + beta J and the pair pass decides: the
    # block graph is K_{3,3,3} = srg(9,6,3,6)
    net = parse_design("0 1 2\n3 4 5\n6 7 8\n0 3 6\n1 4 7\n2 5 8\n0 4 8\n1 5 6\n2 3 7\n")
    graph = build_block_graph(net)
    assert pencil_rows(graph) == set(range(9))
    assert _certificate(graph.rows, graph.pencils) is None
    assert assert_matches_reference(graph).as_tuple() == (9, 6, 3, 6)
    assert pair_count_calls(monkeypatch, graph) == 3


def test_certificate_needs_every_condition():
    # with (alpha, beta, m) = (2, 1, 2), T(4) = K_{2,2,2} from the lines of
    # K4 through its points is srg(6,4,2,4); with m = 1 two disjoint pencils
    # give 2K3, (alpha, beta) = (3, 0); each other case breaks one
    # condition, the first three with pencils that partition every row
    pairs = list(combinations(range(4), 2))
    t4 = tuple(sum(1 << i for i, e in enumerate(pairs) if x in e) for x in range(4))
    for v, pencils, expected in [
        (6, t4, (4, 2, 4)),
        (6, (0b111, 0b111000), (2, 1, 0)),
        (3, (0b011, 0b110), None),  # the path 0-1-2: vertex 1 on two pencils, 0 on one
        (3, (0b001, 0b110), None),  # K1 + K2: disjoint pencils of sizes 1 and 2
        (6, (0b111, 0b111000, 0b111 << 6), None),  # 2K3 and three bits past the last vertex
        (6, t4[:3] + (t4[3] | 1 << 6,), None),  # a stray bit: its pencil's rows not partitioned
    ]:
        rows = [0] * v
        for pencil in pencils:
            for i in range(v):
                if pencil >> i & 1:
                    rows[i] |= pencil & ~(1 << i) & ((1 << v) - 1)
        assert _certificate(tuple(rows), pencils) == expected


def test_raw_graph_has_no_pencils(main66_graph):
    raw = BlockGraph(main66_graph.v, main66_graph.rows)
    assert raw.pencils == ()
    assert pencil_rows(raw) == set()
    assert _certificate(raw.rows, raw.pencils) is None
    assert verify_srg(raw) == verify_srg(main66_graph)


def test_induced_subgraph(main66_graph):
    # the helper the powerset and DFS oracles in test_cliques and
    # test_acceptance run on: it must keep adjacency between kept vertices
    sub = induced_subgraph(main66_graph, range(10))
    assert sub.v == 10
    for a in range(10):
        for b in range(10):
            if a != b:
                assert adjacent(sub, a, b) == adjacent(main66_graph, a, b)
