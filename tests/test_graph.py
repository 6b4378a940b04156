import pytest

from blockgraph import (
    BlockGraph,
    DegenerateGraphError,
    SrgParams,
    SrgVerificationError,
    build_block_graph,
    builtin_design,
    census_report,
    delsarte_bound,
    parse_design,
    validate_2design,
    verify_srg,
)

from blockgraph import cliques as cliques_module
from blockgraph import graph as graph_module
from blockgraph.design import Design
from blockgraph.graph import steiner_srg

from itertools import combinations
from math import isqrt

from conftest import (
    adjacent,
    induced_subgraph,
    point_line_blocklist,
    random_blocklists,
    srg_from_design_params,
    steiner_design,
)


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
        assert srg == srg_from_design_params(d.n, d.m) == steiner_srg(d.n, d.m)
        assert srg.s_eig == -d.m


def test_steiner_srg_closed_form():
    # every admissible (n, m) with n < 60 and b >= n (Fisher's inequality),
    # against the conftest formula; where b = n (PG(2,q) and the triangle)
    # the block graph is complete
    symmetric = 0
    for m in range(2, 8):
        for n in range(m + 1, 60):
            if (n - 1) % (m - 1) or n * (n - 1) % (m * (m - 1)) or n - 1 < m * (m - 1):
                continue
            if n - 1 == m * (m - 1):
                symmetric += 1
                with pytest.raises(DegenerateGraphError, match="^complete graph$"):
                    steiner_srg(n, m)
            else:
                assert steiner_srg(n, m) == srg_from_design_params(n, m)
    assert symmetric == 6  # (3,2), (7,3), (13,4), (21,5), (31,6), (43,7)


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


def outcome(check, *args):
    """The parameters a check returns, or the type and text of what it raises."""
    try:
        return check(*args)
    except (DegenerateGraphError, SrgVerificationError) as exc:
        return type(exc), str(exc)


def assert_matches_reference(graph):
    got = outcome(verify_srg, graph)
    assert got == outcome(reference_verify_srg, graph)
    return got


def from_edges(v, edges):
    rows = [0] * v
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return BlockGraph(v, tuple(rows))


def flipped(graph, *pairs):
    """The graph with the given pairs' adjacency flipped."""
    rows = list(graph.rows)
    for i, j in pairs:
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
    return graph._replace(rows=tuple(rows))


def counted(patch, module, name):
    """Replace ``module.name`` by a wrapper that records the arguments of each
    call, for the life of ``patch``; returns the list of calls."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    patch.setattr(module, name, wrapper)
    return calls


def pair_count_calls(monkeypatch, graph):
    """How many times verify_srg on the graph calls ``_pair_counts``: none
    where it stops at the degree check, two to read lambda and mu, and a
    third for the pair-by-pair pass."""
    with monkeypatch.context() as patch:
        calls = counted(patch, graph_module, "_pair_counts")
        outcome(verify_srg, graph)
    return len(calls)


def census_route(monkeypatch, design):
    """The census's SRG outcome for a design, its clique search left out
    (the parameters, or the type and text of the error), whether it took
    the closed form and how many times it called ``_pair_counts``."""
    with monkeypatch.context() as patch:
        patch.setattr(cliques_module, "enumerate_maximum_cliques", lambda graph: [])
        closed = counted(patch, cliques_module, "steiner_srg")
        pairs = counted(patch, graph_module, "_pair_counts")
        try:
            census = census_report(design)
            got = census.srg or (DegenerateGraphError, census.degenerate)
        except SrgVerificationError as exc:
            got = SrgVerificationError, str(exc)
    return got, bool(closed), len(pairs)


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
        # a switch keeps the degrees and leaves the graph to the pair pass,
        # a flip is irregular and rejected before
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
    # the 3x3 rook's graph, Petersen and T(5) (the lines of K5, meeting in
    # a point) are strongly regular; the 3x4 rook's graph and 2K3 are not
    rook = from_edges(9, [(a, b) for a in range(9) for b in range(a)
                          if a // 3 == b // 3 or a % 3 == b % 3])
    petersen = from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    pairs = list(combinations(range(5), 2))
    t5 = from_edges(10, [(a, b) for b in range(10) for a in range(b) if set(pairs[a]) & set(pairs[b])])
    rook34 = from_edges(12, [(a, b) for b in range(12) for a in range(b)
                             if a // 4 == b // 4 or a % 4 == b % 4])
    two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert assert_matches_reference(rook).as_tuple() == (9, 4, 1, 2)
    assert assert_matches_reference(petersen).as_tuple() == (10, 3, 0, 1)
    assert assert_matches_reference(t5).as_tuple() == (10, 6, 3, 4)
    assert assert_matches_reference(rook34)[0] is SrgVerificationError
    assert assert_matches_reference(two_triangles).as_tuple() == (6, 2, 1, 0)


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
    # every graph, a design's included, takes the pair pass
    assert pair_count_calls(monkeypatch, main66_graph) == 3
    raw = BlockGraph(main66_graph.v, main66_graph.rows)
    assert assert_matches_reference(raw).as_tuple() == (143, 72, 36, 36)
    for a, c in ((0, 1), (0, 142), (70, 71), (141, 142)):
        broken = switched(main66_graph, a, c)
        assert assert_matches_reference(broken)[0] is SrgVerificationError
        assert pair_count_calls(monkeypatch, broken) == 3


@pytest.mark.parametrize("strip_cells", [143, 143 * 8, 143 * 50])
def test_verify_srg_matches_reference_in_narrow_strips(monkeypatch, main66_graph, strip_cells):
    # a switch between two columns 1, 8 or 50 apart (143, 1144 or 7150
    # entries of A between them), at the start, the middle and the end of
    # main66's rows: the pair pass names the reference's first failing pair
    width = strip_cells // main66_graph.v
    for a in (0, (main66_graph.v - 1 - width) // 2, main66_graph.v - 1 - width):
        broken = switched(main66_graph, a, a + width)
        assert assert_matches_reference(broken)[0] is SrgVerificationError
        assert pair_count_calls(monkeypatch, broken) == 3


def test_every_small_graph_matches_the_reference(monkeypatch):
    # every graph on 2 to 5 vertices: a regular one that is neither
    # complete nor empty takes the pair pass, the rest stop before it
    calls = set()
    for v in range(2, 6):
        pairs = list(combinations(range(v), 2))
        for mask in range(1 << len(pairs)):
            graph = from_edges(v, [p for bit, p in enumerate(pairs) if mask >> bit & 1])
            assert_matches_reference(graph)
            calls.add(pair_count_calls(monkeypatch, graph))
    assert calls == {0, 3}


LINEAR_BUILTINS = ["main66", "appendixA66", "appendixB66", "fano", "ag23", "pg23"]


def pencil_rows(design):
    """The blocks i whose pencils, each less i, partition row i: their
    union less i is the row and their sizes less one add up to its degree."""
    through, rows, _ = design.reach
    exact = set()
    for i, (blk, row) in enumerate(zip(design.blocks, rows)):
        ps = [through[p] for p in blk]
        union = 0
        for p in ps:
            union |= p
        if union & ~(1 << i) == row and sum(p.bit_count() - 1 for p in ps) == row.bit_count():
            exact.add(i)
    return exact


def assert_pencil_route(design):
    # in a 2-(n,m,1) design two blocks share at most one point, so the
    # pencils through a block, less the block, partition its neighbours:
    # A = N^T N - mI, the first half of the closed form, whose degree is
    # m(r - 1) (b - 1 where the graph is complete)
    graph = build_block_graph(design)
    assert pencil_rows(design) == set(range(graph.v))
    m, r = design.m, (design.n - 1) // (design.m - 1)
    assert {graph.degree(i) for i in range(graph.v)} == {m * (r - 1)}
    assert outcome(steiner_srg, design.n, design.m) == outcome(verify_srg, graph)


@pytest.mark.parametrize("name", LINEAR_BUILTINS)
def test_every_row_of_a_linear_design_takes_the_pencil_route(name):
    assert_pencil_route(builtin_design(name))


@pytest.mark.parametrize("family, d, p", [("projective", 3, 2), ("affine", 3, 3)])
def test_every_row_of_a_geometry_takes_the_pencil_route(family, d, p):
    assert_pencil_route(parse_design(point_line_blocklist(family, d, p)))


def test_every_row_of_pg35_takes_the_pencil_route():
    assert_pencil_route(parse_design(point_line_blocklist("projective", 3, 5)))


def all_triples(n):
    return parse_design(
        "".join(" ".join(map(str, c)) + "\n" for c in combinations(range(1, n + 1), 3))
    )


def test_verify_srg_on_triples_of_6_points():
    # two triples sharing two points lie on two common pencils, so the
    # pencils double-cover edges, no row is partitioned and the pair pass
    # decides; the graph is K_20 less a perfect matching
    design = all_triples(6)
    assert pencil_rows(design) == set()
    assert assert_matches_reference(build_block_graph(design)).as_tuple() == (20, 18, 16, 18)


def test_verify_srg_on_triples_of_7_points():
    graph = build_block_graph(all_triples(7))
    assert assert_matches_reference(graph) == (
        SrgVerificationError, "adjacent pair (0,9) has 25 common neighbours, expected 26"
    )


# ---------------------------------------------------------------------------
# the census's route: the closed form exactly where the design is valid

NET33 = "0 1 2\n3 4 5\n6 7 8\n0 3 6\n1 4 7\n2 5 8\n0 4 8\n1 5 6\n2 3 7\n"
FANO_LINES = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))


def shrikhande_blocklist():
    """The Shrikhande graph on Z4 x Z4 as the block graph of its 16 vertices,
    each the block of its 6 edges: pencils of 2 blocks, srg(16, 6, 2, 2)."""
    steps = {(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)}
    edges = [(x, y) for x, y in combinations(range(16), 2)
             if ((y // 4 - x // 4) % 4, (y % 4 - x % 4) % 4) in steps]
    return "".join(
        " ".join(f"e{x}_{y}" for x, y in edges if z in (x, y)) + "\n" for z in range(16)
    )


def raw_design(n, m, blocks):
    """A Design straight from integer blocks of m points each, any n and m."""
    return Design(n, m, tuple(f"p{p}" for p in range(n)), tuple(sorted(blocks)))


GEOMETRIES = [("projective", 3, 2), ("affine", 3, 3), ("projective", 3, 3), ("projective", 3, 5)]


def census_inputs():
    """The builtins, PG/AG cases, seeded STS, the 3x3 net, the Shrikhande
    input, triples on two points and all triples of 6 and 7 points, the
    random blocklists and the Fano plane with one line swapped for a triple
    meeting three others twice."""
    yield from map(builtin_design, LINEAR_BUILTINS)
    for source in GEOMETRIES:
        yield parse_design(point_line_blocklist(*source))
    for v, seed in ((9, 0), (13, 1), (15, 2), (19, 3), (21, 4)):
        yield steiner_design(v, seed)
    yield parse_design(NET33)
    yield parse_design(shrikhande_blocklist())
    yield parse_design("1 2 3\n1 2 4\n")
    yield all_triples(6)
    yield all_triples(7)
    yield from random_blocklists()
    yield raw_design(7, 3, FANO_LINES[:6] + ((0, 1, 3),))


def test_census_takes_the_closed_form_exactly_on_valid_designs(monkeypatch):
    # the census's O(b) conditions hold iff validate_2design accepts the
    # design, and its parameters are those of the pair pass on the raw rows
    kinds = set()
    for design in census_inputs():
        valid = validate_2design(design).valid
        got, closed, pairs = census_route(monkeypatch, design)
        assert closed == valid, design.name
        graph = build_block_graph(design)
        assert got == outcome(verify_srg, BlockGraph(graph.v, graph.rows)), design.name
        if valid:
            assert pairs == 0
        kinds.add((valid, type(got)))
    assert kinds == {
        (True, SrgParams), (True, tuple),  # fano and pg23 are degenerate
        (False, SrgParams), (False, tuple),
    }


CERTIFIED = ["main66", "appendixA66", "appendixB66", "ag23", *GEOMETRIES]


@pytest.mark.parametrize("source", CERTIFIED, ids=str)
def test_designs_are_certified_without_strips(monkeypatch, source):
    # a valid 2-(n,m,1) design is proved by the closed form, so the census
    # never counts a pair, and its parameters are the pair pass's
    design = (builtin_design(source) if isinstance(source, str)
              else parse_design(point_line_blocklist(*source)))
    got, closed, pairs = census_route(monkeypatch, design)
    graph = build_block_graph(design)
    assert closed and pairs == 0
    assert got == verify_srg(BlockGraph(graph.v, graph.rows))
    assert got == srg_from_design_params(design.n, design.m)


def test_net_falls_back_to_the_pair_pass(monkeypatch):
    # AG(2,3) less one parallel class: a partial linear space, not a 2-design
    # (b m(m-1) = 54, n(n-1) = 72), so the pair pass decides: the block
    # graph is K_{3,3,3} = srg(9,6,3,6)
    net = parse_design(NET33)
    assert pencil_rows(net) == set(range(9))
    got, closed, pairs = census_route(monkeypatch, net)
    assert not closed and pairs == 3
    assert got.as_tuple() == (9, 6, 3, 6)
    assert got == assert_matches_reference(build_block_graph(net))


def test_shrikhande_input_takes_the_pair_pass(monkeypatch):
    # 16 blocks of 6 of the 48 edges: 16 * 30 != 48 * 47
    got, closed, pairs = census_route(monkeypatch, parse_design(shrikhande_blocklist()))
    assert not closed and pairs == 3
    assert got.as_tuple() == (16, 6, 2, 2)


def test_certificate_needs_every_condition(monkeypatch):
    # each input breaks one of the census's three conditions and meets the
    # other two, so the pair pass (or the degree check) decides; the Fano
    # plane meets all three and takes the closed form
    for design, closed_form in [
        (raw_design(7, 3, FANO_LINES), True),
        (raw_design(1, 1, ((0,),)), False),  # n > m >= 2: m = 1, one vertex
        (raw_design(3, 3, ((0, 1, 2),)), False),  # n > m >= 2: n = m, one vertex
        (parse_design(NET33), False),  # b m(m-1) = 54, n(n-1) = 72
        (raw_design(7, 3, FANO_LINES[:6] + ((0, 1, 3),)), False),  # a pair in two blocks
    ]:
        got, closed, _ = census_route(monkeypatch, design)
        assert closed == closed_form
        assert got == outcome(verify_srg, build_block_graph(design))


def test_induced_subgraph(main66_graph):
    # the helper the powerset and DFS oracles in test_cliques and
    # test_acceptance run on: it must keep adjacency between kept vertices
    sub = induced_subgraph(main66_graph, range(10))
    assert sub.v == 10
    for a in range(10):
        for b in range(10):
            if a != b:
                assert adjacent(sub, a, b) == adjacent(main66_graph, a, b)
