"""Differential tests of the bitmask kernels against the direct-counting forms.

Each reference below counts the way the definitions read: a pair table for
coverage, ``make_design`` + ``validate_2design`` for the core restriction,
and a pairwise AND for block-graph adjacency.  The random family of
3-uniform blocklists lets blocks share two points, which no valid 2-design
does, so the "pair covered twice" and "duplicate restricted block" paths
are compared too.
"""

from collections import Counter
from itertools import combinations
from random import Random

import pytest

from blockgraph import (
    BUILTIN_NAMES,
    build_block_graph,
    builtin_design,
    census_report,
    classify_clique,
    core_restriction,
    enumerate_maximum_cliques,
    point_multiplicity_profile,
    subdesign_test,
)
from blockgraph import cliques as cliques_module
from blockgraph.cliques import Classification, CliqueRecord, CliqueShape, clique_record
from blockgraph.design import Design, admissibility, make_design, parse_design, validate_2design
from blockgraph.graph import DegenerateGraphError

from conftest import adjacent, point_line_blocklist, powerset_cliques, random_blocklists


def reference_classification(design, members):
    common = set(range(design.n))
    for i in members:
        common &= set(design.blocks[i])
    if common:
        return Classification("canonical", min(common))
    return Classification("non-canonical", None)


def reference_profile(design, members):
    counts = Counter(p for i in members for p in design.blocks[i])
    return dict(sorted(counts.items()))


def reference_core(design, members):
    """(core points, restricted blocks, params, duplicate restricted block seen)."""
    core = tuple(p for p, c in reference_profile(design, members).items() if c >= 2)
    restricted = tuple(tuple(p for p in design.blocks[i] if p in core) for i in members)
    params = None
    duplicate = False
    sizes = {len(blk) for blk in restricted}
    if len(sizes) == 1 and core:
        m_r = sizes.pop()
        if m_r >= 2 and len(core) > m_r:
            tokens = [design.labels[p] for p in core]
            try:
                sub = make_design(
                    tokens, [[design.labels[p] for p in blk] for blk in restricted]
                )
            except ValueError:
                duplicate = True
            else:
                if validate_2design(sub).valid:
                    params = admissibility(len(core), m_r)
    return core, restricted, params, duplicate


def reference_support(design, members):
    return tuple(sorted({p for i in members for p in design.blocks[i]}))


def reference_verdict(design, members):
    support = reference_support(design, members)
    ns = len(support)
    counts = Counter(pair for i in members for pair in combinations(design.blocks[i], 2))
    coverage_ok = (
        bool(members)
        and all(counts.get(pair, 0) == 1 for pair in combinations(support, 2))
        and all(c == 1 for c in counts.values())
    )
    params = admissibility(ns, design.m) if ns > design.m >= 2 else None
    is_design = (
        params is not None and params.admissible and coverage_ok
        and len(members) == int(params.b)
        and all(len(design.blocks[i]) == design.m for i in members)
    )
    return ns, params, coverage_ok, is_design


def reference_record(design, members):
    """The census record of ``members``, every field from the references."""
    core, _, params, _ = reference_core(design, members)
    kind, witness = reference_classification(design, members)
    ns, candidate, coverage_ok, is_design = reference_verdict(design, members)
    shape = CliqueShape(kind, ns, len(core), params, candidate, coverage_ok, is_design)
    return CliqueRecord(tuple(sorted(members)), witness, shape)


def reference_rows(design):
    masks = design.block_masks
    return tuple(
        sum(1 << j for j in range(design.b) if j != i and masks[i] & masks[j])
        for i in range(design.b)
    )


def assert_public_functions_match(design, members):
    core, restricted, params, _ = reference_core(design, members)
    expected = reference_record(design, members)
    assert classify_clique(design, members) == reference_classification(design, members)
    assert tuple(point_multiplicity_profile(design, members)) == reference_support(design, members)
    assert point_multiplicity_profile(design, members) == reference_profile(design, members)
    got = core_restriction(design, members)
    assert (got.core_points, got.restricted_blocks, got.restricted_params) == (
        core, restricted, params
    )
    assert subdesign_test(design, members) == expected.shape
    # members sorted, witness, kind, sizes, core design and verdict
    assert clique_record(design, members) == expected


# ---------------------------------------------------------------------------
# designs: every census record field against the references


@pytest.fixture(
    scope="module", params=["fano", "ag23", "main66", "pg32", "ag33"]
)
def design(request):
    if request.param in ("pg32", "ag33"):
        return request.getfixturevalue(request.param)
    return builtin_design(request.param)


def test_block_graph_matches_pairwise_and(design):
    assert build_block_graph(design).rows == reference_rows(design)


def test_census_records_match_references(design):
    census = census_report(design)
    assert census.total > 0
    for rec in census.records:
        assert rec == reference_record(design, rec.members)
        support = reference_support(design, rec.members)
        assert tuple(point_multiplicity_profile(design, rec.members)) == support


def test_public_functions_match_references(design):
    for rec in census_report(design).records:
        assert_public_functions_match(design, rec.members)


# ---------------------------------------------------------------------------
# random blocklists: every clique, from a powerset scan


def test_random_blocklists_match_references():
    twice = duplicates = designs = 0
    for design in random_blocklists():
        graph = build_block_graph(design)
        assert graph.rows == reference_rows(design)
        cliques = powerset_cliques(graph)
        largest = max(map(len, cliques))
        assert enumerate_maximum_cliques(graph) == sorted(c for c in cliques if len(c) == largest)
        for members in cliques:
            assert_public_functions_match(design, members)
            twice += any(
                len(set(design.blocks[i]) & set(design.blocks[j])) >= 2
                for i, j in combinations(members, 2)
            )
            duplicates += reference_core(design, members)[3]
        designs += 1
    assert designs == 24
    # the family reaches the paths no valid 2-design reaches
    assert twice > 0
    assert duplicates > 0


FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))


def uniform_blocklists(seed=20261022, count=30):
    """m-uniform blocklists, m = 2 or 3, each on a planted design (every
    pair of 3 to n points, or a Fano plane) plus a few random blocks: in
    half of them only blocks that share at most one point with every block
    so far, in the rest any (so a pair may be covered twice)."""
    rng = Random(seed)
    for k in range(count):
        m = 2 + k % 2
        n = rng.randint(3, 6) if m == 2 else rng.randint(7, 9)
        points = rng.sample(range(n), rng.randint(3, n) if m == 2 else 7)
        blocks = ([tuple(pair) for pair in combinations(points, 2)] if m == 2
                  else [tuple(points[p] for p in line) for line in FANO])
        for _ in range(rng.randint(0, 4)):
            extra = rng.sample(range(n), m)
            if k % 4 < 2 and any(len(set(extra) & set(blk)) > 1 for blk in blocks):
                continue
            blocks.append(tuple(extra))
        labels = [f"p{p}" for p in range(n)]
        blocks = {tuple(sorted(blk)) for blk in blocks}
        yield make_design(labels, [[labels[p] for p in blk] for blk in blocks], name=f"uniform{k}")


def small_cliques(graph, limit):
    """Every clique of at most ``limit`` vertices, each in ascending order."""
    found = []

    def grow(clique, candidates):
        found.append(clique)
        if len(clique) < limit:
            for i, v in enumerate(candidates):
                grow((*clique, v), [u for u in candidates[i + 1:] if adjacent(graph, u, v)])

    grow((), list(range(graph.v)))
    return found[1:]


def test_uniform_blocklists_match_references():
    # every clique of up to seven blocks (a planted Fano plane is seven)
    # against the references; a clique is a design iff it covers each pair
    # of its more than m support points once, and a design is valid iff it
    # covers each pair of its points once
    verdicts, valid = Counter(), Counter()
    for design in uniform_blocklists():
        m = design.m
        for members in small_cliques(build_block_graph(design), 7):
            assert_public_functions_match(design, members)
            support = reference_support(design, members)
            pairs = Counter(pair for i in members for pair in combinations(design.blocks[i], 2))
            once = all(pairs[pair] == 1 for pair in combinations(support, 2))
            is_design = subdesign_test(design, members).is_design
            assert is_design == (len(support) > m and once)
            verdicts[m, is_design] += 1
        pairs = Counter(pair for blk in design.blocks for pair in combinations(blk, 2))
        once = all(pairs[pair] == 1 for pair in combinations(range(design.n), 2))
        assert validate_2design(design).valid == once
        valid[once] += 1
    assert set(verdicts) == {(2, True), (2, False), (3, True), (3, False)}
    assert valid[True] > 0 and valid[False] > 0


# ---------------------------------------------------------------------------
# the census's shared-prefix pass against the one-clique path


def census_of(monkeypatch, design, lists):
    """census_report on member lists handed over as the search's, with no
    SRG check (a random blocklist's block graph need not be regular)."""
    def no_srg(graph):
        raise DegenerateGraphError("not checked")

    monkeypatch.setattr(cliques_module, "enumerate_maximum_cliques", lambda graph: lists)
    monkeypatch.setattr(cliques_module, "verify_srg", no_srg)
    return census_report(design)


def one_clique_error(design, members):
    with pytest.raises(ValueError) as exc:
        clique_record(design, members)
    return str(exc.value)


def assert_census_pass_matches_one_clique_path(monkeypatch, design, cliques, rng):
    """Census the cliques and all their prefixes, sorted so that neighbours
    share prefixes, each handed over shuffled; then, right after a valid
    list, a list with the same prefix and a failing suffix: a repeat, an
    index out of range, or a block disjoint from a prefix member.  The
    census gives clique_record's record for each list, or its error text.
    Returns the failures built."""
    lists = sorted({c[:j] for c in map(tuple, map(sorted, cliques)) for j in range(1, len(c) + 1)})
    shuffled = [rng.sample(c, len(c)) for c in lists]
    records = tuple(clique_record(design, members) for members in shuffled)
    assert census_of(monkeypatch, design, shuffled).records == records
    masks = design.block_masks
    built = set()
    for at in rng.sample(range(len(lists)), len(lists)):
        clique = lists[at]
        if len(clique) < 2:
            continue
        prefix = clique[:-1]
        bad = {"repeated": (*clique, clique[-1]), "out of range": (*prefix, design.b)}
        # every pair in the prefix meets, so the first disjoint pair is (p, j)
        for j in range(prefix[-1] + 1, design.b):
            if j not in clique and any(not masks[p] & masks[j] for p in prefix):
                bad["do not intersect"] = (*prefix, j)
                break
        for kind, members in bad.items():
            expected = one_clique_error(design, members)
            assert kind in expected
            failing = [*shuffled[:at + 1], rng.sample(members, len(members))]
            with pytest.raises(ValueError) as exc:
                census_of(monkeypatch, design, failing)
            assert str(exc.value) == expected
            built.add(kind)
        if len(built) == 3:
            break
    return built


@pytest.mark.parametrize("name", ["ag23", "main66"])
def test_census_pass_matches_one_clique_path(monkeypatch, name):
    design = builtin_design(name)
    cliques = enumerate_maximum_cliques(build_block_graph(design))
    built = assert_census_pass_matches_one_clique_path(monkeypatch, design, cliques, Random(5))
    assert built == {"repeated", "out of range", "do not intersect"}


def test_random_blocklists_census_pass_matches_one_clique_path(monkeypatch):
    rng = Random(7)
    built = set()
    for design in random_blocklists():
        cliques = powerset_cliques(build_block_graph(design))
        built |= assert_census_pass_matches_one_clique_path(monkeypatch, design, cliques, rng)
    assert built == {"repeated", "out of range", "do not intersect"}


# ---------------------------------------------------------------------------
# records share what depends only on the clique's shape


def test_ag25_records_share_one_shape_object_per_shape():
    """AG(2,5)'s 15,600 non-canonical cliques (six lines, one per parallel
    class, not all through one point) come in five shapes, and the records
    of one shape hold one ``CliqueShape`` object; its 25 canonical cliques
    (the six lines through a point) hold one more."""
    design = parse_design(point_line_blocklist("affine", 2, 5))
    records = census_report(design).records
    canonical = [r for r in records if r.witness is not None]
    noncanonical = [r for r in records if r.witness is None]
    assert (len(canonical), len(noncanonical)) == (25, 15600)
    assert len({id(r.shape) for r in canonical}) == 1
    assert canonical[0].shape.kind == "canonical"
    shapes = {}
    for rec in noncanonical:
        assert rec.shape.kind == "non-canonical"
        counts = Counter(p for i in rec.members for p in design.blocks[i])
        core = {p for p, c in counts.items() if c >= 2}
        sizes = frozenset(len(core.intersection(design.blocks[i])) for i in rec.members)
        shapes.setdefault((len(counts), len(core), sizes), set()).add(id(rec.shape))
    assert len(shapes) == 5
    assert all(len(ids) == 1 for ids in shapes.values())
    assert len({id(r.shape) for r in noncanonical}) == 5


# For each shape field, two cliques (blocks, design m) that differ in that
# field alone and whose shape-built record fields differ.  Every block has m
# points, so the pair sum k m(m-1) and m vary with no field alone.  No pair
# differs in the core sizes alone: with no pair covered twice, a core that
# carries a 2-design is a projective plane (its blocks meet pairwise), and
# a clique with the same k, support and core has the same core sizes.
ONE_FIELD_APART = {
    # the Fano plane against six of its lines: each point still on two
    "k": ((FANO, 3), (FANO[:6], 3)),
    # cores of 4 points in supports of 5 and 6
    "support": ((((0, 1, 3), (0, 3, 4), (2, 3, 4), (0, 1, 4)), 3),
                (((0, 3, 5), (0, 3, 4), (2, 4, 5), (1, 4, 5)), 3)),
    # supports of 5 points, cores of 4 and 3
    "core": ((((0, 1, 3), (0, 1, 2), (2, 3, 4)), 3),
             (((1, 2, 4), (0, 3, 4), (2, 3, 4)), 3)),
    # the Fano plane with a line swapped for a triple meeting three lines twice
    "twice": ((FANO, 3), (FANO[:6] + ((0, 1, 3),), 3)),
}


def hand_built(blocks, m):
    """A Design straight from integer blocks of m points each."""
    blocks = tuple(sorted({tuple(sorted(blk)) for blk in blocks}))
    n = 1 + max(p for blk in blocks for p in blk)
    return Design(n, m, tuple(f"p{p}" for p in range(n)), blocks)


def reference_shape(design, members):
    blocks = [set(design.blocks[i]) for i in members]
    core = set(reference_core(design, members)[0])
    return {
        "k": len(members),
        "support": len(reference_support(design, members)),
        "core": len(core),
        "core sizes": {len(blk & core) for blk in blocks},
        "twice": any(len(x & y) >= 2 for x, y in combinations(blocks, 2)),
    }


@pytest.mark.parametrize("field", ONE_FIELD_APART)
def test_cliques_one_shape_field_apart(field):
    pair = ONE_FIELD_APART[field]
    blocklist = pair[0][0] + pair[1][0]  # both cliques in one blocklist
    shapes, records = [], []
    for blocks, m in pair:
        design = hand_built(blocklist, m)
        members = tuple(design.blocks.index(tuple(sorted(blk))) for blk in blocks)
        assert_public_functions_match(design, members)
        shapes.append(reference_shape(design, members))
        records.append(clique_record(design, members).shape[1:])  # all but the kind
    assert [f for f in shapes[0] if shapes[0][f] != shapes[1][f]] == [field]
    assert records[0] != records[1]


def reach_designs():
    """Every builtin, PG(3,2), AG(3,3), the random 3-uniform blocklists
    (blocks may share two points) and the hand-built designs above."""
    yield from map(builtin_design, BUILTIN_NAMES)
    yield parse_design(point_line_blocklist("projective", 3, 2))
    yield parse_design(point_line_blocklist("affine", 3, 3))
    yield from random_blocklists()
    for (blocks, m), (other, _) in ONE_FIELD_APART.values():
        yield hand_built(blocks + other, m)


def test_reach_rows_match_pairwise_references():
    # the block-graph rows are the blocks meeting a block, its own bit
    # cleared (the clique check sets it); twice rows by a literal scan
    doubled = 0
    for design in reach_designs():
        masks = design.block_masks
        through, rows, twice = design.reach
        assert rows == reference_rows(design)
        assert twice == tuple(
            sum(1 << j for j in range(design.b) if j != i and (masks[i] & masks[j]).bit_count() >= 2)
            for i in range(design.b)
        )
        assert through == tuple(
            sum(1 << i for i, blk in enumerate(design.blocks) if p in blk) for p in range(design.n)
        )
        graph = build_block_graph(design)
        assert graph == (design.b, rows) and graph.rows is rows  # shared, not copied
        doubled += any(twice)
    assert doubled > 0


def test_core_restriction_with_repeated_members():
    # a member list with a repeated block is not a clique: core_restriction
    # and point_multiplicity_profile raise clique_record's error, before any
    # index is checked against the range, and whether the members come as a
    # tuple or as a one-shot iterator
    design = hand_built(FANO, 3)
    for members in [(0, 1, 2, 3, 4, 5, 5), (0, 0), (5, 2, 6, 5), (9, 9, 0), (0, 7, 0)]:
        for helper in (core_restriction, point_multiplicity_profile, clique_record):
            for given in (members, iter(members)):
                with pytest.raises(ValueError, match="^repeated block index in clique$"):
                    helper(design, given)


def near_pencil(n):
    """One block on points 1..n-1 and the n - 1 pairs joining point 0 to
    it: every pair of the n points is covered once."""
    return (tuple(range(1, n)),) + tuple((0, p) for p in range(1, n))


def near_pencil_design(n, blocks):
    labels = [f"p{p}" for p in range(n)]
    return make_design(labels, [[labels[p] for p in blk] for blk in blocks])


def test_subdesign_requires_blocks_of_size_m():
    # the near-pencil on 7 points covers each pair once with b(7,3) = 7
    # blocks, but its blocks have two sizes, so no Design holds it and no
    # clique of one gets a verdict; the Fano plane's 7 lines of 3 points do
    with pytest.raises(ValueError, match=r"^blocks of unequal size: \[2, 6\]$"):
        near_pencil_design(7, near_pencil(7))
    text = "\n".join(" ".join(f"p{p}" for p in blk) for blk in near_pencil(7))
    with pytest.raises(ValueError, match=r"^blocks of unequal size: \[2, 6\]$"):
        parse_design(text)
    assert subdesign_test(near_pencil_design(7, FANO), range(7)).is_design


@pytest.mark.parametrize("n", range(3, 9))
def test_near_pencil_cliques_match_references(n):
    # past n = 3 a near-pencil's blocks have two sizes and no Design holds
    # them; its blocks of m points, for each m, form one (the pencil of
    # pairs through point 0, the long line, or at n = 3 the whole triangle),
    # and every subset of them is a clique
    if n > 3:
        with pytest.raises(ValueError, match="^blocks of unequal size"):
            near_pencil_design(n, near_pencil(n))
    parts = 0
    for m in range(2, n):
        blocks = [blk for blk in near_pencil(n) if len(blk) == m]
        if blocks:
            design = near_pencil_design(n, blocks)
            assert design.m == m
            for members in powerset_cliques(build_block_graph(design)):
                assert_public_functions_match(design, members)
            parts += 1
    assert parts == (1 if n == 3 else 2)
