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
from blockgraph.cliques import Classification, SubdesignVerdict, clique_record
from blockgraph.design import Design, admissibility, make_design, parse_design, validate_2design
from blockgraph.graph import DegenerateGraphError

from conftest import point_line_blocklist, powerset_cliques, random_blocklists


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
    return SubdesignVerdict(ns, params, coverage_ok, is_design)


def reference_rows(design):
    masks = design.block_masks
    return tuple(
        sum(1 << j for j in range(design.b) if j != i and masks[i] & masks[j])
        for i in range(design.b)
    )


def assert_public_functions_match(design, members):
    core, restricted, params, _ = reference_core(design, members)
    verdict = reference_verdict(design, members)
    assert classify_clique(design, members) == reference_classification(design, members)
    assert tuple(point_multiplicity_profile(design, members)) == reference_support(design, members)
    assert point_multiplicity_profile(design, members) == reference_profile(design, members)
    got = core_restriction(design, members)
    assert (got.core_points, got.restricted_blocks, got.restricted_params) == (
        core, restricted, params
    )
    assert subdesign_test(design, members) == verdict
    rec = clique_record(design, members)
    assert rec.members == tuple(sorted(members))
    assert rec.classification == reference_classification(design, members)
    assert rec.support_size == verdict.support_size
    assert rec.core_size == len(core)
    assert rec.restricted_params == params
    assert rec.subdesign == verdict


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
        core, _, params, _ = reference_core(design, rec.members)
        verdict = reference_verdict(design, rec.members)
        assert rec.classification == reference_classification(design, rec.members)
        assert rec.support_size == verdict.support_size
        assert rec.core_size == len(core)
        assert rec.restricted_params == params
        assert rec.subdesign == verdict
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


def test_ag25_noncanonical_records_share_verdicts_and_classification():
    """AG(2,5)'s 15,600 non-canonical cliques (six lines, one per parallel
    class, not all through one point) come in five shapes; the records of
    one shape share one verdict, and all share one classification."""
    design = parse_design(point_line_blocklist("affine", 2, 5))
    noncanonical = [r for r in census_report(design).records if not r.classification.canonical]
    assert len(noncanonical) == 15600
    assert len({id(r.classification) for r in noncanonical}) == 1
    verdicts = {}
    for rec in noncanonical:
        counts = Counter(p for i in rec.members for p in design.blocks[i])
        core = {p for p, c in counts.items() if c >= 2}
        sizes = frozenset(len(core.intersection(design.blocks[i])) for i in rec.members)
        verdicts.setdefault((len(counts), len(core), sizes), set()).add(id(rec.subdesign))
    assert len(verdicts) == 5
    assert all(len(ids) == 1 for ids in verdicts.values())


def near_pencil(n):
    """One block on points 1..n-1 and the n - 1 pairs joining point 0 to
    it: every pair of the n points is covered once."""
    return (tuple(range(1, n)),) + tuple((0, p) for p in range(1, n))


FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
NEAR_PENCIL = near_pencil(7)

# For each shape field, two cliques (blocks, design m) that differ in that
# field alone and whose shape-built record fields differ.  Blocks may have
# any sizes: a hand-built blocklist need not be uniform.  Whether the blocks
# all have m points is no field: where every other test of a design holds,
# it holds iff the core sizes are {m} (the near-pencil tests below).
ONE_FIELD_APART = {
    # the Fano lines, three with a point of their own, against six of them,
    # one with three points of its own: only the first core is 2-(7,3,1)
    "k": ((((0, 1, 2, 7), (0, 3, 4, 8), (0, 5, 6, 9)) + FANO[3:], 3),
          (FANO[:5] + ((2, 3, 6, 10, 11, 12),), 3)),
    "support": ((((0, 1), (0, 2), (0, 1, 2, 3, 4)), 3),
                (((0, 1, 2), (0, 1, 3), (0, 2, 4, 5)), 3)),
    "core": ((((0, 1), (0, 1, 2), (0, 2, 3)), 3),
             (((0, 1), (0, 2, 3), (1, 2, 3)), 3)),
    "core sizes": ((FANO, 3), (NEAR_PENCIL, 3)),
    # the Fano plane with a line swapped for a triple meeting three lines twice
    "twice": ((FANO, 3), (FANO[:6] + ((0, 1, 3),), 3)),
    # a one-point block lets the pair counts alone decide the coverage
    "pairs": ((((0,), (0, 1, 2, 3)), 2), (((0, 1), (0, 2, 3)), 2)),
    "m": ((FANO, 3), (FANO, 2)),
}


def hand_built(blocks, m):
    """A Design straight from integer blocks, of any sizes."""
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
        "pairs": sum(len(blk) * (len(blk) - 1) for blk in blocks),
        "m": design.m,
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
        records.append(clique_record(design, members)[2:])
    assert [f for f in shapes[0] if shapes[0][f] != shapes[1][f]] == [field]
    assert records[0] != records[1]


def reach_designs():
    """Every builtin, PG(3,2), AG(3,3), the random 3-uniform blocklists
    (blocks may share two points) and the hand-built designs above (blocks
    of unequal sizes)."""
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


def test_subdesign_requires_blocks_of_size_m():
    # the near-pencil on 7 points covers each pair once with b(7,3) = 7 blocks
    verdict = subdesign_test(hand_built(NEAR_PENCIL, 3), range(7))
    assert verdict.pair_coverage_ok and verdict.candidate_params.admissible
    assert not verdict.is_design
    assert subdesign_test(hand_built(FANO, 3), range(7)).is_design


@pytest.mark.parametrize("n", range(3, 9))
def test_near_pencil_cliques_match_references(n):
    # every subset of a near-pencil's blocks is a clique, of blocks of two sizes
    for m in range(2, n):
        design = hand_built(near_pencil(n), m)
        for members in powerset_cliques(build_block_graph(design)):
            assert_public_functions_match(design, members)
