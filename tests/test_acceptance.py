"""Acceptance suite: each test is one exit criterion, checked exactly.

Every expected number here comes either from the analysed design's published
data or from an independent oracle computed inside the test (powerset scans,
plain DFS clique enumeration, direct recounts).  A summary line per
criterion is printed at the end of the run (see conftest).
"""

import random
import time
from itertools import combinations

import pytest

from blockgraph import (
    ResidueSet,
    admissibility,
    build_block_graph,
    builtin_design,
    classify_clique,
    close_group,
    clique_number,
    core_restriction,
    delsarte_bound,
    develop_base_blocks,
    difference_multiset,
    enumerate_maximum_cliques,
    gm_threshold,
    graph_automorphism_group,
    induced_block_action,
    induced_clique_action,
    is_design_automorphism,
    orbit_clique_certificate,
    orbit_partition,
    point_multiplicity_profile,
    srg_from_design_params,
    squares_mod,
    validate_2design,
)
from blockgraph.autgroup import SearchBudgetExceeded
from blockgraph.catalog import APPENDIX_REPRESENTATIVE_CLIQUES, BASE_BLOCKS
from blockgraph.cli import main as cli_main
from blockgraph.points import parse_block
from blockgraph.report import lift_to_design_automorphism
from blockgraph.theory import denniston_params, nonsquares_mod, projective_params

from conftest import TWO_FIBRE_BLOCK, members_from_tokens, same_group


def powerset_maximum_cliques(graph):
    best, best_size = [], 0
    for mask in range(1, 1 << graph.v):
        members = [v for v in range(graph.v) if mask >> v & 1]
        if len(members) < best_size:
            continue
        if all(graph.adjacent(a, b) for a, b in combinations(members, 2)):
            if len(members) > best_size:
                best_size, best = len(members), []
            best.append(tuple(members))
    return sorted(best)


def dfs_maximum_cliques(graph):
    """Enumerate every clique by ordered extension; keep the largest ones."""
    neighbours = [
        frozenset(u for u in range(graph.v) if graph.adjacent(v, u))
        for v in range(graph.v)
    ]
    found = []
    best = 0

    def extend(clique, candidates):
        nonlocal best, found
        for v in sorted(candidates):
            new = clique + (v,)
            if len(new) > best:
                best, found = len(new), []
            if len(new) == best:
                found.append(new)
            extend(new, candidates & neighbours[v] & frozenset(range(v + 1, graph.v)))

    extend((), frozenset(range(graph.v)))
    return sorted(found)


def test_criterion_01_construction():
    design = develop_base_blocks([parse_block(b) for b in BASE_BLOCKS])
    assert design.b == 143
    assert (design.n, design.m, design.lam) == (66, 6, 1)
    report = validate_2design(design)
    assert report.valid
    assert int(report.params.r) == 13
    assert report.violations == ()


def test_criterion_02_srg_verification(main66_census):
    srg = main66_census.srg  # produced by the exhaustive pair-by-pair check
    assert srg is not None
    assert srg.as_tuple() == (143, 72, 36, 36)
    assert srg.s_eig == -6
    assert srg == srg_from_design_params(66, 6)
    assert main66_census.delsarte == 13 == delsarte_bound(srg)


def test_criterion_03_maximum_clique_census(main66):
    graph = build_block_graph(main66)
    started = time.monotonic()
    cliques = enumerate_maximum_cliques(graph)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    assert len(cliques) == 80
    assert all(len(c) == 13 for c in cliques)
    flags = [classify_clique(main66, c).canonical for c in cliques]
    assert sum(flags) == 66
    assert len(flags) - sum(flags) == 14


def test_criterion_04_noncanonical_structure(main66, main66_census):
    noncanon = [
        r for r in main66_census.records if not r.classification.canonical
    ]
    assert len(noncanon) == 14
    assert all(not r.subdesign.is_design for r in noncanon)

    c1_type = [r for r in noncanon if r.support_size == 39]
    assert len(c1_type) == 13
    assert not admissibility(39, 6).r_integral
    for r in c1_type:
        assert not r.subdesign.candidate_params.admissible
        assert r.core_size == 13
        core = core_restriction(main66, r.members)
        assert core.restricted_params is not None
        assert (core.restricted_params.n, core.restricted_params.m) == (13, 4)

    c2_type = [r for r in noncanon if r.support_size == 26]
    assert len(c2_type) == 1
    assert admissibility(26, 6).r_integral and not admissibility(26, 6).b_integral
    assert not c2_type[0].subdesign.candidate_params.admissible
    profile = point_multiplicity_profile(main66, c2_type[0].members)
    assert len(profile) == 26
    assert set(profile.values()) == {3}


def test_criterion_05_group_data(main66, main66_census, main66_generators):
    group = close_group(main66_generators)
    assert group.order == 39
    assert not group.abelian
    # design automorphisms are closed under composition: the generators suffice
    assert all(is_design_automorphism(main66, g) for g in group.generators)

    assert sorted(orbit_partition(group.generators).lengths, reverse=True) == [39, 13, 13, 1]
    block_actions = [induced_block_action(main66, g) for g in group.generators]
    assert sorted(orbit_partition(block_actions).lengths, reverse=True) == [39, 39, 39, 13, 13]

    canonical = [r.members for r in main66_census.records if r.classification.canonical]
    noncanonical = [r.members for r in main66_census.records if not r.classification.canonical]
    canon_orbits = orbit_partition(
        [induced_clique_action(bp, canonical) for bp in block_actions]
    )
    assert sorted(canon_orbits.lengths, reverse=True) == [39, 13, 13, 1]
    nc_orbits = orbit_partition(
        [induced_clique_action(bp, noncanonical) for bp in block_actions]
    )
    assert sorted(nc_orbits.lengths, reverse=True) == [13, 1]


def test_criterion_06_full_automorphism_search(
    main66, main66_census, main66_generators, appendix_a, appendix_a_census,
    appendix_b, appendix_b_census,
):
    for design, census in (
        (main66, main66_census),
        (appendix_a, appendix_a_census),
        (appendix_b, appendix_b_census),
    ):
        cliques = [r.members for r in census.records]
        group = graph_automorphism_group(census.graph, cliques=cliques)
        assert group.order == 39
        # equals the induced design group: every element lifts to a design
        # automorphism, and design groups embed injectively into graph groups
        assert all(
            lift_to_design_automorphism(design, g) is not None
            for g in group.generators
        )
    # the main design's group is independently known; compare the groups
    induced = close_group([induced_block_action(main66, g) for g in main66_generators])
    graph_group = graph_automorphism_group(
        main66_census.graph, cliques=[r.members for r in main66_census.records]
    )
    assert same_group(induced, graph_group)
    # configurable budget: exhaustion raises, and the CLI maps it to exit 1
    with pytest.raises(SearchBudgetExceeded):
        graph_automorphism_group(
            main66_census.graph,
            cliques=[r.members for r in main66_census.records],
            node_limit=1,
        )
    assert cli_main(["aut", "--builtin", "main66", "--node-limit", "1"]) == 1


def test_criterion_07_appendix_designs(
    appendix_a, appendix_a_census, appendix_b, appendix_b_census
):
    for name, design, census in (
        ("appendixA66", appendix_a, appendix_a_census),
        ("appendixB66", appendix_b, appendix_b_census),
    ):
        report = validate_2design(design)
        assert report.valid
        assert (design.n, design.m, design.b) == (66, 6, 143)
        assert census.canonical_count == 66
        assert census.noncanonical_count == 14
        token_blocks, expected_core = APPENDIX_REPRESENTATIVE_CLIQUES[name]
        members = members_from_tokens(design, token_blocks)
        assert members in {r.members for r in census.records}
        assert not classify_clique(design, members).canonical
        core = core_restriction(design, members)
        core_tokens = sorted(design.labels[p] for p in core.core_points)
        assert core_tokens == sorted(expected_core)
        assert len(core.core_points) == 13
        assert core.restricted_params is not None
        assert (core.restricted_params.n, core.restricted_params.m) == (13, 4)


def test_criterion_08_difference_set_propositions(main66):
    squares = set(squares_mod(13).elements)
    nonsquares = set(nonsquares_mod(13).elements)

    r_diffs = difference_multiset(ResidueSet.of(13, (2, 5, 6)))
    assert r_diffs[0] == 3
    assert {d for d, c in r_diffs.items() if d != 0} == squares
    assert all(c == 1 for d, c in r_diffs.items() if d != 0)

    two_r_diffs = difference_multiset(ResidueSet.of(13, (4, 10, 12)))
    assert two_r_diffs[0] == 3
    assert {d for d, c in two_r_diffs.items() if d != 0} == nonsquares
    assert all(c == 1 for d, c in two_r_diffs.items() if d != 0)

    cert = orbit_clique_certificate(parse_block(TWO_FIBRE_BLOCK))
    assert cert.pairwise_intersecting
    assert set(cert.shift_totals.values()) == {1}

    # direct pairwise intersection of the 13 developed blocks agrees
    translates = []
    for e in range(13):
        pts = set()
        for tok in TWO_FIBRE_BLOCK.split():
            v, t = tok.split("_")
            pts.add(f"{(int(v) + e) % 13}_{t}")
        translates.append(pts)
    for e1, e2 in combinations(range(13), 2):
        shared = len(translates[e1] & translates[e2])
        assert shared == 1 == cert.shift_totals[(e2 - e1) % 13]
    # and those 13 blocks really are blocks of the design forming a clique
    members = members_from_tokens(main66, [" ".join(sorted(t)) for t in translates])
    assert not classify_clique(main66, members).canonical


def test_criterion_09_oracle_equivalence(main66_census):
    ag23 = builtin_design("ag23")
    graph = build_block_graph(ag23)
    cliques = enumerate_maximum_cliques(graph)
    assert cliques == powerset_maximum_cliques(graph)
    assert len(cliques) == 81
    assert all(len(c) == 4 for c in cliques)
    canonical = sum(1 for c in cliques if classify_clique(ag23, c).canonical)
    assert canonical == 9

    rng = random.Random(66613)
    big = main66_census.graph
    for trial in range(12):
        size = rng.randint(8, 20)
        sub = big.induced(rng.sample(range(big.v), size))
        fast = enumerate_maximum_cliques(sub)
        if size <= 13:
            assert fast == powerset_maximum_cliques(sub)
        assert fast == dfs_maximum_cliques(sub)
        assert clique_number(sub) == len(fast[0])


def test_criterion_10_threshold_arithmetic():
    assert gm_threshold(6) == 156
    assert 66 <= 156  # non-canonical cliques are allowed to exist at 66 points
    for q in (2, 3, 4, 5, 7, 8, 9):
        params = projective_params(3, q)
        assert params.n == gm_threshold(params.m)
    for r in range(2, 12):
        for s in range(r + 1, 13):
            params = denniston_params(r, s)
            assert (s < 2 * r) == (params.n <= gm_threshold(params.m))
