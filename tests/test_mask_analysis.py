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

import pytest

from blockgraph import (
    build_block_graph,
    builtin_design,
    census_report,
    classify_clique,
    clique_support,
    core_restriction,
    enumerate_maximum_cliques,
    point_multiplicity_profile,
    subdesign_test,
)
from blockgraph.cliques import Classification, SubdesignVerdict, clique_record
from blockgraph.design import admissibility, make_design, validate_2design

from conftest import random_blocklists


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


def reference_verdict(design, members):
    support = tuple(sorted({p for i in members for p in design.blocks[i]}))
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
    )
    return SubdesignVerdict(support, ns, params, coverage_ok, is_design)


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
    assert clique_support(design, members) == verdict.support
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


def powerset_cliques(graph):
    """Every non-empty vertex subset that is a clique."""
    return [
        members
        for mask in range(1, 1 << graph.v)
        for members in [tuple(v for v in range(graph.v) if mask >> v & 1)]
        if all(graph.adjacent(a, b) for a, b in combinations(members, 2))
    ]


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
        for size in range(1, largest + 1):
            assert enumerate_maximum_cliques(graph, size=size) == sorted(
                c for c in cliques if len(c) == size
            )
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
