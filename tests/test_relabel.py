"""Relabelling oracle: what the program derives from a design must not
depend on how its points and blocks are indexed.

``relabel`` lists a design's labels and blocks in a seeded random order and
rebuilds it, which moves every dense index and so the search trees of the
clique census and of the automorphism search.  The census's numbers, its
multiset of clique shapes and the block-graph group must come out the same.
"""

from collections import Counter

import pytest

from blockgraph import (
    BUILTIN_NAMES,
    Permutation,
    SrgVerificationError,
    builtin_design,
    census_report,
    is_graph_automorphism,
)
from blockgraph.report import automorphism_section

from conftest import relabel, random_blocklists, steiner_design

SEEDS = range(4)


def census_summary(design):
    """What a census must give on every labelling of a design, or the type
    of the error it raises."""
    try:
        census = census_report(design)
    except SrgVerificationError as exc:
        return type(exc)
    return (
        census.srg, census.degenerate, census.delsarte, census.clique_number,
        census.total, census.canonical_count, census.noncanonical_count,
        Counter(r.shape for r in census.records),
    )


def designs_with_groups(pg32, ag33):
    return [*map(builtin_design, BUILTIN_NAMES), pg32, ag33]


def test_census_does_not_depend_on_the_labelling(pg32, ag33):
    designs = [
        *designs_with_groups(pg32, ag33),
        *(steiner_design(v, seed) for v, seed in ((13, 1), (19, 2), (21, 3))),
        *random_blocklists(),
    ]
    errors = 0
    for design in designs:
        summary = census_summary(design)
        errors += isinstance(summary, type)
        for seed in SEEDS:
            other = relabel(design, seed)
            assert other == design
            assert census_summary(other) == summary, (design.name, seed)
    assert errors > 0  # a random blocklist's block graph need not be an SRG


def block_map(design, other):
    """The permutation taking each block of ``design`` to its index in ``other``."""
    index = {frozenset(other.block_tokens(i)): i for i in range(other.b)}
    return [index[frozenset(design.block_tokens(i))] for i in range(design.b)]


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_group_does_not_depend_on_the_labelling(seed, pg32, ag33):
    # the same order and the same verdict on the design group, and every
    # generator found on the relabelled design, carried back to the
    # original's block indices, is an automorphism of its block graph
    for design in designs_with_groups(pg32, ag33):
        census = census_report(design)
        section, _ = automorphism_section(design, census)
        other = relabel(design, seed)
        other_section, group = automorphism_section(other, census_report(other))
        assert (other_section.order, other_section.equals_design_group) == (
            section.order, section.equals_design_group
        ), (design.name, seed)
        sigma = block_map(design, other)
        back = {j: i for i, j in enumerate(sigma)}
        for g in group.generators:
            carried = Permutation(tuple(back[g.images[j]] for j in sigma))
            assert is_graph_automorphism(census.graph, carried), (design.name, seed)
