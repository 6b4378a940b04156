"""The structured and text renderers against their references.

``render_structured`` writes each clique record from a frame shared by every
record of the same shape, without encoding the document as a whole.  These
tests pin its output to ``json.dumps(report_document(r), sort_keys=True,
indent=2) + "\\n"`` on every kind of report: the paper designs with group
and automorphism sections, geometric designs up to AG(2,5)'s 15,625
records, degenerate designs, labels that need escaping, random blocklists
with every clique of every size, and records whose shapes differ in one
field at a time.  ``render_text`` builds each non-canonical line's tail once
per shape; ``reference_text`` below writes every line field by field.
"""

import json
import os

import pytest

from blockgraph import (
    build_block_graph,
    builtin_design,
    census_report,
    classify_clique,
    core_restriction,
    parse_design,
    subdesign_test,
)
from blockgraph import report as report_module
from blockgraph.cliques import Classification, CliqueCensus, CliqueRecord, SubdesignVerdict
from blockgraph.design import DesignParameters, admissibility, validate_2design
from blockgraph.report import (
    AnalysisReport,
    automorphism_section,
    build_report,
    builtin_generators,
    lift_to_design_automorphism,
    render_structured,
    render_text,
    report_document,
)

from conftest import point_line_blocklist, powerset_cliques, random_blocklists


def assert_same_text(renderer, report, expected):
    actual = renderer(report)
    if actual != expected:
        # point at the first difference; a full diff of megabytes takes minutes
        at = len(os.path.commonprefix([actual, expected]))
        pytest.fail(
            f"{renderer.__name__} differs from the reference at offset {at}: "
            f"{actual[max(at - 80, 0):at + 80]!r} != {expected[max(at - 80, 0):at + 80]!r}"
        )


def assert_renders_like_reference(report):
    expected = json.dumps(report_document(report), sort_keys=True, indent=2) + "\n"
    assert_same_text(render_structured, report, expected)


def reference_text(report):
    """The text report written field by field, every record on its own."""
    census, validation = report.census, report.validation
    design = census.design
    p = validation.params
    r = None if p is None else int(p.r) if p.r_integral else str(p.r)
    lines = [
        f"{design.name or 'design'}: 2-({design.n},{design.m},1) with "
        f"{design.b} blocks, replication {'undefined' if r is None else r}, "
        f"{'valid' if validation.valid else 'INVALID'}"
    ]
    if not validation.valid:
        for v in validation.violations[:10]:
            lines.append(f"  violation: {v.kind} {v.subject} count={v.count} expected={v.expected}")
        if validation.violation_count > 10:
            lines.append(f"  ... {validation.violation_count - 10} more")
    s = census.srg
    if s is None:
        lines.append(f"block graph: degenerate ({census.degenerate})")
    elif s.s_eig is None:
        lines.append(f"block graph: srg{s.as_tuple()} with irrational eigenvalues")
    else:
        lines.append(f"block graph: srg{s.as_tuple()} with eigenvalues {s.r_eig} and {s.s_eig}")
        lines.append(f"delsarte bound: {census.delsarte}")
    lines.append(f"clique number: {census.clique_number}")
    canonical = sum(rec.classification.kind == "canonical" for rec in census.records)
    lines.append(
        f"maximum cliques: {len(census.records)} = {canonical} canonical + "
        f"{len(census.records) - canonical} non-canonical"
    )
    for rec in census.records:
        if rec.classification.kind == "canonical":
            continue
        core = rec.restricted_params
        lines.append(
            f"  non-canonical {list(rec.members)}: support {rec.support_size}, "
            f"core {rec.core_size}{'' if core is None else f' forming 2-({core.n},{core.m},1)'}, "
            f"subdesign {'yes' if rec.subdesign.is_design else 'no'}"
        )
    if (g := report.group) is not None:
        lines += [
            f"group ({g.source}): order {g.order}, {'abelian' if g.abelian else 'nonabelian'}",
            f"  point orbit lengths: {list(g.point_orbit_lengths)}",
            f"  block orbit lengths: {list(g.block_orbit_lengths)}",
            f"  canonical clique orbit lengths: {list(g.canonical_clique_orbit_lengths)}",
            f"  non-canonical clique orbit lengths: {list(g.noncanonical_clique_orbit_lengths)}",
        ]
    if (a := report.automorphisms) is not None:
        lines.append(
            f"graph automorphism group: order {a.order} ({a.generator_count} generators), "
            f"equals induced design group: {'yes' if a.equals_design_group else 'NO'}"
        )
    return "\n".join(lines) + "\n"


def plain_report(census):
    return AnalysisReport(census, validate_2design(census.design), None, None)


# AG(2,3) relabelled with points that json.dumps must escape; the name too
ODD_LABELS = ('a"', "b\\", "é", "𝔽", "\t", " ", "p", "q", "r")


@pytest.fixture(scope="module")
def odd_design():
    plain = parse_design(point_line_blocklist("affine", 2, 3))
    relabel = dict(zip(plain.labels, ODD_LABELS))
    doc = {
        "n": 9,
        "m": 3,
        "lambda": 1,
        "labels": list(ODD_LABELS),
        "blocks": [[relabel[t] for t in plain.block_tokens(i)] for i in range(plain.b)],
    }
    return parse_design(json.dumps(doc), "json", name='q"\\é')


@pytest.mark.parametrize("name", ["main66", "appendixA66", "appendixB66"])
def test_paper_designs_with_group_and_aut(name):
    design = builtin_design(name)
    generators = builtin_generators(design, name)
    if not generators:
        # only main66 embeds generators; lift the graph group's instead
        _, group = automorphism_section(design, census_report(design))
        generators = [lift_to_design_automorphism(design, g) for g in group.generators]
    report = build_report(design, generators, "design generators", include_aut=True)
    assert report.group is not None and report.automorphisms is not None
    assert report.census.total == 80
    assert_renders_like_reference(report)


@pytest.mark.parametrize("name", ["fano", "ag23", "pg23"])
def test_small_builtins_with_aut(name):
    report = build_report(builtin_design(name), include_aut=True)
    assert report.automorphisms is not None
    assert_renders_like_reference(report)


@pytest.mark.parametrize(
    "family, d, p, records",
    [("projective", 3, 2, 30), ("affine", 3, 3, 27), ("affine", 2, 5, 15625)],
)
def test_geometric_designs(family, d, p, records):
    design = parse_design(point_line_blocklist(family, d, p), name=f"{family}{d}{p}")
    report = build_report(design)
    assert report.census.total == records
    assert_renders_like_reference(report)


@pytest.mark.parametrize("text, records, aut", [("", 0, False), ("a b c\n", 1, True)])
def test_empty_and_one_block_designs(text, records, aut):
    report = build_report(parse_design(text, name="tiny"), include_aut=aut)
    assert report.census.total == records
    assert_renders_like_reference(report)


def test_labels_and_name_that_need_escaping(odd_design):
    report = build_report(odd_design, include_aut=True)
    # one star per point, and 81 - 9 transversals of the four parallel classes
    assert (report.census.total, report.census.canonical_count) == (81, 9)
    assert_renders_like_reference(report)
    doc = json.loads(render_structured(report))
    assert doc["design"]["name"] == 'q"\\é'
    assert {rec["witness"] for rec in doc["cliques"]["records"]} == {*ODD_LABELS, None}


def test_random_blocklists_every_clique():
    """Records for every clique of every size, pair-twice cases included."""
    shapes = set()
    for design in random_blocklists():
        graph = build_block_graph(design)
        records = []
        cliques = sorted(powerset_cliques(graph), key=lambda c: (len(c), c))
        for members in cliques:
            core = core_restriction(design, members)
            verdict = subdesign_test(design, members)
            records.append(
                CliqueRecord(
                    members=members,
                    classification=classify_clique(design, members),
                    support_size=verdict.support_size,
                    core_size=len(core.core_points),
                    restricted_params=core.restricted_params,
                    subdesign=verdict,
                )
            )
        size = len(cliques[-1])
        census = CliqueCensus(design, graph, None, "not checked", None, size, tuple(records))
        report = plain_report(census)
        assert_renders_like_reference(report)
        for rec in report_document(report)["cliques"]["records"]:
            del rec["members"], rec["witness"]
            shapes.add(json.dumps(rec, sort_keys=True))
    assert len(shapes) >= 30  # many record shapes, so many frames


def test_records_differing_in_one_shape_field(odd_design):
    """Each shape field on its own must select a different frame."""
    census = census_report(odd_design)
    base = census.records[0]
    sub = base.subdesign

    def verdict(**change):
        return base._replace(subdesign=sub._replace(**change))

    variants = [
        base._replace(classification=Classification("non-canonical", None)),
        base._replace(support_size=base.support_size + 1),
        base._replace(core_size=base.core_size + 1),
        base._replace(restricted_params=admissibility(13, 4)),
        base._replace(restricted_params=admissibility(13, 3)),
        verdict(candidate_params=admissibility(7, 3)),
        verdict(candidate_params=admissibility(8, 3)),
        verdict(pair_coverage_ok=not sub.pair_coverage_ok),
        verdict(is_design=not sub.is_design),
        base._replace(members=()),
        base._replace(members=(base.members[0],)),
    ]
    records = [base]
    for variant in variants:
        records += [variant, base]
    report = plain_report(census._replace(records=tuple(records)))
    assert_renders_like_reference(report)


def test_equal_values_in_distinct_objects():
    """Frames are keyed by the identities of a record's core design and
    verdict; records holding equal values in distinct objects (copies,
    ``_replace``) render like the reference too."""
    census = census_report(builtin_design("main66"))
    records = []
    for k, rec in enumerate(census.records):
        if k % 2:
            sub, core = rec.subdesign, rec.restricted_params
            params = sub.candidate_params
            copy = rec._replace(
                classification=Classification(*rec.classification),
                restricted_params=None if core is None else DesignParameters(*core),
                subdesign=SubdesignVerdict(*sub)._replace(
                    candidate_params=None if params is None else DesignParameters(*params)
                ),
            )
            assert copy == rec and copy.subdesign is not rec.subdesign
            rec = copy
        records.append(rec)
    assert any(rec.restricted_params is not None for rec in records[1::2])
    assert_renders_like_reference(plain_report(census._replace(records=tuple(records))))


def test_ag25_renders_one_frame_per_shape(monkeypatch):
    calls = []
    frame = report_module._record_frame
    monkeypatch.setattr(report_module, "_record_frame",
                        lambda *args: calls.append(args) or frame(*args))
    report = build_report(parse_design(point_line_blocklist("affine", 2, 5)))
    render_structured(report)
    assert len(calls) == 6  # the canonical shape and five non-canonical ones


def test_text_renders_like_reference(odd_design):
    main66 = builtin_design("main66")
    reports = [
        build_report(main66, builtin_generators(main66, "main66"), "design generators",
                     include_aut=True),
        build_report(parse_design(point_line_blocklist("affine", 2, 5), name="AG(2,5)")),
        build_report(odd_design, include_aut=True),
    ]
    assert [r.census.noncanonical_count for r in reports] == [14, 15600, 72]
    for report in reports:
        assert_same_text(render_text, report, reference_text(report))


def test_text_tails_follow_every_shape_field(odd_design):
    """One-field variants and equal values in distinct objects: each tail
    is keyed by what it shows, never shared across differing records."""
    census = census_report(odd_design)
    base = next(rec for rec in census.records if not rec.classification.canonical)
    sub = base.subdesign
    variants = [
        base._replace(support_size=base.support_size + 1),
        base._replace(core_size=base.core_size + 1),
        base._replace(restricted_params=admissibility(13, 4)),
        base._replace(subdesign=sub._replace(is_design=not sub.is_design)),
        base._replace(subdesign=SubdesignVerdict(*sub)),
        base._replace(members=()),
    ]
    records = [base]
    for variant in variants:
        records += [variant, base]
    report = plain_report(census._replace(records=tuple(records)))
    assert_same_text(render_text, report, reference_text(report))
