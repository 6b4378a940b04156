"""Analysis reports: census + group data, rendered as text or stable JSON.

The structured rendering uses sorted keys and only exact integer/string/bool
fields, so a report is byte-identical across runs.  Its bytes are those of
``json.dumps(report_document(r), sort_keys=True, indent=2)`` plus a newline,
which the tests keep as the reference.  Only the document without its clique
records goes through ``json.dumps``; each record is written into the records
gap from a frame (every field but the members and the witness), with the
members and the ``json.dumps`` of the witness label filled in.  A frame is
rendered from a record's ``CliqueShape``, the one object the census shares
among the records of a shape, and keyed by that object's identity; equal
shapes in distinct objects only add a frame.  The text report keys each
non-canonical line's tail the same way.  The expected values for the three
embedded 66-point designs are versioned here and drive ``--check-paper``.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from typing import NamedTuple

from . import catalog
from .cliques import CliqueCensus, CliqueRecord, CliqueShape, census_report, core_restriction
from .design import Design, ValidationReport, validate_2design
from .perms import (
    OrbitPartition,
    PermGroup,
    Permutation,
    close_group,
    induced_block_action,
    induced_clique_action,
    is_design_automorphism,  # unused here; perfbench/tracing.py wraps this name
    orbit_partition,
    parse_cycles,
)
from .autgroup import DEFAULT_NODE_LIMIT, graph_automorphism_group


class GroupSection(NamedTuple):
    source: str
    order: int
    abelian: bool
    point_orbit_lengths: tuple[int, ...]
    block_orbit_lengths: tuple[int, ...]
    canonical_clique_orbit_lengths: tuple[int, ...]
    noncanonical_clique_orbit_lengths: tuple[int, ...]


class AutSection(NamedTuple):
    order: int
    generator_count: int
    equals_design_group: bool


class AnalysisReport(NamedTuple):
    census: CliqueCensus
    validation: ValidationReport
    group: GroupSection | None
    automorphisms: AutSection | None


def clique_orbits(census: CliqueCensus, block_perms) -> list[tuple[list, OrbitPartition | None]]:
    """(members, orbits under the induced action, or None if no members) of
    the canonical and then the non-canonical maximum cliques."""
    out = []
    for canonical in (True, False):
        members = [r.members for r in census.records if (r.witness is not None) == canonical]
        part = None
        if members:
            part = orbit_partition([induced_clique_action(bp, members) for bp in block_perms])
        out.append((members, part))
    return out


def group_section(
    design: Design, census: CliqueCensus, generators, source: str
) -> GroupSection:
    """Close the generators and compute orbits on points/blocks/cliques.

    Generators must be design automorphisms; the block and clique actions
    are induced from the point action.  The group is abelian exactly when
    its generators commute pairwise.
    """
    group = close_group(generators)
    gens = group.generators
    block_perms = [induced_block_action(design, g) for g in gens]
    canonical, noncanonical = (
        () if part is None else part.lengths for _, part in clique_orbits(census, block_perms)
    )
    return GroupSection(
        source=source,
        order=group.order,
        abelian=all(g.then(h) == h.then(g) for i, g in enumerate(gens) for h in gens[i + 1:]),
        point_orbit_lengths=orbit_partition(gens).lengths,
        block_orbit_lengths=orbit_partition(block_perms).lengths,
        canonical_clique_orbit_lengths=canonical,
        noncanonical_clique_orbit_lengths=noncanonical,
    )


def lift_to_design_automorphism(design: Design, block_perm: Permutation):
    """Point permutation inducing the given block permutation, if one exists.

    Points lying on the same set of blocks (twins) are interchangeable, so
    the points are grouped by that set and each class is mapped, in
    ascending order, onto the class on the image set of blocks.
    """
    through = design.reach[0]
    moved = [0] * design.n
    for blk, image in zip(design.blocks, block_perm.images):
        for p in blk:
            moved[p] |= 1 << image
    classes: dict[int, list[int]] = {}
    for p, blocks in enumerate(through):
        classes.setdefault(blocks, []).append(p)
    images = list(range(design.n))
    for points in classes.values():
        target = classes.get(moved[points[0]], ())
        if len(target) != len(points):
            return None
        for p, q in zip(points, target):
            images[p] = q
    perm = Permutation(tuple(images))
    return perm if induced_block_action(design, perm) == block_perm else None


def automorphism_section(
    design: Design, census: CliqueCensus, node_limit: int = DEFAULT_NODE_LIMIT
) -> tuple[AutSection, PermGroup]:
    """Full block-graph automorphism group plus its design-group comparison.

    ``equals_design_group`` holds when every group element lifts to a design
    automorphism: design automorphisms embed injectively into the graph
    group, so total liftability forces the two groups to coincide.  A
    trivial group holds it vacuously.
    """
    cliques = [r.members for r in census.records]
    group = graph_automorphism_group(census.graph, cliques=cliques, node_limit=node_limit)
    equals = all(lift_to_design_automorphism(design, g) is not None for g in group.generators)
    section = AutSection(group.order, len(group.generators), equals)
    return section, group


def build_report(
    design: Design,
    generators=None,
    generator_source: str = "",
    include_aut: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> AnalysisReport:
    validation = validate_2design(design)
    census = census_report(design)
    group = None
    if generators:
        group = group_section(design, census, generators, generator_source)
    aut = None
    if include_aut:
        aut, _ = automorphism_section(design, census, node_limit)
    return AnalysisReport(census, validation, group, aut)


def builtin_generators(design: Design, name: str) -> list[Permutation]:
    return [
        parse_cycles(text, design.labels)
        for text in catalog.BUILTIN_GENERATORS.get(name, ())
    ]


# ---------------------------------------------------------------------------
# rendering

def _params_dict(validation: ValidationReport) -> dict:
    if validation.params is None:
        return {"replication": None, "block_count": None, "admissible": False}
    p = validation.params
    return {
        "replication": int(p.r) if p.r_integral else str(p.r),
        "block_count": int(p.b) if p.b_integral else str(p.b),
        "admissible": p.admissible,
    }


def _record_fields(rec: CliqueRecord, labels) -> dict:
    shape, witness = rec.shape, rec.witness
    core, params = shape.restricted_params, shape.candidate_params
    return {
        "members": list(rec.members),
        "classification": shape.kind,
        "witness": None if witness is None else labels[witness],
        "support_size": shape.support_size,
        "core_size": shape.core_size,
        "core_design": None if core is None else {"n": core.n, "m": core.m},
        "subdesign": {
            "admissible": bool(params and params.admissible),
            "pair_coverage_ok": shape.pair_coverage_ok,
            "is_design": shape.is_design,
        },
    }


def _skeleton(report: AnalysisReport) -> dict:
    """The structured document with an empty ``records`` list."""
    census = report.census
    design = census.design
    return {
        "design": {
            "name": design.name,
            "n": design.n,
            "m": design.m,
            "lambda": 1,
            "blocks": design.b,
            "valid": report.validation.valid,
            **_params_dict(report.validation),
        },
        "srg": None
        if census.srg is None
        else {
            "v": census.srg.v,
            "k": census.srg.k,
            "lambda": census.srg.lambda_param,
            "mu": census.srg.mu,
            "r_eig": census.srg.r_eig,
            "s_eig": census.srg.s_eig,
        },
        "degenerate": census.degenerate,
        "delsarte_bound": census.delsarte,
        "clique_number": census.clique_number,
        "cliques": {
            "total": census.total,
            "canonical": census.canonical_count,
            "noncanonical": census.noncanonical_count,
            "records": [],
        },
        "group": None if report.group is None else report.group._asdict(),
        "automorphisms": None if report.automorphisms is None else report.automorphisms._asdict(),
    }


def report_document(report: AnalysisReport) -> dict:
    """The report as a plain dict of exact values (the structured schema)."""
    doc = _skeleton(report)
    labels = report.census.design.labels
    doc["cliques"]["records"] = [_record_fields(r, labels) for r in report.census.records]
    return doc


# Layout of json.dumps(..., sort_keys=True, indent=2) around the records:
# the records list sits at depth 2, each record at depth 3, members at depth 4.
_RECORDS_GAP = '\n    "records": []'
_RECORD_BREAK = "\n      "
_MEMBER_BREAK = "\n          "


def _record_frame(shape: CliqueShape) -> tuple[str, str, str]:
    """The JSON of a record of this shape, split around its members and its
    witness, the two fields a shape leaves open."""
    fields = _record_fields(CliqueRecord((), None, shape), ())
    text = json.dumps(fields, sort_keys=True, indent=2).replace("\n", _RECORD_BREAK)
    head, tail = text.split('"members": []')
    # "witness" sorts last, so the frame ends with its value and the brace
    middle, end = tail.rsplit('"witness": null', 1)
    return head + '"members": [', "]" + middle + '"witness": ', end


def render_structured(report: AnalysisReport) -> str:
    """``json.dumps(report_document(report), sort_keys=True, indent=2)`` + newline.

    The skeleton goes through ``json.dumps`` once; each record is written
    into the skeleton's records gap from a frame shared by every record of
    its shape, with the members and the pre-encoded witness label filled in.
    """
    census = report.census
    labels = census.design.labels
    skeleton = json.dumps(_skeleton(report), sort_keys=True, indent=2)
    if not census.records:
        return skeleton + "\n"
    before, after = skeleton.split(_RECORDS_GAP)
    witnesses = {None: "null", **{i: json.dumps(label) for i, label in enumerate(labels)}}
    member_lines = [f"{_MEMBER_BREAK}{i}" for i in range(census.design.b)]
    frames = {}  # by the id of a shape, which the records keep alive
    out = io.StringIO()
    out.write(before)
    out.write('\n    "records": [')
    sep = _RECORD_BREAK
    for rec in census.records:
        frame = frames.get(id(rec.shape))
        if frame is None:
            frame = frames[id(rec.shape)] = _record_frame(rec.shape)
        head, middle, end = frame
        members = ",".join(map(member_lines.__getitem__, rec.members))
        if members:
            members += "\n        "
        witness = witnesses[rec.witness]
        out.write(f"{sep}{head}{members}{middle}{witness}{end}")
        sep = "," + _RECORD_BREAK
    out.write("\n    ]")
    out.write(after)
    out.write("\n")
    return out.getvalue()


def core_text(shape: CliqueShape) -> str:
    """The "core N" text, with the core restriction's parameters if it is a 2-design."""
    p = shape.restricted_params
    return f"core {shape.core_size}" + ("" if p is None else f" forming 2-({p.n},{p.m},1)")


def render_text(report: AnalysisReport) -> str:
    census = report.census
    design = census.design
    lines = []
    name = design.name or "design"
    replication = _params_dict(report.validation)["replication"]
    lines.append(
        f"{name}: 2-({design.n},{design.m},1) with {design.b} blocks, "
        f"replication {'undefined' if replication is None else replication}, "
        f"{'valid' if report.validation.valid else 'INVALID'}"
    )
    if not report.validation.valid:
        for v in report.validation.violations[:10]:
            lines.append(f"  violation: {v.kind} {v.subject} count={v.count} expected={v.expected}")
        if report.validation.violation_count > 10:
            lines.append(f"  ... {report.validation.violation_count - 10} more")
    if census.srg is not None:
        s = census.srg
        if s.s_eig is None:
            lines.append(f"block graph: srg{s.as_tuple()} with irrational eigenvalues")
        else:
            lines.append(
                f"block graph: srg{s.as_tuple()} with eigenvalues {s.r_eig} and {s.s_eig}"
            )
            lines.append(f"delsarte bound: {census.delsarte}")
    else:
        lines.append(f"block graph: degenerate ({census.degenerate})")
    lines.append(f"clique number: {census.clique_number}")
    lines.append(
        f"maximum cliques: {census.total} = {census.canonical_count} canonical + "
        f"{census.noncanonical_count} non-canonical"
    )
    tails = {}  # one line tail per shape, by its id as for the frames
    block_text = [str(i) for i in range(design.b)]
    for rec in census.records:
        if rec.witness is not None:
            continue
        tail = tails.get(id(shape := rec.shape))
        if tail is None:
            tail = tails[id(shape)] = (f": support {shape.support_size}, {core_text(shape)}, "
                                       f"subdesign {'yes' if shape.is_design else 'no'}")
        members = ", ".join(map(block_text.__getitem__, rec.members))
        lines.append(f"  non-canonical [{members}]{tail}")
    if report.group is not None:
        g = report.group
        lines.append(
            f"group ({g.source}): order {g.order}, {'abelian' if g.abelian else 'nonabelian'}"
        )
        lines.append(f"  point orbit lengths: {list(g.point_orbit_lengths)}")
        lines.append(f"  block orbit lengths: {list(g.block_orbit_lengths)}")
        lines.append(
            f"  canonical clique orbit lengths: {list(g.canonical_clique_orbit_lengths)}"
        )
        lines.append(
            f"  non-canonical clique orbit lengths: {list(g.noncanonical_clique_orbit_lengths)}"
        )
    if report.automorphisms is not None:
        a = report.automorphisms
        lines.append(
            f"graph automorphism group: order {a.order} "
            f"({a.generator_count} generators), equals induced design group: "
            f"{'yes' if a.equals_design_group else 'NO'}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# paper expectations for --check-paper: claim label -> value stated in the paper

_PAPER66 = {
    "valid": True,
    "n": 66,
    "m": 6,
    "blocks": 143,
    "replication": 13,
    "srg": (143, 72, 36, 36),
    "smallest eigenvalue": -6,
    "delsarte bound": 13,
    "clique number": 13,
    "maximum cliques": 80,
    "canonical cliques": 66,
    "non-canonical cliques": 14,
    "non-canonical cliques without design structure": 14,
}

PAPER_EXPECTATIONS = {
    "main66": {
        **_PAPER66,
        "non-canonical support sizes": {39: 13, 26: 1},
        "non-canonical core sizes": {13: 13, 26: 1},
        "core restrictions": {(13, 4)},
        "point orbit lengths": (39, 13, 13, 1),
        "block orbit lengths": (39, 39, 39, 13, 13),
        "canonical clique orbit lengths": (39, 13, 13, 1),
        "non-canonical clique orbit lengths": (13, 1),
    },
    "appendixA66": {**_PAPER66, "core restrictions": {(13, 4)}},
    "appendixB66": {**_PAPER66, "core restrictions": {(13, 4)}},
}


def _paper_quantities(report: AnalysisReport) -> dict:
    """Every quantity a paper claim names, as found in the report."""
    census = report.census
    params = report.validation.params
    srg = census.srg
    g = report.group
    noncanon = [r.shape for r in census.records if r.witness is None]
    return {
        "valid": report.validation.valid,
        "n": census.design.n,
        "m": census.design.m,
        "blocks": census.design.b,
        "replication": int(params.r) if params is not None and params.r_integral else None,
        "srg": None if srg is None else srg.as_tuple(),
        "smallest eigenvalue": None if srg is None else srg.s_eig,
        "delsarte bound": census.delsarte,
        "clique number": census.clique_number,
        "maximum cliques": census.total,
        "canonical cliques": census.canonical_count,
        "non-canonical cliques": census.noncanonical_count,
        "non-canonical cliques without design structure": sum(
            not s.is_design for s in noncanon
        ),
        "non-canonical support sizes": dict(Counter(s.support_size for s in noncanon)),
        "non-canonical core sizes": dict(Counter(s.core_size for s in noncanon)),
        "core restrictions": {
            (s.restricted_params.n, s.restricted_params.m)
            for s in noncanon
            if s.restricted_params is not None
        },
        "point orbit lengths": None if g is None else g.point_orbit_lengths,
        "block orbit lengths": None if g is None else g.block_orbit_lengths,
        "canonical clique orbit lengths": None if g is None else g.canonical_clique_orbit_lengths,
        "non-canonical clique orbit lengths": (
            None if g is None else g.noncanonical_clique_orbit_lengths
        ),
    }


def check_paper_claims(report: AnalysisReport, name: str) -> list[tuple[str, bool, str]]:
    """Compare a report against the embedded expected values for one design.

    Returns (claim, ok, actual) triples; an unknown design name is an error.
    """
    if name not in PAPER_EXPECTATIONS:
        raise ValueError(f"no embedded expectations for {name!r}")
    found = _paper_quantities(report)
    results = [
        (f"{label} = {expected}", expected == found[label], str(found[label]))
        for label, expected in PAPER_EXPECTATIONS[name].items()
    ]
    if name in catalog.APPENDIX_REPRESENTATIVE_CLIQUES:
        design = report.census.design
        blocks_tokens, core_tokens = catalog.APPENDIX_REPRESENTATIVE_CLIQUES[name]
        members = tuple(
            sorted(
                design.block_index[tuple(sorted(design.label_index[t] for t in blk.split()))]
                for blk in blocks_tokens
            )
        )
        rec = next((r for r in report.census.records if r.members == members), None)
        results.append(
            (
                "representative clique enumerated and non-canonical",
                rec is not None and rec.witness is None,
                "present" if rec is not None else "absent",
            )
        )
        if rec is not None:
            core_points = core_restriction(design, members).core_points
            actual_tokens = tuple(sorted(design.labels[p] for p in core_points))
            restricted = rec.shape.restricted_params
            restricted = None if restricted is None else (restricted.n, restricted.m)
            results.append(
                (
                    "representative clique intersecting points",
                    actual_tokens == tuple(sorted(core_tokens)),
                    " ".join(actual_tokens),
                )
            )
            results.append(
                (
                    "representative core restriction is 2-(13,4,1)",
                    restricted == (13, 4),
                    str(restricted),
                )
            )
    return results
