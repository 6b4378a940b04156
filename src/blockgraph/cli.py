"""Command-line front end.

Exit codes: 0 when every requested check holds, 1 when a verified claim
fails (invalid design, census mismatch, non-automorphism generator, budget
exhaustion, a block graph that is not strongly regular), 2 on usage or
parse errors.  Machine output uses 0-based block indices; human-readable
output uses point tokens.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog, theory
from .autgroup import DEFAULT_NODE_LIMIT, SearchBudgetExceeded
from .cliques import census_report, clique_record, point_multiplicity_profile
from .design import parse_design, serialize_design, validate_2design
from .graph import (
    DegenerateGraphError,
    SrgVerificationError,
    build_block_graph,
    delsarte_bound,
    verify_srg,
)
from .perms import (
    format_cycles,
    induced_block_action,
    orbit_partition,
    parse_cycles,
)
from .report import (
    PAPER_EXPECTATIONS,
    automorphism_section,
    build_report,
    builtin_generators,
    check_paper_claims,
    clique_orbits,
    core_text,
    render_structured,
    render_text,
)


def _add_design_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=catalog.BUILTIN_NAMES, help="embedded design")
    src.add_argument("--input", metavar="FILE", help="design file (blocklist or json)")


def _read_text(path: str) -> str:
    with open(path) as f:
        return f.read()


def _load_design(args):
    if args.builtin:
        return catalog.builtin_design(args.builtin)
    text = _read_text(args.input)
    fmt = "json" if text.lstrip().startswith("{") else "blocklist"
    # the file name without its last suffix; ".x" and "x." have none
    base = os.path.basename(args.input)
    stem, _, suffix = base.rpartition(".")
    return parse_design(text, fmt, name=stem if stem and suffix else base)


def _load_generators(args, design):
    """Generators from --generators FILE, else the embedded ones (main66's).

    A file that cannot be read or parsed raises ValueError or OSError (a
    parse error, exit 2); an empty list means no generators are known.
    """
    if args.generators:
        perms = []
        for line in _read_text(args.generators).splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                perms.append(parse_cycles(line, design.labels))
        if not perms:
            raise ValueError(f"no generators found in {args.generators}")
        return perms
    return builtin_generators(design, args.builtin or "")


def _parse_expect(text: str) -> dict[str, int]:
    known = {"total", "canonical", "noncanonical", "size"}
    out = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in known or not value.strip().isdigit():
            raise ValueError(f"bad --expect item {item!r} (want key=integer)")
        out[key] = int(value)
    return out


def _load_clique_file(path: str) -> list[tuple[int, ...]]:
    cliques = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            cliques.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad clique line") from exc
    return cliques


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    design = _load_design(args)
    validation = validate_2design(design)
    r = validation.params.r if validation.params else None
    print(f"design: 2-({design.n},{design.m},{design.lam}) with {design.b} blocks")
    if validation.valid:
        print(f"valid: yes (replication {r})")
    else:
        print("valid: NO")
        for v in validation.violations[:20]:
            print(f"  violation: {v.kind} {v.subject} count={v.count} expected={v.expected}")
        if validation.violation_count > 20:
            print(f"  ... {validation.violation_count - 20} more violations")
        return 1
    graph = build_block_graph(design)
    try:
        srg = verify_srg(graph)
        if srg.s_eig is None:
            print(f"block graph: srg{srg.as_tuple()}, irrational eigenvalues")
        else:
            print(f"block graph: srg{srg.as_tuple()}, eigenvalues {srg.r_eig} and {srg.s_eig}")
            print(f"delsarte bound: {delsarte_bound(srg)}")
    except DegenerateGraphError as exc:
        note = "; design is symmetric" if design.b == design.n else ""
        print(f"block graph: degenerate ({exc}){note}")
    return 0


def cmd_cliques(args) -> int:
    design = _load_design(args)
    census = census_report(design)
    for rec in census.records:
        members = " ".join(str(i) for i in rec.members)
        if rec.classification.canonical:
            witness = design.labels[rec.classification.witness]
            print(f"{members}  # canonical at {witness}")
        else:
            print(f"{members}  # non-canonical")
    print(
        f"# {census.total} maximum cliques of size {census.clique_number}: "
        f"{census.canonical_count} canonical, {census.noncanonical_count} non-canonical"
    )
    if args.expect:
        expected = _parse_expect(args.expect)
        actual = {
            "total": census.total,
            "canonical": census.canonical_count,
            "noncanonical": census.noncanonical_count,
            "size": census.clique_number,
        }
        bad = {k: v for k, v in expected.items() if actual[k] != v}
        if bad:
            for k, v in sorted(bad.items()):
                print(f"EXPECT FAILED: {k}={v} but found {actual[k]}", file=sys.stderr)
            return 1
    return 0


def cmd_subdesign(args) -> int:
    design = _load_design(args)
    cliques = _load_clique_file(args.cliques)
    status = 0
    for k, members in enumerate(cliques):
        try:
            rec = clique_record(design, members)
        except ValueError as exc:
            print(f"clique {k}: NOT A CLIQUE ({exc})")
            status = 1
            continue
        verdict = rec.subdesign
        multiplicities = sorted(set(point_multiplicity_profile(design, rec.members).values()))
        admissible = verdict.candidate_params is not None and verdict.candidate_params.admissible
        print(
            f"clique {k}: support {verdict.support_size} "
            f"(candidate ({verdict.support_size},{design.m}) "
            f"{'admissible' if admissible else 'inadmissible'}), "
            f"pair coverage {'ok' if verdict.pair_coverage_ok else 'fails'}, "
            f"is_design {'yes' if verdict.is_design else 'no'}, "
            f"{core_text(rec)}, multiplicities {multiplicities}"
        )
    return status


def cmd_orbits(args) -> int:
    design = _load_design(args)
    generators = _load_generators(args, design)
    if not generators:
        print("no generator file given and no embedded generators for this design",
              file=sys.stderr)
        return 1
    try:
        block_perms = [induced_block_action(design, g) for g in generators]
    except ValueError as exc:  # a generator that is not a design automorphism
        print(str(exc), file=sys.stderr)
        return 1
    if args.domain != "cliques":
        points = args.domain == "points"
        part = orbit_partition(generators if points else block_perms)
        for orbit in part.orbits:
            print(" ".join(sorted(design.labels[p] for p in orbit) if points else map(str, orbit)))
        print(f"# orbit lengths: {list(part.lengths)}")
    else:
        orbits = clique_orbits(census_report(design), block_perms)
        for label, (members_list, part) in zip(("canonical", "non-canonical"), orbits):
            if part is None:
                print(f"# no {label} maximum cliques")
                continue
            print(f"# {label} clique orbit lengths: {list(part.lengths)}")
            for orbit in part.orbits:
                print(" | ".join(" ".join(map(str, members_list[i])) for i in orbit))
    return 0


def cmd_aut(args) -> int:
    design = _load_design(args)
    census = census_report(design)
    try:
        section, group = automorphism_section(design, census, node_limit=args.node_limit)
    except SearchBudgetExceeded as exc:
        for g in exc.generators:
            print(format_cycles(g, [str(i) for i in range(census.graph.v)]))
        raise
    labels = [str(i) for i in range(census.graph.v)]
    print(f"block-graph automorphism group order: {section.order}")
    print(f"generators ({section.generator_count}, acting on block indices):")
    for g in group.generators:
        print(f"  {format_cycles(g, labels)}")
    print(
        "equals induced design automorphism group: "
        + ("yes" if section.equals_design_group else "no (graph group is larger)")
    )
    return 0


def cmd_report(args) -> int:
    if args.check_paper and args.builtin not in PAPER_EXPECTATIONS:
        print("--check-paper needs one of the embedded 66-point designs", file=sys.stderr)
        return 2
    design = _load_design(args)
    generators = builtin_generators(design, args.builtin or "")
    report = build_report(
        design,
        generators=generators,
        generator_source="embedded generators" if generators else "",
        include_aut=args.aut,
        node_limit=args.node_limit,
    )
    if args.format == "structured":
        sys.stdout.write(render_structured(report))
    else:
        sys.stdout.write(render_text(report))
    status = 0 if report.validation.valid else 1
    if args.check_paper:
        claims = check_paper_claims(report, args.builtin)
        for label, ok, actual in claims:
            print(f"{'PASS' if ok else 'FAIL'}: {label} (found {actual})", file=sys.stderr)
            if not ok:
                status = 1
    return status


def cmd_theory(args) -> int:
    if args.theory_cmd == "gm":
        threshold = theory.gm_threshold(args.m)
        flag = theory.only_canonical_guaranteed(args.n, args.m)
        print(f"threshold m^3-2m^2+2m = {threshold}")
        print(f"n = {args.n}: only canonical maximum cliques guaranteed: {'yes' if flag else 'no'}")
    elif args.theory_cmd == "denniston":
        params = theory.denniston_params(args.r, args.s)
        flag = theory.denniston_may_have_noncanonical(args.r, args.s)
        print(f"denniston({args.r},{args.s}): 2-({params.n},{params.m},1)")
        print(f"may have non-canonical maximum cliques (s < 2r): {'yes' if flag else 'no'}")
    elif args.theory_cmd == "family":
        params = theory.family_params(args.family, *args.args)
        print(f"{params.family}{params.args}: 2-({params.n},{params.m},1)")
        print(f"gm threshold for m={params.m}: {theory.gm_threshold(params.m)}")
    elif args.theory_cmd == "squares":
        squares = theory.squares_mod(args.p)
        print(" ".join(str(x) for x in squares.elements))
    elif args.theory_cmd == "diffset":
        s = theory.ResidueSet.of(args.p, args.set)
        diffs = theory.difference_multiset(s)
        for d in sorted(diffs):
            print(f"{d}: {diffs[d]}")
    elif args.theory_cmd == "translate":
        s = theory.ResidueSet.of(args.p, args.set)
        print(theory.translate_intersection(s, args.d))
    elif args.theory_cmd == "certificate":
        cert = theory.orbit_clique_certificate(args.block.split())
        print(f"a-part: {list(cert.a_part.elements)}  b-part: {list(cert.b_part.elements)}")
        for d, total in sorted(cert.shift_totals.items()):
            print(f"shift {d}: intersection {total}")
        print(f"pairwise intersecting: {'yes' if cert.pairwise_intersecting else 'no'}")
        return 0 if cert.pairwise_intersecting else 1
    return 0


def cmd_export(args) -> int:
    design = _load_design(args)
    sys.stdout.write(serialize_design(design, args.format))
    return 0


# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _modulus(text: str) -> int:
    if not text.strip().isdigit() or not 2 <= int(text) <= theory.MAX_MODULUS:
        raise argparse.ArgumentTypeError(f"{text!r} is not a modulus in 2..{theory.MAX_MODULUS}")
    return int(text)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockgraph",
        description="Exact analysis of 2-(n,m,1) designs and their block graphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="validate a design and its SRG parameters")
    _add_design_source(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cliques", help="enumerate and classify maximum cliques")
    _add_design_source(p)
    p.add_argument("--expect", metavar="K=V,...", help="e.g. total=80,canonical=66")
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("subdesign", help="test cliques for subdesign structure")
    _add_design_source(p)
    p.add_argument("--cliques", required=True, metavar="FILE",
                   help="one clique per line, space-separated 0-based block indices")
    p.set_defaults(func=cmd_subdesign)

    p = sub.add_parser("orbits", help="orbits of a generated group")
    _add_design_source(p)
    p.add_argument("--generators", metavar="FILE",
                   help="one permutation per line in token cycle notation "
                        "(defaults to the embedded generators for main66)")
    p.add_argument("--domain", choices=("points", "blocks", "cliques"), default="points")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("aut", help="full block-graph automorphism group")
    _add_design_source(p)
    p.add_argument("--node-limit", type=_positive_int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("report", help="full analysis report")
    _add_design_source(p)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--check-paper", action="store_true",
                   help="compare against the embedded expected values")
    p.add_argument("--aut", action="store_true",
                   help="include the graph automorphism search in the report")
    p.add_argument("--node-limit", type=_positive_int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="serialize a design (blocklist or json)")
    _add_design_source(p)
    p.add_argument("--format", choices=("blocklist", "json"), default="blocklist")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("theory", help="threshold and residue arithmetic")
    tsub = p.add_subparsers(dest="theory_cmd", required=True)
    t = tsub.add_parser("gm", help="Godsil-Meagher threshold")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--m", type=int, required=True)
    t = tsub.add_parser("denniston", help="Denniston parameter predicate")
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--s", type=int, required=True)
    t = tsub.add_parser("family", help="design family parameters")
    t.add_argument("--family", choices=("affine", "projective", "unital", "denniston"),
                   required=True)
    t.add_argument("--args", type=_int_list, required=True, metavar="A,B",
                   help="family arguments, e.g. 3,2 for projective d=3 q=2")
    t = tsub.add_parser("squares", help="nonzero quadratic residues mod p")
    t.add_argument("--p", type=_modulus, required=True)
    t = tsub.add_parser("diffset", help="difference multiset of a residue set")
    t.add_argument("--p", type=_modulus, required=True)
    t.add_argument("--set", type=_int_list, required=True, metavar="A,B,C")
    t = tsub.add_parser("translate", help="|(d+S) ∩ S| for a residue set")
    t.add_argument("--p", type=_modulus, required=True)
    t.add_argument("--set", type=_int_list, required=True, metavar="A,B,C")
    t.add_argument("--d", type=int, required=True)
    t = tsub.add_parser("certificate", help="orbit-clique certificate of a base block")
    t.add_argument("--block", required=True, metavar="TOKENS",
                   help='e.g. "2_a 6_a 5_a 4_b 12_b 10_b"')
    p.set_defaults(func=cmd_theory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"search budget exceeded ({exc}); results are PARTIAL", file=sys.stderr)
        return 1
    except SrgVerificationError as exc:
        print(f"error: block graph is not strongly regular: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
