import importlib
import json
import locale
import os
import random
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from blockgraph import (
    Design,
    builtin_design,
    core_restriction,
    point_multiplicity_profile,
    serialize_design,
    subdesign_test,
)
from blockgraph import cli
from blockgraph.cli import main

from conftest import (
    PLANE_CLIQUE_BLOCKS, members_from_tokens, point_line_blocklist, steiner_triple_system,
)

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify

def test_verify_main66(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "main66")
    assert code == 0
    assert "srg(143, 72, 36, 36)" in out
    assert "delsarte bound: 13" in out
    assert "valid: yes (replication 13)" in out


def test_verify_fano_degenerate(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "fano")
    assert code == 0
    assert "degenerate" in out


@pytest.mark.parametrize("name, srg_line", [
    ("main66", "block graph: srg(143, 72, 36, 36), eigenvalues 6 and -6"),
    ("ag23", "block graph: srg(12, 9, 6, 9), eigenvalues 0 and -3"),
    ("fano", "block graph: degenerate (complete graph); design is symmetric"),
], ids=["main66", "ag23", "fano"])
def test_verify_reads_no_rows(monkeypatch, capsys, name, srg_line):
    # a validated design's SRG parameters are its closed form: verify prints
    # the same with Design.reach, which builds the block-graph rows, broken
    expected = run(capsys, "verify", "--builtin", name)

    def no_rows(design):
        raise AssertionError("verify built the block-graph rows")

    monkeypatch.setattr(Design, "reach", property(no_rows))
    code, out, err = run(capsys, "verify", "--builtin", name)
    assert (code, out, err) == expected
    assert code == 0 and srg_line in out.splitlines()


# a genuine 2-(6,3,2) design: every pair of its 6 points lies in 2 blocks
DESIGN_632 = "012 013 024 035 045 125 134 145 234 235".split()


@pytest.mark.parametrize("lam", [0, -1, 2])
def test_verify_rejects_wrong_declared_lambda(tmp_path, capsys, lam):
    # every design is a 2-(n,m,1) design, so any other declared lambda is a
    # parse error, for fano (which covers every pair once) and for a design
    # that covers every pair twice
    fano = json.loads(serialize_design(builtin_design("fano"), "json"))
    twofold = {"n": 6, "m": 3, "labels": list("012345"), "blocks": [list(b) for b in DESIGN_632]}
    for doc in (fano, twofold):
        doc["lambda"] = lam
        path = tmp_path / "design.json"
        path.write_text(json.dumps(doc))
        for command in ("verify", "report"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: json design: lambda must be 1, got {lam}\n"


def test_verify_duplicate_block_file(tmp_path, capsys):
    bad = tmp_path / "broken.blk"
    bad.write_text("1 2 3\n1 2 3\n")
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 2
    assert "duplicate block" in err


def test_verify_empty_design_file(tmp_path, capsys):
    empty = tmp_path / "empty.blk"
    empty.write_text("")
    code, out, _ = run(capsys, "verify", "--input", str(empty))
    assert code == 1
    assert "valid: NO" in out


def test_report_empty_blocklist_replication_undefined(tmp_path, capsys):
    empty = tmp_path / "empty.blk"
    empty.write_text("")
    code, out, _ = run(capsys, "report", "--input", str(empty))
    assert code == 1
    assert out.splitlines()[0] == "empty: 2-(0,0,1) with 0 blocks, replication undefined, INVALID"
    code, out, _ = run(capsys, "report", "--input", str(empty), "--format", "structured")
    assert code == 1
    assert json.loads(out)["design"]["replication"] is None


def test_verify_invalid_design_file(tmp_path, capsys):
    main66 = builtin_design("main66")
    lines = serialize_design(main66).splitlines()
    trimmed = tmp_path / "short.blk"
    trimmed.write_text("\n".join(lines[1:]) + "\n")
    code, out, _ = run(capsys, "verify", "--input", str(trimmed))
    assert code == 1
    assert "valid: NO" in out


def test_missing_source_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_memory_error_is_one_line(monkeypatch, capsys):
    def exhausted(design):
        raise MemoryError
    monkeypatch.setattr(cli, "census_report", exhausted)
    code, out, err = run(capsys, "cliques", "--builtin", "main66")
    assert code == 1
    assert err.splitlines() == ["error: out of memory"]
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# cliques

def test_cliques_expected_counts(capsys):
    code, out, _ = run(
        capsys, "cliques", "--builtin", "main66", "--expect", "total=80,canonical=66"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 80
    assert sum("non-canonical" in l for l in lines) == 14


def test_cliques_expect_mismatch(capsys):
    code, _, err = run(capsys, "cliques", "--builtin", "main66", "--expect", "total=81")
    assert code == 1
    assert "EXPECT FAILED" in err


def test_cliques_appendix_b(capsys):
    code, _, _ = run(
        capsys, "cliques", "--builtin", "appendixB66", "--expect",
        "total=80,canonical=66",
    )
    assert code == 0


def test_cliques_ag23(capsys):
    code, out, _ = run(
        capsys, "cliques", "--builtin", "ag23", "--expect",
        "total=81,canonical=9,size=4",
    )
    assert code == 0


@pytest.mark.parametrize(
    "name, summary",
    [
        # PG(2,31): any two lines meet, so the block graph is K_993
        ("pg231", "# 1 maximum cliques of size 993: 0 canonical, 1 non-canonical"),
        # 1100 pairs through one point: K_1100 again
        ("star1100", "# 1 maximum cliques of size 1100: 1 canonical, 0 non-canonical"),
    ],
)
def test_cliques_complete_block_graph_deeper_than_recursion_limit(tmp_path, capsys, name, summary):
    # one clique member per search level: the levels outnumber the frames
    # Python allows a recursive search
    if name == "pg231":
        text = point_line_blocklist("projective", 2, 31)
    else:
        text = "".join(f"x a{i}\n" for i in range(1100))
    path = tmp_path / f"{name}.blk"
    path.write_text(text)
    code, out, err = run(capsys, "cliques", "--input", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == summary


def test_cliques_star_in_linear_memory(tmp_path):
    # K_2000: the root's candidates are one clique and are taken whole; a
    # descent one member per level would hold ~k^2/2 (vertex, colour) pairs,
    # more than a 100 MB address space
    path = tmp_path / "star2000.blk"
    path.write_text("".join(f"x a{i}\n" for i in range(2000)))
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20)); "
        "from blockgraph.cli import main; "
        f"raise SystemExit(main(['cliques', '--input', {str(path)!r}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "# 1 maximum cliques of size 2000: 1 canonical, 0 non-canonical"
    )


def test_cliques_six_cycle_names_first_failing_pair(tmp_path, capsys):
    # the block graph is C6: regular, but its non-adjacent pairs have 1 or 0
    # common neighbours; the witness is the first wrong pair in row-major order
    path = tmp_path / "c6.blk"
    path.write_text("a b\nb c\nc d\nd e\ne f\nf a\n")
    code, out, err = run(capsys, "cliques", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: block graph is not strongly regular: "
        "non-adjacent pair (0,4) has 0 common neighbours, expected 1\n"
    )


def test_cliques_conference_block_graph(tmp_path, capsys):
    # the pentagon's block graph is C5 = srg(5,2,0,1), whose eigenvalues are
    # irrational, so there is no Delsarte bound to enumerate at first
    path = tmp_path / "pentagon.blk"
    path.write_text("1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, out, err = run(capsys, "cliques", "--input", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("# 5 maximum cliques of size 2: 5 canonical, 0 non-canonical\n")
    code, out, _ = run(capsys, "report", "--input", str(path))
    assert code == 1  # the pentagon is not a 2-design
    assert "block graph: srg(5, 2, 0, 1) with irrational eigenvalues\n" in out
    assert "None" not in out
    assert "delsarte" not in out
    code, out, _ = run(capsys, "report", "--format", "structured", "--input", str(path))
    doc = json.loads(out)
    assert (doc["srg"]["r_eig"], doc["srg"]["s_eig"], doc["delsarte_bound"]) == (None, None, None)


def test_cliques_bad_expect_key(capsys):
    code, _, err = run(capsys, "cliques", "--builtin", "ag23", "--expect", "cake=3")
    assert code == 2
    assert "bad --expect" in err


# ---------------------------------------------------------------------------
# subdesign

def test_subdesign_plane_clique(tmp_path, capsys):
    main66 = builtin_design("main66")
    members = members_from_tokens(main66, PLANE_CLIQUE_BLOCKS)
    path = tmp_path / "plane.cliques"
    path.write_text(" ".join(str(i) for i in members) + "\n")
    code, out, _ = run(
        capsys, "subdesign", "--builtin", "main66", "--cliques", str(path)
    )
    assert code == 0
    assert "support 39" in out
    assert "inadmissible" in out
    assert "is_design no" in out
    assert "core 13 forming 2-(13,4,1)" in out


def test_subdesign_orbit_clique(tmp_path, capsys):
    from conftest import orbit_clique_members

    main66 = builtin_design("main66")
    members = orbit_clique_members(main66)
    path = tmp_path / "orbit.cliques"
    path.write_text(" ".join(str(i) for i in members) + "\n")
    code, out, _ = run(
        capsys, "subdesign", "--builtin", "main66", "--cliques", str(path)
    )
    assert code == 0
    assert "support 26" in out
    assert "is_design no" in out
    assert "multiplicities [3]" in out


def test_subdesign_rejects_non_clique(tmp_path, capsys):
    main66 = builtin_design("main66")
    masks = main66.block_masks
    other = next(j for j in range(main66.b) if not masks[0] & masks[j])
    path = tmp_path / "notaclique.cliques"
    path.write_text(f"0 {other}\n")
    code, out, _ = run(
        capsys, "subdesign", "--builtin", "main66", "--cliques", str(path)
    )
    assert code == 1
    assert "NOT A CLIQUE" in out
    assert "do not intersect" in out


def subdesign_line(design, k, members):
    """The line `subdesign` prints for one clique, built from the helpers."""
    verdict = subdesign_test(design, members)
    core = core_restriction(design, members)
    params, restricted = verdict.candidate_params, core.restricted_params
    admissible = params is not None and params.admissible
    forming = "" if restricted is None else f" forming 2-({restricted.n},{restricted.m},1)"
    multiplicities = sorted(set(point_multiplicity_profile(design, members).values()))
    return (
        f"clique {k}: support {verdict.support_size} "
        f"(candidate ({verdict.support_size},{design.m}) "
        f"{'admissible' if admissible else 'inadmissible'}), "
        f"pair coverage {'ok' if verdict.pair_coverage_ok else 'fails'}, "
        f"is_design {'yes' if verdict.is_design else 'no'}, "
        f"core {len(core.core_points)}{forming}, multiplicities {multiplicities}"
    )


@pytest.mark.parametrize(
    "name", ["main66", "appendixA66", "appendixB66", "fano", "ag23", "pg23"]
)
def test_subdesign_reads_cliques_output(tmp_path, capsys, name):
    code, out, _ = run(capsys, "cliques", "--builtin", name)
    assert code == 0
    path = tmp_path / f"{name}.cliques"
    path.write_text(out)
    cliques = [
        tuple(int(tok) for tok in line.split("#")[0].split())
        for line in out.splitlines() if not line.startswith("#")
    ]
    code, out, err = run(capsys, "subdesign", "--builtin", name, "--cliques", str(path))
    assert (code, err) == (0, "")
    design = builtin_design(name)
    assert out.splitlines() == [
        subdesign_line(design, k, members) for k, members in enumerate(cliques)
    ]


# ---------------------------------------------------------------------------
# orbits

def test_orbits_points_with_embedded_generators(capsys):
    code, out, _ = run(capsys, "orbits", "--builtin", "main66", "--domain", "points")
    assert code == 0
    assert "orbit lengths: [39, 13, 13, 1]" in out


def test_orbits_blocks(capsys):
    code, out, _ = run(capsys, "orbits", "--builtin", "main66", "--domain", "blocks")
    assert code == 0
    assert "orbit lengths: [39, 39, 39, 13, 13]" in out


def test_orbits_cliques(capsys):
    code, out, _ = run(capsys, "orbits", "--builtin", "main66", "--domain", "cliques")
    assert code == 0
    assert "# canonical clique orbit lengths: [39, 13, 13, 1]" in out
    assert "# non-canonical clique orbit lengths: [13, 1]" in out


def test_orbits_generator_file(tmp_path, capsys):
    # a file with the real generators reproduces the embedded-generator run
    from blockgraph.catalog import GENERATOR_FIBRE_ROTATION, GENERATOR_RESIDUE_SHIFT

    gens = tmp_path / "gens.txt"
    gens.write_text(f"# generators\n{GENERATOR_FIBRE_ROTATION}\n{GENERATOR_RESIDUE_SHIFT}\n")
    code, out, _ = run(
        capsys, "orbits", "--builtin", "main66", "--generators", str(gens),
        "--domain", "points",
    )
    assert code == 0
    assert "orbit lengths: [39, 13, 13, 1]" in out


def test_orbits_rejects_fibre_cycle(tmp_path, capsys):
    # a bare 13-cycle on one fibre permutes points but is not a design
    # automorphism, so orbit computation must refuse it for every domain
    gens = tmp_path / "gens.txt"
    gens.write_text("(" + " ".join(f"{v}_0" for v in range(13)) + ")\n")
    code, _, err = run(
        capsys, "orbits", "--builtin", "main66", "--generators", str(gens),
        "--domain", "points",
    )
    assert code == 1
    assert "not a design automorphism" in err


def test_orbits_non_automorphism_generator(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("(0_0 1_0)\n")
    code, _, err = run(
        capsys, "orbits", "--builtin", "main66", "--generators", str(gens),
        "--domain", "points",
    )
    assert code == 1
    assert "not a design automorphism" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("(0_0 zz)\n", "unknown point token 'zz' in cycle"),
        ("(0_0 1_0\n", "malformed cycle notation: '(0_0 1_0'"),
        ("(0_0 1_0)(1_0 2_0)\n", "point '1_0' appears in more than one place"),
        ("# nothing here\n\n", "no generators found in {}"),
    ],
    ids=["unknown-token", "unclosed-cycle", "repeated-point", "empty"],
)
def test_orbits_bad_generator_file_is_one_error_line(tmp_path, capsys, text, message):
    # a file that does not parse is a usage error, not a failed claim
    gens = tmp_path / "gens.txt"
    gens.write_text(text)
    code, out, err = run(
        capsys, "orbits", "--builtin", "main66", "--generators", str(gens)
    )
    assert (code, out, err) == (2, "", f"error: {message.format(gens)}\n")


def test_orbits_malformed_long_generator_line_fails_fast(tmp_path):
    # 200 groups and a stray ")": a grammar in which the space between two
    # groups has two parses backtracks 2^200 ways; the timeout turns such a
    # regression into a failure instead of a hang
    line = "(0_0) " * 200 + ")"
    gens = tmp_path / "gens.txt"
    gens.write_text(line + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "blockgraph.cli", "orbits", "--builtin", "main66",
         "--generators", str(gens)],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: malformed cycle notation: {line!r}\n"


def test_orbits_without_generators_for_plain_design(capsys):
    code, _, err = run(capsys, "orbits", "--builtin", "fano", "--domain", "points")
    assert code == 1
    assert "no generator file" in err


# ---------------------------------------------------------------------------
# aut

def test_aut_fano(capsys):
    code, out, _ = run(capsys, "aut", "--builtin", "fano")
    assert code == 0
    assert "order: 5040" in out


def test_aut_main66(capsys):
    code, out, _ = run(capsys, "aut", "--builtin", "main66")
    assert code == 0
    assert "order: 39" in out
    assert "equals induced design automorphism group: yes" in out


# `aut` stdout as recorded under tests/golden/: every kept generator is
# pinned, so a change to the search tree shows here
@pytest.mark.parametrize(
    "name",
    ["main66", "appendixA66", "appendixB66", "fano", "ag23", "pg23", "pg32", "ag33", "pg33"],
)
def test_aut_stdout_is_pinned(tmp_path, capsys, name):
    if name in ("pg32", "ag33", "pg33"):
        path = tmp_path / f"{name}.blk"
        family = "projective" if name.startswith("pg") else "affine"
        path.write_text(point_line_blocklist(family, 3, int(name[-1])))
        source = ("--input", str(path))
    else:
        source = ("--builtin", name)
    code, out, _ = run(capsys, "aut", *source)
    assert code == 0
    assert out == (GOLDEN / f"aut-{name}.out").read_text()


def test_aut_budget_exhaustion(capsys):
    code, _, err = run(capsys, "aut", "--builtin", "main66", "--node-limit", "1")
    assert code == 1
    assert "PARTIAL" in err


def test_aut_single_block_keeps_no_generator(tmp_path, capsys):
    path = tmp_path / "one.blk"
    path.write_text("a b c\n")
    code, out, _ = run(capsys, "aut", "--input", str(path))
    assert code == 0
    assert out == (
        "block-graph automorphism group order: 1\n"
        "generators (0, acting on block indices):\n"
        "equals induced design automorphism group: yes\n"
    )
    code, out, _ = run(capsys, "report", "--aut", "--input", str(path))
    assert code == 1  # one block is not a valid 2-design
    assert "graph automorphism group: order 1 (0 generators), " in out
    assert out.endswith("equals induced design group: yes\n")


def test_aut_empty_blocklist_is_the_trivial_group(tmp_path, capsys):
    path = tmp_path / "empty.blk"
    path.write_text("")
    code, out, _ = run(capsys, "aut", "--input", str(path))
    assert code == 0
    assert out == (
        "block-graph automorphism group order: 1\n"
        "generators (0, acting on block indices):\n"
        "equals induced design automorphism group: yes\n"
    )
    for extra in ((), ("--aut",)):
        code, out, err = run(capsys, "report", *extra, "--input", str(path))
        assert (code, err) == (1, "")  # no blocks is not a valid 2-design
        assert "INVALID" in out
    assert "graph automorphism group: order 1 (0 generators), " in out


@pytest.mark.parametrize(
    "blocks",
    [
        "a b\nc d\n",  # a, b lie on block 0 only and c, d on block 1 only
        "a b c\nc d e\n",  # twins a, b and d, e; c fixed
        "a b c\na d e\nb d f\n",  # c, e, f each on one block, no twins
    ],
)
def test_aut_lifts_swaps_of_twin_points(tmp_path, capsys, blocks):
    path = tmp_path / "twins.blk"
    path.write_text(blocks)
    code, out, _ = run(capsys, "aut", "--input", str(path))
    assert code == 0
    assert out.endswith("equals induced design automorphism group: yes\n")
    code, out, _ = run(capsys, "report", "--aut", "--input", str(path))
    assert code == 1  # not a valid 2-design
    assert out.endswith("equals induced design group: yes\n")


def test_aut_twin_classes_of_different_sizes_do_not_lift(tmp_path, capsys):
    # the block graph is K3, but blocks 1 and 2 share two points and block 0
    # has two points of its own, so only (1 2) lifts (c <-> d)
    path = tmp_path / "k3.blk"
    path.write_text("a b p\np q c\np q d\n")
    code, out, _ = run(capsys, "aut", "--input", str(path))
    assert code == 0
    assert "order: 6\n" in out
    assert out.endswith("equals induced design automorphism group: no (graph group is larger)\n")


# ---------------------------------------------------------------------------
# report

def test_report_check_paper_main66(capsys):
    code, out, err = run(capsys, "report", "--builtin", "main66", "--check-paper")
    assert code == 0
    assert "maximum cliques: 80 = 66 canonical + 14 non-canonical" in out
    assert "FAIL" not in err
    assert err.count("PASS") >= 15


def test_report_structured_deterministic(capsys):
    code1, out1, _ = run(capsys, "report", "--builtin", "main66", "--format", "structured")
    code2, out2, _ = run(capsys, "report", "--builtin", "main66", "--format", "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["cliques"]["total"] == 80
    assert doc["design"]["valid"] is True
    assert doc["group"]["order"] == 39


def test_report_ag23(capsys):
    code, out, _ = run(capsys, "report", "--builtin", "ag23")
    assert code == 0
    assert "maximum cliques: 81 = 9 canonical + 72 non-canonical" in out


def test_report_pg23_degenerate(capsys):
    code, out, _ = run(capsys, "report", "--builtin", "pg23")
    assert code == 0
    assert "degenerate (complete graph)" in out


def test_report_check_paper_needs_66_design(capsys):
    code, _, err = run(capsys, "report", "--builtin", "ag23", "--check-paper")
    assert code == 2


@pytest.mark.parametrize("source", [["--builtin", "ag23"], ["--input", "main66.blk"]])
def test_report_check_paper_refused_before_analysis(tmp_path, monkeypatch, capsys, source):
    # decided before the design is loaded: no report on stdout, one error line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "main66.blk").write_text(serialize_design(builtin_design("main66")))
    code, out, err = run(capsys, "report", *source, "--check-paper")
    assert (code, out) == (2, "")
    assert err == "--check-paper needs one of the embedded 66-point designs\n"


@pytest.mark.parametrize("name", ["appendixA66", "appendixB66"])
def test_report_check_paper_appendix(name, capsys):
    code, _, err = run(capsys, "report", "--builtin", name, "--check-paper")
    assert code == 0
    assert "FAIL" not in err
    assert "representative clique intersecting points" in err


def test_report_with_aut_section(capsys):
    code, out, _ = run(capsys, "report", "--builtin", "appendixA66", "--aut")
    assert code == 0
    assert "graph automorphism group: order 39" in out


# `report --aut` of the paper's designs as recorded under tests/golden/:
# --check-paper prints the same report and its checks on stderr
@pytest.mark.parametrize("name", ["main66", "appendixA66", "appendixB66"])
def test_report_aut_is_pinned(capsys, name):
    report = (GOLDEN / f"report-aut-{name}.out").read_text()
    assert run(capsys, "report", "--builtin", name, "--aut") == (0, report, "")
    assert run(capsys, "report", "--builtin", name, "--aut", "--check-paper") == (
        0, report, (GOLDEN / f"check-paper-{name}.err").read_text())


def test_report_aut_structured_is_pinned(capsys):
    code, out, _ = run(capsys, "report", "--builtin", "main66", "--aut", "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / "report-aut-structured-main66.json").read_text()


def test_report_aut_budget_exhaustion(capsys):
    code, out, err = run(capsys, "report", "--builtin", "main66", "--aut", "--node-limit", "1")
    assert code == 1
    assert out == ""
    assert err == (
        "search budget exceeded (1 nodes visited, 0 generators kept, "
        "settled stabilizer order 1); results are PARTIAL\n"
    )


def test_aut_budget_exhaustion_says_how_far_it_got(capsys):
    # ag23's search settles six of its eight first-path levels within 30
    # nodes: a stabilizer of order 288 = 6*3*2*2*2*2 of 31104
    code, out, err = run(capsys, "aut", "--builtin", "ag23", "--node-limit", "30")
    assert code == 1
    assert len(out.splitlines()) == 6
    assert err == (
        "search budget exceeded (30 nodes visited, 6 generators kept, "
        "settled stabilizer order 288); results are PARTIAL\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("report",), ("report", "--aut"), ("cliques",), ("aut",), ("orbits", "--domain", "cliques")],
)
def test_non_srg_block_graph_is_one_line_error(argv, tmp_path, capsys):
    # blocks abc and ade meet, fgh meets neither: degrees 1, 1 and 0
    path = tmp_path / "nonsrg.blk"
    path.write_text("a b c\na d e\nf g h\n")
    generators = tmp_path / "gens.txt"
    generators.write_text("(b c)\n")
    extra = ("--generators", str(generators)) if argv[0] == "orbits" else ()
    code, out, err = run(capsys, *argv, "--input", str(path), *extra)
    assert code == 1
    assert out == ""
    assert err == "error: block graph is not strongly regular: not regular: degrees [0, 1]\n"


@pytest.mark.parametrize("option, value", [("--node-limit", "-5")])
@pytest.mark.parametrize("command", ["report", "aut"])
def test_non_positive_count_is_usage_error(command, option, value, capsys):
    code, _, err = run(capsys, command, "--builtin", "fano", option, value)
    assert code == 2
    assert "not a positive integer" in err


# A one-block JSON design with one field's raw JSON text replaced per case.
_JSON_FIELDS = {
    "n": "3",
    "m": "3",
    "lambda": "1",
    "labels": '["a", "b", "c"]',
    "blocks": '[["a", "b", "c"]]',
}


@pytest.mark.parametrize(
    "field, raw",
    [
        ("labels", "5"),
        ("labels", '[["a"], "b", "c"]'),
        ("labels", '[true, "b", "c"]'),
        ("blocks", "5"),
        ("blocks", "[null]"),
        ("blocks", '[[["a"], "b", "c"]]'),
        ("lambda", "null"),
        ("lambda", "1e400"),
        ("lambda", "true"),
        ("n", '"3"'),
    ],
)
def test_bad_json_design_is_one_line_error(field, raw, tmp_path, capsys):
    text = "{" + ", ".join(
        f'"{key}": {raw if key == field else value}' for key, value in _JSON_FIELDS.items()
    ) + "}"
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "report", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: json design: ")
    assert err.count("\n") == 1


def test_json_design_with_integer_tokens(tmp_path, capsys):
    path = tmp_path / "ints.json"
    path.write_text('{"n": 3, "m": 3, "lambda": 1, "labels": [1, 2, 3], "blocks": [[1, 2, 3]]}')
    code, out, err = run(capsys, "report", "--input", str(path), "--format", "structured")
    assert err == ""
    assert code == 1  # a single block is not a 2-design
    assert json.loads(out)["cliques"]["records"][0]["witness"] == "1"


# ---------------------------------------------------------------------------
# export and theory

def test_export_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "--builtin", "fano", "--format", "blocklist")
    assert code == 0
    path = tmp_path / "fano.blk"
    path.write_text(out)
    code, out2, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "--builtin", "pg23", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 13 and len(doc["blocks"]) == 13


# the label and block order of the developed designs, which Design equality
# ignores, as recorded under tests/golden/
@pytest.mark.parametrize("name", ["main66", "fano", "pg23"])
def test_export_json_is_pinned(capsys, name):
    code, out, _ = run(capsys, "export", "--builtin", name, "--format", "json")
    assert code == 0
    assert out == (GOLDEN / f"export-{name}.json").read_text()


def test_theory_gm(capsys):
    code, out, _ = run(capsys, "theory", "gm", "--n", "66", "--m", "6")
    assert code == 0
    assert "156" in out
    assert "guaranteed: no" in out


def test_theory_denniston(capsys):
    code, out, _ = run(capsys, "theory", "denniston", "--r", "2", "--s", "3")
    assert code == 0
    assert "2-(28,4,1)" in out
    assert "yes" in out


def test_theory_denniston_bad_args(capsys):
    code, _, err = run(capsys, "theory", "denniston", "--r", "3", "--s", "2")
    assert code == 2


def test_theory_diffset(capsys):
    code, out, _ = run(
        capsys, "theory", "diffset", "--p", "13", "--set", "2,5,6"
    )
    assert code == 0
    assert out.splitlines()[0] == "0: 3"
    assert "1: 1" in out and "12: 1" in out


def test_theory_diffset_large_set_in_subprocess():
    # 20,000 residues mod 99991: about 4e8 pairs for a double loop
    residues = ",".join(map(str, range(20_000)))
    proc = subprocess.run(
        [sys.executable, "-m", "blockgraph.cli", "theory", "diffset", "--p", "99991",
         "--set", residues],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    # d and -d occur 20000 - d times for 0 < d < 20000, 0 occurs 20000 times
    assert len(lines) == 2 * 19_999 + 1
    assert lines[:2] == ["0: 20000", "1: 19999"] and lines[-1] == "99990: 19999"


def test_theory_certificate(capsys):
    code, out, _ = run(
        capsys, "theory", "certificate", "--block", "2_a 6_a 5_a 4_b 12_b 10_b"
    )
    assert code == 0
    assert "pairwise intersecting: yes" in out
    assert out.count("intersection 1") == 12


@pytest.mark.parametrize(
    "block, token",
    [("inf 0_a 0_b", "inf"), ("zz", "zz"), ("2_a 6_a!", "6_a!")],
    ids=["infinity", "unknown", "bad-tag"],
)
def test_theory_certificate_bad_token_is_one_error_line(capsys, block, token):
    code, out, err = run(capsys, "theory", "certificate", "--block", block)
    assert (code, out, err) == (2, "", f"error: not a residue token: {token!r}\n")


def test_theory_squares(capsys):
    code, out, _ = run(capsys, "theory", "squares", "--p", "13")
    assert code == 0
    assert out.strip() == "1 3 4 9 10 12"


@pytest.mark.parametrize(
    "argv",
    [
        ("squares", "--p", "1000000007"),
        ("diffset", "--p", "1000000000000000000000000000057", "--set", "1,2"),
        ("translate", "--p", "100003", "--set", "1,2", "--d", "1"),
        ("squares", "--p", "1"),
        ("diffset", "--p", "-13", "--set", "1,2"),
    ],
)
def test_theory_modulus_out_of_range_is_usage_error(argv, capsys):
    code, out, err = run(capsys, "theory", *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].endswith("is not a modulus in 2..100000")


def test_theory_largest_modulus_is_accepted(capsys):
    code, out, _ = run(capsys, "theory", "squares", "--p", "99991")
    assert code == 0
    assert len(out.split()) == 99990 // 2


def test_theory_family(capsys):
    code, out, _ = run(
        capsys, "theory", "family", "--family", "projective", "--args", "3,3"
    )
    assert code == 0
    assert "2-(40,4,1)" in out


@pytest.mark.parametrize(
    "family, args, expected",
    [
        ("unital", "", "unital takes 1 argument"),
        ("projective", "1,2,3", "projective takes 2 arguments"),
    ],
)
def test_theory_family_wrong_arity(family, args, expected, capsys):
    code, out, err = run(capsys, "theory", "family", "--family", family, "--args", args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {expected} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("family", "--family", "projective", "--args", "3,1000000000000000000000000000057"),
         "1000000000000000000000000000057 is not a prime power in 2..100000"),
        (("family", "--family", "affine", "--args", "2,100003"),
         "100003 is not a prime power in 2..100000"),
        (("family", "--family", "projective", "--args", "1000000000,3"),
         "projective dimension must be in 2..64"),
        (("family", "--family", "affine", "--args", "65,2"), "affine dimension must be in 2..64"),
        (("family", "--family", "unital", "--args", "100001"),
         "unital parameter must be in 2..100000"),
        (("family", "--family", "denniston", "--args", "2,1000000000"), "need 2 <= r < s <= 64"),
        (("denniston", "--r", "2", "--s", "1000000000"), "need 2 <= r < s <= 64"),
    ],
)
def test_theory_family_argument_out_of_range_is_usage_error(argv, expected, capsys):
    code, out, err = run(capsys, "theory", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {expected}\n"


@pytest.mark.parametrize(
    "family, args, design",
    [
        ("projective", "64,2", f"2-({2**65 - 1},3,1)"),
        ("affine", "2,99991", "2-(9998200081,99991,1)"),
        ("unital", "100000", "2-(1000000000000001,100001,1)"),
        ("denniston", "63,64", f"2-({2**127 + 2**63 - 2**64},{2**63},1)"),
    ],
)
def test_theory_family_largest_arguments_are_accepted(family, args, design, capsys):
    code, out, _ = run(capsys, "theory", "family", "--family", family, "--args", args)
    assert code == 0
    assert design in out


# ---------------------------------------------------------------------------
# file inputs

FILE_OPTIONS = [
    ("verify", "--input"),
    ("subdesign", "--builtin", "fano", "--cliques"),
    ("orbits", "--builtin", "main66", "--generators"),
]


@pytest.mark.parametrize("argv", FILE_OPTIONS)
def test_missing_file_is_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "missing.txt"
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="files are read in the locale's encoding, and this one decodes every byte",
)
@pytest.mark.parametrize("argv", FILE_OPTIONS)
def test_undecodable_file_is_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


@pytest.mark.parametrize(
    "filename, name",
    [
        ("plane.blk", "plane"),
        ("my.plane.blk", "my.plane"),
        ("plane", "plane"),
        (".plane", ".plane"),
        (".plane.blk", ".plane"),
        ("plane.", "plane."),
        ("plane..", "plane.."),
    ],
)
def test_design_name_is_the_file_stem(tmp_path, capsys, filename, name):
    path = tmp_path / filename
    path.write_text(serialize_design(builtin_design("fano")))
    code, out, _ = run(capsys, "report", "--input", str(path))
    assert code == 0
    assert out.startswith(f"{name}: 2-(7,3,1) with 7 blocks")


# ---------------------------------------------------------------------------
# robustness: seeded small inputs through every file-reading command


def fuzz_inputs(seed=20261019, count=100):
    """Seeded (design text, clique text, generator text) triples: blocklists
    and JSON documents on up to 9 points, from Steiner triple systems and
    random blocks, some spoiled on purpose (a bad token, a repeated point or
    block, blocks of two sizes, a wrong header or JSON field)."""
    rng = random.Random(seed)
    for k in range(count):
        if rng.random() < 0.4:
            v = rng.choice((7, 9))
            labels = [f"x{p}" for p in rng.sample(range(20), v)]
            blocks = [[labels[p] for p in blk] for blk in steiner_triple_system(v, seed=k)]
            blocks = rng.sample(blocks, len(blocks) - rng.choice((0, 0, 1, 3)))
        else:
            labels = [str(p) for p in range(rng.randint(1, 9))]
            size = rng.randint(1, min(4, len(labels)))
            blocks = list({tuple(sorted(rng.sample(labels, size))): None
                           for _ in range(rng.randint(0, 10))})
        fault = rng.choice((None,) * 7 + ("token", "point", "block", "sizes", "count"))
        if blocks and fault == "token":
            blocks[0] = (*blocks[0][:-1], "a-b")
        elif blocks and fault == "point":
            blocks[0] = (*blocks[0], blocks[0][0])
        elif blocks and fault == "block":
            blocks.append(blocks[0])
        elif blocks and fault == "sizes":
            blocks[-1] = blocks[-1][:-1] or tuple(labels[:2])
        used = list(dict.fromkeys(tok for blk in blocks for tok in blk))
        if k % 2:
            doc = {"n": len(used) + (fault == "count"), "m": len(blocks[0]) if blocks else 0,
                   "lambda": 1, "labels": used, "blocks": blocks}
            if rng.random() < 0.2:
                doc[rng.choice(list(doc))] = rng.choice(("2", None, True, [1], 0))
            text = json.dumps(doc)
        else:
            header = f"points: {len(used) + (fault == 'count')}\n" if rng.random() < 0.3 else ""
            text = header + "# a comment\n" + "".join(" ".join(blk) + "\n" for blk in blocks)
        cliques = "".join(
            " ".join(map(str, rng.choices(range(-1, len(blocks) + 2), k=rng.randint(1, 4)))) + "\n"
            for _ in range(rng.randint(0, 3))
        ) + rng.choice(("", "1 x\n"))
        shuffled, cycles = rng.sample(used, len(used)), "()"
        while shuffled:  # disjoint cycles of 1-3 points
            take = rng.randint(1, 3)
            cycles += "(" + " ".join(shuffled[:take]) + ")"
            del shuffled[:take]
        generators = cycles + rng.choice(("\n",) * 8 + (")\n", " (zz)\n"))
        yield text, cliques, generators


def test_fuzzed_inputs_exit_0_1_or_2_without_a_traceback(tmp_path, capsys):
    design, cliques, generators = (tmp_path / name for name in ("d.txt", "c.txt", "g.txt"))
    codes = set()
    for text, clique_text, generator_text in fuzz_inputs():
        design.write_text(text)
        cliques.write_text(clique_text)
        generators.write_text(generator_text)
        src = ("--input", str(design))
        for argv in (
            ("verify", *src),
            ("cliques", *src),
            ("aut", *src, "--node-limit", "50"),
            ("report", *src, "--aut", "--format", "structured"),
            ("subdesign", *src, "--cliques", str(cliques)),
            ("orbits", *src, "--generators", str(generators)),
        ):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), (argv, text)
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, text, err)
            codes.add(code)
    assert codes == {0, 1, 2}


# ---------------------------------------------------------------------------
# the public API and the names the benchmark's tracer wraps

PUBLIC_NAMES = [
    "AnalysisReport", "BUILTIN_NAMES", "BlockGraph", "CliqueCensus", "DegenerateGraphError",
    "Design", "DesignParameters", "FamilyParams", "OrbitPartition", "PermGroup",
    "Permutation", "ResidueSet", "SearchBudgetExceeded", "SrgParams", "SrgVerificationError",
    "ValidationReport", "admissibility", "build_block_graph", "build_report", "builtin_design",
    "census_report", "check_paper_claims", "classify_clique", "clique_number", "close_group",
    "core_restriction", "delsarte_bound", "denniston_may_have_noncanonical", "develop_base_blocks",
    "difference_multiset", "enumerate_maximum_cliques", "family_params", "gm_threshold",
    "graph_automorphism_group", "induced_block_action", "induced_clique_action",
    "is_design_automorphism", "is_graph_automorphism", "make_design", "only_canonical_guaranteed",
    "orbit_clique_certificate", "orbit_partition", "parse_cycles", "parse_design",
    "point_multiplicity_profile", "render_structured", "render_text", "serialize_design",
    "squares_mod", "subdesign_test", "translate_intersection", "validate_2design", "verify_srg",
]


def test_public_names_are_pinned():
    import blockgraph

    names = sorted(
        name for name, value in vars(blockgraph).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_every_trace_target_resolves():
    # perfbench/tracing.py is executed from its source, not imported, so
    # nothing is written under perfbench/
    path = SRC.parent / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    missing = [
        f"{module}.{attr}" for module, attr, _, _ in namespace["TARGETS"]
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
