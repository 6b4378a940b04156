import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from blockgraph import (
    admissibility,
    builtin_design,
    develop_base_blocks,
    make_design,
    parse_design,
    serialize_design,
    validate_2design,
)
from blockgraph.catalog import BASE_BLOCKS, BUILTIN_NAMES

from conftest import random_blocklists

SRC = Path(__file__).resolve().parent.parent / "src"


def recount_pairs(design):
    """Independent quadratic recount of pair coverage, in token space."""
    counts = Counter()
    for i in range(design.b):
        for a, b in combinations(sorted(design.block_tokens(i)), 2):
            counts[(a, b)] += 1
    return counts


# ---------------------------------------------------------------------------
# parsing

def test_parse_single_line():
    d = parse_design("1 2 3\n")
    assert (d.n, d.m, d.b) == (3, 3, 1)


def test_parse_duplicate_block_rejected():
    with pytest.raises(ValueError, match="duplicate block"):
        parse_design("1 2 3\n1 2 3\n")
    with pytest.raises(ValueError, match="duplicate block"):
        parse_design("1 2 3\n3 2 1\n")


def test_parse_ragged_blocks_rejected():
    with pytest.raises(ValueError, match="unequal size"):
        parse_design("1 2 3\n4 5\n")


def test_parse_duplicate_point_in_block_rejected():
    with pytest.raises(ValueError, match="duplicate point"):
        parse_design("1 1 2\n")


def test_parse_bad_token_rejected():
    with pytest.raises(ValueError, match="unparseable token"):
        parse_design("1 2 a:b\n")


def test_parse_comments_blanks_and_header():
    text = "# a design\npoints: 3\n\n1 2 3  # the only block\n"
    d = parse_design(text)
    assert (d.n, d.b) == (3, 1)


def test_parse_header_mismatch_rejected():
    with pytest.raises(ValueError, match="header declares"):
        parse_design("points: 7\n1 2 3\n")


def test_parse_appendix_listing(appendix_a):
    assert (appendix_a.n, appendix_a.m, appendix_a.b) == (66, 6, 143)


# ---------------------------------------------------------------------------
# serialization

def test_fano_serializes_to_seven_lines():
    fano = builtin_design("fano")
    text = serialize_design(fano)
    lines = [l for l in text.splitlines() if l]
    assert len(lines) == 7
    assert parse_design(text) == fano


def test_round_trip_blocklist(main66):
    text = serialize_design(main66)
    assert len(text.splitlines()) == 143
    assert parse_design(text) == main66


def test_round_trip_json(main66):
    again = parse_design(serialize_design(main66, "json"), "json")
    assert again == main66
    assert again.labels == main66.labels  # json keeps the exact labelling


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "top level must be an object"),
        ("5", "top level must be an object"),
        ('{"n": ' + "[" * 100000 + "]" * 100000 + "}", "bad json design"),
    ],
)
def test_parse_json_rejects_malformed_documents(text, message):
    with pytest.raises(ValueError, match=message):
        parse_design(text, "json")


def test_serialize_idempotent_text():
    d = parse_design("b a\nc a\nc b\n")
    text = serialize_design(d)
    assert serialize_design(parse_design(text)) == text


def test_empty_design_round_trip():
    d = parse_design("")
    assert (d.n, d.b) == (0, 0)
    assert serialize_design(d) == ""


def test_empty_design_is_invalid():
    report = validate_2design(parse_design(""))
    assert not report.valid
    assert len(report.violations) == 1


def test_serialize_deterministic(main66):
    assert serialize_design(main66) == serialize_design(builtin_design("main66"))
    assert serialize_design(main66, "json") == serialize_design(builtin_design("main66"), "json")


# ---------------------------------------------------------------------------
# development

def test_develop_zero_shift_is_identity():
    blk = "inf 0_0 0_1 0_2 0_a 0_b".split()
    d = develop_base_blocks([blk], 13)
    assert frozenset("inf 0_0 0_1 0_2 0_a 0_b".split()) in d.token_blocks


def test_develop_matches_listed_translate():
    # shifting the first base block by 11 must give the block recorded for it
    blk = "2_0 5_0 4_1 9_1 0_a 6_a".split()
    d = develop_base_blocks([blk], 13)
    assert frozenset("0_0 3_0 2_1 7_1 11_a 4_a".split()) in d.token_blocks


def test_develop_full_design(main66):
    assert main66.b == 143
    assert main66.n == 66


def test_develop_count_is_13_per_base_block():
    blocks = [b.split() for b in BASE_BLOCKS[:4]]
    assert develop_base_blocks(blocks, 13).b == 13 * 4


def test_develop_duplicate_orbit_rejected():
    b1 = "2_0 5_0 4_1 9_1 0_a 6_a".split()
    b1_shift = "3_0 6_0 5_1 10_1 1_a 7_a".split()
    with pytest.raises(ValueError, match="duplicate block"):
        develop_base_blocks([b1, b1_shift], 13)


# ---------------------------------------------------------------------------
# validation

def test_validate_main66(main66):
    report = validate_2design(main66)
    assert report.valid
    assert int(report.params.b) == 143
    assert int(report.params.r) == 13
    # independent recount: every token pair covered exactly once
    counts = recount_pairs(main66)
    assert len(counts) == 66 * 65 // 2
    assert set(counts.values()) == {1}


def test_validate_fano():
    report = validate_2design(builtin_design("fano"))
    assert report.valid
    assert (int(report.params.b), int(report.params.r)) == (7, 3)


def test_validate_missing_block():
    main = builtin_design("main66")
    broken = make_design(
        main.labels,
        [main.block_tokens(i) for i in range(1, main.b)],
    )
    report = validate_2design(broken)
    assert not report.valid
    pair_violations = report.violations_of("pair")
    assert len(pair_violations) == 15  # C(6,2) pairs of the removed block
    assert all(v.count == 0 for v in pair_violations)
    assert len(report.violations_of("replication")) == 6


def test_validate_lambda_2_coverage_rejected():
    # two blocks sharing two points: that pair is covered twice
    d = parse_design("1 2 3\n1 2 4\n")
    report = validate_2design(d)
    assert not report.valid
    assert any(v.count == 2 for v in report.violations_of("pair"))


def all_violations(design):
    """Reference: every failure, walking all C(n,2) pairs."""
    n, m, lam = design.n, design.m, design.lam
    params = admissibility(n, m)
    out = [("block_size", (i,)) for i, blk in enumerate(design.blocks) if len(blk) != m]
    pairs = Counter(pair for blk in design.blocks for pair in combinations(blk, 2))
    out += [
        ("pair", (design.labels[p], design.labels[q]))
        for p, q in combinations(range(n), 2)
        if pairs[(p, q)] != lam
    ]
    through = Counter(p for blk in design.blocks for p in blk)
    if params.r_integral:
        out += [("replication", (design.labels[p],)) for p in range(n) if through[p] != params.r]
    else:
        out.append(("parameters", (n, m)))
    if not out and not (params.admissible and design.b == params.b):
        out.append(("parameters", (n, m)))
    return out


@pytest.mark.parametrize("lam", [0, 1, 2])
def test_validate_lists_leading_pair_violations_and_counts_all(lam):
    pairs = make_design([f"p{i}" for i in range(60)], [(f"p{i}", f"p{i + 1}") for i in range(0, 60, 2)])
    main = builtin_design("main66")
    broken = make_design(main.labels, [main.block_tokens(i) for i in range(1, main.b)])
    for design in [pairs, broken, builtin_design("fano"), *random_blocklists()]:
        design = make_design(design.labels, [design.block_tokens(i) for i in range(design.b)], lam=lam)
        report = validate_2design(design)
        full = all_violations(design)
        listed = (
            [v for v in full if v[0] == "block_size"]
            + [v for v in full if v[0] == "pair"][:20]
            + [v for v in full if v[0] in ("replication", "parameters")]
        )
        assert [(v.kind, v.subject) for v in report.violations] == listed
        assert report.violation_count == len(full)
        assert report.valid == (not full)


def test_validate_disjoint_pairs_in_linear_memory():
    # 3000 points, 1500 disjoint pairs: 4,497,000 uncovered pairs and 3000
    # points off their replication; the old per-pair list took ~700 MB
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20)); "
        "from blockgraph import make_design, validate_2design; "
        "r = validate_2design(make_design([f'p{i}' for i in range(3000)], "
        "[(f'p{i}', f'p{i + 1}') for i in range(0, 3000, 2)])); "
        "print(r.violation_count, len(r.violations_of('pair')), len(r.violations_of('replication')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(4_497_000 + 3000), "20", "3000"]


# ---------------------------------------------------------------------------
# admissibility

def test_admissibility_66_6():
    p = admissibility(66, 6)
    assert (int(p.r), int(p.b)) == (13, 143)
    assert p.admissible


def test_admissibility_39_6():
    p = admissibility(39, 6)
    assert p.r == Fraction(38, 5)
    assert not p.r_integral and not p.admissible


def test_admissibility_26_6():
    p = admissibility(26, 6)
    assert p.r_integral  # r = 5
    assert p.b == Fraction(650, 30)
    assert not p.b_integral and not p.admissible


def test_admissibility_rejects_bad_input():
    with pytest.raises(ValueError):
        admissibility(6, 6)
    with pytest.raises(ValueError):
        admissibility(5, 1)


def test_admissible_is_necessary_for_validity():
    for name in BUILTIN_NAMES:
        d = builtin_design(name)
        if validate_2design(d).valid:
            assert admissibility(d.n, d.m).admissible


# ---------------------------------------------------------------------------
# builtins

@pytest.mark.parametrize(
    "name,n,m,b,r",
    [
        ("main66", 66, 6, 143, 13),
        ("appendixA66", 66, 6, 143, 13),
        ("appendixB66", 66, 6, 143, 13),
        ("fano", 7, 3, 7, 3),
        ("ag23", 9, 3, 12, 4),
        ("pg23", 13, 4, 13, 4),
    ],
)
def test_builtins_validate(name, n, m, b, r):
    d = builtin_design(name)
    report = validate_2design(d)
    assert (d.n, d.m, d.b) == (n, m, b)
    assert report.valid
    assert int(report.params.r) == r


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_design("nope")
