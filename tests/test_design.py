import json
import os
import random
import re
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


def per_token_blocklist(text):
    """Reference of the blocklist rule, token by token: each line less its
    ``#`` comment and outer whitespace, an optional ``points: N`` header
    before the first block, then whitespace-split tokens each matched on
    their own.  The first failure's text, or (labels in first-appearance
    order, blocks as token sets)."""
    declared, blocks, labels = None, [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        header = re.match(r"points:\s*(\d+)\Z", line)
        if header and declared is None and not blocks:
            declared = int(header.group(1))
            continue
        for tok in line.split():
            if not re.match(r"[A-Za-z0-9_]+\Z", tok):
                return f"line {lineno}: unparseable token {tok!r}"
            if tok not in labels:
                labels.append(tok)
        blocks.append(frozenset(line.split()))
    if declared is not None and declared != len(labels):
        return f"header declares {declared} points but {len(labels)} distinct tokens occur"
    return tuple(labels), frozenset(blocks)


@pytest.mark.parametrize(
    "text",
    [
        "1\t2\t3\n4 5 6\n",
        "1\xa02 3\n4\u30005\u20036\n",
        "1 2 3\x0b\n\u3000 4 5 6 \xa0\n",
        "1 2 3\x1c4 5 6\n",  # \x1c ends a line for str.splitlines
        "1 2 3\n4 5 \u00e9\n",
        "\u00e9 2 3\n",
        "1 -2 3\n",
        "1 2-3 4\n",
        "1 2 3\n4 5 6-\n",
        "1\u200b2 3\n",  # a zero-width space is not whitespace
        "\uff11 2 3\n",  # nor is a fullwidth digit a token character
        "a_b A9 _ # trailing # comment\n",
        "1 2 # 3\n4 5\n",
        "1 2 3#4\n",
        "x-y 1 2 # a-b\n",
        "points: 3\n1 2 3\n",
        "points:3\n1 2 3\n",
        "points:\t 3 # header\n1 2 3\n",
        "  points: 3  \n1 2 3\n",
        "points: \u0663\n1 2 3\n",  # \d takes any Unicode decimal digit
        "points: 4\n1 2 3\n",
        "Points: 3\n1 2 3\n",
        "points: 3 4\n1 2 3\n",
        "points: x\n1 2 3\n",
        "points:\n1 2 3\n",
        "points: 3\npoints: 3\n1 2 3\n",
        "1 2 3\npoints: 3\n",
        "# only\n\n   \n",
    ],
)
def test_parse_matches_per_token_rule(text):
    expected = per_token_blocklist(text)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            parse_design(text)
        assert str(exc.value) == expected
    else:
        d = parse_design(text)
        assert (d.labels, d.token_blocks) == expected


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([["a", "b"], ["x", "y"]], "unknown point token 'x'"),
        ([["a", "c"], ["c", "y", "x"]], "unknown point token 'y'"),
        ([["a", "b"], ["c", "c"]], "duplicate point within block ('c', 'c')"),
        ([["a", "a"], ["a", "z"]], "duplicate point within block ('a', 'a')"),
        ([["a", "z"], ["a", "a"]], "unknown point token 'z'"),
        ([["b", "c"], ["a", "b"], ["c", "b"], ["b", "a"]], "duplicate block ('b', 'c')"),
        ([["a", "b"], ["b", "c"], ["a", "b", "c"], ["c", "b"]], "blocks of unequal size: [2, 3]"),
    ],
)
def test_make_design_error_texts(blocks, message):
    with pytest.raises(ValueError) as exc:
        make_design(["a", "b", "c", "d"], blocks)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", ["a b", "", "d#", "é", "x-y", "1\n", 1, None])
def test_make_design_takes_only_blocklist_tokens_as_labels(bad):
    # a label a blocklist cannot hold would serialize to a file that does
    # not parse back
    with pytest.raises(ValueError) as exc:
        make_design([bad, "c", "d"], [[bad, "c"], [bad, "d"], ["c", "d"]])
    assert str(exc.value) == f"point label {bad!r} is not a blocklist token"


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
        # labels must be blocklist tokens, or the exported blocklist would not
        # parse back and cycle notation could not name the point
        *(
            (
                json.dumps({"n": 3, "m": 2, "lambda": 1, "labels": [bad, "c", "d"],
                            "blocks": [[bad, "c"], [bad, "d"], ["c", "d"]]}),
                f"^json design: labels token {re.escape(repr(bad))} is not a blocklist token$",
            )
            for bad in ("a b", "", "d#", "é", -1)
        ),
        (
            '{"n": 2, "m": 2, "lambda": 1, "labels": ["a", "b"], "blocks": [["a", "b c"]]}',
            "^json design: block token 'b c' is not a blocklist token$",
        ),
    ],
)
def test_parse_json_rejects_malformed_documents(text, message):
    with pytest.raises(ValueError, match=message):
        parse_design(text, "json")


@pytest.mark.parametrize("fmt", ["blocklist", "json"])
def test_serialized_designs_parse_back(fmt, pg32, ag33):
    # a blocklist names only the points on some block, so a random
    # blocklist with a point on none reads back through json alone
    designs = [*map(builtin_design, BUILTIN_NAMES), pg32, ag33, *random_blocklists()]
    checked = 0
    for design in designs:
        if fmt == "json" or len(set().union(*design.blocks)) == design.n:
            assert parse_design(serialize_design(design, fmt), fmt) == design, design.name
            checked += 1
    assert checked >= 6 + 2 + 12


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
    # base blocks are developed in order, so the first error is reported: a
    # duplicate before a malformed token in a later base block, and the
    # malformed token before a duplicate in a later one
    with pytest.raises(ValueError, match=r"duplicate block \(base 1, shift 0\)"):
        develop_base_blocks([b1, b1_shift, ["x_a", "0_0"]], 13)
    with pytest.raises(ValueError, match="not a residue token: 'x_a'"):
        develop_base_blocks([b1, ["x_a", "0_0"], b1_shift], 13)


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


def violations_of(report, kind):
    return tuple(v for v in report.violations if v.kind == kind)


def test_validate_missing_block():
    main = builtin_design("main66")
    broken = make_design(
        main.labels,
        [main.block_tokens(i) for i in range(1, main.b)],
    )
    report = validate_2design(broken)
    assert not report.valid
    pair_violations = violations_of(report, "pair")
    assert len(pair_violations) == 15  # C(6,2) pairs of the removed block
    assert all(v.count == 0 for v in pair_violations)
    assert len(violations_of(report, "replication")) == 6


def test_validate_lambda_2_coverage_rejected():
    # two blocks sharing two points: that pair is covered twice
    d = parse_design("1 2 3\n1 2 4\n")
    report = validate_2design(d)
    assert not report.valid
    assert any(v.count == 2 for v in violations_of(report, "pair"))


def all_violations(design):
    """Reference: every failure as (kind, subject, count, expected), each
    point pair and each point counted on its own against every block."""
    n, m = design.n, design.m
    params = admissibility(n, m)
    out = []
    tokens = [set(design.block_tokens(i)) for i in range(design.b)]
    for a, b in combinations(design.labels, 2):
        count = sum(a in blk and b in blk for blk in tokens)
        if count != 1:
            out.append(("pair", (a, b), count, 1))
    if params.r_integral:
        r = int(params.r)
        for a in design.labels:
            count = sum(a in blk for blk in tokens)
            if count != r:
                out.append(("replication", (a,), count, r))
    else:
        out.append(("parameters", (n, m), 0, "r integral"))
    if not out and not (params.admissible and design.b == params.b):
        out.append(("parameters", (n, m), design.b, params.b))
    return out


def multiply_covered_blocklists(seed=20261019, count=16):
    """Blocklists of 3- or 4-sets on 7-10 points where the pair {p0, p1} lies
    in three blocks and {p0, p2} in two, among random other blocks: a pair
    tally with a wrong multiplicity names a wrong count for them."""
    rng = random.Random(seed)
    for k in range(count):
        n, m = rng.randint(7, 10), rng.choice((3, 4))
        labels = [f"p{i}" for i in range(n)]
        blocks, rest = set(), range(3, n)
        for pair, times in (((0, 1), 3), ((0, 2), 2)):
            while sum(set(pair) <= blk for blk in blocks) < times:
                blocks.add(frozenset(pair).union(rng.sample(rest, m - 2)))
        target = len(blocks) + rng.randint(0, 4)
        while len(blocks) < target:  # blocks off p0 keep the two counts exact
            blocks.add(frozenset(rng.sample(range(1, n), m)))
        yield make_design(labels, [[labels[p] for p in blk] for blk in blocks], name=f"multiple{k}")


def test_validate_lists_leading_pair_violations_and_counts_all():
    pairs = make_design([f"p{i}" for i in range(60)], [(f"p{i}", f"p{i + 1}") for i in range(0, 60, 2)])
    main = builtin_design("main66")
    broken = make_design(main.labels, [main.block_tokens(i) for i in range(1, main.b)])
    counts = set()
    for design in [pairs, broken, builtin_design("fano"), *random_blocklists(), *multiply_covered_blocklists()]:
        report = validate_2design(design)
        full = all_violations(design)
        listed = [v for v in full if v[0] == "pair"][:20] + [v for v in full if v[0] != "pair"]
        assert [tuple(v) for v in report.violations] == listed
        assert report.violation_count == len(full)
        assert report.valid == (not full)
        counts.update(v.count for v in report.violations if v.kind == "pair")
    assert {0, 2, 3} <= counts


def test_validate_disjoint_pairs_in_linear_memory():
    # 3000 points, 1500 disjoint pairs: 4,497,000 uncovered pairs and 3000
    # points off their replication; the old per-pair list took ~700 MB
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20)); "
        "from blockgraph import make_design, validate_2design; "
        "r = validate_2design(make_design([f'p{i}' for i in range(3000)], "
        "[(f'p{i}', f'p{i + 1}') for i in range(0, 3000, 2)])); "
        "print(r.violation_count, *[sum(v.kind == k for v in r.violations) for k in ('pair', 'replication')])"
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
