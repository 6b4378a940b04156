"""Point tokens of cyclically developed designs: the grammar
``develop_base_blocks`` reads, the shift it applies and its label order."""

import pytest

from blockgraph import builtin_design, develop_base_blocks, validate_2design
from blockgraph.design import residue_token


def test_token_round_trip():
    # the zero shift gives back the base block's own tokens
    toks = ("0_0", "12_b", "7_a", "inf", "5", "3_c", "4_tag2")
    assert frozenset(toks) in develop_base_blocks([toks], 13).token_blocks


def test_value_reduced_mod_13():
    assert residue_token("15_0", 13) == ("0", 2)
    assert residue_token("15", 13) == ("", 2)
    assert develop_base_blocks([("15_0", "0_a")], 13) == develop_base_blocks(
        [("2_0", "0_a")], 13
    )


@pytest.mark.parametrize(
    "bad",
    ["", "x", "_a", "13a", "inf_a", "a_5", "5_", "x_a", "-1_a", "5_a!", "\u0663_a"],
)
def test_bad_tokens_rejected(bad):
    with pytest.raises(ValueError, match="not a residue token"):
        develop_base_blocks([(bad, "0_0")], 13)


def test_total_order():
    # tags in string order (0 < 1 < 2 < a < b), then values, inf last
    main66 = builtin_design("main66")
    assert list(main66.labels) == (
        [f"{v}_{t}" for t in "012ab" for v in range(13)] + ["inf"]
    )
    assert builtin_design("fano").labels == tuple(str(v) for v in range(7))
    assert builtin_design("pg23").labels == tuple(str(v) for v in range(13))
    # untagged residues come before every tag
    mixed = develop_base_blocks([("inf", "0_a", "0")], 3)
    assert mixed.labels == ("0", "1", "2", "0_a", "1_a", "2_a", "inf")


def test_shift_fixes_infinity_and_tags():
    d = develop_base_blocks([("inf", "11_a", "3")], 13)
    for e in range(13):
        shifted = {"inf", f"{(11 + e) % 13}_a", str((3 + e) % 13)}
        assert frozenset(shifted) in d.token_blocks
    assert frozenset({"inf", "2_a", "7"}) in d.token_blocks  # shift 4


def test_duplicate_point_in_base_block_rejected():
    with pytest.raises(ValueError, match="duplicate point"):
        develop_base_blocks([("2_0", "15_0", "0_a")], 13)
    with pytest.raises(ValueError, match="duplicate point"):
        develop_base_blocks([("inf", "inf", "0_a")], 13)


def test_two_base_blocks_over_another_modulus():
    # {0,1,4} and {0,2,7} are a (13,3,1) difference family: together their
    # differences cover every nonzero residue once
    d = develop_base_blocks([("0", "1", "4"), ("0", "2", "7")], 13, "dfam13")
    assert (d.n, d.m, d.b) == (13, 3, 26)
    assert validate_2design(d).valid
    # one base block over Z7 is the Fano plane
    assert develop_base_blocks([("0", "1", "3")], 7) == builtin_design("fano")


@pytest.mark.parametrize("modulus", [0, -7])
def test_modulus_below_one_rejected(modulus):
    with pytest.raises(ValueError, match="at least 1"):
        develop_base_blocks([("0", "1", "3")], modulus)
