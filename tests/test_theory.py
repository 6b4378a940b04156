import random
from collections import Counter
from itertools import combinations

import pytest

from blockgraph import (
    ResidueSet,
    builtin_design,
    denniston_may_have_noncanonical,
    difference_multiset,
    family_params,
    gm_threshold,
    only_canonical_guaranteed,
    orbit_clique_certificate,
    squares_mod,
    translate_intersection,
)
from blockgraph.theory import (
    affine_params,
    denniston_params,
    is_prime_power,
    nonsquares_mod,
    projective_params,
    unital_params,
)

from conftest import TWO_FIBRE_BLOCK, orbit_clique_members

SQUARES_13 = (1, 3, 4, 9, 10, 12)
NONSQUARES_13 = (2, 5, 6, 7, 8, 11)


def test_squares_mod_13():
    assert squares_mod(13).elements == SQUARES_13
    assert set(SQUARES_13) == {i * i % 13 for i in range(1, 13)}


def test_squares_mod_3():
    assert squares_mod(3).elements == (1,)


def test_nonsquares_complement():
    assert nonsquares_mod(13).elements == NONSQUARES_13


@pytest.mark.parametrize("bad", [2, 4, 9, 15, 1])
def test_squares_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        squares_mod(bad)


def test_squares_partition_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        sq = set(squares_mod(p).elements)
        non = set(nonsquares_mod(p).elements)
        assert len(sq) == (p - 1) // 2
        assert sq | non == set(range(1, p))
        assert not sq & non


def test_difference_multiset_r():
    r = ResidueSet.of(13, [2, 5, 6])
    diffs = difference_multiset(r)
    assert diffs[0] == 3
    assert all(diffs[s] == 1 for s in SQUARES_13)
    assert sum(diffs.values()) == 9


def test_difference_multiset_2r():
    two_r = ResidueSet.of(13, [4, 10, 12])
    diffs = difference_multiset(two_r)
    assert diffs[0] == 3
    assert all(diffs[n] == 1 for n in NONSQUARES_13)
    assert all(diffs.get(s, 0) == 0 for s in SQUARES_13)


def test_difference_multiset_singleton():
    assert dict(difference_multiset(ResidueSet.of(5, [0]))) == {0: 1}


def test_scaling_r_by_two():
    r = ResidueSet.of(13, [2, 5, 6])
    assert r.scale(2).elements == (4, 10, 12)


def test_translate_intersection_examples():
    r = ResidueSet.of(13, [2, 5, 6])
    assert translate_intersection(r, 1) == 1  # (1+R) ∩ R = {6}
    assert translate_intersection(r, 2) == 0
    assert translate_intersection(r, 0) == 3
    for d in range(1, 13):
        expected = 1 if d in SQUARES_13 else 0
        assert translate_intersection(r, d) == expected


def test_translate_matches_difference_multiplicity():
    rng = random.Random(7)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for size in (1, 2, 3, 4):
            elems = rng.sample(range(p), size)
            s = ResidueSet.of(p, elems)
            diffs = difference_multiset(s)
            for d in range(1, p):
                assert translate_intersection(s, d) == diffs.get(d, 0)


def double_loop_differences(s):
    """Reference: every ordered pair's difference, counted one by one."""
    out = Counter()
    for a in s.elements:
        for b in s.elements:
            out[(a - b) % s.modulus] += 1
    return out


def double_loop_translate(s, d):
    base = set(s.elements)
    return sum(1 for e in s.elements if (e + d) % s.modulus in base)


def test_bitmask_differences_match_double_loop():
    rng = random.Random(20261018)
    for p in (2, 3, 5, 13, 61, 127, 257, 1009):
        for size in sorted({0, 1, 2, p // 3, p - 1, p}):
            s = ResidueSet.of(p, rng.sample(range(p), size))
            assert difference_multiset(s) == double_loop_differences(s)
            for d in (*range(-2, 3), p - 1, p, p + 5, rng.randrange(-3 * p, 3 * p)):
                assert translate_intersection(s, d) == double_loop_translate(s, d)


def test_differences_of_every_residue():
    # all of Z_p: every difference occurs p times, at the largest modulus
    p = 99991  # the largest prime the CLI accepts
    diffs = difference_multiset(ResidueSet.of(p, range(p)))
    assert len(diffs) == p and set(diffs.values()) == {p}


def test_residue_set_rejects_collisions():
    with pytest.raises(ValueError, match="collide"):
        ResidueSet.of(13, [2, 15])


def test_residue_set_requires_prime_modulus():
    with pytest.raises(ValueError, match="not prime"):
        ResidueSet.of(12, [1, 2])


# ---------------------------------------------------------------------------
# orbit clique certificate

def test_b8_certificate():
    cert = orbit_clique_certificate(TWO_FIBRE_BLOCK.split())
    assert cert.a_part.elements == (2, 5, 6)
    assert cert.b_part.elements == (4, 10, 12)
    assert cert.pairwise_intersecting
    assert all(total == 1 for total in cert.shift_totals.values())
    assert cert.a_part_diffs[0] == 3 and cert.b_part_diffs[0] == 3


def test_certificate_matches_direct_intersections(main66):
    cert = orbit_clique_certificate(TWO_FIBRE_BLOCK.split())
    assert set(orbit_clique_members(main66)) <= set(range(main66.b))
    by_shift = {}
    for e in range(13):
        pts = set()
        for tok in TWO_FIBRE_BLOCK.split():
            v, t = tok.split("_")
            pts.add(main66.label_index[f"{(int(v) + e) % 13}_{t}"])
        by_shift[e] = pts
    for e1, e2 in combinations(range(13), 2):
        shared = len(by_shift[e1] & by_shift[e2])
        d = (e2 - e1) % 13
        assert shared == cert.shift_totals[d] == 1
        # symmetry of the certificate: the reverse shift agrees
        assert cert.shift_totals[(e1 - e2) % 13] == shared


def test_certificate_disjoint_translates_fail():
    blk = "0_a 0_b".split()
    cert = orbit_clique_certificate(blk)
    assert not cert.pairwise_intersecting
    assert all(total == 0 for total in cert.shift_totals.values())


def test_certificate_rejects_other_tags():
    with pytest.raises(ValueError, match="tags a and b"):
        orbit_clique_certificate("2_0 5_0 4_1 9_1 0_a 6_a".split())
    with pytest.raises(ValueError, match="not a residue token: 'inf'"):
        orbit_clique_certificate("inf 0_a 0_b".split())


# ---------------------------------------------------------------------------
# thresholds and families

def test_gm_threshold_m6():
    assert gm_threshold(6) == 156
    assert not only_canonical_guaranteed(66, 6)
    assert only_canonical_guaranteed(157, 6)
    assert not only_canonical_guaranteed(156, 6)


def test_projective_d3_meets_threshold_exactly():
    for q in (2, 3, 4, 5, 7, 8, 9):
        p = projective_params(3, q)
        assert p.n == gm_threshold(p.m)


def test_unital_below_threshold():
    for t in range(2, 21):
        p = unital_params(t)
        assert p.n < gm_threshold(p.m)


def test_affine_params():
    assert (affine_params(2, 3).n, affine_params(2, 3).m) == (9, 3)
    d = builtin_design("ag23")
    assert (d.n, d.m) == (9, 3)
    # d >= 3 affine spaces are above the threshold
    p = affine_params(3, 4)
    assert only_canonical_guaranteed(p.n, p.m)


def test_denniston_examples():
    p = denniston_params(2, 3)
    assert (p.n, p.m) == (28, 4)
    assert denniston_may_have_noncanonical(2, 3)
    p = denniston_params(2, 5)
    assert (p.n, p.m) == (100, 4)
    assert not denniston_may_have_noncanonical(2, 5)


def test_denniston_equivalence_exhaustive():
    for r in range(2, 12):
        for s in range(r + 1, 13):
            p = denniston_params(r, s)
            assert (s < 2 * r) == (p.n <= gm_threshold(p.m))
            assert denniston_may_have_noncanonical(r, s) == (s < 2 * r)


def test_denniston_large_values_exact():
    p = denniston_params(4, 7)
    assert p.n == 2**11 + 2**4 - 2**7
    p = denniston_params(10, 19)
    assert p.n == 2**29 + 2**10 - 2**19  # arbitrary precision, no overflow


def test_family_dispatch_and_validation():
    assert family_params("projective", 3, 2).n == 15
    with pytest.raises(ValueError, match="prime power"):
        family_params("affine", 2, 6)
    with pytest.raises(ValueError, match="prime power"):
        family_params("projective", 2, 10)
    with pytest.raises(ValueError):
        family_params("denniston", 3, 3)
    with pytest.raises(ValueError):
        family_params("unital", 1)
    with pytest.raises(ValueError, match="unknown family"):
        family_params("grassmann", 4, 2)


@pytest.mark.parametrize(
    "family, args",
    [("affine", (2,)), ("projective", (1, 2, 3)), ("unital", ()), ("denniston", (2, 3, 4))],
)
def test_family_wrong_arity_names_the_count(family, args):
    count = 1 if family == "unital" else 2
    with pytest.raises(ValueError, match=rf"{family} takes {count} argument"):
        family_params(family, *args)


def test_is_prime_power():
    def oracle(q):
        for p in range(2, q + 1):
            if all(p % d for d in range(2, p)):
                x = p
                while x < q:
                    x *= p
                if x == q:
                    return True
        return False

    for q in range(0, 200):
        assert is_prime_power(q) == oracle(q), q
