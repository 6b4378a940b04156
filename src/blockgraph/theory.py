"""Residue arithmetic behind the difference-set clique argument, and the
parameter thresholds governing when non-canonical maximum cliques can exist.

Everything here is exact integer arithmetic; exponentials use python's
arbitrary precision, so no overflow and no floats.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .design import residue_token

MAX_MODULUS = 100_000  # squares lists (p-1)/2 residues; primality tests are trial division
MAX_EXPONENT = 64  # family dimensions and Denniston r, s: they feed q**(d+1) and 2**(r+s)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def is_prime_power(q: int) -> bool:
    """Trial factorization; q is a prime power iff it has one prime divisor."""
    if q < 2:
        return False
    d = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    while q % d == 0:
        q //= d
    return q == 1


class ResidueSet(NamedTuple):
    """A duplicate-free subset of Z_p, stored sorted and reduced."""

    modulus: int
    elements: tuple[int, ...]

    @staticmethod
    def of(modulus: int, elements) -> "ResidueSet":
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        elements = list(elements)
        reduced = sorted({e % modulus for e in elements})
        if len(reduced) != len(elements):
            raise ValueError("elements collide after reduction mod p")
        return ResidueSet(modulus, tuple(reduced))

    def scale(self, c: int) -> "ResidueSet":
        return ResidueSet.of(self.modulus, [c * e for e in self.elements])


def squares_mod(p: int) -> ResidueSet:
    """Nonzero quadratic residues mod an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return ResidueSet(p, tuple(sorted({i * i % p for i in range(1, p)})))


def nonsquares_mod(p: int) -> ResidueSet:
    sq = set(squares_mod(p).elements)
    return ResidueSet(p, tuple(i for i in range(1, p) if i not in sq))


def _overlap(s: ResidueSet):
    """d -> |(d + s) ∩ s|: s held as a bitmask of Z_p, rotated by d, ANDed
    with itself and popcounted."""
    p = s.modulus
    digits = bytearray(b"0" * p)
    for e in s.elements:
        digits[-1 - e] = ord("1")  # bit e
    mask = int(digits, 2)
    return lambda d: (mask & (mask << d % p | mask >> (p - d % p))).bit_count()


def difference_multiset(s: ResidueSet) -> Counter:
    """Multiset {a - b mod p : a, b in s}, zero differences included; d occurs
    |(d + s) ∩ s| times."""
    overlap = _overlap(s)
    return Counter({d: c for d in range(s.modulus) if (c := overlap(d))})


def translate_intersection(s: ResidueSet, d: int) -> int:
    """|(d + s) ∩ s|; for d != 0 this equals the multiplicity of d in s - s."""
    return _overlap(s)(d)


class OrbitCliqueCertificate(NamedTuple):
    """Why the 13 translates of a two-fibre base block pairwise intersect.

    ``shift_totals[d]`` is how many points block B and its d-shift share;
    the translates form a clique iff every nonzero total is positive.
    """

    a_part: ResidueSet
    b_part: ResidueSet
    a_part_diffs: dict[int, int]
    b_part_diffs: dict[int, int]
    shift_totals: dict[int, int]
    pairwise_intersecting: bool


def orbit_clique_certificate(base_block, p: int = 13) -> OrbitCliqueCertificate:
    """Certify the clique property of a base block's Z_p orbit by differences.

    ``base_block`` is a sequence of residue tokens (``2_a``, ``10_b``); the
    block must split into residues tagged ``a`` and residues tagged ``b``.
    The shared-point count of B and B+d is then the number of ways d occurs
    as a difference within each tagged part.
    """
    parts: dict[str, list[int]] = {}
    for token in base_block:
        tag, value = residue_token(token, p)
        parts.setdefault(tag, []).append(value)
    if sorted(parts) != ["a", "b"]:
        raise ValueError(
            f"base block must split into tags a and b, found {sorted(parts)}"
        )
    a_part = ResidueSet.of(p, parts["a"])
    b_part = ResidueSet.of(p, parts["b"])
    totals = {
        d: translate_intersection(a_part, d) + translate_intersection(b_part, d)
        for d in range(1, p)
    }
    return OrbitCliqueCertificate(
        a_part=a_part,
        b_part=b_part,
        a_part_diffs=dict(sorted(difference_multiset(a_part).items())),
        b_part_diffs=dict(sorted(difference_multiset(b_part).items())),
        shift_totals=totals,
        pairwise_intersecting=all(t >= 1 for t in totals.values()),
    )


# ---------------------------------------------------------------------------
# parameter thresholds and design families

def gm_threshold(m: int) -> int:
    """Above m^3 - 2m^2 + 2m points, only canonical maximum cliques exist."""
    if m < 2:
        raise ValueError("block size must be at least 2")
    return m**3 - 2 * m**2 + 2 * m


def only_canonical_guaranteed(n: int, m: int) -> bool:
    return n > gm_threshold(m)


class FamilyParams(NamedTuple):
    family: str
    args: tuple[int, ...]
    n: int
    m: int


def _check_space(family: str, d: int, q: int) -> None:
    if not 2 <= d <= MAX_EXPONENT:
        raise ValueError(f"{family} dimension must be in 2..{MAX_EXPONENT}")
    if not (q <= MAX_MODULUS and is_prime_power(q)):
        raise ValueError(f"{q} is not a prime power in 2..{MAX_MODULUS}")


def affine_params(d: int, q: int) -> FamilyParams:
    """Point-line design of AG(d,q): 2-(q^d, q, 1)."""
    _check_space("affine", d, q)
    return FamilyParams("affine", (d, q), q**d, q)


def projective_params(d: int, q: int) -> FamilyParams:
    """Point-line design of PG(d,q): 2-((q^(d+1)-1)/(q-1), q+1, 1)."""
    _check_space("projective", d, q)
    return FamilyParams("projective", (d, q), (q ** (d + 1) - 1) // (q - 1), q + 1)


def unital_params(t: int) -> FamilyParams:
    """A unital is a 2-(t^3+1, t+1, 1) design."""
    if not 2 <= t <= MAX_MODULUS:
        raise ValueError(f"unital parameter must be in 2..{MAX_MODULUS}")
    return FamilyParams("unital", (t,), t**3 + 1, t + 1)


def denniston_params(r: int, s: int) -> FamilyParams:
    """Denniston design: 2-(2^(r+s) + 2^r - 2^s, 2^r, 1) with 2 <= r < s."""
    if not 2 <= r < s <= MAX_EXPONENT:
        raise ValueError(f"need 2 <= r < s <= {MAX_EXPONENT}")
    return FamilyParams("denniston", (r, s), 2 ** (r + s) + 2**r - 2**s, 2**r)


# family -> (parameter function, argument names)
_FAMILIES = {
    "affine": (affine_params, ("d", "q")),
    "projective": (projective_params, ("d", "q")),
    "unital": (unital_params, ("t",)),
    "denniston": (denniston_params, ("r", "s")),
}


def family_params(family: str, *args: int) -> FamilyParams:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; know {sorted(_FAMILIES)}")
    params, names = _FAMILIES[family]
    if len(args) != len(names):
        raise ValueError(
            f"{family} takes {len(names)} argument{'s' * (len(names) > 1)} "
            f"({','.join(names)}), got {len(args)}"
        )
    return params(*args)


def denniston_may_have_noncanonical(r: int, s: int) -> bool:
    """The threshold inequality n <= m^3-2m^2+2m holds iff s < 2r."""
    params = denniston_params(r, s)
    flag = s < 2 * r
    if flag != (not only_canonical_guaranteed(params.n, params.m)):
        raise AssertionError(
            f"denniston predicate disagrees with the threshold at (r,s)=({r},{s})"
        )
    return flag
