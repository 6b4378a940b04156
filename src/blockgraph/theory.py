"""Residue arithmetic behind the difference-set clique argument, and the
parameter thresholds governing when non-canonical maximum cliques can exist.

Everything here is exact integer arithmetic; exponentials use python's
arbitrary precision, so no overflow and no floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .points import StructuredPoint


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def is_prime_power(q: int) -> bool:
    """Trial factorization; q is a prime power iff it has one prime divisor."""
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            while q % d == 0:
                q //= d
            return q == 1
        d += 1
    return True  # q itself is prime


@dataclass(frozen=True)
class ResidueSet:
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

    def translate(self, d: int) -> "ResidueSet":
        return ResidueSet(
            self.modulus, tuple(sorted((e + d) % self.modulus for e in self.elements))
        )

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


def difference_multiset(s: ResidueSet) -> Counter:
    """Multiset {a - b mod p : a, b in s}, zero differences included."""
    out: Counter = Counter()
    for a in s.elements:
        for b in s.elements:
            out[(a - b) % s.modulus] += 1
    return out


def translate_intersection(s: ResidueSet, d: int) -> int:
    """|(d + s) ∩ s|; for d != 0 this equals the multiplicity of d in s - s."""
    base = set(s.elements)
    return sum(1 for e in s.elements if (e + d) % s.modulus in base)


@dataclass(frozen=True)
class OrbitCliqueCertificate:
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
    """Certify the clique property of a base block's Z13 orbit by differences.

    The block must split into residues tagged ``a`` and residues tagged
    ``b``; the shared-point count of B and B+d is then the number of ways d
    occurs as a difference within each tagged part.
    """
    parts: dict[str, list[int]] = {}
    for point in base_block:
        if not isinstance(point, StructuredPoint) or point.is_infinity:
            raise ValueError("base block must consist of finite structured points")
        parts.setdefault(point.tag, []).append(point.value)
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


@dataclass(frozen=True)
class FamilyParams:
    family: str
    args: tuple[int, ...]
    n: int
    m: int


def affine_params(d: int, q: int) -> FamilyParams:
    """Point-line design of AG(d,q): 2-(q^d, q, 1)."""
    if d < 2:
        raise ValueError("affine dimension must be at least 2")
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    return FamilyParams("affine", (d, q), q**d, q)


def projective_params(d: int, q: int) -> FamilyParams:
    """Point-line design of PG(d,q): 2-((q^(d+1)-1)/(q-1), q+1, 1)."""
    if d < 2:
        raise ValueError("projective dimension must be at least 2")
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    return FamilyParams("projective", (d, q), (q ** (d + 1) - 1) // (q - 1), q + 1)


def unital_params(t: int) -> FamilyParams:
    """A unital is a 2-(t^3+1, t+1, 1) design."""
    if t < 2:
        raise ValueError("unital parameter must be at least 2")
    return FamilyParams("unital", (t,), t**3 + 1, t + 1)


def denniston_params(r: int, s: int) -> FamilyParams:
    """Denniston design: 2-(2^(r+s) + 2^r - 2^s, 2^r, 1) with 2 <= r < s."""
    if not 2 <= r < s:
        raise ValueError("need 2 <= r < s")
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
