"""Structured point labels: Z13 residues in five tagged fibres, plus one infinity point.

The 66-point universe is Z13 x {0, 1, 2, a, b} together with ``inf``.  A
residue point is written ``<value>_<tag>`` (``2_0``, ``11_a``); the infinity
point is written ``inf``.  Points carry a fixed total order: tags in the
order 0 < 1 < 2 < a < b, residues ordered by (tag, value), and ``inf``
greatest.  That order is what assigns dense indices to built-in designs.
"""

from __future__ import annotations

from collections import namedtuple

MODULUS = 13
TAGS = ("0", "1", "2", "a", "b")
INF_TOKEN = "inf"

_TAG_RANK = {t: i for i, t in enumerate(TAGS)}


class StructuredPoint(namedtuple("StructuredPoint", "value tag")):
    """A residue point ``value_tag`` or the infinity point (value/tag None),
    ordered by :meth:`sort_key`, never by the inherited tuple comparison."""

    __slots__ = ()

    def __new__(cls, value: int | None, tag: str | None):
        if (value is None) != (tag is None):
            raise ValueError("residue points need both value and tag")
        if tag is not None:
            if tag not in _TAG_RANK:
                raise ValueError(f"unknown tag {tag!r}")
            value %= MODULUS
        return tuple.__new__(cls, (value, tag))

    @classmethod
    def _make(cls, fields):  # what _replace builds through: validate here too
        return cls(*fields)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def shifted(self, e: int) -> "StructuredPoint":
        """Add e (mod 13) to the residue value; infinity is fixed."""
        if self.is_infinity:
            return self
        return StructuredPoint((self.value + e) % MODULUS, self.tag)

    def sort_key(self) -> tuple[int, int]:
        if self.is_infinity:
            return (len(TAGS), 0)
        return (_TAG_RANK[self.tag], self.value)

    def __lt__(self, other: "StructuredPoint") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "StructuredPoint") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "StructuredPoint") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "StructuredPoint") -> bool:
        return self.sort_key() >= other.sort_key()

    def token(self) -> str:
        if self.is_infinity:
            return INF_TOKEN
        return f"{self.value}_{self.tag}"

    def __str__(self) -> str:
        return self.token()


INFINITY = StructuredPoint(None, None)


def parse_point(token: str) -> StructuredPoint:
    """Parse ``<v>_<t>`` or ``inf`` into a StructuredPoint."""
    token = token.strip()
    if token == INF_TOKEN:
        return INFINITY
    head, sep, tag = token.partition("_")
    if not sep or tag not in _TAG_RANK or not head.isdigit():
        raise ValueError(f"not a structured point token: {token!r}")
    return StructuredPoint(int(head), tag)


def parse_block(text: str) -> tuple[StructuredPoint, ...]:
    """Parse a whitespace-separated run of point tokens."""
    return tuple(parse_point(tok) for tok in text.split())


def point_universe() -> tuple[StructuredPoint, ...]:
    """All 66 points in the fixed total order (dense index order)."""
    pts = [StructuredPoint(v, t) for t in TAGS for v in range(MODULUS)]
    pts.append(INFINITY)
    return tuple(pts)
