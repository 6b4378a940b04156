"""Point-line designs PG(d,p) and AG(d,p) over a prime field, as blocklist text.

Points of PG(d,p) are the non-zero vectors of F_p^(d+1) normalised so that
their first non-zero coordinate is 1; points of AG(d,p) are the vectors of
F_p^d.  A line is the set of points on the span of two points (projective)
or on a translate of a one-dimensional subspace (affine).  Only prime p is
supported, so all arithmetic is integer arithmetic mod p.

Run as a script to print one design:

    python3 perfbench/geometry.py projective 3 5 > pg35.blk
"""

from __future__ import annotations

import sys
from itertools import product


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, int(p**0.5) + 1))


def _normalise(vec: tuple[int, ...], p: int) -> tuple[int, ...]:
    lead = next(x for x in vec if x)
    inv = pow(lead, -1, p)
    return tuple(x * inv % p for x in vec)


def _projective_points(dim: int, p: int) -> list[tuple[int, ...]]:
    return sorted({_normalise(v, p) for v in product(range(p), repeat=dim + 1) if any(v)})


def projective_lines(d: int, p: int) -> tuple[list[tuple[int, ...]], list[frozenset[int]]]:
    """Points and lines of PG(d,p); lines are sets of point indices."""
    points = _projective_points(d, p)
    index = {pt: i for i, pt in enumerate(points)}
    lines: set[frozenset[int]] = set()
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            span = {index[a]}
            for t in range(p):
                span.add(index[_normalise(tuple((y + t * x) % p for x, y in zip(a, b)), p)])
            lines.add(frozenset(span))
    return points, sorted(lines, key=sorted)


def affine_lines(d: int, p: int) -> tuple[list[tuple[int, ...]], list[frozenset[int]]]:
    """Points and lines of AG(d,p); lines are sets of point indices."""
    points = list(product(range(p), repeat=d))
    index = {pt: i for i, pt in enumerate(points)}
    directions = _projective_points(d - 1, p)
    lines = {
        frozenset(
            index[tuple((x + t * y) % p for x, y in zip(base, direction))] for t in range(p)
        )
        for base in points
        for direction in directions
    }
    return points, sorted(lines, key=sorted)


def expected_counts(family: str, d: int, q: int) -> tuple[int, int, int]:
    """Closed-form (points, lines, points per line) of PG(d,q) or AG(d,q)."""
    if family == "projective":
        points = (q ** (d + 1) - 1) // (q - 1)
        lines = (q ** (d + 1) - 1) * (q**d - 1) // ((q * q - 1) * (q - 1))
        return points, lines, q + 1
    if family == "affine":
        return q**d, q ** (d - 1) * (q**d - 1) // (q - 1), q
    raise ValueError(f"unknown family {family!r}")


def design_text(family: str, d: int, p: int) -> str:
    """Blocklist text of PG(d,p) or AG(d,p), checked against the closed forms.

    Tokens are point indices in sorted-vector order; the ``points:`` header
    declares the point count so the parser checks it too.
    """
    if d < 2 or not _is_prime(p):
        raise ValueError(f"need d >= 2 and prime p, got d={d}, p={p}")
    build = projective_lines if family == "projective" else affine_lines
    points, lines = build(d, p)
    want = expected_counts(family, d, p)
    got = (len(points), len(lines), {len(line) for line in lines})
    if got != (want[0], want[1], {want[2]}):
        raise AssertionError(f"{family} ({d},{p}): generated {got}, closed form {want}")
    body = "".join(" ".join(str(i) for i in sorted(line)) + "\n" for line in lines)
    return f"points: {len(points)}\n" + body


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("projective", "affine"):
        sys.exit("usage: geometry.py projective|affine D P")
    sys.stdout.write(design_text(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
