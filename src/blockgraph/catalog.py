"""Built-in designs and their known automorphism generators.

``main66`` is developed from its 11 base blocks over Z13, ``fano`` and
``pg23`` from the perfect difference sets {0,1,3} mod 7 and {0,1,3,9}
mod 13, all three by :func:`develop_base_blocks`; the two appendix designs
are parsed from embedded block listings; ``ag23`` is the affine plane of
order 3.  The small designs serve as oracles in tests.
"""

from __future__ import annotations

import pkgutil

from .design import Design, develop_base_blocks, make_design, parse_design

# The 11 base blocks of the 66-point design.  Developing each one through
# Z13 (tags fixed, infinity fixed) yields the 143 blocks.
BASE_BLOCKS = (
    "2_0 5_0 4_1 9_1 0_a 6_a",
    "1_0 2_0 6_0 12_2 5_b 8_b",
    "6_1 2_1 12_2 1_2 0_a 5_a",
    "3_1 6_1 5_1 10_0 2_b 11_b",
    "5_2 6_2 10_0 3_0 0_a 2_a",
    "9_2 5_2 2_2 4_1 6_b 7_b",
    "7_0 9_0 10_1 1_2 3_a 4_b",
    "2_a 6_a 5_a 4_b 12_b 10_b",
    "8_1 1_1 4_2 3_0 9_a 12_b",
    "11_2 3_2 12_0 9_1 1_a 10_b",
    "inf 0_0 0_1 0_2 0_a 0_b",
)

# Generators of the order-39 automorphism group of main66, in cycle notation
# over point tokens (points not listed are fixed).
GENERATOR_FIBRE_ROTATION = (
    "(0_0 10_1 1_2)(1_0 0_1 10_2)(2_0 3_1 6_2)(3_0 6_1 2_2)(4_0 9_1 11_2)"
    "(5_0 12_1 7_2)(6_0 2_1 3_2)(7_0 5_1 12_2)(8_0 8_1 8_2)(9_0 11_1 4_2)"
    "(10_0 1_1 0_2)(11_0 4_1 9_2)(12_0 7_1 5_2)"
    "(0_a 10_a 1_a)(2_a 3_a 6_a)(4_a 9_a 11_a)(5_a 12_a 7_a)"
    "(0_b 10_b 1_b)(2_b 3_b 6_b)(4_b 9_b 11_b)(5_b 12_b 7_b)"
)
GENERATOR_RESIDUE_SHIFT = "".join(
    "(" + " ".join(f"{v}_{t}" for v in range(13)) + ")" for t in ("0", "1", "2", "a", "b")
)

# Known automorphism generators (cycle notation) of the builtins that have any
BUILTIN_GENERATORS = {"main66": (GENERATOR_FIBRE_ROTATION, GENERATOR_RESIDUE_SHIFT)}

BUILTIN_NAMES = ("main66", "appendixA66", "appendixB66", "fano", "ag23", "pg23")

# Representative non-canonical maximum cliques listed for the appendix
# designs, as token blocks, together with their 13 intersecting points.
APPENDIX_REPRESENTATIVE_CLIQUES = {
    "appendixA66": (
        (
            "1 2 15 28 41 54", "9 27 32 34 54 55", "1 3 16 29 42 55",
            "20 24 28 47 55 58", "1 6 19 32 45 58", "12 14 28 29 34 45",
            "17 18 28 32 42 60", "1 8 21 34 47 60", "11 26 29 32 41 47",
            "4 23 41 45 55 60", "22 25 34 41 42 58", "7 13 42 45 47 54",
            "5 10 29 54 58 60",
        ),
        ("1", "28", "29", "32", "34", "41", "42", "45", "47", "54", "55", "58", "60"),
    ),
    "appendixB66": (
        (
            "4 19 28 38 42 62", "8 26 36 41 42 64", "7 13 29 54 62 64",
            "1 2 15 28 41 54", "20 21 41 51 55 62", "1 3 16 29 42 55",
            "9 11 28 29 36 51", "17 27 29 38 41 49", "6 14 42 49 51 54",
            "18 22 36 38 54 55", "1 10 23 36 49 62", "5 24 28 49 55 64",
            "1 12 25 38 51 64",
        ),
        ("1", "28", "29", "36", "38", "41", "42", "49", "51", "54", "55", "62", "64"),
    ),
}


def _affine_plane_order3() -> Design:
    """Lines of AG(2,3): a 2-(9,3,1) design, point (x,y) labelled str(3x+y)."""
    labels = [str(i) for i in range(9)]

    def cell(x, y):
        return str(3 * (x % 3) + y % 3)

    blocks = [[cell(x, a * x + b) for x in range(3)] for a in range(3) for b in range(3)]
    blocks += [[cell(c, y) for y in range(3)] for c in range(3)]
    return make_design(labels, blocks, name="ag23")


def builtin_design(name: str) -> Design:
    """Construct one of the embedded designs by name."""
    if name == "main66":
        return develop_base_blocks([b.split() for b in BASE_BLOCKS], 13, "main66")
    if name in ("appendixA66", "appendixB66"):
        fname = "appendix_a.blk" if name == "appendixA66" else "appendix_b.blk"
        text = pkgutil.get_data("blockgraph", f"data/{fname}").decode()
        return parse_design(text, "blocklist", name=name)
    if name == "fano":
        return develop_base_blocks([("0", "1", "3")], 7, "fano")
    if name == "ag23":
        return _affine_plane_order3()
    if name == "pg23":
        return develop_base_blocks([("0", "1", "3", "9")], 13, "pg23")
    raise ValueError(f"unknown builtin design {name!r}; know {BUILTIN_NAMES}")

