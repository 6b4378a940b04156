"""Expected results, typed by hand, for every design the benchmark analyses.

None of these values is read from program output.  The 66-point entries are
the paper's numbers; the geometric entries follow from the closed forms for
point-line designs (a clique of lines is either all lines through a point or
all lines of a plane); the group orders are those of the symmetric groups
(complete block graphs), of S3 wr S4 (the complete 4-partite block graph of
AG(2,3)), of AGL(3,3), and of PGL(4,q) extended by the Klein duality.

``cliques`` is (total, canonical, non-canonical); ``subdesigns`` counts the
maximum cliques whose blocks form a 2-design on their support.  AG(2,5) has
none: six blocks of size 5 would need a support of v points with
v(v-1) = 6*5*4, which has no integer solution.
"""

from __future__ import annotations

import json

_PAPER66 = {
    "valid": True, "n": 66, "m": 6, "blocks": 143, "replication": 13,
    "srg": (143, 72, 36, 36), "s_eig": -6, "delsarte": 13, "omega": 13,
    "cliques": (80, 66, 14), "subdesigns": 0, "aut_order": 39,
}

ORACLES = {
    "main66": {
        **_PAPER66,
        "group_order": 39,
        "point_orbits": (39, 13, 13, 1),
        "block_orbits": (39, 39, 39, 13, 13),
        "equals_design_group": True,
    },
    "appendixA66": dict(_PAPER66),
    "appendixB66": dict(_PAPER66),
    "PG(3,5)": {
        "valid": True, "n": 156, "m": 6, "blocks": 806, "replication": 31,
        "srg": (806, 180, 54, 36), "omega": 31, "cliques": (312, 156, 156),
        "subdesigns": 156,
    },
    "PG(4,3)": {
        "valid": True, "n": 121, "m": 4, "blocks": 1210, "replication": 40,
        "srg": (1210, 156, 47, 16), "omega": 40, "cliques": (121, 121, 0),
        "subdesigns": 0,
    },
    "AG(4,3)": {
        "valid": True, "n": 81, "m": 3, "blocks": 1080, "replication": 40,
        "srg": (1080, 117, 42, 9), "omega": 40, "cliques": (81, 81, 0),
        "subdesigns": 0,
    },
    "AG(2,5)": {
        "valid": True, "n": 25, "m": 5, "blocks": 30, "replication": 6,
        "srg": (30, 25, 20, 25), "omega": 6, "cliques": (15625, 25, 15600),
        "subdesigns": 0,
    },
    "fano": {"valid": True, "n": 7, "m": 3, "blocks": 7, "aut_order": 5040},
    "ag23": {"valid": True, "n": 9, "m": 3, "blocks": 12, "aut_order": 31104},
    "PG(3,2)": {"valid": True, "n": 15, "m": 3, "blocks": 35, "aut_order": 40320},
    "pg23": {"valid": True, "n": 13, "m": 4, "blocks": 13, "aut_order": 6227020800},
    "AG(3,3)": {"valid": True, "n": 27, "m": 3, "blocks": 117, "aut_order": 303264},
    "PG(3,3)": {"valid": True, "n": 40, "m": 4, "blocks": 130, "aut_order": 24261120},
}


def mismatches(name: str, structured: str, text: str, claims) -> list[str]:
    """Every way one design's rendered report differs from its oracle.

    Reads the structured rendering (so the renderer is checked too), the
    clique census line of the text rendering, and, for the 66-point designs,
    the program's own paper-claim check, which must pass in full.
    """
    exp = ORACLES[name]
    doc = json.loads(structured)
    design, srg, cliques = doc["design"], doc["srg"], doc["cliques"]
    got = {
        "valid": design["valid"],
        "n": design["n"],
        "m": design["m"],
        "blocks": design["blocks"],
        "replication": design["replication"],
        "srg": None if srg is None else (srg["v"], srg["k"], srg["lambda"], srg["mu"]),
        "s_eig": None if srg is None else srg["s_eig"],
        "delsarte": doc["delsarte_bound"],
        "omega": doc["clique_number"],
        "cliques": (cliques["total"], cliques["canonical"], cliques["noncanonical"]),
        "subdesigns": sum(r["subdesign"]["is_design"] for r in cliques["records"]),
    }
    if doc["automorphisms"] is not None:
        got["aut_order"] = doc["automorphisms"]["order"]
        got["equals_design_group"] = doc["automorphisms"]["equals_design_group"]
    if doc["group"] is not None:
        got["group_order"] = doc["group"]["order"]
        got["point_orbits"] = tuple(doc["group"]["point_orbit_lengths"])
        got["block_orbits"] = tuple(doc["group"]["block_orbit_lengths"])
    bad = [
        f"{name}: {key} = {got.get(key)!r}, expected {want!r}"
        for key, want in exp.items()
        if got.get(key) != want
    ]
    total, canonical, noncanonical = exp.get("cliques", got["cliques"])
    line = f"maximum cliques: {total} = {canonical} canonical + {noncanonical} non-canonical"
    if line not in text:
        bad.append(f"{name}: text rendering lacks {line!r}")
    if claims is not None:
        bad.extend(f"{name}: paper claim failed: {label} (found {actual})"
                   for label, ok, actual in claims if not ok)
    return bad
