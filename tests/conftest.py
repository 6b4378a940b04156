import random
import re
from itertools import combinations, product

import pytest

from blockgraph import BlockGraph, builtin_design, census_report, make_design, parse_design
from blockgraph.report import builtin_generators

# ---------------------------------------------------------------------------
# acceptance summary: one pass/fail line per criterion at the end of the run

_acceptance_outcomes = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    match = re.match(r"test_criterion_(\d+)_(\w+)", item.name)
    if match and report.when == "call":
        number = int(match.group(1))
        label = match.group(2).replace("_", " ")
        _acceptance_outcomes[number] = (label, report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_outcomes):
        label, passed = _acceptance_outcomes[number]
        terminalreporter.write_line(
            f"{'PASS' if passed else 'FAIL'}  criterion {number:2d}: {label}"
        )


def members_from_tokens(design, token_blocks):
    """Clique members (block indices) from whitespace-separated token blocks."""
    out = []
    for blk in token_blocks:
        idx = tuple(sorted(design.label_index[tok] for tok in blk.split()))
        out.append(design.block_index[idx])
    return tuple(sorted(out))


def induced_subgraph(graph, vertices):
    """Subgraph induced on the given vertices, relabelled 0..k-1 in sorted order."""
    verts = sorted(vertices)
    rows = tuple(
        sum(1 << b for b, j in enumerate(verts) if a != b and graph.adjacent(i, j))
        for a, i in enumerate(verts)
    )
    return BlockGraph(len(verts), rows)


def same_group(a, b):
    """Equal orders and each side's generators in the other side's group."""
    return (
        a.order == b.order
        and all(g in b for g in a.generators)
        and all(g in a for g in b.generators)
    )


def point_line_blocklist(family, d, p):
    """Blocklist text of the lines of PG(d,p) or AG(d,p) over the prime field Z_p.

    A projective point is a nonzero vector of length d+1 scaled so that its
    first nonzero coordinate is 1; an affine point is any vector of length d
    and an affine line is a point plus all multiples of a direction.  A point's
    token is v and its coordinates, joined by _ when p > 10.
    """
    def normal(vec):
        inv = pow(next(x for x in vec if x), -1, p)
        return tuple(x * inv % p for x in vec)

    def combine(s, x, t, y):
        return tuple((s * a + t * b) % p for a, b in zip(x, y))

    if family == "projective":
        points = sorted({normal(v) for v in product(range(p), repeat=d + 1) if any(v)})
        # the line through x and y is x and every y + t x; a point already on
        # a line through x needs no line of its own
        lines = set()
        for i, x in enumerate(points):
            covered = set()
            for y in points[i + 1:]:
                if y not in covered:
                    line = frozenset([x, *(normal(combine(1, y, t, x)) for t in range(p))])
                    lines.add(line)
                    covered |= line
    else:
        directions = {normal(v) for v in product(range(p), repeat=d) if any(v)}
        lines = {
            frozenset(combine(1, x, t, u) for t in range(p))
            for x in product(range(p), repeat=d)
            for u in directions
        }
    sep = "" if p <= 10 else "_"  # coordinates of one digit need no separator
    blocks = sorted(" ".join(sorted("v" + sep.join(map(str, pt)) for pt in line)) for line in lines)
    return "".join(blk + "\n" for blk in blocks)


def random_blocklists(seed=20261018, count=24):
    """3-uniform blocklists on 7-9 points; blocks may share two points."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(7, 9)
        labels = [f"p{i}" for i in range(n)]
        triples = list(combinations(labels, 3))
        yield make_design(labels, rng.sample(triples, rng.randint(4, 10)), name=f"random{k}")


# The 13 blocks of the non-canonical clique analysed in detail for main66
# (one translate of each of nine base blocks plus four translates of the
# block through infinity).
PLANE_CLIQUE_BLOCKS = (
    "0_0 3_0 2_1 7_1 11_a 4_a",
    "2_0 3_0 7_0 0_2 6_b 9_b",
    "7_1 3_1 0_2 2_2 1_a 6_a",
    "0_1 3_1 2_1 7_0 12_b 8_b",
    "2_2 3_2 7_0 0_0 10_a 12_a",
    "7_2 3_2 0_2 2_1 4_b 5_b",
    "0_0 2_0 3_1 7_2 9_a 10_b",
    "7_1 0_1 3_2 2_0 8_a 11_b",
    "2_2 7_2 3_0 0_1 5_a 1_b",
    "inf 0_0 0_1 0_2 0_a 0_b",
    "inf 2_0 2_1 2_2 2_a 2_b",
    "inf 3_0 3_1 3_2 3_a 3_b",
    "inf 7_0 7_1 7_2 7_a 7_b",
)

TWO_FIBRE_BLOCK = "2_a 6_a 5_a 4_b 12_b 10_b"


def orbit_clique_members(design):
    """The 13 translates of the two-fibre base block, as block indices."""
    blocks = []
    for e in range(13):
        toks = []
        for tok in TWO_FIBRE_BLOCK.split():
            v, t = tok.split("_")
            toks.append(f"{(int(v) + e) % 13}_{t}")
        blocks.append(" ".join(toks))
    return members_from_tokens(design, blocks)


@pytest.fixture(scope="session")
def main66():
    return builtin_design("main66")


@pytest.fixture(scope="session")
def main66_census(main66):
    return census_report(main66)


@pytest.fixture(scope="session")
def main66_generators(main66):
    return builtin_generators(main66, "main66")


@pytest.fixture(scope="session")
def pg32():
    return parse_design(point_line_blocklist("projective", 3, 2), name="PG(3,2)")


@pytest.fixture(scope="session")
def ag33():
    return parse_design(point_line_blocklist("affine", 3, 3), name="AG(3,3)")


@pytest.fixture(scope="session")
def appendix_a():
    return builtin_design("appendixA66")


@pytest.fixture(scope="session")
def appendix_b():
    return builtin_design("appendixB66")


@pytest.fixture(scope="session")
def appendix_a_census(appendix_a):
    return census_report(appendix_a)


@pytest.fixture(scope="session")
def appendix_b_census(appendix_b):
    return census_report(appendix_b)
