import random
import re
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from blockgraph import (
    BlockGraph, SrgParams, builtin_design, census_report, close_group, make_design, parse_design,
)
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


def adjacent(graph, i, j):
    return bool(graph.rows[i] >> j & 1)


def powerset_cliques(graph):
    """Every non-empty vertex subset that is a clique, in mask order."""
    return [
        members
        for mask in range(1, 1 << graph.v)
        for members in [tuple(v for v in range(graph.v) if mask >> v & 1)]
        if all(adjacent(graph, a, b) for a, b in combinations(members, 2))
    ]


def induced_subgraph(graph, vertices):
    """Subgraph induced on the given vertices, relabelled 0..k-1 in sorted order."""
    verts = sorted(vertices)
    rows = tuple(
        sum(1 << b for b, j in enumerate(verts) if a != b and adjacent(graph, i, j))
        for a, i in enumerate(verts)
    )
    return BlockGraph(len(verts), rows)


def srg_from_design_params(n, m):
    """Closed-form SRG parameters of the block graph of a 2-(n,m,1) design:
    srg(b, m(r-1), (m-1)^2 + r - 2, m^2) with eigenvalues r-1-m and -m."""
    if m < 2 or n <= m or (n - 1) % (m - 1) or n * (n - 1) % (m * (m - 1)):
        raise ValueError(f"({n},{m}) is not admissible")
    r = (n - 1) // (m - 1)
    b = n * r // m
    if b <= n:
        raise ValueError(f"2-({n},{m},1) is symmetric; its block graph is complete")
    return SrgParams(b, m * (r - 1), (m - 1) ** 2 + r - 2, m * m, r - 1 - m, -m)


def in_group(group, perm):
    """Is perm in the group?  Exactly when adding it keeps the order."""
    return close_group((*group.generators, perm)).order == group.order


def same_group(a, b):
    """Equal orders, and the generators of both together generate no more."""
    return a.order == b.order == close_group(a.generators + b.generators).order


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


def steiner_triple_system(v, seed=0):
    """The blocks of a random STS(v), v = 1 or 3 mod 6, as sorted triples of
    0..v-1, by Stinson's hill-climbing (Stinson 1985, Ann. Discrete Math.
    26): pick a point x on an uncovered pair and two points y, z it has no
    block with; add the block {x, y, z}, first removing the block on {y, z}
    if there is one.  The result is checked: b = v(v-1)/6 blocks and every
    pair in exactly one."""
    if v % 6 not in (1, 3):
        raise ValueError(f"no STS({v}): v must be 1 or 3 mod 6")
    rng = random.Random(seed)
    third = [{} for _ in range(v)]  # third[x][y] = z for the block {x, y, z}
    b, size = v * (v - 1) // 6, 0
    while size < b:
        x = rng.choice([p for p in range(v) if len(third[p]) < v - 1])
        y, z = rng.sample([p for p in range(v) if p != x and p not in third[x]], 2)
        w = third[y].get(z)
        if w is None:
            size += 1
        else:
            for p, q in permutations((y, z, w), 2):
                del third[p][q]
        for p, q, r in permutations((x, y, z)):
            third[p][q] = r
    blocks = sorted({tuple(sorted((x, y, z))) for x in range(v) for y, z in third[x].items()})
    pairs = Counter(pair for blk in blocks for pair in combinations(blk, 2))
    assert len(blocks) == b and len(pairs) == v * (v - 1) // 2 and set(pairs.values()) == {1}
    return blocks


def relabel(design, seed):
    """The same design rebuilt from its labels and its blocks, each listed in
    a seeded random order: only the dense point and block indices change."""
    rng = random.Random(seed)
    labels = list(design.labels)
    rng.shuffle(labels)
    blocks = [design.block_tokens(i) for i in range(design.b)]
    rng.shuffle(blocks)
    return make_design(labels, blocks, name=design.name)


def steiner_design(v, seed=0):
    return make_design([str(p) for p in range(v)],
                       [[str(p) for p in blk] for blk in steiner_triple_system(v, seed)],
                       name=f"STS({v})")


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
