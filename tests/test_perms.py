import random
from collections import Counter, deque
from itertools import combinations, permutations

import pytest

from blockgraph import (
    Permutation,
    build_block_graph,
    builtin_design,
    close_group,
    graph_automorphism_group,
    induced_block_action,
    induced_clique_action,
    is_design_automorphism,
    is_graph_automorphism,
    orbit_partition,
    parse_cycles,
)
from blockgraph.design import make_design
from blockgraph.perms import format_cycles
from blockgraph.report import group_section, lift_to_design_automorphism

from conftest import adjacent, in_group, members_from_tokens, orbit_clique_members


def swap(design, tok_a, tok_b):
    a, b = design.label_index[tok_a], design.label_index[tok_b]
    images = list(range(design.n))
    images[a], images[b] = b, a
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# parsing and group basics

def test_parse_13_cycle(main66):
    text = "(" + " ".join(f"{v}_0" for v in range(13)) + ")"
    p = parse_cycles(text, main66.labels)
    for v in range(13):
        src = main66.label_index[f"{v}_0"]
        dst = main66.label_index[f"{(v + 1) % 13}_0"]
        assert p(src) == dst
    # everything outside the cycle is fixed
    assert p(main66.label_index["0_a"]) == main66.label_index["0_a"]


def test_parse_empty_is_identity(main66):
    assert parse_cycles("", main66.labels).is_identity()
    assert parse_cycles("   ", main66.labels).is_identity()


def test_parse_repeated_point_rejected(main66):
    with pytest.raises(ValueError, match="more than one"):
        parse_cycles("(0_0 0_0)", main66.labels)
    with pytest.raises(ValueError, match="more than one"):
        parse_cycles("(0_0 1_0)(1_0 2_0)", main66.labels)


def test_parse_unknown_token_rejected(main66):
    with pytest.raises(ValueError, match="unknown point token"):
        parse_cycles("(0_0 13_c)", main66.labels)


def test_cycle_format_round_trip(main66, main66_generators):
    for g in main66_generators:
        text = format_cycles(g, main66.labels)
        assert parse_cycles(text, main66.labels) == g


def test_generator_orders(main66_generators):
    rotation, shift = main66_generators
    p = rotation
    for _ in range(2):
        p = p.then(rotation)
    assert p.is_identity()  # the fibre rotation has order 3
    q = shift
    for _ in range(12):
        q = q.then(shift)
    assert q.is_identity()  # the residue shift has order 13
    assert rotation.then(rotation.inverse()).is_identity()
    assert Permutation.identity(5).inverse() == Permutation.identity(5)


def test_compose_domain_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(3).then(Permutation.identity(4))


def test_close_group_order_39(main66_generators):
    group = close_group(main66_generators)
    assert group.order == 39
    assert group.generators == tuple(main66_generators)


def test_close_group_trivial():
    group = close_group([Permutation.identity(4)])
    assert (group.base, group.order) == ((), 1)


def test_close_group_cyclic_13(main66_generators):
    group = close_group([main66_generators[1]])
    assert group.order == 13


@pytest.mark.parametrize(
    "which, order, abelian",
    [((0, 1), 39, False), ((1,), 13, True), ((), 1, True)],
    ids=["both", "shift", "identity"],
)
def test_group_section_abelian_both_ways(main66, main66_census, main66_generators, which, order,
                                         abelian):
    # both typed generators, the residue shift alone, and the identity
    generators = [main66_generators[i] for i in which] or [Permutation.identity(main66.n)]
    section = group_section(main66, main66_census, generators, "typed")
    assert (section.order, section.abelian) == (order, abelian)


def test_lagrange(main66_generators):
    rotation, shift = main66_generators
    assert 39 % close_group([rotation]).order == 0  # order 3
    assert 39 % close_group([shift]).order == 0  # order 13


def cycle(n, *points):
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return Permutation(tuple(images))


def bfs_closure(generators):
    """Every element of the generated group, by breadth-first closure."""
    identity = Permutation.identity(generators[0].degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for h in frontier:
            for g in generators:
                prod = h.then(g)
                if prod not in elements:
                    elements.add(prod)
                    new.append(prod)
        frontier = new
    return elements


def test_schreier_sims_symmetric_group_s6():
    group = close_group([cycle(6, 0, 1, 2, 3, 4, 5), cycle(6, 0, 1)])
    assert group.order == 720
    assert in_group(group, cycle(6, 2, 5))


def test_schreier_sims_alternating_group_a6():
    three_cycles = [cycle(6, 0, 1, 2), cycle(6, 1, 2, 3), cycle(6, 2, 3, 4), cycle(6, 3, 4, 5)]
    group = close_group(three_cycles)
    assert group.order == 360
    assert not in_group(group, cycle(6, 0, 1))
    assert not in_group(group, cycle(6, 4, 5))
    assert in_group(group, cycle(6, 0, 1).then(cycle(6, 4, 5)))
    assert in_group(group, cycle(6, 0, 5, 1, 4, 2))  # a 5-cycle is even
    with pytest.raises(ValueError, match="different domains"):
        in_group(group, Permutation.identity(7))


@pytest.mark.parametrize(
    "generators",
    [
        # S7
        [cycle(7, 0, 1, 2, 3, 4, 5, 6), cycle(7, 0, 1)],
        # x -> x + 1 and x -> 2x mod 7
        [cycle(7, 0, 1, 2, 3, 4, 5, 6), cycle(7, 1, 2, 4).then(cycle(7, 3, 6, 5))],
        [cycle(7, 0, 1, 2, 3, 4, 5, 6), cycle(7, 0, 1).then(cycle(7, 2, 5))],
        # a dihedral group of a square beside a disjoint 4-cycle
        [cycle(8, 0, 1, 2, 3), cycle(8, 0, 2), cycle(8, 4, 5, 6, 7)],
        # C3 wreath C3
        [cycle(9, 0, 1, 2), cycle(9, 3, 4, 5), cycle(9, 6, 7, 8),
         cycle(9, 0, 3, 6).then(cycle(9, 1, 4, 7)).then(cycle(9, 2, 5, 8))],
        # symmetries of a hexagon
        [cycle(6, 0, 1, 2, 3, 4, 5), cycle(6, 1, 5).then(cycle(6, 2, 4))],
        [cycle(8, 0, 1)],
    ],
)
def test_schreier_sims_order_equals_bfs_closure(generators):
    elements = bfs_closure(generators)
    assert len(elements) <= 5040
    # the closure holds the group, so equal orders make them equal
    assert close_group(generators).order == len(elements)
    # an orbit is every element's image of a point
    orbits = sorted({tuple(sorted({g(x) for g in elements})) for x in range(generators[0].degree)})
    assert orbit_partition(generators).orbits == tuple(orbits)


# ---------------------------------------------------------------------------
# orbits

def test_point_orbits(main66_generators):
    part = orbit_partition(main66_generators)
    assert sorted(part.lengths, reverse=True) == [39, 13, 13, 1]
    assert sum(part.lengths) == 66


def test_block_orbits(main66, main66_generators):
    actions = [induced_block_action(main66, g) for g in main66_generators]
    part = orbit_partition(actions)
    assert sorted(part.lengths, reverse=True) == [39, 39, 39, 13, 13]


def test_noncanonical_clique_orbits(main66, main66_census, main66_generators):
    blocks = [induced_block_action(main66, g) for g in main66_generators]
    noncanon = [
        r.members for r in main66_census.records if not r.classification.canonical
    ]
    actions = [induced_clique_action(bp, noncanon) for bp in blocks]
    assert sorted(orbit_partition(actions).lengths, reverse=True) == [13, 1]


def test_orbits_closed_under_generators(main66_generators):
    part = orbit_partition(main66_generators)
    for orbit in part.orbits:
        members = set(orbit)
        for g in main66_generators:
            assert {g(x) for x in members} == members


def test_orbit_ordering_deterministic(main66_generators):
    part = orbit_partition(main66_generators)
    assert [o[0] for o in part.orbits] == sorted(o[0] for o in part.orbits)
    assert all(o == tuple(sorted(o)) for o in part.orbits)


def bfs_orbits(perms):
    """Orbits by breadth-first search from each point not yet reached."""
    seen, orbits = set(), []
    for start in range(perms[0].degree):
        if start in seen:
            continue
        orbit, queue = {start}, deque([start])
        while queue:
            x = queue.popleft()
            for g in perms:
                if g(x) not in orbit:
                    orbit.add(g(x))
                    queue.append(g(x))
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


@pytest.mark.parametrize("seed", range(60))
def test_orbit_partition_matches_bfs(seed):
    # one to four generators of degree 1-40, the identity among them; the
    # others are random shuffles or a few disjoint cycles, so the orbits
    # range from singletons to the whole domain
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    gens = [Permutation.identity(n)]
    for _ in range(rng.randint(0, 3)):
        points = rng.sample(range(n), n)
        if rng.random() < 0.2:
            gens.append(Permutation(tuple(points)))
            continue
        images = list(range(n))
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, min(5, len(points))) if points else 0
            cyc, points = points[:size], points[size:]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        gens.append(Permutation(tuple(images)))
    rng.shuffle(gens)
    assert orbit_partition(gens).orbits == bfs_orbits(gens)


@pytest.mark.parametrize("degrees", [(3, 2), (2, 3)])
def test_orbit_partition_rejects_mixed_domains(degrees):
    with pytest.raises(ValueError, match="different domains"):
        orbit_partition([Permutation.identity(n) for n in degrees])


# ---------------------------------------------------------------------------
# induced actions and automorphism checks

def test_shift_generator_advances_translates(main66, main66_generators):
    # the 13-cycle generator advances every developed block by one shift
    shift = main66_generators[1]
    action = induced_block_action(main66, shift)
    b8 = orbit_clique_members(main66)
    assert {action(i) for i in b8} == set(b8)
    blk = members_from_tokens(main66, ("2_0 5_0 4_1 9_1 0_a 6_a",))[0]
    image = members_from_tokens(main66, ("3_0 6_0 5_1 10_1 1_a 7_a",))[0]
    assert action(blk) == image


def test_identity_induces_identity(main66):
    action = induced_block_action(main66, Permutation.identity(66))
    assert action.is_identity()


def test_transposition_is_not_automorphism(main66):
    t = swap(main66, "0_0", "1_0")
    with pytest.raises(ValueError, match="not a design automorphism"):
        induced_block_action(main66, t)
    assert not is_design_automorphism(main66, t)


def test_generators_are_design_automorphisms(main66, main66_generators):
    for g in main66_generators:
        assert is_design_automorphism(main66, g)


def test_induced_action_is_graph_automorphism(main66, main66_generators):
    graph = build_block_graph(main66)
    for g in main66_generators:
        assert is_graph_automorphism(graph, induced_block_action(main66, g))


def test_non_automorphism_of_graph():
    g = build_block_graph(builtin_design("ag23"))
    # swapping two vertices in different parallel classes breaks adjacency
    images = list(range(g.v))
    i, j = 0, next(v for v in range(1, g.v) if adjacent(g, 0, v))
    images[i], images[j] = j, i
    # a transposition of adjacent vertices in K3,3,3,3 is not an automorphism
    assert not is_graph_automorphism(g, Permutation(tuple(images)))


# ---------------------------------------------------------------------------
# lifting block permutations to point permutations

def test_lift_maps_twin_points_class_onto_class():
    # a, b lie on block 0 only and c, d on block 1 only: a->c, b->d induces (0 1)
    design = make_design("abcd", ["ab", "cd"])
    assert lift_to_design_automorphism(design, Permutation((1, 0))) == Permutation((2, 3, 0, 1))


def test_lift_points_on_one_block():
    # c, e and f each lie on one block and no two points share their blocks
    design = make_design("abcdef", ["abc", "ade", "bdf"])
    lift = lift_to_design_automorphism(design, Permutation((0, 2, 1)))
    assert lift == Permutation((1, 0, 2, 3, 5, 4))  # (a b)(e f)


def test_lift_rejects_twin_classes_of_different_sizes():
    # blocks 0 and 2 are swapped by the path automorphism, but block 0 has
    # two points of its own and block 2 only one
    design = make_design("abcpqs", ["abp", "pqs", "qcs"])
    assert lift_to_design_automorphism(design, Permutation((2, 1, 0))) is None


def small_designs(seed=27, count=30):
    """Seeded designs on 3-7 points with 1-6 blocks of one size: twins,
    points on one block only and points on no block all occur."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(3, 7)
        labels = [f"p{i}" for i in range(n)]
        pool = list(combinations(labels, rng.randint(2, min(4, n - 1))))
        blocks = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        yield make_design(labels, blocks, name=f"small{k}")


def test_lift_matches_brute_force_over_point_permutations():
    # a block permutation lifts exactly when one of the n! point
    # permutations induces it, and a returned lift induces it
    rng = random.Random(28)
    lifted, shapes = Counter(), Counter()
    for design in small_designs():
        index = {frozenset(blk): i for i, blk in enumerate(design.blocks)}
        induced = set()
        for images in permutations(range(design.n)):
            moved = tuple(index.get(frozenset(images[p] for p in blk)) for blk in design.blocks)
            if None not in moved:
                induced.add(moved)
        on = Counter(frozenset(i for i, blk in enumerate(design.blocks) if p in blk)
                     for p in range(design.n))
        shapes["twins"] += any(blocks and count > 1 for blocks, count in on.items())
        shapes["one block"] += any(len(blocks) == 1 for blocks in on)
        b = len(design.blocks)
        block_perms = list(graph_automorphism_group(build_block_graph(design)).generators)
        block_perms += [Permutation(tuple(rng.sample(range(b), b))) for _ in range(4)]
        for block_perm in block_perms:
            lift = lift_to_design_automorphism(design, block_perm)
            assert (lift is not None) == (block_perm.images in induced)
            if lift is not None:
                assert all(index[frozenset(map(lift, blk))] == block_perm(i)
                           for i, blk in enumerate(design.blocks))
            lifted[lift is not None] += 1
    assert lifted[True] and lifted[False]
    assert shapes["twins"] and shapes["one block"]


def test_lift_recovers_main66_generators(main66, main66_generators):
    for g in main66_generators:
        assert lift_to_design_automorphism(main66, induced_block_action(main66, g)) == g


def test_clique_action_undefined_for_partial_list(main66, main66_census, main66_generators):
    # restricting to a single orbit-of-13 clique list, the identity acts but a
    # clique list missing images must raise
    blocks = induced_block_action(main66, main66_generators[1])
    noncanon = [
        r.members for r in main66_census.records if not r.classification.canonical
    ]
    with pytest.raises(ValueError, match="not mapped"):
        induced_clique_action(blocks, noncanon[:3])
