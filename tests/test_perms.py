import pytest

from blockgraph import (
    Permutation,
    build_block_graph,
    builtin_design,
    close_group,
    induced_block_action,
    induced_clique_action,
    is_design_automorphism,
    is_graph_automorphism,
    orbit_partition,
    parse_cycles,
)
from blockgraph.perms import format_cycles

from conftest import orbit_clique_members, members_from_tokens


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
    assert not group.abelian


def test_close_group_trivial():
    group = close_group([Permutation.identity(4)])
    assert group.order == 1 and group.abelian


def test_close_group_cyclic_13(main66_generators):
    group = close_group([main66_generators[1]])
    assert group.order == 13 and group.abelian


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
    assert not group.abelian
    assert cycle(6, 2, 5) in group


def test_schreier_sims_alternating_group_a6():
    three_cycles = [cycle(6, 0, 1, 2), cycle(6, 1, 2, 3), cycle(6, 2, 3, 4), cycle(6, 3, 4, 5)]
    group = close_group(three_cycles)
    assert group.order == 360
    assert cycle(6, 0, 1) not in group
    assert cycle(6, 4, 5) not in group
    assert cycle(6, 0, 1).then(cycle(6, 4, 5)) in group
    assert cycle(6, 0, 5, 1, 4, 2) in group  # a 5-cycle is even
    assert Permutation.identity(7) not in group  # wrong degree


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
    group = close_group(generators)
    assert group.order == len(elements)
    assert all(g in group for g in elements)


def test_close_group_base_prefix_is_kept():
    s6 = [cycle(6, 0, 1, 2, 3, 4, 5), cycle(6, 0, 1)]
    group = close_group(s6, base=(5, 3))
    assert group.base[:2] == (5, 3)
    assert group.order == 720


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
    i, j = 0, next(v for v in range(1, g.v) if g.adjacent(0, v))
    images[i], images[j] = j, i
    # a transposition of adjacent vertices in K3,3,3,3 is not an automorphism
    assert not is_graph_automorphism(g, Permutation(tuple(images)))


def test_clique_action_undefined_for_partial_list(main66, main66_census, main66_generators):
    # restricting to a single orbit-of-13 clique list, the identity acts but a
    # clique list missing images must raise
    blocks = induced_block_action(main66, main66_generators[1])
    noncanon = [
        r.members for r in main66_census.records if not r.classification.canonical
    ]
    with pytest.raises(ValueError, match="not mapped"):
        induced_clique_action(blocks, noncanon[:3])
