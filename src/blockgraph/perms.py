"""Permutations in cycle notation, stabilizer chains, orbits, induced actions.

Permutations always act on points; actions on blocks and on cliques are
induced from the point action, never stored independently.  Given
generators, such as a design's embedded ones, are closed into a stabilizer
chain by deterministic Schreier-Sims (Sims 1970; Seress, *Permutation
Group Algorithms*, 2003, ch. 4): a base, the orbit of each base point under
the pointwise stabilizer of the points before it, and a transversal of
that orbit.  The order is the product of the orbit lengths, so memory
grows with the degree and the base length, not with the order, and no size
cap is needed (the symmetric group S13 of order 13! takes 13 levels).  The
chain stays inside ``close_group``: a group is returned as the plain record
``PermGroup(generators, base, order)``, the same record the graph
automorphism search returns with the order from its own first path (see
``autgroup``).  Orbits are union-find classes rooted at least points.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from operator import itemgetter
from typing import NamedTuple

from .design import Design
from .graph import BlockGraph


def _then(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([b[x] for x in a])


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, im in enumerate(a):
        inv[im] = i
    return tuple(inv)


class Permutation(namedtuple("Permutation", "images")):
    """A bijection of 0..n-1 stored as its image array."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection on 0..n-1")
        return tuple.__new__(cls, (images,))

    @classmethod
    def _make(cls, fields):  # what _replace builds through: validate here too
        return cls(*fields)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return all(im == i for i, im in enumerate(self.images))

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other."""
        if other.degree != self.degree:
            raise ValueError("permutation domains differ")
        return Permutation(_then(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_invert(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out


def parse_cycles(text: str, labels) -> Permutation:
    """Parse cycle notation over point tokens; unlisted points stay fixed.

    Example: ``(0_0 10_1 1_2)(1_0 0_1 10_2)``.  Whitespace inside and
    between cycles is free; a point may appear in at most one cycle.
    """
    labels = tuple(labels)
    index = {tok: i for i, tok in enumerate(labels)}
    stripped = re.sub(r"\s+", " ", text).strip()
    # one optional space after each group: every character has one parse,
    # so a malformed line fails in linear time, not by backtracking
    if re.fullmatch(r"(?:\([^()]*\) ?)*", stripped) is None:
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(len(labels)))
    used: set[int] = set()
    for group in re.findall(r"\(([^()]*)\)", stripped):
        pts = []
        for tok in group.split():
            if tok not in index:
                raise ValueError(f"unknown point token {tok!r} in cycle")
            pts.append(index[tok])
        for p in pts:
            if p in used:
                raise ValueError(f"point {labels[p]!r} appears in more than one place")
            used.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Permutation(tuple(images))


def format_cycles(p: Permutation, labels) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(labels[x] for x in cyc) + ")" for cyc in cycs)


class _Level:
    """A base point, the strong generators fixing every earlier base point,
    and the transversal of the point's orbit under them, with inverses.

    The orbit only grows and no transversal entry ever changes, so an
    element that once sifted to the identity keeps doing so.
    """

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.transversal = {point: identity}
        self.inverses = {point: identity}
        self.checked: set[tuple[int, int]] = set()  # (orbit point, generator index)

    def add(self, g: tuple[int, ...]) -> None:
        self.gens.append(g)
        frontier = list(self.transversal)
        while frontier:
            beta = frontier.pop()
            for s in self.gens:
                if s[beta] not in self.transversal:
                    u = self.transversal[s[beta]] = _then(self.transversal[beta], s)
                    self.inverses[s[beta]] = _invert(u)
                    frontier.append(s[beta])


def _sift(chain, g: tuple[int, ...], start: int):
    """Strip g through the levels from ``start``: (residue, level reached)."""
    for j in range(start, len(chain)):
        inv = chain[j].inverses.get(g[chain[j].point])
        if inv is None:
            return g, j
        g = _then(g, inv)
    return g, len(chain)


def _schreier_sims(gens, n: int) -> list[_Level]:
    """Deterministic Schreier-Sims: the chain is complete once every Schreier
    generator of every level sifts to the identity through the levels below.
    """
    identity = tuple(range(n))
    chain: list[_Level] = []

    def install(h, first: int, last: int) -> None:
        if last == len(chain):
            chain.append(_Level(next(x for x in range(n) if h[x] != x), identity))
        for level in chain[first:last + 1]:
            level.add(h)

    def residue(i: int):
        """Residue and stopping level of the first unchecked Schreier generator
        of level i that does not sift to the identity, or None."""
        level = chain[i]
        for beta, u in list(level.transversal.items()):
            for k, s in enumerate(level.gens):
                if (beta, k) not in level.checked:
                    level.checked.add((beta, k))
                    us = _then(u, s)
                    if us == level.transversal[s[beta]]:
                        continue  # a Schreier generator known to be trivial
                    h, j = _sift(chain, _then(us, level.inverses[s[beta]]), i + 1)
                    if h != identity:
                        return h, j
        return None

    for g in gens:
        h, j = _sift(chain, g, 0)
        if h != identity:
            install(h, 0, j)
    i = len(chain) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
        else:
            install(found[0], i + 1, found[1])
            i = found[1]
    return chain


class PermGroup(NamedTuple):
    """Generators, a base and the exact order of the group they generate."""

    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    order: int


def close_group(generators) -> PermGroup:
    """The generated group's base and order, from a stabilizer chain built
    by Schreier-Sims and dropped once its orbit lengths are multiplied."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generators act on different domains")
    chain = _schreier_sims([g.images for g in gens], n)
    order = math.prod(len(level.transversal) for level in chain)
    return PermGroup(gens, tuple(level.point for level in chain), order)


class OrbitPartition(NamedTuple):
    orbits: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        """The orbit lengths, longest first."""
        return tuple(sorted(map(len, self.orbits), reverse=True))


def _root(parent: list[int], x: int) -> int:
    """The root of x's class, halving the path on the way (Tarjan 1975)."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _join(parent: list[int], images) -> None:
    """Join each point's class to its image's (``_root``'s walks inline); roots stay least."""
    for x, y in enumerate(images):
        if x != y:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            parent[x] = parent[y] = x if x < y else y


def orbit_partition(perms) -> OrbitPartition:
    """Orbits of the generated group, each sorted, listed by least point."""
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation")
    parent = list(range(perms[0].degree))
    if any(g.degree != len(parent) for g in perms):
        raise ValueError("permutations act on different domains")
    for g in perms:
        _join(parent, g.images)
    orbits: dict[int, list[int]] = {}
    for x in range(len(parent)):
        orbits.setdefault(_root(parent, x), []).append(x)
    return OrbitPartition(tuple(map(tuple, orbits.values())))


# ---------------------------------------------------------------------------
# induced actions

def _set_images(images, sets, index):
    """The position in ``index`` of each set's image under ``images``, or
    None where the image is not there."""
    return (index.get(tuple(sorted([images[x] for x in s]))) for s in sets)


def induced_block_action(design: Design, perm: Permutation) -> Permutation:
    """The permutation of block indices induced by a point permutation.

    Fails if some block's image is not a block, naming the first violation.
    """
    if perm.degree != design.n:
        raise ValueError("permutation domain does not match point count")
    found = list(_set_images(perm.images, design.blocks, design.block_index))
    if None in found:
        i = found.index(None)
        toks = design.block_tokens(i)
        raise ValueError(f"not a design automorphism: image of block {i} {toks} is not a block")
    return Permutation(tuple(found))


def induced_clique_action(block_perm: Permutation, cliques) -> Permutation:
    """The permutation of a clique list induced by a block permutation."""
    cliques = list(cliques)
    found = list(_set_images(block_perm.images, cliques, {c: i for i, c in enumerate(cliques)}))
    if None in found:
        raise ValueError(f"clique {found.index(None)} is not mapped into the clique list")
    return Permutation(tuple(found))


def is_design_automorphism(design: Design, perm: Permutation) -> bool:
    return perm.degree == design.n and None not in _set_images(
        perm.images, design.blocks, design.block_index
    )


def is_graph_automorphism(graph: BlockGraph, perm: Permutation) -> bool:
    """Does perm map the adjacency onto itself?  Row by row, as binary digit
    strings (vertex i at position n-1-i), to the first that differs: the
    digits of row inv(u) at the inverse images' positions must be row u.
    The rows are taken down the cycles of inv, so each is formatted once:
    row u's string is the target of u's check, then the source of inv(u)'s."""
    n = graph.v
    if perm.degree != n:
        return False
    if n == 0:
        return True
    rows, width = graph.rows, f"0{n}b"
    inv = _invert(perm.images)
    image = itemgetter(*[n - 1 - w for w in reversed(inv)])
    seen = bytearray(n)
    for start in range(n):
        if seen[start]:
            continue
        u, first = start, format(rows[start], width)
        target = first
        while True:
            seen[u] = 1
            u = inv[u]
            source = first if u == start else format(rows[u], width)
            if "".join(image(source)) != target:
                return False
            if u == start:
                break
            target = source
    return True
