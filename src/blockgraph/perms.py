"""Permutations in cycle notation, stabilizer chains, orbits, induced actions.

Permutations always act on points; actions on blocks and on cliques are
induced from the point action, never stored independently.  Given
generators, such as a design's embedded ones, are closed into a stabilizer
chain by deterministic Schreier-Sims (Sims 1970; Seress, *Permutation
Group Algorithms*, 2003, ch. 4): a base, the orbit of each base point under
the pointwise stabilizer of the points before it, and a transversal of
that orbit.  The order is the product of the orbit lengths and membership
is a sift through the chain, so memory grows with the degree and the base
length, not with the order, and no size cap is needed (the symmetric group
S13 of order 13! takes 13 levels).  The graph automorphism search gets its
order from its own first path instead (see ``autgroup``).
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
    body = re.fullmatch(r"(\s*\([^()]*\)\s*)*", stripped)
    if body is None:
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


def _schreier_sims(gens, base, n: int) -> list[_Level]:
    """Deterministic Schreier-Sims: the chain is complete once every Schreier
    generator of every level sifts to the identity through the levels below.
    """
    identity = tuple(range(n))
    chain = [_Level(b, identity) for b in base]

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
    """A permutation group held as a stabilizer chain, never as its elements.

    ``order`` is the product of the basic orbit lengths; ``perm in group``
    sifts perm through the chain.  The chain is left out of equality, hash
    and repr.
    """

    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    order: int
    abelian: bool
    chain: tuple[_Level, ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, PermGroup) and self[:4] == other[:4]

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's field-wise !=

    def __hash__(self) -> int:
        return hash(self[:4])

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:4], self))
        return f"PermGroup({fields})"

    def __contains__(self, perm: Permutation) -> bool:
        n = self.generators[0].degree
        return perm.degree == n and _sift(self.chain, perm.images, 0)[0] == tuple(range(n))


def close_group(generators, base=()) -> PermGroup:
    """The generated group, on a base that starts with ``base``."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generators act on different domains")
    chain = tuple(_schreier_sims([g.images for g in gens], base, n))
    abelian = all(
        g.then(h) == h.then(g) for i, g in enumerate(gens) for h in gens[i + 1:]
    )
    order = math.prod(len(level.transversal) for level in chain)
    return PermGroup(gens, tuple(level.point for level in chain), order, abelian, chain)


class OrbitPartition(NamedTuple):
    orbits: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        """The orbit lengths, longest first."""
        return tuple(sorted(map(len, self.orbits), reverse=True))


def orbit(points, perms) -> set[int]:
    """The union of the orbits of ``points`` under the group the perms generate."""
    out = set(points)
    frontier = list(out)
    images = [g.images for g in perms]
    while frontier:
        x = frontier.pop()
        for g in images:
            y = g[x]
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def orbit_partition(perms) -> OrbitPartition:
    """Orbits of the generated group on the perms' common domain.

    Orbits are listed by minimum element, each sorted, so the partition is
    deterministic.
    """
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation")
    n = perms[0].degree
    seen: set[int] = set()
    orbits = []
    for start in range(n):
        if start not in seen:
            found = orbit({start}, perms)
            seen |= found
            orbits.append(tuple(sorted(found)))
    return OrbitPartition(tuple(orbits))


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
    """Does perm map the adjacency onto itself?

    Each row is a string of binary digits, vertex i at position n-1-i.
    Picking the digits of row inv(u) at the positions of the inverse images
    gives the image of that row under perm, which must be the row of u.
    """
    n = graph.v
    if perm.degree != n:
        return False
    if n == 0:
        return True
    digits = [format(row, f"0{n}b") for row in graph.rows]
    inv = _invert(perm.images)
    image = itemgetter(*[n - 1 - w for w in reversed(inv)])
    return all("".join(image(digits[w])) == digits[u] for u, w in enumerate(inv))
