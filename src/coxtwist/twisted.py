"""Fixed subgroups of involutive diagram automorphisms.

An automorphism theta of the bond diagram restricted to a generator subset
L acts on the parabolic W_L.  Its fixed subgroup is itself a Coxeter group
whose canonical generators are the longest elements of the finite orbit
parabolics: a fixed generator s contributes s, a swapped pair {s, t} with
finite m(s, t) contributes the longest element of the dihedral on {s, t}.
Pairs with m = infinity contribute nothing and are reported as skipped.
Every product by a twisted generator goes through _times.  The fixed
subgroup is stored like W, as ShortLex-ordered members and one table of
products by the generators, filled by one closure of the identity.  Greedy
twisted words are prefix-closed, word(z) = word(z*g) + (g,), so they form a
tree rooted at the identity (_word_tree); words, the tree and quotients
z^-1 * z' (_quotient) are read from the table.  Cosets x * H are filled
down the tree, and the verify suites walk it.
"""
from __future__ import annotations

import enum
import functools
import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import core
from .core import CoxeterSystem, Element
from .errors import (
    BondMismatch,
    CapExceeded,
    NotFixed,
    NotInvolutive,
    NotInWL,
    OutOfEnumeratedRegion,
    OutOfL,
    TheoremViolation,
)


class GeneratorParity(enum.Enum):
    """Length parity of a twisted generator; odd ones are reflections."""

    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class DiagramAutomorphism:
    """An involutive, bond-preserving permutation of a generator subset L."""

    system: CoxeterSystem
    L: frozenset[int]
    mapping: Mapping[int, int]

    def __call__(self, s: int) -> int:
        return self.mapping[s]


@dataclass(frozen=True)
class TwistedGenerator:
    """Longest element of one finite orbit parabolic."""

    elt: Element
    orbit: tuple[int, ...]
    parity_class: GeneratorParity

    @property
    def is_reflection(self) -> bool:
        return self.parity_class is GeneratorParity.ODD

    def __repr__(self):
        return f"TwistedGenerator({self.elt.word_string()!r}, orbit={self.orbit})"


def _times(sys: CoxeterSystem, i: int, g: TwistedGenerator) -> int:
    """Index of element i times g, walked as p*(q*g).

    Stripping right descents in g's orbit from i leaves i = p*q, with q in
    the orbit parabolic and p free of descents in it, so lengths add along
    p times any element of that parabolic: no step is longer than i*g.  The
    same letters stripped from g, an involution, leave r = g*q^-1, whose
    reversed canonical word spells q*g.
    """
    table = sys._table
    p = i
    r = g.elt.index
    while True:
        row = table[p]
        for s in g.orbit:
            j = row[s]
            # indices follow ShortLex order: a smaller neighbour is shorter
            if j is not None and j < p:
                p = j
                # r stays in the orbit parabolic, which g closes in the ball
                r = table[r][s]
                break
        else:
            break
    return sys._walk(p, reversed(sys.words[r]))


@dataclass(frozen=True)
class TwistedSubgroup:
    """The fixed subgroup of theta on W_L, members in ShortLex order, and
    table[z][a] the position of elements[z] * gens[a]: a generator position,
    so a copy with other gens reads its own."""

    system: CoxeterSystem
    theta: DiagramAutomorphism
    gens: tuple[TwistedGenerator, ...]
    skipped_orbits: tuple[tuple[int, ...], ...]
    elements: tuple[Element, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, w: Element) -> bool:
        return w.system is self.system and w.index in self._positions

    @functools.cached_property
    def _positions(self) -> dict[int, int]:
        return {w.index: k for k, w in enumerate(self.elements)}

    def __repr__(self):
        return f"TwistedSubgroup(order={self.order}, gens={len(self.gens)})"


def _descent(row: Sequence[int], z: int) -> int:
    """The first generator position a with row[a] < z, for z's row of
    positions or of indices (both ShortLex-ordered) and z not the identity:
    the last letter of z's greedy twisted word, and row[a] its parent."""
    a = 0
    while row[a] > z:  # no generator fixes z
        a += 1
    return a


def _chain(table: Sequence[Sequence[int]], z: int) -> list[int]:
    """Generator positions of member z's twisted word, last letter first,
    read up the parent chain to the identity."""
    out = []
    while z:
        a = _descent(table[z], z)
        out.append(a)
        z = table[z][a]
    return out


def _quotient(sub: TwistedSubgroup, x: int, y: int) -> int:
    """Position of elements[x]^-1 * elements[y], walked in the table; the
    twisted generators are involutions, so x's chain spells its inverse."""
    if not x:  # the identity, as for a coset first touched at its base
        return y
    table = sub.table
    p = 0
    for g in _chain(table, x) + _chain(table, y)[::-1]:
        p = table[p][g]
    return p


def _word_tree(sub: TwistedSubgroup) -> list[tuple[int, int, TwistedGenerator]]:
    """The twisted-word tree as (z, parent, g) rows in ShortLex order: z and
    parent are positions in sub.elements and g is z's last letter, so z =
    parent * g.  Read from the table, a corrupted entry reaches every walk."""
    rows = []
    for z in range(1, sub.order):  # position 0 is the identity, the root
        a = _descent(sub.table[z], z)
        rows.append((z, sub.table[z][a], sub.gens[a]))
    return rows


def validate_automorphism(sys: CoxeterSystem, L: Iterable[int], mapping: Mapping[int, int]) -> DiagramAutomorphism:
    """Check involutivity and bond preservation; unlisted members of L are fixed."""
    L = frozenset(L)
    for s in L:
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < sys.rank:
            raise OutOfL(f"L member {s!r} is not a generator index")
    full = {}
    for a, b in mapping.items():
        if a not in L:
            raise OutOfL(f"map key {a + 1 if isinstance(a, int) else a!r} is outside L")
        if b not in L:
            raise OutOfL(f"map value {b + 1 if isinstance(b, int) else b!r} is outside L")
        full[a] = b
    for s in L:
        full.setdefault(s, s)
    for a, b in full.items():
        if full[b] != a:
            raise NotInvolutive(f"map is not an involution at generator {a + 1}")
    for a in L:
        for b in L:
            if sys.m(a, b) != sys.m(full[a], full[b]):
                raise BondMismatch(
                    f"m({a + 1},{b + 1}) = {sys.m(a, b)} but the images have "
                    f"m({full[a] + 1},{full[b] + 1}) = {sys.m(full[a], full[b])}"
                )
    return DiagramAutomorphism(system=sys, L=L, mapping=dict(full))


def orbits(theta: DiagramAutomorphism) -> tuple[tuple[int, ...], ...]:
    """Orbits of theta on L, each sorted, listed by smallest member."""
    out = []
    seen = set()
    for s in sorted(theta.L):
        if s in seen:
            continue
        orb = tuple(sorted({s, theta.mapping[s]}))
        seen.update(orb)
        out.append(orb)
    return tuple(out)


def skipped_orbits(theta: DiagramAutomorphism) -> tuple[tuple[int, ...], ...]:
    """Orbits whose parabolic is infinite; they contribute no generator."""
    sys = theta.system
    out = []
    for orb in orbits(theta):
        if len(orb) == 2 and sys.m(orb[0], orb[1]) == math.inf:
            out.append(orb)
    return tuple(out)


def twisted_generators(theta: DiagramAutomorphism) -> list[TwistedGenerator]:
    """Longest elements of the finite orbit parabolics, in orbit order."""
    sys = theta.system
    out = []
    for orb in orbits(theta):
        if len(orb) == 2 and sys.m(orb[0], orb[1]) == math.inf:
            continue
        elt = core.longest_element(sys, orb)
        parity = GeneratorParity.ODD if elt.length % 2 else GeneratorParity.EVEN
        out.append(TwistedGenerator(elt=elt, orbit=orb, parity_class=parity))
    return out


def apply_theta(theta: DiagramAutomorphism, w: Element) -> Element:
    """Image of w under theta, computed letterwise on the canonical word."""
    if w.system is not theta.system:
        raise ValueError("element and automorphism belong to different systems")
    word = w.word
    for a in word:
        if a not in theta.L:
            raise NotInWL(f"letter {a + 1} of {w.word_string()!r} is outside L")
    # a list, not a generator: tuple() over a generator allocates by a
    # guessed size and resizes, which moves a block from one tuple free list
    # to another on every call and fills the free lists of the other sizes
    return core.element_from_word(theta.system, [theta.mapping[a] for a in word])


def is_fixed(theta: DiagramAutomorphism, w: Element) -> bool:
    return apply_theta(theta, w) == w


def enumerate_fixed_subgroup(theta: DiagramAutomorphism) -> TwistedSubgroup:
    """Close the identity under the twisted generators: the fixed subgroup.

    Members leave a heap in index order, each product z*g is one _times
    call, and each nonidentity member's first descent must drop the whole
    generator length, so it leaves the heap after its parent: sorted order.
    """
    sys = theta.system
    gens = twisted_generators(theta)
    words = sys.words
    found, rows, seen, heap = [], [], {0}, [0]
    try:
        while heap:
            i = heapq.heappop(heap)
            row = [_times(sys, i, g) for g in gens]
            a = _descent(row, i) if min(row, default=i) < i else None
            if i and (a is None or len(words[i]) - len(words[row[a]]) != gens[a].elt.length):
                raise TheoremViolation(
                    f"fixed element {sys.element(i).word_string()!r} has no first descent "
                    "that drops the whole generator length"
                )
            for j in row:
                if j not in seen:
                    seen.add(j)
                    heapq.heappush(heap, j)
            found.append(i)
            rows.append(row)
    except OutOfEnumeratedRegion as e:
        raise CapExceeded(f"fixed subgroup did not close within {sys.cap} elements") from e
    at = {i: k for k, i in enumerate(found)}
    elements = tuple(Element(sys, i) for i in found)
    table = tuple(tuple(at[j] for j in row) for row in rows)
    return TwistedSubgroup(sys, theta, tuple(gens), skipped_orbits(theta), elements, table)


def twisted_reduced_word(sub: TwistedSubgroup, z: Element) -> list[TwistedGenerator]:
    """Greedy reduced word for z over the twisted generators, read up z's
    parent chain in the table: at each step, the first generator in
    declared order that lowers the length."""
    if z not in sub:
        raise NotFixed(f"{z.word_string()!r} is not in the fixed subgroup")
    gens = sub.gens
    return [gens[a] for a in reversed(_chain(sub.table, sub._positions[z.index]))]


def twisted_length(sub: TwistedSubgroup, z: Element) -> int:
    return len(twisted_reduced_word(sub, z))
