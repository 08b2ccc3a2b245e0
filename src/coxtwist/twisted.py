"""Fixed subgroups of involutive diagram automorphisms.

An automorphism theta of the bond diagram restricted to a generator subset
L acts on the parabolic W_L.  Its fixed subgroup is itself a Coxeter group
whose canonical generators are the longest elements of the finite orbit
parabolics: a fixed generator s contributes s, a swapped pair {s, t} with
finite m(s, t) contributes the longest element of the dihedral on {s, t}.
Pairs with m = infinity contribute nothing and are reported as skipped.
Every product by a twisted generator goes through _times: the fixed
subgroup is the closure (_close) of the identity.  Its greedy twisted words
are prefix-closed, word(z) = word(z*g) + (g,), so they form a tree rooted at
the identity (_word_tree).  Cosets x * H are filled down that tree, and the
verify suites walk it.
"""
from __future__ import annotations

import enum
import functools
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


def _close(sys: CoxeterSystem, i: int, gens: Sequence[TwistedGenerator]) -> list[int]:
    """Sorted indices of i * <gens>, closed breadth-first by _times: it
    raises OutOfEnumeratedRegion only for a member outside the ball."""
    seen = {i}
    queue = [i]
    for j in queue:
        for g in gens:
            k = _times(sys, j, g)
            if k not in seen:
                seen.add(k)
                queue.append(k)
    return sorted(seen)


@dataclass(frozen=True)
class TwistedSubgroup:
    """The fixed subgroup of theta on W_L, fully enumerated."""

    system: CoxeterSystem
    theta: DiagramAutomorphism
    gens: tuple[TwistedGenerator, ...]
    skipped_orbits: tuple[tuple[int, ...], ...]
    elements: tuple[Element, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, w: Element) -> bool:
        return w.system is self.system and w.index in self._index_set

    @functools.cached_property
    def _index_set(self) -> frozenset[int]:
        return frozenset(w.index for w in self.elements)

    @functools.cached_property
    def _reduced_word_cache(self) -> dict[int, tuple[TwistedGenerator, ...]]:
        """Twisted reduced words of all members by index, in one ShortLex
        pass: word(z) = word(z*g) + (g,) for the first g that shortens z.
        It holds generators and indices only, never the subgroup, so it
        closes no reference cycle through it.
        """
        words = self.system.words
        memo = {0: ()}
        for z in self.elements[1:]:  # elements[0] is the identity
            for g in self.gens:
                j = _times(self.system, z.index, g)
                drop = z.length - len(words[j])
                if drop > 0:
                    if drop != g.elt.length:
                        raise TheoremViolation(
                            f"descent by {g.elt.word_string()!r} at {z.word_string()!r} "
                            "dropped the length by less than the generator length"
                        )
                    memo[z.index] = memo[j] + (g,)
                    break
            else:
                raise TheoremViolation(
                    f"nonidentity fixed element {z.word_string()!r} has no descent"
                )
        return memo

    def __repr__(self):
        return f"TwistedSubgroup(order={self.order}, gens={len(self.gens)})"


def _word_tree(sub: TwistedSubgroup) -> list[tuple[int, int, TwistedGenerator]]:
    """The twisted-word tree as (z, parent, g) rows in ShortLex order.

    z and parent are positions in sub.elements; g is the last letter of z's
    memoized word and parent the first member whose memoized word is that
    word without g, so the row says z = parent * g.  The rows are read from the
    memo, so a corrupted word reaches every walk down the tree; a word that
    does not extend the word of a shorter member raises TheoremViolation.
    """
    memo = sub._reduced_word_cache
    elements = sub.elements
    at: dict[tuple[TwistedGenerator, ...], int] = {}
    for k, z in enumerate(elements):
        at.setdefault(memo[z.index], k)
    rows = []
    for k in range(1, len(elements)):  # position 0 is the identity, the root
        word = memo[elements[k].index]
        parent = at.get(word[:-1]) if word else None
        if parent is None or parent >= k:
            raise TheoremViolation(
                f"twisted word of {elements[k].word_string()!r} does not extend "
                "the word of a shorter member"
            )
        rows.append((k, parent, word[-1]))
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
    """Close the identity under the twisted generators: the fixed subgroup."""
    sys = theta.system
    gens = twisted_generators(theta)
    try:
        found = _close(sys, 0, gens)
    except OutOfEnumeratedRegion as e:
        raise CapExceeded(f"fixed subgroup did not close within {sys.cap} elements") from e
    return TwistedSubgroup(
        system=sys,
        theta=theta,
        gens=tuple(gens),
        skipped_orbits=skipped_orbits(theta),
        elements=tuple(Element(sys, i) for i in found),
    )


def twisted_reduced_word(sub: TwistedSubgroup, z: Element) -> list[TwistedGenerator]:
    """Greedy reduced word for z over the twisted generators.

    Strips, at each step, the first generator in declared order that lowers
    the length; each strip must lower it by exactly the generator's length.
    """
    if z not in sub:
        raise NotFixed(f"{z.word_string()!r} is not in the fixed subgroup")
    return list(sub._reduced_word_cache[z.index])


def twisted_length(sub: TwistedSubgroup, z: Element) -> int:
    return len(twisted_reduced_word(sub, z))
