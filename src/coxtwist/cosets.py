"""Right cosets x * H of a fixed subgroup H and their minimal elements.

Min(u) collects the members of least length.  Minimal members are linked
by twisted generators that preserve length; the chain, escalation and
domination operations make the structure of those links explicit and check
the structural guarantees on the fly, raising TheoremViolation with a
concrete witness if one fails.

Coset facts are computed once per subgroup: the first question about any
member u of a coset walks u down the twisted-word tree of the subgroup
(u * z = (u * parent) * g on each row) and records the sorted members in a
partition shared by every later call (coset, min_set, is_minimal,
connect_minimals, escalation_trace, dominate, all_cosets), with each
member's tree position, so the quotient u^-1 * v of two members is a walk
in the subgroup's table (twisted._quotient), never a walk in W.

Every product of a member w by a twisted generator g is walked as
p * (q * g) by twisted._times, where w = p * q splits off the part q of w
in g's orbit parabolic: no step of that walk is longer than w * g, which
belongs to the coset, so a coset is answered in every touch order unless a
member really lies outside a truncated ball.  _step alone
judges the steps of chains, escalations and dominations: from a minimal
member, g keeps the length (even generators only) or lengthens.  _advance
alone moves dominate's witness along with each step.
"""
from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterator

from . import core
from .core import Element
from .errors import (
    CapExceeded,
    NotFixed,
    NotMinimal,
    NotSameCoset,
    TheoremViolation,
)
from .twisted import TwistedGenerator, TwistedSubgroup, _quotient, _times, _word_tree, twisted_reduced_word

_NICKNAMES = "xyzuvw"


def generator_nickname(position: int) -> str:
    """Display name for the twisted generator at a declared position."""
    if position < len(_NICKNAMES):
        return _NICKNAMES[position]
    return f"g{position + 1}"


class StepVerdict(enum.Enum):
    EQUAL = "equal"
    BRUHAT_UP = "bruhat-up"


@dataclass(frozen=True)
class CosetAnalysis:
    """One coset u * H: members, minimal members and their linking edges."""

    subgroup: TwistedSubgroup
    rep: Element
    members: tuple[Element, ...]
    min_set: tuple[Element, ...]
    min_graph: tuple[tuple[Element, Element, TwistedGenerator], ...]

    @property
    def min_length(self) -> int:
        return self.min_set[0].length

    def __repr__(self):
        return (
            f"CosetAnalysis(rep={self.rep.word_string()!r}, "
            f"size={len(self.members)}, min={len(self.min_set)})"
        )


@dataclass(frozen=True)
class EscalationTrace:
    """Stepwise verdicts along a twisted word applied to a minimal element."""

    base: Element
    word: tuple[TwistedGenerator, ...]
    steps: tuple[StepVerdict, ...]
    prefixes: tuple[Element, ...]  # base, base*x1, ..., base*x1..xk


@dataclass(frozen=True)
class DominationStep:
    generator: TwistedGenerator
    prefix: Element  # u * x1..xi after this step
    verdict: StepVerdict
    witness: Element  # the dominated minimal element after this step
    replaced: bool  # True when the equal-length rule advanced the witness


@dataclass(frozen=True)
class DominationResult:
    target: Element
    base: Element
    witness: Element
    steps: tuple[DominationStep, ...]


class _CosetPartition:
    """The cosets of one subgroup, each recorded on first touch.

    cid[i] is the coset id of element index i, or -1 while its coset is
    untouched.  Coset c's member indices sit sorted at members[c*h:(c+1)*h];
    indices follow ShortLex order, hence length, so the first nmin[c] of
    them are its minimal members; member i is r * elements[zpos[i]], r the
    coset's first touched member.  tree is the subgroup's twisted-word tree
    when the partition was made.  The partition keeps no reference to its
    subgroup, so it never closes a reference cycle through it.
    """

    __slots__ = ("system", "h", "tree", "cid", "zpos", "members", "nmin")

    def __init__(self, sub: TwistedSubgroup):
        self.system = sub.system
        self.h = sub.order
        self.tree = _word_tree(sub)
        self.cid = array("i", [-1]) * sub.system.size
        self.zpos = array("i", [-1]) * sub.system.size
        self.members = array("i")
        self.nmin = array("i")

    def coset_id(self, i: int) -> int:
        """Id of the coset of element index i, recording the coset if new.

        i * z is filled down the twisted-word tree, (i * parent) * g on each
        row, one _times per member; a member outside the enumerated ball
        raises OutOfEnumeratedRegion before anything is recorded.
        """
        c = self.cid[i]
        if c >= 0:
            return c
        sys = self.system
        at = [i] * self.h
        for z, parent, g in self.tree:
            at[z] = _times(sys, at[parent], g)
        found = sorted(set(at))
        if len(found) != self.h:
            raise TheoremViolation(
                f"coset of {sys.element(i).word_string()!r} has {len(found)} "
                f"distinct members, not {self.h}"
            )
        cid = self.cid
        for j in found:
            if cid[j] >= 0:
                raise TheoremViolation(
                    f"coset of {sys.element(i).word_string()!r} overlaps the coset "
                    f"of {sys.element(self.members[cid[j] * self.h]).word_string()!r}"
                )
        c = len(self.nmin)
        for z, j in enumerate(at):
            cid[j] = c
            self.zpos[j] = z
        self.members.extend(found)
        words = sys.words
        low = len(words[found[0]])
        k = 1
        while k < self.h and len(words[found[k]]) == low:
            k += 1
        self.nmin.append(k)
        return c

    def min_length(self, c: int) -> int:
        return len(self.system.words[self.members[c * self.h]])

    def is_min_in(self, c: int, w: Element) -> bool:
        """Whether w is a minimal member of coset c."""
        return self.cid[w.index] == c and w.length == self.min_length(c)


def _partition(sub: TwistedSubgroup) -> _CosetPartition:
    # kept here, not as a cached_property of TwistedSubgroup: twisted cannot
    # name _CosetPartition without importing cosets, which imports twisted
    part = sub.__dict__.get("_partition_cache")
    if part is None:
        part = _CosetPartition(sub)
        object.__setattr__(sub, "_partition_cache", part)
    return part


def _cosets(sub: TwistedSubgroup) -> Iterator[tuple[array, int]]:
    """Each coset of a complete group as (sorted member indices, number of
    minimal members), in order of representative, read off the partition."""
    sys = sub.system
    if not sys.complete:
        raise CapExceeded("coset partition needs a fully enumerated group")
    part = _partition(sub)
    h, members = part.h, part.members
    for i in range(sys.size):
        c = part.coset_id(i)
        if members[c * h] == i:
            yield members[c * h : (c + 1) * h], part.nmin[c]


def _locate(sub: TwistedSubgroup, u: Element) -> tuple[_CosetPartition, int]:
    """The subgroup's partition and the id of u's coset in it."""
    if u.system is not sub.system:
        raise ValueError("element and subgroup belong to different systems")
    part = _partition(sub)
    return part, part.coset_id(u.index)


def _step(sys: core.CoxeterSystem, i: int, g: TwistedGenerator) -> tuple[int, StepVerdict]:
    """Index of i*g and the verdict of that step of a twisted word read from
    a minimal member: EQUAL for an even generator that keeps the length,
    BRUHAT_UP for a longer step; anything else raises TheoremViolation.
    i*g must belong to a recorded coset, so the walk stays in the ball.
    """
    j = _times(sys, i, g)
    li, lj = len(sys.words[i]), len(sys.words[j])
    if lj > li:
        return j, StepVerdict.BRUHAT_UP
    if lj == li and not g.is_reflection:
        return j, StepVerdict.EQUAL
    raise TheoremViolation(
        f"{g.parity_class.value} generator {g.elt.word_string()!r} "
        f"{'kept' if lj == li else 'dropped'} the length at {sys.element(i).word_string()!r}"
    )


def _advance(
    sys: core.CoxeterSystem, i: int, witness: int, g: TwistedGenerator
) -> tuple[int, StepVerdict, int, bool]:
    """One step of dominate's walk: (i*g, verdict, witness after, replaced).

    The step itself is judged by _step.  A longer step keeps the witness.
    An equal-length step keeps it or replaces it by witness*g, whichever
    lies below i*g without being longer, preferring the shorter and then the
    ShortLex-smaller: indices follow ShortLex order, so the smaller index.
    """
    j, verdict = _step(sys, i, g)
    if verdict is StepVerdict.BRUHAT_UP:
        return j, verdict, witness, False
    top = Element(sys, j)
    # witness*g is a member of the recorded coset too
    moved = _times(sys, witness, g)
    words = sys.words
    if len(words[moved]) <= len(words[witness]) and core.bruhat_leq(Element(sys, moved), top):
        if moved < witness or not core.bruhat_leq(Element(sys, witness), top):
            return j, verdict, moved, True
        return j, verdict, witness, False
    if core.bruhat_leq(Element(sys, witness), top):
        return j, verdict, witness, False
    raise TheoremViolation(
        f"no dominated replacement for witness {sys.element(witness).word_string()!r} "
        f"at {top.word_string()!r} after {g.elt.word_string()!r}"
    )


def coset(sub: TwistedSubgroup, u: Element) -> CosetAnalysis:
    """Analyze the coset u * H."""
    part, c = _locate(sub, u)
    sys = sub.system
    lo = c * part.h
    members = tuple(Element(sys, i) for i in part.members[lo : lo + part.h])
    mins = members[: part.nmin[c]]
    edges = []
    for w in mins:
        for g in sub.gens:
            # w*g is a member of this recorded coset, so the walk stays in
            # the ball
            v = Element(sys, _times(sys, w.index, g))
            if part.is_min_in(c, v) and w.index < v.index:
                edges.append((w, v, g))
    edges.sort(key=lambda e: (e[0].index, e[1].index))
    return CosetAnalysis(
        subgroup=sub,
        rep=members[0],
        members=members,
        min_set=mins,
        min_graph=tuple(edges),
    )


def min_set(sub: TwistedSubgroup, u: Element) -> tuple[Element, ...]:
    part, c = _locate(sub, u)
    lo = c * part.h
    return tuple(Element(sub.system, i) for i in part.members[lo : lo + part.nmin[c]])


def is_minimal(sub: TwistedSubgroup, u: Element) -> bool:
    part, c = _locate(sub, u)
    return u.length == part.min_length(c)


def all_cosets(sub: TwistedSubgroup) -> list[CosetAnalysis]:
    """Partition the whole group into cosets of the subgroup, by representative."""
    return [coset(sub, sub.system.element(members[0])) for members, _ in _cosets(sub)]


def connect_minimals(sub: TwistedSubgroup, u: Element, v: Element) -> list[Element]:
    """Chain of minimal coset members from u to v along twisted generators.

    Every link multiplies by one twisted generator and stays inside the
    minimal set at constant length.
    """
    part, c = _locate(sub, u)
    if _locate(sub, v)[1] != c:
        raise NotSameCoset(
            f"{u.word_string()!r} and {v.word_string()!r} lie in different cosets"
        )
    for w in (u, v):
        if not part.is_min_in(c, w):
            raise NotMinimal(f"{w.word_string()!r} is not minimal in its coset")
    y = sub.elements[_quotient(sub, part.zpos[u.index], part.zpos[v.index])]
    sys = sub.system
    chain = [u]
    i = u.index
    for g in twisted_reduced_word(sub, y):
        i, verdict = _step(sys, i, g)
        if verdict is not StepVerdict.EQUAL:
            raise TheoremViolation(
                f"chain from {u.word_string()!r} to {v.word_string()!r} left the "
                f"minimal set at {sys.element(i).word_string()!r}"
            )
        chain.append(Element(sys, i))
    if i != v.index:
        raise TheoremViolation(
            f"chain from {u.word_string()!r} ended at {chain[-1].word_string()!r}, "
            f"not {v.word_string()!r}"
        )
    return chain


def escalation_trace(sub: TwistedSubgroup, u: Element, z: Element) -> EscalationTrace:
    """Apply the twisted word of z to minimal u, recording a verdict per step.

    Each step either keeps the length (allowed only for even twisted
    generators) or goes strictly up in the Bruhat order.
    """
    if z not in sub:
        raise NotFixed(f"{z.word_string()!r} is not in the fixed subgroup")
    if not is_minimal(sub, u):
        raise NotMinimal(f"{u.word_string()!r} is not minimal in its coset")
    sys = sub.system
    word = tuple(twisted_reduced_word(sub, z))
    steps = []
    prefixes = [u]
    cur = u
    for g in word:
        j, verdict = _step(sys, cur.index, g)
        nxt = Element(sys, j)
        if verdict is StepVerdict.BRUHAT_UP and not core.bruhat_leq(cur, nxt):
            raise TheoremViolation(
                f"length rose from {cur.word_string()!r} to "
                f"{nxt.word_string()!r} without Bruhat comparability"
            )
        steps.append(verdict)
        cur = nxt
        prefixes.append(cur)
    return EscalationTrace(base=u, word=word, steps=tuple(steps), prefixes=tuple(prefixes))


def dominate(sub: TwistedSubgroup, x: Element) -> DominationResult:
    """Construct a minimal coset member below x in the Bruhat order.

    Walks the twisted word of base^-1 * x from the ShortLex-least minimal
    member.  Strict steps keep the current witness; equal-length steps
    replace it, when needed, by witness * generator, preferring the shorter
    candidate and breaking ties by ShortLex.
    """
    part, c = _locate(sub, x)
    if part.is_min_in(c, x):
        return DominationResult(target=x, base=x, witness=x, steps=())
    sys = x.system
    base = Element(sys, part.members[c * part.h])
    y = sub.elements[_quotient(sub, part.zpos[base.index], part.zpos[x.index])]
    cur = base.index
    witness = base
    steps = []
    for g in twisted_reduced_word(sub, y):
        cur, verdict, w, replaced = _advance(sys, cur, witness.index, g)
        if replaced:
            witness = Element(sys, w)
        steps.append(
            DominationStep(
                generator=g, prefix=Element(sys, cur), verdict=verdict,
                witness=witness, replaced=replaced,
            )
        )
    if cur != x.index:
        raise TheoremViolation(
            f"twisted word from {base.word_string()!r} ended at "
            f"{sys.element(cur).word_string()!r}, not {x.word_string()!r}"
        )
    if not part.is_min_in(c, witness) or not core.bruhat_leq(witness, x):
        raise TheoremViolation(
            f"constructed witness {witness.word_string()!r} fails the contract "
            f"for {x.word_string()!r}"
        )
    return DominationResult(target=x, base=base, witness=witness, steps=tuple(steps))


def dominated_minimal(sub: TwistedSubgroup, x: Element) -> Element:
    """A minimal member of x's coset lying below x in the Bruhat order."""
    return dominate(sub, x).witness


def min_graph_dot(analysis: CosetAnalysis, name: str = "min_graph") -> str:
    """Render the minimal-element graph in DOT, deterministically.

    Nodes are canonical words as digit strings when every index is a
    single digit, otherwise space-separated; edges carry generator
    nicknames in declared order (x, y, z, ...).
    """
    sys = analysis.subgroup.system
    compact = sys.rank <= 9

    def label(w: Element) -> str:
        if not w.word:
            return "e"
        if compact:
            return "".join(str(a + 1) for a in w.word)
        return w.word_string()

    nick = {g.elt.index: generator_nickname(i) for i, g in enumerate(analysis.subgroup.gens)}
    lines = [f"graph {name} {{"]
    for w in analysis.min_set:
        lines.append(f'  "{label(w)}";')
    for u, v, g in analysis.min_graph:
        lines.append(f'  "{label(u)}" -- "{label(v)}" [label="{nick[g.elt.index]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
