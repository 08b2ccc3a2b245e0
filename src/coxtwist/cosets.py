"""Right cosets x * H of a fixed subgroup H and their minimal elements.

Min(u) collects the members of least length.  Minimal members are linked
by twisted generators that preserve length; the chain, escalation and
domination operations make the structure of those links explicit and check
the structural guarantees on the fly, raising TheoremViolation with a
concrete witness if one fails.

Coset facts are computed once per subgroup: the first question about any
member u of a coset walks u down the twisted-word tree of the subgroup
(u * z = (u * parent) * g on each row) and records the coset in a
partition shared by every later call (coset, min_set, is_minimal,
connect_minimals, escalation_trace, dominate, all_cosets).  The partition
is two arrays, each member's slot and the member at each slot.  A coset
fills h consecutive slots, numbered from its base b, the least member: b * z
sits at tree node z whatever member touched the coset first, so the
quotient u^-1 * v of two members is a walk in the subgroup's table
(twisted._quotient), never a walk in W.  The sorted members, and the
minimal ones among them, are read off a coset's slots when asked for.

Every product of a member w by a twisted generator g is walked as
p * (q * g) by twisted._times, where w = p * q splits off the part q of w
in g's orbit parabolic: no step of that walk is longer than w * g, which
belongs to the coset, so a coset is answered in every touch order unless a
member really lies outside a truncated ball.  _step alone
judges the steps of chains, escalations and dominations: from a minimal
member, g keeps the length (even generators only) or lengthens.  _advance
alone moves dominate's witness along with each step.

dominate's witness at a member is fixed by the member alone, so _carry
carries it down the twisted-word tree from the coset's base once per
coset, on the first dominate in that coset: one _advance per member.  The
partition keeps the witnesses beside the members, and every later dominate
in the coset reads its witness at x's node, one read.  The steps that led
there are built from the same carried walk when the result's steps are
first read (_domination_steps).  dominated-minimal-search runs the same
walk afresh.
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
    CoxeterError,
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
    """dominate's answer: witness, a minimal member of target's coset below
    target, reached from base by steps.  A result of dominate builds steps
    when they are first read; equality, hashing and repr read them as they
    read the other fields."""

    target: Element
    base: Element
    witness: Element
    steps: tuple[DominationStep, ...]

    def __getattr__(self, name):
        # dominate leaves steps unset and keeps (sub, part, lo, z), the
        # carried walk to build them from, in _walk
        walk = self.__dict__.get("_walk")
        if name != "steps" or walk is None:
            raise AttributeError(name)
        steps = _domination_steps(*walk)
        object.__setattr__(self, "steps", steps)
        del self.__dict__["_walk"]
        return steps


class _CosetPartition:
    """The cosets of one subgroup, each recorded on first touch.

    Two arrays hold the partition.  at[c*h:(c+1)*h] is coset c, node by
    node: at[c*h + z] = b * elements[z], b = at[c*h] its base, the least
    member.  slot[j] = c*h + z is the slot of member j, or -1 while its coset
    is untouched.  Indices follow ShortLex order, hence length, so the
    minimal members are those of the base's length.  tree, table and last
    are the subgroup's when the partition was made.  wit[c*h + z] is
    dominate's witness at node z (_carry), -1 past a failed step; wit[c*h]
    is -1 until the first dominate in the coset.  The partition keeps no
    reference to its subgroup, so it never closes a reference cycle through
    it.
    """

    __slots__ = ("system", "h", "tree", "table", "last", "slot", "at", "wit")

    def __init__(self, sub: TwistedSubgroup):
        self.system = sub.system
        self.h = sub.order
        self.tree = _word_tree(sub)
        self.table, self.last = sub.table, sub.last
        self.slot = array("i", [-1]) * sub.system.size
        self.at = array("i")
        self.wit = array("i")

    def slot_of(self, i: int) -> int:
        """The slot of element index i, recording its coset if new.

        i * z is filled down the twisted-word tree, (i * parent) * g on each
        row, one _times per member; a member outside the enumerated ball
        raises OutOfEnumeratedRegion before anything is recorded.  The base
        b = i * z_b then renumbers node z to b * z = i * (z_b * z).
        """
        s = self.slot[i]
        if s >= 0:
            return s
        sys, h = self.system, self.h
        at = [i] * h
        for z, parent, g in self.tree:
            at[z] = _times(sys, at[parent], g)
        found = set(at)
        if len(found) != h:
            raise TheoremViolation(
                f"coset of {sys.element(i).word_string()!r} has {len(found)} "
                f"distinct members, not {h}"
            )
        slot = self.slot
        for j in at:
            if slot[j] >= 0:
                raise TheoremViolation(
                    f"coset of {sys.element(i).word_string()!r} overlaps the coset "
                    f"of {sys.element(self.at[slot[j] - slot[j] % h]).word_string()!r}"
                )
        zb = at.index(min(found))
        if zb:
            node, table, last = [zb] * h, self.table, self.last
            for z, parent, _ in self.tree:
                node[z] = table[last[z]][node[parent]]
            at = [at[k] for k in node]
        lo = len(self.at)
        for z, j in enumerate(at):
            slot[j] = lo + z
        self.at.extend(at)
        self.wit += array("i", [-1]) * h
        return slot[i]

    def is_min_in(self, lo: int, w: Element) -> bool:
        """Whether w is a minimal member of the coset at slot lo: a member as
        long as the base at[lo]."""
        s = self.slot[w.index]
        return lo <= s < lo + self.h and w.length == self.system.length[self.at[lo]]


def _partition(sub: TwistedSubgroup) -> _CosetPartition:
    # kept here, not as a cached_property of TwistedSubgroup: twisted cannot
    # name _CosetPartition without importing cosets, which imports twisted
    part = sub.__dict__.get("_partition_cache")
    if part is None:
        part = _CosetPartition(sub)
        object.__setattr__(sub, "_partition_cache", part)
    return part


def _sorted_members(part: _CosetPartition, lo: int) -> tuple[list[int], int]:
    """The member indices of the coset at slot lo, sorted, and the number of
    its minimal members, which come first."""
    found = sorted(part.at[lo : lo + part.h])
    length = part.system.length
    low = length[found[0]]
    k = 1
    while k < len(found) and length[found[k]] == low:
        k += 1
    return found, k


def _cosets(sub: TwistedSubgroup) -> Iterator[tuple[list[int], int]]:
    """Each coset of a complete group as (sorted member indices, number of
    minimal members), in order of representative, read off the partition:
    a base is the member at node 0."""
    sys = sub.system
    if not sys.complete:
        raise CapExceeded("coset partition needs a fully enumerated group")
    part = _partition(sub)
    h, slot = part.h, part.slot
    for i in range(sys.size):
        s = slot[i]
        if s < 0:
            s = part.slot_of(i)
        if s % h == 0:
            yield _sorted_members(part, s)


def _locate(sub: TwistedSubgroup, u: Element) -> tuple[_CosetPartition, int, int]:
    """The subgroup's partition, the slot lo of u's coset there and u's node
    z, so that u sits at slot lo + z and the coset's base at slot lo."""
    if u.system is not sub.system:
        raise ValueError("element and subgroup belong to different systems")
    part = _partition(sub)
    s = part.slot_of(u.index)
    z = s % part.h
    return part, s - z, z


def _step(sys: core.CoxeterSystem, i: int, g: TwistedGenerator) -> tuple[int, StepVerdict]:
    """Index of i*g and the verdict of that step of a twisted word read from
    a minimal member: EQUAL for an even generator that keeps the length,
    BRUHAT_UP for a longer step; anything else raises TheoremViolation.
    i*g must belong to a recorded coset, so the walk stays in the ball.
    """
    j = _times(sys, i, g)
    li, lj = sys.length[i], sys.length[j]
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
    length = sys.length
    if length[moved] <= length[witness] and core.bruhat_leq(Element(sys, moved), top):
        if moved < witness or not core.bruhat_leq(Element(sys, witness), top):
            return j, verdict, moved, True
        return j, verdict, witness, False
    if core.bruhat_leq(Element(sys, witness), top):
        return j, verdict, witness, False
    raise TheoremViolation(
        f"no dominated replacement for witness {sys.element(witness).word_string()!r} "
        f"at {top.word_string()!r} after {g.elt.word_string()!r}"
    )


def _carry(
    sub: TwistedSubgroup, rows: list[tuple[int, int, TwistedGenerator]], base: int
) -> tuple[array, array]:
    """dominate's walk at each node z of the twisted-word tree rows,
    carried down from base by _advance: cur[z] is base * elements[z] and
    wit[z] the witness dominate holds there, or both are -1 when a step on
    the way to z failed."""
    sys = sub.system
    cur = [base] + [-1] * (sub.order - 1)
    wit = cur[:]
    for z, parent, g in rows:
        i = cur[parent]
        if i < 0:
            continue
        try:
            cur[z], _, wit[z], _ = _advance(sys, i, wit[parent], g)
        except CoxeterError:
            pass
    return array("i", cur), array("i", wit)


def coset(sub: TwistedSubgroup, u: Element) -> CosetAnalysis:
    """Analyze the coset u * H."""
    part, lo, _ = _locate(sub, u)
    sys = sub.system
    found, k = _sorted_members(part, lo)
    members = tuple(Element(sys, i) for i in found)
    mins = members[:k]
    edges = []
    for w in mins:
        z = part.slot[w.index] - lo
        for col, g in zip(sub.table, sub.gens):
            v = Element(sys, part.at[lo + col[z]])
            if part.is_min_in(lo, v) and w.index < v.index:
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
    part, lo, _ = _locate(sub, u)
    found, k = _sorted_members(part, lo)
    return tuple(Element(sub.system, i) for i in found[:k])


def is_minimal(sub: TwistedSubgroup, u: Element) -> bool:
    part, lo, _ = _locate(sub, u)
    return part.is_min_in(lo, u)


def all_cosets(sub: TwistedSubgroup) -> list[CosetAnalysis]:
    """Partition the whole group into cosets of the subgroup, by representative."""
    return [coset(sub, sub.system.element(members[0])) for members, _ in _cosets(sub)]


def connect_minimals(sub: TwistedSubgroup, u: Element, v: Element) -> list[Element]:
    """Chain of minimal coset members from u to v along twisted generators:
    the prefixes of the escalation trace of u^-1 * v from u, every step of
    which must keep the length (EQUAL), so that each link multiplies by one
    twisted generator and stays inside the minimal set.
    """
    part, lo, z_u = _locate(sub, u)
    _, lo_v, z_v = _locate(sub, v)
    if lo_v != lo:
        raise NotSameCoset(
            f"{u.word_string()!r} and {v.word_string()!r} lie in different cosets"
        )
    for w in (u, v):
        if not part.is_min_in(lo, w):
            raise NotMinimal(f"{w.word_string()!r} is not minimal in its coset")
    y = sub.elements[_quotient(sub, z_u, z_v)]
    trace = escalation_trace(sub, u, y)
    chain = list(trace.prefixes)
    for verdict, w in zip(trace.steps, chain[1:]):
        if verdict is not StepVerdict.EQUAL:
            raise TheoremViolation(
                f"chain from {u.word_string()!r} to {v.word_string()!r} left the "
                f"minimal set at {w.word_string()!r}"
            )
    if chain[-1] != v:
        raise TheoremViolation(
            f"chain from {u.word_string()!r} ended at {chain[-1].word_string()!r}, "
            f"not {v.word_string()!r}"
        )
    return chain


def escalation_trace(sub: TwistedSubgroup, u: Element, z: Element) -> EscalationTrace:
    """Apply the twisted word of z to minimal u, recording a verdict per step.

    Each step either keeps the length (allowed only for even twisted
    generators) or goes strictly up in the Bruhat order.  z's twisted word
    is read first, so a z outside the fixed subgroup raises NotFixed
    before u is checked.
    """
    word = tuple(twisted_reduced_word(sub, z))
    if not is_minimal(sub, u):
        raise NotMinimal(f"{u.word_string()!r} is not minimal in its coset")
    sys = sub.system
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


def _domination_steps(
    sub: TwistedSubgroup, part: _CosetPartition, lo: int, z: int
) -> tuple[DominationStep, ...]:
    """dominate's steps along the twisted word of node z, from the base of
    the coset at part.at[lo], read from the walk _carry left in
    part.at and part.wit.  A step that failed there is rerun by _advance,
    which raises its error."""
    sys, at, wit = sub.system, part.at, part.wit
    path = []
    for a in core._chain(sub.table, sub.last, z):
        path.append((lo + z, sub.gens[a]))
        z = sub.table[a][z]
    length = sys.length
    steps = []
    p = lo
    for k, g in reversed(path):
        if wit[k] < 0:
            _advance(sys, at[p], wit[p], g)  # raises the failed step's error
        steps.append(
            DominationStep(
                generator=g, prefix=Element(sys, at[k]),
                verdict=StepVerdict.EQUAL if length[at[k]] == length[at[p]]
                else StepVerdict.BRUHAT_UP,
                witness=Element(sys, wit[k]), replaced=wit[k] != wit[p],
            )
        )
        p = k
    return tuple(steps)


def dominate(sub: TwistedSubgroup, x: Element) -> DominationResult:
    """Construct a minimal coset member below x in the Bruhat order.

    Walks the twisted word of x's tree node from the base, the least
    minimal member.  Strict steps keep the current witness; equal-length
    steps replace it, when needed, by witness * generator, preferring the
    shorter candidate and breaking ties by ShortLex.  The witnesses are
    carried down the whole twisted-word tree once per coset (_carry), on the
    first dominate in the coset, at one step per member; each call reads
    the witness at x's node from them, and the result builds its steps from
    the same walk when they are first read.  A failed step on x's path is
    rerun to raise it at once.
    """
    part, lo, z = _locate(sub, x)
    if part.is_min_in(lo, x):
        return DominationResult(target=x, base=x, witness=x, steps=())
    sys = x.system
    wit = part.wit
    if wit[lo] < 0:
        wit[lo : lo + part.h] = _carry(sub, part.tree, part.at[lo])[1]
    if wit[lo + z] < 0:
        _domination_steps(sub, part, lo, z)  # raises the failed step's error
    witness = Element(sys, wit[lo + z])
    if not part.is_min_in(lo, witness) or not core.bruhat_leq(witness, x):
        raise TheoremViolation(
            f"constructed witness {witness.word_string()!r} fails the contract "
            f"for {x.word_string()!r}"
        )
    res = object.__new__(DominationResult)
    res.__dict__.update(
        target=x, base=Element(sys, part.at[lo]), witness=witness, _walk=(sub, part, lo, z)
    )
    return res


def dominated_minimal(sub: TwistedSubgroup, x: Element) -> Element:
    """A minimal member of x's coset lying below x in the Bruhat order."""
    return dominate(sub, x).witness


def min_graph_dot(analysis: CosetAnalysis) -> str:
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
    lines = ["graph min_graph {"]
    for w in analysis.min_set:
        lines.append(f'  "{label(w)}";')
    for u, v, g in analysis.min_graph:
        lines.append(f'  "{label(u)}" -- "{label(v)}" [label="{nick[g.elt.index]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
