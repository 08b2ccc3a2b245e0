"""Coxeter systems enumerated as cap-bounded Cayley-graph balls.

A system is built by breadth-first closure from the identity under right
multiplication by generators, visiting elements in ShortLex order of their
reduced words (generators ordered by declared position).  The first word
that reaches an element is therefore its ShortLex-minimal reduced word, its
canonical form, of which only the length and the last letter are stored.
During the closure an element w is identified by the single vector
w^-1(rho) of the dual (Tits cone) representation, rho being the sum of the
fundamental weights; W acts simply transitively on the chambers, so
distinct elements give distinct vectors.  Right multiplication by a
generator is one firing of Eriksson's numbers game on that vector, in exact
integer arithmetic (see rings.py); the vectors are discarded once the
multiplication table is complete.

Every subsequent operation is a walk over that one right-multiplication
table, so answers are exact.  The table entry w*s of the last letter s of
w's canonical word is the element whose canonical word drops that letter,
so a canonical word is read up the table from its end, w = (w*s)*s, one
stored last letter per step.  One chain reader (_chain) serves W and the
fixed subgroups of twisted.py, which store their last letters the same way.
An inverse is the walk of that chain from the identity (_walk_inverse), so
no second table is kept.  One strip of right descents in a generator
subset (_strip) splits an element by a standard parabolic, for
parabolic_decompose and for the twisted products of twisted.py.  A walk
that would leave the enumerated region raises OutOfEnumeratedRegion
instead of guessing, with the one message of _escapes.

The Bruhat order (bruhat_leq) takes one of two paths, chosen by whether the
enumeration closed.  A complete group compares by Deodhar's criterion on
its maximal quotients: the quotient label of every element under each
generator, and a mask of the labels below each quotient member, built on
the first comparison (_quotients), so a comparison is one read and one bit
test per generator.  On a truncated ball those masks would grow with the
square of the cap, so a ball lifts through right descents along the
canonical word's chain instead, keeping nothing; every step of that walk
shortens, so it never leaves the ball.
"""
from __future__ import annotations

import math
from array import array
from typing import Iterable, Sequence

from .errors import (
    InfiniteParabolic,
    MalformedMatrix,
    OutOfEnumeratedRegion,
    TheoremViolation,
)
from .rings import CosineRing

DEFAULT_CAP = 100_000
INF = math.inf


def _chain(table: Sequence[Sequence], last: Sequence, i: int) -> list[int]:
    """Letters of i's word, last letter first, read up a table whose row i
    holds i's products by the generators and last[i] the last letter of
    i's word (None for the identity, at 0): i = (i*s)*s for s = last[i].
    W's canonical words and H's twisted words are both read this way.  A
    real step goes to i's parent, which has a smaller index (position, in
    H); any other step raises TheoremViolation."""
    out = []
    while i:
        s = last[i]
        out.append(s)
        p = table[i][s]
        if p is None or p >= i:
            raise _not_a_descent(s, i)
        i = p
    return out


def _not_a_descent(s: int, i: int) -> TheoremViolation:
    return TheoremViolation(f"stored last letter s{s + 1} of element {i} is not a right descent")


def _escapes(size: int) -> OutOfEnumeratedRegion:
    return OutOfEnumeratedRegion(f"product escapes the enumerated ball of {size} elements")


def _generator_subset(sys: "CoxeterSystem", J: Iterable[int]) -> frozenset[int]:
    """J as a set, each member checked to be a generator index of sys
    before anything compares or sorts them."""
    J = frozenset(J)
    for s in J:
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < sys.rank:
            raise ValueError(f"J member {s!r} is not a generator index")
    return J


def _strip(table: Sequence[Sequence], i: int, J: Iterable[int], r) -> tuple:
    """(p, r*q^-1) for i = p*q, q in the parabolic W_J and p free of right
    descents in J, so the lengths add (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, Prop. 2.4.4).  i's right descents in J are stripped
    one at a time, and each stripped letter s is applied to r as well,
    r = r*s, so r ends as r*q^-1.  Indices follow ShortLex order, so a
    smaller neighbour index is the shorter element.
    Started at the identity, r ends as q^-1 and passes only through the
    prefixes of q^-1's word, each shorter than i until the strip reaches
    p = e.  A truncated ball holds every length shell below its top one
    whole, so r can leave it only on that last step, ending as None with
    q = i; parabolic_decompose returns i itself then."""
    while True:
        row = table[i]
        for s in J:
            j = row[s]
            if j is not None and j < i:
                i = j
                r = table[r][s]
                break
        else:
            return i, r


class Element:
    """A group element, identified by its position in the enumeration.

    Positions follow ShortLex order, so comparing indices compares
    canonical words.  Two elements are equal iff they belong to the same
    system and have the same canonical word.
    """

    __slots__ = ("system", "index")

    def __init__(self, system: "CoxeterSystem", index: int):
        self.system = system
        self.index = index

    @property
    def word(self) -> tuple[int, ...]:
        """Canonical ShortLex reduced word, 0-based generator indices."""
        sys = self.system
        letters = _chain(sys._table, sys._last, self.index)
        letters.reverse()
        return tuple(letters)

    @property
    def length(self) -> int:
        return self.system.length[self.index]

    def word_string(self) -> str:
        """Serialized form: space-separated 1-based indices, 'e' if empty."""
        w = self.word
        return " ".join(str(a + 1) for a in w) if w else "e"

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.system is self.system
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.system), self.index))

    def __lt__(self, other):
        if not isinstance(other, Element) or other.system is not self.system:
            return NotImplemented
        return self.index < other.index

    def __mul__(self, other):
        return multiply(self, other)

    def __invert__(self):
        return inverse(self)

    def __repr__(self):
        return f"Element({self.word_string()!r})"


class CoxeterSystem:
    """An enumerated Coxeter system (W, S).

    Attributes:
        matrix: bond matrix, entries int or math.inf.
        cap: enumeration bound that was in force.
        complete: True iff the whole group fits inside the cap.
        length: length of each element by index (ShortLex order).
        words: canonical words by element index, rebuilt from the table on
            each access; no word is stored.
    """

    def __init__(self, matrix, cap, length, last, table, complete):
        self.matrix = matrix
        self.cap = cap
        self.length = length
        # last letter of each canonical word, None for the identity
        self._last = last
        self._table = table
        self.complete = complete
        self.rank = len(matrix)
        # not a functools.cached_property: its write through __dict__ slows
        # every later attribute load on the system (CPython 3.11+)
        self._reflection_cache = None
        # (proj, below) of _quotients, for bruhat_leq on a complete system
        self._quotient_cache = None

    # -- basic access -------------------------------------------------

    @property
    def size(self) -> int:
        """Number of enumerated elements."""
        return len(self.length)

    @property
    def order(self) -> int | None:
        """Group order when fully enumerated, else None."""
        return len(self.length) if self.complete else None

    @property
    def words(self) -> list[tuple[int, ...]]:
        """Canonical words by element index, each read by _chain as
        Element.word reads it: a new list on each access."""
        return [Element(self, i).word for i in range(len(self._last))]

    @property
    def identity(self) -> Element:
        return Element(self, 0)

    def element(self, index: int) -> Element:
        return Element(self, index)

    def gens(self) -> tuple[Element, ...]:
        """The generators; one that the cap left out of the ball raises
        OutOfEnumeratedRegion."""
        row = self._table[0]
        if None in row:
            raise OutOfEnumeratedRegion(
                f"generator s{row.index(None) + 1} lies outside the enumerated ball "
                f"of {self.size} elements"
            )
        return tuple(Element(self, j) for j in row)

    def m(self, s: int, t: int):
        return self.matrix[s][t]

    def __iter__(self):
        return (Element(self, i) for i in range(len(self.length)))

    def __repr__(self):
        state = "complete" if self.complete else "truncated"
        return f"CoxeterSystem(rank={self.rank}, size={self.size}, {state})"

    # -- internals ----------------------------------------------------

    def _walk(self, start: int, letters) -> int:
        table = self._table
        i = start
        for a in letters:
            nxt = table[i][a]
            if nxt is None:
                raise _escapes(self.size)
            i = nxt
        return i

    def _walk_inverse(self, start: int, i: int) -> int:
        """Index of start * (element i)^-1: the walk of i's letters from
        the last, read up the table as _chain reads it, with no list built."""
        table, last = self._table, self._last
        p = start
        while i:
            s = last[i]
            p = table[p][s]
            if p is None:
                raise _escapes(self.size)
            parent = table[i][s]
            if parent is None or parent >= i:
                raise _not_a_descent(s, i)
            i = parent
        return p

    def _reflections(self):
        """All reflections inside the enumerated region, by closure under
        conjugation by generators.  Complete for complete systems."""
        if self._reflection_cache is not None:
            return self._reflection_cache
        table = self._table
        # a cap may leave a generator out of the ball; it neither seeds nor
        # conjugates
        gens = [s for s in range(self.rank) if table[0][s] is not None]
        found = {table[0][s] for s in gens}
        queue = sorted(found)
        for t in queue:
            for s in gens:
                # s*t*s = (s * t^-1) * s, t being an involution
                try:
                    c = self._walk(self._walk_inverse(table[0][s], t), (s,))
                except OutOfEnumeratedRegion:
                    continue
                if c not in found:
                    found.add(c)
                    queue.append(c)
        ordered = tuple(sorted(found))
        self._reflection_cache = (ordered, found)
        return self._reflection_cache


# -- construction -------------------------------------------------------


def _validate_matrix(matrix) -> tuple[tuple, ...]:
    if not isinstance(matrix, Sequence) or isinstance(matrix, (str, bytes)):
        raise MalformedMatrix("matrix must be a sequence of rows")
    rows = [tuple(r) for r in matrix]
    n = len(rows)
    if n == 0:
        raise MalformedMatrix("matrix must have at least one generator")
    for r in rows:
        if len(r) != n:
            raise MalformedMatrix("matrix must be square")
    for i in range(n):
        for j in range(n):
            e = rows[i][j]
            if i == j:
                if e != 1:
                    raise MalformedMatrix(f"diagonal entry m({i + 1},{i + 1}) must be 1")
                continue
            if e == INF:
                continue
            if not isinstance(e, int) or isinstance(e, bool) or e < 2:
                raise MalformedMatrix(
                    f"off-diagonal entry m({i + 1},{j + 1}) must be an int >= 2 or infinity"
                )
            if rows[j][i] != e:
                raise MalformedMatrix("matrix must be symmetric")
    return tuple(rows)


def build_system(matrix, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """Enumerate the Coxeter system of a bond matrix up to ``cap`` elements.

    Elements are found breadth-first and told apart by their orbit vectors
    w^-1(rho) in fundamental-weight coordinates over the cosine ring of the
    finite bonds; multiplying by a generator fires it in the numbers game.
    The result records whether enumeration closed (the full group) or was
    truncated at the cap.  Lengths and last letters are recorded beside the
    table; canonical words and all multiplication answers come from it.
    """
    matrix = _validate_matrix(matrix)
    n = len(matrix)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise MalformedMatrix("cap must be a positive integer")

    finite_orders = {matrix[i][j] for i in range(n) for j in range(i + 1, n) if matrix[i][j] != INF}
    ring = CosineRing(finite_orders)
    d = ring.dim

    # The state of w is w^-1(rho) in fundamental-weight coordinates, one
    # ring element of d ints per generator.  Firing s (the numbers game)
    # maps it to the state of w*s: c_s -> -c_s, and c_j gains
    # 2cos(pi/m_sj) * c_s for every bonded j (2 for an infinite bond).
    # Each firing is a list of sparse integer triples, state[dst] +=
    # coeff * old state[src]; the triples (src, src, -2) negate c_s.
    basis = [tuple(int(t == u) for t in range(d)) for u in range(d)]
    fire = []
    for s in range(n):
        triples = [(s * d + u, s * d + u, -2) for u in range(d)]
        for j in range(n):
            if j != s and matrix[s][j] != 2:
                c = ring.two_cos(matrix[s][j])
                for u in range(d):
                    for t, k in enumerate(ring.mul(c, basis[u])):
                        if k:
                            triples.append((j * d + t, s * d + u, k))
        fire.append(triples)

    # An entry still empty when row i fires leads one layer further out
    # (the shorter neighbours filled theirs when they fired), so a new
    # vector can only match one of the next layer: `seen` holds that layer
    # alone, and a state is dropped once its row has fired.
    rho = ring.one * n
    length = [0]
    last: list = [None]
    table: list[list] = [[None] * n]
    states = [rho]
    seen = {}
    layer = 0
    truncated = False
    # iterating over the indices as they were created keeps one int object
    # per index in the table; the next layer's length is one int object too
    queue = [0]
    for i in queue:
        if length[i] > layer:
            if truncated:
                # the cap is full and refused part of this layer: every
                # firing from here on leads one layer further out, to
                # elements the cap would refuse too
                break
            layer = length[i]
            seen = {}
        above = layer + 1
        row = table[i]
        state = states[i]
        states[i] = None
        for s in range(n):
            if row[s] is not None:
                continue
            f = list(state)
            for dst, src, k in fire[s]:
                f[dst] += k * state[src]
            f = tuple(f)
            j = seen.get(f)
            if j is None:
                if len(length) >= cap:
                    truncated = True
                    continue
                j = len(length)
                seen[f] = j
                length.append(above)
                last.append(s)
                states.append(f)
                table.append([None] * n)
                queue.append(j)
            row[s] = j
            table[j][s] = i

    return CoxeterSystem(
        matrix=matrix,
        cap=cap,
        length=length,
        last=last,
        table=table,
        complete=not truncated,
    )


# -- element operations --------------------------------------------------


def element_from_word(sys: CoxeterSystem, word: Iterable[int]) -> Element:
    """Resolve a (not necessarily reduced) word to its canonical element."""
    word = tuple(word)
    for a in word:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < sys.rank:
            raise ValueError(f"letter {a!r} is not a generator index of rank {sys.rank}")
    return Element(sys, sys._walk(0, word))


def _same_system(u: Element, v: Element):
    if u.system is not v.system:
        raise ValueError("elements belong to different systems")


def multiply(u: Element, v: Element) -> Element:
    _same_system(u, v)
    return Element(u.system, u.system._walk(u.index, v.word))


def inverse(w: Element) -> Element:
    """w^-1, by walking the reversed canonical word from the identity."""
    return Element(w.system, w.system._walk_inverse(0, w.index))


def descents(w: Element, side: str = "right") -> frozenset[int]:
    """Generators s with len(w*s) < len(w) (right) or len(s*w) < len(w) (left)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    sys = w.system
    if side == "right":
        # a missing entry means w*s left the ball, hence is longer
        near = sys._table[w.index]
    else:
        # if s is a left descent, every step of the walk s*w[:k] is shorter
        # than w or is w itself, so the walk stays in the ball; leaving it
        # means s*w is longer.  w's word is read up the table once.
        word = w.word
        near = []
        for s in range(sys.rank):
            try:
                near.append(sys._walk(0, (s, *word)))
            except OutOfEnumeratedRegion:
                near.append(None)
    length, lw = sys.length, w.length
    return frozenset(s for s, j in enumerate(near) if j is not None and length[j] < lw)


def is_reflection(w: Element) -> bool:
    _, found = w.system._reflections()
    return w.index in found


def reflections(sys: CoxeterSystem) -> tuple[Element, ...]:
    """All reflections in the enumerated region, in ShortLex order."""
    ordered, _ = sys._reflections()
    return tuple(Element(sys, i) for i in ordered)


def inversion_set(w: Element) -> tuple[Element, ...]:
    """N(w), the reflections t with len(w*t) < len(w), in ShortLex order.

    Computed from the canonical word: for word a_1..a_k the members are
    a_k..a_(j+1) a_j a_(j+1)..a_k for each position j."""
    sys = w.system
    word = w.word
    seen = set()
    for j in range(w.length):
        suffix = word[j + 1 :]
        t = sys._walk(0, tuple(reversed(suffix)) + (word[j],) + suffix)
        if t in seen:
            raise TheoremViolation(
                f"reduced word of {w.word_string()!r} produced a repeated inversion"
            )
        seen.add(t)
    return tuple(Element(sys, t) for t in sorted(seen))


def _quotients(sys: CoxeterSystem):
    """The maximal-quotient data of a complete system, as (proj, below),
    built once and kept in sys._quotient_cache.

    For each generator k, J = S minus {k}, the quotient W^J holds the least
    member of each coset i*W_J; its members are labelled 0, 1, ... in index
    order, so shorter members have smaller labels.  proj[k][i] is the label
    of the least member of i*W_J, and below[k][a] the bitmask of the labels
    below label a in the Bruhat order, which W^J inherits from W.

    proj is filled in one pass in index order.  With s = last[i] and
    p = i*s, every k != s has s in J, so i keeps p's label; for k = s, i
    takes the label of i*t for another right descent t, and without one
    D_R(i) = {s}, so i is the least member of its own coset.
    A member q != e with first letter s has s*q in W^J, and the covers of q
    in W^J are s*q and each s*c, c a cover of s*q, with l(s*c) = l(q) - 1
    and s*c in W^J (the lifting property on the left, Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Prop. 2.2.7 and Thm 2.5.5); below[k]
    closes over them in label order.  Every other s*c is below q too, so
    the length and membership tests change no mask; they keep the lists
    short.
    A stored last letter that is not a descent raises TheoremViolation,
    caching nothing.
    """
    table, last, length = sys._table, sys._last, sys.length
    n, size = sys.rank, sys.size
    code = "H" if size <= 65536 else "i"
    proj = [array(code, [0]) * size for _ in range(n)]
    members = [[0] for _ in range(n)]
    for i in range(1, size):
        s = last[i]
        row = table[i]
        p = row[s]
        if p >= i:
            raise _not_a_descent(s, i)
        # copying k = s too, then overwriting it, is faster than a test
        for pk in proj:
            pk[i] = pk[p]
        pk = proj[s]
        for t in range(n):
            if t != s and row[t] < i:
                pk[i] = pk[row[t]]
                break
        else:
            pk[i] = len(members[s])
            members[s].append(i)

    e = table[0]
    below = []
    for k in range(n):
        pk, mk = proj[k], members[k]
        words = [()]
        lower = [[]]
        masks = [1]
        for a in range(1, len(mk)):
            word = _chain(table, last, mk[a])
            word.reverse()
            words.append(word)
            s = word[0]
            b = pk[sys._walk(0, word[1:])]
            down = [b]
            for c in lower[b]:
                sc = sys._walk(e[s], words[c])
                if length[sc] > length[mk[c]] and mk[pk[sc]] == sc:
                    down.append(pk[sc])
            lower.append(down)
            mask = 1 << a
            for c in down:
                mask |= masks[c]
            masks.append(mask)
        below.append(masks)
    sys._quotient_cache = (proj, below)
    return sys._quotient_cache


def bruhat_leq(u: Element, w: Element) -> bool:
    """Strong Bruhat order comparison.

    A complete system answers by Deodhar's criterion: u <= w iff, for every
    generator k, the least member of u*W_(S minus {k}) is below that of w
    (Deodhar, Invent. Math. 39, 1977; Bjorner-Brenti, Combinatorics of
    Coxeter Groups, Thm 2.6.1), one projection read and one mask test per
    generator on the data of _quotients, built on the first comparison.
    The masks of a truncated ball would grow with the square of its cap, so
    a ball lifts through right descents instead: for a right descent s of
    w, u <= w iff min(u, u*s) <= w*s (ibid., Prop. 2.2.7).  The last letter
    of a canonical word is such a descent, and dropping it leaves the
    canonical word of w*s, so the walk reads w's stored last letters up the
    table, one letter per step.  Both steps read the right-multiplication
    table and only ever shorten, so the walk stays inside the ball and
    needs no inverse.  A stored last letter that is not a descent raises
    TheoremViolation on either path, as in _chain.
    """
    _same_system(u, w)
    sys = u.system
    iu, iw = u.index, w.index
    lu, lw = sys.length[iu], sys.length[iw]
    if sys.complete:
        if lu >= lw:
            return iu == iw
        proj, below = sys._quotient_cache or _quotients(sys)
        for pk, bk in zip(proj, below):
            if not bk[pk[iw]] >> pk[iu] & 1:
                return False
        return True
    table, last = sys._table, sys._last
    while iu != iw:
        if lu >= lw:
            return False
        lw -= 1
        s = last[iw]
        p = table[iw][s]
        if p is None or p >= iw:
            raise _not_a_descent(s, iw)
        iw = p
        # a missing entry means u*s left the ball, hence is longer; indices
        # follow ShortLex order, so a smaller index is the shorter neighbour
        us = table[iu][s]
        if us is not None and us < iu:
            iu, lu = us, lu - 1
    return True


def parabolic_decompose(w: Element, J: Iterable[int]) -> tuple[Element, Element]:
    """Split w = prefix * suffix with suffix in W_J, prefix J-descent-free
    and lengths adding; returns (prefix, suffix).  One _strip from the
    identity gives the prefix and the suffix's inverse, which is walked back
    to the suffix; a strip down to the identity leaves w itself as the
    suffix."""
    sys = w.system
    p, r = _strip(sys._table, w.index, _generator_subset(sys, J), 0)
    if not p:
        return Element(sys, 0), w
    return Element(sys, p), Element(sys, sys._walk_inverse(0, r))


def longest_element(sys: CoxeterSystem, J: Iterable[int]) -> Element:
    """Longest element of the standard parabolic W_J, if it is finite: the
    last member of its closure by enumerate_ball, which lists members in
    ShortLex order.  J is checked as parabolic_decompose checks it, before
    it is sorted."""
    J = sorted(_generator_subset(sys, J))
    row = sys._table[0]
    complete = all(row[s] is not None for s in J)
    if complete:
        members, complete = enumerate_ball(sys, [Element(sys, row[s]) for s in J])
    if not complete:
        raise InfiniteParabolic("parabolic subgroup does not close within the enumerated region")
    if len(members) > 1 and members[-2].length == members[-1].length:
        raise TheoremViolation(
            f"parabolic on {[s + 1 for s in J]} has no unique longest element"
        )
    return members[-1]


def enumerate_ball(sys: CoxeterSystem, gens: Iterable[Element]) -> tuple[tuple[Element, ...], bool]:
    """Closure of {e} under right multiplication by ``gens``, as
    (elements in ShortLex order, complete).

    A product that leaves the system's enumerated region is flagged by
    ``complete`` being False, never raised.
    """
    gen_words = []
    for g in gens:
        _same_system(g, sys.identity)
        gen_words.append(g.word)
    seen = {0}
    queue = [0]
    complete = True
    for i in queue:
        for word in gen_words:
            try:
                j = sys._walk(i, word)
            except OutOfEnumeratedRegion:
                complete = False
                continue
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return tuple(Element(sys, i) for i in sorted(seen)), complete
