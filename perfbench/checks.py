"""Correctness oracles for the benchmark; none of them calls core.bruhat_leq.

They read only public right products (``core.multiply``) and lengths, so
they work on a truncated ShortLex ball too: the ball is closed under
taking shorter right neighbours, so a product by a generator that leaves
the ball is longer than its input.
"""
from __future__ import annotations

from coxtwist import core
from coxtwist.errors import OutOfEnumeratedRegion


def _times(w, g):
    """w * g, or None when the product leaves the enumerated ball."""
    try:
        return core.multiply(w, g)
    except OutOfEnumeratedRegion:
        return None


def bruhat_below(u, w, gens) -> bool:
    """u <= w in the Bruhat order, by Deodhar's property Z on right descents.

    For a right descent s of w, u <= w iff min(u, us) <= ws (Bjorner-Brenti,
    Prop. 2.2.7).  Each step shortens w by one, and every element read is no
    longer than w, so it never leaves a ball that holds w.
    """
    while True:
        if u == w:
            return True
        if u.length >= w.length:
            return False
        for g in gens:
            ws = _times(w, g)
            if ws is not None and ws.length < w.length:
                break
        else:
            raise AssertionError(f"{w!r} has no right descent")
        us = _times(u, g)
        if us is not None and us.length < u.length:
            u = us
        w = ws


class CosetMinima:
    """Coset membership and minimal length of the cosets x * H, computed
    from the subgroup's elements by plain multiplication, one coset at a
    time as queries reach it."""

    def __init__(self, sub):
        self._elements = sub.elements
        self._coset_of: dict[int, int] = {}
        self._min_length: list[int] = []

    def coset(self, x) -> tuple[int, int]:
        """(coset id, minimal member length) of x * H; raises
        OutOfEnumeratedRegion when a member lies outside the ball."""
        cid = self._coset_of.get(x.index)
        if cid is None:
            members = [core.multiply(x, h) for h in self._elements]
            cid = len(self._min_length)
            self._min_length.append(min(m.length for m in members))
            for m in members:
                self._coset_of[m.index] = cid
        return cid, self._min_length[cid]


def witness_error(x, witness, minima: CosetMinima, gens) -> str | None:
    """Why ``witness`` is not a minimal member of x * H below x, or None."""
    try:
        cid, min_length = minima.coset(x)
        if minima.coset(witness)[0] != cid:
            return "witness lies in another coset"
    except OutOfEnumeratedRegion:
        return "answered, but the coset leaves the enumerated ball"
    if witness.length != min_length:
        return f"witness has length {witness.length}, coset minimum is {min_length}"
    if not bruhat_below(witness, x, gens):
        return "witness is not Bruhat-below the element"
    return None
