"""Property tests on random Coxeter matrices of rank at most 4, enumerated
as small (often truncated) balls, on random products of small finite types
with shuffled generators, and on the fixed subgroups of the swap of
generators 1 and 2 in matrices symmetric under it."""

import math
import random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import coxtwist as ct
from coxtwist import verify
from conftest import down_set, reflection_closure

BONDS = (2, 3, 4, 5, 6, math.inf)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(BONDS))
    return ct.build_system(rows, cap=draw(st.integers(1, 80)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems())
def test_bruhat_matches_subword_down_sets(sys):
    for w in sys:
        below = down_set(w)
        assert [u.index for u in sys if ct.bruhat_leq(u, w)] == sorted(below)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems())
def test_inverse_and_left_descents(sys):
    for w in sys:
        try:
            inv = ct.inverse(w)
        except ct.OutOfEnumeratedRegion:
            continue
        assert ct.multiply(inv, w) == sys.identity
        assert ct.descents(w, "left") == ct.descents(inv)


# group order of each finite factor a product may draw
FINITE_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "D4": 192, "H3": 120,
    **{f"I2({m})": 2 * m for m in range(5, 9)},
}


@st.composite
def finite_products(draw):
    """A product of one to three small finite types, of order at most 1500,
    its generators permuted so that every canonical word and last letter
    moves."""
    blocks, order = [], 1
    for _ in range(draw(st.integers(1, 3))):
        fits = sorted(name for name, o in FINITE_ORDERS.items() if order * o <= 1500)
        if not fits:
            break
        name = draw(st.sampled_from(fits))
        blocks.append(ct.named_matrix(name))
        order *= FINITE_ORDERS[name]
    rows = ct.product_matrix(blocks)
    perm = draw(st.permutations(range(len(rows))))
    return ct.build_system([[rows[a][b] for b in perm] for a in perm])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(finite_products())
def test_oracle_matches_reflection_closure(sys):
    assert sys.complete
    below = reflection_closure(sys)
    assert verify._below_masks(sys) == below
    # bruhat_leq reads a complete group's quotient masks
    for w in random.Random(sys.size).sample(list(sys), min(sys.size, 8)):
        expected = [i for i in range(sys.size) if below[w.index] >> i & 1]
        assert [u.index for u in sys if ct.bruhat_leq(u, w)] == expected


def swap_case(rows, L, rng, cap=ct.DEFAULT_CAP):
    """The fixed subgroup of swapping generators 1 and 2 on L, and its
    elements in an order shuffled by rng."""
    sys = ct.build_system(rows, cap=cap)
    sub = ct.enumerate_fixed_subgroup(ct.validate_automorphism(sys, L, {0: 1, 1: 0}))
    order = list(sub.elements)
    rng.shuffle(order)
    return sub, order


@st.composite
def swap_symmetric_cases(draw):
    """A matrix unchanged by swapping generators 1 and 2, theta swapping them
    on L = {1, 2} or on all generators, and a shuffled fixed subgroup."""
    n = draw(st.integers(2, 4))
    rows = [[1] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = draw(st.sampled_from(BONDS))
    for j in range(2, n):
        rows[0][j] = rows[j][0] = rows[1][j] = rows[j][1] = draw(st.sampled_from(BONDS))
        for i in range(j + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(BONDS))
    L = draw(st.sampled_from([(0, 1), tuple(range(n))]))
    try:
        return swap_case(
            rows, L, draw(st.randoms(use_true_random=False)), cap=draw(st.integers(1, 2000))
        )
    except (ct.CapExceeded, ct.InfiniteParabolic):
        assume(False)


def greedy_strip(sub, z):
    """Twisted word of z by stripping the first length-lowering generator."""
    word = []
    while z.length:
        g = next(g for g in sub.gens if ct.multiply(z, g.elt).length < z.length)
        word.append(g)
        z = ct.multiply(z, g.elt)
    return word[::-1]


# Random draws rarely give a finite group of rank 3 or 4, so three are named:
# A3 and D4 swapping two end nodes, and I2(5) x I2(5) swapping one factor.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(swap_symmetric_cases())
@example(swap_case([[1, 2, 3], [2, 1, 3], [3, 3, 1]], (0, 1, 2), random.Random(1)))
@example(swap_case(
    [[1, 2, 3, 2], [2, 1, 3, 2], [3, 3, 1, 3], [2, 2, 3, 1]], (0, 1, 2, 3), random.Random(2)
))
@example(swap_case(
    [[1, 5, 2, 2], [5, 1, 2, 2], [2, 2, 1, 5], [2, 2, 5, 1]], (0, 1, 2, 3), random.Random(3)
))
def test_twisted_words_are_additive(case):
    sub, order = case
    position = {z: k for k, z in enumerate(sub.elements)}
    for k, z in enumerate(sub.elements):
        assert [col[k] for col in sub.table] == [
            position[ct.multiply(z, g.elt)] for g in sub.gens
        ]
        # the stored last letter is the greedy word's, and it leads to the parent
        word = greedy_strip(sub, z)
        if k:
            assert sub.gens[sub.last[k]] is word[-1]
            assert sub.table[sub.last[k]][k] < k
        else:
            assert sub.last[k] is None
    for z in order:
        word = ct.twisted_reduced_word(sub, z)
        out = sub.system.identity
        for g in word:
            out = ct.multiply(out, g.elt)
        assert out == z
        assert sum(g.elt.length for g in word) == z.length
        assert word == greedy_strip(sub, z)
