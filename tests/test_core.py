"""Enumeration, canonical words, inversions, Bruhat order, parabolics."""

import gc
import hashlib
import math
import random
import tracemalloc
from collections import Counter
from itertools import permutations

import pytest

import coxtwist as ct
from coxtwist import (
    InfiniteParabolic,
    MalformedMatrix,
    OutOfEnumeratedRegion,
    TheoremViolation,
)
from coxtwist import verify
from conftest import F4_MATRIX, a_system, dihedral, down_set

import permutation_models as pm

INF = math.inf


def element_perm(w):
    """The permutation realized by an element of a type A system."""
    return pm.perm_of_word(w.system.rank + 1, w.word)


# -- construction and orders ----------------------------------------------


def test_known_group_orders():
    assert a_system(2).order == 2
    assert a_system(3).order == 6
    assert a_system(4).order == 24
    assert a_system(5).order == 120
    assert ct.build_system(ct.named_matrix("B2")).order == 8
    assert ct.build_system(ct.named_matrix("B3")).order == 48
    assert ct.build_system(ct.named_matrix("D4")).order == 192
    assert ct.build_system(ct.named_matrix("H3")).order == 120
    assert ct.build_system(F4_MATRIX, cap=2000).order == 1152
    for m in range(2, 9):
        assert dihedral(m).order == 2 * m


def test_product_orders_factor():
    # products give an independent handle on identification across bonds:
    # a failure to separate elements would break the order product
    pairs = [("A2", "A2", 36), ("I2(4)", "I2(8)", 128), ("A1", "B2", 16),
             ("I2(5)", "A2", 60)]
    for left, right, order in pairs:
        matrix = ct.product_matrix([ct.named_matrix(left), ct.named_matrix(right)])
        assert ct.build_system(matrix).order == order


def test_infinite_groups_truncate():
    sys = dihedral(INF, cap=50)
    assert sys.size == 50
    assert not sys.complete
    assert sys.order is None
    affine = ct.build_system(((1, 3, 3), (3, 1, 3), (3, 3, 1)), cap=100)
    assert affine.size == 100
    assert not affine.complete


@pytest.mark.parametrize("matrix, small, big", [
    (((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1)), 2000, 5000),
    (((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1)), 2000, 20000),
    (((1, 3, 2), (3, 1, 3), (2, 3, 1)), 23, 24),
    (((1, 3, 2), (3, 1, 3), (2, 3, 1)), 1, 23),
], ids=["5-3-4", "affine A3", "A3 23", "A3 1"])
def test_a_smaller_cap_cuts_the_larger_ball(matrix, small, big):
    # the cap-small ball is the cap-big ball restricted to its first small
    # indices, with every entry past them read as None
    cut, ball = ct.build_system(matrix, cap=small), ct.build_system(matrix, cap=big)
    assert cut.size == small < ball.size
    assert not cut.complete
    assert cut.length == ball.length[:small]
    assert cut._last == ball._last[:small]
    assert cut._table == [
        [j if j is not None and j < small else None for j in row] for row in ball._table[:small]
    ]


def test_a_group_of_exactly_cap_elements_is_complete():
    a3 = ((1, 3, 2), (3, 1, 3), (2, 3, 1))
    assert ct.build_system(a3, cap=24).complete
    assert ct.build_system(ct.named_matrix("F4"), cap=1152).order == 1152


def test_enumeration_is_shortlex_ordered_and_prefix_closed():
    for sys in (a_system(4), dihedral(6), ct.build_system(
            ((1, 4, 2), (4, 1, 8), (2, 8, 1)), cap=120)):
        words = sys.words
        keys = [(len(w), w) for w in words]
        assert keys == sorted(keys)
        assert len(set(words)) == len(words)
        canon = set(words)
        for w in words:
            for k in range(len(w)):
                assert w[:k] in canon


def test_table_is_reciprocal():
    # generators are involutions, so following s twice returns
    sys = a_system(4)
    for i in range(sys.size):
        for s in range(sys.rank):
            j = sys._table[i][s]
            assert j is not None and sys._table[j][s] == i


def test_mixed_bond_parabolics_close_inside_truncated_system():
    # bonds 4 and 8 share cosine subfields; the dihedral parabolics must
    # still close with the right dihedral orders
    sys = ct.build_system(((1, 4, 2), (4, 1, 8), (2, 8, 1)), cap=400)
    assert not sys.complete
    assert len(ct.enumerate_ball(sys, [sys.gens()[0], sys.gens()[1]])[0]) == 8
    assert len(ct.enumerate_ball(sys, [sys.gens()[1], sys.gens()[2]])[0]) == 16
    assert ct.longest_element(sys, [0, 1]).length == 4
    assert ct.longest_element(sys, [1, 2]).length == 8


# The enumeration pinned on a fixed ladder: sha256 of
# repr((words, table, complete)), frozen from the closure that told
# elements apart by their reflection matrices.  The orbit-vector closure
# must reproduce it entry for entry.
E6_MATRIX = (
    (1, 2, 3, 2, 2, 2),
    (2, 1, 2, 3, 2, 2),
    (3, 2, 1, 3, 2, 2),
    (2, 3, 3, 1, 3, 2),
    (2, 2, 2, 3, 1, 3),
    (2, 2, 2, 2, 3, 1),
)
LADDER = {
    "A5": (ct.named_matrix("A5"), ct.DEFAULT_CAP),
    "B4": (ct.named_matrix("B4"), ct.DEFAULT_CAP),
    "D5": (ct.named_matrix("D5"), ct.DEFAULT_CAP),
    "F4": (F4_MATRIX, ct.DEFAULT_CAP),
    "H3": (ct.named_matrix("H3"), ct.DEFAULT_CAP),
    "H4": (ct.named_matrix("H4"), ct.DEFAULT_CAP),
    "I2(7)": (ct.named_matrix("I2(7)"), ct.DEFAULT_CAP),
    "E6": (E6_MATRIX, ct.DEFAULT_CAP),
    "5-3-4": (((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1)), 5000),
    "affine A2": (((1, 3, 3), (3, 1, 3), (3, 3, 1)), 3000),
    "inf-3-4": (((1, INF, 3), (INF, 1, 4), (3, 4, 1)), 5000),
    "4-8": (((1, 4, 2), (4, 1, 8), (2, 8, 1)), 400),
}
FROZEN_DIGESTS = {
    "A5": "8a7f05f46fe5304d5c01adaeff0c7378e8545a772c3c2130fbfef39d9863c6f0",
    "B4": "dd85925344e14bfdda0c011478762263a0b3c3f7c231a27f46a9f256095a7e8e",
    "D5": "fe1c5e957b528407a5b7d11b0913ea20153bfef19f4a21ed9a83349afc5c31fb",
    "F4": "d12bc557fa0e2ff4c2f86fbd50daa53d78477e5dfab8471c4fb7640e60fca699",
    "H3": "96f7d21f1df807c9d2a52872a99e1d50bd242484de20a1864e0edb6dc4291022",
    "H4": "48295c347b1502141a360009365d05c8b224f17b4905ddedc647aeada8bef5ba",
    "I2(7)": "3ce7b379cce1db26a76e0da36085a146e6c26052d80c551d0ab99c2c287912a4",
    "E6": "3cdf4255a46ffd60f178fd573178b7e53228f45c9d7ef9936d8aed01d1f935bf",
    "5-3-4": "9e8660b39c05d07c375d504832123151daea5a669773e9a632c89b270575fff1",
    "affine A2": "14fa01d49f30c20af828b1337daf08d56ddb9a444e3e08f9da71f915158cdb4e",
    "inf-3-4": "7fef84c1fc9d076456f16316a88418aea9bad923cef712e5c3117cffb816de7d",
    "4-8": "edba02f9b7d5c9431cad67b63d7d8e48af120731b83af37fc5ce630a6f22339a",
}


@pytest.fixture(scope="module")
def ladder():
    return {name: ct.build_system(m, cap=cap) for name, (m, cap) in LADDER.items()}


def test_enumeration_matches_frozen_digests(ladder):
    found = {
        name: hashlib.sha256(repr((sys.words, sys._table, sys.complete)).encode()).hexdigest()
        for name, sys in ladder.items()
    }
    assert found == FROZEN_DIGESTS


def test_finite_tables_satisfy_the_coxeter_relations(ladder):
    # s^2 = e (reciprocal rows) and (st)^m_st = e, walked from every element
    finite = [sys for sys in ladder.values() if sys.complete]
    assert len(finite) == 8
    for sys in finite:
        table = sys._table
        pairs = [(s, t, sys.m(s, t)) for s in range(sys.rank) for t in range(s + 1, sys.rank)]
        for i, row in enumerate(table):
            assert all(table[row[s]][s] == i for s in range(sys.rank))
            for s, t, m in pairs:
                j = i
                for _ in range(m):
                    j = table[table[j][s]][t]
                assert j == i


def test_stored_lengths_match_the_words(ladder):
    # lengths reach 300 here, past the small ints CPython shares
    for sys in [*ladder.values(), dihedral(INF, cap=601)]:
        assert list(sys.length) == [len(w) for w in sys.words]


def test_words_and_inverses_are_read_up_the_table(ladder):
    for name in ("F4", "5-3-4", "inf-3-4"):
        sys = ladder[name]
        words = sys.words
        starts = (0, 1, sys.size // 2, sys.size - 1)
        for w in sys:
            assert w.word == words[w.index]
            assert sys._walk(0, w.word) == w.index
            reverse = tuple(reversed(w.word))
            # a walk of the reversed word escapes a truncated ball exactly
            # when the walk up the table does
            for start in starts:
                try:
                    expected = sys._walk(start, reverse)
                except OutOfEnumeratedRegion:
                    with pytest.raises(OutOfEnumeratedRegion):
                        sys._walk_inverse(start, w.index)
                else:
                    assert sys._walk_inverse(start, w.index) == expected
                    if start == 0:
                        assert ct.inverse(w).index == expected


def test_a_stored_last_letter_that_is_not_a_descent_raises():
    # s1's last letter read as s2 steps up to s1*s2 and back to s1, so an
    # unchecked chain never ends, bruhat_leq(e, s1) answers False and
    # words indexes past its own list
    sys = a_system(3)
    sys._last[1] = 1
    message = "stored last letter s2 of element 1 is not a right descent"
    for read in (lambda: sys.element(1).word, lambda: ct.inverse(sys.element(1)),
                 lambda: ct.bruhat_leq(sys.identity, sys.element(1)), lambda: sys.words):
        with pytest.raises(TheoremViolation, match=message):
            read()
    # the complete group's quotient data is refused whole, so the next
    # comparison reads the bad letter again
    assert sys._quotient_cache is None
    with pytest.raises(TheoremViolation, match=message):
        ct.bruhat_leq(sys.identity, sys.element(1))
    # an ascent planted mid-table: the fill has read half the table when it
    # raises, and still stores nothing
    sys = ct.build_system(F4_MATRIX)
    w = sys.size // 2
    ascent = next(s for s in range(sys.rank) if sys._table[w][s] > w)
    sys._last[w] = ascent
    for _ in range(2):
        with pytest.raises(TheoremViolation, match=f"s{ascent + 1} of element {w} "):
            ct.bruhat_leq(sys.identity, sys.element(1))
        assert sys._quotient_cache is None
    # a step out of a truncated ball is no descent either
    sys = dihedral(INF, cap=10)
    deepest = sys.size - 1
    sys._last[deepest] = 1 - sys._last[deepest]
    w = sys.element(deepest)
    for read in (lambda: w.word, lambda: ct.inverse(w),
                 lambda: ct.bruhat_leq(sys.identity, w), lambda: sys.words):
        with pytest.raises(TheoremViolation, match=f"element {deepest} is not"):
            read()


def test_build_keeps_no_word_per_element():
    # the table, lengths and last letters; a word tuple per element would
    # add about 8 MB
    tracemalloc.start()
    try:
        sys = ct.build_system(E6_MATRIX)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys.order == 51840
    assert retained < 12_000_000


def test_infinite_balls_count_elements_by_length(ladder):
    def by_length(sys):
        counts = Counter(len(w) for w in sys.words)
        last = len(sys.words[-1])
        return [counts[k] for k in range(last)]  # the complete lengths

    affine = ladder["affine A2"]
    assert not affine.complete
    counts = by_length(affine)
    assert counts == [1] + [3 * k for k in range(1, len(counts))]
    assert len(counts) > 40
    free = dihedral(INF, cap=41)
    assert by_length(free) == [1] + [2] * 19
    assert Counter(len(w) for w in free.words)[20] == 2


def test_malformed_matrices_rejected():
    bad = [
        [],                          # empty
        [[1, 3]],                    # not square
        [[1, 3], [4, 1]],            # asymmetric
        [[2]],                       # diagonal not 1
        [[1, 1], [1, 1]],            # off-diagonal below 2
        [[1, True], [True, 1]],      # bools are not bond orders
        [[1, 3.0], [3.0, 1]],        # floats other than inf
        "st",                        # not a matrix at all
    ]
    for matrix in bad:
        with pytest.raises(MalformedMatrix):
            ct.build_system(matrix)
    with pytest.raises(MalformedMatrix):
        ct.build_system([[1]], cap=0)
    with pytest.raises(MalformedMatrix):
        ct.build_system([[1]], cap=True)


# -- canonical words against the permutation model ------------------------


def test_canonical_words_match_model_shortlex():
    # every element's stored word must be its ShortLex-least reduced word
    for n in (2, 3, 4):
        sys = a_system(n)
        seen = {}
        for w in sys:
            p = element_perm(w)
            assert p not in seen, "two elements realize one permutation"
            seen[p] = w
            assert w.word == pm.shortlex_word(p)
            assert w.length == pm.inversions(p)
        assert len(seen) == math.factorial(n)


def test_element_from_word_resolves_unreduced_words():
    sys = a_system(4)
    assert ct.element_from_word(sys, ()) == sys.identity
    assert ct.element_from_word(sys, (0, 0)) == sys.identity
    assert ct.element_from_word(sys, (0, 1, 0)) == ct.element_from_word(sys, (1, 0, 1))
    # all words of bounded length land on the canonical element
    words = [()]
    for _ in range(4):
        words = [w + (s,) for w in words for s in range(3)]
        for word in words:
            w = ct.element_from_word(sys, word)
            assert element_perm(w) == pm.perm_of_word(4, word)


def test_element_from_word_rejects_bad_letters():
    sys = a_system(3)
    for word in ((2,), (-1,), (True,), ("1",)):
        with pytest.raises(ValueError):
            ct.element_from_word(sys, word)


def test_multiply_and_inverse_match_model():
    sys = a_system(4)
    elements = list(sys)
    for u in elements:
        assert element_perm(ct.inverse(u)) == pm.invert(element_perm(u))
        assert ct.multiply(u, ct.inverse(u)) == sys.identity
        for v in elements:
            assert element_perm(ct.multiply(u, v)) == pm.compose(
                element_perm(u), element_perm(v)
            )


def test_element_operator_sugar():
    sys = a_system(3)
    s, t = sys.gens()
    assert s * t == ct.multiply(s, t)
    assert ~(s * t) == t * s
    assert repr(s * t) == "Element('1 2')"
    assert sys.identity.word_string() == "e"
    assert (s * t).word_string() == "1 2"


def test_elements_sort_in_shortlex_order():
    sys = a_system(4)
    elements = list(sys)
    assert elements == sorted(elements)
    keys = [(w.length, w.word) for w in elements]
    assert keys == sorted(keys)


def test_cross_system_operations_rejected():
    one, other = a_system(3), a_system(3)
    with pytest.raises(ValueError):
        ct.multiply(one.identity, other.identity)
    assert one.identity != other.identity


# -- descents --------------------------------------------------------------


def test_descents_match_model():
    sys = a_system(4)
    for w in sys:
        p = element_perm(w)
        right = {i for i in range(3) if p[i] > p[i + 1]}
        q = pm.invert(p)
        left = {i for i in range(3) if q[i] > q[i + 1]}
        assert ct.descents(w) == right
        assert ct.descents(w, "right") == right
        assert ct.descents(w, "left") == left
    with pytest.raises(ValueError):
        ct.descents(sys.identity, "sideways")


# Truncated balls with the larger ball that holds every element one longer
# than any of theirs; canonical words and indices agree on the smaller one.
TRUNCATED = {
    "5-3-4": (LADDER["5-3-4"][0], 2000, 5000),
    "affine A2": (LADDER["affine A2"][0], 300, 3000),
}


@pytest.mark.parametrize("name", TRUNCATED)
def test_left_descents_answer_every_element_of_a_truncated_ball(name):
    matrix, cap, big_cap = TRUNCATED[name]
    sys = ct.build_system(matrix, cap=cap)
    big = ct.build_system(matrix, cap=big_cap)
    assert not sys.complete
    assert big.words[: sys.size] == sys.words
    assert len(big.words[-1]) > len(sys.words[-1]) + 1
    for w in sys:
        expected = {
            s for s in range(sys.rank)
            if ct.element_from_word(big, (s, *w.word)).length < w.length
        }
        assert ct.descents(w, "left") == expected


def test_descents_on_truncated_boundary():
    # missing table entries mean the product grew longer, hence no descent
    sys = dihedral(INF, cap=10)
    deepest = sys.element(sys.size - 1)
    assert deepest.length == 5
    assert ct.descents(deepest) == {deepest.word[-1]}


# -- reflections and inversion sets ----------------------------------------


def test_reflections_match_transpositions():
    sys = a_system(4)
    refs = ct.reflections(sys)
    assert len(refs) == 6
    assert {element_perm(t) for t in refs} == set(pm.all_transpositions(4))
    assert list(refs) == sorted(refs)
    for w in sys:
        assert ct.is_reflection(w) == (element_perm(w) in pm.all_transpositions(4))


def test_reflection_counts():
    assert len(ct.reflections(ct.build_system(ct.named_matrix("B2")))) == 4
    assert len(ct.reflections(ct.build_system(ct.named_matrix("H3")))) == 15
    assert len(ct.reflections(ct.build_system(F4_MATRIX, cap=2000))) == 24
    for m in range(2, 9):
        sys = dihedral(m)
        refs = ct.reflections(sys)
        assert len(refs) == m
        # in a dihedral group the reflections are the odd-length elements
        for w in sys:
            assert ct.is_reflection(w) == (w.length % 2 == 1)


@pytest.mark.parametrize("matrix", [
    ct.named_matrix("A2"),
    ((1, 3, 3), (3, 1, 3), (3, 3, 1)),
], ids=["A2", "affine-A2"])
def test_reflections_on_a_ball_without_a_generator(matrix):
    # a cap of 2 keeps e and s1 only
    sys = ct.build_system(matrix, cap=2)
    assert not sys.complete and sys.size == 2
    s1 = ct.element_from_word(sys, [0])
    assert ct.reflections(sys) == (s1,)
    assert ct.is_reflection(s1) and not ct.is_reflection(sys.identity)


def test_inversion_set_matches_model():
    sys = a_system(4)
    trans = set(pm.all_transpositions(4))
    for w in sys:
        p = element_perm(w)
        inv = ct.inversion_set(w)
        assert len(inv) == w.length
        got = {element_perm(t) for t in inv}
        expected = {
            pm.transposition(4, a, b)
            for a in range(4)
            for b in range(a + 1, 4)
            if p[a] > p[b]
        }
        assert got == expected <= trans


def test_inversion_set_extremes_and_membership():
    sys = a_system(4)
    assert len(ct.inversion_set(sys.identity)) == 0
    w0 = ct.longest_element(sys, range(3))
    full = ct.inversion_set(w0)
    assert set(full) == set(ct.reflections(sys))
    s = sys.gens()[0]
    assert s in ct.inversion_set(s)
    assert s not in ct.inversion_set(sys.gens()[1])
    listed = list(full)
    assert listed == sorted(listed)


# -- Bruhat order -----------------------------------------------------------


A2_WORDS = [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]
A2_BRUHAT_ROWS = [
    "111111",
    "010111",
    "001111",
    "000101",
    "000011",
    "000001",
]


def test_bruhat_a2_frozen_table():
    sys = a_system(3)
    assert [w.word for w in sys] == A2_WORDS
    for i, u in enumerate(sys):
        for j, w in enumerate(sys):
            assert ct.bruhat_leq(u, w) == (A2_BRUHAT_ROWS[i][j] == "1")


def test_bruhat_matches_sorted_prefix_criterion():
    for n in (3, 4):
        sys = a_system(n)
        for u in sys:
            pu = element_perm(u)
            for w in sys:
                assert ct.bruhat_leq(u, w) == pm.bruhat_leq(pu, element_perm(w))


def test_model_criterion_matches_model_closure():
    # anchor the sorted-prefix criterion itself against a second oracle
    for n in (3, 4):
        below = pm.bruhat_leq_closure(n)
        for u in permutations(range(n)):
            for w in permutations(range(n)):
                assert pm.bruhat_leq(u, w) == (u in below[w])


def test_bruhat_dihedral_closed_form():
    # two dihedral elements compare iff equal or strictly shorter
    for m in range(2, 9):
        sys = dihedral(m)
        for u in sys:
            for w in sys:
                expected = u == w or u.length < w.length
                assert ct.bruhat_leq(u, w) == expected


def test_bruhat_order_axioms_f4(f4):
    import random

    rng = random.Random(7)
    elements = [f4.element(rng.randrange(f4.size)) for _ in range(40)]
    w0 = ct.longest_element(f4, range(4))
    for u in elements:
        assert ct.bruhat_leq(u, u)
        assert ct.bruhat_leq(f4.identity, u)
        assert ct.bruhat_leq(u, w0)
    for u in elements[:15]:
        for w in elements[:15]:
            if ct.bruhat_leq(u, w) and ct.bruhat_leq(w, u):
                assert u == w
            if ct.bruhat_leq(u, w) and u != w:
                assert u.length < w.length
            for v in elements[:15]:
                if ct.bruhat_leq(u, v) and ct.bruhat_leq(v, w):
                    assert ct.bruhat_leq(u, w)


@pytest.mark.parametrize("name", ["A5", "F4"])
def test_quotient_masks_agree_with_the_descent_walk(name):
    # a cap one short of the order keeps the ShortLex numbering but leaves
    # a truncated ball, which compares by the descent walk, not the masks
    full = ct.build_system(ct.named_matrix(name))
    ball = ct.build_system(ct.named_matrix(name), cap=full.size - 1)
    assert full.complete and not ball.complete

    def down_sets(sys):
        elements = [sys.element(i) for i in range(ball.size)]
        return [[u.index for u in elements if ct.bruhat_leq(u, w)] for w in elements]

    assert down_sets(full) == down_sets(ball)


@pytest.mark.parametrize("name", TRUNCATED)
def test_bruhat_answers_inside_a_truncated_ball(name):
    # w from the last complete layer and the last (partial) one, against
    # every enumerated u; none of these comparisons may refuse
    matrix, cap, _ = TRUNCATED[name]
    sys = ct.build_system(matrix, cap=cap)
    assert not sys.complete
    last = len(sys.words[-1])
    rng = random.Random(11)
    sample = []
    for k in (last - 1, last):
        layer = [w for w in sys if w.length == k]
        sample += rng.sample(layer, 6)
    for w in sample:
        below = down_set(w)
        assert [u.index for u in sys if ct.bruhat_leq(u, w)] == sorted(below)


# -- parabolic decomposition and longest elements ---------------------------


def subsets(it):
    items = list(it)
    out = [frozenset()]
    for x in items:
        out += [s | {x} for s in out]
    return out


def test_parabolic_decomposition_exhaustive():
    sys = a_system(4)
    for J in subsets(range(3)):
        members, _ = ct.enumerate_ball(sys, [sys.gens()[s] for s in J])
        member_idx = {w.index for w in members}
        for w in sys:
            prefix, suffix = ct.parabolic_decompose(w, J)
            assert ct.multiply(prefix, suffix) == w
            assert prefix.length + suffix.length == w.length
            assert set(suffix.word) <= set(J)
            assert not (ct.descents(prefix) & J)
            # prefix is the unique shortest element of the coset w * W_J
            coset_lengths = [ct.multiply(w, z).length for z in members]
            assert prefix.length == min(coset_lengths)
            assert coset_lengths.count(prefix.length) == 1
            assert suffix.index in member_idx


def test_parabolic_decomposition_on_a_truncated_ball():
    # the 5-3-4 ball keeps every length shell below its top one whole, so a
    # suffix shorter than w is inside it; w's inverse may not be
    sys = ct.build_system(
        [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]], cap=2000
    )
    assert not sys.complete
    for J in subsets(range(4)):
        for w in sys:
            prefix, suffix = ct.parabolic_decompose(w, J)
            assert ct.multiply(prefix, suffix) == w
            assert prefix.length + suffix.length == w.length
            assert set(suffix.word) <= J
            assert not (ct.descents(prefix) & J)
    outside = []
    for w in sys:
        try:
            ct.inverse(w)
        except OutOfEnumeratedRegion:
            outside.append(w)
    # the strip from the identity leaves the ball on these, ending at e
    assert len(outside) == 77
    for w in outside:
        assert ct.parabolic_decompose(w, range(4)) == (sys.identity, w)


def test_parabolic_decompose_rejects_bad_indices():
    sys = a_system(3)
    for J in ((5,), (True,), ("0",)):
        with pytest.raises(ValueError):
            ct.parabolic_decompose(sys.identity, J)


def test_longest_elements():
    a3 = a_system(4)
    w0 = ct.longest_element(a3, range(3))
    assert w0.word == (0, 1, 0, 2, 1, 0)
    assert element_perm(w0) == (3, 2, 1, 0)
    assert ct.longest_element(a3, ()) == a3.identity
    assert ct.longest_element(a3, (1,)) == a3.gens()[1]
    assert ct.longest_element(a3, (0, 2)).word == (0, 2)
    h3 = ct.build_system(ct.named_matrix("H3"))
    assert ct.longest_element(h3, range(3)).length == 15
    # the longest length always equals the number of reflections
    for sys in (a3, h3, ct.build_system(ct.named_matrix("B2"))):
        top = ct.longest_element(sys, range(sys.rank))
        assert top.length == len(ct.reflections(sys))
        assert ct.multiply(top, top) == sys.identity


def test_longest_element_f4_is_central(f4):
    w0 = ct.longest_element(f4, range(4))
    assert w0.length == 24
    for s in f4.gens():
        assert ct.multiply(ct.multiply(w0, s), w0) == s


def test_longest_element_infinite_parabolic():
    sys = dihedral(INF, cap=30)
    with pytest.raises(InfiniteParabolic):
        ct.longest_element(sys, (0, 1))
    with pytest.raises(ValueError):
        ct.longest_element(sys, (9,))


def test_longest_element_checks_J_before_sorting():
    # 'a' is refused as parabolic_decompose refuses it, before a sort could
    # compare it with 0
    a3 = a_system(4)
    with pytest.raises(ValueError, match="J member 'a' is not a generator index"):
        ct.longest_element(a3, [0, "a"])
    with pytest.raises(ValueError, match="J member 'a' is not a generator index"):
        ct.parabolic_decompose(a3.identity, [0, "a"])


def test_a_generator_outside_the_ball_is_refused():
    # A3 at cap 2 holds e and s1 only; gens() once returned Element(sys,
    # None) for s2 and s3, which read as the identity
    sys = a_system(4, cap=2)
    with pytest.raises(OutOfEnumeratedRegion, match="generator s2"):
        sys.gens()
    with pytest.raises(InfiniteParabolic):
        ct.longest_element(sys, [1])
    assert ct.longest_element(sys, [0]).word == (0,)


# -- balls and truncation ----------------------------------------------------


def test_enumerate_ball_full_and_parabolic():
    sys = a_system(4)
    full, complete = ct.enumerate_ball(sys, sys.gens())
    assert complete and len(full) == 24
    sub, complete = ct.enumerate_ball(sys, [sys.gens()[0], sys.gens()[1]])
    assert complete and len(sub) == 6
    assert all(set(w.word) <= {0, 1} for w in sub)
    assert list(sub) == sorted(sub)


def test_enumerate_ball_cap_and_region_truncation():
    sys = a_system(4)
    trunc = dihedral(INF, cap=10)
    ball, complete = ct.enumerate_ball(trunc, trunc.gens())
    assert not complete
    assert len(ball) == 10
    with pytest.raises(ValueError):
        ct.enumerate_ball(sys, [trunc.gens()[0]])


def test_walks_escaping_the_region_raise():
    sys = dihedral(INF, cap=10)
    deepest = sys.element(sys.size - 1)
    ascent = 1 - deepest.word[-1]
    s = sys._table[0][ascent]
    # the table walk, the inverse walk and verify's columns share one message
    for walk in (lambda: ct.multiply(deepest, sys.element(s)),
                 lambda: ct.element_from_word(sys, (0, 1) * 5),
                 lambda: sys._walk_inverse(deepest.index, s),
                 lambda: verify._column(sys, (ascent,))):
        with pytest.raises(OutOfEnumeratedRegion,
                           match="^product escapes the enumerated ball of 10 elements$"):
            walk()


def test_system_views(f4):
    assert repr(f4) == "CoxeterSystem(rank=4, size=1152, complete)"
    assert repr(dihedral(INF, cap=5)) == "CoxeterSystem(rank=2, size=5, truncated)"
    assert f4.m(0, 1) == 3 and f4.m(1, 2) == 4
    assert f4.size == 1152
    assert [g.word for g in f4.gens()] == [(0,), (1,), (2,), (3,)]
    assert f4.element(0) == f4.identity
