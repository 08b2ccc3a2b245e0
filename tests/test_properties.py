"""Property tests on random Coxeter matrices of rank at most 4, enumerated
as small (often truncated) balls."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import coxtwist as ct
from conftest import down_set

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
