"""Exact integer arithmetic in the cosine rings behind the enumeration."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtwist.rings import (
    CosineRing,
    cyclotomic_polynomial,
    euler_phi,
    two_cos_minimal_polynomial,
)


def poly_mul(a, b):
    """Product of integer polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def poly_eval(poly, x):
    out = 0.0
    for c in reversed(poly):
        out = out * x + c
    return out


def test_euler_phi_known_values():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 10: 4,
             12: 4, 14: 6, 16: 8, 30: 8, 100: 40}
    for n, v in known.items():
        assert euler_phi(n) == v


def test_cyclotomic_polynomials_known():
    # ascending coefficients
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_binomial():
    # the product of Phi_d over divisors d of n must be y^n - 1
    for n in range(1, 17):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == (-1,) + (0,) * (n - 1) + (1,)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 31):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_two_cos_minimal_polynomials_known():
    assert two_cos_minimal_polynomial(2) == (0, 1)        # 2cos(pi/2) = 0
    assert two_cos_minimal_polynomial(3) == (-1, 1)       # 2cos(pi/3) = 1
    assert two_cos_minimal_polynomial(4) == (-2, 0, 1)    # x^2 - 2
    assert two_cos_minimal_polynomial(5) == (-1, -1, 1)   # x^2 - x - 1
    assert two_cos_minimal_polynomial(6) == (-3, 0, 1)    # x^2 - 3
    assert two_cos_minimal_polynomial(7) == (1, -2, -1, 1)
    assert two_cos_minimal_polynomial(8) == (2, 0, -4, 0, 1)
    assert two_cos_minimal_polynomial(12) == (1, 0, -4, 0, 1)


def test_two_cos_polynomial_is_monic_of_half_totient_degree():
    for m in range(2, 31):
        poly = two_cos_minimal_polynomial(m)
        assert poly[-1] == 1
        assert len(poly) - 1 == euler_phi(2 * m) // 2


def test_two_cos_value_is_a_root_numerically():
    for m in range(2, 31):
        poly = two_cos_minimal_polynomial(m)
        assert abs(poly_eval(poly, 2.0 * math.cos(math.pi / m))) < 1e-8


def test_two_cos_rejects_degenerate_order():
    with pytest.raises(ValueError):
        two_cos_minimal_polynomial(1)


def test_ring_dimensions():
    assert CosineRing(set()).dim == 1
    assert CosineRing({2, 3}).dim == 1  # rational cosines add no factor
    assert CosineRing({4}).dim == 2
    assert CosineRing({5}).dim == 2
    assert CosineRing({7}).dim == 3
    assert CosineRing({8}).dim == 4
    assert CosineRing({4, 5}).dim == 4
    assert CosineRing({3, 5, 8}).dim == 8
    # an order dividing another bond adds no factor of its own
    assert CosineRing({4, 8}).dim == 4
    assert CosineRing({5, 10}).dim == 4
    assert CosineRing({2, 4, 8, 16}).dim == 8


def ring_value(ring, v):
    """Float value of ring element v over the ring's monomial basis."""
    xs = [2.0 * math.cos(math.pi / m) for m, _, _ in ring.factors]
    return sum(c * math.prod(x**e for x, e in zip(xs, exp)) for c, exp in zip(v, ring._exps))


@pytest.mark.parametrize(
    "orders", [{4, 8}, {5, 10}, {2, 4, 8, 16}], ids=lambda o: "-".join(map(str, sorted(o)))
)
def test_two_cos_of_a_dividing_order_is_a_polynomial_in_the_factor(orders):
    ring = CosineRing(orders)
    assert [m for m, _, _ in ring.factors] == [max(orders)]
    for m in orders:
        assert abs(ring_value(ring, ring.two_cos(m)) - 2.0 * math.cos(math.pi / m)) < 1e-9


@functools.lru_cache(maxsize=None)
def cached_ring(orders):
    return CosineRing(orders)


@st.composite
def ring_cases(draw):
    """Up to three finite orders in 2..12, their ring (dimension at most 80)
    and two elements of it with small integer coefficients."""
    orders = frozenset(draw(st.sets(st.integers(2, 12), max_size=3)))
    ring = cached_ring(orders)
    vectors = st.lists(st.integers(-3, 3), min_size=ring.dim, max_size=ring.dim)
    return orders, ring, tuple(draw(vectors)), tuple(draw(vectors))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ring_cases())
def test_ring_arithmetic_matches_real_values(case):
    orders, ring, a, b = case
    for m in orders:
        assert abs(ring_value(ring, ring.two_cos(m)) - 2.0 * math.cos(math.pi / m)) < 1e-9
    # every basis monomial is positive, so this bounds the rounding error
    scale = ring_value(ring, tuple(map(abs, a))) * ring_value(ring, tuple(map(abs, b)))
    got = ring_value(ring, ring.mul(a, b))
    assert abs(got - ring_value(ring, a) * ring_value(ring, b)) <= 1e-9 * (1 + scale)


def test_ring_integer_embedding():
    ring = CosineRing({5})
    two = ring.from_int(2)
    three = ring.from_int(3)
    assert ring.mul(two, three) == ring.from_int(6)
    assert ring.mul(two, ring.zero) == ring.zero
    assert ring.mul(ring.one, three) == three


def test_ring_rational_and_infinite_cosines():
    ring = CosineRing({4})
    assert ring.two_cos(2) == ring.zero
    assert ring.two_cos(3) == ring.one
    assert ring.two_cos(math.inf) == ring.from_int(2)


def test_ring_two_cos_squares():
    # (2cos(pi/4))^2 = 2 and the golden relation (2cos(pi/5))^2 = 2cos(pi/5) + 1
    ring = CosineRing({4, 5})
    r4 = ring.two_cos(4)
    assert ring.mul(r4, r4) == ring.from_int(2)
    r5 = ring.two_cos(5)
    expect = tuple(a + b for a, b in zip(r5, ring.one))
    assert ring.mul(r5, r5) == expect


def test_ring_generator_satisfies_its_polynomial():
    for orders in ({4}, {5}, {7}, {8}, {5, 8}, {4, 8}, {5, 10}):
        ring = CosineRing(orders)
        for m in orders:
            x = ring.two_cos(m)
            poly = two_cos_minimal_polynomial(m)
            # Horner evaluation inside the ring must give zero
            acc = ring.from_int(poly[-1])
            for c in reversed(poly[:-1]):
                acc = ring.mul(acc, x)
                acc = tuple(a + b for a, b in zip(acc, ring.from_int(c)))
            assert acc == ring.zero


def test_ring_multiplication_laws():
    ring = CosineRing({5, 8})
    a = ring.two_cos(5)
    b = ring.two_cos(8)
    c = tuple(x + y for x, y in zip(ring.from_int(3), b))
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    ab_plus_ac = tuple(x + y for x, y in zip(ring.mul(a, b), ring.mul(a, c)))
    b_plus_c = tuple(x + y for x, y in zip(b, c))
    assert ring.mul(a, b_plus_c) == ab_plus_ac
