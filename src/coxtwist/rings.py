"""Exact integer arithmetic in subrings of R generated by values 2*cos(pi/m).

The numbers game that enumerates a Coxeter group (core.build_system) adds
multiples 2*cos(pi/m) of one coordinate to another, over the finite bond
orders m of the matrix, so every coordinate is a Z-linear combination of
products of those values.  Each such value is an algebraic integer, so the
whole ring is a finitely generated free Z-module and all arithmetic stays
in plain Python ints.  Elements are represented as dense coefficient
tuples over a monomial basis; one ring instance is built per Coxeter
system, and its products of the bond values with the basis give the
integer coefficients of the firing rules.

Minimal polynomials of 2*cos(pi/m) are obtained from the cyclotomic
polynomial of order 2m: if Phi_n(y) has degree D then it is palindromic
for n > 2 and equals y^(D/2) * g(y + 1/y) for a monic integer polynomial
g of degree D/2 whose roots include 2*cos(pi/m) for n = 2m.
"""
from __future__ import annotations

import functools
import itertools
import math

# Polynomials are tuples of int coefficients, ascending degree.


def _poly_divexact(num, den):
    """Exact division of integer polynomials; the remainder must vanish."""
    num = list(num)
    d = len(den) - 1
    lead = den[-1]
    q = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c, r = divmod(num[i], lead)
        if r:
            raise ArithmeticError("division is not exact")
        q[i - d] = c
        if c:
            for j, dj in enumerate(den):
                num[i - d + j] -= c * dj
    if any(num):
        raise ArithmeticError("nonzero remainder in exact division")
    return tuple(q)


def euler_phi(n: int) -> int:
    out = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (n - 1) + [1])  # y^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    if len(num) - 1 != euler_phi(n):
        raise ArithmeticError(f"cyclotomic polynomial of order {n} has the wrong degree")
    return num


@functools.lru_cache(maxsize=None)
def two_cos_minimal_polynomial(m: int) -> tuple[int, ...]:
    """Monic minimal polynomial of 2*cos(pi/m) over Q, for finite m >= 2."""
    if m < 2:
        raise ValueError("bond order must be at least 2")
    phi = cyclotomic_polynomial(2 * m)
    half = (len(phi) - 1) // 2
    # p_k(x) = y^k + y^(-k) with x = y + 1/y
    p_prev, p_cur = (2,), (0, 1)
    g = [phi[half]] + [0] * half
    for k in range(1, half + 1):
        coeff = phi[half + k]
        if coeff:
            for i, c in enumerate(p_cur):
                g[i] += coeff * c
        p_prev, p_cur = p_cur, _poly_sub(_poly_shift(p_cur), p_prev)
    if g[-1] != 1:
        raise ArithmeticError(f"minimal polynomial of 2cos(pi/{m}) is not monic")
    return tuple(g)


def _poly_shift(a):
    return (0,) + tuple(a)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return tuple(x - y for x, y in zip(a, b))


def _reduction_rows(poly):
    """Coefficient rows expressing x^e over the basis 1..x^(d-1), e <= 2d-2."""
    d = len(poly) - 1
    rows = []
    for e in range(d):
        r = [0] * d
        r[e] = 1
        rows.append(tuple(r))
    top = [-c for c in poly[:d]]
    cur = list(top)
    for _ in range(d, 2 * d - 1):
        rows.append(tuple(cur))
        lead = cur[d - 1]
        cur = [0] + cur[: d - 1]
        if lead:
            for i in range(d):
                cur[i] += lead * top[i]
    return rows


class CosineRing:
    """The ring Z[2*cos(pi/m) : m in orders], orders a set of finite bonds.

    Bond orders m whose cosine is rational (m = 2, 3) or that divide another
    order m' (a polynomial in 2*cos(pi/m') then gives 2*cos(pi/m)) contribute
    no basis factor; an infinite bond contributes the integer 2 and is
    handled by the caller.  Elements are flat tuples of ints of length ``dim``.
    """

    def __init__(self, orders):
        orders = sorted(set(orders))
        factors = []
        for m in orders:
            poly = two_cos_minimal_polynomial(m)
            if len(poly) - 1 >= 2 and not any(k != m and k % m == 0 for k in orders):
                factors.append((m, len(poly) - 1, _reduction_rows(poly)))
        self.factors = tuple(factors)
        degs = [d for _, d, _ in factors]
        self.dim = math.prod(degs) if degs else 1
        self._exps = list(itertools.product(*[range(d) for d in degs])) or [()]
        self._exp_index = {e: i for i, e in enumerate(self._exps)}
        self.zero = tuple([0] * self.dim)
        self.one = self.from_int(1)
        self._mul_table = self._build_mul_table()

    def _build_mul_table(self):
        dim = self.dim
        table = [[None] * dim for _ in range(dim)]
        for i, ei in enumerate(self._exps):
            for j, ej in enumerate(self._exps):
                # product of two basis monomials: tensor the per-factor
                # reductions of x^(ei_f + ej_f)
                vecs = [self.factors[f][2][ei[f] + ej[f]] for f in range(len(self.factors))]
                out = [0] * dim
                for k, ek in enumerate(self._exps):
                    c = 1
                    for f, e in enumerate(ek):
                        c *= vecs[f][e]
                        if not c:
                            break
                    out[k] = c
                table[i][j] = tuple(out)
        return table

    def from_int(self, k: int):
        out = [0] * self.dim
        out[0] = k
        return tuple(out)

    def two_cos(self, m):
        """The ring element 2*cos(pi/m); m may be math.inf."""
        if m == math.inf:
            return self.from_int(2)
        for f, (fm, _, _) in enumerate(self.factors):
            if fm % m == 0:
                exp = tuple(1 if g == f else 0 for g in range(len(self.factors)))
                x = tuple(int(k == self._exp_index[exp]) for k in range(self.dim))
                # 2cos(k*t) = p_k(2cos(t)), p_(j+1) = x*p_j - p_(j-1), k = fm/m
                prev, cur = self.from_int(2), x
                for _ in range(fm // m - 1):
                    prev, cur = cur, tuple(a - b for a, b in zip(self.mul(x, cur), prev))
                return cur
        poly = two_cos_minimal_polynomial(m)
        if len(poly) != 2:
            raise ValueError(f"irrational 2cos(pi/{m}) is missing from the ring factors")
        return self.from_int(-poly[0])

    def mul(self, a, b):
        out = [0] * self.dim
        table = self._mul_table
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        c = ai * bj
                        row = table[i][j]
                        for k, rk in enumerate(row):
                            if rk:
                                out[k] += c * rk
        return tuple(out)
