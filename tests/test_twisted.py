"""Diagram automorphisms and their fixed subgroups."""

import dataclasses
import math
from itertools import permutations

import pytest

import coxtwist as ct
from coxtwist import (
    BondMismatch,
    CapExceeded,
    GeneratorParity,
    NotFixed,
    NotInWL,
    NotInvolutive,
    OutOfEnumeratedRegion,
    OutOfL,
    TheoremViolation,
)
from coxtwist import twisted
from conftest import a_system, dihedral

import permutation_models as pm

INF = math.inf


def swap_theta(sys, a, b, L=None):
    return ct.validate_automorphism(sys, range(sys.rank) if L is None else L, {a: b, b: a})


# -- validation --------------------------------------------------------------


def test_identity_automorphism_by_default():
    sys = a_system(4)
    theta = ct.validate_automorphism(sys, range(3), {})
    assert theta.L == frozenset({0, 1, 2})
    assert [theta(s) for s in range(3)] == [0, 1, 2]


def test_partial_L_keeps_outside_generators_untouched():
    sys = a_system(4)
    theta = ct.validate_automorphism(sys, [0, 2], {0: 2, 2: 0})
    assert theta.L == frozenset({0, 2})
    assert theta(0) == 2 and theta(2) == 0
    assert 1 not in theta.mapping


def test_mapping_outside_L_rejected():
    sys = a_system(4)
    with pytest.raises(OutOfL):
        ct.validate_automorphism(sys, [0, 1], {0: 2, 2: 0})
    with pytest.raises(OutOfL):
        ct.validate_automorphism(sys, [0, 1], {2: 0})
    with pytest.raises(OutOfL):
        ct.validate_automorphism(sys, [0, 7], {})
    with pytest.raises(OutOfL):
        ct.validate_automorphism(sys, [0, True], {})


def test_non_involutive_rejected():
    sys = a_system(4)
    with pytest.raises(NotInvolutive):
        ct.validate_automorphism(sys, range(3), {0: 1, 1: 2, 2: 0})


def test_bond_mismatch_rejected():
    b3 = ct.build_system(ct.named_matrix("B3"))
    with pytest.raises(BondMismatch) as err:
        swap_theta(b3, 0, 2)
    assert "m(" in str(err.value)
    # the swap on B2 itself is fine: the bond matrix is symmetric
    b2 = ct.build_system(ct.named_matrix("B2"))
    assert swap_theta(b2, 0, 1).mapping == {0: 1, 1: 0}


# -- orbits and twisted generators -------------------------------------------


def test_orbits_listed_by_smallest_member(f4_theta):
    assert ct.orbits(f4_theta) == ((0, 3), (1, 2))
    a3 = a_system(4)
    assert ct.orbits(swap_theta(a3, 0, 2)) == ((0, 2), (1,))
    assert ct.orbits(ct.validate_automorphism(a3, range(3), {})) == ((0,), (1,), (2,))


def test_twisted_generator_table():
    # (system, swap, expected word strings with parities)
    cases = [
        (a_system(3), (0, 1), [("1 2 1", "odd")]),
        (a_system(4), (0, 2), [("1 3", "even"), ("2", "odd")]),
        (ct.build_system(ct.named_matrix("B2")), (0, 1), [("1 2 1 2", "even")]),
        (dihedral(2), (0, 1), [("1 2", "even")]),
        (dihedral(7), (0, 1), [("1 2 1 2 1 2 1", "odd")]),
    ]
    for sys, (a, b), expected in cases:
        gens = ct.twisted_generators(swap_theta(sys, a, b))
        got = [(g.elt.word_string(), g.parity_class.value) for g in gens]
        assert got == expected
        for g in gens:
            assert g.is_reflection == (g.parity_class is GeneratorParity.ODD)
            assert g.is_reflection == ct.is_reflection(g.elt)
            assert g.elt == ct.longest_element(sys, g.orbit)


def test_f4_twisted_generators(f4_theta):
    gens = ct.twisted_generators(f4_theta)
    assert [g.elt.word_string() for g in gens] == ["1 4", "2 3 2 3"]
    assert [g.orbit for g in gens] == [(0, 3), (1, 2)]
    assert all(g.parity_class is GeneratorParity.EVEN for g in gens)
    assert all(not g.is_reflection for g in gens)


def test_infinite_orbit_skipped_and_reported():
    sys = dihedral(INF, cap=40)
    theta = swap_theta(sys, 0, 1)
    assert ct.twisted_generators(theta) == []
    assert ct.skipped_orbits(theta) == ((0, 1),)
    sub = ct.enumerate_fixed_subgroup(theta)
    assert sub.order == 1
    assert sub.elements == (sys.identity,)
    assert sub.skipped_orbits == ((0, 1),)


def test_finite_orbits_are_never_reported_skipped(f4_theta):
    assert ct.skipped_orbits(f4_theta) == ()


# -- applying theta -----------------------------------------------------------


def test_apply_theta_is_an_involutive_automorphism():
    sys = a_system(4)
    theta = swap_theta(sys, 0, 2)
    for u in sys:
        tu = ct.apply_theta(theta, u)
        assert tu.length == u.length
        assert ct.apply_theta(theta, tu) == u
        for v in sys:
            assert ct.apply_theta(theta, ct.multiply(u, v)) == ct.multiply(
                tu, ct.apply_theta(theta, v)
            )
    s1, s2, s3 = sys.gens()
    assert ct.apply_theta(theta, s1) == s3
    assert ct.apply_theta(theta, s2) == s2


def test_apply_theta_outside_parabolic_rejected():
    sys = a_system(4)
    theta = ct.validate_automorphism(sys, [0, 2], {0: 2, 2: 0})
    with pytest.raises(NotInWL):
        ct.apply_theta(theta, sys.gens()[1])
    with pytest.raises(ValueError):
        ct.apply_theta(theta, a_system(4).identity)


def test_is_fixed_matches_direct_comparison():
    sys = a_system(4)
    theta = swap_theta(sys, 0, 2)
    for w in sys:
        assert ct.is_fixed(theta, w) == (ct.apply_theta(theta, w) == w)


# -- fixed subgroup enumeration ------------------------------------------------


def test_a3_fixed_subgroup_is_the_reversal_centralizer(a3_sub):
    # the swap is conjugation by the longest element, so its fixed points
    # realize exactly the permutations commuting with the reversal
    rev = (3, 2, 1, 0)
    expected = {
        p for p in permutations(range(4)) if pm.compose(p, rev) == pm.compose(rev, p)
    }
    got = {pm.perm_of_word(4, z.word) for z in a3_sub.elements}
    assert got == expected
    assert a3_sub.order == 8
    assert sorted(z.length for z in a3_sub.elements) == [0, 1, 2, 3, 3, 4, 5, 6]


def test_fixed_subgroup_orders_small_cases():
    expected = {
        ("A2", (0, 1)): 2,
        ("B2", (0, 1)): 2,
        ("I2(4)", (0, 1)): 2,
        ("I2(8)", (0, 1)): 2,
    }
    for (name, (a, b)), order in expected.items():
        sys = ct.build_system(ct.named_matrix(name))
        assert ct.enumerate_fixed_subgroup(swap_theta(sys, a, b)).order == order


def test_component_swap_gives_the_diagonal_subgroup():
    # swapping the two A2 factors fixes exactly the diagonal copy of A2
    matrix = ct.product_matrix([ct.named_matrix("A2"), ct.named_matrix("A2")])
    sys = ct.build_system(matrix)
    theta = ct.validate_automorphism(sys, range(4), {0: 2, 2: 0, 1: 3, 3: 1})
    sub = ct.enumerate_fixed_subgroup(theta)
    assert sub.order == 6
    assert [g.elt.word_string() for g in sub.gens] == ["1 3", "2 4"]
    direct = {w.index for w in sys if ct.is_fixed(theta, w)}
    assert {z.index for z in sub.elements} == direct


def test_identity_theta_fixes_the_whole_parabolic():
    sys = a_system(4)
    theta = ct.validate_automorphism(sys, [0, 1], {})
    sub = ct.enumerate_fixed_subgroup(theta)
    assert sub.order == 6
    assert [g.elt.word_string() for g in sub.gens] == ["1", "2"]
    assert all(set(z.word) <= {0, 1} for z in sub.elements)


def test_fixed_subgroup_membership_and_repr(f4_sub):
    for z in f4_sub.elements:
        assert z in f4_sub
    outside = f4_sub.system.gens()[0]
    assert outside not in f4_sub
    assert a_system(3).identity not in f4_sub
    assert repr(f4_sub) == "TwistedSubgroup(order=16, gens=2)"


def test_unbounded_fixed_subgroup_raises():
    sys = dihedral(INF, cap=40)
    theta = ct.validate_automorphism(sys, [0, 1], {})  # identity theta
    with pytest.raises(CapExceeded):
        ct.enumerate_fixed_subgroup(theta)


# -- twisted reduced words -------------------------------------------------------


def test_twisted_reduced_words_rebuild_elements(f4_sub, a3_sub):
    for sub in (f4_sub, a3_sub):
        for z in sub.elements:
            word = ct.twisted_reduced_word(sub, z)
            out = sub.system.identity
            for g in word:
                out = ct.multiply(out, g.elt)
            assert out == z
            # plain length is additive along the twisted word
            assert sum(g.elt.length for g in word) == z.length
            assert ct.twisted_length(sub, z) == len(word)
        assert ct.twisted_length(sub, sub.system.identity) == 0


def test_f4_twisted_subgroup_is_dihedral_of_order_16(f4_sub):
    assert f4_sub.order == 16
    # twisted lengths must be those of the dihedral group with bond 8
    lengths = sorted(ct.twisted_length(f4_sub, z) for z in f4_sub.elements)
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]
    x, y = (g.elt for g in f4_sub.gens)
    xy = ct.multiply(x, y)
    power = f4_sub.system.identity
    for _ in range(8):
        power = ct.multiply(power, xy)
    assert power == f4_sub.system.identity
    assert ct.twisted_length(f4_sub, ct.multiply(x, ct.multiply(y, x))) == 3


def test_twisted_reduced_word_rejects_outsiders(f4_sub):
    with pytest.raises(NotFixed):
        ct.twisted_reduced_word(f4_sub, f4_sub.system.gens()[0])
    with pytest.raises(NotFixed):
        ct.twisted_length(f4_sub, f4_sub.system.gens()[3])


def test_a_stored_twisted_last_letter_that_is_not_a_descent_raises(f4_sub):
    # a generator read as the other one steps up to x*y and back to x, so an
    # unchecked chain never ends
    last = list(f4_sub.last)
    last[1] = 1 - last[1]
    sub = dataclasses.replace(f4_sub, last=tuple(last))
    with pytest.raises(TheoremViolation, match="of element 1 is not a right descent"):
        ct.twisted_reduced_word(sub, sub.elements[1])


@pytest.mark.parametrize("doc, refused", [
    ({"type": "F4", "theta": [[1, 4], [2, 3]]}, 0),
    ({"type": "A5", "theta": [[1, 5], [2, 4]]}, 0),
    ({"matrix": [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]],
      "L": [3, 4], "theta": [[3, 4]], "cap": 2000}, 674),
], ids=["F4", "A5", "5-3-4"])
def test_times_is_the_product_of_the_parabolic_split(doc, refused):
    # _times strips i's descents in g's orbit as parabolic_decompose does,
    # so it answers p * (q * g), and refuses exactly when that product
    # leaves the ball
    case = ct.GroupDescription.from_dict(doc).build()
    sys, gens = case.system, case.subgroup.gens
    refusals = 0
    for w in sys:
        for g in gens:
            p, q = ct.parabolic_decompose(w, g.orbit)
            try:
                expected = ct.multiply(p, ct.multiply(q, g.elt)).index
            except OutOfEnumeratedRegion:
                refusals += 1
                with pytest.raises(OutOfEnumeratedRegion):
                    twisted._times(sys, w.index, g)
                continue
            assert twisted._times(sys, w.index, g) == expected
    assert refusals == refused
