"""Named types, product diagrams, and the JSON description schema."""

import math

import pytest

import coxtwist as ct
from coxtwist import DescriptionError, GroupDescription

INF = math.inf


def test_named_matrices_frozen():
    assert ct.named_matrix("A1") == ((1,),)
    assert ct.named_matrix("A2") == ((1, 3), (3, 1))
    assert ct.named_matrix("A3") == ((1, 3, 2), (3, 1, 3), (2, 3, 1))
    assert ct.named_matrix("B2") == ((1, 4), (4, 1))
    assert ct.named_matrix("B3") == ((1, 3, 2), (3, 1, 4), (2, 4, 1))
    assert ct.named_matrix("D4") == (
        (1, 3, 2, 2),
        (3, 1, 3, 3),
        (2, 3, 1, 2),
        (2, 3, 2, 1),
    )
    assert ct.named_matrix("F4") == ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))
    assert ct.named_matrix("H3") == ((1, 5, 2), (5, 1, 3), (2, 3, 1))
    assert ct.named_matrix("H4") == (
        (1, 5, 2, 2),
        (5, 1, 3, 2),
        (2, 3, 1, 3),
        (2, 2, 3, 1),
    )
    assert ct.named_matrix("I2(7)") == ((1, 7), (7, 1))
    assert ct.named_matrix("I2(inf)") == ((1, INF), (INF, 1))
    assert ct.named_matrix(" F4 ") == ct.named_matrix("F4")


def test_named_d_matrices_follow_the_diagram():
    # D_n: the path s1 - s2 - ... - s(n-1), and sn bonded to s(n-2) alone
    for n in range(5, 9):
        bonded = {(i, i + 1) for i in range(n - 2)} | {(n - 3, n - 1)}
        expected = tuple(
            tuple(1 if i == j else 3 if (min(i, j), max(i, j)) in bonded else 2 for j in range(n))
            for i in range(n)
        )
        assert ct.named_matrix(f"D{n}") == expected


def test_named_matrix_orders():
    # textbook orders pin down the diagram shapes
    expected = {"A4": 120, "B3": 48, "B4": 384, "D4": 192, "D5": 1920, "H3": 120}
    for name, order in expected.items():
        assert ct.build_system(ct.named_matrix(name)).order == order


def test_bad_type_names_rejected():
    for name in ("A0", "B1", "D3", "I2(1)", "I2(x)", "E8", "Z9", "F5", "", "A-1"):
        with pytest.raises(DescriptionError):
            ct.named_matrix(name)


def test_product_matrix_block_structure():
    matrix = ct.product_matrix([ct.named_matrix("A2"), ct.named_matrix("A1")])
    assert matrix == ((1, 3, 2), (3, 1, 2), (2, 2, 1))


def test_from_dict_minimal_document():
    d = GroupDescription.from_dict({"type": "A3"})
    assert d.matrix == ct.named_matrix("A3")
    assert d.L == (0, 1, 2)
    assert d.theta_pairs == ()
    assert d.cap == ct.DEFAULT_CAP


def test_from_dict_full_document():
    doc = {
        "name": "ignored label",
        "type": ["A2", "A2"],
        "L": [1, 2, 3, 4],
        "theta": [[1, 3], [2, 4]],
        "cap": 500,
    }
    d = GroupDescription.from_dict(doc)
    assert d.matrix == ct.product_matrix([ct.named_matrix("A2")] * 2)
    assert d.L == (0, 1, 2, 3)
    assert d.theta_pairs == ((0, 2), (1, 3))
    assert d.cap == 500


def test_from_dict_explicit_matrix_with_infinity_spellings():
    for spelling in (None, 0, "inf"):
        doc = {"matrix": [[1, spelling], [spelling, 1]], "theta": [[1, 2]], "cap": 25}
        d = GroupDescription.from_dict(doc)
        assert d.matrix == ((1, INF), (INF, 1))
        case = d.build()
        assert not case.system.complete and case.system.size == 25
        assert case.subgroup.order == 1  # the single orbit is infinite, so skipped
    # JSON false and 0.0 compare equal to 0 in Python, but are not spellings
    for spelling in (False, True, 0.0, 3.0, "0"):
        doc = {"matrix": [[1, spelling], [spelling, 1]]}
        with pytest.raises(DescriptionError, match="bad matrix entry"):
            GroupDescription.from_dict(doc)


def test_from_dict_rejections():
    bad = [
        "not a dict",
        {"type": "A2", "matrix": [[1]]},            # both sources
        {},                                          # neither source
        {"type": "A2", "shape": "round"},            # unknown key
        {"type": "A2", "name": 5},                   # name not a string
        {"type": "A2", "name": ["x"]},
        {"type": 7},                                 # type not a name
        {"type": []},                                # empty product
        {"type": "A2", "L": 3},                      # L not a list
        {"type": "A2", "L": [1, 1]},                 # repeated L entry
        {"type": "A2", "L": [0]},                    # zero is not 1-based
        {"type": "A2", "L": [3]},                    # beyond the rank
        {"type": "A2", "theta": [[1]]},              # not a pair
        {"type": "A2", "theta": [1, 2]},             # pairs must be lists
        {"type": "A2", "theta": [[1, "2"]]},         # non-integer index
        {"type": "A2", "theta": [[1, 9]]},           # beyond the rank
        {"type": "A2", "cap": 0},
        {"type": "A2", "cap": True},
        {"type": "A2", "cap": "many"},
        {"type": "A2", "generator_names": ["a"]},    # unknown key
        {"type": "A2", "generator_names": "ab"},     # unknown key
        {"matrix": "A2"},                            # matrix not a list
        {"matrix": [[1, "x"], ["x", 1]]},            # junk entry
        {"matrix": [[1, 3.5], [3.5, 1]]},            # float entry
        {"matrix": [1, 2]},                          # rows must be lists
    ]
    for doc in bad:
        with pytest.raises(DescriptionError):
            GroupDescription.from_dict(doc)


def test_build_realizes_case():
    case = GroupDescription.from_dict(
        {"type": "F4", "theta": [[1, 4], [2, 3]], "cap": 2000}
    ).build()
    assert case.system.order == 1152
    assert case.subgroup.order == 16
    assert case.theta.mapping == {0: 3, 3: 0, 1: 2, 2: 1}
    assert case.description.cap == 2000


def test_build_defaults_to_identity_theta():
    case = GroupDescription.from_dict({"type": "B2"}).build()
    assert case.subgroup.order == 8  # the whole parabolic is fixed
    assert [g.elt.word_string() for g in case.subgroup.gens] == ["1", "2"]


def test_build_with_restricted_L():
    case = GroupDescription.from_dict(
        {"type": "A3", "L": [1, 3], "theta": [[1, 3]]}
    ).build()
    assert case.theta.L == frozenset({0, 2})
    assert case.subgroup.order == 2
    words = sorted(z.word_string() for z in case.subgroup.elements)
    assert words == ["1 3", "e"]


def test_invalid_theta_surfaces_at_from_dict():
    with pytest.raises(ct.BondMismatch):
        GroupDescription.from_dict({"type": "B3", "theta": [[1, 3]]})
