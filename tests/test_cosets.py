"""Coset analysis: minimal sets, linking graphs, escalation, domination."""

import dataclasses
import math

import pytest

import coxtwist as ct
from coxtwist import (
    CapExceeded,
    NotFixed,
    NotMinimal,
    NotSameCoset,
    StepVerdict,
    TheoremViolation,
)
from coxtwist import cosets
from coxtwist.cosets import generator_nickname
from conftest import a_system, dihedral, from_digits

import permutation_models as pm

INF = math.inf


def test_generator_nicknames():
    assert [generator_nickname(i) for i in range(8)] == [
        "x", "y", "z", "u", "v", "w", "g7", "g8",
    ]


def test_step_verdict_values():
    assert StepVerdict.EQUAL.value == "equal"
    assert StepVerdict.BRUHAT_UP.value == "bruhat-up"


# -- coset construction ------------------------------------------------------


def test_coset_members_and_rep(a3_sub):
    sys = a3_sub.system
    for u in sys:
        a = ct.coset(a3_sub, u)
        assert len(a.members) == a3_sub.order
        assert set(a.members) == {ct.multiply(u, z) for z in a3_sub.elements}
        assert list(a.members) == sorted(a.members)
        assert a.rep == a.members[0]
        assert u in a.members
        low = min(w.length for w in a.members)
        assert a.min_length == low
        assert set(a.min_set) == {w for w in a.members if w.length == low}
        # the same coset is reported identically from any member
        assert ct.coset(a3_sub, a.members[-1]).rep == a.rep


def test_min_set_and_is_minimal_helpers(a3_sub):
    sys = a3_sub.system
    for u in sys:
        mins = ct.min_set(a3_sub, u)
        assert mins == ct.coset(a3_sub, u).min_set
        for w in mins:
            assert ct.is_minimal(a3_sub, w)
        for w in ct.coset(a3_sub, u).members:
            assert ct.is_minimal(a3_sub, w) == (w in mins)


def test_all_cosets_partition(a3_sub, f4_sub, f4_cosets):
    for sub, analyses in ((a3_sub, ct.all_cosets(a3_sub)), (f4_sub, f4_cosets)):
        sys = sub.system
        assert len(analyses) * sub.order == sys.size
        seen = set()
        for a in analyses:
            assert not seen.intersection(a.members)
            seen.update(a.members)
        assert len(seen) == sys.size
        reps = [a.rep.index for a in analyses]
        assert reps == sorted(reps)


def test_all_cosets_needs_a_complete_group():
    sys = dihedral(INF, cap=30)
    theta = ct.validate_automorphism(sys, [0, 1], {0: 1, 1: 0})
    sub = ct.enumerate_fixed_subgroup(theta)  # just the identity
    with pytest.raises(CapExceeded):
        ct.all_cosets(sub)


def test_min_graph_edges_are_the_equal_length_links(a3_sub):
    for a in ct.all_cosets(a3_sub):
        min_idx = {w.index for w in a.min_set}
        expected = []
        for w in a.min_set:
            for g in a3_sub.gens:
                v = ct.multiply(w, g.elt)
                if v.index in min_idx and w.index < v.index:
                    expected.append((w, v, g))
        expected.sort(key=lambda e: (e[0].index, e[1].index))
        assert list(a.min_graph) == expected
        # twisted generators are involutions, so edges read both ways
        for w, v, g in a.min_graph:
            assert ct.multiply(v, g.elt) == w


# -- frozen F4 facts ----------------------------------------------------------


F4_MIN_DISTRIBUTION = {1: 5, 2: 25, 3: 18, 4: 9, 5: 6, 6: 4, 8: 4, 16: 1}


def test_f4_min_size_distribution_frozen(f4_cosets):
    dist = {}
    for a in f4_cosets:
        dist[len(a.min_set)] = dist.get(len(a.min_set), 0) + 1
    assert dist == F4_MIN_DISTRIBUTION
    assert sum(dist.values()) == 72


def test_f4_min_size_distribution_brute_force(f4, f4_theta, f4_cosets):
    # independent recount: membership by the fixed-point filter, grouping
    # by plain multiplication, minima by length only
    fixed = [z for z in f4 if ct.is_fixed(f4_theta, z)]
    assert len(fixed) == 16
    seen = set()
    dist = {}
    reps = set()
    for u in f4:
        if u.index in seen:
            continue
        members = [ct.multiply(u, z) for z in fixed]
        assert len({m.index for m in members}) == len(fixed)
        seen.update(m.index for m in members)
        reps.add(min(m.index for m in members))
        low = min(m.length for m in members)
        k = sum(1 for m in members if m.length == low)
        dist[k] = dist.get(k, 0) + 1
    assert len(seen) == 1152
    assert dist == F4_MIN_DISTRIBUTION
    assert reps == {a.rep.index for a in f4_cosets}


FOUR_MIN_WORDS = [
    "1 2 1 4 3 2 1 3",
    "1 2 1 4 3 2 3 4",
    "1 2 4 3 2 1 3 2",
    "1 4 3 2 1 3 2 4",
]


def test_f4_four_element_minimal_coset(f4_sub):
    a = ct.coset(f4_sub, from_digits(f4_sub.system, "42312342"))
    assert len(a.members) == 16
    assert [w.word_string() for w in a.min_set] == FOUR_MIN_WORDS
    assert a.min_length == 8
    edges = [
        (u.word_string(), v.word_string(), g.elt.word_string())
        for u, v, g in a.min_graph
    ]
    assert edges == [
        ("1 2 1 4 3 2 1 3", "1 2 1 4 3 2 3 4", "1 4"),
        ("1 2 1 4 3 2 1 3", "1 2 4 3 2 1 3 2", "2 3 2 3"),
        ("1 2 4 3 2 1 3 2", "1 4 3 2 1 3 2 4", "1 4"),
    ]


def test_f4_fully_minimal_coset(f4_sub):
    a = ct.coset(f4_sub, from_digits(f4_sub.system, "343231234312"))
    assert len(a.members) == 16
    assert a.min_set == a.members
    assert {w.length for w in a.members} == {12}
    assert len(a.min_graph) == 16
    degree = {}
    for u, v, _ in a.min_graph:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert set(degree.values()) == {2}


# -- chains between minimal elements ------------------------------------------


def test_connect_minimals_exhaustive(a3_sub):
    for a in ct.all_cosets(a3_sub):
        for u in a.min_set:
            for v in a.min_set:
                chain = ct.connect_minimals(a3_sub, u, v)
                assert chain[0] == u and chain[-1] == v
                min_idx = {w.index for w in a.min_set}
                gen_idx = {g.elt.index for g in a3_sub.gens}
                for w, nxt in zip(chain, chain[1:]):
                    assert nxt.index in min_idx
                    assert nxt.length == u.length
                    assert ct.multiply(ct.inverse(w), nxt).index in gen_idx


def test_connect_minimals_f4_chain(f4_sub):
    sys = f4_sub.system
    stops = ["42312342", "42312321", "43123121", "43123412"]
    elements = [from_digits(sys, d) for d in stops]
    chain = ct.connect_minimals(f4_sub, elements[0], elements[-1])
    assert chain == elements
    x = ct.element_from_word(sys, (0, 3))
    y = ct.element_from_word(sys, (1, 2, 1, 2))
    quotients = [ct.multiply(ct.inverse(u), v) for u, v in zip(chain, chain[1:])]
    assert quotients == [x, y, x]


def test_connect_minimals_rejections(f4_sub):
    sys = f4_sub.system
    s1, s2 = sys.gens()[0], sys.gens()[1]
    with pytest.raises(NotSameCoset):
        ct.connect_minimals(f4_sub, s1, s2)
    top = max(ct.coset(f4_sub, s1).members, key=lambda w: w.length)
    with pytest.raises(NotMinimal):
        ct.connect_minimals(f4_sub, s1, top)


# -- escalation traces ---------------------------------------------------------


def test_escalation_traces_exhaustive(a3_sub):
    # from any minimal element, a step keeps the length only under an even
    # generator and otherwise rises in the Bruhat order (model-checked)
    for a in ct.all_cosets(a3_sub):
        for u in a.min_set:
            for z in a3_sub.elements:
                trace = ct.escalation_trace(a3_sub, u, z)
                assert trace.base == u
                assert trace.prefixes[0] == u
                assert trace.prefixes[-1] == ct.multiply(u, z)
                assert len(trace.steps) == len(trace.word)
                for i, (g, verdict) in enumerate(zip(trace.word, trace.steps)):
                    prev, cur = trace.prefixes[i], trace.prefixes[i + 1]
                    assert ct.multiply(prev, g.elt) == cur
                    if verdict is StepVerdict.EQUAL:
                        assert cur.length == prev.length
                        assert not g.is_reflection
                    else:
                        assert cur.length > prev.length
                        assert pm.bruhat_leq(
                            pm.perm_of_word(4, prev.word), pm.perm_of_word(4, cur.word)
                        )


def test_escalation_trace_f4_spot(f4_sub):
    u = from_digits(f4_sub.system, "42312342")
    z = max(f4_sub.elements, key=lambda w: w.length)
    trace = ct.escalation_trace(f4_sub, u, z)
    assert len(trace.word) == 8
    assert [p.length for p in trace.prefixes] == [8, 10, 10, 12, 14, 16, 16, 16, 16]
    verdicts = [s.value for s in trace.steps]
    assert verdicts == [
        "bruhat-up", "equal", "bruhat-up", "bruhat-up",
        "bruhat-up", "equal", "equal", "equal",
    ]


def test_step_rule_judges_every_product(a3_sub, f4_sub):
    # a generator marked odd may not keep the length; a drop never passes
    for sub in (a3_sub, f4_sub):
        sys = sub.system
        for g in sub.gens:
            marked_odd = dataclasses.replace(g, parity_class=ct.GeneratorParity.ODD)
            for h in (g, marked_odd):
                for w in sys:
                    wg = ct.multiply(w, g.elt)
                    if wg.length > w.length:
                        assert cosets._step(sys, w.index, h) == (wg.index, StepVerdict.BRUHAT_UP)
                    elif wg.length == w.length and not h.is_reflection:
                        assert cosets._step(sys, w.index, h) == (wg.index, StepVerdict.EQUAL)
                    else:
                        with pytest.raises(TheoremViolation):
                            cosets._step(sys, w.index, h)


def test_escalation_trace_checks_bruhat_ascents(f4_sub, monkeypatch):
    u = from_digits(f4_sub.system, "42312342")
    z = max(f4_sub.elements, key=lambda w: w.length)
    monkeypatch.setattr(cosets.core, "bruhat_leq", lambda a, b: False)
    with pytest.raises(TheoremViolation):
        ct.escalation_trace(f4_sub, u, z)


def test_escalation_trace_rejections(f4_sub):
    sys = f4_sub.system
    with pytest.raises(NotFixed):
        ct.escalation_trace(f4_sub, sys.identity, sys.gens()[0])
    top = max(ct.coset(f4_sub, sys.gens()[0]).members, key=lambda w: w.length)
    with pytest.raises(NotMinimal):
        ct.escalation_trace(f4_sub, top, f4_sub.elements[0])
    # both faults at once: z is judged first
    with pytest.raises(NotFixed, match="is not in the fixed subgroup"):
        ct.escalation_trace(f4_sub, top, sys.gens()[0])


# -- domination -----------------------------------------------------------------


def test_dominate_exhaustive(a3_sub):
    below = pm.bruhat_leq_closure(4)
    for a in ct.all_cosets(a3_sub):
        min_idx = {w.index for w in a.min_set}
        for x in a.members:
            res = ct.dominate(a3_sub, x)
            assert res.target == x
            assert res.witness.index in min_idx
            assert pm.perm_of_word(4, res.witness.word) in below[pm.perm_of_word(4, x.word)]
            if x.index in min_idx:
                assert res.steps == () and res.witness == x and res.base == x
            else:
                assert res.base == a.min_set[0]
                assert res.steps[-1].prefix == x
                for step in res.steps:
                    assert step.witness.index in min_idx
                    assert step.verdict in (StepVerdict.EQUAL, StepVerdict.BRUHAT_UP)


def test_dominate_f4_coset_exhaustive(f4_sub):
    a = ct.coset(f4_sub, from_digits(f4_sub.system, "42312342"))
    min_idx = {w.index for w in a.min_set}
    for x in a.members:
        res = ct.dominate(f4_sub, x)
        assert res.witness.index in min_idx
        assert ct.bruhat_leq(res.witness, x)
        assert ct.dominated_minimal(f4_sub, x) == res.witness
    top = max(a.members, key=lambda w: w.length)
    assert ct.dominate(f4_sub, top).witness.word_string() == "1 2 1 4 3 2 1 3"


def test_dominate_minimal_short_circuit(f4_sub):
    u = from_digits(f4_sub.system, "343231234312")
    res = ct.dominate(f4_sub, u)
    assert res.steps == ()
    assert res.witness == u == res.base == res.target


# -- DOT rendering ----------------------------------------------------------------


def test_min_graph_dot_frozen(f4_sub):
    a = ct.coset(f4_sub, from_digits(f4_sub.system, "42312342"))
    assert ct.min_graph_dot(a) == (
        "graph min_graph {\n"
        '  "12143213";\n'
        '  "12143234";\n'
        '  "12432132";\n'
        '  "14321324";\n'
        '  "12143213" -- "12143234" [label="x"];\n'
        '  "12143213" -- "12432132" [label="y"];\n'
        '  "12432132" -- "14321324" [label="x"];\n'
        "}\n"
    )


def test_min_graph_dot_identity_coset(f4_sub):
    a = ct.coset(f4_sub, f4_sub.system.identity)
    assert ct.min_graph_dot(a) == 'graph min_graph {\n  "e";\n}\n'


def test_min_graph_dot_wide_rank_uses_spaced_words():
    # ten generators force the spaced word spelling
    matrix = ct.product_matrix([ct.named_matrix("A1")] * 10)
    sys = ct.build_system(matrix)
    theta = ct.validate_automorphism(sys, [0, 1], {})
    sub = ct.enumerate_fixed_subgroup(theta)
    a = ct.coset(sub, ct.element_from_word(sys, (2, 3)))
    dot = ct.min_graph_dot(a)
    assert '"3 4";' in dot and '"34"' not in dot


def test_coset_rejects_foreign_elements(f4_sub):
    with pytest.raises(ValueError):
        ct.coset(f4_sub, a_system(3).identity)
