"""End-to-end acceptance checks with explicit budgets.

Each test covers one headline behavior, asserts exact values, and prints a
single PASS line with the measured details.  Timed tests build their own
systems so the budget covers the full computation.
"""

import ast
import math
import time
from pathlib import Path

import coxtwist as ct
from coxtwist import verify
from conftest import F4_MATRIX, from_digits

INF = math.inf


def build_f4_case():
    sys = ct.build_system(F4_MATRIX, cap=2000)
    theta = ct.validate_automorphism(sys, range(4), {0: 3, 3: 0, 1: 2, 2: 1})
    return sys, theta, ct.enumerate_fixed_subgroup(theta)


def test_f4_full_enumeration_within_ten_seconds():
    start = time.perf_counter()
    sys = ct.build_system(F4_MATRIX, cap=2000)
    elapsed = time.perf_counter() - start
    assert sys.complete
    assert sys.order == 1152
    assert elapsed < 10.0
    print(f"PASS f4-enumeration: 1152 elements, complete, {elapsed:.3f}s (budget 10s)")


def test_f4_twisted_generators_and_subgroup_order():
    _, theta, sub = build_f4_case()
    words = [g.elt.word_string() for g in ct.twisted_generators(theta)]
    assert words == ["1 4", "2 3 2 3"]
    assert sub.order == 16
    print("PASS f4-twisted-subgroup: generators {1 4, 2 3 2 3}, order 16")


def test_f4_min_size_value_set_within_sixty_seconds():
    start = time.perf_counter()
    _, _, sub = build_f4_case()
    analyses = ct.all_cosets(sub)
    bruhat = verify.check_bruhat_minimal_equality(sub, "F4")
    elapsed = time.perf_counter() - start
    assert len(analyses) == 72
    assert all(len(a.members) == 16 for a in analyses)
    assert {len(a.min_set) for a in analyses} == {1, 2, 3, 4, 5, 6, 8, 16}
    assert bruhat.ok and bruhat.checked == 1152
    assert elapsed < 60.0
    print(
        "PASS f4-min-distribution: 72 cosets, |Min| values {1,2,3,4,5,6,8,16}, "
        f"Bruhat-minimality checked on 1152 members, {elapsed:.3f}s (budget 60s)"
    )


def test_four_element_min_set_chain_labels():
    sys, _, sub = build_f4_case()
    stops = ["42312342", "42312321", "43123121", "43123412"]
    elements = [from_digits(sys, d) for d in stops]
    analysis = ct.coset(sub, elements[0])
    assert set(analysis.min_set) == set(elements)
    assert len(analysis.min_set) == 4
    x = ct.element_from_word(sys, (0, 3))
    y = ct.element_from_word(sys, (1, 2, 1, 2))
    labels = []
    for u, v in zip(elements, elements[1:]):
        q = ct.multiply(ct.inverse(u), v)
        labels.append({x: "x", y: "y"}[q])
    assert labels == ["x", "y", "x"]
    # the minimal graph is exactly that path
    assert len(analysis.min_graph) == 3
    chain = ct.connect_minimals(sub, elements[0], elements[-1])
    assert chain == elements
    print("PASS four-element-min-chain: Min(42312342) chained by x, y, x")


SIXTEEN_CYCLE = [
    ("343231234312", "x"), ("432343123121", "y"), ("432342312321", "x"),
    ("234323123432", "y"), ("234323123423", "x"), ("423123431231", "y"),
    ("423123432312", "x"), ("231234323121", "y"), ("231234231231", "x"),
    ("123423123423", "y"), ("123423123432", "x"), ("312342312321", "y"),
    ("312343123121", "x"), ("342312342312", "y"), ("342312341231", "x"),
    ("343231234123", "y"),
]


def test_sixteen_element_min_cycle_alternation():
    sys, _, sub = build_f4_case()
    nodes = [from_digits(sys, d) for d, _ in SIXTEEN_CYCLE]
    assert len(set(nodes)) == 16
    analysis = ct.coset(sub, nodes[0])
    assert set(analysis.members) == set(nodes)
    assert analysis.min_set == analysis.members
    assert {w.length for w in analysis.members} == {12}
    x = ct.element_from_word(sys, (0, 3))
    y = ct.element_from_word(sys, (1, 2, 1, 2))
    gen_of = {"x": x, "y": y}
    expected_edges = set()
    for i, (_, label) in enumerate(SIXTEEN_CYCLE):
        u, v = nodes[i], nodes[(i + 1) % 16]
        assert ct.multiply(ct.inverse(u), v) == gen_of[label]
        expected_edges.add((min(u.index, v.index), max(u.index, v.index), label))
    got_edges = {
        (u.index, v.index, "x" if g.elt == x else "y") for u, v, g in analysis.min_graph
    }
    assert got_edges == expected_edges
    assert len(got_edges) == 16
    print(
        "PASS sixteen-element-min-cycle: all 16 members minimal at length 12, "
        "single 16-cycle with alternating x/y labels"
    )


def test_structure_suites_run_green_within_five_minutes():
    start = time.perf_counter()
    run = ct.run_suite()
    elapsed = time.perf_counter() - start
    assert run.ok
    assert run.total_failed == 0
    systems = {r.system for r in run.reports}
    assert len(systems) == 13  # A1xA1, A2, A3, B2, I2(2..8), A2xA2, F4
    for name in verify.SUITE_NAMES:
        assert sum(1 for r in run.reports if r.suite == name) == len(systems)
    assert elapsed < 300.0
    print(
        f"PASS structure-suites: {run.total_checked} checks over "
        f"{len(systems)} systems, 0 failures, {elapsed:.1f}s (budget 300s)"
    )


def test_bruhat_comparison_agrees_with_oracle():
    exhaustive_total = 0
    for case_doc in verify.default_config()["cases"]:
        doc = dict(case_doc)
        label = doc.get("name", "case")
        case = ct.GroupDescription.from_dict(doc).build()
        report = verify.check_oracle_agreement(case.system, label)
        assert report.ok, f"oracle disagreement on {label}: {report.failures[:3]}"
        if case.system.order <= verify.EXHAUSTIVE_LIMIT:
            assert report.checked == case.system.order**2
            exhaustive_total += report.checked
        else:
            assert report.checked == verify.SAMPLE_PAIRS >= 1000
    assert exhaustive_total > 0
    print(
        f"PASS bruhat-oracle-agreement: {exhaustive_total} exhaustive pairs on "
        "groups of order <= 48, 1000 seeded pairs on F4, all agreeing"
    )


def test_twisted_subgroup_closure_equals_fixed_filter():
    checked = 0
    for case_doc in verify.default_config()["cases"]:
        doc = dict(case_doc)
        label = doc.get("name", "case")
        case = ct.GroupDescription.from_dict(doc).build()
        report = verify.check_fixed_subgroup_equality(case.subgroup, label)
        assert report.ok, f"closure/filter mismatch on {label}: {report.failures[:3]}"
        checked += report.checked
    print(
        "PASS fixed-subgroup-equality: closure of the twisted generators matches "
        f"the fixed-point filter on {checked} parabolic elements across the bundle"
    )


def test_infinite_bond_orbits_skipped_and_truncation_flagged():
    sys = ct.build_system(((1, INF), (INF, 1)), cap=50)
    assert not sys.complete
    assert sys.order is None
    theta = ct.validate_automorphism(sys, [0, 1], {0: 1, 1: 0})
    assert ct.twisted_generators(theta) == []
    assert ct.skipped_orbits(theta) == ((0, 1),)
    sub = ct.enumerate_fixed_subgroup(theta)
    assert sub.skipped_orbits == ((0, 1),)
    assert sub.order == 1
    _, complete = ct.enumerate_ball(sys, sys.gens())
    assert not complete
    try:
        ct.element_from_word(sys, (0, 1) * 30)
    except ct.OutOfEnumeratedRegion:
        escaped = True
    else:
        escaped = False
    assert escaped
    print(
        "PASS infinite-bond-handling: infinite orbit skipped and reported, "
        "truncated enumeration flagged, region escapes raise"
    )


def test_package_invariants_survive_python_O():
    # python -O strips assert statements, so every invariant is a raise
    package = Path(ct.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
    print("PASS no-assert-invariants: no assert statement in the package source")
