"""The verification suites and their oracle."""

import dataclasses
import gc
import json
import weakref

import pytest

import coxtwist as ct
from coxtwist import cosets, twisted, verify
from conftest import a_system, dihedral

import permutation_models as pm


def test_default_run_is_green():
    run = ct.run_suite()
    assert run.ok
    assert run.total_failed == 0
    assert run.seed == verify.DEFAULT_SEED
    labels = {r.system for r in run.reports}
    assert labels == {
        "A1xA1 swap", "A2 swap", "A3 swap", "B2 identity",
        "I2(2) swap", "I2(3) swap", "I2(4) swap", "I2(5) swap",
        "I2(6) swap", "I2(7) swap", "I2(8) swap", "A2xA2 swap", "F4 swap",
    }
    assert len(run.reports) == len(labels) * len(verify.SUITE_NAMES)
    for label in labels:
        suites = [r.suite for r in run.reports if r.system == label]
        assert suites == list(verify.SUITE_NAMES)


def test_oracle_matches_permutation_model():
    # the transitive-closure oracle must itself agree with the external
    # sorted-prefix criterion before it is allowed to judge bruhat_leq
    for n in (3, 4):
        sys = a_system(n)
        for u in sys:
            pu = pm.perm_of_word(n, u.word)
            for w in sys:
                assert verify.oracle_bruhat(sys, u, w) == pm.bruhat_leq(
                    pu, pm.perm_of_word(n, w.word)
                )


def test_oracle_agreement_counts():
    report = verify.check_oracle_agreement(a_system(4), "A3")
    assert report.suite == "bruhat-oracle-agreement"
    assert report.system == "A3"
    assert report.checked == 24 * 24
    assert report.ok and report.passed == report.checked


def test_oracle_agreement_samples_large_groups(f4):
    report = verify.check_oracle_agreement(f4, "F4")
    assert report.checked == verify.SAMPLE_PAIRS
    assert report.ok


def test_oracle_needs_complete_group():
    sys = dihedral(2, cap=3)
    with pytest.raises(ct.CapExceeded):
        verify.oracle_bruhat(sys, sys.identity, sys.identity)


def test_oracle_mask_cache_is_reused(f4):
    first = verify._below_masks(f4)
    assert verify._below_masks(f4) is first


def test_corrupt_fixture_is_detected():
    config = {
        "corrupt": "bruhat-oracle",
        "cases": [
            {"name": "A2 swap", "type": "A2", "theta": [[1, 2]],
             "suites": ["bruhat-oracle-agreement"]}
        ],
    }
    run = ct.run_suite(config)
    assert not run.ok
    assert run.total_failed > 0
    report = run.reports[0]
    assert report.suite == "bruhat-oracle-agreement"
    assert report.failures
    text = run.to_text()
    assert "counterexamples" in text


F4_SWAP = {"name": "F4 swap", "type": "F4", "theta": [[1, 4], [2, 3]]}
WORD_SUITES = {
    "length-additivity", "minimal-chains", "step-dichotomy", "dominated-minimal-search",
}


def test_corrupt_reduced_word_memo_is_detected(monkeypatch):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sub = case.subgroup
    assert sub.elements[1].length != sub.elements[-1].length
    for z in sub.elements:
        ct.twisted_reduced_word(sub, z)
    # the partition is recorded from the healthy memo
    ct.all_cosets(sub)
    memo = sub._reduced_word_cache
    # the longest element now reads as a single generator
    memo[sub.elements[-1].index] = memo[sub.elements[1].index]
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: case)
    run = ct.run_suite({"cases": [{**F4_SWAP, "suites": sorted(WORD_SUITES)}]})
    assert not run.ok
    failing = {r.suite for r in run.reports if r.failures}
    assert failing and failing <= WORD_SUITES
    assert {"length-additivity", "step-dichotomy", "dominated-minimal-search"} <= failing
    # the tree walks ran to the end, and their coverage checks caught the
    # word: from each base the walks of elements[1] and of the longest
    # element reach the same member, and base * longest is never reached
    reports = {r.suite: r for r in run.reports}
    assert reports["step-dichotomy"].checked == 3952
    assert reports["dominated-minimal-search"].checked == 1152
    twice = (sub.elements[1], sub.elements[-1])
    assert set(reports["step-dichotomy"].failures) == {
        (u.word_string(), z.word_string())
        for a in ct.all_cosets(sub) for u in a.min_set for z in twice
    }
    assert set(reports["dominated-minimal-search"].failures) == {
        (x.word_string(), "construction")
        for a in ct.all_cosets(sub) for z in twice
        for x in [ct.multiply(a.rep, z)] if x not in a.min_set
    }


PARITY_SUITES = WORD_SUITES | {"generator-parity"}


@pytest.mark.parametrize("k", [0, 1])
def test_wrong_generator_parity_is_detected(monkeypatch, k):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    gens = list(case.subgroup.gens)
    assert gens[k].parity_class is ct.GeneratorParity.EVEN
    gens[k] = dataclasses.replace(gens[k], parity_class=ct.GeneratorParity.ODD)
    sub = dataclasses.replace(case.subgroup, gens=tuple(gens))
    monkeypatch.setattr(
        ct.GroupDescription, "build", lambda self: dataclasses.replace(case, subgroup=sub)
    )
    run = ct.run_suite({"cases": [{**F4_SWAP, "suites": sorted(PARITY_SUITES)}]})
    failing = {r.suite for r in run.reports if r.failures}
    # length-additivity reads lengths only; every suite that reads the
    # parity, directly or through the step rule, must fail
    assert failing == PARITY_SUITES - {"length-additivity"}
    healthy = {"generator-parity": 2, "length-additivity": 16, "minimal-chains": 970,
               "step-dichotomy": 3952, "dominated-minimal-search": 1152}
    assert {r.suite: r.checked for r in run.reports} == healthy


def replayed_step_failures(sub):
    """step-dichotomy's failures by one escalation_trace per (u, z) pair."""
    failures = []
    for a in ct.all_cosets(sub):
        for u in a.min_set:
            for z in sub.elements:
                try:
                    ct.escalation_trace(sub, u, z)
                except ct.CoxeterError:
                    failures.append((u.word_string(), z.word_string()))
    return failures


def replayed_dominate_failures(sub):
    """dominated-minimal-search's failures by one dominate per member."""
    below = verify._below_masks(sub.system)
    failures = []
    for a in ct.all_cosets(sub):
        for x in a.members:
            exhaustive = {v.index for v in a.min_set if (below[x.index] >> v.index) & 1}
            try:
                w = ct.dominated_minimal(sub, x)
            except ct.CoxeterError:
                failures.append((x.word_string(), "construction"))
                continue
            if w.index not in exhaustive:
                failures.append((x.word_string(), w.word_string()))
    return failures


def test_tree_walks_fail_like_per_pair_replays(monkeypatch):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, sub = case.system, case.subgroup
    assert verify.check_step_dichotomy(sub, "F4").ok
    assert verify.check_dominated_search(sub, "F4").ok
    target = (ct.coset(sub, sys.gens()[0]).min_set[-1].index, sub.gens[1])
    step = cosets._step

    def broken(system, i, g):
        if (i, g) == target:
            raise ct.TheoremViolation("planted")
        return step(system, i, g)

    monkeypatch.setattr(cosets, "_step", broken)
    report = verify.check_step_dichotomy(sub, "F4")
    assert report.failures
    assert list(report.failures) == replayed_step_failures(sub)
    report = verify.check_dominated_search(sub, "F4")
    assert report.failures
    assert list(report.failures) == replayed_dominate_failures(sub)


@pytest.mark.parametrize("doc, count", [
    ({"type": "A5", "theta": [[1, 5], [2, 4]]}, 665),
    (F4_SWAP, 905),
    ({"type": "D5", "theta": [[4, 5]]}, 1911),
], ids=["A5", "F4", "D5"])
def test_carried_witness_is_dominates_witness(doc, count):
    sub = ct.GroupDescription.from_dict(doc).build().subgroup
    rows = twisted._word_tree(sub)
    compared = 0
    for a in ct.all_cosets(sub):
        witnesses = verify._carried_witnesses(sub, rows, a.rep.index)
        for x in a.members[len(a.min_set):]:
            assert witnesses[x.index] == ct.dominate(sub, x).witness.index
            compared += 1
    assert compared == count


def test_reduced_word_memo_holds_no_reference_cycle():
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    ref = weakref.ref(case.subgroup)
    gc.disable()
    try:
        for z in case.subgroup.elements:
            ct.twisted_reduced_word(case.subgroup, z)
        assert len(case.subgroup.__dict__["_reduced_word_cache"]) == case.subgroup.order
        del case
        assert ref() is None
    finally:
        gc.enable()


def test_seed_determinism():
    config = {
        "seed": 99,
        "cases": [{"name": "F4 swap", "type": "F4", "theta": [[1, 4], [2, 3]],
                   "cap": 2000, "suites": ["bruhat-oracle-agreement"]}],
    }
    first = ct.run_suite(config).to_records()
    second = ct.run_suite(config).to_records()
    assert first == second
    assert first["seed"] == 99


def test_suites_filter_and_unknown_suite():
    config = {
        "cases": [{"name": "A2 swap", "type": "A2", "theta": [[1, 2]],
                   "suites": ["generator-parity"]}],
    }
    run = ct.run_suite(config)
    assert [r.suite for r in run.reports] == ["generator-parity"]
    assert run.ok
    with pytest.raises(ValueError):
        ct.run_suite({"cases": [{"type": "A2", "suites": ["no-such-suite"]}]})


def test_suite_errors_become_failure_records():
    config = {
        "cases": [{"name": "infinite dihedral", "type": "I2(inf)", "cap": 60,
                   "theta": [[1, 2]], "suites": ["coset-partition"]}],
    }
    run = ct.run_suite(config)
    assert not run.ok
    report = run.reports[0]
    assert report.checked == 0
    assert report.failures[0][0].startswith("error:")


def test_report_arithmetic():
    report = verify.VerificationReport("demo", "case", 5, (("w",),))
    assert report.passed == 4
    assert not report.ok
    run = verify.VerificationRun((report,), seed=1)
    assert run.total_checked == 5
    assert run.total_failed == 1
    assert not run.ok


def test_records_and_text_round_trip():
    config = {
        "cases": [{"name": "A2 swap", "type": "A2", "theta": [[1, 2]],
                   "suites": ["generator-parity", "coset-partition"]}],
    }
    run = ct.run_suite(config)
    records = run.to_records()
    assert json.dumps(records)  # JSON serializable
    assert records["seed"] == verify.DEFAULT_SEED
    assert [r["suite"] for r in records["suites"]] == [
        "generator-parity", "coset-partition",
    ]
    for r in records["suites"]:
        assert r["checked"] == r["passed"]
        assert r["failures"] == []
    text = run.to_text()
    lines = text.splitlines()
    assert lines[0] == f"seed: {verify.DEFAULT_SEED}"
    assert lines[1].split() == ["suite", "system", "checked", "passed", "failed"]
    assert lines[-1].startswith("total:")


def test_individual_checks_on_a3():
    case = ct.GroupDescription.from_dict({"type": "A3", "theta": [[1, 3]]}).build()
    sys, sub = case.system, case.subgroup
    assert verify.check_fixed_subgroup_equality(sub, "A3").ok
    assert verify.check_generator_parity(sub, "A3").ok
    assert verify.check_prop_additivity(sub, "A3").ok
    assert verify.check_coset_partition(sub, "A3").ok
    assert verify.check_bruhat_minimal_equality(sub, "A3").ok
    assert verify.check_minimal_chains(sub, "A3").ok
    assert verify.check_step_dichotomy(sub, "A3").ok
    assert verify.check_dominated_search(sub, "A3").ok
    assert verify.check_lemma_long_gen(sys, sub, "A3").ok
    assert verify.check_lemma_corr(sys, sub, "A3").ok
    assert verify.check_lemma_commuting_reflections(sys, "A3").ok
