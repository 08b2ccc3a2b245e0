"""The verification suites and their oracle."""

import dataclasses
import gc
import json
import weakref

import pytest

import coxtwist as ct
from coxtwist import core, cosets, twisted, verify
from conftest import (
    a_system, dihedral, plant_step_failure, reflection_closure, replayed_dominate,
    trade_members,
)

import permutation_models as pm

F4_SWAP = {"name": "F4 swap", "type": "F4", "theta": [[1, 4], [2, 3]]}


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


COLUMN_CASES = [
    {"type": "H3"},
    {"type": "F4"},
    {"type": "B4"},
    {"type": "D4", "theta": [[3, 4]]},
    {"type": "I2(7)"},
]


@pytest.mark.parametrize("doc", COLUMN_CASES, ids=["H3", "F4", "B4", "D4-swap", "I2(7)"])
def test_columns_match_walks(doc):
    sys = ct.GroupDescription.from_dict(doc).build().system
    refs = ct.reflections(sys)
    walks = {t.index: [sys._walk(i, t.word) for i in range(sys.size)] for t in refs}
    for t in refs:
        assert verify._column(sys, t.word) == walks[t.index]
    assert verify._below_masks(sys) == reflection_closure(sys)


@pytest.mark.parametrize("doc", COLUMN_CASES, ids=["H3", "F4", "B4", "D4-swap", "I2(7)"])
def test_oracle_records_covers(doc):
    sys = ct.GroupDescription.from_dict(doc).build().system
    verify._below_masks(sys)
    lower = verify._MASKS[sys][1]
    ref_words = [t.word for t in ct.reflections(sys)]
    for w in sys:
        covers = {sys._walk(w.index, word) for word in ref_words}
        covers = {j for j in covers if sys.length[j] == w.length - 1}
        assert len(lower[w.index]) == len(covers)
        assert set(lower[w.index]) == covers


def test_oracle_refuses_elements_of_another_system():
    a, b = a_system(3), a_system(3)
    with pytest.raises(ValueError, match="different systems"):
        verify.oracle_bruhat(a, a.identity, b.element(5))
    with pytest.raises(ValueError, match="different systems"):
        verify.oracle_bruhat(a, b.identity, a.element(5))


def test_corrupt_last_letter_stops_the_oracle(monkeypatch):
    # a fresh build: the oracle must refuse it before caching anything
    case = ct.GroupDescription.from_dict({"type": "F4"}).build()
    sys = case.system
    w = sys.size // 2
    ascent = next(s for s in range(sys.rank) if sys._cols[s][w] > w)
    sys._last[w] = ascent
    with pytest.raises(ct.TheoremViolation, match=f"s{ascent + 1} of element {w} "):
        verify._below_masks(sys)
    assert sys not in verify._MASKS
    with pytest.raises(ct.TheoremViolation):
        verify.check_oracle_agreement(sys, "F4")
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: case)
    config = {"cases": [{"name": "F4", "type": "F4", "suites": ["bruhat-oracle-agreement"]}]}
    (report,) = ct.run_suite(config).reports
    assert (report.checked, report.failures) == (0, ())
    assert report.error.startswith(f"stored last letter s{ascent + 1} of element {w} ")


def words_as_generators(sys, words):
    """Twisted generators replaced by the elements of 1-based words."""
    gens = []
    for word in words:
        elt = ct.element_from_word(sys, [a - 1 for a in word])
        parity = ct.GeneratorParity.ODD if elt.length % 2 else ct.GeneratorParity.EVEN
        gens.append(twisted.TwistedGenerator(elt, tuple(sorted(set(word))), parity))
    return tuple(gens)


def per_pair_lemma_reports(sys, sub):
    """(checked, failures) of equal-length-transfer and of
    ascent-implies-bruhat, one product and one comparison per pair."""
    corr_checked, corr_failures = 0, []
    long_checked, long_failures = 0, []
    for g in sub.gens:
        for w in sys:
            wx = ct.multiply(w, g.elt)
            if wx.length != w.length:
                continue
            for u in sys:
                if u.length > w.length:
                    break
                if not verify.oracle_bruhat(sys, u, w):
                    continue
                corr_checked += 1
                if verify.oracle_bruhat(sys, u, wx):
                    continue
                ux = ct.multiply(u, g.elt)
                if ux.length <= u.length and verify.oracle_bruhat(sys, ux, wx):
                    continue
                corr_failures.append((u.word_string(), w.word_string(), g.elt.word_string()))
        for u in sys:
            ux = ct.multiply(u, g.elt)
            if ux.length <= u.length:
                continue
            long_checked += 1
            if not ct.bruhat_leq(u, ux):
                long_failures.append((u.word_string(), g.elt.word_string()))
    return (corr_checked, corr_failures), (long_checked, long_failures)


A5_SWAP = {"type": "A5", "theta": [[1, 5], [2, 4]]}
D4_SWAP = {"type": "D4", "theta": [[3, 4]]}
# (3 1 2 4) is not an involution, so reading g's column the wrong way round
# (g*i or i*g^-1) changes the answers
MIXED_WORDS = [(1, 2), (2, 3, 2), (1,), (3, 1, 2, 4)]


@pytest.mark.parametrize("doc, words, checked, failed", [
    (F4_SWAP, MIXED_WORDS, None, 10368),
    (A5_SWAP, MIXED_WORDS, None, 5423),
    (D4_SWAP, MIXED_WORDS, None, 354),
    (F4_SWAP, None, 296604, 0),
    (A5_SWAP, None, 95372, 0),
], ids=["F4", "A5", "D4", "F4-own", "A5-own"])
def test_lemma_suites_match_per_pair_reference(doc, words, checked, failed):
    # words None: the subgroup's own twisted generators
    case = ct.GroupDescription.from_dict(doc).build()
    sys, sub = case.system, case.subgroup
    if words is not None:
        sub = dataclasses.replace(sub, gens=words_as_generators(sys, words))
    corr, long = per_pair_lemma_reports(sys, sub)
    report = verify.check_lemma_corr(sub, "x")
    assert (report.checked, list(report.failures)) == corr
    assert len(report.failures) == failed
    if checked is not None:
        assert report.checked == checked
    report = verify.check_lemma_long_gen(sub, "x")
    assert (report.checked, list(report.failures)) == long


@pytest.mark.parametrize("doc", [A5_SWAP, F4_SWAP, D4_SWAP], ids=["A5", "F4", "D4"])
def test_preimage_masks_match_definition(doc):
    # pre[i] = {u : u*word <= i}, the recurrence over the oracle's covers
    # seeded at i*word^-1, read here bit by bit from the oracle masks
    case = ct.GroupDescription.from_dict(doc).build()
    sys = case.system
    below = verify._below_masks(sys)
    lower = verify._MASKS[sys][1]
    words = [g.elt.word for g in case.subgroup.gens]
    words += [[a - 1 for a in word] for word in MIXED_WORDS]
    for word in words:
        col = verify._column(sys, word)
        pre = verify._down_closure(lower, verify._column(sys, reversed(word)))
        for i, mask in enumerate(below):
            bits = bin(mask)[:1:-1].ljust(sys.size, "0")  # bits[u] is bit u
            expected = int("".join(bits[c] for c in col)[::-1], 2)
            assert pre[i] == expected


def test_equal_length_transfer_on_d6_swap():
    case = ct.GroupDescription.from_dict({"type": "D6", "theta": [[5, 6]]}).build()
    report = verify.check_lemma_corr(case.subgroup, "D6 swap")
    assert (report.checked, report.failures) == (41322172, ())


FIXED_SUITES = [
    "fixed-subgroup-equality", "generator-parity", "ascent-implies-bruhat",
    "equal-length-transfer",
]


@pytest.mark.parametrize("corruption", ["drop", "add"])
def test_wrong_fixed_subgroup_is_detected(monkeypatch, corruption):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sub = case.subgroup
    if corruption == "drop":
        bad = sub.elements[5]
        elements = sub.elements[:5] + sub.elements[6:]
    else:
        bad = case.system.gens()[0]  # s1, which theta sends to s4
        assert bad not in sub
        elements = tuple(sorted(sub.elements + (bad,)))
    broken = dataclasses.replace(sub, elements=elements)
    monkeypatch.setattr(
        ct.GroupDescription, "build", lambda self: dataclasses.replace(case, subgroup=broken)
    )
    run = ct.run_suite({"cases": [{**F4_SWAP, "suites": FIXED_SUITES}]})
    reports = {r.suite: r for r in run.reports}
    assert {r.suite for r in run.reports if r.failures} == {"fixed-subgroup-equality"}
    assert reports["fixed-subgroup-equality"].checked == 1152
    assert reports["fixed-subgroup-equality"].failures == ((bad.word_string(),),)


def test_fixed_subgroup_failures_are_in_shortlex_order():
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sub = case.subgroup
    dropped = sub.elements[3:9]
    broken = dataclasses.replace(sub, elements=sub.elements[:3] + sub.elements[9:])
    report = verify.check_fixed_subgroup_equality(broken, "F4")
    assert report.failures == tuple((z.word_string(),) for z in dropped)


def test_fixed_subgroup_equality_on_a_proper_parabolic():
    # W_L of type A3 inside A5; the theta-image pass must stay inside it
    sub = ct.GroupDescription.from_dict(
        {"type": "A5", "L": [1, 2, 3], "theta": [[1, 3]]}
    ).build().subgroup
    report = verify.check_fixed_subgroup_equality(sub, "A5")
    assert report.ok
    assert report.checked == 24


def test_fixed_subgroup_needs_wl_to_close():
    sub = ct.GroupDescription.from_dict(
        {"type": ["A2", "I2(inf)"], "cap": 300, "theta": [[3, 4]]}
    ).build().subgroup
    with pytest.raises(ct.CapExceeded, match="W_L did not close"):
        verify.check_fixed_subgroup_equality(sub, "x")


def test_corrupt_fixture_is_detected(flipped_oracle):
    config = {
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
    # bruhat_leq disagrees with the flipped oracle on 10 of the 36 pairs
    assert (report.checked, len(report.failures)) == (36, 10)
    assert report.failures[:3] == (("e", "1"), ("e", "2 1"), ("1", "e"))
    text = run.to_text()
    assert "counterexamples" in text


def test_corrupt_quotient_mask_is_detected():
    # bruhat_leq compares a complete group through its quotient masks; in
    # the quotient by W_{s1,s3}, label 5 is s2*s1*s3*s2 and label 1 is s2
    sys = a_system(4)
    proj, below = core._quotients(sys)
    top = ct.element_from_word(sys, [1, 0, 2, 1]).index
    assert (proj[1][top], proj[1][sys.gens()[1].index]) == (5, 1)
    assert below[1][5] >> 1 & 1
    below[1][5] &= ~(1 << 1)
    report = verify.check_oracle_agreement(sys, "A3")
    assert (report.checked, len(report.failures)) == (576, 16)
    assert report.failures[0] == ("2", "2 1 3 2")


WORD_SUITES = {
    "length-additivity", "minimal-chains", "step-dichotomy", "dominated-minimal-search",
}


def test_corrupt_reduced_word_memo_is_detected(monkeypatch):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sub = case.subgroup
    assert sub.elements[1].length != sub.elements[-1].length
    # the partition is recorded from the healthy table
    ct.all_cosets(sub)
    # the longest element's descent entry points at the identity, so its
    # word now reads as elements[1]'s, a single generator
    table = [list(col) for col in sub.table]
    top = sub.order - 1
    a = next(a for a, col in enumerate(table) if col[top] < top)
    table[a][top] = 0
    assert [sub.gens[a]] == ct.twisted_reduced_word(sub, sub.elements[1])
    object.__setattr__(sub, "table", tuple(map(tuple, table)))
    assert ct.twisted_reduced_word(sub, sub.elements[-1]) == [sub.gens[a]]
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


COSET_SUITES = [
    "coset-partition", "bruhat-minimal-equality", "minimal-chains", "step-dichotomy",
    "dominated-minimal-search",
]


def run_on_recorded_partition(monkeypatch, case, corrupt):
    """The coset suites' reports on F4 swap after ``corrupt`` edits the
    partition recorded from the healthy subgroup."""
    ct.all_cosets(case.subgroup)
    corrupt(cosets._partition(case.subgroup))
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: case)
    run = ct.run_suite({"cases": [{**F4_SWAP, "suites": COSET_SUITES}]})
    return {r.suite: r for r in run.reports}


@pytest.mark.parametrize("shift, flipped, failing", [
    (-1, 1, {"bruhat-minimal-equality", "dominated-minimal-search"}),
    (1, 2, {"bruhat-minimal-equality", "minimal-chains", "step-dichotomy"}),
], ids=["down", "up"])
def test_shifted_minimal_count_is_detected(monkeypatch, shift, flipped, failing):
    # coset 1 is the coset of s1, whose minimal members are s1 and s4;
    # shifting the minimal count read off its slots flips the claimed
    # minimality of member ``flipped``
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, h = case.system, case.subgroup.order
    read = cosets._sorted_members

    def shifted(part, lo):
        found, k = read(part, lo)
        return found, k + shift if lo == h else k

    def corrupt(part):
        assert read(part, h)[1] == 2
        monkeypatch.setattr(cosets, "_sorted_members", shifted)

    reports = run_on_recorded_partition(monkeypatch, case, corrupt)
    assert {name for name, r in reports.items() if r.failures} == failing
    members = read(cosets._partition(case.subgroup), h)[0]
    assert reports["bruhat-minimal-equality"].failures == (
        (sys.element(members[0]).word_string(), sys.element(members[flipped]).word_string()),
    )


def test_traded_least_member_is_detected(monkeypatch):
    # coset 1 is the coset of s1, whose minimal members are s1 and s4.  Its
    # base s1 trades slots with the longest member of coset 2, which puts
    # that member at coset 1's node 0 and s1 among coset 2's members
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, h = case.system, case.subgroup.order
    s1 = sys.gens()[0].index

    def corrupt(part):
        assert part.at[h] == s1
        trade_members(part, s1, max(part.at[2 * h : 3 * h]))

    reports = run_on_recorded_partition(monkeypatch, case, corrupt)
    assert {name: len(r.failures) for name, r in reports.items()} == {
        "coset-partition": 2, "bruhat-minimal-equality": 1, "minimal-chains": 2,
        "step-dichotomy": 17, "dominated-minimal-search": 22,
    }
    assert {f[1] for f in reports["coset-partition"].failures} == {"members"}


def test_swapped_coset_members_are_detected(monkeypatch):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, h = case.system, case.subgroup.order
    longest = []

    def corrupt(part):
        # the longest members of cosets 1 and 2 trade slots
        longest.extend(max(part.at[c * h : (c + 1) * h]) for c in (1, 2))
        trade_members(part, *longest)

    reports = run_on_recorded_partition(monkeypatch, case, corrupt)
    # the traded members are the longest of their cosets, so no minimal
    # set changes
    assert {name for name, r in reports.items() if r.failures} == {
        "coset-partition", "step-dichotomy", "dominated-minimal-search",
    }
    reps = [sys.element(cosets._partition(case.subgroup).at[c * h]) for c in (1, 2)]
    assert reports["coset-partition"].failures == tuple(
        (rep.word_string(), "members") for rep in reps
    )


def test_swapped_nodes_in_a_coset_are_detected(monkeypatch):
    # nodes 1 and 2 of coset 1 trade members in at alone: the coset's
    # members and every slot stay right, but the steps dominate reads at
    # those nodes do not
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, sub, h = case.system, case.subgroup, case.subgroup.order

    def corrupt(part):
        part.at[h + 1], part.at[h + 2] = part.at[h + 2], part.at[h + 1]

    reports = run_on_recorded_partition(monkeypatch, case, corrupt)
    assert {name for name, r in reports.items() if r.failures} == {"coset-partition"}
    rep = sys.element(cosets._partition(sub).at[h])
    assert reports["coset-partition"].failures == ((rep.word_string(), "positions"),)
    changed = sum(ct.dominate(sub, x) != replayed_dominate(sub, x) for x in sys)
    assert changed == 14


def test_wrong_member_slot_is_detected(monkeypatch):
    # the longest member of coset 1 claims the slot of coset 1's node 1
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, h = case.system, case.subgroup.order

    def corrupt(part):
        part.slot[max(part.at[h : 2 * h])] = h + 1

    reports = run_on_recorded_partition(monkeypatch, case, corrupt)
    assert {name for name, r in reports.items() if r.failures} == {"coset-partition"}
    rep = sys.element(cosets._partition(case.subgroup).at[h])
    assert reports["coset-partition"].failures == ((rep.word_string(), "positions"),)


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
    """dominated-minimal-search's failures by one step-by-step replay of
    dominate per member."""
    below = verify._below_masks(sub.system)
    failures = []
    for a in ct.all_cosets(sub):
        for x in a.members:
            exhaustive = {v.index for v in a.min_set if (below[x.index] >> v.index) & 1}
            try:
                w = replayed_dominate(sub, x).witness
            except ct.CoxeterError:
                failures.append((x.word_string(), "construction"))
                continue
            if w.index not in exhaustive:
                failures.append((x.word_string(), w.word_string()))
    return failures


def replayed_chain_failures(sub):
    """minimal-chains' failures by one connect_minimals per ordered pair of
    minimal members."""
    failures = []
    for a in ct.all_cosets(sub):
        for u in a.min_set:
            for v in a.min_set:
                if u == v:
                    continue
                try:
                    ct.connect_minimals(sub, u, v)
                except ct.CoxeterError:
                    failures.append((u.word_string(), v.word_string()))
    return failures


def test_tree_walks_fail_like_per_pair_replays(monkeypatch):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, sub = case.system, case.subgroup
    assert verify.check_step_dichotomy(sub, "F4").ok
    assert verify.check_dominated_search(sub, "F4").ok
    assert verify.check_minimal_chains(sub, "F4").ok
    plant_step_failure(
        monkeypatch, (ct.coset(sub, sys.gens()[0]).min_set[-1].index, sub.gens[1])
    )
    report = verify.check_step_dichotomy(sub, "F4")
    assert report.failures
    assert list(report.failures) == replayed_step_failures(sub)
    report = verify.check_dominated_search(sub, "F4")
    assert report.failures
    assert list(report.failures) == replayed_dominate_failures(sub)
    # the planted step lengthens, so no chain between minimal members uses it
    report = verify.check_minimal_chains(sub, "F4")
    assert list(report.failures) == replayed_chain_failures(sub) == []


def test_chain_walks_fail_like_replays_at_every_plant(monkeypatch):
    sub = ct.GroupDescription.from_dict(
        {"type": "A5", "theta": [[1, 5], [2, 4]]}
    ).build().subgroup
    targets = [(u.index, g) for a in ct.all_cosets(sub) for u in a.min_set for g in sub.gens]
    assert len(targets) == 55 * 3
    failing = 0
    for target in targets:
        with monkeypatch.context() as m:
            plant_step_failure(m, target)
            report = verify.check_minimal_chains(sub, "A5")
            assert list(report.failures) == replayed_chain_failures(sub)
        failing += bool(report.failures)
    # a plant on a step that leaves the minimal set breaks no chain
    assert 0 < failing < len(targets)


def test_failed_bruhat_ascent_is_detected(monkeypatch):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, sub = case.system, case.subgroup
    u = ct.coset(sub, sys.gens()[0]).min_set[-1].index
    g = sub.gens[1]
    j, verdict = cosets._step(sys, u, g)
    assert verdict is ct.StepVerdict.BRUHAT_UP
    assert (sys.element(u).word_string(), g.elt.word_string()) == ("4", "2 3 2 3")
    bruhat_leq = core.bruhat_leq

    def broken(a, b):
        return (a.index, b.index) != (u, j) and bruhat_leq(a, b)

    monkeypatch.setattr(core, "bruhat_leq", broken)
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: case)
    run = ct.run_suite({"cases": [F4_SWAP]})
    # ascent-implies-bruhat owns the claim that a lengthening twisted step
    # is a Bruhat ascent; the walk suites judge steps by the step rule and
    # witnesses by the oracle masks, so they pass over the planted fault
    assert {r.suite: r.failures for r in run.reports if r.failures} == {
        "ascent-implies-bruhat": (("4", "2 3 2 3"),),
    }
    reports = {r.suite: r for r in run.reports}
    assert reports["step-dichotomy"].checked == 3952
    assert reports["dominated-minimal-search"].checked == 1152


def plant_wrong_product(monkeypatch, target, wrong):
    """Make twisted._times, in twisted and in cosets, answer ``wrong`` at
    one (element index, generator) pair."""
    times = twisted._times

    def broken(system, i, g):
        return wrong if (i, g) == target else times(system, i, g)

    monkeypatch.setattr(twisted, "_times", broken)
    monkeypatch.setattr(cosets, "_times", broken)


@pytest.mark.parametrize("k", range(4))
def test_wrong_twisted_product_is_detected(monkeypatch, k):
    # s4 * y is planted as another member of its own coset, the coset of
    # s1, so the partition's walk from s1 reaches some member twice
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, sub = case.system, case.subgroup
    u = sys.gens()[3].index
    g = sub.gens[1]
    right = twisted._times(sys, u, g)
    members = sorted(ct.multiply(sys.gens()[0], z).index for z in sub.elements)
    plant_wrong_product(monkeypatch, (u, g), [v for v in members if v != right][k])
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: case)
    run = ct.run_suite({"cases": [{**F4_SWAP, "suites": COSET_SUITES}]})
    assert [r.suite for r in run.reports] == COSET_SUITES
    for r in run.reports:
        assert (r.checked, r.failures) == (0, ())
        assert r.error.startswith("coset of '1' has ")
        assert r.error.endswith(" distinct members, not 16")


def test_wrong_twisted_product_inside_the_subgroup_is_detected(monkeypatch):
    # e * y planted as the longest element, itself in H: the identity coset
    # still has H's members, so only the tree walks, which reach the
    # longest element twice from e, and coset-partition's check of the
    # recorded tree positions can see the fault
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sys, sub = case.system, case.subgroup
    g, w0 = sub.gens[1], sys.size - 1
    assert sys.element(w0) in sub
    plant_wrong_product(monkeypatch, (0, g), w0)
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: case)
    run = ct.run_suite({"cases": [F4_SWAP]})
    reports = {r.suite: r for r in run.reports if r.failures}
    assert set(reports) == {"coset-partition", "step-dichotomy", "dominated-minimal-search"}
    assert reports["coset-partition"].failures == (("e", "positions"),)
    assert len(reports["step-dichotomy"].failures) == 7
    assert {u for u, _ in reports["step-dichotomy"].failures} == {"e"}
    assert len(reports["dominated-minimal-search"].failures) == 7


def test_witness_outside_the_oracle_is_detected(monkeypatch):
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    sub = case.subgroup
    x = ct.all_cosets(sub)[1].members[-1]
    w = ct.dominate(sub, x).witness
    assert w != x
    below_masks = verify._below_masks

    def cleared(sys):
        below = list(below_masks(sys))
        below[x.index] &= ~(1 << w.index)
        return below

    monkeypatch.setattr(verify, "_below_masks", cleared)
    report = verify.check_dominated_search(sub, "F4")
    assert report.checked == 1152
    assert report.failures == ((x.word_string(), w.word_string()),)


def test_inverting_commuting_reflection_is_detected(monkeypatch):
    config = {"cases": [
        {"name": "B2", "type": "B2", "suites": ["commuting-reflection-inversions"]}
    ]}
    (healthy,) = ct.run_suite(config).reports
    assert (healthy.checked, healthy.failures) == (4, ())
    # the central longest element commutes with every reflection and
    # inverts all of them
    reflections = core.reflections
    monkeypatch.setattr(core, "reflections", lambda sys: (
        reflections(sys) + (ct.element_from_word(sys, [0, 1, 0, 1]),)
    ))
    (report,) = ct.run_suite(config).reports
    assert report.checked == 12
    assert report.failures == (
        ("1", "1 2 1 2"), ("2", "1 2 1 2"), ("1 2 1", "1 2 1 2"), ("2 1 2", "1 2 1 2"),
        ("1 2 1 2", "1 2 1"), ("1 2 1 2", "2 1 2"),
    )


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
        cur, wit = cosets._carry(sub, rows, a.rep.index)
        assert sorted(cur) == [w.index for w in a.members]
        witnesses = dict(zip(cur, wit))
        for x in a.members[len(a.min_set):]:
            assert witnesses[x.index] == replayed_dominate(sub, x).witness.index
            compared += 1
    assert compared == count


def test_reduced_word_memo_holds_no_reference_cycle():
    case = ct.GroupDescription.from_dict(F4_SWAP).build()
    ref = weakref.ref(case.subgroup)
    gc.disable()
    try:
        for z in case.subgroup.elements:
            ct.twisted_reduced_word(case.subgroup, z)
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
    with pytest.raises(ct.DescriptionError, match="unknown suite 'no-such-suite'"):
        ct.run_suite({"cases": [{"type": "A2", "suites": ["no-such-suite"]}]})


def test_unnamed_cases_are_labelled_by_position():
    run = ct.run_suite({"cases": [
        {"type": "A2", "suites": ["generator-parity"]},
        {"name": "", "type": "A3", "suites": ["generator-parity"]},
    ]})
    assert [(r.system, r.checked) for r in run.reports] == [("case 1", 2), ("case 2", 3)]
    rows = [line.split() for line in run.to_text().splitlines()[2:4]]
    assert rows == [["generator-parity", "case", "1", "2", "2", "0"],
                    ["generator-parity", "case", "2", "3", "3", "0"]]


def test_config_is_checked_before_any_case_is_built(monkeypatch):
    built = []
    build = ct.GroupDescription.build
    monkeypatch.setattr(
        ct.GroupDescription, "build", lambda self: built.append(self) or build(self)
    )
    with pytest.raises(ct.DescriptionError, match="unknown suite 'nope'"):
        ct.run_suite({"cases": [F4_SWAP, {"type": "A2", "suites": ["nope"]}]})
    assert built == []


BAD_LATER_CASES = {
    "bond": ({"type": "A3", "theta": [[1, 2]]}, ct.BondMismatch),
    "not an involution": ({"type": "A3", "theta": [[1, 2], [2, 3]]}, ct.NotInvolutive),
    "outside L": ({"type": "A3", "L": [1, 2], "theta": [[1, 3]]}, ct.OutOfL),
    "asymmetric": ({"matrix": [[1, 3], [2, 1]]}, ct.MalformedMatrix),
    "diagonal": ({"matrix": [[2, 3], [3, 1]]}, ct.MalformedMatrix),
    "bond 1": ({"matrix": [[1, 1], [1, 1]]}, ct.MalformedMatrix),
    "ragged": ({"matrix": [[1, 3], [3]]}, ct.MalformedMatrix),
}


@pytest.mark.parametrize("case, error", BAD_LATER_CASES.values(), ids=BAD_LATER_CASES)
def test_a_bad_later_case_is_refused_before_any_case_is_built(monkeypatch, case, error):
    # the matrix and theta are checked with the rest of the description
    built = []
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: built.append(self))
    with pytest.raises(error):
        ct.run_suite({"cases": [F4_SWAP, case]})
    assert built == []


MALFORMED_CONFIGS = {
    "list seed": {"seed": [1], "cases": [F4_SWAP]},
    "str seed": {"seed": "5", "cases": [F4_SWAP]},
    "bool seed": {"seed": True, "cases": [F4_SWAP]},
    "unknown key": {"sede": 5, "cases": [F4_SWAP]},
    "corrupt": {"corrupt": "bruhat-oracle", "cases": [F4_SWAP]},
    "empty cases": {"cases": []},
    "empty suites": {"cases": [F4_SWAP, {"type": "A2", "suites": []}]},
    "null suites": {"cases": [F4_SWAP, {"type": "A2", "suites": None}]},
    "int name": {"cases": [F4_SWAP, {"name": 5, "type": "A2"}]},
    "list name": {"cases": [F4_SWAP, {"name": ["x"], "type": "A2"}]},
}


@pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
def test_malformed_config_is_refused_before_any_case_is_built(monkeypatch, config):
    built = []
    monkeypatch.setattr(ct.GroupDescription, "build", lambda self: built.append(self))
    with pytest.raises(ct.DescriptionError):
        ct.run_suite(config)
    assert built == []


def test_suite_errors_become_error_records():
    config = {
        "cases": [{"name": "infinite dihedral", "type": "I2(inf)", "cap": 60,
                   "theta": [[1, 2]], "suites": ["coset-partition", "length-additivity"]}],
    }
    run = ct.run_suite(config)
    assert not run.ok
    report, healthy = run.reports
    assert (report.checked, report.passed, report.failures) == (0, 0, ())
    assert report.error == "coset partition needs a fully enumerated group"
    assert not report.ok and healthy.ok and healthy.error is None
    assert (run.total_checked, run.total_failed) == (1, 0)
    records = run.to_records()["suites"]
    assert records[0]["error"] == report.error and records[0]["passed"] == 0
    assert "error" not in records[1]
    lines = run.to_text().splitlines()
    assert lines[2].split() == ["coset-partition", "infinite", "dihedral", "0", "0", "0"]
    assert lines[-2:] == [
        "error in coset-partition on infinite dihedral: "
        "coset partition needs a fully enumerated group",
        "total: 1 checked, 0 failed, 1 error",
    ]


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
    assert verify.check_lemma_long_gen(sub, "A3").ok
    assert verify.check_lemma_corr(sub, "A3").ok
    assert verify.check_lemma_commuting_reflections(sys, "A3").ok
