"""The shared coset partition against recomputation inside the test."""

import gc
import random
import weakref

import pytest

import coxtwist as ct
from coxtwist import cosets, verify
from conftest import down_set, plant_step_failure, replayed_dominate, trade_members

F4_SWAP = {"type": "F4", "theta": [[1, 4], [2, 3]]}
CASES = [
    {"type": "A3", "theta": [[1, 3]]},
    F4_SWAP,
    {"type": "A5", "theta": [[1, 5], [2, 4]]},
]
HYPERBOLIC_534 = {
    "matrix": [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]],
    "L": [3, 4],
    "theta": [[3, 4]],
    "cap": 2000,
}


def build(doc):
    return ct.GroupDescription.from_dict(doc).build()


def recompute(sub, u):
    """Member indices of u * H, sorted, and the indices of least length."""
    members = sorted({ct.multiply(u, z).index for z in sub.elements})
    sys = sub.system
    low = min(sys.element(i).length for i in members)
    return members, [i for i in members if sys.element(i).length == low]


def shuffled(sys, seed=7):
    """Every element, in an order that touches cosets away from rep order."""
    order = list(sys)
    random.Random(seed).shuffle(order)
    return order


@pytest.mark.parametrize("doc", CASES, ids=lambda d: d["type"])
def test_partition_matches_recomputation(doc):
    case = build(doc)
    sys, sub = case.system, case.subgroup
    for u in shuffled(sys):
        members, mins = recompute(sub, u)
        a = ct.coset(sub, u)
        assert [w.index for w in a.members] == members
        assert [w.index for w in a.min_set] == mins
        assert [w.index for w in ct.min_set(sub, u)] == mins
        assert ct.is_minimal(sub, u) == (u.index in mins)
        witness = ct.dominate(sub, u).witness
        assert witness.index in mins
        assert verify.oracle_bruhat(sys, witness, u)
    reps = [a.rep.index for a in ct.all_cosets(sub)]
    assert reps == sorted({recompute(sub, u)[0][0] for u in sys})


@pytest.mark.parametrize("doc", [
    {"type": "A5", "theta": [[1, 5], [2, 4]]},
    F4_SWAP,
    {"type": "D5", "theta": [[4, 5]]},
    HYPERBOLIC_534,
], ids=["A5", "F4", "D5", "5-3-4"])
@pytest.mark.parametrize("seed", [7, 8])
def test_every_coset_is_numbered_from_its_base_in_any_touch_order(doc, seed):
    # member base * elements[z] sits at node z, whichever member touched
    # the coset first; the nodes are recomputed by plain multiplication, in
    # a ball ten times larger when the group is truncated, where the walks
    # of the words stay inside
    case = build(doc)
    sys, sub = case.system, case.subgroup
    walk = (sys if sys.complete else build({**doc, "cap": 20000}).system)._walk
    part = cosets._partition(sub)
    away = 0
    for u in shuffled(sys, seed):
        fresh = part.slot[u.index] < 0
        try:
            lo = cosets._locate(sub, u)[1]
        except ct.OutOfEnumeratedRegion:
            continue
        away += fresh and part.at[lo] != u.index
    assert away
    words = [z.word for z in sub.elements]
    for lo in range(0, len(part.at), part.h):
        base = part.at[lo]
        assert base == min(part.at[lo : lo + part.h])
        assert list(part.at[lo : lo + part.h]) == [walk(base, w) for w in words]
        assert all(part.slot[j] == lo + z for z, j in enumerate(part.at[lo : lo + part.h]))


def test_truncated_ball_answers_exactly_or_refuses_without_recording():
    case = build(HYPERBOLIC_534)
    sys, sub = case.system, case.subgroup
    assert not sys.complete
    part = cosets._partition(sub)
    answered = refused = 0
    for u in shuffled(sys):
        try:
            expected = recompute(sub, u)
        except ct.OutOfEnumeratedRegion:
            expected = None
        try:
            minimal = ct.is_minimal(sub, u)
        except ct.OutOfEnumeratedRegion:
            assert expected is None
            assert part.slot[u.index] == -1
            with pytest.raises(ct.OutOfEnumeratedRegion):
                ct.min_set(sub, u)
            with pytest.raises(ct.OutOfEnumeratedRegion):
                ct.dominate(sub, u)
            assert part.slot[u.index] == -1
            refused += 1
            continue
        answered += 1
        lo = cosets._locate(sub, u)[1]
        members = sorted(part.at[lo : lo + part.h])
        mins = [w.index for w in ct.min_set(sub, u)]
        # without an expectation, the coset was recorded through another
        # member whose walks stay inside the ball
        assert u.index in members
        if expected is not None:
            assert (members, mins) == expected
            assert minimal == (u.index in mins)
    assert answered and refused


def test_truncated_min_graphs_match_a_larger_ball():
    # every coset the cap-2000 ball answers also draws its min-graph, and the
    # graph is the one the same coset has in a ball ten times larger
    small = build(HYPERBOLIC_534)
    big = build({**HYPERBOLIC_534, "cap": 20000})

    def graph(a):
        return [(u.word, v.word, g.elt.word) for u, v, g in a.min_graph]

    answered = 0
    for u in small.system:
        try:
            ct.is_minimal(small.subgroup, u)
        except ct.OutOfEnumeratedRegion:
            continue
        answered += 1
        a = ct.coset(small.subgroup, u)
        b = ct.coset(big.subgroup, ct.element_from_word(big.system, u.word))
        assert [w.word for w in a.min_set] == [w.word for w in b.min_set]
        assert graph(a) == graph(b)
    assert answered == 1326


def test_dominate_answers_every_recorded_coset_of_a_truncated_ball():
    # prefix * g and witness * g are members of a recorded coset, so the walks
    # that reach them stay inside the ball
    case = build(HYPERBOLIC_534)
    sys, sub = case.system, case.subgroup
    answered = 0
    for x in sys:
        try:
            ct.is_minimal(sub, x)
        except ct.OutOfEnumeratedRegion:
            continue
        answered += 1
        witness = ct.dominate(sub, x).witness
        assert witness in ct.min_set(sub, x)
        assert witness.index in down_set(x)
    assert answered == 1326


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_connect_minimals_answers_every_recorded_coset_of_a_truncated_ball(descending):
    # each link is a member of the recorded coset, so its walk stays inside
    # the ball, and the quotient u^-1 * v is walked inside the subgroup
    case = build(HYPERBOLIC_534)
    sys, sub = case.system, case.subgroup
    order = list(sys)
    if descending:
        order.reverse()
    for x in order:
        try:
            ct.is_minimal(sub, x)
        except ct.OutOfEnumeratedRegion:
            pass
    part = cosets._partition(sub)
    pairs = 0
    for lo in range(0, len(part.at), part.h):
        mins = ct.min_set(sub, sys.element(part.at[lo]))
        for u in mins:
            for v in mins:
                if u == v:
                    continue
                pairs += 1
                chain = ct.connect_minimals(sub, u, v)
                assert (chain[0], chain[-1]) == (u, v)
                assert all(w in mins for w in chain)
    assert pairs == 458


def test_truncated_ball_refuses_the_same_elements_in_every_touch_order():
    # a coset is refused exactly when one of its members, found by plain
    # multiplication in a ball ten times larger, lies outside the small ball
    big = build({**HYPERBOLIC_534, "cap": 20000})
    small_size = HYPERBOLIC_534["cap"]
    oracle = set()
    for u in list(big.system)[:small_size]:
        if max(ct.multiply(u, z).index for z in big.subgroup.elements) >= small_size:
            oracle.add(u.index)
    assert len(oracle) == 674
    for descending in (False, True):
        case = build(HYPERBOLIC_534)
        sys = case.system
        assert sys.words == big.system.words[:small_size]
        order = list(sys)
        if descending:
            order.reverse()
        refused = set()
        for u in order:
            try:
                ct.is_minimal(case.subgroup, u)
            except ct.OutOfEnumeratedRegion:
                refused.add(u.index)
        assert refused == oracle


def test_connect_minimals_tells_recorded_cosets_apart_in_a_truncated_ball():
    # different cosets are told apart by the partition, without forming
    # the quotient u^-1 * v, which may leave the ball
    case = build(HYPERBOLIC_534)
    sys, sub = case.system, case.subgroup
    for x in sys:
        try:
            ct.is_minimal(sub, x)
        except ct.OutOfEnumeratedRegion:
            pass
    part = cosets._partition(sub)
    reps = [sys.element(b) for b in part.at[:: part.h]]
    rng = random.Random(3)
    pairs = 0
    for _ in range(5000):
        u, v = rng.choice(reps), rng.choice(reps)
        if u == v:
            continue
        pairs += 1
        with pytest.raises(ct.NotSameCoset):
            ct.connect_minimals(sub, u, v)
    assert pairs > 4900


def test_coset_partition_suite_catches_a_corrupted_partition():
    case = build({"type": "A3", "theta": [[1, 3]]})
    sub = case.subgroup
    assert verify.check_coset_partition(sub, "A3").ok
    part = cosets._partition(sub)
    h = part.h
    # the longest members of the first two cosets trade slots
    trade_members(part, max(part.at[:h]), max(part.at[h : 2 * h]))
    report = verify.check_coset_partition(sub, "A3")
    assert report.checked == len(ct.all_cosets(sub))
    assert {f[1] for f in report.failures} == {"members"}


def test_partition_holds_no_reference_cycle():
    case = build(F4_SWAP)
    ref = weakref.ref(case.system)
    gc.disable()
    try:
        ct.dominate(case.subgroup, case.system.element(case.system.size - 1))
        ct.all_cosets(case.subgroup)
        assert "_partition_cache" in case.subgroup.__dict__
        del case
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("read", [False, True], ids=["steps unread", "steps read"])
def test_a_kept_domination_result_holds_no_reference_cycle(read):
    # an unread result keeps the subgroup and its partition to build its
    # steps from; neither refers back to the result
    case = build(F4_SWAP)
    ref = weakref.ref(case.system)
    gc.disable()
    try:
        kept = ct.dominate(case.subgroup, case.system.element(case.system.size - 1))
        assert kept.steps if read else "steps" not in vars(kept)
        del case
        assert ref() is not None
        del kept
        assert ref() is None
    finally:
        gc.enable()


def test_oracle_masks_hold_no_reference_cycle():
    case = build(F4_SWAP)
    ref = weakref.ref(case.system)
    cached = len(verify._MASKS)
    gc.disable()
    try:
        assert verify.check_oracle_agreement(case.system, "F4").ok
        assert len(verify._MASKS) == cached + 1
        del case
        assert ref() is None
        assert len(verify._MASKS) == cached
    finally:
        gc.enable()


def outcome(dominate, sub, x):
    """dominate's result, or the type and message of its refusal."""
    try:
        return dominate(sub, x)
    except ct.CoxeterError as e:
        return type(e), str(e)


@pytest.mark.parametrize("doc, answered", [
    ({"type": "A5", "theta": [[1, 5], [2, 4]]}, 720),
    (F4_SWAP, 1152),
    ({"type": "D5", "theta": [[4, 5]]}, 1920),
    (HYPERBOLIC_534, 1326),
], ids=["A5", "F4", "D5", "5-3-4"])
def test_dominate_equals_its_step_by_step_replay(doc, answered):
    # dominate reads each coset's walk, carried on the coset's first
    # dominate; the replay walks x's own word, every field must agree.  No
    # result's steps are read until every coset is recorded
    case = build(doc)
    sub = case.subgroup
    kept = [(x, outcome(ct.dominate, sub, x)) for x in shuffled(case.system)]
    results = [got for _, got in kept if isinstance(got, ct.DominationResult)]
    assert len(results) == len(cosets._partition(sub).at) == answered
    assert all("steps" not in vars(got) for got in results if got.base != got.target)
    assert all(got == outcome(replayed_dominate, sub, x) for x, got in kept)


def test_a_result_of_dominate_reads_like_one_built_with_its_steps():
    # repr, == and hash each build the steps of a fresh result of dominate
    case = build(F4_SWAP)
    sub = case.subgroup
    a = ct.coset(sub, case.system.element(case.system.size - 1))
    for x in a.members:
        read = ct.dominate(sub, x)
        built = ct.DominationResult(
            target=read.target, base=read.base, witness=read.witness, steps=read.steps
        )
        assert repr(ct.dominate(sub, x)) == repr(built)
        assert ct.dominate(sub, x) == built
        assert built == ct.dominate(sub, x)
        assert hash(ct.dominate(sub, x)) == hash(built)
    assert any(ct.dominate(sub, x).steps for x in a.members)


def test_dominate_refuses_exactly_past_a_planted_step_failure(monkeypatch):
    case = build(F4_SWAP)
    sys, sub = case.system, case.subgroup
    a = ct.coset(sub, sys.gens()[0])
    u, g = a.min_set[-1], sub.gens[1]
    before = {x: replayed_dominate(sub, x) for x in a.members}
    part = cosets._partition(sub)
    assert part.wit[cosets._locate(sub, u)[1]] == -1  # not yet carried
    plant_step_failure(monkeypatch, (u.index, g))
    crossing = 0
    for x in a.members:
        prefixes = [before[x].base] + [step.prefix for step in before[x].steps]
        steps = zip(prefixes, before[x].steps)
        if any(p == u and step.generator == g for p, step in steps):
            crossing += 1
            # raised by the call itself, not by a later read of the steps
            with pytest.raises(ct.TheoremViolation, match="^planted$"):
                ct.dominate(sub, x)
            assert outcome(replayed_dominate, sub, x) == (ct.TheoremViolation, "planted")
        else:
            assert ct.dominate(sub, x) == before[x]
    assert 0 < crossing < len(a.members) - len(a.min_set)
