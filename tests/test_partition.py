"""The shared coset partition against recomputation inside the test."""

import gc
import random
import weakref

import pytest

import coxtwist as ct
from coxtwist import cosets, verify
from conftest import down_set

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
            assert part.cid[u.index] == -1
            with pytest.raises(ct.OutOfEnumeratedRegion):
                ct.min_set(sub, u)
            with pytest.raises(ct.OutOfEnumeratedRegion):
                ct.dominate(sub, u)
            assert part.cid[u.index] == -1
            refused += 1
            continue
        answered += 1
        c = part.cid[u.index]
        members = list(part.members[c * part.h : (c + 1) * part.h])
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
    # cur * g and witness * g are members of a recorded coset, so the walks
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
    for c in range(len(part.nmin)):
        mins = ct.min_set(sub, sys.element(part.members[c * part.h]))
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
    reps = [sys.element(part.members[c * part.h]) for c in range(len(part.nmin))]
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
    # trade the last members of the first two cosets
    part.members[h - 1], part.members[2 * h - 1] = part.members[2 * h - 1], part.members[h - 1]
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
