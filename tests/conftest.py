import pytest

import coxtwist as ct
from coxtwist import core, cosets, verify

F4_MATRIX = ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))
A3_MATRIX = ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def dihedral(m, cap=ct.DEFAULT_CAP):
    return ct.build_system(((1, m), (m, 1)), cap=cap)


def a_system(n, cap=ct.DEFAULT_CAP):
    """Type A of rank n - 1, the symmetric group S_n."""
    rows = tuple(
        tuple(1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n - 1))
        for i in range(n - 1)
    )
    return ct.build_system(rows, cap=cap)


@pytest.fixture(scope="session")
def f4():
    return ct.build_system(F4_MATRIX, cap=2000)


@pytest.fixture(scope="session")
def f4_theta(f4):
    return ct.validate_automorphism(f4, range(4), {0: 3, 3: 0, 1: 2, 2: 1})


@pytest.fixture(scope="session")
def f4_sub(f4_theta):
    return ct.enumerate_fixed_subgroup(f4_theta)


@pytest.fixture(scope="session")
def f4_cosets(f4_sub):
    return ct.all_cosets(f4_sub)


@pytest.fixture(scope="session")
def a3():
    return ct.build_system(A3_MATRIX)


@pytest.fixture(scope="session")
def a3_sub(a3):
    theta = ct.validate_automorphism(a3, range(3), {0: 2, 2: 0})
    return ct.enumerate_fixed_subgroup(theta)


def from_digits(sys, digits):
    """Element of a compact digit string of 1-based letters, e.g. '42312342'."""
    return ct.element_from_word(sys, [int(c) - 1 for c in digits])


def down_set(w):
    """Indices of the Bruhat interval [e, w], by the subword property.

    Closes {w} under deleting one letter of a canonical word wherever that
    drops the length by exactly one; each covered element is reached so
    (chain property).  Every walk is shorter than w, so it stays inside a
    truncated ball.  Independent of core.bruhat_leq.
    """
    sys = w.system
    found = {w.index}
    queue = [w.index]
    for i in queue:
        word = sys.element(i).word
        for k in range(len(word)):
            j = ct.element_from_word(sys, word[:k] + word[k + 1 :])
            if j.length == len(word) - 1 and j.index not in found:
                found.add(j.index)
                queue.append(j.index)
    return found


def reflection_closure(sys):
    """The Bruhat down-set masks by definition: below[i] closes {i} under
    x -> x*t for every reflection t with l(x*t) < l(x), one walk of every
    reflection word from every element.  Independent of the oracle's covers
    and of core.bruhat_leq."""
    below = [0] * sys.size
    ref_words = [t.word for t in ct.reflections(sys)]
    for w in sys:
        i = w.index
        mask = 1 << i
        for word in ref_words:
            j = sys._walk(i, word)
            if sys.length[j] < w.length:
                mask |= below[j]
        below[i] = mask
    return below


@pytest.fixture()
def flipped_oracle(monkeypatch):
    """Negative control for the Bruhat oracle: _below_masks returns a copy
    of the oracle masks with bit u of below[w] flipped for every u != w with
    (u + w) % 3 == 1.  The cached masks stay as they are."""
    below_masks = verify._below_masks

    def flipped(sys):
        # residue[r] holds the bits u with u % 3 == r
        residue = [sum(1 << u for u in range(r, sys.size, 3)) for r in range(3)]
        return [
            m ^ (residue[(1 - w) % 3] & ~(1 << w)) for w, m in enumerate(below_masks(sys))
        ]

    monkeypatch.setattr(verify, "_below_masks", flipped)


def replayed_dominate(sub, x):
    """dominate by its definition, one step at a time: the twisted word of
    base^-1 * x walked from the coset's least minimal member, with one
    cosets._advance per step.  The base sits at node 0, so base^-1 * x is
    x's node.  Reads the partition's base and x's node, never its carried
    walk."""
    part, lo, z = cosets._locate(sub, x)
    if part.is_min_in(lo, x):
        return ct.DominationResult(target=x, base=x, witness=x, steps=())
    sys = x.system
    base = sys.element(part.at[lo])
    y = sub.elements[z]
    i, witness, steps = base.index, base, []
    for g in ct.twisted_reduced_word(sub, y):
        i, verdict, w, replaced = cosets._advance(sys, i, witness.index, g)
        witness = sys.element(w)
        steps.append(cosets.DominationStep(
            generator=g, prefix=sys.element(i), verdict=verdict,
            witness=witness, replaced=replaced,
        ))
    if i != x.index:
        raise ct.TheoremViolation(
            f"twisted word from {base.word_string()!r} ended at "
            f"{sys.element(i).word_string()!r}, not {x.word_string()!r}"
        )
    if not part.is_min_in(lo, witness) or not core.bruhat_leq(witness, x):
        raise ct.TheoremViolation(
            f"constructed witness {witness.word_string()!r} fails the contract "
            f"for {x.word_string()!r}"
        )
    return ct.DominationResult(target=x, base=base, witness=witness, steps=tuple(steps))


def trade_members(part, j, k):
    """Swap element indices j and k in both arrays of a coset partition:
    each takes the other's slot."""
    a, b = part.slot[j], part.slot[k]
    part.at[a], part.at[b] = k, j
    part.slot[j], part.slot[k] = b, a


def plant_step_failure(monkeypatch, target):
    """Make cosets._step raise at one (element index, generator) pair."""
    step = cosets._step

    def broken(system, i, g):
        if (i, g) == target:
            raise ct.TheoremViolation("planted")
        return step(system, i, g)

    monkeypatch.setattr(cosets, "_step", broken)
