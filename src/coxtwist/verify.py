"""Verification suites: independent oracles and exhaustive structure checks.

The Bruhat oracle here never calls core.bruhat_leq.  It records each
element's covers and closes over them: by the chain property of the graded
Bruhat order (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.2.6)
that is the closure over every lower reflection neighbour.  The covers
come from the table and the stored last letters by the lifting property
(ibid., Prop. 2.2.7; _below_masks), so the oracle checks that each last
letter is a descent.  The definition-based reference, the closure of
x -> x*t over the reflections t, is in tests/conftest.py.  One recurrence
over the covers (_down_closure) fills the masks, so it can be rerun from
another seed.  The remaining suites check the structural guarantees of the
twisted and coset modules over whole groups, recording every
counterexample as a tuple of serialized canonical words.  The lemma suites
read each product i*g from g's column (_column).
equal-length-transfer reruns the recurrence once per generator g, seeded
at i*g^-1, for the preimage masks {u : u*g <= i}, and finds the failing u
of each w by whole-mask arithmetic.
fixed-subgroup-equality finds W_L and the theta-image of each of its
members in one breadth-first pass over the table.  The coset suites read
each coset once from the shared partition (cosets._cosets).
coset-partition checks both of the partition's arrays, the member at each
slot and the slot of each member, against walks in W from each coset's
least member, and bruhat-minimal-equality tests each member against one
mask of its coset.
The twisted words, chain quotients and tree rows they use are all read
from the subgroup's table and stored last letters.  minimal-chains,
step-dichotomy and dominated-minimal-search walk the twisted-word tree in
index space, one walk per minimal member or per coset; each reads its rows
afresh from the table (twisted._word_tree), not from the partition's copy,
so a corrupted table entry reaches every walk.  The words are
prefix-closed, so each edge of the tree is one step of every word through
it, judged once by the coset module's own step rules (cosets._step,
cosets._advance); dominated-minimal-search runs dominate's own walk
(cosets._carry) afresh.  minimal-chains follows only the steps that keep
the length, so its walk from u visits only the minimal members it links u
to.
Each Bruhat fact is judged once: only bruhat-oracle-agreement and
ascent-implies-bruhat, which owns the Bruhat ascent of every lengthening
twisted step, call core.bruhat_leq; witnesses are judged by the masks.

run_suite reads a closed config schema: top-level ``seed`` (an integer)
and ``cases`` (a non-empty list); each case is a group description
(descriptions.py) plus an optional non-empty ``suites`` list.  Any other
key, or an empty list, raises DescriptionError before any case is built.
Negative controls live in tests/test_verify.py, one per suite.
"""
from __future__ import annotations

import random
import weakref
from collections import Counter
from dataclasses import dataclass

from . import core, cosets, twisted
from .core import CoxeterSystem, Element
from .cosets import StepVerdict, TwistedSubgroup
from .descriptions import GroupDescription
from .errors import CapExceeded, CoxeterError, DescriptionError
from .twisted import GeneratorParity

DEFAULT_SEED = 271828
EXHAUSTIVE_LIMIT = 48
SAMPLE_PAIRS = 1000


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite on one system, or the error that stopped it."""

    suite: str
    system: str
    checked: int
    failures: tuple[tuple[str, ...], ...]
    error: str | None = None

    @property
    def passed(self) -> int:
        return self.checked - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures and self.error is None


@dataclass(frozen=True)
class VerificationRun:
    """All reports of one run_suite invocation."""

    reports: tuple[VerificationReport, ...]
    seed: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def total_checked(self) -> int:
        return sum(r.checked for r in self.reports)

    @property
    def total_failed(self) -> int:
        return sum(len(r.failures) for r in self.reports)

    def to_records(self) -> dict:
        return {
            "seed": self.seed,
            "suites": [
                {
                    "suite": r.suite,
                    "system": r.system,
                    "checked": r.checked,
                    "passed": r.passed,
                    "failures": [list(f) for f in r.failures],
                    **({"error": r.error} if r.error is not None else {}),
                }
                for r in self.reports
            ],
        }

    def to_text(self) -> str:
        rows = [("suite", "system", "checked", "passed", "failed")]
        for r in self.reports:
            rows.append((r.suite, r.system, str(r.checked), str(r.passed), str(len(r.failures))))
        lines = [f"seed: {self.seed}", *_columns(rows)]
        errors = sum(r.error is not None for r in self.reports)
        for r in self.reports:
            if r.error is not None:
                lines.append(f"error in {r.suite} on {r.system}: {r.error}")
            if r.failures:
                lines.append(f"counterexamples for {r.suite} on {r.system}:")
                for f in r.failures[:5]:
                    lines.append("  " + " | ".join(f))
                if len(r.failures) > 5:
                    lines.append(f"  ... and {len(r.failures) - 5} more")
        lines.append(
            f"total: {self.total_checked} checked, {self.total_failed} failed"
            + (f", {errors} error{'s' * (errors > 1)}" if errors else "")
        )
        return "\n".join(lines) + "\n"


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    """One line per row, each column left-aligned to its widest cell and
    two spaces from the next, trailing blanks stripped: the table layout of
    VerificationRun.to_text and of the cosets command."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]


# -- Bruhat oracle --------------------------------------------------------


# system -> (below, lower) of _below_masks; the entry holds no reference to
# the system, so it goes when its system does.
_MASKS: weakref.WeakKeyDictionary[
    CoxeterSystem, tuple[list[int], list[list[int]]]
] = weakref.WeakKeyDictionary()


def _column(sys: CoxeterSystem, word) -> list[int]:
    """col[i] is the index of element i times ``word``, composed from the
    generator columns of the table one letter at a time."""
    table = sys._table
    col = list(range(sys.size))
    for s in word:
        col = [table[j][s] for j in col]
        if None in col:
            raise core._escapes(sys.size)
    return col


def _down_closure(lower: list[list[int]], seed) -> list[int]:
    """out[i] = 1 << seed[i] | out[j] for every cover j of i: the down-set
    of element i, each member u moved to seed[u]'s bit.  Covers are shorter,
    so they come first in index order, and one pass fills it."""
    out = [0] * len(lower)
    for i, down in enumerate(lower):
        mask = 1 << seed[i]
        for j in down:
            mask |= out[j]
        out[i] = mask
    return out


def _below_masks(sys: CoxeterSystem) -> list[int]:
    """below[i] is the bitmask of indices u with u <= element i: the closure
    of lower[i], the covers of i, kept in the cache entry for the preimage
    masks of check_lemma_corr.
    With s = last[i] and p = i*s, lower[i] = [p] + [c*s for c in lower[p] if
    c*s > c], a larger index being a longer element.  A last letter that is
    not a descent, l(p) != l(i) - 1, raises TheoremViolation, caching nothing."""
    entry = _MASKS.get(sys)
    if entry is not None:
        return entry[0]
    if not sys.complete:
        raise CapExceeded("the Bruhat oracle needs a fully enumerated group")
    table, last, length = sys._table, sys._last, sys.length
    lower = [[]]
    for i in range(1, sys.size):
        s = last[i]
        p = table[i][s]
        if length[p] != length[i] - 1:
            raise core._not_a_descent(s, i)
        lower.append([p] + [cs for c in lower[p] if (cs := table[c][s]) > c])
    below = _down_closure(lower, range(sys.size))
    _MASKS[sys] = (below, lower)
    return below


def oracle_bruhat(sys: CoxeterSystem, u: Element, w: Element) -> bool:
    """Bruhat comparison by the oracle masks, independent of core.bruhat_leq."""
    if u.system is not sys or w.system is not sys:
        raise ValueError("elements belong to different systems")
    below = _below_masks(sys)
    return bool((below[w.index] >> u.index) & 1)


# -- individual checks ----------------------------------------------------


def check_oracle_agreement(
    sys: CoxeterSystem,
    label: str = "",
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """bruhat_leq against the oracle: every pair for groups of order at most
    48, otherwise a fixed-seed sample of ordered pairs."""
    below = _below_masks(sys)
    n = sys.size
    if n <= EXHAUSTIVE_LIMIT:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLE_PAIRS)]
    failures = []
    for iu, iw in pairs:
        expected = bool((below[iw] >> iu) & 1)
        got = core.bruhat_leq(sys.element(iu), sys.element(iw))
        if got != expected:
            failures.append((sys.element(iu).word_string(), sys.element(iw).word_string()))
    return VerificationReport("bruhat-oracle-agreement", label, len(pairs), tuple(failures))


def check_lemma_commuting_reflections(sys: CoxeterSystem, label: str = "") -> VerificationReport:
    """Distinct commuting reflections never invert each other."""
    refs = core.reflections(sys)
    words = [t.word for t in refs]  # each read up the table once
    length = sys.length
    checked = 0
    failures = []
    for a, t in enumerate(refs):
        for b, t2 in enumerate(refs):
            if a == b:
                continue
            t2t = sys._walk(t2.index, words[a])
            if sys._walk(t.index, words[b]) != t2t:
                continue
            checked += 1
            # t in N(t2) would mean len(t2 * t) < len(t2)
            if length[t2t] < length[t2.index]:
                failures.append((t.word_string(), t2.word_string()))
    return VerificationReport("commuting-reflection-inversions", label, checked, tuple(failures))


def check_lemma_long_gen(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """A length ascent by a twisted generator is a Bruhat ascent."""
    sys = sub.system
    length = sys.length
    checked = 0
    failures = []
    for g in sub.gens:
        col = _column(sys, g.elt.word)
        for i, j in enumerate(col):
            if length[j] <= length[i]:
                continue
            checked += 1
            u = Element(sys, i)
            if not core.bruhat_leq(u, Element(sys, j)):
                failures.append((u.word_string(), g.elt.word_string()))
    return VerificationReport("ascent-implies-bruhat", label, checked, tuple(failures))


def check_lemma_corr(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """If u <= w and the twisted generator x keeps the length of w, then u
    or u*x stays dominated by w*x without growing.

    For w with l(w*x) = l(w), the failing u are the bits of

        below[w] & ~below[w*x] & ~(shrink & pre[w*x]),

    with shrink = {u : l(u*x) <= l(u)} and pre[i] = {u : u*x <= i} =
    {v*x^-1 : v <= i}, the recurrence of _below_masks over the recorded
    covers seeded at i*x^-1 instead of at i; so only failing bits are
    visited, and one generator's preimage masks are alive at a time.
    Failures are ordered by generator, then w, then u."""
    sys = sub.system
    below = _below_masks(sys)
    lower = _MASKS[sys][1]
    length = sys.length
    checked = 0
    failures = []
    for g in sub.gens:
        word = g.elt.word
        col = _column(sys, word)
        pairs = [(iw, iwx) for iw, iwx in enumerate(col) if length[iwx] == length[iw]]
        if not pairs:
            continue
        # x^-1 is spelt by x's word reversed, every letter being an involution
        pre = _down_closure(lower, _column(sys, reversed(word)))
        bits = ["1" if length[j] <= length[u] else "0" for u, j in enumerate(col)]
        shrink = int("".join(reversed(bits)), 2)
        gw = g.elt.word_string()
        for iw, iwx in pairs:
            dominated = below[iw]
            checked += dominated.bit_count()
            rest = dominated & ~below[iwx]
            if rest:
                rest &= ~(shrink & pre[iwx])
            while rest:
                lsb = rest & -rest
                rest ^= lsb
                failures.append((
                    sys.element(lsb.bit_length() - 1).word_string(),
                    sys.element(iw).word_string(),
                    gw,
                ))
        del pre  # before the next generator's masks are built
    return VerificationReport("equal-length-transfer", label, checked, tuple(failures))


def check_prop_additivity(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """Plain length is additive along twisted reduced words."""
    failures = []
    for z in sub.elements:
        try:
            word = twisted.twisted_reduced_word(sub, z)
            if sum(g.elt.length for g in word) != z.length:
                failures.append((z.word_string(),))
        except CoxeterError:
            failures.append((z.word_string(),))
    return VerificationReport("length-additivity", label, len(sub.elements), tuple(failures))


def check_generator_parity(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """Twisted generators split into even elements and odd reflections."""
    failures = []
    for g in sub.gens:
        odd = g.elt.length % 2 == 1
        if (g.parity_class is GeneratorParity.ODD) != odd or core.is_reflection(g.elt) != odd:
            failures.append((g.elt.word_string(),))
    return VerificationReport("generator-parity", label, len(sub.gens), tuple(failures))


def check_fixed_subgroup_equality(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """The closure of the twisted generators equals the fixed-point set of
    theta on the parabolic W_L.  One breadth-first pass over the table finds
    W_L and the image of each member, image[i*s] = image[i] * theta(s)."""
    sys = sub.system
    table = sys._table
    theta = sub.theta
    moves = [(s, theta(s)) for s in sorted(theta.L)]
    image = {0: 0}
    queue = [0]
    for i in queue:
        row, image_row = table[i], table[image[i]]
        for s, ts in moves:
            j = row[s]
            if j in image:
                continue
            k = image_row[ts]
            if j is None or k is None:
                raise CapExceeded("W_L did not close within the enumerated region")
            image[j] = k
            queue.append(j)
    positions = sub._positions
    failures = [
        (sys.element(w).word_string(),)
        for w in sorted(image)
        if (image[w] == w) != (w in positions)
    ]
    for z in sub.elements:
        if z.index not in image:
            failures.append((z.word_string(),))
    return VerificationReport(
        "fixed-subgroup-equality", label, len(image), tuple(failures)
    )


def check_coset_partition(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """Cosets of the fixed subgroup tile the group without overlap, and each
    reported coset equals b * H recomputed by plain multiplication, b its
    least member.  Both arrays of the partition must hold the recomputed
    walk, node z holding b * elements[z]: the members at the coset's slots,
    at[lo:lo+h], node by node, and the slot of each member, lo + z, where
    lo = slot[b]."""
    sys = sub.system
    words = [z.word for z in sub.elements]  # each read up the table once
    part = cosets._partition(sub)
    h, slot, at = part.h, part.slot, part.at
    seen: set[int] = set()
    checked = 0
    failures = []
    for members, _ in cosets._cosets(sub):
        checked += 1
        rep = sys.element(members[0])
        walk = [sys._walk(rep.index, word) for word in words]
        lo = slot[rep.index]
        if members != sorted(walk):
            failures.append((rep.word_string(), "members"))
        elif list(at[lo : lo + h]) != walk or any(slot[j] != lo + z for z, j in enumerate(walk)):
            failures.append((rep.word_string(), "positions"))
        if seen.intersection(members):
            failures.append((rep.word_string(), "overlap"))
        seen.update(members)
    if len(seen) != sys.size:
        failures.append(("partition", "union"))
    return VerificationReport("coset-partition", label, checked, tuple(failures))


def check_bruhat_minimal_equality(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """Minimal length in a coset coincides with Bruhat minimality."""
    sys = sub.system
    below = _below_masks(sys)
    checked = 0
    failures = []
    for members, nmin in cosets._cosets(sub):
        min_idx = set(members[:nmin])
        cmask = 0
        for v in members:
            cmask |= 1 << v
        for w in members:
            checked += 1
            # w is Bruhat-minimal when no other member lies below it
            bruhat_minimal = (below[w] & cmask) == 1 << w
            if bruhat_minimal != (w in min_idx):
                failures.append(
                    (sys.element(members[0]).word_string(), sys.element(w).word_string())
                )
    return VerificationReport("bruhat-minimal-equality", label, checked, tuple(failures))


def check_minimal_chains(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """Any two minimal members are linked through the minimal set.

    One walk per minimal u goes down the twisted-word tree only along the
    steps that the step rule judges EQUAL, so it reaches u * z for each z
    whose whole word keeps u's length, as connect_minimals requires of the
    word of u^-1 * v.  The pair (u, v) fails when the walk reaches v other
    than exactly once.
    """
    sys = sub.system
    children = [[] for _ in sub.elements]  # parent -> [(z, g)]
    for z, parent, g in twisted._word_tree(sub):
        children[parent].append((z, g))
    step = cosets._step
    checked = 0
    failures = []
    for members, nmin in cosets._cosets(sub):
        mins = members[:nmin]
        for u in mins:
            checked += nmin - 1
            reached = Counter()
            todo = [(0, u)]
            while todo:
                z, i = todo.pop()
                reached[i] += 1
                for child, g in children[z]:
                    try:
                        j, verdict = step(sys, i, g)
                    except CoxeterError:
                        continue
                    if verdict is StepVerdict.EQUAL:
                        todo.append((child, j))
            missed = [v for v in mins if v != u and reached[v] != 1]
            if missed:
                uw = sys.element(u).word_string()
                failures.extend((uw, sys.element(v).word_string()) for v in missed)
    return VerificationReport("minimal-chains", label, checked, tuple(failures))


def check_step_dichotomy(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """From a minimal element, every twisted-word step keeps the length
    (even generators only) or lengthens.

    One walk down the twisted-word tree per minimal u sets cur[z] to
    cur[parent] * g by the step rule, checking each edge once.  The pair
    (u, z) fails when a step on the way to z fails, as an escalation_trace
    replay of z's word from u would for a step fault, or when cur[z] lies
    outside u's coset or is reached by another z too: the walk from u must
    reach each member of the coset exactly once.  ascent-implies-bruhat owns
    the Bruhat ascent of each lengthening step.
    """
    sys = sub.system
    elements = sub.elements
    h = len(elements)
    rows = twisted._word_tree(sub)
    step = cosets._step
    checked = 0
    failures = []
    for members, nmin in cosets._cosets(sub):
        coset = set(members)
        for u in members[:nmin]:
            checked += h
            cur = [u] + [-1] * (h - 1)  # -1: a step on the way to z failed
            for z, parent, g in rows:
                i = cur[parent]
                if i < 0:
                    continue
                try:
                    cur[z], _ = step(sys, i, g)
                except CoxeterError:
                    pass
            if set(cur) == coset:
                continue
            reached = Counter(cur)
            uw = sys.element(u).word_string()
            for z, j in enumerate(cur):
                if j not in coset or reached[j] > 1:
                    failures.append((uw, elements[z].word_string()))
    return VerificationReport("step-dichotomy", label, checked, tuple(failures))


def check_dominated_search(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """The constructive dominated-minimal witness matches exhaustive search.

    Each coset runs dominate's own walk (cosets._carry) afresh down the
    twisted-word tree from its base, not the partition's carried copy, so
    the witness of base * z is the one dominate builds along z's word.  A
    minimal member is its own witness.  Any other member fails its
    construction when a step on the way to it fails, when the walk reaches
    it more than once or not at all, or when its witness is not a minimal
    member; a minimal witness fails when the oracle mask does not place it
    below the member.
    """
    sys = sub.system
    below = _below_masks(sys)
    rows = twisted._word_tree(sub)
    checked = 0
    failures = []
    for members, nmin in cosets._cosets(sub):
        cur, wit = cosets._carry(sub, rows, members[0])
        witnesses: dict[int, int | None] = {}  # None: reached more than once
        for j, w in zip(cur, wit):
            if j >= 0:
                witnesses[j] = None if j in witnesses else w
        mins = set(members[:nmin])
        for k, x in enumerate(members):
            checked += 1
            w = x if k < nmin else witnesses.get(x)
            if w is None or w not in mins:
                failures.append((sys.element(x).word_string(), "construction"))
            elif not (below[x] >> w) & 1:
                failures.append((sys.element(x).word_string(), sys.element(w).word_string()))
    return VerificationReport("dominated-minimal-search", label, checked, tuple(failures))


# -- suite runner ---------------------------------------------------------

# Suite name -> check(case, label, seed).  Each entry looks its check
# function up when called, so a wrapper installed on the module attribute
# is the one that runs.
_SUITES = {
    "fixed-subgroup-equality": lambda case, label, seed: (
        check_fixed_subgroup_equality(case.subgroup, label)),
    "generator-parity": lambda case, label, seed: (
        check_generator_parity(case.subgroup, label)),
    "length-additivity": lambda case, label, seed: (
        check_prop_additivity(case.subgroup, label)),
    "coset-partition": lambda case, label, seed: (
        check_coset_partition(case.subgroup, label)),
    "bruhat-minimal-equality": lambda case, label, seed: (
        check_bruhat_minimal_equality(case.subgroup, label)),
    "minimal-chains": lambda case, label, seed: (
        check_minimal_chains(case.subgroup, label)),
    "step-dichotomy": lambda case, label, seed: (
        check_step_dichotomy(case.subgroup, label)),
    "dominated-minimal-search": lambda case, label, seed: (
        check_dominated_search(case.subgroup, label)),
    "ascent-implies-bruhat": lambda case, label, seed: (
        check_lemma_long_gen(case.subgroup, label)),
    "equal-length-transfer": lambda case, label, seed: (
        check_lemma_corr(case.subgroup, label)),
    "commuting-reflection-inversions": lambda case, label, seed: (
        check_lemma_commuting_reflections(case.system, label)),
    "bruhat-oracle-agreement": lambda case, label, seed: (
        check_oracle_agreement(case.system, label, seed=seed)),
}

SUITE_NAMES = tuple(_SUITES)


def default_config() -> dict:
    """The bundled verification config: small twisted cases plus F4."""
    cases = [
        {"name": "A1xA1 swap", "type": ["A1", "A1"], "theta": [[1, 2]]},
        {"name": "A2 swap", "type": "A2", "theta": [[1, 2]]},
        {"name": "A3 swap", "type": "A3", "theta": [[1, 3]]},
        {"name": "B2 identity", "type": "B2"},
    ]
    for m in range(2, 9):
        cases.append({"name": f"I2({m}) swap", "type": f"I2({m})", "theta": [[1, 2]]})
    cases.append({"name": "A2xA2 swap", "type": ["A2", "A2"], "theta": [[1, 3], [2, 4]]})
    cases.append({"name": "F4 swap", "type": "F4", "theta": [[1, 4], [2, 3]]})
    return {"seed": DEFAULT_SEED, "cases": cases}


def run_suite(config: dict | None = None) -> VerificationRun:
    """Run the configured suites over the configured systems.

    The config and every case, with its bond matrix and theta, are checked
    before any case is built, so a config problem raises DescriptionError,
    MalformedMatrix or an AutomorphismError before any work; a suite that
    raises CoxeterError is recorded with that error and nothing checked.
    """
    if config is None:
        config = default_config()
    if not isinstance(config, dict) or not isinstance(config.get("cases"), list):
        raise DescriptionError("verify config must be an object with a list of 'cases'")
    unknown = set(config) - {"seed", "cases"}
    if unknown:
        raise DescriptionError(f"unknown verify config keys: {sorted(unknown)}")
    if not config["cases"]:
        raise DescriptionError("verify config 'cases' must not be empty")
    seed = config.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DescriptionError(f"verify seed {seed!r} is not an integer")
    plan = []
    for position, case_doc in enumerate(config["cases"], 1):
        if not isinstance(case_doc, dict):
            raise DescriptionError("each verify case must be a JSON object")
        case_doc = dict(case_doc)
        suites = case_doc.pop("suites", SUITE_NAMES)
        if not isinstance(suites, (list, tuple)) or not suites:
            raise DescriptionError("'suites' must be a non-empty list of suite names")
        for suite_name in suites:
            if not isinstance(suite_name, str) or suite_name not in _SUITES:
                raise DescriptionError(f"unknown suite {suite_name!r}")
        label = case_doc.get("name") or f"case {position}"
        plan.append((label, GroupDescription.from_dict(case_doc), suites))
    reports = []
    for label, description, suites in plan:
        case = description.build()
        for suite_name in suites:
            try:
                reports.append(_SUITES[suite_name](case, label, seed))
            except CoxeterError as e:
                reports.append(VerificationReport(suite_name, label, 0, (), str(e)))
    return VerificationRun(reports=tuple(reports), seed=seed)
