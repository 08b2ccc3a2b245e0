"""Verification suites: independent oracles and exhaustive structure checks.

The Bruhat oracle here is built straight from the definition (transitive
closure of x -> x*t over reflections t with a length increase) and never
calls core.bruhat_leq, so the two sides of the oracle-agreement suite stay
independent.  The remaining suites check the structural guarantees of the
twisted and coset modules over whole groups, recording every counterexample
as a tuple of serialized canonical words.  The coset suites read each coset
once from the shared partition (cosets._cosets).  The twisted words, chain
quotients and tree rows they use are all read from the subgroup's table.
step-dichotomy and dominated-minimal-search walk the twisted-word tree
(twisted._word_tree) in index space, one walk per minimal member or per
coset: the words are prefix-closed, so each edge of the tree is one step of
every word through it, judged once by the coset module's own step rules
(cosets._step, cosets._advance).

run_suite accepts a config document with a ``corrupt`` key used as a
negative-control fixture in tests: it deterministically flips a sparse set
of oracle answers so that a healthy pipeline must report failures.
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
    """Outcome of one suite on one system."""

    suite: str
    system: str
    checked: int
    failures: tuple[tuple[str, ...], ...]

    @property
    def passed(self) -> int:
        return self.checked - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


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
                }
                for r in self.reports
            ],
        }

    def to_text(self) -> str:
        rows = [("suite", "system", "checked", "passed", "failed")]
        for r in self.reports:
            rows.append((r.suite, r.system, str(r.checked), str(r.passed), str(len(r.failures))))
        widths = [max(len(row[i]) for row in rows) for i in range(5)]
        lines = [f"seed: {self.seed}"]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        for r in self.reports:
            if r.failures:
                lines.append(f"counterexamples for {r.suite} on {r.system}:")
                for f in r.failures[:5]:
                    lines.append("  " + " | ".join(f))
                if len(r.failures) > 5:
                    lines.append(f"  ... and {len(r.failures) - 5} more")
        lines.append(
            f"total: {self.total_checked} checked, {self.total_failed} failed"
        )
        return "\n".join(lines) + "\n"


# -- Bruhat oracle --------------------------------------------------------


# system -> its masks; the masks hold no reference to the system, so an
# entry goes when its system does.
_MASKS: weakref.WeakKeyDictionary[CoxeterSystem, list[int]] = weakref.WeakKeyDictionary()


def _below_masks(sys: CoxeterSystem) -> list[int]:
    """below[i] is the bitmask of indices u with u <= element i, computed as
    the transitive closure of the reflection-ascent relation."""
    below = _MASKS.get(sys)
    if below is not None:
        return below
    if not sys.complete:
        raise CapExceeded("the Bruhat oracle needs a fully enumerated group")
    ref_words = [t.word for t in core.reflections(sys)]
    words = sys.words
    below = [0] * sys.size
    for i in range(sys.size):
        mask = 1 << i
        li = len(words[i])
        for rw in ref_words:
            j = sys._walk(i, rw)
            if len(words[j]) < li:
                mask |= below[j]
        below[i] = mask
    _MASKS[sys] = below
    return below


def oracle_bruhat(sys: CoxeterSystem, u: Element, w: Element) -> bool:
    """Definitional Bruhat comparison, independent of core.bruhat_leq."""
    below = _below_masks(sys)
    return bool((below[w.index] >> u.index) & 1)


# -- individual checks ----------------------------------------------------


def check_oracle_agreement(
    sys: CoxeterSystem,
    label: str = "",
    seed: int = DEFAULT_SEED,
    corrupt: str | None = None,
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
        if corrupt == "bruhat-oracle" and iu != iw and (iu + iw) % 3 == 1:
            expected = not expected
        got = core.bruhat_leq(sys.element(iu), sys.element(iw))
        if got != expected:
            failures.append((sys.element(iu).word_string(), sys.element(iw).word_string()))
    return VerificationReport("bruhat-oracle-agreement", label, len(pairs), tuple(failures))


def check_lemma_commuting_reflections(sys: CoxeterSystem, label: str = "") -> VerificationReport:
    """Distinct commuting reflections never invert each other."""
    refs = core.reflections(sys)
    checked = 0
    failures = []
    for a in range(len(refs)):
        for b in range(len(refs)):
            if a == b:
                continue
            t, t2 = refs[a], refs[b]
            if core.multiply(t, t2) != core.multiply(t2, t):
                continue
            checked += 1
            # t in N(t2) would mean len(t2 * t) < len(t2)
            if core.multiply(t2, t).length < t2.length:
                failures.append((t.word_string(), t2.word_string()))
    return VerificationReport("commuting-reflection-inversions", label, checked, tuple(failures))


def check_lemma_long_gen(sys: CoxeterSystem, sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """A length ascent by a twisted generator is a Bruhat ascent."""
    checked = 0
    failures = []
    for g in sub.gens:
        for i in range(sys.size):
            u = sys.element(i)
            ux = core.multiply(u, g.elt)
            if ux.length <= u.length:
                continue
            checked += 1
            if not core.bruhat_leq(u, ux):
                failures.append((u.word_string(), g.elt.word_string()))
    return VerificationReport("ascent-implies-bruhat", label, checked, tuple(failures))


def check_lemma_corr(sys: CoxeterSystem, sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """If u <= w and the twisted generator x keeps the length of w, then u
    or u*x stays dominated by w*x without growing."""
    below = _below_masks(sys)
    words = sys.words
    checked = 0
    failures = []
    for g in sub.gens:
        gw = g.elt.word
        for iw in range(sys.size):
            iwx = sys._walk(iw, gw)
            if len(words[iwx]) != len(words[iw]):
                continue
            dominated = below[iw]
            target = below[iwx]
            easy = dominated & target
            checked += easy.bit_count()
            rest = dominated & ~target
            while rest:
                lsb = rest & -rest
                iu = lsb.bit_length() - 1
                rest ^= lsb
                checked += 1
                iux = sys._walk(iu, gw)
                if len(words[iux]) <= len(words[iu]) and (target >> iux) & 1:
                    continue
                failures.append(
                    (
                        sys.element(iu).word_string(),
                        sys.element(iw).word_string(),
                        g.elt.word_string(),
                    )
                )
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
    """The closure of the twisted generators equals the fixed-point filter
    of the parabolic W_L, checked element by element."""
    sys = sub.system
    theta = sub.theta
    gen_elts = [sys.element(sys._table[0][s]) for s in sorted(theta.L)]
    ball, complete = core.enumerate_ball(sys, gen_elts)
    if not complete:
        raise CapExceeded("W_L did not close within the enumerated region")
    failures = []
    ball_idx = set()
    for w in ball:
        ball_idx.add(w.index)
        if twisted.is_fixed(theta, w) != (w in sub):
            failures.append((w.word_string(),))
    for z in sub.elements:
        if z.index not in ball_idx:
            failures.append((z.word_string(),))
    return VerificationReport(
        "fixed-subgroup-equality", label, len(ball), tuple(failures)
    )


def check_coset_partition(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """Cosets of the fixed subgroup tile the group without overlap, and each
    reported coset equals rep * H recomputed by plain multiplication."""
    sys = sub.system
    seen: set[int] = set()
    checked = 0
    failures = []
    for members, _ in cosets._cosets(sub):
        checked += 1
        rep = sys.element(members[0])
        got = list(members)
        if len(got) != sub.order:
            failures.append((rep.word_string(), "size"))
        elif got != sorted(core.multiply(rep, z).index for z in sub.elements):
            failures.append((rep.word_string(), "members"))
        if seen.intersection(got):
            failures.append((rep.word_string(), "overlap"))
        seen.update(got)
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
        for w in members:
            checked += 1
            bruhat_minimal = not any(v != w and (below[w] >> v) & 1 for v in members)
            if bruhat_minimal != (w in min_idx):
                failures.append(
                    (sys.element(members[0]).word_string(), sys.element(w).word_string())
                )
    return VerificationReport("bruhat-minimal-equality", label, checked, tuple(failures))


def check_minimal_chains(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """Any two minimal members are linked through the minimal set."""
    sys = sub.system
    checked = 0
    failures = []
    for members, nmin in cosets._cosets(sub):
        mins = [sys.element(i) for i in members[:nmin]]
        for u in mins:
            for v in mins:
                if u == v:
                    continue
                checked += 1
                try:
                    cosets.connect_minimals(sub, u, v)
                except CoxeterError:
                    failures.append((u.word_string(), v.word_string()))
    return VerificationReport("minimal-chains", label, checked, tuple(failures))


def check_step_dichotomy(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """From a minimal element, every twisted-word step keeps the length
    (even generators only) or ascends in the Bruhat order.

    One walk down the twisted-word tree per minimal u sets cur[z] to
    cur[parent] * g by the step rule, checking each edge once.  The pair
    (u, z) fails when a step on the way to z fails, as a replay of z's whole
    word from u would, and also when cur[z] lies outside u's coset or is
    reached by another z too: the walk from u must reach each member of the
    coset exactly once.
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
                    j, verdict = step(sys, i, g)
                except CoxeterError:
                    continue
                if verdict is StepVerdict.BRUHAT_UP and not core.bruhat_leq(
                    Element(sys, i), Element(sys, j)
                ):
                    continue
                cur[z] = j
            if set(cur) == coset:
                continue
            reached = Counter(cur)
            uw = sys.element(u).word_string()
            for z, j in enumerate(cur):
                if j not in coset or reached[j] > 1:
                    failures.append((uw, elements[z].word_string()))
    return VerificationReport("step-dichotomy", label, checked, tuple(failures))


def _carried_witnesses(
    sub: TwistedSubgroup, rows: list[tuple[int, int, twisted.TwistedGenerator]], base: int
) -> dict[int, int | None]:
    """Member -> the witness dominate's (cur, witness) state reaches there,
    carried down the twisted-word tree from the coset's base by
    cosets._advance; None for a member the walk reaches more than once.  A
    member is absent when the walk misses it, as when a step on the way to
    it fails."""
    sys = sub.system
    advance = cosets._advance
    cur = [base] + [-1] * (len(sub.elements) - 1)  # -1: a step on the way to z failed
    wit = cur[:]
    for z, parent, g in rows:
        i = cur[parent]
        if i < 0:
            continue
        try:
            cur[z], _, wit[z], _ = advance(sys, i, wit[parent], g)
        except CoxeterError:
            pass
    out: dict[int, int | None] = {}
    for z, j in enumerate(cur):
        if j >= 0:
            out[j] = None if j in out else wit[z]
    return out


def check_dominated_search(sub: TwistedSubgroup, label: str = "") -> VerificationReport:
    """The constructive dominated-minimal witness matches exhaustive search.

    Each coset carries dominate's state down the twisted-word tree once
    (_carried_witnesses), so the witness of base * z is the one dominate
    builds along z's word.  A minimal member is its own witness.  Any other
    member fails its construction when a step on the way to it fails, when
    the walk reaches it more than once or not at all, or when its witness is
    not a minimal member below it.
    """
    sys = sub.system
    below = _below_masks(sys)
    rows = twisted._word_tree(sub)
    checked = 0
    failures = []
    for members, nmin in cosets._cosets(sub):
        witnesses = _carried_witnesses(sub, rows, members[0])
        mins = set(members[:nmin])
        for k, x in enumerate(members):
            checked += 1
            w = x if k < nmin else witnesses.get(x)
            if w is None or w not in mins or not core.bruhat_leq(
                Element(sys, w), Element(sys, x)
            ):
                failures.append((sys.element(x).word_string(), "construction"))
            elif not (below[x] >> w) & 1:
                failures.append((sys.element(x).word_string(), sys.element(w).word_string()))
    return VerificationReport("dominated-minimal-search", label, checked, tuple(failures))


# -- suite runner ---------------------------------------------------------

# Suite name -> check(case, label, seed, corrupt).  Each entry looks its
# check function up when called, so a wrapper installed on the module
# attribute is the one that runs.
_SUITES = {
    "fixed-subgroup-equality": lambda case, label, seed, corrupt: (
        check_fixed_subgroup_equality(case.subgroup, label)),
    "generator-parity": lambda case, label, seed, corrupt: (
        check_generator_parity(case.subgroup, label)),
    "length-additivity": lambda case, label, seed, corrupt: (
        check_prop_additivity(case.subgroup, label)),
    "coset-partition": lambda case, label, seed, corrupt: (
        check_coset_partition(case.subgroup, label)),
    "bruhat-minimal-equality": lambda case, label, seed, corrupt: (
        check_bruhat_minimal_equality(case.subgroup, label)),
    "minimal-chains": lambda case, label, seed, corrupt: (
        check_minimal_chains(case.subgroup, label)),
    "step-dichotomy": lambda case, label, seed, corrupt: (
        check_step_dichotomy(case.subgroup, label)),
    "dominated-minimal-search": lambda case, label, seed, corrupt: (
        check_dominated_search(case.subgroup, label)),
    "ascent-implies-bruhat": lambda case, label, seed, corrupt: (
        check_lemma_long_gen(case.system, case.subgroup, label)),
    "equal-length-transfer": lambda case, label, seed, corrupt: (
        check_lemma_corr(case.system, case.subgroup, label)),
    "commuting-reflection-inversions": lambda case, label, seed, corrupt: (
        check_lemma_commuting_reflections(case.system, label)),
    "bruhat-oracle-agreement": lambda case, label, seed, corrupt: (
        check_oracle_agreement(case.system, label, seed=seed, corrupt=corrupt)),
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

    Suite errors become failure records; config problems raise DescriptionError.
    """
    if config is None:
        config = default_config()
    if not isinstance(config, dict) or not isinstance(config.get("cases"), list):
        raise DescriptionError("verify config must be an object with a list of 'cases'")
    seed = config.get("seed", DEFAULT_SEED)
    corrupt = config.get("corrupt")
    reports = []
    for case_doc in config["cases"]:
        if not isinstance(case_doc, dict):
            raise DescriptionError("each verify case must be a JSON object")
        case_doc = dict(case_doc)
        suites = case_doc.pop("suites", None) or SUITE_NAMES
        if not isinstance(suites, (list, tuple)):
            raise DescriptionError("'suites' must be a list of suite names")
        for suite_name in suites:
            if not isinstance(suite_name, str) or suite_name not in _SUITES:
                raise DescriptionError(f"unknown suite {suite_name!r}")
        label = case_doc.get("name") or "case"
        case = GroupDescription.from_dict(case_doc).build()
        for suite_name in suites:
            try:
                reports.append(_SUITES[suite_name](case, label, seed, corrupt))
            except CoxeterError as e:
                reports.append(
                    VerificationReport(suite_name, label, 0, ((f"error: {e}",),))
                )
    return VerificationRun(reports=tuple(reports), seed=seed)
