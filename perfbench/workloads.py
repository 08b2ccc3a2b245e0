"""The benchmark's workloads, the cases they run and the answers they check.

Every workload is one process and one thread in a closed loop: the next
call into the package is issued only after the previous one returns.  The
cases are fixed group descriptions; the seed draws the query stream, or
becomes the verify sampling seed, and the package receives only the
generated elements.  Correctness checks run outside the timed calls.
Each operation's time is also taken as a cost in reference loops
(``pace.py``); those costs are the end-to-end metrics that are gated.
"""
from __future__ import annotations

import bisect
import contextlib
import io
import json
import random
import resource
import statistics
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from coxtwist import cli, core, cosets, rings, verify
from coxtwist.descriptions import GroupDescription
from coxtwist.errors import CoxeterError, OutOfEnumeratedRegion

import checks
from pace import Pace
from tracing import LAYERS, VERIFY_CHECKS, NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
# Each phase sets up at least SETUPS times and for at least SETUP_SECONDS;
# setup_s is the median.  A cheap set-up is repeated more, so that its
# median covers more than a moment of the machine's varying speed.
SETUPS = 3
SETUP_SECONDS = 5.0
BRUHAT_PER_QUERY = 4
COSET_TABLES = 5  # cosets_s is the median over this many full tables
RING_BATCHES = 50
MAX_WRONG = 100

# Query ids of spans: set-up is -1, the stream numbers its queries or
# verify rounds from 0, and the standalone layer probes are -2.
SETUP_QUERY = -1
PROBE_QUERY = -2


@dataclass(frozen=True)
class Case:
    """A group description and the facts about it that the run checks."""

    doc: dict
    size: int
    complete: bool
    subgroup_order: int
    cosets: int = 0  # coset count, for complete groups
    checks: int = 0  # checks over all 12 verify suites; seed-independent


# E6 in Bourbaki labels: the chain 1-3-4-5-6 with 2 attached to 4.
E6_MATRIX = [
    [1, 2, 3, 2, 2, 2],
    [2, 1, 2, 3, 2, 2],
    [3, 2, 1, 3, 2, 2],
    [2, 3, 3, 1, 3, 2],
    [2, 2, 2, 3, 1, 3],
    [2, 2, 2, 2, 3, 1],
]


# The compact hyperbolic linear diagram 5-3-4.
HYPERBOLIC_MATRIX = [
    [1, 5, 2, 2],
    [5, 1, 3, 2],
    [2, 3, 1, 4],
    [2, 2, 4, 1],
]


def _hyperbolic(cap):
    """The ball truncated at ``cap``; theta swaps 3 and 4 on L = {3, 4}."""
    doc = {"name": f"[5,3,4] cap {cap}", "matrix": HYPERBOLIC_MATRIX,
           "L": [3, 4], "theta": [[3, 4]], "cap": cap}
    return Case(doc, size=cap, complete=False, subgroup_order=2)


E6_SWAP = Case({"name": "E6 swap", "matrix": E6_MATRIX, "theta": [[1, 6], [3, 5]]},
               size=51840, complete=True, subgroup_order=1152, cosets=45)
F4_SWAP = Case({"name": "F4 swap", "type": "F4", "theta": [[1, 4], [2, 3]]},
               size=1152, complete=True, subgroup_order=16, cosets=72, checks=307008)
A5_SWAP = Case({"name": "A5 swap", "type": "A5", "theta": [[1, 5], [2, 4]]},
               size=720, complete=True, subgroup_order=0, checks=102240)
D4_SWAP = Case({"name": "D4 swap", "type": "D4", "theta": [[3, 4]]},
               size=192, complete=True, subgroup_order=0, checks=6969)
A3_SWAP = Case({"name": "A3 swap", "type": "A3", "theta": [[1, 3]]},
               size=24, complete=True, subgroup_order=0, checks=829)


@dataclass(frozen=True)
class Workload:
    kind: str  # "queries" or "verify"
    cases: tuple[Case, ...]
    tiny: tuple[Case, ...]  # the smoke run's stand-in
    cosets_table: bool = False


WORKLOADS = {
    "queries-e6": Workload("queries", (E6_SWAP,), (F4_SWAP,), cosets_table=True),
    "verify-mid": Workload("verify", (A5_SWAP, F4_SWAP), (A3_SWAP, D4_SWAP)),
    "truncated-hyperbolic": Workload(
        "queries", (_hyperbolic(50000),), (_hyperbolic(2000),)),
}

# name -> (unit, better); BENCHMARK.json lists the same names and units.
# The two costs are in reference loops (see pace.py); the raw times are
# report rows.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "latency_p50_ref": ("ref", "lower"),
    "throughput_per_kref": ("1/kref", "higher"),
}
PER_LAYER = {
    "rings.dim": ("count", "lower"),
    "rings.mul_us": ("us", "lower"),
    "core.build_s": ("s", "lower"),
    "core.elements": ("count", "higher"),
    "core.table_edges": ("count", "higher"),
    "core.elements_per_s": ("1/s", "higher"),
    "core.bruhat_leq_us": ("us", "lower"),
    "core.bruhat_leq_calls": ("count", "lower"),
    "core.refused": ("count", "lower"),
    "core.answered_share": ("share", "higher"),
    "core.reflections_s": ("s", "lower"),
    "twisted.fixed_subgroup_s": ("s", "lower"),
    "twisted.reduced_word_us": ("us", "lower"),
    "cosets.all_cosets_s": ("s", "lower"),
    "cosets.count": ("count", "higher"),
    "cosets.coset_ms": ("ms", "lower"),
    "descriptions.build_s": ("s", "lower"),
    "verify.oracle_masks_s": ("s", "lower"),
    **{f"verify.{name}_s": ("s", "lower") for name in VERIFY_CHECKS},
    **{f"verify.{name}.checked": ("count", "higher") for name in VERIFY_CHECKS},
    "cli.cosets_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"trace.overhead.{name}": spec for name, spec in END_TO_END.items()},
}
REFUSED = object()


@dataclass
class Phase:
    """What one measured phase did: raw samples, counts and wrong answers."""

    setup_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0  # refused or wrong calls, failed verify checks
    pace: Pace = field(default_factory=Pace)  # every operation's cost
    wrong: list = field(default_factory=list)  # the first MAX_WRONG messages
    refused: Counter = field(default_factory=Counter)
    cases: list = field(default_factory=list)  # the last set-up's realized cases
    # query workloads
    cosets_s: list = field(default_factory=list)
    coset_count: int = 0
    # every call and query attempted; a refused one is timed until it raised
    dominate_s: array = field(default_factory=lambda: array("d"))
    bruhat_s: array = field(default_factory=lambda: array("d"))
    query_s: array = field(default_factory=lambda: array("d"))
    # verify workload: one round runs verify.run_suite once per case
    rounds: int = 0
    pass_s: dict = field(default_factory=dict)  # case name -> seconds per pass
    pass_case: list = field(default_factory=list)  # case name of each pass, in order
    suite_checked: Counter = field(default_factory=Counter)

    def fail(self, message: str, count: int = 1) -> None:
        if len(self.wrong) < MAX_WRONG:
            self.wrong.append(message)
        self.failed += count

    def refuse(self, call: str, message: str) -> None:
        """A refusal is a failure: the stream draws only answerable elements."""
        self.refused[call] += 1
        self.fail(f"{message} refused inside the answerable region")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _set_up(cases, tracer, phase: Phase):
    """Build every case, from description dict to realized case, repeatedly."""
    tracer.query_id = SETUP_QUERY
    while len(phase.setup_s) < SETUPS or sum(phase.setup_s) < SETUP_SECONDS:
        realized = None  # drop the previous build before timing the next
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            realized = [GroupDescription.from_dict(c.doc).build() for c in cases]
        phase.setup_s.append(time.perf_counter() - t0)
    for spec, case in zip(cases, realized):
        name = spec.doc["name"]
        if case.system.size != spec.size or case.system.complete != spec.complete:
            phase.fail(
                f"{name}: {case.system.size} elements, complete={case.system.complete}; "
                f"expected {spec.size}, complete={spec.complete}")
        if spec.subgroup_order and case.subgroup.order != spec.subgroup_order:
            phase.fail(
                f"{name}: |H| = {case.subgroup.order}, expected {spec.subgroup_order}")
    phase.cases = realized
    return realized


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except OutOfEnumeratedRegion:
        out = REFUSED
    except CoxeterError as e:
        out = e
    return time.perf_counter() - t0, out


def answerable(system, sub) -> int:
    """How many elements, from index 0, the query stream draws from.

    All of a complete group.  Of a truncated ball, those no longer than its
    last complete length shell less the longest subgroup element: ShortLex
    numbers elements by length, and such an element keeps its coset, its
    inverse and its left neighbours inside the ball, so every call on it is
    answered.
    """
    if system.complete:
        return system.size
    last_complete = system.element(system.size - 1).length - 1
    radius = last_complete - max(z.length for z in sub.elements)
    return bisect.bisect_right(range(system.size), radius,
                               key=lambda i: system.element(i).length)


def _draw_pair(rng, system, n):
    """u, w uniform with len(u) < len(w); other pairs need no descent walk."""
    while True:
        u = system.element(rng.randrange(n))
        w = system.element(rng.randrange(n))
        if u.length != w.length:
            return (u, w) if u.length < w.length else (w, u)


def query_phase(workload: Workload, cases, seed, seconds, tracer) -> Phase:
    phase = Phase()
    spec = cases[0]
    (case,) = _set_up(cases, tracer, phase)
    system, sub = case.system, case.subgroup
    for _ in range(COSET_TABLES if workload.cosets_table else 0):
        table = None
        t0 = time.perf_counter()
        with tracer.span("bench.cosets_table"):
            table = cosets.all_cosets(sub)
        phase.cosets_s.append(time.perf_counter() - t0)
        phase.coset_count = len(table)
        if len(table) != spec.cosets or any(len(a.members) != sub.order for a in table):
            phase.fail(
                f"{spec.doc['name']}: {len(table)} cosets of sizes "
                f"{sorted({len(a.members) for a in table})}, expected {spec.cosets} of {sub.order}")
        del table

    gens = system.gens()
    minima = checks.CosetMinima(sub)
    rng = random.Random(seed)
    n = answerable(system, sub)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        x = system.element(rng.randrange(n))
        pairs = [_draw_pair(rng, system, n) for _ in range(BRUHAT_PER_QUERY)]
        tracer.query_id = len(phase.query_s)
        with tracer.span("bench.query"):
            dom_t, res = _timed(cosets.dominate, sub, x)
            answers = [_timed(core.bruhat_leq, u, w) for u, w in pairs]
        phase.attempted += 1 + len(pairs)
        phase.dominate_s.append(dom_t)
        phase.bruhat_s.extend(t for t, _ in answers)
        phase.query_s.append(dom_t + sum(t for t, _ in answers))
        phase.pace.record(phase.query_s[-1])
        if res is REFUSED:
            phase.refuse("cosets.dominate", f"dominate({x.word_string()})")
        elif isinstance(res, CoxeterError):
            phase.fail(f"dominate({x.word_string()}) raised {res!r}")
        else:
            err = checks.witness_error(x, res.witness, minima, gens)
            if err:
                phase.fail(f"dominate({x.word_string()}): {err}")
        for (u, w), (_, ans) in zip(pairs, answers):
            if ans is REFUSED:
                phase.refuse("core.bruhat_leq",
                             f"bruhat_leq({u.word_string()}, {w.word_string()})")
            elif isinstance(ans, CoxeterError):
                phase.fail(f"bruhat_leq({u.word_string()}, {w.word_string()}) raised {ans!r}")
            elif ans != checks.bruhat_below(u, w, gens):
                phase.fail(f"bruhat_leq({u.word_string()}, {w.word_string()}) = {ans!r}")
    phase.pace.flush()
    phase.peak_rss_mb = _peak_rss_mb()
    return phase


def verify_phase(workload: Workload, cases, seed, seconds, tracer) -> Phase:
    """Rounds of ``verify.run_suite``, one pass per case in each round, traced
    or not; a new round starts while it is expected to end within half a
    round of the deadline."""
    phase = Phase()
    _set_up(cases, tracer, phase)
    if tuple(VERIFY_CHECKS) != verify.SUITE_NAMES:
        raise SystemExit(f"verify suites changed: {verify.SUITE_NAMES}")
    deadline = time.perf_counter() + seconds
    round_s = []
    while not round_s or time.perf_counter() + statistics.median(round_s) / 2 < deadline:
        tracer.query_id = phase.rounds
        r0 = time.perf_counter()
        for spec in cases:
            name = spec.doc["name"]
            t0 = time.perf_counter()
            with tracer.span("bench.verify_pass"):
                reports = verify.run_suite({"seed": seed, "cases": [spec.doc]}).reports
            phase.pass_s.setdefault(name, []).append(time.perf_counter() - t0)
            phase.pass_case.append(name)
            phase.pace.record(phase.pass_s[name][-1])
            checked = sum(r.checked for r in reports)
            failures = [f for r in reports for f in r.failures]
            phase.attempted += checked
            phase.suite_checked.update({r.suite: r.checked for r in reports})
            if len(reports) != len(VERIFY_CHECKS) or checked != spec.checks or failures:
                phase.fail(
                    f"{name}: {len(reports)} suites, {checked} checks "
                    f"(expected {spec.checks}), {len(failures)} failed: {failures[:3]}",
                    count=max(len(failures), 1))
        round_s.append(time.perf_counter() - r0)
        phase.rounds += 1
    phase.pace.flush()
    phase.peak_rss_mb = _peak_rss_mb()
    return phase


# -- metrics ----------------------------------------------------------------


def report_rows(workload: Workload, phase: Phase):
    """(name, value, unit, samples) for every end-to-end metric of the
    report that applies to this workload.  An operation is a query (a
    dominate and its bruhat_leq calls) or a verify pass over one case."""
    costs, references = phase.pace.costs, phase.pace.references
    rows = [
        ("setup_s", statistics.median(phase.setup_s), "s", len(phase.setup_s)),
        ("peak_rss_mb", phase.peak_rss_mb, "MB", 1),
        ("failed_share", phase.failed / phase.attempted, "share", phase.attempted),
        ("reference_ms", statistics.median(references) * 1e3, "ms", len(references)),
    ]
    if workload.kind == "verify":
        by_case = {}
        for name, cost in zip(phase.pass_case, costs):
            by_case.setdefault(name, []).append(cost)
        verify_s = sum(statistics.median(times) for times in phase.pass_s.values())
        busy_s = sum(sum(times) for times in phase.pass_s.values())
        return rows + [
            ("verify_s", verify_s, "s", phase.rounds),
            ("verify_checks_per_s", phase.attempted / busy_s, "1/s", phase.attempted),
            ("latency_p50_ref", sum(statistics.median(c) for c in by_case.values()),
             "ref", phase.rounds),
            ("throughput_per_kref", 1e3 * phase.attempted / sum(costs), "1/kref",
             phase.attempted),
        ]
    if phase.cosets_s:
        rows.append(("cosets_s", statistics.median(phase.cosets_s), "s", len(phase.cosets_s)))
    for name, samples, scale, unit in (("dominate_ms", phase.dominate_s, 1e3, "ms"),
                                       ("bruhat_us", phase.bruhat_s, 1e6, "us")):
        for q in (50, 99):
            rows.append((f"{name}_p{q}", percentile(samples, q) * scale, unit, len(samples)))
    n = len(phase.query_s)
    return rows + [
        ("query_ms_p50", statistics.median(phase.query_s) * 1e3, "ms", n),
        ("queries_per_s", n / sum(phase.query_s), "1/s", n),
        ("latency_p50_ref", statistics.median(costs), "ref", n),
        ("throughput_per_kref", 1e3 * n / sum(costs), "1/kref", n),
    ]


def end_to_end(rows) -> dict[str, float]:
    """The BENCHMARK.json end-to-end metrics, from the report rows: a
    verify workload's latency is one pass over every case, the sum of the
    cases' median costs, and its throughput counts checks."""
    return {name: value for name, value, _, _ in rows if name in END_TO_END}


def _ring_mul_us(cases, seed, tracer) -> tuple[int, float]:
    """Standalone CosineRing.mul on the ring of the workload's bonds."""
    orders = {m for c in cases for row in c.system.matrix for m in row
              if m != core.INF and m != 1}
    ring = rings.CosineRing(orders)
    rng = random.Random(seed)
    elems = [tuple(rng.randint(-9, 9) for _ in range(ring.dim)) for _ in range(64)]
    right = elems[:8]
    per_call = []
    with tracer.span("rings.mul"):
        for _ in range(RING_BATCHES):
            t0 = time.perf_counter()
            for a in elems:
                for b in right:
                    ring.mul(a, b)
            per_call.append((time.perf_counter() - t0) / (len(elems) * len(right)))
    return ring.dim, statistics.median(per_call) * 1e6


def _cli_cosets(spec: Case, tracer, phase: Phase) -> float:
    """``coxtwist cosets`` in process, stdout captured; returns seconds."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(spec.doc))
        out = io.StringIO()
        t0 = time.perf_counter()
        with tracer.span("cli.cosets"), contextlib.redirect_stdout(out):
            code = cli.main(["cosets", str(path)])
        elapsed = time.perf_counter() - t0
    head = out.getvalue().split("\n", 1)[0]
    expected = (f"group order: {spec.size}  subgroup order: {spec.subgroup_order}  "
                f"cosets: {spec.cosets}")
    if code != 0 or head != expected:
        phase.fail(f"cli cosets exited {code} with {head!r}, expected {expected!r}")
    return elapsed


def _table_edges(system) -> int:
    """Undirected edges of the enumerated Cayley graph, by public products."""
    gens = system.gens()
    ends = 0
    for w in system:
        for g in gens:
            try:
                core.multiply(w, g)
            except OutOfEnumeratedRegion:
                continue
            ends += 1
    return ends // 2


def per_layer(workload: Workload, cases, seed, phase: Phase, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced phase.  Set-up metrics are per set-up,
    verify metrics per round; a layer the workload never calls reads 0.
    A suite's time includes the oracle masks when it is the first suite of
    a pass to need them."""
    tracer.query_id = PROBE_QUERY
    realized = phase.cases
    dim, mul_us = _ring_mul_us(realized, seed, tracer)
    cli_s = _cli_cosets(cases[0], tracer, phase) if workload.cosets_table else 0.0

    setup = tracer.durations(lambda q: q == SETUP_QUERY)
    stream = tracer.durations(lambda q: q >= 0)
    every = tracer.durations()
    rounds = phase.rounds or 1

    def per_setup(name):
        return sum(setup.get(name, ())) / len(phase.setup_s)

    def median_of(spans, name, scale):
        values = spans.get(name)
        return statistics.median(values) * scale if values else 0.0

    elements = sum(c.system.size for c in realized)
    build_s = per_setup("core.build_system")
    m = {
        "rings.dim": dim,
        "rings.mul_us": mul_us,
        "core.build_s": build_s,
        "core.elements": elements,
        "core.table_edges": sum(_table_edges(c.system) for c in realized),
        "core.elements_per_s": elements / build_s,
        "core.bruhat_leq_us": median_of(stream, "core.bruhat_leq", 1e6),
        "core.bruhat_leq_calls": len(stream.get("core.bruhat_leq", ())),
        "core.refused": sum(phase.refused.values()),
        "core.answered_share": 1 - phase.failed / phase.attempted,
        "core.reflections_s": sum(stream.get("core.reflections", ())) / rounds,
        "twisted.fixed_subgroup_s": per_setup("twisted.enumerate_fixed_subgroup"),
        "twisted.reduced_word_us": median_of(every, "twisted.twisted_reduced_word", 1e6),
        "cosets.all_cosets_s": median_of(every, "cosets.all_cosets", 1),
        "cosets.count": phase.coset_count or phase.suite_checked["coset-partition"] // rounds,
        "cosets.coset_ms": median_of(every, "cosets.coset", 1e3),
        "descriptions.build_s": per_setup("descriptions.build"),
        "verify.oracle_masks_s": sum(stream.get("verify.oracle_masks", ())) / rounds,
        "cli.cosets_s": cli_s,
    }
    for name in VERIFY_CHECKS:
        m[f"verify.{name}_s"] = sum(stream.get(f"verify.{name}", ())) / rounds
        m[f"verify.{name}.checked"] = phase.suite_checked[name] // rounds
    for layer, seconds in tracer.self_seconds().items():
        m[f"{layer}.self_s"] = seconds
    return m


# -- entry ------------------------------------------------------------------


@dataclass
class Result:
    rows: list  # report_rows of the untraced phase
    metrics: dict  # name -> (value, unit) for the final JSON line
    attempted: int
    failed: int
    wrong: list
    refused: Counter
    tracer: Tracer | None = None  # set by a traced run


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Result:
    """Run one workload; a traced run measures half the time untraced and
    half traced, and reports the difference as the tracing overhead."""
    workload = WORKLOADS[name]
    cases = workload.tiny if tiny else workload.cases
    phase_fn = verify_phase if workload.kind == "verify" else query_phase
    plain = phase_fn(workload, cases, seed, seconds / 2 if trace else seconds, NullTracer())
    rows = report_rows(workload, plain)
    e2e = end_to_end(rows)
    result = Result(rows, {k: (v, END_TO_END[k][0]) for k, v in e2e.items()},
                    plain.attempted, plain.failed, list(plain.wrong), Counter(plain.refused))
    if not trace:
        return result
    del plain
    tracer = Tracer()
    with tracer.instrument():
        traced = phase_fn(workload, cases, seed, seconds / 2, tracer)
        layers = per_layer(workload, cases, seed, traced, tracer)
    for k, v in end_to_end(report_rows(workload, traced)).items():
        layers[f"trace.overhead.{k}"] = v - e2e[k]
    result.metrics = {k: (layers[k], PER_LAYER[k][0]) for k in PER_LAYER}
    result.attempted += traced.attempted
    result.failed += traced.failed
    result.wrong += traced.wrong
    result.refused += traced.refused
    result.tracer = tracer
    return result
