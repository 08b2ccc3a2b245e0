"""Smoke run of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload on its small stand-in (F4 swap for E6, A3 swap and D4 swap
for verify-mid, the hyperbolic ball at cap 2000) for one second, untraced and
traced, and asserts that every correctness check passes and that every
metric of BENCHMARK.json, and every metric the report names, is emitted
with its unit.  It also checks the benchmark's Bruhat oracle against the
package's definitional one on F4.  Exits 0 when all holds.
"""
from __future__ import annotations

import json
import math
import random
import sys

from run import ROOT, import_package

SHARED_NAMES = ["setup_s", "peak_rss_mb", "failed_share", "reference_ms",
                "latency_p50_ref", "throughput_per_kref"]
REPORT_NAMES = {
    "queries": SHARED_NAMES + ["dominate_ms_p50", "dominate_ms_p99", "bruhat_us_p50",
                               "bruhat_us_p99", "query_ms_p50", "queries_per_s"],
    "verify": SHARED_NAMES + ["verify_s", "verify_checks_per_s"],
}


def check_oracle(pairs: int = 3000) -> None:
    from coxtwist import verify
    from coxtwist.descriptions import GroupDescription

    import checks
    import workloads

    system = GroupDescription.from_dict(workloads.F4_SWAP.doc).build().system
    gens = system.gens()
    rng = random.Random(0)
    for _ in range(pairs):
        u = system.element(rng.randrange(system.size))
        w = system.element(rng.randrange(system.size))
        assert checks.bruhat_below(u, w, gens) == verify.oracle_bruhat(system, u, w), (u, w)


def main() -> int:
    import_package()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check_oracle()
    workloads.SETUP_SECONDS = 0.0
    for name, workload in workloads.WORKLOADS.items():
        for trace in (0, 1):
            result = workloads.run(name, seed=1, seconds=1.0, trace=bool(trace), tiny=True)
            emitted = {k: u for k, (_, u) in result.metrics.items()}
            assert emitted == expected[trace], (name, trace, emitted)
            assert all(math.isfinite(v) for v, _ in result.metrics.values()), result.metrics
            assert not result.wrong, (name, result.wrong[:3])
            assert result.attempted >= 1
            if trace and workload.kind == "verify":
                # every suite ran under its own span, through run_suite
                idle = [k for k, (v, _) in result.metrics.items()
                        if k.startswith("verify.") and not v]
                assert not idle, (name, idle)
            rows = [row[0] for row in result.rows]
            wanted = REPORT_NAMES[workload.kind] + (["cosets_s"] if workload.cosets_table else [])
            assert sorted(rows) == sorted(wanted), (name, rows)
            print(f"ok {name} trace={trace}: {result.attempted} attempted, {result.failed} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
