"""coxtwist benchmark: one run of one workload.

    python3 perfbench/run.py --workload queries-e6 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src`` of
that checkout.  The report goes to stdout, and its last line is one JSON
object: ``correct``, ``attempted``, ``failed`` (refused or wrong calls, or
failed verify checks) and ``metrics``, the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` or its per-layer metrics with
``--trace 1``.  The line before it, ``report: {...}``, holds every row of
the untraced report with its sample count, for ``perfbench/compare.py``.
A traced run also writes its spans to
``perfbench/traces/<workload>-seed<seed>.csv.gz``.  Exit status: 0 when
every answer checked out, 1 on a wrong answer, 2 when the package is not
there.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Put the checkout's ``src`` first on the path; exit 2 if it is missing."""
    if not (SRC / "coxtwist" / "__init__.py").is_file():
        print(f"error: no coxtwist package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"({platform.python_implementation()}) platform={platform.platform()}")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    import_package()
    import workloads
    from compare import REPORT, thin_tail

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    print(f"machine: {machine()}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == args.workload))
    print("end-to-end (untraced):")
    for name, value, unit, samples in result.rows:
        flag = "  (under 10 samples beyond the p99)" if thin_tail(name, samples) else ""
        print(f"  {name:<22} {_fmt(value):>24} {unit:<6} samples={samples}{flag}")
    if result.refused:
        print("refused: " + "  ".join(f"{k}={v}" for k, v in sorted(result.refused.items())))
    if result.tracer:
        print("per-layer (traced):")
        for name, (value, unit) in result.metrics.items():
            print(f"  {name:<44} {_fmt(value):>24} {unit}")
        traces = Path(__file__).resolve().parent / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.csv.gz"
        result.tracer.write(path)
        print(f"spans: {len(result.tracer.start)} written to {path.relative_to(ROOT)}")
    for line in result.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)

    print(REPORT + json.dumps({name: {"value": value, "unit": unit, "samples": samples}
                                   for name, value, unit, samples in result.rows}))
    correct = not result.wrong and all(math.isfinite(v) for v, _ in result.metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
