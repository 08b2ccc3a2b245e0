"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/collect.py OUT_DIR --seeds 1-10 [--workload NAME ...] [--trace 1]

Runs one process at a time, writes ``OUT_DIR/<workload>-seed<n>.out`` per
run, then prints each end-to-end metric's median and spread (interquartile
range over median) next to its bound from BENCHMARK.json.  Two result sets
written this way are the input of ``perfbench/compare.py``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import ROOT, load_results, quartiles, spread


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="directory for the run outputs")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default all)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    status = 0
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            (out / f"{name}-seed{seed}.out").write_text(proc.stdout)
            if proc.returncode:
                status = 1
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
    if args.trace:
        return status

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = load_results(out)
    for name in names:
        runs = list(results.get(name, {}).values())
        print(f"{name}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "" if s < bound / 3 else "  <-- spread above a third of the bound"
            print(f"  {metric:<18} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {s:.4f} bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
