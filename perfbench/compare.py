"""Compare two result sets of the benchmark: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of captured run outputs, one file per run, as
``perfbench/collect.py`` writes them (``<workload>-seed<n>.out``).  For each
workload and metric this prints both sides' median and quartiles, the
share of same-seed pairs the change won, and a verdict:

  improved       the change won at least 9 in 10 pairs and the medians
                 differ by more than the parent's interquartile range
  regressed      the change's median is worse by more than the bound
  unresolved     the spread exceeds the bound and the sides overlap
  no worse       within the bound

A gain does not count when the change's share of failed calls is above
the parent's.  Per-layer metrics (traced runs) and the report rows that
are not in BENCHMARK.json have no bound and get no verdict ("-").  Exit
status: 1 when any metric regressed or any change run gave a wrong
answer, else 0.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = "report: "


def load_benchmark() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_results(directory) -> dict[str, dict[int, dict]]:
    """workload -> seed -> final JSON line of that run, with the rows of its
    ``report:`` line under ``"report"``."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().splitlines()
        header = dict(zip(lines[0].split()[0::2], lines[0].split()[1::2]))
        run = json.loads(lines[-1])
        run["report"] = next((json.loads(line[len(REPORT):]) for line in lines
                              if line.startswith(REPORT)), {})
        out[header["workload:"]][int(header["seed:"])] = run
    return out


def thin_tail(name: str, samples: int) -> bool:
    """Whether a p99 has fewer than 10 samples beyond it."""
    return name.endswith("_p99") and samples < 1000


def failed_share(runs) -> tuple[int, int]:
    return (sum(r["failed"] for r in runs.values()),
            sum(r["attempted"] for r in runs.values()))


def more_failed_than(pf: int, pa: int, cf: int, ca: int) -> bool:
    """Whether the change's failed share is above the parent's by more than
    three standard errors.  Time-bound runs attempt different numbers of
    calls, so the shares of the same code differ a little; with no failures
    at the parent, any failure in the change counts."""
    if not pa or not ca:
        return False
    p, c = pf / pa, cf / ca
    return c - p > 3 * math.sqrt(p * (1 - p) * (1 / pa + 1 / ca))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent, change, better, bound, won) -> str:
    if bound is None:
        return "-"
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if won >= 0.9 and sign * (pm - cm) > p3 - p1:
        return "improved"
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    widest = max(spread(parent), spread(change))
    if sign > 0:
        all_better, all_worse = max(change) < min(parent), min(change) > max(parent)
    else:
        all_better, all_worse = min(change) > max(parent), max(change) < min(parent)
    if worse_by > bound:
        return "regressed" if widest <= bound or all_worse else "unresolved"
    if widest > bound and not all_better:
        return "unresolved"
    return "no worse"


def values(runs, name) -> dict[int, tuple[float, int | None]]:
    """seed -> (value, sample count) of a metric, from the final JSON line
    or else from the report rows."""
    out = {}
    for seed, run in runs.items():
        if name in run["metrics"]:
            out[seed] = run["metrics"][name]["value"], None
        elif name in run["report"]:
            out[seed] = run["report"][name]["value"], run["report"][name]["samples"]
    return out


def compare(parent_dir, change_dir) -> int:
    metrics = load_benchmark()
    parent, change = load_results(parent_dir), load_results(change_dir)
    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        print(f"{workload}: parent {len(p_runs)} runs, change {len(c_runs)} runs")
        (pf, pa), (cf, ca) = failed_share(p_runs), failed_share(c_runs)
        more_failed = more_failed_than(pf, pa, cf, ca)
        print(f"  failed/attempted: parent {pf}/{pa}  change {cf}/{ca}"
              + ("  <-- more failed in the change: no gain counts" if more_failed else ""))
        wrong = sorted(seed for seed, r in c_runs.items() if not r["correct"])
        if wrong:
            print(f"  FAILED: change runs with wrong answers, seeds {wrong}")
            status = 1
        print(f"  {'metric':<40} {'parent q1/median/q3':>36} {'change q1/median/q3':>36} "
              f"{'won':>5}  verdict")
        # Report rows outside BENCHMARK.json have no bound; a rate is
        # better higher, every other row (times, memory, failures) lower.
        names = dict.fromkeys(metrics)
        for r in list(p_runs.values()) + list(c_runs.values()):
            names.update(dict.fromkeys(r["metrics"]))
            names.update(dict.fromkeys(r["report"]))
        for name in names:
            p, c = values(p_runs, name), values(c_runs, name)
            if not p and not c:
                continue
            if not p or not c:
                print(f"  {name:<40} missing on one side")
                continue
            if name in metrics:
                better, bound = metrics[name]
            else:
                unit = next(r["report"][name]["unit"] for r in c_runs.values() if name in r["report"])
                better, bound = ("higher" if unit.startswith("1/") else "lower"), None
            sign = 1 if better == "lower" else -1
            pairs = [(p[s][0], c[s][0]) for s in sorted(set(p) & set(c))]
            won = sum(sign * (a - b) > 0 for a, b in pairs) / len(pairs) if pairs else 0.0
            pv, cv = [v for v, _ in p.values()], [v for v, _ in c.values()]
            v = verdict(pv, cv, better, bound, won)
            if v == "improved" and more_failed:
                v = "no worse (gain withheld: more failed)"
            status |= v == "regressed"
            if any(n is not None and thin_tail(name, n) for _, n in [*p.values(), *c.values()]):
                v += "  (under 10 samples beyond the p99)"
            fp = "/".join(f"{x:.4g}" for x in quartiles(pv))
            fc = "/".join(f"{x:.4g}" for x in quartiles(cv))
            print(f"  {name:<40} {fp:>36} {fc:>36} {won:>5.2f}  {v}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="directory of the parent's run outputs")
    p.add_argument("change", help="directory of the change's run outputs")
    args = p.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
