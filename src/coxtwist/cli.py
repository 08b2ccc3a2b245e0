"""Command line interface.

Commands read a JSON group description (see descriptions.py for the
schema) and print deterministic text.  Exit codes: 0 success, 1
verification failures, 2 parse or validation errors, 3 cap or enumeration
region errors, 4 malformed element words.
"""
from __future__ import annotations

import argparse
import json
import sys as _sys

from . import core, cosets, verify
from .cosets import generator_nickname
from .descriptions import GroupDescription, RealizedCase
from .errors import (
    AutomorphismError,
    BadElementWord,
    CapExceeded,
    DescriptionError,
    InfiniteParabolic,
    MalformedMatrix,
    OutOfEnumeratedRegion,
)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise DescriptionError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DescriptionError(f"{path} is not valid JSON: {e}") from e


def _load_case(path: str) -> RealizedCase:
    return GroupDescription.from_dict(_read_json(path)).build()


def _parse_element(case: RealizedCase, text: str) -> core.Element:
    text = text.strip()
    if text in ("", "e"):
        return case.system.identity
    letters = []
    for tok in text.split():
        try:
            v = int(tok)
        except ValueError:
            raise BadElementWord(f"element word token {tok!r} is not an integer") from None
        if not 1 <= v <= case.system.rank:
            raise BadElementWord(
                f"element word letter {v} is outside 1..{case.system.rank}"
            )
        letters.append(v - 1)
    return core.element_from_word(case.system, letters)


def cmd_cosets(args) -> int:
    case = _load_case(args.file)
    analyses = cosets.all_cosets(case.subgroup)
    out = [
        f"group order: {case.system.size}  subgroup order: {case.subgroup.order}  "
        f"cosets: {len(analyses)}"
    ]
    rows = [("rep", "size", "min", "min_length")]
    for a in analyses:
        rows.append(
            (a.rep.word_string(), str(len(a.members)), str(len(a.min_set)), str(a.min_length))
        )
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    dist: dict[int, int] = {}
    for a in analyses:
        dist[len(a.min_set)] = dist.get(len(a.min_set), 0) + 1
    out.append(
        "min-size distribution: "
        + "  ".join(f"{k}:{v}" for k, v in sorted(dist.items()))
    )
    print("\n".join(out))
    return 0


def cmd_min_graph(args) -> int:
    case = _load_case(args.file)
    elt = _parse_element(case, args.element)
    analysis = cosets.coset(case.subgroup, elt)
    dot = cosets.min_graph_dot(analysis)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot)
    else:
        print(dot, end="")
    return 0


def cmd_dominate(args) -> int:
    case = _load_case(args.file)
    elt = _parse_element(case, args.element)
    res = cosets.dominate(case.subgroup, elt)
    nick = {g.elt.index: generator_nickname(i) for i, g in enumerate(case.subgroup.gens)}
    print(f"element: {res.target.word_string()}  length: {res.target.length}")
    if not res.steps:
        print("already minimal")
        print(f"dominated minimal: {res.witness.word_string()}")
        return 0
    print(f"base minimal element: {res.base.word_string()}")
    for i, step in enumerate(res.steps, start=1):
        action = "witness -> witness * generator" if step.replaced else "witness kept"
        print(
            f"step {i}: {nick[step.generator.elt.index]} "
            f"({step.verdict.value})  prefix {step.prefix.word_string()}  {action}"
        )
    print(
        f"dominated minimal: {res.witness.word_string()}  "
        f"length: {res.witness.length}"
    )
    return 0


def cmd_verify(args) -> int:
    config = _read_json(args.file) if args.file else verify.default_config()
    if isinstance(config, dict):  # run_suite rejects any other document
        if "cases" not in config:
            config = {"cases": [config]}
        if args.seed is not None:
            config["seed"] = args.seed
    run = verify.run_suite(config)
    if args.json:
        print(json.dumps(run.to_records(), indent=2))
    else:
        print(run.to_text(), end="")
    return 0 if run.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coxtwist", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cosets", help="coset table with minimal-set statistics")
    c.add_argument("file", help="JSON group description")
    c.set_defaults(func=cmd_cosets)

    g = sub.add_parser("min-graph", help="DOT graph of a coset's minimal elements")
    g.add_argument("file", help="JSON group description")
    g.add_argument("element", help="space-separated 1-based word, or 'e'")
    g.add_argument("-o", "--output", help="write DOT here instead of stdout")
    g.set_defaults(func=cmd_min_graph)

    d = sub.add_parser("dominate", help="minimal coset member below the element")
    d.add_argument("file", help="JSON group description")
    d.add_argument("element", help="space-separated 1-based word, or 'e'")
    d.set_defaults(func=cmd_dominate)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("file", nargs="?", help="JSON verify config (default: bundled)")
    v.add_argument("--json", action="store_true", help="machine-readable output")
    v.add_argument("--seed", type=int, help="sampling seed override")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DescriptionError, MalformedMatrix, AutomorphismError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except (CapExceeded, InfiniteParabolic, OutOfEnumeratedRegion) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 3
    except BadElementWord as e:
        print(f"error: {e}", file=_sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
