#!/usr/bin/env python3
"""Compare two result files of ``suite.py``: the parent first, the change second.

    python3 perfbench/compare.py perfbench/baseline.json perfbench/results/mine.json

For each workload and end-to-end metric it prints both medians and quartiles
and a verdict, using the bounds and directions of ``BENCHMARK.json``:

- ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``won``: the change's quartile range lies wholly on the better side of the
  parent's, and the medians differ by more than the parent's own quartile
  spread;
- ``unresolved``: neither; the median is no worse than the bound allows, but
  the gain is not clear of the spread.

Every metric of a workload counts as ``regressed`` when the change's
failure share is higher than the parent's, or when the suite found problems
in the change's runs (failed checks, a traced EPE that differs from the
untraced one, differing stamps or kernels): a faster run whose outputs are
wrong is no gain.

It then lists the per-layer metrics of both traced runs and marks every
count that changed. It exits with 1 if any metric regressed, and refuses
(exit 2) a pair whose Python, numpy or scipy versions, machine, core count,
thread cap or kernel checksums differ: their numbers are not comparable, and
the solver can end at another EPE on another platform.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("python", "numpy", "scipy", "machine", "nproc", "thread_cap")


def refusals(old: dict, new: dict) -> list:
    out = [f"{key}: {old['stamp'].get(key)!r} vs {new['stamp'].get(key)!r}"
           for key in COMPARABLE if old["stamp"].get(key) != new["stamp"].get(key)]
    for w in old["workloads"].keys() & new["workloads"].keys():
        if old["workloads"][w]["kernel_sha256"] != new["workloads"][w]["kernel_sha256"]:
            out.append(f"{w}: kernel checksums differ")
    return out


def verdict(old: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - old["median"]) / abs(old["median"])
    if worse_by > bound:
        return "regressed"
    spread = old["q3"] - old["q1"]
    if better == "lower":
        clear = new["q3"] < old["q1"]
    else:
        clear = new["q1"] > old["q3"]
    if clear and abs(new["median"] - old["median"]) > spread:
        return "won"
    return "unresolved"


def fmt(v: dict) -> str:
    return f"{v['median']:.6g} [{v['q1']:.6g}, {v['q3']:.6g}] n={v['n']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="result file of the parent")
    parser.add_argument("new", type=Path, help="result file of the change")
    args = parser.parse_args(argv)
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    refused = refusals(old, new)
    if refused:
        print("refused: the two files are not comparable")
        for line in refused:
            print(f"  {line}")
        return 2

    print(f"old {old['stamp']['commit']}  new {new['stamp']['commit']}")
    regressed = False
    for w in old["workloads"]:
        if w not in new["workloads"]:
            print(f"\n{w}: only in {args.old}")
            continue
        o, n = old["workloads"][w], new["workloads"][w]
        print(f"\n{w}  fail_frac {o['fail_frac']:.4g} -> {n['fail_frac']:.4g}")
        wrong = n["problems"] + (["more operations failed"]
                                 if n["fail_frac"] > o["fail_frac"] else [])
        for problem in wrong:
            print(f"  PROBLEM in the change: {problem}")
        for m in bench["end_to_end"]:
            a, b = o["end_to_end"][m["name"]], n["end_to_end"][m["name"]]
            change = (b["median"] - a["median"]) / abs(a["median"])
            v = "regressed" if wrong else verdict(a, b, m["better"], m["bound"])
            regressed = regressed or v == "regressed"
            print(f"  {m['name']:<13} {m['unit']:<8} {fmt(a):<40} -> {fmt(b):<40} "
                  f"{change:+.1%}  {v}")
        print("  per layer (traced run; counts that differ are marked):")
        for name, a in o["per_layer"].items():
            b = n["per_layer"].get(name)
            new_value = f"{b['value']:.6g}" if b else "missing"
            changed = a["unit"] == "count" and (b is None or b["value"] != a["value"])
            mark = "  changed" if changed else ""
            print(f"    {name:<34} {a['value']:>14.6g} -> {new_value:>14} {a['unit']}{mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
