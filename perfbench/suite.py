#!/usr/bin/env python3
"""Run every workload, check its outputs and write one result file.

    python3 perfbench/suite.py --out perfbench/results/mine.json

Every workload of ``BENCHMARK.json`` runs ``RUNS`` times untraced, each run a
fresh process of ``run_seconds`` with its own seed (1 to ``RUNS``), then once
traced with seed 1. The result file holds, per workload, every end-to-end
sample with its median and quartiles, the cold first-call times, the failure
share, the unscaled wall time of the operation, the per-layer metrics of the
traced run, the tracing overhead (the traced run's scaled operation time
minus the untraced ``solve_s`` median) and the problems found. It is stamped
with the git commit, the Python, numpy and scipy versions, ``nproc``, the
thread cap and each workload's kernel checksum. ``compare.py`` compares two
such files.

Exits with 1 if any output check failed, if the traced run ended at another
EPE than the untraced run of the same seed, or if the runs disagree on stamp
or kernel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Runs per workload and side: a gain or regression is judged on ten runs.
RUNS = 10


def quartiles(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_once(workload: str, seed: int, seconds: float, trace: int, tmp: Path) -> dict:
    record = tmp / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--record", str(record)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"suite: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(record.read_text())


def summarize(untraced: list, traced: dict, stamp: dict, end_to_end: list) -> dict:
    problems = []
    first = untraced[0]
    for rec in untraced + [traced]:
        if rec["stamp"] != stamp:
            problems.append(f"seed {rec['seed']} trace {rec['trace']}: stamp differs")
        if rec["kernel_sha256"] != first["kernel_sha256"]:
            problems.append(f"seed {rec['seed']} trace {rec['trace']}: kernel differs")
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    if failed or traced["failed"]:
        problems.append(f"{failed + traced['failed']} operations failed their check")
    same_seed = [r["final_epe"] for r in untraced if r["seed"] == traced["seed"]]
    if same_seed != [traced["final_epe"]]:
        problems.append(f"traced final_epe {traced['final_epe']!r} differs from "
                        f"the untraced run of the same seed, {same_seed!r}")
    metrics = {}
    for m in end_to_end:
        samples = [r["metrics"][m["name"]]["value"] for r in untraced]
        metrics[m["name"]] = {"unit": m["unit"], "samples": samples, **quartiles(samples)}
    wall_solve_s = quartiles([statistics.median(r["op_s"]) for r in untraced])
    return {
        "kernel_sha256": first["kernel_sha256"],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "cold_s": [r["cold_s"] for r in untraced],
        "end_to_end": metrics,
        "wall_solve_s": wall_solve_s,
        "per_layer": traced["metrics"],
        "trace_overhead_s": (traced["metrics"]["trace.solve_s"]["value"]
                             - metrics["solve_s"]["median"]),
        "final_epe_traced": traced["final_epe"],
        "problems": problems,
    }


def print_summary(name: str, s: dict) -> None:
    print(f"\n{name}  (fail_frac {s['fail_frac']:.4g} = {s['failed']}/{s['attempted']}, "
          f"cold_s median {statistics.median(s['cold_s']):.4g} s, "
          f"wall solve_s median {s['wall_solve_s']['median']:.4g} s, "
          f"tracing overhead {s['trace_overhead_s']:+.4g} s)")
    for metric, v in s["end_to_end"].items():
        print(f"  {metric:<14} {v['median']:>12.6g} {v['unit']:<8} "
              f"[q1 {v['q1']:.6g}, q3 {v['q3']:.6g}]  n={v['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    args.out.parent.mkdir(parents=True, exist_ok=True)
    untraced = {w: [] for w in names}
    traced = {}
    with tempfile.TemporaryDirectory(dir=args.out.parent) as tmp:
        # round robin, so that a change in machine load hits every workload
        for seed in range(1, RUNS + 1):
            for w in names:
                untraced[w].append(run_once(w, seed, seconds, 0, Path(tmp)))
        for w in names:
            traced[w] = run_once(w, 1, seconds, 1, Path(tmp))

    stamp = untraced[names[0]][0]["stamp"]
    result = {"stamp": stamp, "seconds": seconds, "runs": RUNS, "workloads": {}}
    problems = []
    for w in names:
        summary = summarize(untraced[w], traced[w], stamp, bench["end_to_end"])
        result["workloads"][w] = summary
        problems += [f"{w}: {p}" for p in summary["problems"]]
        print_summary(w, summary)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
