#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload prod_focus --seed 1 --seconds 10 --trace 0

Run it from the repository root: it imports the package from ``src/`` of the
same checkout and refuses to run without it. A run

1. sets the workload up ``SETUP_REPS`` times, half before step 2 and half
   after step 3, and reports the median (``setup_s``);
2. makes the cold first call (``cold_s``, kept out of every median);
3. repeats the timed operation until ``--seconds`` have passed, at least
   once, and checks every output.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``,
its times scaled to the nominal machine speed measured by ``reference.py``.
With ``--trace 1`` it sets up once and runs the operation once with the
layer functions wrapped (see ``tracing.py``), and prints the per-layer
metrics: ``trace.solve_s`` is scaled like ``solve_s``, the span times are
wall times. ``--record PATH`` also writes every wall-time sample, the run's
stamp and the kernel checksum to PATH, for ``suite.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools are capped at the core count of the 2-core machine
# the baseline was taken on. The cap is part of the result: the threaded
# BLAS reductions the solver calls sum in another order with another thread
# count, and the production run ends at a different EPE.
THREAD_CAP = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 21

# Lattice arrays one FFT convolution reads or writes: the forward and the
# inverse 2-D FFT each make a read and a write pass per axis (4 + 4), and
# the spectrum product reads two lattices and writes one (3).
CONV_LATTICE_TRANSFERS = 11
COMPLEX_BYTES = 16


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp() -> dict:
    import numpy
    import scipy
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_package():
    """Import ilt_admm from this checkout's src/, and nowhere else."""
    if not (SRC / "ilt_admm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import ilt_admm
    if not Path(ilt_admm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported ilt_admm from {ilt_admm.__file__}, "
                         f"not from {SRC}")
    return ilt_admm


def per_layer_metrics(summary, workload, result, final_epe: float,
                      traced_s: float, lattice: tuple) -> dict:
    from tracing import DIAGNOSTICS
    conv, adj = "optics.convolve", "optics.convolve_adjoint"
    u_sub = "solver.u_subproblem"
    grads = summary.n("solver.grad_F")
    # every U-step convolution but its first (at u_init) is an Armijo trial
    trials = summary.child_calls.get((u_sub, conv), 0) - summary.n(u_sub)
    values = {
        f"{conv}.calls": (summary.n(conv), "count"),
        f"{conv}.self_s": (summary.self_time(conv), "s"),
        f"{adj}.calls": (summary.n(adj), "count"),
        f"{adj}.self_s": (summary.self_time(adj), "s"),
        "optics.conv.bytes_computed": (
            CONV_LATTICE_TRANSFERS * COMPLEX_BYTES * lattice[0] * lattice[1], "bytes"),
        "optics.build_psf.calls": (summary.n("optics.build_psf"), "count"),
        "optics.build_psf.s": (summary.total_s.get("optics.build_psf", 0.0), "s"),
        "optics.op_setup.s": (summary.total_s.get("optics.op_setup", 0.0), "s"),
    }
    for name in ("regularization.phi", "regularization.shrink",
                 "regularization.diff_adjoint", u_sub, "solver.grad_F",
                 "metrics.evaluate"):
        values[f"{name}.calls"] = (summary.n(name), "count")
        values[f"{name}.self_s"] = (summary.self_time(name), "s")
    values.update({
        "solver.armijo_trials": (trials, "count"),
        "solver.trials_per_grad": (trials / grads if grads else 0.0, "trials/grad"),
        "solver.bregman_sweeps": (
            summary.child_calls.get((u_sub, "regularization.shrink"), 0), "count"),
        "solver.v_subproblem.self_s": (summary.self_time("solver.v_subproblem"), "s"),
        "solver.dual_update.self_s": (summary.self_time("solver.dual_update"), "s"),
        "solver.diagnostics.self_s": (summary.self_time(*DIAGNOSTICS), "s"),
        "solver.outer_iters": (workload.outer_iters(result), "count"),
        "solver.epe_gap": (workload.epe_gap(result, final_epe), "sqrt_px"),
        "trace.solve_s": (traced_s, "s"),
    })
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def measure(args) -> dict:
    """Run the workload, write its record if asked, and return the result."""
    ilt_admm = import_package()
    import numpy as np

    import tracing
    from reference import Reference, Stopwatch
    from workloads import N, WORKLOADS, no_span

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    reference = Reference()

    span = tracer.span if tracer else no_span

    def layers():
        """Tracing installed for the block, in a traced run."""
        return tracer.installed(ilt_admm) if tracer else contextlib.nullcontext()

    setup_s = []  # (wall seconds, index of the burst before)

    def set_up(reps: int):
        before = len(reference.bursts) - 1
        for _ in range(reps):
            with layers():
                t0 = time.perf_counter()
                case = workload.setup(span)
                setup_s.append((time.perf_counter() - t0, before))
        reference.burst()
        return case

    # The reference loop runs around everything timed, traced or not, so
    # that the traced operation's time is scaled like the untraced ones.
    # Half the untraced set-ups run before the operations and half after, as
    # the machine's speed drifts over seconds.
    reference.burst()
    case = set_up(1 if tracer else SETUP_REPS // 2 + 1)

    t0 = time.perf_counter()
    workload.warm_up(case)
    cold_s = time.perf_counter() - t0

    ops, attempted, failed, final_epe, result = [], 0, 0, None, None
    start = time.perf_counter()
    while attempted == 0 or (not tracer and time.perf_counter() - start < args.seconds):
        sample = workload.sample(case, rng)
        reference.burst()
        watch = Stopwatch(reference)
        try:
            with layers():
                watch.start()
                result = workload.run(case, span, sample, watch.pause)
                watch.stop()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            attempted += workload.ops(case)
            failed += workload.ops(case)
            continue
        ops.append(watch)
        a, f, final_epe = workload.check(case, result)
        attempted += a
        failed += f
    if not ops:
        raise SystemExit("perfbench: every operation raised")
    reference.burst()
    if not tracer:
        set_up(SETUP_REPS // 2)

    if tracer:
        lattice = ilt_admm.optics.PsfKernel(
            np.ones((ilt_admm.optics.OpticsConfig().kernel_size,) * 2)).op(N).shape
        metrics = per_layer_metrics(tracer.summary(), workload, result, final_epe,
                                    ops[0].scaled_s(), lattice)
    else:
        # times at the reference loop's nominal speed; see reference.py
        solve_s = statistics.median(watch.scaled_s() for watch in ops)
        metrics = {
            "setup_s": {"value": statistics.median(
                t * reference.scale_after(i) for t, i in setup_s), "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "final_epe": {"value": final_epe, "unit": "sqrt_px"},
            "images_per_s": {"value": workload.ops(case) / solve_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    printed = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "stamp": stamp(),
            "kernel_sha256": workload.kernel_sha256(case),
            "setup_s": [t for t, _ in setup_s], "cold_s": cold_s,
            "op_s": [watch.wall_s for watch in ops],
            "reference_s": reference.bursts,
            "final_epe": final_epe, **printed,
        }, indent=1) + "\n")
    return printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(THREAD_CAP)
    print(json.dumps(measure(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
