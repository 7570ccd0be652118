#!/usr/bin/env python3
"""Penalty-parameter sweep: run the solver across a grid of rho (ADMM
penalty) and gamma (Bregman penalty) values on the ten-rectangle target
and summarize final error and descent consistency per cell.

Larger rho descends more consistently but more gently; the script counts
nonmonotone Lagrangian steps per curve to make that visible. It is the only
rho x gamma product grid: `ilt-admm sweep` varies one parameter at a time.

Usage: python3 scripts/param_sweep.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from ilt_admm.metrics import evaluate
from ilt_admm.optics import OpticsConfig, build_psf
from ilt_admm.pgmio import write_history
from ilt_admm.solver import SolverConfig, admm_optimize
from ilt_admm.targets import ten_rectangles

RHOS = [1.0, 5.0, 10.0, 50.0]
GAMMAS = [10.0, 30.0, 100.0]


def nonmonotone_steps(records) -> int:
    lag = [r.lagrangian for r in records]
    return sum(1 for a, b in zip(lag, lag[1:])
               if b > a + 1e-8 * max(1.0, abs(a)))


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("sweep_results")
    out.mkdir(parents=True, exist_ok=True)
    optics = OpticsConfig()
    kernel = build_psf(optics)
    target = ten_rectangles()
    baseline = evaluate(target, target, optics, kernel=kernel).error
    print(f"baseline epe {baseline:.3f}")
    print(f"{'rho':>6} {'gamma':>6} {'final epe':>10} {'ratio':>6} "
          f"{'nonmonotone':>11}")
    for rho in RHOS:
        for gamma in GAMMAS:
            cfg = SolverConfig(rho=rho, gamma=gamma, outer_max_iters=15)
            mask, records = admm_optimize(target, optics, cfg, kernel=kernel)
            err = evaluate(mask, target, optics, kernel=kernel).error
            tag = f"rho{rho:g}_gamma{gamma:g}".replace(".", "p")
            write_history(records, out / f"history_{tag}.csv")
            print(f"{rho:6g} {gamma:6g} {err:10.3f} {err / baseline:6.3f} "
                  f"{nonmonotone_steps(records):11d}")
    print(f"history curves in {out}/")


if __name__ == "__main__":
    main()
