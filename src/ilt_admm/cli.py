"""Command-line interface.

Subcommands: psf (dump the kernel), simulate (forward imaging chain),
optimize (full ADMM run), evaluate (EPE metrics for a given mask), sweep
(product grid of penalty lists, plus kernel-noise cells, one history CSV
per cell).

Each subcommand declares only the options it reads. Setting precedence:
command-line flags > config file > built-in defaults; the settings are
merged, typed and checked once per run, before any output is written.
Exit codes: 0 success, 1 usage error (a malformed or out-of-range setting
included), 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

from . import targets
from .grids import l2_norm
from .metrics import epe_report, evaluate
from .optics import OpticsConfig, PsfKernel, aerial_image, build_psf, convolve, image_threshold
from .pgmio import (integer, load_config, load_mask, load_pattern, number,
                    save_grid, write_history)
from .solver import SolverConfig, admm_optimize, lagrangian_trace_check

# Every run setting as config field name -> flag; a config-file key outside
# these tables is a usage error.
_OPTICS_FLAGS = {
    "wavelength_nm": "--wavelength",
    "numerical_aperture": "--na",
    "defocus_nm": "--defocus",
    "pixel_size_nm": "--pixel-size",
    "kernel_size": "--kernel-size",
    "threshold": "--threshold",
}
_PENALTY_FLAGS = {name: "--" + name for name in ("rho", "gamma", "beta1", "beta2")}
_BUDGET_FLAGS = {
    "outer_max_iters": "--outer-iters",
    "bregman_max_iters": "--bregman-iters",
    "descent_max_iters": "--descent-iters",
}
_SETTINGS = {**_OPTICS_FLAGS, **_PENALTY_FLAGS, **_BUDGET_FLAGS}
# A setting, given as a flag or a config-file value, is read as an integer
# where its config field is annotated int (the annotation check_settings
# checks), as a number otherwise.
_PARSERS = {f.name: integer if f.type == "int" else number
            for config in (OpticsConfig, SolverConfig)
            for f in dataclasses.fields(config)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors
        raise _UsageError(message)


def _checked(prefix: str, make, /, *args, **kwargs):
    """make(*args, **kwargs); a ValueError is a usage error, prefix + its text."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(prefix + str(exc)) from None


def _settings(args) -> tuple[OpticsConfig, SolverConfig]:
    """The run's optics and solver settings: flags override config-file
    keys, which override defaults. Every key of the config file is typed
    and checked, whichever of the two configs it belongs to."""
    values = {}
    if args.config:
        cfg_file = load_config(args.config)
        unknown = sorted(cfg_file.keys() - _SETTINGS.keys())
        if unknown:
            raise _UsageError(f"{args.config}: unknown config key(s): "
                              + ", ".join(unknown))
        for key, text in cfg_file.items():
            values[key] = _checked(f"{args.config}: {key}: ",
                                   _PARSERS[key], text)
    for name in _SETTINGS:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    optics_values = {k: v for k, v in values.items() if k in _OPTICS_FLAGS}
    solver_values = {k: v for k, v in values.items() if k not in _OPTICS_FLAGS}
    return (_checked("", OpticsConfig, **optics_values),
            _checked("", SolverConfig, **solver_values))


def _load_target(spec: str) -> np.ndarray:
    """A target is either a bundled generator name or a file path."""
    if spec in targets.GENERATORS:
        return targets.GENERATORS[spec]()
    return load_pattern(spec)


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_psf(args) -> int:
    oc, _ = _settings(args)
    kernel = build_psf(oc)
    out = _outdir(args)
    save_grid(kernel.samples.real, out / "psf_real.txt", mode="text")
    save_grid(kernel.samples.imag, out / "psf_imag.txt", mode="text")
    save_grid(np.abs(kernel.samples), out / "psf_magnitude.pgm",
              mode="continuous", comment="kernel magnitude")
    print(f"wrote kernel ({oc.kernel_size}x{oc.kernel_size}, "
          f"dc_gain={kernel.dc_gain:.12f}) to {out}")
    return 0


def cmd_simulate(args) -> int:
    oc, _ = _settings(args)
    mask = load_mask(args.mask)
    target = _load_target(args.target) if args.target else None
    kernel = build_psf(oc)
    v = convolve(kernel, mask)
    ia = aerial_image(v)
    printed = image_threshold(ia, oc.threshold)
    # every output is formed, so a bad target fails before any is written
    report = None if target is None else epe_report(printed, target)
    out = _outdir(args)
    save_grid(ia, out / "aerial.pgm", mode="continuous", comment="aerial image")
    save_grid(printed, out / "wafer.pgm", mode="binary")
    if report is not None:
        save_grid(report.epe, out / "epe.pgm", mode="binary")
        print(f"epe_error={report.error!r} "
              f"nonzero_epe_pixels={report.nonzero_epe_pixels}")
    print(f"simulation outputs in {out}")
    return 0


def cmd_optimize(args) -> int:
    oc, sc = _settings(args)
    target = _load_target(args.target)
    kernel = build_psf(oc)
    baseline = evaluate(target, target, oc, kernel=kernel).error

    def progress(rec):
        if not args.quiet:
            print(f"iter {rec.iteration:3d}  epe={rec.epe_error:10.4f}  "
                  f"lagrangian={rec.lagrangian:14.6f}  "
                  f"residual={rec.primal_residual:10.4f}")

    u, records = admm_optimize(target, oc, sc, progress=progress, kernel=kernel)
    out = _outdir(args)
    save_grid(u, out / "mask.txt", mode="text")
    save_grid(u, out / "mask.pgm", mode="binary",
              comment="mask binarized at 0.5; continuous values in mask.txt")
    report = evaluate(u, target, oc, kernel=kernel)
    binarized = evaluate(u >= 0.5, target, oc, kernel=kernel)  # mask.pgm's print
    # epe = |printed - target| on 0/1 grids, so each printed pattern is
    # |target - epe| and no mask need be imaged again
    for suffix, rep in (("", report), ("_binary", binarized)):
        save_grid(np.abs(target - rep.epe), out / f"wafer{suffix}.pgm",
                  mode="binary")
        save_grid(rep.epe, out / f"epe{suffix}.pgm", mode="binary")
    write_history(records, out / "history.csv")
    trace = lagrangian_trace_check(records)
    print(f"baseline epe_error={baseline!r}, optimized epe_error={report.error!r}, "
          f"binarized epe_error={binarized.error!r}")
    print(f"lagrangian nonincreasing fraction: "
          f"{trace.nonincreasing_fraction:.3f}")
    print(f"outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    oc, _ = _settings(args)
    mask = load_mask(args.mask)
    target = _load_target(args.target)
    report = evaluate(mask, target, oc)
    if args.output_dir:
        out = _outdir(args)
        save_grid(report.epe, out / "epe.pgm", mode="binary")
    print(f"epe_error={report.error!r} "
          f"nonzero_epe_pixels={report.nonzero_epe_pixels}")
    return 0


def _parse_list(flag: str, text: str) -> list[float]:
    """A comma-separated list of numbers; a malformed list, one with an
    empty item, or one that repeats a value, is a usage error that names
    its flag."""
    items = text.split(",")
    if not all(tok.strip() for tok in items):
        raise _UsageError(f"{flag}: {text!r} has an empty item")
    values = [_checked(f"{flag}: ", number, tok) for tok in items]
    # each value tags its cell's history file by its :g form
    tags = [f"{v:g}" for v in values]
    for tag in tags:
        if tags.count(tag) > 1:
            raise _UsageError(f"{flag}: value {tag} given twice in {text!r}")
    return values


def cmd_sweep(args) -> int:
    axes = {name: _parse_list(flag, text) for name, flag in _PENALTY_FLAGS.items()
            if (text := getattr(args, "sweep_" + name)) is not None}
    levels = ([] if args.kernel_noise is None
              else _parse_list("--kernel-noise", args.kernel_noise))
    for level in levels:
        if not (np.isfinite(level) and level >= 0):
            raise _UsageError(f"--kernel-noise: level {level:g} is not a "
                              "finite non-negative number")
    if not axes and not levels:
        raise _UsageError("sweep needs at least one of "
                          + "/".join([*_PENALTY_FLAGS.values(), "--kernel-noise"])
                          + " lists")
    oc, base = _settings(args)
    # the penalty lists form their product grid, every cell checked before
    # any imaging or output; kernel-noise cells keep the base solver settings
    grid = [dict(zip(axes, values))
            for values in itertools.product(*axes.values())] if axes else []
    solver_cfgs = [_checked("", dataclasses.replace, base, **cell) for cell in grid]
    rng = _checked("--seed: ", np.random.default_rng, args.seed)
    target = _load_target(args.target)
    out = _outdir(args)
    kernel = build_psf(oc)
    baseline = evaluate(target, target, oc, kernel=kernel).error
    print(f"baseline epe_error={baseline!r}")

    cells = [(cell, sc, kernel) for cell, sc in zip(grid, solver_cfgs)]
    for level in levels:
        noise = rng.normal(size=kernel.samples.shape) \
            + 1j * rng.normal(size=kernel.samples.shape)
        noise *= level * l2_norm(kernel.samples) / l2_norm(noise)
        cells.append(({"kernel_noise": level}, base,
                      PsfKernel(kernel.samples + noise, config=oc)))
    for cell, sc, k in cells:
        _, records = admm_optimize(target, oc, sc, kernel=k)
        tag = "_".join(f"{name}_{value:g}"
                       for name, value in cell.items()).replace(".", "p")
        write_history(records, out / f"history_{tag}.csv")
        trace = lagrangian_trace_check(records)
        label = " ".join(f"{name}={value:g}" for name, value in cell.items())
        # admm_optimize returns the outer iterate with the lowest EPE
        best = min(r.epe_error for r in records)
        print(f"{label}: final epe_error={best!r}, "
              f"lagrangian nonincreasing fraction "
              f"{trace.nonincreasing_fraction:.3f} -> history_{tag}.csv")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ilt-admm",
                     description="Inverse lithography mask synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    def settings(p, *tables, seed_help=None):
        """--config, --output-dir, the flags of the given setting tables and,
        with seed_help, --seed."""
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output-dir", default="out")
        if seed_help:
            p.add_argument("--seed", type=integer, default=0, help=seed_help)
        for table in tables:
            for name, flag in table.items():
                p.add_argument(flag, type=_PARSERS[name], dest=name)

    p = sub.add_parser("psf", help="dump the PSF kernel")
    settings(p, _OPTICS_FLAGS)
    p.set_defaults(func=cmd_psf)

    p = sub.add_parser("simulate", help="forward imaging chain for a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--target", help="optional target for an EPE panel")
    settings(p, _OPTICS_FLAGS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="run the ADMM mask optimization")
    p.add_argument("--target", required=True,
                   help="pattern file or builtin: " + ", ".join(targets.GENERATORS))
    p.add_argument("--quiet", action="store_true")
    settings(p, _OPTICS_FLAGS, _PENALTY_FLAGS, _BUDGET_FLAGS,
             seed_help="accepted for older command lines; has no effect")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="EPE metrics for a mask vs target")
    p.add_argument("--mask", required=True)
    p.add_argument("--target", required=True)
    settings(p, _OPTICS_FLAGS)
    # evaluate only prints unless an output directory is asked for
    p.set_defaults(func=cmd_evaluate, output_dir=None)

    p = sub.add_parser("sweep", help="penalty product grid / kernel-noise sweep")
    p.add_argument("--target", required=True)
    for name, flag in _PENALTY_FLAGS.items():
        p.add_argument(flag, dest="sweep_" + name,
                       help=f"comma-separated {name} values; the penalty "
                            "lists given form a product grid")
    p.add_argument("--kernel-noise",
                   help="comma-separated relative l2 noise levels for H")
    # the list flags above replace the scalar penalty flags
    settings(p, _OPTICS_FLAGS, _BUDGET_FLAGS, seed_help="seeds --kernel-noise")
    p.set_defaults(func=cmd_sweep)
    return parser


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, FloatingPointError) as exc:
        # ValueError covers PatternFormatError and GridError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
