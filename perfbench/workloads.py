"""The benchmark's workloads: inputs, the timed operation and its output check.

Every call into the package goes through a module attribute
(``optics.build_psf``, ``solver.admm_optimize``, ...), so that the tracer in
``tracing.py`` sees it when it is installed.

A workload has these parts:

- ``setup(span)`` builds the inputs, the PSF kernel and its first
  ``kernel.op(n)``; ``setup_s`` times it.
- ``warm_up(case)`` is the cold first call in the process, timed apart.
- ``sample(case, rng)`` draws from the run's seed the outputs the next
  check verifies in full.
- ``run(case, span, sample, pause)`` is one timed operation: one solver
  run, or one process-window sweep of 252 images. ``pause``, if given, is
  called at
  points where the operation may be paused to measure the machine.
- ``check(case, result)`` returns ``(attempted, failed, final_epe)``.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, signal

from ilt_admm import metrics, optics, solver, targets

N = 144


@dataclass
class SolverCase:
    target: np.ndarray
    optics_cfg: optics.OpticsConfig
    kernel: optics.PsfKernel


@dataclass(frozen=True)
class SolverWorkload:
    """One ``admm_optimize`` run on a bundled target.

    The inputs are the fixed production case, so the seed changes nothing
    here; on the process-window workload it picks the images checked.
    """

    name: str
    defocus_nm: float
    solver_args: tuple  # SolverConfig keyword arguments as (key, value) pairs
    # final_epe must be at most this share of the target's own EPE; None
    # asks only for a finite value below it
    max_epe_ratio: float | None

    @property
    def solver_cfg(self) -> solver.SolverConfig:
        return solver.SolverConfig(**dict(self.solver_args))

    def setup(self, span) -> SolverCase:
        target = targets.ten_rectangles(N)
        oc = optics.OpticsConfig(defocus_nm=self.defocus_nm)
        kernel = optics.build_psf(oc)
        with span("optics.op_setup"):
            kernel.op(N)
        return SolverCase(target, oc, kernel)

    def warm_up(self, case: SolverCase) -> None:
        """The cold first call: one outer iteration with one Bregman sweep."""
        cfg = dict(self.solver_args, outer_max_iters=1, bregman_max_iters=1)
        solver.admm_optimize(case.target, case.optics_cfg,
                             solver.SolverConfig(**cfg), kernel=case.kernel)

    def sample(self, case: SolverCase, rng) -> None:
        return None

    def run(self, case: SolverCase, span, sample=None, pause=None):
        return solver.admm_optimize(case.target, case.optics_cfg, self.solver_cfg,
                                    progress=pause, kernel=case.kernel)

    def ops(self, case: SolverCase) -> int:
        """Operations per run: one solve, delivering one mask image."""
        return 1

    def check(self, case: SolverCase, result) -> tuple[int, int, float]:
        mask, records = result
        final = metrics.evaluate(mask, case.target, case.optics_cfg,
                                 kernel=case.kernel).error
        baseline = metrics.evaluate(case.target, case.target, case.optics_cfg,
                                    kernel=case.kernel).error
        if self.max_epe_ratio is None:
            epe_ok = np.isfinite(final) and final < baseline
        else:
            epe_ok = final <= self.max_epe_ratio * baseline
        ok = (epe_ok and mask.shape == case.target.shape
              and bool(np.all((mask >= 0.0) & (mask <= 1.0))))
        return 1, int(not ok), final

    def outer_iters(self, result) -> int:
        return len(result[1])

    def epe_gap(self, result, final_epe: float) -> float:
        """Final EPE minus the lowest EPE any outer iteration printed."""
        return final_epe - min(r.epe_error for r in result[1])

    def kernel_sha256(self, case: SolverCase) -> str:
        return hashlib.sha256(case.kernel.samples.tobytes()).hexdigest()


# 21 focus settings, -100 nm to +100 nm in 10 nm steps
DEFOCUS_SWEEP_NM = tuple(float(d) for d in range(-100, 101, 10))
GRAY_VARIANTS = 3
NOISE_AMPLITUDE = 1.0
NOISE_SMOOTHING_PX = 2.0
# The gray variants are the same in every run: final_epe, the mean EPE of
# the sweep, then reads the same on every run of one commit, so any change
# in the printed images shows as a change of final_epe. The run's seed picks
# the images the check verifies in full.
GRAY_SEED = 0
CHECKED_IMAGES_PER_SWEEP = 12
# |package aerial image - independent fftconvolve aerial image|
AERIAL_TOL = 1e-9


@dataclass
class WindowCase:
    masks: list  # (mask, target) pairs
    reference_errors: list | None = None


@dataclass
class SweepResult:
    errors: list  # EPE per (focus, mask) pair, focus-major
    # (focus index, mask index, kernel, report) for the pairs the check samples
    sampled: list


@dataclass(frozen=True)
class ProcessWindowWorkload:
    """Fixed masks imaged across focus, one new kernel per focus setting."""

    name: str = "process_window"

    def setup(self, span) -> WindowCase:
        rng = np.random.default_rng(GRAY_SEED)
        pairs = []
        for make in targets.GENERATORS.values():
            target = make(N)
            pairs.append((target, target))
            for _ in range(GRAY_VARIANTS):
                noise = ndimage.gaussian_filter(rng.standard_normal((N, N)),
                                                NOISE_SMOOTHING_PX)
                gray = np.clip(target + NOISE_AMPLITUDE * noise, 0.0, 1.0)
                pairs.append((gray, target))
        # The sweep builds its own kernels; this best-focus one makes setup_s
        # measure the same per-kernel set-up as on the solver workloads.
        kernel = optics.build_psf(optics.OpticsConfig())
        with span("optics.op_setup"):
            kernel.op(N)
        return WindowCase(pairs)

    def warm_up(self, case: WindowCase) -> None:
        """The cold first call: one full sweep, whose errors later sweeps
        must reproduce exactly."""
        result = self.run(case, no_span, frozenset())
        case.reference_errors = result.errors

    def run(self, case: WindowCase, span, sample: frozenset, pause=None) -> SweepResult:
        errors, sampled = [], []
        for i, d in enumerate(DEFOCUS_SWEEP_NM):
            oc = optics.OpticsConfig(defocus_nm=d)
            kernel = optics.build_psf(oc)
            with span("optics.op_setup"):
                kernel.op(N)
            for j, (mask, target) in enumerate(case.masks):
                report = metrics.evaluate(mask, target, oc, kernel=kernel)
                errors.append(report.error)
                if (i, j) in sample:
                    sampled.append((i, j, kernel, report))
        return SweepResult(errors, sampled)

    def ops(self, case: WindowCase) -> int:
        """Operations per run: the images of one sweep."""
        return len(DEFOCUS_SWEEP_NM) * len(case.masks)

    def sample(self, case: WindowCase, rng) -> frozenset:
        """The (focus, mask) pairs whose images the next check verifies."""
        flat = rng.choice(len(DEFOCUS_SWEEP_NM) * len(case.masks),
                          CHECKED_IMAGES_PER_SWEEP, replace=False)
        return frozenset(divmod(int(k), len(case.masks)) for k in flat)

    def check(self, case: WindowCase, result: SweepResult) -> tuple[int, int, float]:
        bad = {k for k, (got, want) in enumerate(zip(result.errors, case.reference_errors))
               if not (np.isfinite(got) and got == want)}
        for i, j, kernel, report in result.sampled:
            mask, target = case.masks[j]
            if not _image_matches_reference(mask, target, kernel, report):
                bad.add(i * len(case.masks) + j)
        return len(result.errors), len(bad), float(np.mean(result.errors))

    def outer_iters(self, result) -> int:
        return 0

    def epe_gap(self, result, final_epe: float) -> float:
        return 0.0

    def kernel_sha256(self, case: WindowCase) -> str:
        digest = hashlib.sha256()
        for d in DEFOCUS_SWEEP_NM:
            kernel = optics.build_psf(optics.OpticsConfig(defocus_nm=d))
            digest.update(kernel.samples.tobytes())
        return digest.hexdigest()


def _image_matches_reference(mask, target, kernel, report) -> bool:
    """The package's aerial image against scipy.signal.fftconvolve, and the
    printed EPE map against the reference threshold away from ties."""
    k = kernel.samples.shape[0]
    s = (k - 1) // 2
    full = signal.fftconvolve(mask, kernel.samples)
    reference = np.abs(full[s:s + N, s:s + N]) ** 2
    aerial = optics.aerial_image(optics.convolve(kernel, mask))
    if not np.max(np.abs(aerial - reference)) <= AERIAL_TOL:
        return False
    tr = kernel.config.threshold
    printed = (reference >= tr).astype(float)
    clear = np.abs(reference - tr) > AERIAL_TOL
    return bool(np.array_equal(report.epe[clear], np.abs(printed - target)[clear]))


def no_span(name: str):
    """The span factory of untraced runs."""
    return contextlib.nullcontext()


WORKLOADS = {
    w.name: w for w in (
        # Production run at best focus (acceptance criterion 5): the kernel
        # is real, the U-step does ~99% of the work.
        SolverWorkload("prod_focus", 0.0, (("outer_max_iters", 7),), 0.5),
        # The same run at 50 nm defocus (criterion 6): a complex kernel.
        SolverWorkload("prod_defocus50", 50.0, (("outer_max_iters", 7),), None),
        # Many cheap outer iterations: V-step, dual step and diagnostics take
        # their largest share, and EPE passes its minimum at iteration 7.
        SolverWorkload("long_focus", 0.0, (("outer_max_iters", 25),
                                           ("bregman_max_iters", 5),
                                           ("descent_max_iters", 10)), None),
        # Forward-only imaging across focus: kernel set-up is ~25% of time.
        ProcessWindowWorkload(),
    )
}
