"""ADMM solver for mask synthesis.

Splits V = H*U and alternates three updates on the augmented Lagrangian:
a split-Bregman U-step (Armijo gradient descent + box projection +
shrinkage), a closed-form V-step for the hard-threshold misfit, and the
dual ascent P-step, then polishes the binarized best iterate by exact
pixel flips. Convergence diagnostics (Lagrangian descent, primal
residual, V increments) are monitored, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import optics as _optics
from .grids import (as_binary, as_precision, inner, l1_norm, l2_norm,
                    sum_squares)
from .metrics import EvaluationReport
from .optics import (PsfKernel, aerial_image, check_settings, convolve,
                     convolve_adjoint, image_sigmoid)
from .regularization import diff_adjoint, phi, shrink

# Projected Armijo search of the U-step: sufficient-decrease factor in
# (0, 0.5), backtracking factor in (0, 1), and the first trial step.
ARMIJO_ALPHA = 0.3
ARMIJO_BETA = 0.5
ARMIJO_T0 = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """ADMM and inner-loop parameters. The penalties and the inner budgets
    default to the production setting (rho=10, gamma=30, beta1=0.01,
    beta2=0.015, 6 Bregman sweeps of 10 descent steps); outer_max_iters
    does not: it defaults to 100, while the production runs, the
    acceptance suite and the benchmark's prod_* workloads pass 7, and
    100 x 6 x 10 costs 13,000-15,200 convolutions per solve.

    6 sweeps is the cheapest budget on the plateau of the polished masks
    (admm_optimize): at 7 outer iterations on the three bundled targets,
    each at 0 and 50 nm, 6 to 10 sweeps miss 2687 to 2722 pixels in all,
    at 5616 to 9292 convolutions, against 2612 at 20 sweeps and 18,180;
    5 sweeps miss 416 pixels on ten_rectangles at 50 nm."""

    rho: float = 10.0
    gamma: float = 30.0
    beta1: float = 0.01
    beta2: float = 0.015
    outer_max_iters: int = 100
    bregman_max_iters: int = 6
    # at 7 x 6 sweeps, 10 steps per sweep miss 2687 pixels over the same
    # six cases, against 2977 at 8 and 2701 at 12; the cap also bounds
    # Armijo backtracking
    descent_max_iters: int = 10

    def __post_init__(self):
        check_settings(self)
        if self.rho <= 0 or self.gamma <= 0:
            raise ValueError("rho and gamma must be positive")
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("beta1 and beta2 must be nonnegative")
        if self.outer_max_iters < 1:
            raise ValueError("outer_max_iters must be at least 1")
        for name in ("bregman_max_iters", "descent_max_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class ConvergenceRecord:
    """Per-outer-iteration diagnostics.

    The first five fields are the logged contract (CSV columns); v_change,
    the V increment, is read by lagrangian_trace_check.
    """

    iteration: int
    lagrangian: float
    epe_error: float
    primal_residual: float
    step_accepted: bool
    v_change: float = float("nan")


# The steepness a of the sigmoid resist model Sig_a in the logged
# Lagrangian's misfit h_a. The V-step solves the hard-threshold misfit
# directly, so a changes no mask, image or EPE; the rho condition's L_h is
# estimate_lipschitz(SIGMOID_STEEPNESS, threshold).
SIGMOID_STEEPNESS = 20.0


def sigmoid_misfit(v: np.ndarray, target: np.ndarray, a: float, tr: float) -> float:
    """h_a(V) = || Sig_a(|V|^2) - I ||_2^2."""
    return sum_squares(image_sigmoid(aerial_image(v), a, tr) - target)


def grad_h(v: np.ndarray, target: np.ndarray, a: float, tr: float) -> np.ndarray:
    """Gradient of h_a with respect to the real/imag parts of V, written as
    a grid of V's dtype: 4a V (Sig - I)(1 - Sig) Sig with Sig = Sig_a(|V|^2).

    (The factor is 4a, not 2a: per entry, d/dv (Sig_a(v^2) - I)^2 =
    2(Sig - I) * a Sig (1 - Sig) * 2v; verified against finite differences.)
    """
    v = np.asarray(v)
    s = image_sigmoid(aerial_image(v), a, tr)
    return 4.0 * a * v * (s - np.asarray(target)) * (1.0 - s) * s


def estimate_lipschitz(a: float, tr: float, samples: int = 1_000_000) -> float:
    """Upper estimate of the Lipschitz constant of grad_h.

    Each entry of grad_h is a scalar map of its own v, so the Hessian is
    diagonal; we densely sample |second derivative| of the per-entry misfit
    over v in [0, 3] for both target values and pad the sampled max by 1%.
    """
    v = np.linspace(0.0, 3.0, samples)
    d2 = max(np.abs(np.gradient(grad_h(v, target, a, tr), v)).max()
             for target in (0.0, 1.0))
    return 1.01 * float(d2)


def check_rho_condition(rho: float, l_h: float) -> bool:
    """True iff rho/2 - L_h/rho - L_h > 0, the paper's sufficient-decrease
    condition, for the sigmoid surrogate's L_h: the V-step's hard threshold
    has no Lipschitz gradient. The production rho = 10 fails it (boundary
    ~156.5 at L_h = 77.73); rho = 160 missed 8461 pixels, not 2687 (README)."""
    if rho <= 0 or l_h <= 0:
        raise ValueError("rho and L_h must be positive")
    return bool(rho / 2.0 - l_h / rho - l_h > 0.0)


def augmented_lagrangian(u: np.ndarray, hu: np.ndarray, v: np.ndarray,
                         p: np.ndarray, target: np.ndarray, tr: float,
                         cfg: SolverConfig) -> float:
    """h_a(V) + ||Phi(U)||_1 + <P, V - HU> + (rho/2) ||V - HU||_2^2, with
    hu = HU and a = SIGMOID_STEEPNESS. The regularizer ||Phi(U)||_1
    = beta1 ||DU||_1 + beta2 ||U(1-U)||_1 is l1_norm(phi(u, beta1, beta2))."""
    resid = v - hu
    return (sigmoid_misfit(v, target, SIGMOID_STEEPNESS, tr)
            + l1_norm(phi(u, cfg.beta1, cfg.beta2))
            + inner(p, resid)
            + 0.5 * cfg.rho * sum_squares(resid))


def bregman_objective(hu: np.ndarray, w: np.ndarray, d: np.ndarray,
                      b: np.ndarray, cfg: SolverConfig, phi_u: np.ndarray,
                      ) -> tuple[float, np.ndarray, np.ndarray]:
    """F(U) = ||HU - W||^2 + (gamma/2) ||d - Phi(U) - b||^2 from hu = HU and
    phi_u = Phi(U), returned with the residual HU - W and the split gap
    d - Phi(U) - b so grad_F at U can reuse them."""
    resid = hu - w
    gap = d - phi_u - b
    f = sum_squares(resid) + 0.5 * cfg.gamma * sum_squares(gap)
    return f, resid, gap


def grad_F(u: np.ndarray, resid: np.ndarray, gap: np.ndarray,
           cfg: SolverConfig, kernel: PsfKernel) -> np.ndarray:
    """Gradient of the Bregman subproblem objective F at U.

    2 Re{H^* resid} - gamma*beta1 D^T(gap[0], gap[1])
    + gamma*beta2 gap[2] (2U - 1), from bregman_objective's residual
    resid = HU - W and split gap = d - Phi(U) - b at U, in resid's
    precision.
    """
    grad = 2.0 * convolve_adjoint(kernel, resid)
    # in place, but in the formula's operation order, so the rounding is
    # that of (data - tv) + (gamma*beta2 gap[2]) (2U - 1)
    tv = diff_adjoint(gap[0], gap[1])
    tv *= cfg.gamma * cfg.beta1
    grad -= tv
    pen = np.multiply(cfg.gamma * cfg.beta2, gap[2])
    slope = np.multiply(2.0, u, out=tv)  # tv's buffer is free again
    slope -= 1.0
    pen *= slope
    grad += pen
    return grad


def u_subproblem(w: np.ndarray, u_init: np.ndarray, hu_init: np.ndarray,
                 cfg: SolverConfig,
                 kernel: PsfKernel) -> tuple[np.ndarray, np.ndarray]:
    """Approximately minimize the original objective ||HU - W||^2
    + ||Phi(U)||_1 = ||HU - W||^2 + beta1||DU||_1 + beta2||U(1-U)||_1 over
    the box [0,1] by split Bregman iteration.

    Requires u_init in [0,1] and hu_init = H u_init, its image; W has the
    image's dtype (real for a real PSF).
    Runs exactly bregman_max_iters sweeps. Each sweep runs projected Armijo
    gradient descent on the smoothed objective F (the box projection is
    applied to every trial point, and the sufficient-decrease test uses the
    gradient-mapping norm ||U - P(U - t g)||^2 / t^2, which reduces to the
    plain Armijo rule ||g||^2 at interior points), then applies shrinkage
    and the Bregman update.

    The state is single precision: u_init, hu_init and W are cast once to
    float32 (complex64 for a complex image); U, every trial U_t, Phi(U), d,
    b, the split gap, the residual and the gradient stay so, so every image
    and adjoint takes the single-precision operator, and every scalar
    compared (F, the Armijo move ||U - U_t||^2, the original objective) is
    a float64 sum. Phi(U) is formed once per iterate, at u_init and at each
    Armijo trial, and carried with it to the sweep end's original
    objective, shrink and b update.
    Returns (U, HU) at the sweep end with the lowest original objective:
    its U and the image the U-step holds for it, cast to float64
    (complex128 for a complex image) for the V- and P-steps to reuse, even
    where that objective lies above its value at u_init, since ADMM asks
    only for an inexact U-step; u_init and hu_init themselves only when
    bregman_max_iters is 0.
    """
    u, hu, w = (as_precision(a, np.float32) for a in (u_init, hu_init, w))
    d = phi_u = phi(u, cfg.beta1, cfg.beta2)  # Phi at the current U
    b = np.zeros_like(phi_u)
    best_u, best_hu, best_val = u_init, hu_init, np.inf

    for _ in range(cfg.bregman_max_iters):
        # F, the residual HU - W and the split gap at the current U; an
        # accepted trial carries its own into the next descent step
        f0, resid, gap = bregman_objective(hu, w, d, b, cfg, phi_u)
        for _ in range(cfg.descent_max_iters):
            g = grad_F(u, resid, gap, cfg, kernel)
            t = ARMIJO_T0
            accepted = False
            for _ in range(cfg.descent_max_iters):
                u_t = np.clip(u - t * g, 0.0, 1.0)  # P(u - t g)
                move_sq = sum_squares(u - u_t)
                if move_sq == 0.0:
                    break  # projected step goes nowhere: stationary in the box
                hu_t = convolve(kernel, u_t)
                phi_t = phi(u_t, cfg.beta1, cfg.beta2)
                f_t, resid_t, gap_t = bregman_objective(hu_t, w, d, b, cfg, phi_t)
                if f_t <= f0 - ARMIJO_ALPHA * move_sq / t:
                    u, hu, phi_u, f0, resid, gap = u_t, hu_t, phi_t, f_t, resid_t, gap_t
                    accepted = True
                    break
                t *= ARMIJO_BETA
            if not accepted:
                break
        if not np.all(np.isfinite(u)):
            raise FloatingPointError("u_subproblem produced non-finite mask values")

        val = sum_squares(resid) + l1_norm(phi_u)  # the original objective
        if val < best_val:
            best_u, best_hu, best_val = u, hu, val

        phi_b = phi_u + b
        d = shrink(phi_b, 1.0 / cfg.gamma)
        b = phi_b - d
    return as_precision(best_u, np.float64), as_precision(best_hu, np.float64)


def v_subproblem(w: np.ndarray, target: np.ndarray, rho: float,
                 tr: float) -> np.ndarray:
    """Closed-form per-pixel V-update for the hard-threshold misfit.

    Keep W when the threshold image already matches the target, or when
    moving to the threshold boundary costs more than the unit misfit
    ((rho/2)(|W| - sqrt(tr))^2 > 1); otherwise place V at the boundary
    magnitude with the phase of W. The boundary magnitude is nudged one
    part in 1e9 off sqrt(tr) (up for target 1, down for target 0) so that
    the hard threshold resolves the right way despite rounding, attaining
    the infimum of the per-pixel cost.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0.0 < tr < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    w = np.asarray(w)
    target = np.asarray(target, dtype=float)
    root = np.sqrt(tr)
    absw = np.abs(w)
    printed = _optics.image_threshold(absw ** 2, tr)
    match = printed == target
    move_cost = 0.5 * rho * (absw - root) ** 2
    keep = match | (move_cost > 1.0)

    phase = np.where(absw > 0, w / np.where(absw > 0, absw, 1.0), 1.0)
    boundary_mag = np.where(target == 1.0, root * (1.0 + 1e-9),
                            root * (1.0 - 1e-9))
    return np.where(keep, w, boundary_mag * phase)


def dual_update(p: np.ndarray, v: np.ndarray, hu: np.ndarray,
                rho: float) -> np.ndarray:
    """P <- P + rho (V - HU)."""
    return p + rho * (v - hu)


# The polish scores a pass's candidates against the critical band in chunks
# of at most this many (candidate, band pixel) pairs, so its temporaries
# stay under about 1 MB
POLISH_PAIRS = 1 << 14


def _boundary(b: np.ndarray) -> np.ndarray:
    """Flat C-order indices of the pixels of the 0/1 grid b that have a
    4-neighbour of the other value."""
    edge = np.zeros(b.shape, dtype=bool)
    rows, cols = b[1:] != b[:-1], b[:, 1:] != b[:, :-1]
    edge[1:] |= rows
    edge[:-1] |= rows
    edge[:, 1:] |= cols
    edge[:, :-1] |= cols
    return np.flatnonzero(edge)


def _critical(e: np.ndarray, m: float, tr: float) -> np.ndarray:
    """The pixels whose print one flip can change: adding a d with |d| <= m
    moves |E|^2 by at most 2|E| m + m^2, padded by 1% and 1e-12 against
    rounding."""
    a = np.abs(e)
    return np.abs(a * a - tr) <= (2.0 * a * m + m * m) * 1.01 + 1e-12


def polish_binary(u: np.ndarray, target: np.ndarray, kernel: PsfKernel,
                  tr: float) -> np.ndarray:
    """Binarize U at 0.5 and improve the binary mask B by exact pixel flips
    (Liu & Zakhor, IEEE Trans. Semicond. Manuf., 1992); returns B, whose
    print misses no more pixels than that of U binarized at 0.5.

    B is imaged once by convolve into E, in float64 (complex128 under a
    complex kernel). Each pass takes the pixels of B with a 4-neighbour of
    the other value, at the start of the pass, and visits them in C order.
    Flipping pixel p adds s h[q - p + c] to E_q, s = +1 for 0 -> 1 and -1
    for 1 -> 0, c = (k - 1) // 2, over the k x k window of p; the flip is
    taken only if it strictly lowers the count of mismatched pixels
    (optics.image_threshold of optics.aerial_image against the target) in
    that window, and then E is updated in place over the window. The
    polish stops after a pass that takes no flip, and takes no convolution
    after its one image.

    Only the pixels of _critical's band can change print under one flip,
    so each candidate is scored against the band alone, as one gather per
    chunk of POLISH_PAIRS pairs; the first candidate that improves is
    flipped, the band is updated over its window, and scoring resumes
    after it. Every sum and comparison is the plain loop's over the whole
    window, on the same operands, so the flips and E are that loop's bit
    for bit (tests/oracles.py, polish_oracle), at a fraction of its time.
    E drifts from a fresh image of B by rounding only.
    """
    b = (np.asarray(u) >= 0.5).astype(float)
    target = as_binary(target)
    e = np.ascontiguousarray(convolve(kernel, b))  # flat_e views it
    h = kernel.samples if np.iscomplexobj(e) else kernel.samples.real
    n, k = b.shape[0], h.shape[0]
    c = (k - 1) // 2
    m = float(np.abs(h).max())
    flat_h, flat_e, flat_t = h.ravel(), e.reshape(-1), target.ravel() == 1.0
    crit = _critical(e, m, tr)
    flipped = True
    while flipped:
        flipped = False
        cand = _boundary(b)
        pr, pc = np.divmod(cand, n)
        sign = 1.0 - 2.0 * b.ravel()[cand]
        i = 0
        while i < cand.size:
            band = np.flatnonzero(crit)
            qr, qc = np.divmod(band, n)
            eq, tq = flat_e[band], flat_t[band]
            missed = _optics.image_threshold(aerial_image(eq), tr) != tq
            step = max(1, POLISH_PAIRS // max(1, band.size))
            hit = None
            while hit is None and i < cand.size:
                chunk = slice(i, i + step)
                dr = qr - pr[chunk, None] + c
                dc = qc - pc[chunk, None] + c
                inside = (dr >= 0) & (dr < k) & (dc >= 0) & (dc < k)
                trial = flat_h[np.where(inside, dr * k + dc, 0)]
                trial *= sign[chunk, None]
                trial += eq
                after = (_optics.image_threshold(aerial_image(trial), tr)
                         != tq) & inside
                change = (np.count_nonzero(after, axis=1)
                          - np.count_nonzero(missed & inside, axis=1))
                better = np.flatnonzero(change < 0)
                if better.size:
                    hit = i + int(better[0])
                i += step
            if hit is None:
                break
            pi, pj = pr[hit], pc[hit]
            r0, c0 = max(0, pi - c), max(0, pj - c)
            window = (slice(r0, min(n, pi - c + k)), slice(c0, min(n, pj - c + k)))
            e[window] += sign[hit] * h[r0 - pi + c:window[0].stop - pi + c,
                                       c0 - pj + c:window[1].stop - pj + c]
            crit[window] = _critical(e[window], m, tr)
            b[pi, pj] = 1.0 - b[pi, pj]
            flipped = True
            i = hit + 1
    return b


def _check_finite(name: str, value: np.ndarray, iteration: int) -> None:
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(
            f"non-finite values in {name} at outer iteration {iteration}")


def admm_optimize(target: np.ndarray, optics_cfg: _optics.OpticsConfig,
                  cfg: SolverConfig,
                  progress: Optional[Callable[[ConvergenceRecord], None]] = None,
                  kernel: Optional[PsfKernel] = None,
                  ) -> tuple[np.ndarray, list[ConvergenceRecord]]:
    """Run the full ADMM loop and return (binary mask, records).

    Initialization: U = target, V = H*U, P = all ones. V, P and both W take
    the dtype of the image HU: real for a real (in-focus) PSF, complex for
    a complex one. Each outer iteration forms W = V + P/rho, solves the
    U-subproblem, applies the closed-form V-update at W = HU - P/rho, and
    ascends the dual. Runs outer_max_iters iterations, and stops early
    only when the printed image matches the target (EPE 0), which no later
    iterate can beat. The first outer iterate with the lowest EPE is then
    binarized and polished by polish_binary, at one convolution, and that
    binary mask is returned. It prints no worse than that iterate
    binarized at 0.5, but above or below the iterate's own EPE on record;
    so running longer can reach a lower EPE on record whose polished mask
    prints worse.
    The resist threshold comes from optics_cfg; a given kernel supplies
    only its samples.
    """
    target = as_binary(target)
    if kernel is None:
        kernel = _optics.build_psf(optics_cfg)
    tr, rho = optics_cfg.threshold, cfg.rho

    u = target.astype(float)
    hu = v = convolve(kernel, u)
    p = np.ones_like(hu)

    records: list[ConvergenceRecord] = []
    best_u, best_err = u, np.inf
    for it in range(1, cfg.outer_max_iters + 1):
        p_rho = p / rho
        w_u = v + p_rho
        u_new, hu = u_subproblem(w_u, u, hu, cfg, kernel)
        step_accepted = bool(np.any(u_new != u))
        u = u_new
        w_v = hu - p_rho
        v_new = v_subproblem(w_v, target, rho, tr)
        p = dual_update(p, v_new, hu, rho)
        for name, val in (("U", u), ("V", v_new), ("P", p)):
            _check_finite(name, val, it)

        printed = _optics.image_threshold(_optics.aerial_image(hu), tr)
        err = EvaluationReport(printed != target).error
        if err < best_err:
            best_u, best_err = u, err
        rec = ConvergenceRecord(
            iteration=it,
            lagrangian=augmented_lagrangian(u, hu, v_new, p, target, tr, cfg),
            epe_error=err,
            primal_residual=l2_norm(v_new - hu),
            step_accepted=step_accepted,
            v_change=l2_norm(v_new - v),
        )
        v = v_new
        records.append(rec)
        if progress is not None:
            progress(rec)
        if err == 0.0:
            break
    return polish_binary(best_u, target, kernel, tr), records


@dataclass
class TraceReport:
    """Summary of the convergence monitors over a completed run."""

    nonincreasing_fraction: float
    first_quarter_mean: float
    last_quarter_mean: float


def lagrangian_trace_check(records: list[ConvergenceRecord]) -> TraceReport:
    """Report Lagrangian descent and V-increment decay."""
    if not records:
        raise ValueError("no records to check")
    lag = [r.lagrangian for r in records]
    if len(lag) == 1:
        frac = 1.0
    else:
        ok = sum(
            1 for a, b in zip(lag, lag[1:])
            if b <= a + 1e-8 * max(1.0, abs(a)))
        frac = ok / (len(lag) - 1)
    v_changes = [r.v_change for r in records]
    q = max(1, len(v_changes) // 4)
    return TraceReport(
        nonincreasing_fraction=frac,
        first_quarter_mean=float(np.mean(v_changes[:q])),
        last_quarter_mean=float(np.mean(v_changes[-q:])),
    )
