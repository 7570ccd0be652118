"""Independent brute-force oracles for the test suite. Deliberately slow
and simple: double-loop convolution, dense 1-D search for the V-update,
central-difference gradients, a PSF quadrature over the whole pupil
lattice, the best-focus PSF by plain contractions of the folded
quadrature, and a power series Bessel J1. Nothing here imports the package
they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class OracleResult:
    argmin: complex
    min_value: float


def convolve_naive(kernel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Direct double-sum zero-padded linear convolution, central n x n crop.

    Capped at n <= 32: this is reference semantics, not production code.
    """
    u = np.asarray(u)
    kernel = np.asarray(kernel, dtype=complex)
    n = u.shape[0]
    if n > 32:
        raise ValueError("naive convolution capped at 32x32 inputs")
    k = kernel.shape[0]
    full = np.zeros((n + k - 1, n + k - 1), dtype=complex)
    for i in range(n):
        for j in range(n):
            if u[i, j] != 0:
                full[i:i + k, j:j + k] += u[i, j] * kernel
    s = (k - 1) // 2
    return full[s:s + n, s:s + n]


def _v_cost(v: complex, w: complex, target: float, rho: float, tr: float) -> float:
    t = 1.0 if abs(v) ** 2 >= tr else 0.0
    return (t - target) ** 2 + 0.5 * rho * abs(v - w) ** 2


def v_oracle(w: complex, target: float, rho: float, tr: float,
             points: int = 100_000, full_2d: bool = False) -> OracleResult:
    """Brute-force minimizer of the per-pixel V-update cost.

    The cost depends on V only through |V| and |V - W|, so the optimum lies
    on the ray through W; we search the magnitude densely and add the
    analytic candidates |W|, sqrt(tr), and sqrt(tr) - 1e-9 (the infimum
    side for target 0). full_2d=True instead scans a 200x200 grid of the
    complex plane, validating the ray reduction itself.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    w = complex(w)
    root = np.sqrt(tr)
    phase = w / abs(w) if abs(w) > 0 else 1.0 + 0.0j

    if full_2d:
        lim = abs(w) + 2.0 * root
        xs = np.linspace(-lim, lim, 200)
        best, best_v = np.inf, 0j
        for x in xs:
            for y in xs:
                v = complex(x, y)
                c = _v_cost(v, w, target, rho, tr)
                if c < best:
                    best, best_v = c, v
        return OracleResult(argmin=best_v, min_value=best)

    mags = np.linspace(0.0, abs(w) + 2.0 * root, points)
    candidates = np.concatenate([mags, [abs(w), root, root - 1e-9]])
    best, best_m = np.inf, 0.0
    for m in candidates:
        if m < 0:
            continue
        c = _v_cost(m * phase, w, target, rho, tr)
        if c < best:
            best, best_m = c, m
    return OracleResult(argmin=best_m * phase, min_value=best)


def v_oracle_min_batch(w: np.ndarray, target: np.ndarray, rho: np.ndarray,
                       tr: float, points: int = 2000) -> np.ndarray:
    """Vectorized dense-search minimum of the per-pixel V-update cost for
    many (W, I, rho) cases at once; same ray reduction as v_oracle with a
    coarser magnitude grid plus the analytic candidates."""
    w = np.asarray(w, dtype=complex).ravel()
    target = np.asarray(target, dtype=float).ravel()
    rho = np.asarray(rho, dtype=float).ravel()
    absw = np.abs(w)
    root = np.sqrt(tr)
    # dense magnitudes per case, then the analytic candidates appended
    frac = np.linspace(0.0, 1.0, points)
    mags = np.outer(absw + 2.0 * root, frac)
    extra = np.stack([absw,
                      np.full_like(absw, root),
                      np.full_like(absw, root - 1e-9),
                      np.full_like(absw, root + 1e-9)], axis=1)
    mags = np.concatenate([mags, extra], axis=1)
    misfit = ((mags ** 2 >= tr).astype(float) - target[:, None]) ** 2
    cost = misfit + 0.5 * rho[:, None] * (mags - absw[:, None]) ** 2
    return cost.min(axis=1)


def fd_gradient(f: Callable[[np.ndarray], float], u: np.ndarray,
                h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field, one coordinate at a
    time. For complex grids the real and imaginary parts are separate
    coordinates and the result is returned as a complex grid.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    u = np.asarray(u)
    if np.iscomplexobj(u):
        directions = (1.0, 1.0j)
        out = np.zeros(u.shape, dtype=complex)
    else:
        directions = (1.0,)
        out = np.zeros(u.shape, dtype=float)
    for idx in np.ndindex(u.shape):
        for direction in directions:
            e = np.zeros(u.shape, dtype=out.dtype)
            e[idx] = direction * h
            out[idx] += direction * (f(u + e) - f(u - e)) / (2.0 * h)
    return out


def psf_full_quadrature(wavelength_nm: float, numerical_aperture: float,
                        defocus_nm: float, pixel_size_nm: float,
                        kernel_size: int) -> np.ndarray:
    """The normalized PSF samples by the pupil quadrature evaluated on the
    whole (2m+1)^2 frequency lattice, with no symmetry used: the pupil
    (cutoff NA/lambda, defocus phase exp(-i 2pi/lambda D sqrt(1 - f^2
    lambda^2))) is sampled at step 1/(64 k pixel), as the package's
    PUPIL_OVERSAMPLE asks, and summed onto the kernel pixels by one matrix
    product per axis."""
    k = kernel_size
    cutoff = numerical_aperture / wavelength_nm
    df = 1.0 / (64 * k * pixel_size_nm)
    m = int(np.ceil(cutoff / df))
    f = np.arange(-m, m + 1) * df
    fx, fy = np.meshgrid(f, f, indexing="ij")
    f2 = fx * fx + fy * fy
    lam = wavelength_nm
    w = defocus_nm * np.sqrt(np.clip(1.0 - f2 * lam * lam, 0.0, None))
    pupil = np.where(np.sqrt(f2) <= cutoff,
                     np.exp(-1j * (2.0 * np.pi / lam) * w), 0.0 + 0.0j)
    x = (np.arange(k) - (k - 1) / 2.0) * pixel_size_nm
    ex = np.exp(2j * np.pi * np.outer(x, f))
    h = ex @ pupil @ ex.T
    return h / h.sum()


def psf_focus_einsum(cosines: np.ndarray, disc: np.ndarray,
                     kernel_size: int) -> np.ndarray:
    """The normalized best-focus PSF by two plain contractions of the
    folded quadrature, h = C Q C^T on the first ceil(k/2) pixels, mirrored
    into k x k: C is the cosine table and Q the 0/1 pupil quadrant. einsum
    adds each sum over the pupil in order from +0.0, so this is the
    reference for the kernel's bytes, not only its values."""
    rows = np.einsum("aj,jl->al", cosines, disc, optimize=False)
    corner = np.einsum("al,bl->ab", rows, cosines, optimize=False)
    rest = kernel_size - corner.shape[0]
    top = np.concatenate([corner, corner[:, :rest][:, ::-1]], axis=1)
    h = np.concatenate([top, top[:rest][::-1]]).astype(complex)
    return h / h.sum()


def bessel_j1(x: float) -> float:
    """J1 by its power series, terms added until the ratio drops below 1e-16.

    Only used to cross-check the PSF radial profile; capped at |x| < 50
    where the series is still well conditioned in double precision.
    """
    if abs(x) >= 50:
        raise ValueError("series evaluation capped at |x| < 50")
    half = x / 2.0
    term = half
    total = term
    k = 0
    while True:
        k += 1
        term *= -(half * half) / (k * (k + 1))
        total += term
        if abs(term) <= 1e-16 * max(abs(total), 1e-300):
            return float(total)
