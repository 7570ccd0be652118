"""Square pixel-grid primitives shared by every other module.

Grids are plain numpy arrays of shape (n, n); the helpers here validate
shapes and provide the handful of elementwise/reduction primitives the
solver needs. The reductions are numpy's pairwise sums, not BLAS: after a
threaded BLAS call OpenBLAS's idle workers spin on the cores the FFTs that
follow need.
"""

from __future__ import annotations

import math

import numpy as np


class GridError(ValueError):
    """Raised for malformed grids: wrong size, non-square, non-finite."""


def as_grid(values, *, complex_ok: bool = False) -> np.ndarray:
    """Validate a square 2-D grid and return it as a float64 or complex
    array, the input itself when it already is one (no copy).

    Raises GridError on non-square shape or non-finite entries.
    """
    a = np.asarray(values)
    if complex_ok:
        a = a.astype(complex) if not np.iscomplexobj(a) else a
    else:
        if np.iscomplexobj(a):
            raise GridError("expected a real grid, got complex data")
        a = a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise GridError(f"grid must be square 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GridError("grid contains non-finite values")
    return a


def as_binary(values) -> np.ndarray:
    """Validate a grid whose every entry is exactly 0 or 1."""
    a = as_grid(values)
    if not np.all((a == 0.0) | (a == 1.0)):
        raise GridError("pattern is not binary (values outside {0, 1})")
    return a


def working_precision(*grids: np.ndarray) -> np.dtype:
    """The package's one precision rule: float32 when numpy promotes the
    grids to float32 or complex64, float64 otherwise (bool, integer,
    float16, float64 and complex128 data alike). Every image, correlation
    (cast once, by optics._operator) and regularization map, and
    sum_squares' squares, run in their inputs' working precision; every
    norm is summed in float64. Only the U-step works in single precision
    (solver.u_subproblem). The outer loop's EPE monitor thresholds the
    U-step's single-precision image and metrics.evaluate a float64 one,
    both by optics.image_threshold in float64, so a pixel within rounding
    of the threshold could split them; on the production run they agree,
    as the acceptance suite checks."""
    single = np.result_type(*grids) in (np.float32, np.complex64)
    return np.dtype(np.float32 if single else np.float64)


def as_precision(grid: np.ndarray, precision) -> np.ndarray:
    """grid cast to the real precision given, complex data to the complex
    type of that precision; a grid already in it is returned itself (no
    copy)."""
    grid = np.asarray(grid)
    if np.iscomplexobj(grid):
        precision = np.result_type(precision, np.complex64)
    return grid.astype(precision, copy=False)


def check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise GridError(f"dimension mismatch: {a.shape} vs {b.shape}")


def sum_squares(x: np.ndarray) -> float:
    """||x||^2, the package's one rule, under every l2 norm and squared
    misfit: the squares of x's real view (re, im interleaved), squared in
    x's precision and summed in float64 in C order whatever x's layout, so
    a transposed grid sums as its copy does. On a real float64 grid it is
    inner(x, x) exactly."""
    x = np.ascontiguousarray(x)
    if np.iscomplexobj(x):
        x = x.view(x.real.dtype)
    return float(np.sum(np.square(x), dtype=np.float64))


def l1_norm(x: np.ndarray) -> float:
    """||x||_1, the package's one rule: |x| taken in x's precision and
    summed in float64 in C order, whatever x's layout. The package takes
    one, the regularizer ||Phi(U)||_1 of the U-step and the Lagrangian."""
    return float(np.sum(np.abs(np.ascontiguousarray(x)), dtype=np.float64))


def l2_norm(x: np.ndarray) -> float:
    return math.sqrt(sum_squares(x))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real part of the Hermitian inner product <a, b>, its products summed
    in C order whatever a's and b's layout, as sum_squares sums."""
    check_same_shape(a, b)
    total = np.sum(np.multiply(a.real, b.real, order="C"))
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        total += np.sum(np.multiply(a.imag, b.imag, order="C"))
    return float(total)
