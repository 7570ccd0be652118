"""Discrete TV operators, the binarity penalty, the combined splitting map
Phi(U) = (b1*Dx U, b1*Dy U, b2*U(1-U)), and the soft-threshold operator.

Phi(U), and the Bregman variables d and b of the U-step, are stacked
(3, n, n) float arrays: index 0 is the x difference, 1 the y difference,
2 the binarity penalty.

Every map returns its input's floating precision (float64 for integer
input), so the U-step's float32 state stays float32; the norms sum in
float64 whatever the input's precision.
"""

from __future__ import annotations

import numpy as np

from .grids import GridError


def _precision(*arrays: np.ndarray) -> np.dtype:
    """The inputs' floating dtype: float32 stays float32, integers become
    float64."""
    return np.result_type(*arrays, 0.0)


def _differences(u: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> None:
    """Write the forward differences of u along columns into dx and along
    rows into dy, closing the trailing column/row with zeros."""
    if u.shape[0] < 2 or u.shape[1] < 2:
        raise GridError("differences need at least a 2x2 grid")
    np.subtract(u[:, 1:], u[:, :-1], out=dx[:, :-1])
    dx[:, -1] = 0.0
    np.subtract(u[1:, :], u[:-1, :], out=dy[:-1, :])
    dy[-1, :] = 0.0


def diff_forward(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along columns (x) and rows (y); the trailing
    column/row is closed with zeros."""
    dx = np.empty(u.shape, _precision(u))
    dy = np.empty_like(dx)
    _differences(u, dx, dy)
    return dx, dy


def diff_adjoint(yx: np.ndarray, yy: np.ndarray) -> np.ndarray:
    """Adjoint of diff_forward: negative backward differences.

    The trailing column of yx / row of yy is ignored, matching the zero
    closure of the forward operator.
    """
    out = np.zeros(yx.shape, _precision(yx, yy))
    out[:, 0] -= yx[:, 0]
    out[:, 1:-1] += yx[:, :-2] - yx[:, 1:-1]
    out[:, -1] += yx[:, -2]
    out[0, :] -= yy[0, :]
    out[1:-1, :] += yy[:-2, :] - yy[1:-1, :]
    out[-1, :] += yy[-2, :]
    return out


def tv_norm(u: np.ndarray) -> float:
    """Anisotropic total variation: l1 of both forward-difference fields."""
    dx, dy = diff_forward(u)
    return float(np.sum(np.abs(dx), dtype=np.float64)
                 + np.sum(np.abs(dy), dtype=np.float64))


def binarity_penalty(u: np.ndarray) -> float:
    """Sum of |u(1-u)| over pixels; zero exactly on binary grids."""
    return float(np.sum(np.abs(u * (1.0 - u)), dtype=np.float64))


def phi(u: np.ndarray, beta1: float, beta2: float) -> np.ndarray:
    """The splitting map (b1*Dx U, b1*Dy U, b2*U(1-U)) as a (3, n, n) array:
    [0] the x difference, [1] the y difference, [2] the binarity penalty."""
    out = np.empty((3,) + u.shape, _precision(u))
    _differences(u, out[0], out[1])
    out[:2] *= beta1
    np.multiply(beta2, u, out=out[2])
    out[2] *= 1.0 - u
    return out


def shrink(x, kappa: float) -> np.ndarray:
    """Soft threshold sgn(x) * max(|x| - kappa, 0), elementwise."""
    if kappa < 0:
        raise ValueError("shrink parameter must be nonnegative")
    x = np.asarray(x)
    # a Python float takes x's precision; a numpy float64 would promote float32 x
    kappa = float(kappa)
    return np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)
