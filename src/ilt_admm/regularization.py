"""The splitting map Phi(U) = (b1*Dx U, b1*Dy U, b2*U(1-U)), the adjoint of
its differences, and the soft-threshold operator.

Phi(U), and the Bregman variables d and b of the U-step, are stacked
(3, n, n) float arrays: index 0 is the x difference, 1 the y difference,
2 the binarity penalty. The paper's regularizer
b1 TV(U) + b2 ||U(1-U)||_1 is ||Phi(U)||_1, grids.l1_norm(phi(u, b1, b2)).

Every map casts its input to grids.working_precision and returns that
precision: float32 data, the U-step's state, stays float32, and any other
real data maps as its float64 copy does.
"""

from __future__ import annotations

import numpy as np

from .grids import GridError, as_precision, working_precision


def diff_adjoint(yx: np.ndarray, yy: np.ndarray) -> np.ndarray:
    """Adjoint of phi's differences (Dx, Dy): negative backward differences.

    The trailing column of yx / row of yy is ignored, matching the zero
    closure of the forward differences.
    """
    precision = working_precision(yx, yy)
    yx, yy = as_precision(yx, precision), as_precision(yy, precision)
    out = np.zeros(yx.shape, precision)
    out[:, 0] -= yx[:, 0]
    out[:, 1:-1] += yx[:, :-2] - yx[:, 1:-1]
    out[:, -1] += yx[:, -2]
    out[0, :] -= yy[0, :]
    out[1:-1, :] += yy[:-2, :] - yy[1:-1, :]
    out[-1, :] += yy[-2, :]
    return out


def phi(u: np.ndarray, beta1: float, beta2: float) -> np.ndarray:
    """The splitting map (b1*Dx U, b1*Dy U, b2*U(1-U)) as a (3, n, n) array:
    [0] the forward difference along columns (x), [1] along rows (y), each
    closed by a zero trailing column/row, and [2] the binarity penalty."""
    if u.shape[0] < 2 or u.shape[1] < 2:
        raise GridError("differences need at least a 2x2 grid")
    u = as_precision(u, working_precision(u))
    out = np.empty((3,) + u.shape, u.dtype)
    np.subtract(u[:, 1:], u[:, :-1], out=out[0, :, :-1])
    out[0, :, -1] = 0.0
    np.subtract(u[1:, :], u[:-1, :], out=out[1, :-1, :])
    out[1, -1, :] = 0.0
    out[:2] *= beta1
    np.multiply(beta2, u, out=out[2])
    out[2] *= 1.0 - u
    return out


def shrink(x, kappa: float) -> np.ndarray:
    """Soft threshold sgn(x) * max(|x| - kappa, 0), elementwise."""
    if kappa < 0:
        raise ValueError("shrink parameter must be nonnegative")
    x = np.asarray(x)
    x = as_precision(x, working_precision(x))
    # a Python float takes x's precision; a numpy float64 would promote float32 x
    kappa = float(kappa)
    return np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)
