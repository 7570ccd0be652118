"""Edge placement error: the pixelwise |printed - target| map and its
l2 norm, the scalar quality measure for a mask."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optics as _optics
from .grids import as_binary, as_grid, check_same_shape, l2_norm
from .optics import OpticsConfig, PsfKernel


@dataclass
class EvaluationReport:
    epe: np.ndarray
    error: float
    nonzero_epe_pixels: int


def epe_map(output: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise |output - target|."""
    output = as_binary(output)
    target = as_binary(target)
    check_same_shape(output, target)
    return np.abs(output - target)


def epe_error(output: np.ndarray, target: np.ndarray) -> float:
    """l2 norm of the EPE map; sqrt(#differing pixels) for binary inputs."""
    return l2_norm(epe_map(output, target))


def evaluate(mask: np.ndarray, target: np.ndarray, optics_cfg: OpticsConfig,
             kernel: PsfKernel | None = None) -> EvaluationReport:
    """Image the mask through the forward chain (convolve, aerial image,
    hard threshold) and compare the printed pattern with the target.

    Evaluation always uses the hard threshold: it is the printed wafer
    pattern, not the sigmoid surrogate used inside the solver. The printed
    image is 0/1 by construction, so only the target is checked for
    binarity. Between 0/1 grids |printed - target| is the indicator of
    printed != target, and the error is sqrt(#differing pixels): the l2
    norm of that map exactly, since its sum of squares is an integer.

    The mask must be real, finite and of the target's shape (GridError
    otherwise). Once checked, it is imaged by optics.convolve_cached: with
    a complex (defocused) kernel its spectrum comes from an LRU of the 16
    latest masks, keyed by their bytes, so a process window of up to 16
    masks transforms each once rather than once per focus setting. The
    report is that of optics.convolve bit for bit.
    """
    target = as_binary(target)
    mask = as_grid(mask)
    check_same_shape(mask, target)
    if kernel is None:
        kernel = _optics.build_psf(optics_cfg)
    v = _optics.convolve_cached(kernel, mask)
    printed = _optics.image_threshold(_optics.aerial_image(v), optics_cfg.threshold)
    missed = printed != target
    count = int(np.count_nonzero(missed))
    return EvaluationReport(epe=missed.astype(float), error=math.sqrt(count),
                            nonzero_epe_pixels=count)
