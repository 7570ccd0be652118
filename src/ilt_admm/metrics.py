"""Edge placement error: the map and count of the pixels where the printed
pattern and the target differ, and the map's l2 norm, a mask's quality."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optics as _optics
from .grids import as_binary, as_grid, check_same_shape
from .optics import OpticsConfig, PsfKernel


@dataclass
class EvaluationReport:
    epe: np.ndarray
    error: float
    nonzero_epe_pixels: int


def mismatch_report(missed: np.ndarray) -> EvaluationReport:
    """The report of the bool map printed != target: the map as 0/1 floats,
    its count (on the bool) and sqrt(count), the map's l2 norm exactly."""
    count = int(np.count_nonzero(missed))
    return EvaluationReport(epe=missed.astype(float), error=math.sqrt(count),
                            nonzero_epe_pixels=count)


def epe_report(output: np.ndarray, target: np.ndarray) -> EvaluationReport:
    """The report of two 0/1 grids of one shape (GridError otherwise)."""
    output = as_binary(output)
    target = as_binary(target)
    check_same_shape(output, target)
    return mismatch_report(output != target)


def epe_map(output: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise |output - target|."""
    return epe_report(output, target).epe


def epe_error(output: np.ndarray, target: np.ndarray) -> float:
    """l2 norm of the EPE map: sqrt(#differing pixels)."""
    return epe_report(output, target).error


def evaluate(mask: np.ndarray, target: np.ndarray, optics_cfg: OpticsConfig,
             kernel: PsfKernel | None = None) -> EvaluationReport:
    """Image the mask through the forward chain (convolve, aerial image,
    hard threshold) and compare the printed pattern with the target.

    Evaluation always uses the hard threshold: it is the printed wafer
    pattern, not the sigmoid surrogate used inside the solver. The printed
    image is 0/1 by construction, so only the target is checked for
    binarity; the report is mismatch_report's of printed != target.

    The mask must be real, finite and of the target's shape (GridError
    otherwise). Once checked, it is imaged by optics.convolve_cached: for
    complex (defocused) kernels each of up to 16 masks is transformed once,
    not once per focus setting; the report is optics.convolve's bit for bit.
    """
    target = as_binary(target)
    mask = as_grid(mask)
    check_same_shape(mask, target)
    if kernel is None:
        kernel = _optics.build_psf(optics_cfg)
    v = _optics.convolve_cached(kernel, mask)
    printed = _optics.image_threshold(_optics.aerial_image(v), optics_cfg.threshold)
    return mismatch_report(printed != target)
