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
    """A mask's EPE: missed, the bool map printed != target (one byte per
    pixel), kept as given, not copied. The rest is derived from it on each
    access: nonzero_epe_pixels, the count of its True pixels; error, the
    map's l2 norm sqrt(count) exactly; and epe, the map as 0/1 floats. A
    kept report holds the bool map only: 20.7 KB at 144², not the float
    map's 166 KB."""

    missed: np.ndarray

    @property
    def nonzero_epe_pixels(self) -> int:
        """The count of missed pixels."""
        return int(np.count_nonzero(self.missed))

    @property
    def error(self) -> float:
        """The EPE map's l2 norm, sqrt(nonzero_epe_pixels)."""
        return math.sqrt(self.nonzero_epe_pixels)

    @property
    def epe(self) -> np.ndarray:
        """The EPE map: missed as 0/1 float64, a fresh array each call."""
        return self.missed.astype(float)


def epe_report(output: np.ndarray, target: np.ndarray) -> EvaluationReport:
    """The report of two 0/1 grids of one shape (GridError otherwise)."""
    output = as_binary(output)
    target = as_binary(target)
    check_same_shape(output, target)
    return EvaluationReport(output != target)


def epe_error(output: np.ndarray, target: np.ndarray) -> float:
    """l2 norm of the EPE map: sqrt(#differing pixels). No package path
    calls it; perfbench/tracing.py wraps it by name."""
    return epe_report(output, target).error


def evaluate(mask: np.ndarray, target: np.ndarray, optics_cfg: OpticsConfig,
             kernel: PsfKernel | None = None) -> EvaluationReport:
    """Image the mask through the forward chain (convolve, aerial image,
    hard threshold) and compare the printed pattern with the target.

    Evaluation always uses the hard threshold: it is the printed wafer
    pattern, not the sigmoid surrogate used inside the solver. The print
    is optics.image_threshold's bool map, so only the target is checked
    for binarity; the report is that of printed != target.

    The mask must be real, finite and of the target's shape (GridError
    otherwise). optics.convolve images it from its cached half spectrum
    under a complex (defocused) kernel, so each of up to 16 masks is
    transformed once, not once per focus setting.
    """
    target = as_binary(target)
    mask = as_grid(mask)
    check_same_shape(mask, target)
    if kernel is None:
        kernel = _optics.build_psf(optics_cfg)
    v = _optics.convolve(kernel, mask)
    printed = _optics.image_threshold(_optics.aerial_image(v),
                                      optics_cfg.threshold)
    return EvaluationReport(printed != target)
