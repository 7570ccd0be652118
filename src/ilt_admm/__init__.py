"""Inverse lithography mask synthesis: a coherent imaging model and an
ADMM solver with total-variation and binarity regularization."""

from .grids import inner, l2_norm, project_box
from .metrics import EvaluationReport, epe_error, epe_map, evaluate
from .optics import (OpticsConfig, PsfKernel, aerial_image, build_psf,
                     convolve, image_sigmoid, image_threshold)
from .regularization import binarity_penalty, diff_forward, phi, shrink, tv_norm
from .solver import (ConvergenceRecord, SolverConfig, admm_optimize,
                     augmented_lagrangian, check_rho_condition, dual_update,
                     estimate_lipschitz, grad_F, grad_h, lagrangian_trace_check,
                     u_subproblem, v_subproblem)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
