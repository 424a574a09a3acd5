"""Reconstruction of rigid obstacles in a 2D elastic medium from
near-field scattered-wave measurements on a circle.

The pipeline: simulate multi-source data with a method-of-fundamental-
solutions forward solver (``forward``), expand the scattered field in a
truncated Fourier-Bessel basis extracted directly from the circle data
(``modal``), and drive a forward-solver-free Newton iteration on a
trigonometric boundary parameterization (``newton``).  ``verify`` holds
the numerical battery for the analysis-level inequalities and ``cli``
the batch commands.
"""

from .config import ReconstructionConfig, make_record, make_shape, solve_truth
from .elastic import LameSystem, PointSource, grad_incident_field, green_tensor, incident_field
from .forward import disk_series, record_from_disk_series, ring_sources, simulate, solve_mfs
from .modal import eval_field, modal_rhs, solve_modal
from .newton import reconstruct

__version__ = "0.1.0"

__all__ = [
    "ReconstructionConfig",
    "make_record",
    "make_shape",
    "solve_truth",
    "LameSystem",
    "PointSource",
    "grad_incident_field",
    "green_tensor",
    "incident_field",
    "disk_series",
    "record_from_disk_series",
    "ring_sources",
    "simulate",
    "solve_mfs",
    "eval_field",
    "modal_rhs",
    "solve_modal",
    "reconstruct",
]
