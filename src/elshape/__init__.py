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

from .config import ReconstructionConfig, load_config, make_shape
from .elastic import (
    LameSystem,
    PointSource,
    grad_incident_field,
    green_tensor,
    helmholtz_phi,
    incident_field,
    incident_field_directional,
)
from .forward import (
    MfsSolution,
    add_noise,
    disk_series,
    record_from_disk_series,
    ring_sources,
    simulate,
    solve_mfs,
)
from .geometry import ParametricCurve, disk, kite, radial_curve, starfish
from .metrics import arc_hausdorff, curve_hausdorff, radial_l2
from .modal import (
    ModalField,
    ModalRhs,
    choose_truncation,
    eval_field,
    eval_gradient,
    eval_polar_derivs,
    eval_radial,
    extract_field,
    limited_aperture_fit,
    modal_matrix,
    modal_rhs,
    solve_modal,
)
from .newton import (
    ReconRun,
    StarCurve,
    assemble_system,
    newton_step,
    reconstruct,
    relative_update,
)
from .records import ScatterRecord

__version__ = "0.1.0"

__all__ = [
    "LameSystem",
    "PointSource",
    "helmholtz_phi",
    "green_tensor",
    "incident_field",
    "grad_incident_field",
    "incident_field_directional",
    "ParametricCurve",
    "kite",
    "starfish",
    "disk",
    "radial_curve",
    "MfsSolution",
    "solve_mfs",
    "disk_series",
    "simulate",
    "ring_sources",
    "record_from_disk_series",
    "add_noise",
    "ScatterRecord",
    "ModalField",
    "ModalRhs",
    "modal_rhs",
    "modal_matrix",
    "solve_modal",
    "eval_field",
    "eval_polar_derivs",
    "eval_radial",
    "eval_gradient",
    "limited_aperture_fit",
    "extract_field",
    "choose_truncation",
    "StarCurve",
    "assemble_system",
    "newton_step",
    "relative_update",
    "reconstruct",
    "ReconRun",
    "ReconstructionConfig",
    "load_config",
    "make_shape",
    "curve_hausdorff",
    "arc_hausdorff",
    "radial_l2",
]
