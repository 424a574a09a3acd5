"""Boundary error metrics between a reconstruction and the true curve.

Truths given by a radial function of the polar angle (the disk, custom
radial coefficients) compare radial functions in L2 over the circle.  The
starfish and the kite are star-shaped about the origin too, but are
parameterized by a parameter other than the polar angle (the kite,
x(s) = (cos s + 0.65 cos 2s - 0.65, 1.5 sin s), has no closed-form
r(theta)), so general truths use the symmetric Hausdorff distance between
dense boundary samples, which needs only points.  Arc variants restrict
both sample sets to a polar-angle window, which is how limited-aperture
runs are scored on the illuminated side only.
"""

import numpy as np

from .geometry import ParametricCurve

DEFAULT_SAMPLES = 512


def _pair_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point samples (n, 2)."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty point set")
    d = _pair_distance(a, b)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def curve_hausdorff(
    recon: ParametricCurve, truth: ParametricCurve, n: int = DEFAULT_SAMPLES
) -> float:
    return hausdorff(recon.sample(n), truth.sample(n))


def _in_arc(angles: np.ndarray, arc) -> np.ndarray:
    lo, hi = arc
    span = hi - lo
    return np.mod(angles - lo, 2.0 * np.pi) <= span + 1e-12


def arc_hausdorff(
    recon: ParametricCurve,
    truth: ParametricCurve,
    arc,
    n: int = DEFAULT_SAMPLES,
) -> float:
    """Hausdorff distance restricted to samples whose polar angle is in arc."""
    pa = recon.sample(n)
    pb = truth.sample(n)
    ka = _in_arc(np.arctan2(pa[:, 1], pa[:, 0]), arc)
    kb = _in_arc(np.arctan2(pb[:, 1], pb[:, 0]), arc)
    return hausdorff(pa[ka], pb[kb])


def radial_l2(recon: ParametricCurve, truth_radius, n: int = DEFAULT_SAMPLES) -> float:
    """L2(0, 2pi) distance between radial functions (star-shaped truth).

    ``truth_radius`` is either a constant or a callable of the angle grid.
    """
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = recon.point(t)
    r = np.linalg.norm(pts, axis=-1)
    want = truth_radius(t) if callable(truth_radius) else float(truth_radius)
    return float(np.sqrt(np.mean((r - want) ** 2)))
