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

#: boundary samples per curve in every metric
SAMPLES = 512


#: points of the first sample per block of ``hausdorff``'s pairwise distances
HAUSDORFF_ROWS = 64


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point samples (n, 2).

    The squared distances dx^2 + dy^2 are formed in blocks of HAUSDORFF_ROWS
    points of a and reduced to each point's nearest one; the square root, which
    is monotone, is taken of the two largest, so every minimum is that of the
    whole (n_a, n_b) distance array, bit for bit."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty point set")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    near_a, near_b = np.empty(len(a)), np.full(len(b), np.inf)
    for lo in range(0, len(a), HAUSDORFF_ROWS):
        block = a[lo : lo + HAUSDORFF_ROWS, None, :]
        dx, dy = block[..., 0] - b[:, 0], block[..., 1] - b[:, 1]
        d2 = dx * dx
        d2 += dy * dy
        near_a[lo : lo + HAUSDORFF_ROWS] = d2.min(axis=1)
        np.minimum(near_b, d2.min(axis=0), out=near_b)
    return float(max(np.sqrt(near_a.max()), np.sqrt(near_b.max())))


def curve_hausdorff(recon: ParametricCurve, truth: ParametricCurve) -> float:
    return hausdorff(recon.sample(SAMPLES), truth.sample(SAMPLES))


def _in_arc(angles: np.ndarray, arc) -> np.ndarray:
    lo, hi = arc
    span = hi - lo
    return np.mod(angles - lo, 2.0 * np.pi) <= span + 1e-12


def arc_hausdorff(recon: ParametricCurve, truth: ParametricCurve, arc) -> float:
    """Hausdorff distance restricted to samples whose polar angle is in arc."""
    pa = recon.sample(SAMPLES)
    pb = truth.sample(SAMPLES)
    ka = _in_arc(np.arctan2(pa[:, 1], pa[:, 0]), arc)
    kb = _in_arc(np.arctan2(pb[:, 1], pb[:, 0]), arc)
    return hausdorff(pa[ka], pb[kb])


def radial_l2(recon: ParametricCurve, truth_radius) -> float:
    """L2(0, 2pi) distance between radial functions (star-shaped truth).

    ``truth_radius`` is either a constant or a callable of the angle grid.
    """
    t = np.linspace(0.0, 2.0 * np.pi, SAMPLES, endpoint=False)
    pts = recon.point(t)
    r = np.linalg.norm(pts, axis=-1)
    want = truth_radius(t) if callable(truth_radius) else float(truth_radius)
    return float(np.sqrt(np.mean((r - want) ** 2)))
