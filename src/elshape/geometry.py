"""Closed boundary curves: named obstacle shapes and radial trig curves.

Every curve is a table of Fourier coefficients on [0, 2*pi),
x(t) = sum_{j=0..J} C_j cos jt + S_j sin jt with C_j, S_j in R^2, so its
tangent is the table (j S_j, -j C_j) and no derivative is written by hand.
Radial curves r(t) (cos t, sin t), r of degree J, are ``StarCurve``s with
coefficients (a0, a_1..a_J, b_1..b_J); their tables reach harmonic J + 1.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParametricCurve", "StarCurve", "basis_matrix", "kite", "starfish", "disk", "radial_curve",
]

#: grid of the StarCurve admissibility check min_t r(t)
ADMISSIBILITY_GRID = 256


@dataclass(frozen=True, eq=False)
class ParametricCurve:
    """Closed non-self-intersecting curve x(t) = sum_j cos[j] cos jt + sin[j] sin jt;
    ``cos`` and ``sin`` are read-only (J + 1, 2) tables, row j harmonic j."""

    cos: np.ndarray
    sin: np.ndarray
    name: str = "curve"

    def __post_init__(self):
        cos, sin = np.array(self.cos, dtype=float), np.array(self.sin, dtype=float)
        if cos.ndim != 2 or cos.shape[1:] != (2,) or cos.shape != sin.shape:
            raise ValueError("cos and sin tables must share one shape (J + 1, 2)")
        if not (np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))):
            raise ValueError("coefficient tables must be finite")
        cos.flags.writeable = sin.flags.writeable = False
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)

    @property
    def mirrored(self) -> bool:
        """x(-t) = (x_1(t), -x_2(t)): no cos term in x_2, no sin term in x_1."""
        return not (np.any(self.cos[:, 1]) or np.any(self.sin[:, 0]))

    def point(self, t) -> np.ndarray:
        jt = np.asarray(t, dtype=float)[..., None] * np.arange(self.cos.shape[0])
        return np.cos(jt) @ self.cos + np.sin(jt) @ self.sin

    def tangent(self, t) -> np.ndarray:
        """x'(t): the point of the derivative table (j S_j, -j C_j)."""
        j = np.arange(self.cos.shape[0])[:, None]
        return ParametricCurve(j * self.sin, -j * self.cos).point(t)

    def sample(self, n: int) -> np.ndarray:
        """Boundary points at n equispaced parameters, shape (n, 2)."""
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return self.point(t)

    def centroid(self) -> np.ndarray:
        return self.sample(512).mean(axis=0)

    def max_radius(self) -> float:
        return float(np.max(np.hypot(*self.sample(512).T)))  # no overflow on huge curves

    def contains(self, x):
        """Winding-number test of points x, shape (..., 2), against the 720-point polygon,
        sampled once, skipped for points beyond its farthest vertex's radius (outside):
        a bool array of shape x.shape[:-1], a bool for one point."""
        poly, x = self.sample(720), np.asarray(x, dtype=float)
        near = np.linalg.norm(x, axis=-1) <= np.max(np.linalg.norm(poly, axis=-1))
        rel = poly - x[near][:, None, :]
        ang = np.arctan2(rel[..., 1], rel[..., 0])
        dang = np.diff(ang, axis=-1, append=ang[..., :1])
        dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
        inside = np.zeros(x.shape[:-1], dtype=bool)
        inside[near] = np.abs(dang.sum(axis=-1)) > np.pi
        return bool(inside) if inside.ndim == 0 else inside


def kite() -> ParametricCurve:
    """x(t) = (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""
    cos, sin = np.zeros((3, 2)), np.zeros((3, 2))
    cos[:, 0] = -0.65, 1.0, 0.65
    sin[1, 1] = 1.5
    return ParametricCurve(cos, sin, "kite")


def starfish() -> ParametricCurve:
    """x(t) = (1.5 cos t + 0.15 cos 4t + 0.15 cos 6t,
    1.5 sin t - 0.15 sin 4t + 0.15 sin 6t)."""
    cos, sin = np.zeros((7, 2)), np.zeros((7, 2))
    cos[[1, 4, 6], 0] = 1.5, 0.15, 0.15
    sin[[1, 4, 6], 1] = 1.5, -0.15, 0.15
    return ParametricCurve(cos, sin, "starfish")


def disk(radius: float = 1.0) -> ParametricCurve:
    if radius <= 0.0:
        raise ValueError("disk radius must be positive")
    return ParametricCurve([[0, 0], [radius, 0]], [[0, 0], [0, radius]], f"disk({radius:g})")


@dataclass(frozen=True)
class StarCurve:
    """Trigonometric radial boundary r(t) = B(t) . coeffs with
    B(t) = (1, cos t, ..., cos Jt, sin t, ..., sin Jt)."""

    coeffs: np.ndarray  # (2*degree + 1,) ordered (a0, a_1.., b_1..)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficient vector must be 1-d with odd length")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def circle(cls, radius: float, degree: int) -> "StarCurve":
        c = np.zeros(2 * degree + 1)
        c[0] = radius
        return cls(c)

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    def radius(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (basis_matrix(t, self.degree) @ self.coeffs).reshape(t.shape)

    def point(self, t) -> np.ndarray:
        return self.as_curve().point(t)

    def min_radius(self) -> float:
        t = np.linspace(0.0, 2.0 * np.pi, ADMISSIBILITY_GRID, endpoint=False)
        return float(np.min(self.radius(t)))

    def as_curve(self) -> ParametricCurve:
        return radial_curve(self.coeffs, "star")


def basis_matrix(t, degree: int) -> np.ndarray:
    """Rows B(t) at the parameters t, shape (t.size, 2*degree + 1)."""
    t = np.atleast_1d(np.asarray(t, dtype=float)).reshape(-1, 1)
    jt = t * np.arange(1, degree + 1)
    return np.concatenate([np.ones_like(t), np.cos(jt), np.sin(jt)], axis=1)


def radial_curve(coeffs, name: str = "radial") -> ParametricCurve:
    """Curve r(t)(cos t, sin t) with r = a0 + sum a_j cos jt + b_j sin jt.

    ``coeffs`` is ordered (a0, a_1..a_J, b_1..b_J) with odd total length.
    By product to sum, harmonic j of r reaches harmonics j -+ 1 of x:
    2 cos jt (cos t, sin t) = (cos(j-1)t + cos(j+1)t, sin(j+1)t - sin(j-1)t)
    and 2 sin jt (cos t, sin t) = (sin(j+1)t + sin(j-1)t, cos(j-1)t - cos(j+1)t),
    so a0 (j = 0) lands twice on harmonic 1.
    """
    c = StarCurve(coeffs).coeffs
    deg = (c.size - 1) // 2
    ab = np.stack([c[1:deg + 1], c[deg + 1:]], axis=1) / 2.0
    cos, sin = np.zeros((deg + 2, 2)), np.zeros((deg + 2, 2))
    cos[1, 0] = sin[1, 1] = c[0]
    cos[:deg] += ab
    cos[2:] += ab * (1.0, -1.0)
    sin[2:] += ab[:, ::-1]
    sin[1:deg] += ab[1:, ::-1] * (1.0, -1.0)  # row 0 multiplies sin 0
    return ParametricCurve(cos, sin, name)
