"""Closed boundary curves: named obstacle shapes and radial trig curves.

A curve is represented by a point evaluator and a tangent evaluator on the
parameter interval [0, 2*pi).  The two benchmark obstacles are

    kite:     x(t) = (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)
    starfish: x(t) = (1.5 cos t + 0.15 cos 4t + 0.15 cos 6t,
                      1.5 sin t - 0.15 sin 4t + 0.15 sin 6t)

Radial curves r(t) (cos t, sin t) with trigonometric r are ``StarCurve``s,
built from coefficient vectors ordered (a0, a_1..a_J, b_1..b_J).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ParametricCurve", "StarCurve", "basis_matrix", "kite", "starfish", "disk", "radial_curve",
]

#: grid of the StarCurve admissibility check min_t r(t)
ADMISSIBILITY_GRID = 256


@dataclass(frozen=True)
class ParametricCurve:
    """Closed non-self-intersecting curve given by point/tangent evaluators."""

    point: Callable
    tangent: Callable
    name: str = "curve"

    def sample(self, n: int) -> np.ndarray:
        """Boundary points at n equispaced parameters, shape (n, 2)."""
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return self.point(t)

    def centroid(self, n: int = 512) -> np.ndarray:
        return self.sample(n).mean(axis=0)

    def max_radius(self, n: int = 512) -> float:
        return float(np.max(np.linalg.norm(self.sample(n), axis=-1)))

    def min_radius(self, n: int = 512) -> float:
        return float(np.min(np.linalg.norm(self.sample(n), axis=-1)))

    def contains(self, x, n: int = 720) -> bool:
        """Winding-number test of a point against the sampled polygon."""
        pts = self.sample(n)
        rel = pts - np.asarray(x, dtype=float)
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        dang = np.diff(np.concatenate([ang, ang[:1]]))
        dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
        return bool(abs(dang.sum()) > np.pi)


def kite() -> ParametricCurve:
    def point(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [np.cos(t) + 0.65 * np.cos(2.0 * t) - 0.65, 1.5 * np.sin(t)], axis=-1
        )

    def tangent(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [-np.sin(t) - 1.3 * np.sin(2.0 * t), 1.5 * np.cos(t)], axis=-1
        )

    return ParametricCurve(point, tangent, "kite")


def starfish() -> ParametricCurve:
    def point(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [
                1.5 * np.cos(t) + 0.15 * np.cos(4.0 * t) + 0.15 * np.cos(6.0 * t),
                1.5 * np.sin(t) - 0.15 * np.sin(4.0 * t) + 0.15 * np.sin(6.0 * t),
            ],
            axis=-1,
        )

    def tangent(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [
                -1.5 * np.sin(t) - 0.6 * np.sin(4.0 * t) - 0.9 * np.sin(6.0 * t),
                1.5 * np.cos(t) - 0.6 * np.cos(4.0 * t) + 0.9 * np.cos(6.0 * t),
            ],
            axis=-1,
        )

    return ParametricCurve(point, tangent, "starfish")


def disk(radius: float = 1.0) -> ParametricCurve:
    if radius <= 0.0:
        raise ValueError("disk radius must be positive")

    def point(t):
        t = np.asarray(t, dtype=float)
        return radius * np.stack([np.cos(t), np.sin(t)], axis=-1)

    def tangent(t):
        t = np.asarray(t, dtype=float)
        return radius * np.stack([-np.sin(t), np.cos(t)], axis=-1)

    return ParametricCurve(point, tangent, f"disk({radius:g})")


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
        t = np.asarray(t, dtype=float)
        r = self.radius(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def tangent(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        r = self.radius(t)
        dr = (_basis_derivative(t, self.degree) @ self.coeffs).reshape(t.shape)
        return np.stack(
            [dr * np.cos(t) - r * np.sin(t), dr * np.sin(t) + r * np.cos(t)], axis=-1
        )

    def min_radius(self, n: int = ADMISSIBILITY_GRID) -> float:
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return float(np.min(self.radius(t)))

    def as_curve(self) -> ParametricCurve:
        return radial_curve(self.coeffs, "star")


def basis_matrix(t, degree: int) -> np.ndarray:
    """Rows B(t) at the parameters t, shape (t.size, 2*degree + 1)."""
    t = np.atleast_1d(np.asarray(t, dtype=float)).reshape(-1, 1)
    jt = t * np.arange(1, degree + 1)
    return np.concatenate([np.ones_like(t), np.cos(jt), np.sin(jt)], axis=1)


def _basis_derivative(t, degree: int) -> np.ndarray:
    """Rows B'(t), laid out as in basis_matrix."""
    t = np.atleast_1d(np.asarray(t, dtype=float)).reshape(-1, 1)
    j = np.arange(1, degree + 1)
    return np.concatenate([np.zeros_like(t), -j * np.sin(t * j), j * np.cos(t * j)], axis=1)


def radial_curve(coeffs, name: str = "radial") -> ParametricCurve:
    """Curve r(t)(cos t, sin t) with r = a0 + sum a_j cos jt + b_j sin jt.

    ``coeffs`` is ordered (a0, a_1..a_J, b_1..b_J) with odd total length.
    """
    star = StarCurve(coeffs)
    return ParametricCurve(star.point, star.tangent, name)
