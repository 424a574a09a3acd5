"""Boundary curve parameterizations."""

import numpy as np
import pytest

from elshape.geometry import disk, kite, radial_curve, starfish

import oracles

RADIAL = pytest.param(lambda: radial_curve([1.5, 0.2, -0.1, 0.05, 0.3]), id="radial_curve")


@pytest.mark.parametrize("make", [kite, starfish, lambda: disk(1.3), RADIAL])
def test_closed_and_periodic(make):
    curve = make()
    a = curve.point(0.0)
    b = curve.point(2.0 * np.pi)
    assert a.shape == b.shape == (2,)
    assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("make", [kite, starfish, lambda: disk(0.7), RADIAL])
def test_tangent_matches_finite_difference(make):
    curve = make()
    for t in (0.0, 0.9, 2.2, 4.0, 5.9):
        fd = oracles.central_diff(lambda s: curve.point(s), t, 1e-6)
        assert np.max(np.abs(curve.tangent(t) - fd)) <= 1e-8


def test_tangent_nonvanishing_on_grid():
    for curve in (kite(), starfish()):
        t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        assert np.min(np.linalg.norm(curve.tangent(t), axis=-1)) > 0.1


def test_contains():
    k = kite()
    assert k.contains((0.0, 0.0))
    assert k.contains((-1.0, 0.5))
    assert not k.contains((3.0, 0.0))
    assert not k.contains((0.0, 1.6))


def test_kite_known_points():
    k = kite()
    assert np.allclose(k.point(0.0), [1.0, 0.0])
    assert np.allclose(k.point(np.pi), [-1.0, 0.0], atol=1e-15)


def test_radial_curve_roundtrip():
    coeffs = np.array([1.5, 0.2, -0.1, 0.05, 0.3])
    curve = radial_curve(coeffs)
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    r = np.linalg.norm(curve.point(t), axis=-1)
    want = 1.5 + 0.2 * np.cos(t) - 0.1 * np.cos(2 * t) + 0.05 * np.sin(t) + 0.3 * np.sin(2 * t)
    assert np.max(np.abs(r - want)) <= 1e-13


def test_radial_curve_rejects_even_length():
    with pytest.raises(ValueError):
        radial_curve([1.0, 0.1])


def test_radius_extrema():
    assert disk(2.0).max_radius() == pytest.approx(2.0)
    assert disk(2.0).min_radius() == pytest.approx(2.0)
    assert kite().min_radius() == pytest.approx(0.9228, abs=2e-3)
    assert kite().max_radius() == pytest.approx(2.0657, abs=2e-3)
