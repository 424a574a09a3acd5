"""Boundary curve parameterizations."""

import numpy as np
import pytest

from elshape.geometry import ParametricCurve, StarCurve, disk, kite, radial_curve, starfish

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


@pytest.mark.parametrize("make", [kite, starfish])
def test_contains_batch_equals_point_calls(make):
    curve = make()
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 2.0 * np.pi, 40)
    normal = curve.tangent(t) @ np.array([[0.0, -1.0], [1.0, 0.0]])
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    # points within 1e-3 of the boundary on both sides, and scattered ones
    offsets = rng.uniform(-1e-3, 1e-3, (40, 1))
    pts = np.concatenate([curve.point(t) + offsets * normal, rng.uniform(-2.5, 2.5, (60, 2))])
    batch = curve.contains(pts)
    assert batch.shape == (100,) and batch.dtype == bool
    assert batch.tolist() == [curve.contains(p) for p in pts]
    assert 0 < np.count_nonzero(batch[:40]) < 40 and 0 < np.count_nonzero(batch[40:]) < 60
    assert curve.contains(pts.reshape(10, 10, 2)).tolist() == batch.reshape(10, 10).tolist()
    # one point gives a bool, not a 0-d array; no points give an empty array
    assert curve.contains(pts[0]) is bool(batch[0])
    assert curve.contains(np.empty((0, 2))).shape == (0,)


def winding_contains(curve, x):
    """The plain winding-number test of every point against the 720-point polygon."""
    rel = curve.sample(720) - np.asarray(x, dtype=float)[..., None, :]
    ang = np.arctan2(rel[..., 1], rel[..., 0])
    dang = np.diff(ang, axis=-1, append=ang[..., :1])
    return np.abs(((dang + np.pi) % (2.0 * np.pi) - np.pi).sum(axis=-1)) > np.pi


TURN = np.array([[0.6, -0.8], [0.8, 0.6]])


@pytest.mark.parametrize("curve", [
    kite(), starfish(), disk(1.0), ParametricCurve(kite().cos @ TURN.T, kite().sin @ TURN.T),
], ids=["kite", "starfish", "disk", "turned-kite"])
def test_contains_equals_the_plain_winding_test(curve):
    # radii up to and just past the polygon's bounding circle, where the
    # winding sum is skipped; the circle holds points outside the curve too
    bound = np.max(np.linalg.norm(curve.sample(720), axis=-1))
    radius = np.concatenate([np.linspace(0.0, 1.2, 25) * bound,
                             bound * (1.0 + np.array([-1e-12, 0.0, 1e-12, 1e-6]))])
    angle = np.linspace(0.0, 2.0 * np.pi, 90, endpoint=False)
    pts = radius[:, None, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    got, want = curve.contains(pts), winding_contains(curve, pts)
    assert got.shape == want.shape and np.array_equal(got, want)
    inside_circle = np.linalg.norm(pts, axis=-1) <= bound
    assert np.any(inside_circle & ~want) and np.any(want)
    assert not np.any(got[np.linalg.norm(pts, axis=-1) > bound])


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
    assert kite().max_radius() == pytest.approx(2.0657, abs=2e-3)


T1024 = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
KITE = (
    lambda t: np.stack([np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)], axis=-1),
    lambda t: np.stack([-np.sin(t) - 1.3 * np.sin(2 * t), 1.5 * np.cos(t)], axis=-1),
)
STARFISH = (
    lambda t: np.stack([1.5 * np.cos(t) + 0.15 * np.cos(4 * t) + 0.15 * np.cos(6 * t),
                        1.5 * np.sin(t) - 0.15 * np.sin(4 * t) + 0.15 * np.sin(6 * t)], axis=-1),
    lambda t: np.stack([-1.5 * np.sin(t) - 0.6 * np.sin(4 * t) - 0.9 * np.sin(6 * t),
                        1.5 * np.cos(t) - 0.6 * np.cos(4 * t) + 0.9 * np.cos(6 * t)], axis=-1),
)


@pytest.mark.parametrize("make,closed", [(kite, KITE), (starfish, STARFISH)],
                         ids=["kite", "starfish"])
def test_benchmark_tables_match_closed_forms(make, closed):
    """The stored benchmark records and their scoring use these two shapes."""
    point, tangent = closed
    assert np.max(np.abs(make().point(T1024) - point(T1024))) <= 1e-15
    assert np.max(np.abs(make().tangent(T1024) - tangent(T1024))) <= 1e-15


@pytest.mark.parametrize("r", [0.7, 1.0, 3.0])
def test_disk_points_are_exact(r):
    want = r * np.stack([np.cos(T1024), np.sin(T1024)], axis=-1)
    assert np.array_equal(disk(r).point(T1024), want)


@pytest.mark.parametrize("degree", range(1, 9))
def test_radial_table_matches_radius(degree):
    rng = np.random.default_rng(degree)
    c = np.concatenate([[1.0], rng.uniform(-0.1, 0.1, 2 * degree)])
    r = StarCurve(c).radius(T1024)
    want = r[:, None] * np.stack([np.cos(T1024), np.sin(T1024)], axis=-1)
    assert radial_curve(c).cos.shape == (degree + 2, 2)
    assert np.max(np.abs(radial_curve(c).point(T1024) - want)) <= 1e-15 * np.max(r)


@pytest.mark.parametrize("cos,sin", [
    (np.zeros((3, 2)), np.zeros((2, 2))),
    (np.zeros((3, 3)), np.zeros((3, 3))),
    (np.zeros(2), np.zeros(2)),
    ([[0.0, 0.0], [np.nan, 0.0]], np.zeros((2, 2))),
    (np.zeros((2, 2)), [[0.0, 0.0], [0.0, np.inf]]),
], ids=["row_mismatch", "three_columns", "flat", "nan", "inf"])
def test_bad_tables_refused(cos, sin):
    with pytest.raises(ValueError):
        ParametricCurve(cos, sin)


def test_tables_are_read_only():
    with pytest.raises(ValueError):
        kite().cos[0, 0] = 1.0
