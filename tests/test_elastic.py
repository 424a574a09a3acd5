"""Fundamental solutions and point-source fields against PDE stencils."""

import numpy as np
import pytest

from elshape import elastic, specfun
from elshape.elastic import (
    LameSystem,
    PointSource,
    grad_incident_field,
    green_tensor,
    incident_field,
)
from elshape.errors import DomainError, SingularityError

import oracles

SYS5 = LameSystem(1.0, 1.0, 5.0)
POL = (np.sqrt(0.5), np.sqrt(0.5))


class TestLameSystem:
    def test_wavenumbers(self):
        assert SYS5.k_p == pytest.approx(5.0 / np.sqrt(3.0), rel=1e-15)
        assert SYS5.k_s == 5.0
        assert SYS5.k_p < SYS5.k_s
        # the ratio is fixed by construction
        assert SYS5.k_p / SYS5.k_s == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-15)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            LameSystem(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            LameSystem(-2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LameSystem(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("constants", [
        (1.0, np.inf, 5.0), (np.inf, 1.0, 5.0), (1.0, 1.0, np.inf), (1.0, 1.0, np.nan),
    ])
    def test_non_finite_constants_rejected(self, constants):
        # an infinite mu would give k_p = k_s = 0
        with pytest.raises(ValueError, match="finite"):
            LameSystem(*constants)


class TestHelmholtzPhi:
    """The scalar kernel Phi = (i/4) H_0^(1)(k r) behind the Green tensor."""

    def test_unit_wavenumber_value(self):
        got = 0.25j * specfun.hankel1_table(0, np.array(1.0))[0]
        assert complex(got) == pytest.approx(0.25j * complex(specfun.hankel1(0, 1.0)))

    def test_symmetry_in_arguments(self):
        # the kernel sees only |x - y|, so swapping the points changes nothing
        x = np.array([0.3, 1.7])
        y = np.array([-1.1, 0.4])
        assert np.array_equal(green_tensor(x, y, SYS5), green_tensor(y, x, SYS5))

    @pytest.mark.parametrize("branch", ["p", "s"])
    def test_helmholtz_residual(self, branch):
        y = np.zeros(2)
        x = np.array([2.0, 0.0])
        k = {"p": SYS5.k_p, "s": SYS5.k_s}[branch]

        def phi(pt):
            return 0.25j * specfun.hankel1_table(0, k * np.linalg.norm(pt - y))[0]

        resid = oracles.laplacian_5pt(phi, x, 1e-3) + k * k * phi(x)
        assert abs(resid) <= 1e-4 * abs(k * k * phi(x))

    def test_coincident_points_rejected(self):
        with pytest.raises(SingularityError):
            green_tensor(np.zeros(2), np.zeros(2), SYS5)


class TestGreenTensor:
    def test_value_against_closed_form(self):
        # G = (i/8) [ (H_0(k_s r) I + H_2(k_s r) D) / mu
        #            + (H_0(k_p r) I - H_2(k_p r) D) / (lambda + 2 mu) ],
        # D = 2 d d^T - I, from grad grad^T H_0(k r) = (k^2/2)(H_2 D - H_0 I);
        # unequal Lame constants pin the tensor's scale
        sys = LameSystem(2.0, 0.5, 3.0)
        x, z = np.array([1.5, 1.0]), np.array([0.1, -0.2])
        r = np.linalg.norm(x - z)
        d = (x - z) / r
        eye = np.eye(2)
        D = 2.0 * np.outer(d, d) - eye

        def h(n, k):
            return complex(specfun.hankel1(n, k * r))

        want = 0.125j * (
            (h(0, sys.k_s) * eye + h(2, sys.k_s) * D) / sys.mu
            + (h(0, sys.k_p) * eye - h(2, sys.k_p) * D) / (sys.lam + 2.0 * sys.mu)
        )
        got = green_tensor(x, z, sys)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "r, bound", [(1e-3, 1e-11), (1e-2, 1e-13), (0.1, 2e-14), (0.5, 2e-14),
                     (2.0, 2e-14), (10.0, 2e-14)],
    )
    def test_accuracy_against_mpmath(self, r, bound):
        # 16 directions about the origin, so the offsets x - z are exact;
        # errors relative to the largest entry at this separation
        ang = 0.1 + 2.0 * np.pi * np.arange(16) / 16
        x = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        z = np.zeros(2)
        want = np.array([oracles.mp_green_tensor(pt, SYS5) for pt in x])
        scale = np.max(np.abs(want))
        err = np.max(np.abs(green_tensor(x, z, SYS5) - want)) / scale
        err_hessian = np.max(np.abs(oracles.hessian_green_tensor(x, z, SYS5) - want)) / scale
        assert err <= bound
        # the closed form is no less accurate than grad grad^T (Phi_s - Phi_p)
        assert err <= 2.0 * err_hessian

    def test_symmetric(self):
        g = green_tensor(np.array([1.5, 1.0]), np.array([0.1, -0.2]), SYS5)
        assert np.array_equal(g, g.T)

    def test_translation_invariance(self):
        x = np.array([1.5, 1.0])
        z = np.array([0.1, -0.2])
        shift = np.array([3.7, -2.2])
        a = green_tensor(x, z, SYS5)
        b = green_tensor(x + shift, z + shift, SYS5)
        assert np.max(np.abs(a - b)) <= 1e-15

    def test_navier_residual_at_distance_two(self):
        src = PointSource((0.0, 0.0), POL)
        x = np.array([2.0, 0.0])

        def u(pt):
            return incident_field(pt, (src,), SYS5)[0]

        resid = oracles.navier_residual_fd(u, x, SYS5.lam, SYS5.mu, SYS5.omega, 1e-3)
        assert np.max(np.abs(resid)) <= 1e-4 * np.max(np.abs(u(x)))

    def test_navier_residual_random_sample(self):
        rng = np.random.default_rng(5)
        src = PointSource((0.0, 0.0), POL)

        def u(pt):
            return incident_field(pt, (src,), SYS5)[0]

        for _ in range(20):
            r = rng.uniform(0.5, 10.0)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            x = r * np.array([np.cos(ang), np.sin(ang)])
            resid = oracles.navier_residual_fd(u, x, SYS5.lam, SYS5.mu, SYS5.omega, 1e-3)
            assert np.max(np.abs(resid)) <= 1e-3 * np.max(np.abs(u(x)))

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            green_tensor(np.array([1.0, 1.0]), np.array([1.0, 1.0 + 1e-10]), SYS5)

    @pytest.mark.parametrize(
        "r, bound", [(1e-3, 1e-10), (1e-2, 1e-12), (0.1, 2e-14), (0.5, 2e-14),
                     (2.0, 2e-14), (10.0, 2e-14)],
    )
    def test_directional_accuracy_against_mpmath(self, r, bound):
        # column j of d_e G is d_e (G p) with p the j-th unit vector, so
        # one incident_field call with a source per column gives d_e G
        ang = 0.1 + 2.0 * np.pi * np.arange(16) / 16
        x = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        e = np.array([np.cos(0.7), np.sin(0.7)])
        want = np.array([
            np.stack([oracles.mp_green_directional(pt, p, e, SYS5) for p in np.eye(2)], axis=-1)
            for pt in x
        ])
        srcs = [PointSource((0.0, 0.0), tuple(p)) for p in np.eye(2)]
        deriv = np.stack(incident_field(x, srcs, SYS5, e)[1], axis=-1)
        assert np.max(np.abs(deriv - want)) <= bound * np.max(np.abs(want))


class TestIncidentField:
    def test_linearity_in_polarization(self):
        x = np.array([1.2, -0.7])
        z = (-3.0, 0.5)
        u1 = incident_field(x, (PointSource(z, (1.0, 0.0)),), SYS5)
        u2 = incident_field(x, (PointSource(z, (0.0, 1.0)),), SYS5)
        u12 = incident_field(x, (PointSource(z, (1.0, 1.0)),), SYS5)
        assert np.max(np.abs(u1 + u2 - u12)) <= 1e-14

    def test_diagonal_polarization_runs(self):
        u = incident_field(np.array([1.0, 0.0]), (PointSource((3.0, 0.0), POL),), SYS5)
        assert u.shape == (1, 2) and np.all(np.isfinite(u))

    def test_rows_match_one_source_calls(self):
        # each source keeps its own polarization; S rows lead the point axes
        rng = np.random.default_rng(15)
        srcs = [PointSource(tuple(rng.uniform(2.5, 3.5, size=2)), tuple(rng.normal(size=2)))
                for _ in range(3)]
        x = rng.uniform(-1.5, 1.5, size=(4, 7, 2))
        u = incident_field(x, srcs, SYS5)
        jac = grad_incident_field(x, srcs, SYS5)
        assert u.shape == (3, 4, 7, 2) and jac.shape == (3, 4, 7, 2, 2)
        for i, src in enumerate(srcs):
            assert np.array_equal(u[i], incident_field(x, (src,), SYS5)[0])
            assert np.array_equal(jac[i], grad_incident_field(x, (src,), SYS5)[0])

    def test_far_field_decay_rate(self):
        src = PointSource((0.0, 0.0), POL)
        direction = np.array([np.cos(0.4), np.sin(0.4)])
        a = np.max(np.abs(incident_field(50.0 * direction, (src,), SYS5)))
        b = np.max(np.abs(incident_field(200.0 * direction, (src,), SYS5)))
        assert a / b == pytest.approx(2.0, rel=0.15)  # (200/50)^(1/2)


class TestGradIncidentField:
    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.uniform(-2.0, 2.0, size=2)
            offset_dir = rng.uniform(0.0, 2.0 * np.pi)
            dist = rng.uniform(0.5, 8.0)
            x = z + dist * np.array([np.cos(offset_dir), np.sin(offset_dir)])
            pol = rng.normal(size=2)
            src = PointSource(tuple(z), tuple(pol))

            def u(pt):
                return incident_field(pt, (src,), SYS5)[0]

            jac = grad_incident_field(x, (src,), SYS5)[0]
            fd = oracles.jacobian_fd(u, x, 1e-5)
            assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_rotation_equivariance(self):
        ang = 0.83
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        x = np.array([1.4, 0.6])
        z = np.array([-0.5, -1.0])
        p = np.array([0.3, 0.9])
        jac = grad_incident_field(x, (PointSource(tuple(z), tuple(p)),), SYS5)[0]
        jac_rot = grad_incident_field(
            rot @ x, (PointSource(tuple(rot @ z), tuple(rot @ p)),), SYS5
        )[0]
        assert np.max(np.abs(jac_rot - rot @ jac @ rot.T)) <= 1e-12

    def test_linearity_in_polarization(self):
        x = np.array([1.0, 2.0])
        z = (0.0, 0.0)
        j1 = grad_incident_field(x, (PointSource(z, (1.0, 0.0)),), SYS5)
        j2 = grad_incident_field(x, (PointSource(z, (0.0, 1.0)),), SYS5)
        j12 = grad_incident_field(x, (PointSource(z, (1.0, 1.0)),), SYS5)
        assert np.max(np.abs(j1 + j2 - j12)) <= 1e-14


class TestIncidentFieldDirectional:
    def test_matches_field_and_jacobian_batched(self):
        # sources on the leading axis, one direction per point, as in Newton
        rng = np.random.default_rng(12)
        x = rng.uniform(-2.0, 2.0, size=(5, 30, 2)) + np.array([4.0, 0.0])
        angles = rng.uniform(0.0, 2.0 * np.pi, size=30)
        e = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        src = PointSource((0.0, 0.0), POL)
        value, deriv = (f[0] for f in incident_field(x, (src,), SYS5, e))
        want_v = incident_field(x, (src,), SYS5)[0]
        want_d = np.einsum("spij,pj->spi", grad_incident_field(x, (src,), SYS5)[0], e)
        assert value.shape == deriv.shape == (5, 30, 2)
        assert np.max(np.abs(value - want_v)) <= 1e-13 * np.max(np.abs(want_v))
        assert np.max(np.abs(deriv - want_d)) <= 1e-13 * np.max(np.abs(want_d))

    def test_matches_finite_differences_along_direction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = rng.uniform(-2.0, 2.0, size=2)
            a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
            x = z + rng.uniform(0.5, 8.0) * np.array([np.cos(a), np.sin(a)])
            e = np.array([np.cos(b), np.sin(b)])
            src = PointSource(tuple(z), tuple(rng.normal(size=2)))
            deriv = incident_field(x, (src,), SYS5, e)[1][0]
            fd = oracles.central_diff(
                lambda h: incident_field(x + h * e, (src,), SYS5)[0], 0.0, 1e-5
            )
            assert np.max(np.abs(deriv - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_sources_with_own_polarizations(self):
        # each source keeps its polarization; rows match one-source calls
        rng = np.random.default_rng(14)
        srcs = [PointSource(tuple(rng.uniform(2.5, 3.5, size=2)), tuple(rng.normal(size=2)))
                for _ in range(3)]
        x = rng.uniform(-1.5, 1.5, size=(4, 7, 2))
        e = rng.normal(size=(4, 7, 2))
        value, deriv = incident_field(x, srcs, SYS5, e)
        assert value.shape == deriv.shape == (3, 4, 7, 2)
        for i, src in enumerate(srcs):
            v1, d1 = incident_field(x, (src,), SYS5, e)
            assert np.array_equal(value[i], v1[0]) and np.array_equal(deriv[i], d1[0])
            want_v = incident_field(x, (src,), SYS5)[0]
            assert np.max(np.abs(value[i] - want_v)) <= 1e-13 * np.max(np.abs(want_v))

    @pytest.mark.parametrize("n_points", [1, 3, 5, 17, 63, 100])
    def test_rows_equal_one_source_calls_at_any_point_count(self, n_points):
        # the kernel's values do not depend on their batch, so the S-source
        # rows equal the one-source calls bit for bit at point counts that
        # are not multiples of 8, too
        rng = np.random.default_rng(n_points)
        srcs = [PointSource(tuple(rng.uniform(2.5, 3.5, size=2)), tuple(rng.normal(size=2)))
                for _ in range(5)]
        x = rng.uniform(-1.5, 1.5, size=(n_points, 2))
        e = rng.normal(size=(n_points, 2))
        value, deriv = incident_field(x, srcs, SYS5, e)
        for i, src in enumerate(srcs):
            v1, d1 = incident_field(x, (src,), SYS5, e)
            assert np.array_equal(value[i], v1[0]) and np.array_equal(deriv[i], d1[0])

    @pytest.mark.parametrize(
        "r, bound", [(1e-3, 1e-10), (1e-2, 1e-12), (0.1, 2e-14), (0.5, 2e-14),
                     (2.0, 2e-14), (10.0, 2e-14)],
    )
    def test_accuracy_against_mpmath(self, r, bound):
        # 16 directions about the origin, so the offsets x - z are exact;
        # errors relative to the largest entry at this separation
        ang = 0.1 + 2.0 * np.pi * np.arange(16) / 16
        x = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        p, e = np.array([0.6, -0.8]), np.array([np.cos(0.7), np.sin(0.7)])
        src = PointSource((0.0, 0.0), tuple(p))
        want = np.array([oracles.mp_green_directional(pt, p, e, SYS5) for pt in x])
        deriv = incident_field(x, (src,), SYS5, e)[1][0]
        assert np.max(np.abs(deriv - want)) <= bound * np.max(np.abs(want))


def _blocks_counted(monkeypatch):
    """Record each row block that ``green_tensor`` hands to ``_green_block``."""
    seen, block = [], elastic._green_block

    def counted(x, z, *args):
        seen.append(np.broadcast_shapes(x.shape[:-1], z.shape[:-1]))
        return block(x, z, *args)

    monkeypatch.setattr(elastic, "_green_block", counted)
    return seen


class TestBlockedGreen:
    """green_tensor builds G in blocks of leading-axis rows, one pipeline each."""

    #: 100 columns: 81 rows per block, so 260 rows are three blocks and 17 rows
    COLUMNS, ROWS = 100, 3 * (specfun._BLOCK // 100) + 17

    def points(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(1.5, 4.0, (self.ROWS, 1, 2)) * rng.choice([-1.0, 1.0], (self.ROWS, 1, 2))
        return x, rng.uniform(-1.0, 1.0, (1, self.COLUMNS, 2))

    @pytest.mark.parametrize("rows_on", ["x", "z"])
    def test_blocks_equal_row_by_row(self, monkeypatch, rows_on):
        # either operand may carry the leading axis; every block, the partial
        # last one too, equals one call per row bit for bit
        x, z = self.points()
        if rows_on == "z":
            x, z = z[0], x
        seen = _blocks_counted(monkeypatch)
        g = green_tensor(x, z, SYS5)
        step = specfun._BLOCK // self.COLUMNS
        assert seen == [(step, self.COLUMNS)] * 3 + [(17, self.COLUMNS)]
        for i in range(self.ROWS):
            row = green_tensor(x[i], z[0], SYS5) if rows_on == "x" else green_tensor(x, z[i], SYS5)
            assert np.array_equal(g[i], row)

    @pytest.mark.parametrize("x_shape, z_shape, shape", [
        ((0, 1, 2), (1, 7, 2), (0, 7, 2, 2)),
        ((5, 1, 2), (1, 0, 2), (5, 0, 2, 2)),
        ((2,), (2,), (2, 2)),
        ((3, 2), (2,), (3, 2, 2)),
    ])
    def test_shapes(self, x_shape, z_shape, shape):
        # G on broadcast shapes equals one call on the flattened pairs
        x = np.reshape(np.arange(np.prod(x_shape)) + 2.0, x_shape)
        z = np.reshape(-0.5 * np.arange(np.prod(z_shape)), z_shape)
        g = green_tensor(x, z, SYS5)
        assert g.shape == shape
        flat_x, flat_z = (np.broadcast_to(a, shape[:-2] + (2,)).reshape(-1, 2) for a in (x, z))
        assert np.array_equal(g.reshape(-1, 2, 2), green_tensor(flat_x, flat_z, SYS5))

    @pytest.mark.parametrize("bad, error, message", [
        (np.nan, DomainError, "bessel argument must be finite"),
        (None, SingularityError, "coincides"),
    ])
    def test_bad_pair_in_a_later_block(self, monkeypatch, bad, error, message):
        x, z = self.points()
        x[-1, 0] = bad if bad is not None else z[0, 3]
        seen = _blocks_counted(monkeypatch)
        with pytest.raises(error, match=message):
            green_tensor(x, z, SYS5)
        assert len(seen) == 4

    def test_first_bad_block_decides_the_error(self, monkeypatch):
        # pairs are checked block by block: a NaN in block 1 raises before the
        # coincident pair in block 4 is reached
        x, z = self.points()
        x[0, 0], x[-1, 0] = np.nan, z[0, 3]
        seen = _blocks_counted(monkeypatch)
        with pytest.raises(DomainError, match="bessel argument must be finite"):
            green_tensor(x, z, SYS5)
        assert len(seen) == 1
