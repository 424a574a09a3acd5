"""Coefficient extraction and field evaluation for the two-potential basis."""

import numpy as np
import pytest

from elshape import forward, specfun
from elshape.elastic import LameSystem, PointSource
from elshape.errors import AliasingError, ConfigError, DomainError, SolveError
from elshape.forward import disk_series, record_from_disk_series, ring_sources
from elshape.modal import (
    ModalField,
    _tables,
    bracket,
    choose_truncation,
    eval_field,
    eval_gradient,
    eval_radial,
    extract_field,
    lambda_n,
    limited_aperture_fit,
    modal_rhs,
    solve_modal,
)
from elshape.records import ScatterRecord

import oracles

SYS5 = LameSystem(1.0, 1.0, 5.0)
SYS1 = LameSystem(1.0, 1.0, 1.0)
POL = (np.sqrt(0.5), np.sqrt(0.5))
SRC = PointSource((3.0, 0.0), POL)
RHO = 3.0


def frame_record(values, n=128, sys=SYS5):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return ScatterRecord(
        rho=RHO, sys=sys, sources=(SRC,), receivers=theta,
        values=values[None], aperture=(0.0, 2.0 * np.pi),
    )


def grid_vectors(n=128):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    e_r = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    e_t = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    return theta, e_r, e_t


class TestModalRhs:
    def test_pure_radial_mode_projects_to_delta(self):
        theta, e_r, _ = grid_vectors()
        values = np.exp(1j * 0 * theta)[:, None] * e_r  # v = U_0
        rhs = modal_rhs(frame_record(values), N=5)
        want = np.zeros(11, dtype=complex)
        want[5] = 1.0
        assert np.max(np.abs(rhs.f_p - want)) <= 1e-14
        assert np.max(np.abs(rhs.f_s)) <= 1e-14

    def test_pure_tangential_mode_projects_to_delta(self):
        theta, _, e_t = grid_vectors()
        values = np.exp(3j * theta)[:, None] * e_t  # v = V_3
        rhs = modal_rhs(frame_record(values), N=5)
        want = np.zeros(11, dtype=complex)
        want[5 + 3] = 1.0
        assert np.max(np.abs(rhs.f_s - want)) <= 1e-14
        assert np.max(np.abs(rhs.f_p)) <= 1e-14

    def test_trapezoid_equals_analytic_coefficients(self):
        rng = np.random.default_rng(2)
        deg = 10
        coef_r = rng.normal(size=2 * deg + 1) + 1j * rng.normal(size=2 * deg + 1)
        coef_t = rng.normal(size=2 * deg + 1) + 1j * rng.normal(size=2 * deg + 1)
        theta, e_r, e_t = grid_vectors()
        n = np.arange(-deg, deg + 1)
        g_r = (coef_r[None, :] * np.exp(1j * n[None, :] * theta[:, None])).sum(axis=1)
        g_t = (coef_t[None, :] * np.exp(1j * n[None, :] * theta[:, None])).sum(axis=1)
        values = g_r[:, None] * e_r + g_t[:, None] * e_t
        rhs = modal_rhs(frame_record(values), N=deg)
        assert np.max(np.abs(rhs.f_p - coef_r)) <= 1e-13 * np.max(np.abs(coef_r))
        assert np.max(np.abs(rhs.f_s - coef_t)) <= 1e-13 * np.max(np.abs(coef_t))

    def test_aliasing_refused(self):
        theta, e_r, _ = grid_vectors(16)
        values = e_r.astype(complex)
        with pytest.raises(AliasingError):
            modal_rhs(frame_record(values, n=16), N=8)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_matches_per_mode_trapezoid_sum(self, rows):
        rng = np.random.default_rng(rows)
        theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        values = rng.normal(size=(rows, 64, 2)) + 1j * rng.normal(size=(rows, 64, 2))
        rec = ScatterRecord(
            rho=RHO, sys=SYS5, sources=(SRC,) * rows, receivers=theta,
            values=values, aperture=(0.0, 2.0 * np.pi),
        )
        rhs = modal_rhs(rec, N=20)
        f_p, f_s = oracles.trapezoid_rhs(theta, values, 20)
        scale = max(np.max(np.abs(f_p)), np.max(np.abs(f_s)))
        assert rhs.f_p.shape == rhs.f_s.shape == (rows, 41)
        assert np.max(np.abs(rhs.f_p - f_p)) <= 1e-14 * scale
        assert np.max(np.abs(rhs.f_s - f_s)) <= 1e-14 * scale

    def test_unequal_spacing_refused(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        theta[3] += 0.01
        rec = ScatterRecord(
            rho=RHO, sys=SYS5, sources=(SRC,), receivers=theta,
            values=np.ones((1, 32, 2), complex), aperture=(0.0, 2.0 * np.pi),
        )
        with pytest.raises(ConfigError, match="equispaced"):
            modal_rhs(rec, N=4)

    def test_partial_aperture_refused(self):
        theta = np.linspace(0.0, np.pi, 64, endpoint=False)
        rec = ScatterRecord(
            rho=RHO, sys=SYS5, sources=(SRC,),
            receivers=theta, values=np.zeros((1, 64, 2), complex),
            aperture=(0.0, np.pi),
        )
        with pytest.raises(ConfigError):
            modal_rhs(rec, N=4)


class TestTables:
    RADII = np.array([3.0, 0.6, 1.0, 3.0, 1.7])

    @pytest.mark.parametrize("R", [None, 0.5])
    def test_numpy_and_amos_routes_agree(self, R):
        k = (SYS5.k_p, SYS5.k_s)
        ours = _tables(specfun.hankel1_table, k, 20, self.RADII, R)
        amos = _tables(forward._amos(specfun.hankel1), k, 20, self.RADII, R)
        for got, want in zip(ours, amos):
            assert got.shape == (2, 41, 5)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_one_table_call_on_distinct_radii_then_R(self):
        calls = []

        def recording(m, t):
            calls.append((m, t))
            return specfun.hankel1_table(m, t)

        k = (SYS5.k_p, SYS5.k_s)
        alpha, beta, kappa = _tables(recording, k, 6, self.RADII, 0.5)
        [(m, t)] = calls
        assert m == 6
        assert np.array_equal(t, np.reshape(k, (2, 1)) * [0.6, 1.0, 1.7, 3.0, 0.5])
        assert alpha.shape == beta.shape == kappa.shape == (2, 13, 5)
        # the repeated radius is scattered back from its one column
        assert np.array_equal(beta[..., 0], beta[..., 3])


class TestModalMatrix:
    def test_zero_mode_decouples(self):
        m = oracles.modal_matrix(0, RHO, 0.5, SYS5)
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_determinant_identity(self, n):
        m = oracles.modal_matrix(n, RHO, 0.5, SYS5)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        beta_p, beta_s = _tables(specfun.hankel1_table, (SYS5.k_p, SYS5.k_s), abs(n),
                                 np.array([RHO]), 0.5)[1][:, n + abs(n), 0]
        want = beta_p * beta_s * lambda_n(n, RHO, 0.5, SYS5)
        assert abs(det - want) <= 1e-12 * abs(want)

    def test_negative_order_symmetry(self):
        m_pos = oracles.modal_matrix(4, RHO, 0.5, SYS5)
        m_neg = oracles.modal_matrix(-4, RHO, 0.5, SYS5)
        # diagonals invariant, off-diagonals flip sign with n
        assert m_neg[0, 0] == pytest.approx(m_pos[0, 0], rel=1e-13)
        assert m_neg[1, 1] == pytest.approx(m_pos[1, 1], rel=1e-13)
        assert m_neg[0, 1] == pytest.approx(-m_pos[0, 1], rel=1e-13)
        assert m_neg[1, 0] == pytest.approx(-m_pos[1, 0], rel=1e-13)


class TestSolveModal:
    def test_closed_form_satisfies_system(self):
        rng = np.random.default_rng(4)
        N = 12
        f_p = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
        f_s = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
        from elshape.modal import ModalRhs

        mf = solve_modal(ModalRhs(N=N, f_p=f_p, f_s=f_s), RHO, 0.5, SYS5)
        for i, n in enumerate(range(-N, N + 1)):
            m = oracles.modal_matrix(n, RHO, 0.5, SYS5)
            got = m @ np.array([mf.phat_p[i], mf.phat_s[i]])
            want = np.array([f_p[i], f_s[i]])
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    def test_zero_rhs_gives_zero_field(self):
        from elshape.modal import ModalRhs

        mf = solve_modal(
            ModalRhs(N=3, f_p=np.zeros(7, complex), f_s=np.zeros(7, complex)),
            RHO, 0.5, SYS5,
        )
        assert np.max(np.abs(mf.phat_p)) == 0.0
        assert np.max(np.abs(mf.phat_s)) == 0.0

    def test_overflowing_normalization_refused(self):
        from elshape.modal import ModalRhs

        N = 250
        rhs = ModalRhs(
            N=N, f_p=np.ones(2 * N + 1, complex), f_s=np.ones(2 * N + 1, complex)
        )
        with pytest.raises(SolveError, match="degenerate normalization"):
            solve_modal(rhs, RHO, 0.5, SYS1)

    # the rim's H_n(k 0.2) overflows for the top orders, so alpha / beta is
    # nan there (without a warning) before the guard refuses it
    def test_determinant_guard_names_mode(self):
        src = PointSource((3.0, 0.0), (1.0, 0.0))
        with pytest.raises(SolveError, match="mode determinant .* at n="):
            disk_series(0.2, (src,), SYS1, n_modes=200)


class TestEvalField:
    def test_single_mode_matches_matrix_column(self):
        N = 0
        mf = ModalField(
            N=N, R=0.5, rho=RHO, sys=SYS5,
            phat_p=np.array([1.0 + 0j]), phat_s=np.array([0.0 + 0j]),
        )
        x = np.array([RHO, 0.0])  # theta = 0: U_0 = e_r = (1,0), V_0 = (0,1)
        m = oracles.modal_matrix(0, RHO, 0.5, SYS5)
        want = np.array([m[0, 0], m[1, 0]])
        assert np.max(np.abs(eval_field(mf, x) - want)) <= 1e-14

    def test_roundtrip_reproduces_band_limited_values(self):
        rng = np.random.default_rng(0)
        N = 30
        mf = ModalField(
            N=N, R=0.5, rho=RHO, sys=SYS5,
            phat_p=rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1),
            phat_s=rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1),
        )
        theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
        pts = RHO * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        values = eval_field(mf, pts)
        back = solve_modal(modal_rhs(frame_record(values), N), RHO, 0.5, SYS5)
        values2 = eval_field(back, pts)
        assert np.max(np.abs(values2 - values)) <= 1e-11 * np.max(np.abs(values))

    def test_circle_points_match_per_point_evaluation(self, random_field):
        # the tables are built once per distinct radius and scattered back;
        # two circles, so a misplaced table row shows
        theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        circle = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        pts = np.concatenate([RHO * circle, 1.7 * circle])
        assert 2 < np.unique(np.hypot(pts[:, 0], pts[:, 1])).size < 20
        values = eval_field(random_field, pts)
        jac = eval_gradient(random_field, pts)
        want_v = np.stack([eval_field(random_field, p) for p in pts])
        want_j = np.stack([eval_gradient(random_field, p) for p in pts])
        assert np.max(np.abs(values - want_v)) <= 1e-14 * np.max(np.abs(want_v))
        assert np.max(np.abs(jac - want_j)) <= 1e-14 * np.max(np.abs(want_j))

    def test_inside_expansion_disk_rejected(self):
        mf = ModalField(
            N=0, R=0.5, rho=RHO, sys=SYS5,
            phat_p=np.array([1.0 + 0j]), phat_s=np.array([0.0 + 0j]),
        )
        with pytest.raises(DomainError):
            eval_field(mf, np.array([0.3, 0.0]))

    def test_disk_data_reproduces_series_on_circle(self):
        rec = record_from_disk_series(1.0, (SRC,), SYS5, RHO, 128)
        mf = solve_modal(modal_rhs(rec, 25), RHO, 0.5, SYS5)
        pts = RHO * np.stack(
            [np.cos(rec.receivers), np.sin(rec.receivers)], axis=-1
        )
        v = disk_series(1.0, (SRC,), SYS5, 40).eval(pts)
        assert np.max(np.abs(eval_field(mf, pts) - v)) <= 1e-10 * np.max(np.abs(v))


@pytest.fixture(scope="module")
def random_field():
    rng = np.random.default_rng(8)
    N = 10
    return ModalField(
        N=N, R=0.5, rho=RHO, sys=SYS5,
        phat_p=rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1),
        phat_s=rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1),
    )


def polar_derivs(field, x):
    """(d/dr v, d/dtheta v) at x: the Jacobian applied to xhat and to r thetahat."""
    jac = eval_gradient(field, x)
    xhat = x / np.linalg.norm(x, axis=-1, keepdims=True)
    r_thetahat = np.stack([-x[..., 1], x[..., 0]], axis=-1)
    return (np.einsum("...ij,...j->...i", jac, xhat),
            np.einsum("...ij,...j->...i", jac, r_thetahat))


class TestPolarDerivatives:
    def test_theta_derivative_of_radial_mode_is_tangential(self):
        mf = ModalField(
            N=0, R=0.5, rho=RHO, sys=SYS5,
            phat_p=np.array([1.0 + 0j]), phat_s=np.array([0.0 + 0j]),
        )
        x = np.array([2.0, 0.0])
        v = eval_field(mf, x)          # A_0(r) e_r at theta=0
        _, d_t = polar_derivs(mf, x)
        # d/dtheta (A_0 e_r) = A_0 e_theta = (0, A_0)
        assert abs(d_t[0]) <= 1e-14
        assert d_t[1] == pytest.approx(v[0], rel=1e-13)

    def test_derivatives_match_finite_differences(self, random_field):
        x0 = np.array([1.7, -0.9])
        r0 = np.linalg.norm(x0)
        t0 = np.arctan2(x0[1], x0[0])

        def at(r, t):
            return eval_field(random_field, np.array([r * np.cos(t), r * np.sin(t)]))

        d_r, d_t = polar_derivs(random_field, x0)
        fd_r = oracles.central_diff(lambda r: at(r, t0), r0, 1e-5)
        fd_t = oracles.central_diff(lambda t: at(r0, t), t0, 1e-5)
        assert np.max(np.abs(d_r - fd_r)) <= 1e-7 * np.max(np.abs(fd_r))
        assert np.max(np.abs(d_t - fd_t)) <= 1e-7 * np.max(np.abs(fd_t))

    def test_kappa_is_radial_derivative_of_alpha(self):
        k, R = SYS5.k_p, 0.5
        n = 4

        def alpha(r):
            return _tables(specfun.hankel1_table, k, n, np.array([r]), R)[0][n + n, 0]

        kappa = _tables(specfun.hankel1_table, k, n, np.array([2.0]), R)[2][n + n, 0]
        fd = oracles.central_diff(alpha, 2.0, 1e-6)
        assert abs(kappa - fd) <= 1e-7 * abs(fd)


class TestEvalGradient:
    def test_matches_finite_difference_jacobian(self, random_field):
        x0 = np.array([1.3, 2.1])
        jac = eval_gradient(random_field, x0)
        fd = oracles.jacobian_fd(lambda x: eval_field(random_field, x), x0, 1e-5)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_radial_mode_has_no_polar_cross_terms(self):
        mf = ModalField(
            N=0, R=0.5, rho=RHO, sys=SYS5,
            phat_p=np.array([1.0 + 0j]), phat_s=np.array([0.0 + 0j]),
        )
        x = np.array([2.0 * np.cos(0.7), 2.0 * np.sin(0.7)])
        jac = eval_gradient(mf, x)
        e_r = np.array([np.cos(0.7), np.sin(0.7)])
        e_t = np.array([-np.sin(0.7), np.cos(0.7)])
        assert abs(e_r @ jac @ e_t) <= 1e-13
        assert abs(e_t @ jac @ e_r) <= 1e-13

    def test_zero_field_zero_gradient(self):
        mf = ModalField(
            N=2, R=0.5, rho=RHO, sys=SYS5,
            phat_p=np.zeros(5, complex), phat_s=np.zeros(5, complex),
        )
        assert np.max(np.abs(eval_gradient(mf, np.array([1.0, 1.0])))) == 0.0


class TestEvalRadial:
    def _check(self, field, pts):
        v, d_r = eval_radial(field, pts)
        want_v = eval_field(field, pts)
        want_d = polar_derivs(field, pts)[0]
        assert v.shape == d_r.shape == want_v.shape
        assert np.max(np.abs(v - want_v)) <= 1e-14 * np.max(np.abs(want_v))
        assert np.max(np.abs(d_r - want_d)) <= 1e-14 * np.max(np.abs(want_d))
        return v, d_r

    def test_one_dimensional_field_matches_per_point(self, random_field):
        theta = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
        radii = 1.2 + 0.4 * np.cos(3.0 * theta)
        pts = radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        v, d_r = self._check(random_field, pts)
        for i, p in enumerate(pts):
            v_p, d_p = eval_radial(random_field, p)
            assert v_p.shape == d_p.shape == (2,)
            assert np.max(np.abs(v_p - v[i])) <= 1e-14 * np.max(np.abs(v))
            assert np.max(np.abs(d_p - d_r[i])) <= 1e-14 * np.max(np.abs(d_r))

    def test_batched_field_matches_rows(self, multi_record):
        field = extract_field(multi_record, 8, 0.5)
        theta = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        pts = (1.5 + 0.3 * np.sin(2.0 * theta))[:, None] * np.stack(
            [np.cos(theta), np.sin(theta)], axis=-1
        )
        v, d_r = self._check(field, pts)
        assert v.shape == (20, 12, 2)
        for i in (0, 7, 19):
            row = ModalField(
                N=8, R=0.5, rho=RHO, sys=SYS5,
                phat_p=field.phat_p[i], phat_s=field.phat_s[i],
            )
            v_i, d_i = eval_radial(row, pts)
            assert np.max(np.abs(v_i - v[i])) <= 1e-14 * np.max(np.abs(v[i]))
            assert np.max(np.abs(d_i - d_r[i])) <= 1e-14 * np.max(np.abs(d_r[i]))


class TestLimitedApertureFit:
    def test_full_aperture_agrees_with_projection(self):
        rec = record_from_disk_series(1.0, (SRC,), SYS5, RHO, 128)
        full = solve_modal(modal_rhs(rec, 8), RHO, 0.5, SYS5)
        fit = limited_aperture_fit(rec, 8, reg=0.0, R=0.5)
        scale = np.max(np.abs(full.phat_p))
        assert np.max(np.abs(fit.phat_p - full.phat_p)) <= 1e-10 * scale
        scale_s = np.max(np.abs(full.phat_s))
        assert np.max(np.abs(fit.phat_s - full.phat_s)) <= 1e-10 * scale_s

    def test_half_aperture_errors_bounded_on_lit_side(self):
        rec_full = record_from_disk_series(1.0, (SRC,), SYS5, RHO, 128)
        rec_half = record_from_disk_series(
            1.0, (SRC,), SYS5, RHO, 128, aperture=(0.0, np.pi)
        )
        truth = disk_series(1.0, (SRC,), SYS5, 40)
        # interior of the lit semicircle: fit quality degrades sharply at
        # the very ends of the receiver arc
        theta = np.linspace(0.3, np.pi - 0.3, 64)
        pts = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        want = truth.eval(pts)

        mf_full = extract_field(rec_full, 8, 0.5, reg=0.0)
        mf_half = limited_aperture_fit(rec_half, 8, reg=1e-8, R=0.5)
        err_full = np.max(np.abs(eval_field(mf_full, pts) - want))
        err_half = np.max(np.abs(eval_field(mf_half, pts) - want))
        assert err_half <= 10.0 * max(err_full, 1e-12 * np.max(np.abs(want)))

    def test_huge_ridge_shrinks_coefficients(self):
        rec = record_from_disk_series(1.0, (SRC,), SYS5, RHO, 128)
        fit = limited_aperture_fit(rec, 6, reg=1e8, R=0.5)
        assert np.max(np.abs(fit.phat_p)) <= 1e-10
        assert np.max(np.abs(fit.phat_s)) <= 1e-10

    def test_underdetermined_rejected(self):
        rec = record_from_disk_series(1.0, (SRC,), SYS5, RHO, 16)
        with pytest.raises(ConfigError):
            limited_aperture_fit(rec, 10, reg=0.0, R=0.5)


@pytest.fixture(scope="module", params=["full", "arc"])
def multi_record(request):
    """20-source disk-series record, full aperture or the arc [pi/4, 7pi/4]."""
    aperture = (0.0, 2.0 * np.pi) if request.param == "full" else (np.pi / 4, 7 * np.pi / 4)
    srcs = ring_sources(20, RHO, POL)
    return record_from_disk_series(1.0, srcs, SYS5, RHO, 128, aperture=aperture)


class TestBatchedField:
    def test_rows_match_single_source_extraction(self, multi_record):
        rec = multi_record
        field = extract_field(rec, 8, 0.5)
        assert field.phat_p.shape == field.phat_s.shape == (20, 17)
        for i in range(rec.n_sources):
            single = ScatterRecord(
                rho=rec.rho, sys=rec.sys, sources=rec.sources[i : i + 1],
                receivers=rec.receivers, values=rec.values[i : i + 1],
                aperture=rec.aperture,
            )
            ref = extract_field(single, 8, 0.5)
            for got, want in ((field.phat_p[i], ref.phat_p[0]), (field.phat_s[i], ref.phat_s[0])):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_evaluators_match_per_row(self, multi_record):
        field = extract_field(multi_record, 8, 0.5)
        theta = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        pts = 1.7 * np.stack([np.cos(theta), np.sin(theta)], axis=-1).reshape(4, 4, 2)
        values = eval_field(field, pts)
        jac = eval_gradient(field, pts)
        assert values.shape == (20, 4, 4, 2)
        assert jac.shape == (20, 4, 4, 2, 2)
        for i in range(20):
            row = ModalField(
                N=8, R=0.5, rho=RHO, sys=SYS5,
                phat_p=field.phat_p[i], phat_s=field.phat_s[i],
            )
            want_v = eval_field(row, pts)
            want_j = eval_gradient(row, pts)
            assert np.max(np.abs(values[i] - want_v)) <= 1e-12 * np.max(np.abs(want_v))
            assert np.max(np.abs(jac[i] - want_j)) <= 1e-12 * np.max(np.abs(want_j))


class TestChooseTruncation:
    def test_bracket_definition(self):
        # largest integer smaller than x + 1
        assert bracket(3.0) == 3
        assert bracket(2.9957) == 3
        assert bracket(4.3219) == 5
        assert bracket(4.6052) == 5

    def test_practical_rule_five_percent(self):
        assert choose_truncation(0.05, "practical") == 7

    def test_practical_rule_other_levels(self):
        # |ln 0.01| = 4.605 -> bracket 5 -> N = 11
        assert choose_truncation(0.01, "practical") == 11
        assert choose_truncation(0.1, "practical") == 7  # |ln 0.1| = 2.303 -> 3

    def test_theoretical_rule(self):
        # ln(20)/ln(2) = 4.3219 -> bracket 5
        assert choose_truncation(0.05, "theoretical", tau2=2.0) == 5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            choose_truncation(1.0, "practical")
        with pytest.raises(DomainError):
            choose_truncation(0.0, "practical")
        with pytest.raises(DomainError):
            choose_truncation(0.05, "theoretical", tau2=1.0)
        with pytest.raises(DomainError):
            choose_truncation(0.05, "nonsense")


class TestDecayAndNoise:
    def test_truncation_decay_slope_r05(self):
        from elshape.verify import decay_profile, decay_slope

        orders = np.arange(13, 22)
        errs, scale = decay_profile(np.sqrt(8.0), (16.0, 0.0), SYS1, 0.5, orders)
        assert decay_slope(orders, errs, scale) <= -np.log(6.0) + 0.15

    def test_truncation_decay_slope_r03_above_floor(self):
        # with R = 0.3 the tail reaches the float64 floor around N ~ 17, so
        # the slope is fitted on the orders above it (nan if fewer than 4)
        from elshape.verify import decay_profile, decay_slope

        orders = np.arange(13, 22)
        errs, scale = decay_profile(np.sqrt(0.3 * 16.0), (16.0, 0.0), SYS1, 0.3, orders)
        assert decay_slope(orders, errs, scale) <= -np.log(3.0 / 0.3) + 0.15

    @pytest.mark.parametrize("R", [0.5, 0.3])
    def test_decay_profile_matches_per_order_extraction(self, R):
        # one extraction at the top order, truncated per order, against an
        # extraction and evaluation at every order
        from elshape.verify import decay_profile

        orders = np.arange(13, 22)
        args = (np.sqrt(16.0 * R), (16.0, 0.0), SYS1, R, orders)
        errs, scale = decay_profile(*args)
        ref, ref_scale = oracles.decay_profile_per_order(*args)
        assert scale == ref_scale
        assert np.max(np.abs(errs - ref)) <= 1e-15 * scale

    def test_noise_response_linear_in_delta(self):
        from elshape.verify import noise_halving_ratios

        ratios = noise_halving_ratios()
        doubling = 1.0 / ratios  # e(0.05)/e(0.025)
        med = float(np.median(doubling))
        assert 1.5 <= med <= 2.5

    def test_lambda_nonvanishing_configured_geometries(self):
        for omega in (1.0, 5.0):
            sys = LameSystem(1.0, 1.0, omega)
            for R in (0.3, 0.5, 0.8):
                for n in range(0, 41):
                    assert abs(lambda_n(n, RHO, R, sys)) > 0.0
