"""Coefficient extraction and field evaluation for the two-potential basis."""

import numpy as np
import pytest

from elshape.elastic import LameSystem, PointSource
from elshape.errors import AliasingError, ConfigError, DomainError, SolveError
from elshape.forward import disk_series, record_from_disk_series, ring_sources
from elshape.modal import (
    ModalField,
    bracket,
    choose_truncation,
    eval_field,
    eval_gradient,
    eval_polar_derivs,
    extract_field,
    lambda_n,
    limited_aperture_fit,
    modal_matrix,
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

    def test_partial_aperture_refused(self):
        theta = np.linspace(0.0, np.pi, 64, endpoint=False)
        rec = ScatterRecord(
            rho=RHO, sys=SYS5, sources=(SRC,),
            receivers=theta, values=np.zeros((1, 64, 2), complex),
            aperture=(0.0, np.pi),
        )
        with pytest.raises(ConfigError):
            modal_rhs(rec, N=4)

class TestModalMatrix:
    def test_zero_mode_decouples(self):
        m = modal_matrix(0, RHO, 0.5, SYS5)
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_determinant_identity(self, n):
        m = modal_matrix(n, RHO, 0.5, SYS5)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        from elshape.modal import _hankel_table

        beta_p = _hankel_table(SYS5.k_p, 0.5, abs(n), np.array([RHO]), False)[1][n + abs(n), 0]
        beta_s = _hankel_table(SYS5.k_s, 0.5, abs(n), np.array([RHO]), False)[1][n + abs(n), 0]
        want = beta_p * beta_s * lambda_n(n, RHO, 0.5, SYS5)
        assert abs(det - want) <= 1e-12 * abs(want)

    def test_negative_order_symmetry(self):
        m_pos = modal_matrix(4, RHO, 0.5, SYS5)
        m_neg = modal_matrix(-4, RHO, 0.5, SYS5)
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
            m = modal_matrix(n, RHO, 0.5, SYS5)
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

    def test_underflow_guard_names_mode(self):
        from elshape.modal import ModalRhs

        N = 250
        rhs = ModalRhs(
            N=N, f_p=np.ones(2 * N + 1, complex), f_s=np.ones(2 * N + 1, complex)
        )
        with pytest.raises(SolveError):
            solve_modal(rhs, RHO, 0.5, SYS1)


class TestEvalField:
    def test_single_mode_matches_matrix_column(self):
        N = 0
        mf = ModalField(
            N=N, R=0.5, rho=RHO, sys=SYS5,
            phat_p=np.array([1.0 + 0j]), phat_s=np.array([0.0 + 0j]),
        )
        x = np.array([RHO, 0.0])  # theta = 0: U_0 = e_r = (1,0), V_0 = (0,1)
        m = modal_matrix(0, RHO, 0.5, SYS5)
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
        v = disk_series(1.0, SRC, SYS5, 40).eval(pts)
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


class TestPolarDerivatives:
    def test_theta_derivative_of_radial_mode_is_tangential(self):
        mf = ModalField(
            N=0, R=0.5, rho=RHO, sys=SYS5,
            phat_p=np.array([1.0 + 0j]), phat_s=np.array([0.0 + 0j]),
        )
        x = np.array([2.0, 0.0])
        v = eval_field(mf, x)          # A_0(r) e_r at theta=0
        _, d_t = eval_polar_derivs(mf, x)
        # d/dtheta (A_0 e_r) = A_0 e_theta = (0, A_0)
        assert abs(d_t[0]) <= 1e-14
        assert d_t[1] == pytest.approx(v[0], rel=1e-13)

    def test_derivatives_match_finite_differences(self, random_field):
        x0 = np.array([1.7, -0.9])
        r0 = np.linalg.norm(x0)
        t0 = np.arctan2(x0[1], x0[0])

        def at(r, t):
            return eval_field(random_field, np.array([r * np.cos(t), r * np.sin(t)]))

        d_r, d_t = eval_polar_derivs(random_field, x0)
        fd_r = oracles.central_diff(lambda r: at(r, t0), r0, 1e-5)
        fd_t = oracles.central_diff(lambda t: at(r0, t), t0, 1e-5)
        assert np.max(np.abs(d_r - fd_r)) <= 1e-7 * np.max(np.abs(fd_r))
        assert np.max(np.abs(d_t - fd_t)) <= 1e-7 * np.max(np.abs(fd_t))

    def test_kappa_is_radial_derivative_of_alpha(self):
        from elshape.modal import _hankel_table

        k, R = SYS5.k_p, 0.5
        n = 4

        def alpha(r):
            return _hankel_table(k, R, n, np.array([r]), False)[0][n + n, 0]

        kappa = _hankel_table(k, R, n, np.array([2.0]), True)[2][n + n, 0]
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
        truth = disk_series(1.0, SRC, SYS5, 40)
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
            limited_aperture_fit(rec, 10, reg=0.0)


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


class TestModalFieldSerialization:
    def test_roundtrip(self, tmp_path, random_field):
        import json

        rng = np.random.default_rng(9)
        c = rng.normal(size=(2, 3, 4, 21)) + 1j * rng.normal(size=(2, 3, 4, 21))
        batched = ModalField(N=10, R=0.5, rho=RHO, sys=SYS5, phat_p=c[0], phat_s=c[1])
        for field in (random_field, batched):
            path = tmp_path / "field.json"
            field.save(path)
            back = ModalField.from_json_dict(json.loads(path.read_text()))
            assert np.array_equal(back.phat_p, field.phat_p)
            assert np.array_equal(back.phat_s, field.phat_s)
            assert back.N == field.N
            assert back.R == field.R
            assert back.rho == field.rho
            assert back.sys == field.sys

    def test_one_dimensional_layout_unchanged(self, random_field):
        import json

        doc = random_field.to_json_dict()["coefficients"]
        for got, coeffs in ((doc["p"], random_field.phat_p), (doc["s"], random_field.phat_s)):
            assert json.dumps(got) == json.dumps([[c.real, c.imag] for c in coeffs])


class TestDecayAndNoise:
    def test_truncation_decay_slope_r05(self):
        from elshape.verify import decay_profile

        orders = np.arange(13, 22)
        errs, _ = decay_profile(np.sqrt(8.0), (16.0, 0.0), SYS1, 0.5, orders)
        slope = np.polyfit(orders, np.log(errs), 1)[0]
        assert slope <= -np.log(6.0) + 0.15

    def test_truncation_decay_slope_r03_above_floor(self):
        # with R = 0.3 the tail reaches the float64 floor around N ~ 17, so
        # the slope is fitted on the prefix above a documented threshold
        from elshape.verify import decay_profile

        orders = np.arange(13, 22)
        errs, scale = decay_profile(np.sqrt(0.3 * 16.0), (16.0, 0.0), SYS1, 0.3, orders)
        keep = errs > 30.0 * np.finfo(float).eps * scale
        assert np.sum(keep) >= 4, "decay window entirely below the noise floor"
        slope = np.polyfit(orders[keep], np.log(errs[keep]), 1)[0]
        assert slope <= -np.log(3.0 / 0.3) + 0.15

    def test_noise_response_linear_in_delta(self):
        from elshape.verify import noise_halving_ratios

        ratios = noise_halving_ratios(n_trials=20)
        doubling = 1.0 / ratios  # e(0.05)/e(0.025)
        med = float(np.median(doubling))
        assert 1.5 <= med <= 2.5

    def test_lambda_nonvanishing_configured_geometries(self):
        for omega in (1.0, 5.0):
            sys = LameSystem(1.0, 1.0, omega)
            for R in (0.3, 0.5, 0.8):
                for n in range(0, 41):
                    assert abs(lambda_n(n, RHO, R, sys)) > 0.0
