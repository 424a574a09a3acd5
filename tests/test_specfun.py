"""Special-function layer against independent series / mpmath oracles."""

import numpy as np
import pytest

from elshape import specfun
from elshape.errors import DomainError

import oracles

# frozen from the ascending-series oracles in oracles.py (cross-checked
# against mpmath at 30 digits)
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.08825696421567696
Y1_AT_1 = -0.7812128213002887
J1_AT_1 = 0.4400505857449335


class TestBesselJ:
    def test_series_value_at_one(self):
        assert oracles.bessel_j_series(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-15)
        assert specfun.bessel_j(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-12)

    def test_small_argument_leading_term(self):
        # J_1(t) ~ t/2
        assert specfun.bessel_j(1, 1e-6) == pytest.approx(5e-7, rel=1e-6)

    def test_negative_order_reflection(self):
        assert specfun.bessel_j(-2, 3.0) == specfun.bessel_j(2, 3.0)
        assert specfun.bessel_j(-3, 3.0) == -specfun.bessel_j(3, 3.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 30, 60])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0, 100.0])
    def test_accuracy_grid(self, n, t):
        want = oracles.mp_jv(n, t)
        got = float(specfun.bessel_j(n, t))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-280)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            specfun.bessel_j(0, 0.0)
        with pytest.raises(DomainError):
            specfun.bessel_j(0, -1.0)
        with pytest.raises(DomainError):
            specfun.bessel_j(0, np.nan)
        with pytest.raises(DomainError):
            specfun.bessel_j(0.5, 1.0)


class TestBesselY:
    def test_series_values_at_one(self):
        assert oracles.bessel_y0_series(1.0) == pytest.approx(Y0_AT_1, rel=1e-13)
        assert specfun.bessel_y(0, 1.0) == pytest.approx(Y0_AT_1, rel=1e-12)
        assert oracles.bessel_y1_series(1.0) == pytest.approx(Y1_AT_1, rel=1e-13)
        assert specfun.bessel_y(1, 1.0) == pytest.approx(Y1_AT_1, rel=1e-12)

    def test_wronskian_at_example_point(self):
        n, t = 5, 2.3
        j = specfun.bessel_j(n, t)
        y = specfun.bessel_y(n, t)
        jp = specfun.bessel_j(n - 1, t) - (n / t) * j
        yp = specfun.bessel_y(n - 1, t) - (n / t) * y
        assert j * yp - jp * y == pytest.approx(2.0 / (np.pi * t), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 5, 30, 60])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 2.0, 50.0])
    def test_accuracy_grid(self, n, t):
        want = oracles.mp_yv(n, t)
        assert float(specfun.bessel_y(n, t)) == pytest.approx(want, rel=1e-12)

    def test_wronskian_grid(self):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            n = np.arange(0, 31)
            j = specfun.bessel_j(n, t)
            y = specfun.bessel_y(n, t)
            jp = specfun.bessel_j(n - 1, t) - (n / t) * j
            yp = specfun.bessel_y(n - 1, t) - (n / t) * y
            target = 2.0 / (np.pi * t)
            assert np.max(np.abs(j * yp - jp * y - target)) <= 1e-10 * target


class TestHankel1:
    def test_value_at_one(self):
        got = complex(specfun.hankel1(0, 1.0))
        assert got.real == pytest.approx(J0_AT_1, rel=1e-12)
        assert got.imag == pytest.approx(Y0_AT_1, rel=1e-12)

    def test_imaginary_blowup_in_order(self):
        t = 2.0
        mags = [-complex(specfun.hankel1(n, t)).imag for n in range(2, 12)]
        assert all(m > 0 for m in mags)
        assert mags == sorted(mags)

    def test_magnitude_monotone_in_argument(self):
        grid = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
        for n in range(0, 31):
            mags = np.abs(specfun.hankel1(n, grid))
            assert np.all(mags[1:] <= mags[:-1] * (1.0 + 1e-12))

    def test_recurrence_closure_grid(self):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            n = np.arange(0, 31)
            h = specfun.hankel1(n, t)
            resid = np.abs(2 * n * h - t * (specfun.hankel1(n + 1, t) + specfun.hankel1(n - 1, t)))
            assert np.all(resid <= 1e-9 * np.abs(h) * np.maximum(1, n))

    def test_negative_order_reflection(self):
        assert complex(specfun.hankel1(-3, 2.0)) == -complex(specfun.hankel1(3, 2.0))
        assert complex(specfun.hankel1(-4, 2.0)) == complex(specfun.hankel1(4, 2.0))


class TestHankelDerivatives:
    def test_first_derivative_at_zero_order(self):
        got = complex(specfun.hankel1_d1(0, 1.0))
        want = -complex(specfun.hankel1(1, 1.0))
        assert got == want
        assert got.real == pytest.approx(-J1_AT_1, rel=1e-12)
        assert got.imag == pytest.approx(-Y1_AT_1, rel=1e-12)

    def test_first_derivative_vs_finite_difference(self):
        h = 1e-6
        fd = oracles.central_diff(lambda t: complex(specfun.hankel1(3, t)), 2.0, h)
        got = complex(specfun.hankel1_d1(3, 2.0))
        assert abs(got - fd) <= 1e-8 * abs(fd)

    def test_derivative_bound_from_magnitudes(self):
        # |H_n'| <= (1 + n/t)|H_n| requires n >= 1 (see decisions ledger)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            n = np.arange(1, 31)
            ratio = np.abs(specfun.hankel1_d1(n, t)) / (
                (1.0 + n / t) * np.abs(specfun.hankel1(n, t))
            )
            assert np.max(ratio) <= 1.0 + 1e-12

    def test_second_derivative_ode_identity_at_zero_order(self):
        h0 = complex(specfun.hankel1(0, 1.0))
        h0p = complex(specfun.hankel1_d1(0, 1.0))
        assert complex(specfun.hankel1_d2(0, 1.0)) == pytest.approx(-h0 - h0p, rel=1e-14)

    def test_second_derivative_vs_finite_difference(self):
        h = 1e-4
        fd = oracles.second_central_diff(lambda t: complex(specfun.hankel1(2, t)), 3.0, h)
        got = complex(specfun.hankel1_d2(2, 3.0))
        assert abs(got - fd) <= 1e-6 * abs(fd)

    def test_second_derivative_bound_in_working_regime(self):
        for t in (0.3, 0.5, 1.0, 2.0, 5.0):
            n = np.arange(max(2, int(np.ceil(4 * t))), 41)
            bound = (2.0 * n * n + t) / (t * t) * np.abs(specfun.hankel1(n, t))
            assert np.all(np.abs(specfun.hankel1_d2(n, t)) <= bound * (1.0 + 1e-12))


class TestLargeOrderSandwich:
    def test_sandwich_in_log_space(self):
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            n_min = int(np.floor((np.e * t + 1.0) / 2.0)) + 1
            n = np.arange(max(n_min, 1), 61)
            log_ratio = (
                np.log(np.pi)
                + n * np.log(t)
                + np.log(np.abs(specfun.hankel1(n, t)))
                - np.log(3.0)
                - (n - 1) * np.log(2.0)
                - specfun.ln_gamma(n.astype(float))
            )
            assert np.all(log_ratio >= np.log(0.5))
            assert np.all(log_ratio <= t)


class TestLnGamma:
    def test_known_values(self):
        assert specfun.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert specfun.ln_gamma(5.0) == pytest.approx(np.log(24.0), rel=1e-14)
        assert specfun.ln_gamma(0.5) == pytest.approx(0.5 * np.log(np.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 7.0, 42.5, 300.0])
    def test_accuracy(self, x):
        assert float(specfun.ln_gamma(x)) == pytest.approx(
            oracles.mp_ln_gamma(x), rel=1e-10
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            specfun.ln_gamma(0.0)
        with pytest.raises(DomainError):
            specfun.ln_gamma(-2.0)


class TestHankelTable:
    ORDERS = np.arange(0, 61)
    ARGS = np.array([1e-3, 1e-2, 0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 55.0, 100.0])

    @pytest.fixture(scope="class")
    def mp_grid(self):
        return np.array([[oracles.mp_hankel1(int(n), t) for t in self.ARGS] for n in self.ORDERS])

    def test_matches_mpmath_on_working_range(self, mp_grid):
        got = specfun.hankel1_table(60, self.ARGS)
        assert got.shape == (61, self.ARGS.size)
        assert np.max(np.abs(got - mp_grid) / np.abs(mp_grid)) <= 1e-13

    def test_matches_amos_on_working_range(self):
        got = specfun.hankel1_table(60, self.ARGS)
        want = specfun.hankel1(self.ORDERS[:, None], self.ARGS[None, :])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_low_orders_and_shapes(self):
        t = np.linspace(0.3, 9.0, 12).reshape(3, 4)
        h0 = specfun.hankel1_table(0, t)
        h1 = specfun.hankel1_table(1, t)
        assert h0.shape == (1, 3, 4) and h1.shape == (2, 3, 4)
        assert np.array_equal(h0[0], h1[0])
        for n in (0, 1):
            want = specfun.hankel1(n, t)
            assert np.max(np.abs(h1[n] - want) / np.abs(want)) <= 1e-14
        assert specfun.hankel1_table(3, 2.0).shape == (4,)
        assert complex(specfun.hankel1_table(0, 1.0)[0]) == pytest.approx(
            complex(J0_AT_1, Y0_AT_1), rel=1e-15
        )

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf, [1.0, 0.0]])
    def test_rejects_bad_arguments(self, t):
        with pytest.raises(DomainError):
            specfun.hankel1_table(2, t)

    @pytest.mark.parametrize("N", [-1, 1.5])
    def test_rejects_bad_table_order(self, N):
        with pytest.raises(DomainError):
            specfun.hankel1_table(N, 1.0)

    def test_overflow_is_non_finite_and_ends_in_modal_guard(self):
        from elshape.elastic import LameSystem
        from elshape.errors import SolveError
        from elshape.modal import ModalField, eval_field

        assert not np.all(np.isfinite(specfun.hankel1_table(250, 1e-2)))
        N = 250
        mf = ModalField(
            N=N, R=0.01, rho=3.0, sys=LameSystem(1.0, 1.0, 1.0),
            phat_p=np.ones(2 * N + 1, complex), phat_s=np.ones(2 * N + 1, complex),
        )
        with pytest.raises(SolveError):
            eval_field(mf, np.array([[2.0, 0.0]]))
