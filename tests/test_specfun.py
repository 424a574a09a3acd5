"""Special-function layer against independent series / mpmath oracles."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from elshape import specfun, verify
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


def amos_table(fn):
    """The AMOS function ``fn`` as a ``cylinder_tables`` table of orders 0..m."""
    return lambda m, t: fn(np.arange(m + 1).reshape((-1,) + (1,) * np.ndim(t)), t)


#: both routes to H_n^(1) that cylinder_tables is run on
HANKEL_ROUTES = (amos_table(specfun.hankel1), specfun.hankel1_table)


class TestHankelDerivatives:
    """H_n' and H_n'' from ``cylinder_tables``, on the AMOS and the numpy route."""

    def test_first_derivative_at_zero_order(self):
        for route in HANKEL_ROUTES:
            _, hp, _ = specfun.cylinder_tables(route, 0, 1.0)
            got = complex(hp[0])
            assert got == -complex(route(1, 1.0)[1])  # C_{-1} = -C_1 closes C_0'
            assert got.real == pytest.approx(-J1_AT_1, rel=1e-12)
            assert got.imag == pytest.approx(-Y1_AT_1, rel=1e-12)

    def test_first_derivative_vs_finite_difference(self):
        h = 1e-6
        fd = oracles.central_diff(lambda t: complex(specfun.hankel1(3, t)), 2.0, h)
        for route in HANKEL_ROUTES:
            got = complex(specfun.cylinder_tables(route, 3, 2.0)[1][3 + 3])
            assert abs(got - fd) <= 1e-8 * abs(fd)

    def test_derivative_bound_from_magnitudes(self):
        # |H_n'| <= (1 + n/t)|H_n| requires n >= 1 (see decisions ledger)
        n = np.arange(1, 31)
        for route in HANKEL_ROUTES:
            for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
                h, hp, _ = specfun.cylinder_tables(route, 30, t)
                ratio = np.abs(hp[30 + n]) / ((1.0 + n / t) * np.abs(h[30 + n]))
                assert np.max(ratio) <= 1.0 + 1e-12

    def test_second_derivative_ode_identity_at_zero_order(self):
        for route in HANKEL_ROUTES:
            h0, h0p, h0pp = (complex(tab[0]) for tab in specfun.cylinder_tables(route, 0, 1.0))
            assert h0pp == pytest.approx(-h0 - h0p, rel=1e-14)

    def test_second_derivative_vs_finite_difference(self):
        h = 1e-4
        fd = oracles.second_central_diff(lambda t: complex(specfun.hankel1(2, t)), 3.0, h)
        for route in HANKEL_ROUTES:
            got = complex(specfun.cylinder_tables(route, 2, 3.0)[2][2 + 2])
            assert abs(got - fd) <= 1e-6 * abs(fd)

    def test_second_derivative_bound_in_working_regime(self):
        for route in HANKEL_ROUTES:
            for t in (0.3, 0.5, 1.0, 2.0, 5.0):
                n = np.arange(max(2, int(np.ceil(4 * t))), 41)
                h, _, hpp = specfun.cylinder_tables(route, 40, t)
                bound = (2.0 * n * n + t) / (t * t) * np.abs(h[40 + n])
                assert np.all(np.abs(hpp[40 + n]) <= bound * (1.0 + 1e-12))


class TestCylinderTables:
    @pytest.mark.parametrize("fn", [specfun.bessel_j, specfun.hankel1], ids=["J", "H"])
    def test_negative_orders_match_amos(self, fn):
        # AMOS reflects negative integer orders itself: C equals it bit for
        # bit, and C', C'' (from C_{n+1} on the negative side, not C_{n-1})
        # agree to round-off
        N, t = 30, verify.ARG_GRID
        n = np.arange(-N, N + 1)[:, None]
        c, dc, ddc = specfun.cylinder_tables(amos_table(fn), N, t)
        assert np.array_equal(c, fn(n, t))
        for got, want in zip((dc, ddc), specfun.derivatives(fn(n - 1, t), fn(n, t), n, t)):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("N", [0, 1, 2, 5])
    def test_evaluates_orders_zero_to_max_n_one(self, N):
        asked = []

        def table(m, t):
            asked.append(m)
            return specfun.hankel1_table(m, t)

        tabs = specfun.cylinder_tables(table, N, np.ones((2, 3)))
        assert asked == [max(N, 1)]
        assert [tab.shape for tab in tabs] == [(2 * N + 1, 2, 3)] * 3

    def test_overflow_is_non_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tabs = specfun.cylinder_tables(specfun.hankel1_table, 250, np.array([1e-2, 1.0]))
        for tab in tabs:
            assert not np.all(np.isfinite(tab[:, 0]))
            assert np.all(np.isfinite(tab[250 - 20 : 250 + 21, 1]))


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


class TestOrderZeroOneKernel:
    """The numpy kernel behind hankel1_table's orders 0 and 1."""

    T1 = specfun.T1
    GRID = np.concatenate([
        np.geomspace(1e-3, 100.0, 400),
        [np.nextafter(T1, 0.0), T1, np.nextafter(T1, np.inf), 0.999 * T1, 1.001 * T1],
    ])

    def test_matches_mpmath_on_dense_log_grid(self):
        assert np.any(self.GRID <= self.T1) and np.any(self.GRID > self.T1)
        got = specfun.hankel1_table(1, self.GRID)
        want = np.array([[oracles.mp_hankel1(n, t) for t in self.GRID] for n in (0, 1)])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_fit_reproduces_the_committed_coefficients(self):
        path = Path(__file__).resolve().parent.parent / "tools" / "fit_hankel01.py"
        spec = importlib.util.spec_from_file_location("fit_hankel01", path)
        fit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fit)
        assert fit.T1 == specfun.T1
        coeffs = np.array(fit.fit())
        assert coeffs.shape == specfun._CHEB.shape
        assert coeffs.tobytes() == specfun._CHEB.tobytes()

    def test_mixed_block_matches_single_region_calls(self):
        # near and far arguments interleaved in one block: each region's
        # transcendentals are taken only where it applies, and no masked-out
        # value leaks into the other region
        rng = np.random.default_rng(7)
        near = rng.uniform(1e-3, self.T1, 1000)
        far = rng.uniform(np.nextafter(self.T1, np.inf), 100.0, 1000)
        mixed = np.empty(2000)
        mixed[0::2], mixed[1::2] = near, far
        got = specfun.hankel1_table(1, mixed)
        assert np.all(np.isfinite(got))
        for part, t in ((got[:, 0::2], near), (got[:, 1::2], far)):
            want = specfun.hankel1_table(1, t)
            assert np.max(np.abs(part - want) / np.abs(want)) <= 1e-15

    @pytest.mark.parametrize("check, row", [
        (verify.check_wronskian, 1), (verify.check_recurrence, 2),
    ], ids=["wronskian", "recurrence"])
    def test_battery_checks_see_the_table(self, monkeypatch, check, row):
        table = specfun.hankel1_table

        def perturbed(N, t):
            h = table(N, t)
            h[row] *= 1.0 + 1e-7
            return h

        assert check().passed
        monkeypatch.setattr(specfun, "hankel1_table", perturbed)
        assert not check().passed


@pytest.mark.parametrize("check", [
    verify.check_magnitude_monotone, verify.check_derivative_bound,
    verify.check_second_derivative_bound,
])
def test_battery_reports_the_bound_it_applies(check):
    # these checks pass up to 1e-12 of round-off above 1, and say so
    result = check()
    assert result.passed and result.bound == 1.0 + 1e-12


class TestBatteryRegimes:
    """Two battery checks hold only in a ragged (order, argument) regime,
    masked over one order range.  Scaling one H_n(t) entry down makes the
    check fail at the regime's first order and leaves it passing one order
    below, so each mask starts exactly where its regime does."""

    @pytest.mark.parametrize("check, t, first", [
        # n > (e t + 1)/2
        (verify.check_tail_sandwich, 0.5, 2),
        (verify.check_tail_sandwich, 2.0, 4),
        (verify.check_tail_sandwich, 10.0, 15),
        # n >= max(2, 4t)
        (verify.check_second_derivative_bound, 1.0, 4),
        (verify.check_second_derivative_bound, 2.0, 8),
        (verify.check_second_derivative_bound, 5.0, 20),
    ], ids=["sandwich-0.5", "sandwich-2", "sandwich-10", "second-1", "second-2", "second-5"])
    @pytest.mark.parametrize("order, fails", [(0, True), (-1, False)], ids=["first", "below"])
    def test_mask_covers_exactly_the_regime(self, monkeypatch, check, t, first, order, fails):
        hankel1 = specfun.hankel1

        def perturbed(n, arg):
            h = hankel1(n, arg)
            hit = (np.asarray(n) == first + order) & (np.asarray(arg) == t)
            return np.where(hit, 1e-30 * h, h)

        assert check().passed
        monkeypatch.setattr(specfun, "hankel1", perturbed)
        assert check().passed is not fails
