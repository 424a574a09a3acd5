"""Numerical verification battery for the analysis layer.

Each check measures a quantity the theory constrains and compares it to
the stated bound:

* Hankel identities: Wronskian and three-term recurrence closure (of
  scipy's AMOS values and of the numpy ``hankel1_table`` the solver runs
  on), magnitude monotonicity in the argument, the derivative bound
  |H_n'| <= (1 + n/t)|H_n|, the large-order sandwich
  1/2 <= pi t^n |H_n(t)| / (3 2^{n-1} Gamma(n)) <= e^t for n > (e t + 1)/2
  (checked in log space), and the second-derivative bound
  |H_n''(t)| <= ((2 n^2 + t)/t^2)|H_n(t)| in the regime n >= max(2, 4t)
  used by the shape-derivative kernels.  Each check evaluates its whole
  (order x argument) grid with one broadcast call per special function;
  the last two hold only in a ragged regime, a mask over one order range.
* The geometric tail sum: S = sum_{n>N} n^2 tau^{-2n}
  <= 4 N^2 tau^{4-2N} (tau^2 - 1)^{-3}, by direct summation.
* Per-mode determinant factors Lambda_n stay bounded away from zero.
* Field-level measurements: truncation-error decay slope of the modal
  approximation on the data circle, first-order noise scaling at fixed
  truncation, multiplicative noise statistics, and the MFS / analytic
  disk-series oracle agreement.  The decay slope comes from one
  extraction at the largest order: full-circle extraction acts on each
  mode alone, so every lower order's field is that extraction with the
  higher modes zeroed.

Everything is self-contained (no network, fixed seeds) and finishes in
well under a minute.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .elastic import POLARIZATION, LameSystem, PointSource
from .forward import (
    ORACLE_TOL, disk_series, measure, noise_perturbation, oracle_gap, record_from_disk_series,
    ring_sources, solve_mfs,
)
from .geometry import disk
from .modal import ModalField, eval_field, eval_gradient, lambda_n, modal_rhs, solve_modal
from .records import ScatterRecord


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str
    seconds: float = 0.0  # set by run_battery


def _result(name, passed, measured, bound, detail):
    return CheckResult(name, bool(passed), float(measured), float(bound), detail)


# ---------------------------------------------------------------------------
# special-function identities
# ---------------------------------------------------------------------------

ORDER_GRID = np.arange(0, 31)
ARG_GRID = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])


def check_wronskian() -> CheckResult:
    """J_n Y_n' - J_n' Y_n = 2/(pi t) on the AMOS grid, and J_1 Y_0 - J_0 Y_1 =
    2/(pi t) on the rows hankel1_table computes directly (orders 0 and 1;
    above n ~ t its recurrence carries J_n only to within eps |Y_n|)."""
    n, t = ORDER_GRID[:, None], ARG_GRID
    j = specfun.bessel_j(n, t)
    y = specfun.bessel_y(n, t)
    jp, _ = specfun.derivatives(specfun.bessel_j(n - 1, t), j, n, t)
    yp, _ = specfun.derivatives(specfun.bessel_y(n - 1, t), y, n, t)
    target = 2.0 / (np.pi * t)
    worst = np.max(np.abs(j * yp - jp * y - target) / target)
    h0, h1 = specfun.hankel1_table(1, t)
    defect = np.abs(h1.real * h0.imag - h0.real * h1.imag - target) / target
    worst = max(worst, np.max(defect))
    return _result("wronskian", worst <= 1e-10, worst, 1e-10,
                   "max relative Wronskian defect on the (n, t) grid, AMOS and table")


def _recurrence_defect(n, t, h, h_up, h_dn) -> float:
    """max |2n H_n - t (H_{n+1} + H_{n-1})| / (|H_n| max(1, n))."""
    resid = np.abs(2 * n * h - t * (h_up + h_dn))
    return float(np.max(resid / (np.abs(h) * np.maximum(1, n))))


def check_recurrence() -> CheckResult:
    """Three-term recurrence closure of AMOS's H_n and of hankel1_table's rows."""
    n, t = ORDER_GRID[:, None], ARG_GRID
    table = specfun.hankel1_table(ORDER_GRID[-1] + 1, t)  # orders 0..31
    below = np.concatenate([-table[1:2], table[: n.size - 1]])  # H_{n-1}, H_{-1} = -H_1
    worst = max(
        _recurrence_defect(n, t, table[: n.size], table[1:], below),
        _recurrence_defect(n, t, *(specfun.hankel1(m, t) for m in (n, n + 1, n - 1))),
    )
    return _result("recurrence_closure", worst <= 1e-9, worst, 1e-9,
                   "three-term recurrence residual relative to |H_n| max(1,n), AMOS and table")


def check_magnitude_monotone() -> CheckResult:
    mags = np.abs(specfun.hankel1(ORDER_GRID[:, None], ARG_GRID))
    worst = np.max(mags[:, 1:] / mags[:, :-1])  # should be <= 1 + 1e-12
    return _result("magnitude_monotone", worst <= 1.0 + 1e-12, worst, 1.0 + 1e-12,
                   "max |H_n(t2)|/|H_n(t1)| over t1 <= t2")


def check_derivative_bound() -> CheckResult:
    # |H_{n-1}| <= |H_n| underpins this bound, so it needs n >= 1 (at n = 0
    # it fails for small t; the analysis treats the n = 0 mode separately)
    n, t = ORDER_GRID[1:, None], ARG_GRID
    h = specfun.hankel1(n, t)
    hp, _ = specfun.derivatives(specfun.hankel1(n - 1, t), h, n, t)
    worst = np.max(np.abs(hp) / ((1.0 + n / t) * np.abs(h)))
    return _result("derivative_bound", worst <= 1.0 + 1e-12, worst, 1.0 + 1e-12,
                   "max |H_n'| / ((1+n/t)|H_n|), n >= 1")


def check_tail_sandwich() -> CheckResult:
    """1/2 <= pi t^n |H_n| / (3 2^{n-1} Gamma(n)) <= e^t for n > (e t + 1)/2."""
    n, t = np.arange(1, 61)[:, None], np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    regime = n > (np.e * t + 1.0) / 2.0
    log_ratio = (
        np.log(np.pi) + n * np.log(t) + np.log(np.abs(specfun.hankel1(n, t)))
        - np.log(3.0) - (n - 1) * np.log(2.0) - specfun.ln_gamma(n.astype(float))
    )
    lo_worst = np.min(log_ratio - np.log(0.5), where=regime, initial=np.inf)
    hi_worst = np.max(log_ratio - t, where=regime, initial=-np.inf)
    passed = lo_worst >= 0.0 and hi_worst <= 0.0
    return _result("tail_sandwich", passed, min(lo_worst, -hi_worst), 0.0,
                   "log-space margins of the large-order magnitude sandwich")


def check_second_derivative_bound() -> CheckResult:
    """|H_n''(t)| <= ((2n^2 + t)/t^2) |H_n(t)| for n >= max(2, 4t)."""
    n, t = np.arange(2, 41)[:, None], np.array([0.3, 0.5, 1.0, 2.0, 5.0])
    h = specfun.hankel1(n, t)
    _, hpp = specfun.derivatives(specfun.hankel1(n - 1, t), h, n, t)
    bound = (2.0 * n * n + t) / (t * t) * np.abs(h)
    worst = np.max(np.abs(hpp) / bound, where=n >= np.maximum(2, 4.0 * t), initial=0.0)
    return _result("second_derivative_bound", worst <= 1.0 + 1e-12, worst, 1.0 + 1e-12,
                   "max |H_n''| / (((2n^2+t)/t^2)|H_n|) in the working regime")


# ---------------------------------------------------------------------------
# tail sum and modal determinants
# ---------------------------------------------------------------------------

def tail_sum(N: int, tau: float) -> float:
    """S = sum_{n > N} n^2 tau^{-2n} by direct summation to machine tail."""
    total = 0.0
    n = N + 1
    while True:
        term = n * n * tau ** (-2 * n)
        total += term
        if term < 1e-22 * total and n > N + 10:
            return total
        n += 1
        if n > N + 100000:
            return total


def check_tail_sum_bound() -> CheckResult:
    worst = 0.0
    cells = 0
    for tau in (1.2, 1.5, 2.0, 3.0):
        for N in range(2, 31):
            s = tail_sum(N, tau)
            bound = 4.0 * N * N * tau ** (4 - 2 * N) / (tau * tau - 1.0) ** 3
            worst = max(worst, s / bound)
            cells += 1
    return _result("tail_sum_bound", worst <= 1.0, worst, 1.0,
                   f"max S/bound over {cells} (N, tau) cells")


def check_lambda_nonvanishing() -> CheckResult:
    smallest = np.inf
    for omega in (1.0, 5.0):
        for R in (0.3, 0.5, 0.8):
            sys = LameSystem(1.0, 1.0, omega)
            lam = lambda_n(np.arange(0, 41), 3.0, R, sys)
            smallest = min(smallest, float(np.min(np.abs(lam))))
    return _result("lambda_nonvanishing", smallest > 0.0, smallest, 0.0,
                   "min |Lambda_n| over omega, R, |n| <= 40")


# ---------------------------------------------------------------------------
# field-level measurements
# ---------------------------------------------------------------------------

def decay_profile(radius: float, source_xy, sys: LameSystem, R: float, orders):
    """RMS truncation error on the data circle r = 3 (256 receivers) for
    each order in ``orders``.

    Full-circle extraction acts on each mode alone, so v_N is the
    extraction at the largest order with the modes |n| > N zeroed: one
    extraction, and one evaluation with a coefficient row per order.
    """
    srcs = (PointSource(source_xy, POLARIZATION),)
    rec = measure(disk_series(radius, srcs, sys, n_modes=60), 3.0, 256)
    top = int(np.max(orders))
    mf = solve_modal(modal_rhs(rec, top), rec.rho, R, sys)
    keep = np.abs(np.arange(-top, top + 1)) <= np.reshape(orders, (-1, 1))
    truncated = replace(mf, phat_p=keep * mf.phat_p, phat_s=keep * mf.phat_s)
    approx = eval_field(truncated, disk(rec.rho).point(rec.receivers))
    errs = np.sqrt(np.mean(np.sum(np.abs(approx - rec.values) ** 2, axis=-1), axis=-1))
    scale = float(np.sqrt(np.mean(np.sum(np.abs(rec.values) ** 2, axis=-1))))
    return errs, scale


def decay_slope(orders, errs, scale: float) -> float:
    """Fitted log-slope of ``errs`` over the orders whose error lies above
    the float64 round-off floor 30 eps * scale; nan if fewer than 4 do."""
    keep = errs > 30.0 * np.finfo(float).eps * scale
    if np.count_nonzero(keep) < 4:
        return float("nan")
    return float(np.polyfit(np.asarray(orders)[keep], np.log(errs[keep]), 1)[0])


def check_truncation_decay() -> CheckResult:
    """Log-slope over N in [13, 21], above the floor, against -ln(rho/R) + 0.15."""
    orders = np.arange(13, 22)
    errs, scale = decay_profile(np.sqrt(8.0), (16.0, 0.0), LameSystem(1, 1, 1.0), 0.5, orders)
    slope = decay_slope(orders, errs, scale)
    bound = -np.log(6.0) + 0.15
    return _result("truncation_decay_slope", slope <= bound, slope, bound,
                   "log-slope of ||v - v_N|| on the data circle, R=0.5")


def noise_halving_ratios() -> np.ndarray:
    """||v_N^d - v_N|| ratios at N = 7 when halving delta, 20 independent draws.

    Extraction and evaluation are linear in the data, so v_N^d - v_N is
    the field extracted from the noise term alone.  All 2 n_trials noise
    terms go through one extraction as one record with 2 n_trials times the
    sources; each norm is taken over its record's sources on the receivers
    (the field has degree N + 1 < M/2 on the circle, so the receiver mean
    is the circle's L2 mean).
    """
    n_trials, N = 20, 7
    sys = LameSystem(1.0, 1.0, 5.0)
    srcs = ring_sources(20, 3.0, POLARIZATION)
    clean = record_from_disk_series(1.0, srcs, sys, 3.0, 128)
    noise = np.stack([
        noise_perturbation(clean.values, delta, seed)
        for i in range(n_trials) for delta, seed in ((0.05, 100 + i), (0.025, 500 + i))
    ])
    batch = replace(clean, sources=clean.sources * len(noise),
                    values=noise.reshape((-1,) + clean.values.shape[1:]))
    mf = solve_modal(modal_rhs(batch, N), batch.rho, 0.5, sys)
    field = eval_field(mf, disk(batch.rho).point(batch.receivers))
    per_source = np.mean(np.sum(np.abs(field) ** 2, axis=-1), axis=-1)
    norms = np.sqrt(np.sum(per_source.reshape(n_trials, 2, len(srcs)), axis=-1))
    return norms[:, 1] / norms[:, 0]


def check_noise_scaling() -> CheckResult:
    med = float(np.median(noise_halving_ratios()))
    passed = 0.35 <= med <= 0.65
    return _result("noise_scaling_linear", passed, med, 0.5,
                   "median error ratio when halving delta 0.05 -> 0.025")


def check_noise_statistics() -> CheckResult:
    rng_values = np.random.default_rng(7)
    values = rng_values.normal(size=(1, 5000, 2)) + 1j * rng_values.normal(size=(1, 5000, 2))
    ratio = np.abs(noise_perturbation(values, 0.05, 11)) / (0.05 * np.abs(values))
    mean = float(np.mean(ratio))
    return _result("noise_statistics", 0.45 <= mean <= 0.55, mean, 0.5,
                   "mean perturbation modulus / (delta |v|) over 10^4 components")


def mfs_series_discrepancy(omega: float) -> float:
    """``oracle_gap`` between the MFS and series fields on the data circle."""
    sys = LameSystem(1.0, 1.0, omega)
    srcs = (PointSource((3.0, 0.0), POLARIZATION),)
    v_m = measure(solve_mfs(disk(1.0), srcs, sys, 128, 64, 0.8), 3.0, 128).values
    v_s = measure(disk_series(1.0, srcs, sys, 40), 3.0, 128).values
    return oracle_gap(v_m, v_s)


def check_forward_oracle() -> CheckResult:
    worst = max(mfs_series_discrepancy(1.0), mfs_series_discrepancy(5.0))
    return _result("forward_oracle_equivalence", worst <= ORACLE_TOL, worst, ORACLE_TOL,
                   "MFS vs analytic disk series, unit disk, omega in {1, 5}")


def modal_roundtrip_errors():
    """(value round-trip error, gradient-vs-FD error) for a synthetic field
    of order N = 30, sampled at 128 receivers."""
    N, n_receivers = 30, 128
    sys = LameSystem(1.0, 1.0, 5.0)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(2, 2 * N + 1)) + 1j * rng.normal(size=(2, 2 * N + 1))
    field = ModalField(N=N, R=0.5, rho=3.0, sys=sys, phat_p=coeffs[0], phat_s=coeffs[1])
    theta = np.linspace(0.0, 2.0 * np.pi, n_receivers, endpoint=False)
    pts = disk(3.0).point(theta)
    values = eval_field(field, pts)
    rec = ScatterRecord(
        rho=3.0, sys=sys, sources=(PointSource((3.0, 0.0), POLARIZATION),),
        receivers=theta, values=values[None], aperture=(0.0, 2.0 * np.pi),
    )
    back = solve_modal(modal_rhs(rec, N), 3.0, 0.5, sys)
    values2 = eval_field(back, pts)
    rt_err = float(np.max(np.abs(values2 - values)) / np.max(np.abs(values)))

    x0 = np.array([1.9, -1.1])
    jac = eval_gradient(field, x0)
    h = 1e-5
    fd = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, j] = (eval_field(field, x0 + e) - eval_field(field, x0 - e)) / (2 * h)
    grad_err = float(np.max(np.abs(jac - fd)) / np.max(np.abs(fd)))
    return rt_err, grad_err


def check_modal_roundtrip() -> CheckResult:
    rt_err, grad_err = modal_roundtrip_errors()
    passed = rt_err <= 1e-11 and grad_err <= 1e-6
    return _result("modal_roundtrip", passed, rt_err, 1e-11,
                   f"value round-trip {rt_err:.2e}, gradient vs FD {grad_err:.2e} (<= 1e-6)")


ALL_CHECKS = [
    check_wronskian,
    check_recurrence,
    check_magnitude_monotone,
    check_derivative_bound,
    check_tail_sandwich,
    check_second_derivative_bound,
    check_tail_sum_bound,
    check_lambda_nonvanishing,
    check_truncation_decay,
    check_noise_scaling,
    check_noise_statistics,
    check_forward_oracle,
    check_modal_roundtrip,
]


def run_battery():
    results = []
    for check in ALL_CHECKS:
        t0 = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - t0))
    return results
