"""Numerical verification battery for the analysis layer.

Each check measures a quantity the theory constrains and compares it to
the stated bound:

* Hankel identities: Wronskian, three-term recurrence closure, magnitude
  monotonicity in the argument, the derivative bound
  |H_n'| <= (1 + n/t)|H_n|, the large-order sandwich
  1/2 <= pi t^n |H_n(t)| / (3 2^{n-1} Gamma(n)) <= e^t for n > (e t + 1)/2
  (checked in log space), and the second-derivative bound
  |H_n''(t)| <= ((2 n^2 + t)/t^2)|H_n(t)| in the regime n >= max(2, 4t)
  used by the shape-derivative kernels.
* The geometric tail sum: S = sum_{n>N} n^2 tau^{-2n}
  <= 4 N^2 tau^{4-2N} (tau^2 - 1)^{-3}, by direct summation.
* Per-mode determinant factors Lambda_n stay bounded away from zero.
* Field-level measurements: truncation-error decay slope of the modal
  approximation on the data circle, first-order noise scaling at fixed
  truncation, multiplicative noise statistics, and the MFS / analytic
  disk-series oracle agreement.

Everything is self-contained (no network, fixed seeds) and finishes in
well under a minute.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .elastic import LameSystem, PointSource
from .forward import add_noise, disk_series, record_from_disk_series, ring_sources, solve_mfs
from .geometry import disk
from .modal import ModalField, eval_field, eval_gradient, lambda_n, modal_rhs, solve_modal
from .records import ScatterRecord

POLARIZATION = (np.sqrt(0.5), np.sqrt(0.5))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str
    seconds: float


def _result(name, passed, measured, bound, detail, t0):
    return CheckResult(name, bool(passed), float(measured), float(bound), detail, time.time() - t0)


# ---------------------------------------------------------------------------
# special-function identities
# ---------------------------------------------------------------------------

ORDER_GRID = np.arange(0, 31)
ARG_GRID = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])


def check_wronskian() -> CheckResult:
    t0 = time.time()
    worst = 0.0
    for t in ARG_GRID:
        n = ORDER_GRID
        j = specfun.bessel_j(n, t)
        y = specfun.bessel_y(n, t)
        jp = specfun.bessel_j(n - 1, t) - (n / t) * j
        yp = specfun.bessel_y(n - 1, t) - (n / t) * y
        target = 2.0 / (np.pi * t)
        worst = max(worst, float(np.max(np.abs(j * yp - jp * y - target)) / target))
    return _result("wronskian", worst <= 1e-10, worst, 1e-10,
                   "max relative Wronskian defect on the (n, t) grid", t0)


def check_recurrence() -> CheckResult:
    t0 = time.time()
    worst = 0.0
    for t in ARG_GRID:
        n = ORDER_GRID
        h = specfun.hankel1(n, t)
        h_up = specfun.hankel1(n + 1, t)
        h_dn = specfun.hankel1(n - 1, t)
        resid = np.abs(2 * n * h - t * (h_up + h_dn))
        allowed = np.abs(h) * np.maximum(1, n)
        worst = max(worst, float(np.max(resid / allowed)))
    return _result("recurrence_closure", worst <= 1e-9, worst, 1e-9,
                   "three-term recurrence residual relative to |H_n| max(1,n)", t0)


def check_magnitude_monotone() -> CheckResult:
    t0 = time.time()
    worst = 0.0
    for n in ORDER_GRID:
        mags = np.abs(specfun.hankel1(n, ARG_GRID))
        ratio = mags[1:] / mags[:-1]  # should be <= 1 + 1e-12
        worst = max(worst, float(np.max(ratio)))
    return _result("magnitude_monotone", worst <= 1.0 + 1e-12, worst, 1.0 + 1e-12,
                   "max |H_n(t2)|/|H_n(t1)| over t1 <= t2", t0)


def check_derivative_bound() -> CheckResult:
    # |H_{n-1}| <= |H_n| underpins this bound, so it needs n >= 1 (at n = 0
    # it fails for small t; the analysis treats the n = 0 mode separately)
    t0 = time.time()
    worst = 0.0
    for t in ARG_GRID:
        n = ORDER_GRID[1:]
        h = np.abs(specfun.hankel1(n, t))
        hp = np.abs(specfun.hankel1_d1(n, t))
        worst = max(worst, float(np.max(hp / ((1.0 + n / t) * h))))
    return _result("derivative_bound", worst <= 1.0 + 1e-12, worst, 1.0,
                   "max |H_n'| / ((1+n/t)|H_n|), n >= 1", t0)


def check_tail_sandwich() -> CheckResult:
    """1/2 <= pi t^n |H_n| / (3 2^{n-1} Gamma(n)) <= e^t for n > (e t + 1)/2."""
    t0 = time.time()
    lo_worst, hi_worst = np.inf, -np.inf
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        n_min = int(np.floor((np.e * t + 1.0) / 2.0)) + 1
        n = np.arange(max(n_min, 1), 61)
        log_h = np.log(np.abs(specfun.hankel1(n, t)))
        log_ratio = (
            np.log(np.pi) + n * np.log(t) + log_h
            - np.log(3.0) - (n - 1) * np.log(2.0) - specfun.ln_gamma(n.astype(float))
        )
        lo_worst = min(lo_worst, float(np.min(log_ratio - np.log(0.5))))
        hi_worst = max(hi_worst, float(np.max(log_ratio - t)))
    passed = lo_worst >= 0.0 and hi_worst <= 0.0
    return _result("tail_sandwich", passed, min(lo_worst, -hi_worst), 0.0,
                   "log-space margins of the large-order magnitude sandwich", t0)


def check_second_derivative_bound() -> CheckResult:
    """|H_n''(t)| <= ((2n^2 + t)/t^2) |H_n(t)| for n >= max(2, 4t)."""
    t0 = time.time()
    worst = 0.0
    for t in (0.3, 0.5, 1.0, 2.0, 5.0):
        n_min = max(2, int(np.ceil(4.0 * t)))
        n = np.arange(n_min, 41)
        h = np.abs(specfun.hankel1(n, t))
        hpp = np.abs(specfun.hankel1_d2(n, t))
        bound = (2.0 * n * n + t) / (t * t) * h
        worst = max(worst, float(np.max(hpp / bound)))
    return _result("second_derivative_bound", worst <= 1.0 + 1e-12, worst, 1.0,
                   "max |H_n''| / (((2n^2+t)/t^2)|H_n|) in the working regime", t0)


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
    t0 = time.time()
    worst = 0.0
    cells = 0
    for tau in (1.2, 1.5, 2.0, 3.0):
        for N in range(2, 31):
            s = tail_sum(N, tau)
            bound = 4.0 * N * N * tau ** (4 - 2 * N) / (tau * tau - 1.0) ** 3
            worst = max(worst, s / bound)
            cells += 1
    return _result("tail_sum_bound", worst <= 1.0, worst, 1.0,
                   f"max S/bound over {cells} (N, tau) cells", t0)


def check_lambda_nonvanishing() -> CheckResult:
    t0 = time.time()
    smallest = np.inf
    for omega in (1.0, 5.0):
        for R in (0.3, 0.5, 0.8):
            sys = LameSystem(1.0, 1.0, omega)
            lam = lambda_n(np.arange(0, 41), 3.0, R, sys)
            smallest = min(smallest, float(np.min(np.abs(lam))))
    return _result("lambda_nonvanishing", smallest > 0.0, smallest, 0.0,
                   "min |Lambda_n| over omega, R, |n| <= 40", t0)


# ---------------------------------------------------------------------------
# field-level measurements
# ---------------------------------------------------------------------------

def decay_profile(
    radius: float,
    source_xy,
    sys: LameSystem,
    R: float,
    orders,
    rho: float = 3.0,
    n_receivers: int = 256,
):
    """RMS truncation error on the data circle for each order in ``orders``."""
    src = PointSource(source_xy, POLARIZATION)
    fld = disk_series(radius, src, sys, n_modes=60)
    theta = np.linspace(0.0, 2.0 * np.pi, n_receivers, endpoint=False)
    pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    exact = fld.eval(pts)
    rec = ScatterRecord(
        rho=rho, sys=sys, sources=(src,), receivers=theta,
        values=exact[None], aperture=(0.0, 2.0 * np.pi),
    )
    errs = []
    for N in orders:
        mf = solve_modal(modal_rhs(rec, N), rho, R, sys)
        approx = eval_field(mf, pts)
        errs.append(np.sqrt(np.mean(np.sum(np.abs(approx - exact) ** 2, axis=-1))))
    scale = float(np.sqrt(np.mean(np.sum(np.abs(exact) ** 2, axis=-1))))
    return np.array(errs), scale


def check_truncation_decay() -> CheckResult:
    """Fitted log-slope over N in [13, 21] against -ln(rho/R) + 0.15."""
    t0 = time.time()
    orders = np.arange(13, 22)
    errs, _ = decay_profile(np.sqrt(8.0), (16.0, 0.0), LameSystem(1, 1, 1.0), 0.5, orders)
    slope = float(np.polyfit(orders, np.log(errs), 1)[0])
    bound = -np.log(6.0) + 0.15
    return _result("truncation_decay_slope", slope <= bound, slope, bound,
                   "log-slope of ||v - v_N|| on the data circle, R=0.5", t0)


def _field_l2_norm(rec: ScatterRecord, N: int, R: float) -> float:
    """L2 norm over sources and the data circle of the record's modal field."""
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    pts = rec.rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    mf = solve_modal(modal_rhs(rec, N), rec.rho, R, rec.sys)
    per_source = np.mean(np.sum(np.abs(eval_field(mf, pts)) ** 2, axis=-1), axis=-1)
    return float(np.sqrt(np.sum(per_source)))


def noise_halving_ratios(n_trials: int = 20, N: int = 7) -> np.ndarray:
    """||v_N^d - v_N|| ratios when halving delta, independent draws.

    Extraction and evaluation are linear in the data, so v_N^d - v_N is
    the field extracted from the noise alone (noisy minus clean values).
    """
    sys = LameSystem(1.0, 1.0, 5.0)
    srcs = ring_sources(20, 3.0, POLARIZATION)
    clean = record_from_disk_series(1.0, srcs, sys, 3.0, 128)

    def noise_only(delta, seed):
        return replace(clean, values=add_noise(clean, delta, seed).values - clean.values)

    ratios = []
    for i in range(n_trials):
        e_full = _field_l2_norm(noise_only(0.05, 100 + i), N, 0.5)
        e_half = _field_l2_norm(noise_only(0.025, 500 + i), N, 0.5)
        ratios.append(e_half / e_full)
    return np.array(ratios)


def check_noise_scaling() -> CheckResult:
    t0 = time.time()
    med = float(np.median(noise_halving_ratios()))
    passed = 0.35 <= med <= 0.65
    return _result("noise_scaling_linear", passed, med, 0.5,
                   "median error ratio when halving delta 0.05 -> 0.025", t0)


def check_noise_statistics() -> CheckResult:
    t0 = time.time()
    sys = LameSystem(1.0, 1.0, 5.0)
    rng_values = np.random.default_rng(7)
    values = (
        rng_values.normal(size=(1, 5000, 2)) + 1j * rng_values.normal(size=(1, 5000, 2))
    )
    theta = np.linspace(0.0, 2.0 * np.pi, 5000, endpoint=False)
    rec = ScatterRecord(
        rho=3.0, sys=sys, sources=(PointSource((3.0, 0.0), POLARIZATION),),
        receivers=theta, values=values, aperture=(0.0, 2.0 * np.pi),
    )
    noisy = add_noise(rec, 0.05, 11)
    ratio = np.abs(noisy.values - rec.values) / (0.05 * np.abs(rec.values))
    mean = float(np.mean(ratio))
    return _result("noise_statistics", 0.45 <= mean <= 0.55, mean, 0.5,
                   "mean perturbation modulus / (delta |v|) over 10^4 components", t0)


def mfs_series_discrepancy(omega: float) -> float:
    """Relative L2 gap between the MFS and series fields on the data circle."""
    sys = LameSystem(1.0, 1.0, omega)
    src = PointSource((3.0, 0.0), POLARIZATION)
    sol = solve_mfs(disk(1.0), src, sys, 128, 64, 0.8)
    fld = disk_series(1.0, src, sys, 40)
    theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    pts = 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    v_m = sol.eval(pts)
    v_s = fld.eval(pts)
    return float(
        np.sqrt(np.sum(np.abs(v_m - v_s) ** 2)) / np.sqrt(np.sum(np.abs(v_s) ** 2))
    )


def check_forward_oracle() -> CheckResult:
    t0 = time.time()
    worst = max(mfs_series_discrepancy(1.0), mfs_series_discrepancy(5.0))
    return _result("forward_oracle_equivalence", worst <= 1e-6, worst, 1e-6,
                   "MFS vs analytic disk series, unit disk, omega in {1, 5}", t0)


def modal_roundtrip_errors(N: int = 30, n_receivers: int = 128):
    """(value round-trip error, gradient-vs-FD error) for a synthetic field."""
    sys = LameSystem(1.0, 1.0, 5.0)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(2, 2 * N + 1)) + 1j * rng.normal(size=(2, 2 * N + 1))
    field = ModalField(N=N, R=0.5, rho=3.0, sys=sys, phat_p=coeffs[0], phat_s=coeffs[1])
    theta = np.linspace(0.0, 2.0 * np.pi, n_receivers, endpoint=False)
    pts = 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
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
    t0 = time.time()
    rt_err, grad_err = modal_roundtrip_errors()
    passed = rt_err <= 1e-11 and grad_err <= 1e-6
    return _result("modal_roundtrip", passed, rt_err, 1e-11,
                   f"value round-trip {rt_err:.2e}, gradient vs FD {grad_err:.2e} (<= 1e-6)", t0)


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
    return [check() for check in ALL_CHECKS]
