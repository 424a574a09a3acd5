"""Independent oracles used to freeze expected values.

Nothing here touches the library's evaluation paths: Bessel values come
from ascending power series or mpmath, derivatives from central
differences, PDE residuals from explicit stencils, tail sums from direct
summation.  Three helpers are exceptions: ``hessian_green_tensor``, a
second double-precision route to G that shares the library's Hankel
table, so that a test can compare two algebras on the same Hankel values,
and ``decay_profile_per_order`` and ``noise_halving_ratios_on_the_receivers``,
which run the library's extraction and evaluation the way the battery once
did (once per truncation order; on the receivers), so that a test can
check the battery's shortcut against them.  ``dedup_assemble_system``
likewise runs the Newton iterate the way it was built before its tables
moved onto the iterate's own radii (with ``hankel1_table_j_then_y`` and
``tables_one_by_one``, the recurrence and the normalization of that
route), so that a test can pin the lean iterate to it bit for bit.
``orders01_two_tables`` is the order-0/1 kernel as it was built with one
T_k table per region, which pins the one-table kernel bit for bit.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np

from elshape import elastic, modal, specfun
from elshape.elastic import POLARIZATION, LameSystem, PointSource
from elshape.forward import (
    disk_series, measure, noise_perturbation, record_from_disk_series, ring_sources,
)
from elshape.geometry import disk
from elshape.modal import eval_field, modal_rhs, solve_modal

EULER_GAMMA = 0.5772156649015328606

mpmath.mp.dps = 30


def bessel_j_series(n: int, t: float) -> float:
    """J_n(t) via the ascending series, summed to machine convergence."""
    half = 0.5 * t
    term = half**n / math.factorial(n)
    total = term
    k = 0
    while True:
        k += 1
        term *= -(half * half) / (k * (n + k))
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-300) and k > 4:
            return total


def bessel_y0_series(t: float) -> float:
    """Y_0(t) via the logarithmic series with the Euler-Mascheroni term."""
    total = 0.0
    harmonic = 0.0
    term = 1.0
    for k in range(1, 60):
        harmonic += 1.0 / k
        term *= -(0.25 * t * t) / (k * k)
        total += -term * harmonic
    return (2.0 / math.pi) * ((math.log(0.5 * t) + EULER_GAMMA) * bessel_j_series(0, t) + total)


def bessel_y1_series(t: float) -> float:
    """Y_1(t) via its ascending series (digamma coefficients)."""
    half = 0.5 * t

    def psi(m: int) -> float:
        return -EULER_GAMMA + sum(1.0 / i for i in range(1, m))

    total = 0.0
    for k in range(0, 60):
        coeff = (psi(k + 1) + psi(k + 2)) / (math.factorial(k) * math.factorial(k + 1))
        total += (-1.0) ** k * coeff * half ** (2 * k + 1)
    return (2.0 / math.pi) * math.log(half) * bessel_j_series(1, t) - 1.0 / (
        math.pi * half
    ) - total / math.pi


def mp_jv(n: int, t: float) -> float:
    return float(mpmath.besselj(n, t))


def mp_yv(n: int, t: float) -> float:
    return float(mpmath.bessely(n, t))


def mp_hankel1(n: int, t: float) -> complex:
    return complex(mpmath.hankel1(n, t))


def mp_ln_gamma(x: float) -> float:
    return float(mpmath.loggamma(x))


def _mp_green(dx, dy, sys):
    """Entries (g_xx, g_xy, g_yy) of G at the mpf offset (dx, dy) from the
    closed form (i/8) [(H_0^s I + H_2^s D)/mu + (H_0^p I - H_2^p D)/(lambda + 2 mu)],
    D = 2 d d^T - I, with mpmath Hankel values of orders 0 and 2."""
    r2 = dx * dx + dy * dy
    r = mpmath.sqrt(r2)
    c_s = mpmath.mpc(0, 1) / (8 * mpmath.mpf(sys.mu))
    c_p = mpmath.mpc(0, 1) / (8 * (mpmath.mpf(sys.lam) + 2 * mpmath.mpf(sys.mu)))
    t_s, t_p = mpmath.mpf(sys.k_s) * r, mpmath.mpf(sys.k_p) * r
    alpha = c_s * mpmath.hankel1(0, t_s) + c_p * mpmath.hankel1(0, t_p)
    beta = c_s * mpmath.hankel1(2, t_s) - c_p * mpmath.hankel1(2, t_p)
    d_xx, d_xy = (dx * dx - dy * dy) / r2, 2 * dx * dy / r2
    return alpha + beta * d_xx, beta * d_xy, alpha - beta * d_xx


def mp_green_tensor(diff, sys) -> np.ndarray:
    """G at the offset ``diff`` (a float 2-vector, taken as exact)."""
    g_xx, g_xy, g_yy = _mp_green(mpmath.mpf(float(diff[0])), mpmath.mpf(float(diff[1])), sys)
    return np.array([[complex(g_xx), complex(g_xy)], [complex(g_xy), complex(g_yy)]])


def mp_green_directional(diff, p, e, sys) -> np.ndarray:
    """d/dh G(diff + h e) p at h = 0 from the closed form, by a central
    difference with h = 1e-18 at 50 digits: truncation below 1e-30 relative
    for |diff| >= 1e-3, round-off near 1e-32.  ``diff``, ``p`` and ``e`` are
    float 2-vectors taken as exact."""
    with mpmath.workdps(50):
        (dx, dy), (p1, p2), (e1, e2) = ([mpmath.mpf(float(v)) for v in w] for w in (diff, p, e))
        h = mpmath.mpf("1e-18")
        plus = _mp_green(dx + h * e1, dy + h * e2, sys)
        minus = _mp_green(dx - h * e1, dy - h * e2, sys)
        g_xx, g_xy, g_yy = ((a - b) / (2 * h) for a, b in zip(plus, minus))
        return np.array([complex(g_xx * p1 + g_xy * p2), complex(g_xy * p1 + g_yy * p2)])


def hessian_green_tensor(x, z, sys) -> np.ndarray:
    """G = (1/mu) Phi_s I + (1/omega^2) grad grad^T (Phi_s - Phi_p) in double
    precision, with grad grad^T f = (f'/r) I + (f'' - f'/r) d d^T: the Hessian
    route.  Phi = (i/4) H_0(k r), Phi' = -(i/4) k H_1 and
    Phi'' = (i/4) k^2 (H_1/t - H_0) take H_0 and H_1 from the library's
    table, so against the closed form only the algebra differs."""
    diff = x - z
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    d = diff / r[..., None]
    k = np.reshape((sys.k_s, sys.k_p), (2,) + (1,) * r.ndim)
    t = k * r
    h0, h1 = specfun.hankel1_table(1, t)
    (phs, _), (dphs, dphp), (d2phs, d2php) = (
        0.25j * h0, -0.25j * k * h1, 0.25j * k * k * (h1 / t - h0)
    )
    radial = (dphs - dphp) / r
    ddT = d[..., :, None] * d[..., None, :]
    hess = radial[..., None, None] * np.eye(2) + (d2phs - d2php - radial)[..., None, None] * ddT
    return (phs / sys.mu)[..., None, None] * np.eye(2) + hess / sys.omega ** 2


def trapezoid_rhs(theta, values, N: int):
    """(f_p, f_s): per order n = -N..N, the mean over the receivers of the
    radial and tangential data components times e^{-i n theta}."""
    g_r = values[..., 0] * np.cos(theta) + values[..., 1] * np.sin(theta)
    g_t = -values[..., 0] * np.sin(theta) + values[..., 1] * np.cos(theta)
    f_p, f_s = [], []
    for n in range(-N, N + 1):
        phase = np.exp(-1j * n * theta)
        f_p.append(np.mean(g_r * phase, axis=-1))
        f_s.append(np.mean(g_t * phase, axis=-1))
    return np.stack(f_p, axis=-1), np.stack(f_s, axis=-1)


def decay_profile_per_order(radius, source_xy, sys, R, orders, rho=3.0, n_receivers=256):
    """``verify.decay_profile`` by one extraction and evaluation per order:
    (RMS error on the data circle per order, RMS of the data)."""
    rec = measure(disk_series(radius, (PointSource(source_xy, POLARIZATION),), sys, 60),
                  rho, n_receivers)
    errs = []
    for N in orders:
        mf = solve_modal(modal_rhs(rec, N), rho, R, sys)
        approx = eval_field(mf, disk(rho).point(rec.receivers))
        errs.append(np.sqrt(np.mean(np.sum(np.abs(approx - rec.values) ** 2, axis=-1))))
    scale = float(np.sqrt(np.mean(np.sum(np.abs(rec.values) ** 2, axis=-1))))
    return np.array(errs), scale


def noise_halving_ratios_on_the_receivers():
    """``verify.noise_halving_ratios`` with each norm taken on the receivers: the
    extracted field evaluated there and |v|^2 averaged over them."""
    n_trials, N, sys = 20, 7, LameSystem(1.0, 1.0, 5.0)
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


def modal_matrix(n: int, rho: float, R: float, sys) -> np.ndarray:
    """Per-mode 2x2 system [[alpha_p, (in/rho) beta_s], [(in/rho) beta_p, -alpha_s]]
    at the data radius, from mpmath Hankel values.

    alpha = k H_n'(k rho) / H_n(k R) and beta = H_n(k rho) / H_n(k R), with
    H_n'(t) = H_{n-1}(t) - (n/t) H_n(t).
    """

    def alpha_beta(k):
        t = mpmath.mpf(k) * rho
        den = mpmath.hankel1(n, mpmath.mpf(k) * R)
        h = mpmath.hankel1(n, t)
        hp = mpmath.hankel1(n - 1, t) - (n / t) * h
        return complex(k * hp / den), complex(h / den)

    ap, bp = alpha_beta(sys.k_p)
    a_s, bs = alpha_beta(sys.k_s)
    fac = 1j * n / rho
    return np.array([[ap, fac * bs], [fac * bp, -a_s]])


def central_diff(f, x: float, h: float) -> complex:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_central_diff(f, x: float, h: float) -> complex:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def laplacian_5pt(f, x: np.ndarray, h: float):
    """5-point stencil Laplacian of a scalar or vector field on R^2."""
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    return (f(x + ex) + f(x - ex) + f(x + ey) + f(x - ey) - 4.0 * f(x)) / (h * h)


def grad_div_fd(f, x: np.ndarray, h: float):
    """Finite-difference grad(div u) of a 2-vector field."""

    def div(pt):
        dx = (f(pt + [h, 0.0]) - f(pt - [h, 0.0])) / (2.0 * h)
        dy = (f(pt + [0.0, h]) - f(pt - [0.0, h])) / (2.0 * h)
        return dx[0] + dy[1]

    return np.array(
        [
            (div(x + [h, 0.0]) - div(x - [h, 0.0])) / (2.0 * h),
            (div(x + [0.0, h]) - div(x - [0.0, h])) / (2.0 * h),
        ]
    )


def navier_residual_fd(f, x: np.ndarray, lam: float, mu: float, omega: float, h: float):
    """mu lap(u) + (lam + mu) grad(div u) + omega^2 u by stencils."""
    return mu * laplacian_5pt(f, x, h) + (lam + mu) * grad_div_fd(f, x, h) + omega**2 * f(x)


def jacobian_fd(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian: entry (i, j) = d f_i / d x_j."""
    out = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        out[:, j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def tail_sum_direct(N: int, tau: float) -> float:
    total = 0.0
    n = N + 1
    while True:
        term = n * n * tau ** (-2 * n)
        total += term
        if term < 1e-22 * total and n > N + 10:
            return total
        n += 1


def hankel1_table_j_then_y(N: int, t, rows=None) -> np.ndarray:
    """``specfun.hankel1_table`` with the upward recurrence run on the real (J)
    parts, then separately on the imaginary (Y) parts."""
    t = np.asarray(t, dtype=float)
    h = np.empty((N + 1,) + t.shape, dtype=complex)
    h[:2] = specfun.hankel01(t) if rows is None else rows
    j, y = h.real, h.imag
    inv_t = 1.0 / t
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N):
            two_n_t = (2.0 * n) * inv_t
            np.subtract(two_n_t * j[n], j[n - 1], out=j[n + 1, ...])
            np.subtract(two_n_t * y[n], y[n - 1], out=y[n + 1, ...])
    return h


def _two_tables_series(x, rows):
    """The series of the _CHEB ``rows`` in u = 2x - 1 at the 1-D x from the
    region's own T_k table, zero-padded to a multiple of 8 columns."""
    n = x.size
    u = 2.0 * x
    u -= 1.0
    table = np.empty((specfun._CHEB.shape[1], -(-n // 8) * 8))
    table[:, n:] = 0.0
    T = table[:, :n]
    T[0] = 1.0
    T[1] = u
    two_u = u + u
    for k in range(1, len(T) - 1):
        np.multiply(two_u, T[k], out=T[k + 1])
        T[k + 1] -= T[k - 1]
    return (rows @ table)[:, :n]


def orders01_two_tables(t) -> np.ndarray:
    """H_0^(1), H_1^(1) at the 1-D t, shape (2, t.size), by the order-0/1 kernel
    with one T_k table and one recurrence per region (``specfun._near`` and
    ``specfun._far`` on each region's series)."""
    out = np.empty((2, t.size), dtype=complex)
    near = t <= specfun.T1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for where, branch, rows, inverse in ((near, specfun._near, specfun._CHEB[:4], False),
                                             (~near, specfun._far, specfun._CHEB[4:], True)):
            if where.any():
                q = t[where] * (1.0 / specfun.T1)
                q *= q
                f = _two_tables_series(1.0 / q if inverse else q, rows)
                for row, value in zip(out, branch(t[where], f)):
                    row[where] = value
    return out


def tables_one_by_one(table, k, N: int, t, back, R=None, kappa=False) -> list:
    """``modal._tables_at``'s k C', C and k^2 C'', each formed and divided by
    C_n(kR) on its own, then gathered through ``back``."""
    c, dc, ddc = (np.moveaxis(tab, 0, -2) for tab in specfun.cylinder_tables(table, N, t))
    k = np.reshape(k, np.shape(k) + (1, 1))
    tabs = [k * dc, c] + ([k * k * ddc] if kappa else [])
    if R is not None:
        tabs = [tab / c[..., -1:] for tab in tabs]
    return [tab[..., back] for tab in tabs]


def dedup_assemble_system(field, grid, curve):
    """``newton.assemble_system``'s (A, rhs) by the dedup-and-gather route: the
    modal arguments on the sorted distinct radii (``modal._arguments``), the
    incident and modal arguments concatenated for one kernel pass and split
    after it, the J-then-Y recurrence, and every table divided on its own and
    gathered back to the P radii."""
    radii = grid.basis @ curve.coeffs
    sys, k = field.sys, (field.sys.k_p, field.sys.k_s)
    dx, dy, r = elastic._separation(radii[:, None] * grid.xhat, grid.z)
    t_inc = elastic._arguments(r, sys)
    t_mod, back = modal._arguments(k, radii, field.R)
    h = specfun.hankel01(np.concatenate([t_inc.ravel(), t_mod.ravel()]))
    h_inc, h_mod = (part.reshape((2,) + t.shape)
                    for part, t in zip(np.split(h, [t_inc.size], axis=1), (t_inc, t_mod)))
    u_inc, du_inc = elastic._contracted(dx, dy, r, grid.p, h_inc, t_inc, sys, grid.xhat)
    tabs = tables_one_by_one(lambda m, t: hankel1_table_j_then_y(m, t, h_mod), k, field.N,
                             t_mod, back, field.R, kappa=True)
    total = modal._contract(field.phat_p, field.phat_s, modal._basis_of(tabs, radii, grid.angles))
    total[..., 0, :, :] += u_inc
    total[..., 1, :, :] += du_inc
    both = total.view(float).reshape(-1, 2, radii.size, 4)
    u, du = both[:, 0], both[:, 1]
    w = np.einsum("spc,spc->p", du, du)
    g = np.einsum("spc,spc->p", du, u)
    sqrt_w = np.sqrt(w)
    g_scaled = np.divide(g, sqrt_w, out=np.zeros_like(g), where=w > 0.0)
    rho2 = np.einsum("spc,spc->p", u, u) - g_scaled ** 2
    a = np.concatenate([sqrt_w[:, None] * grid.basis, np.zeros((1, grid.basis.shape[1]))])
    return a, np.append(g_scaled, np.sqrt(np.sum(np.maximum(rho2, 0.0))))
