"""Fourier-Bessel representation of the scattered field from circle data.

A radiating solution of the Navier equation outside a disk B_R splits into
compressional and shear Helmholtz potentials, each expanded in the
normalized outgoing basis H_n^(1)(k_xi r) / H_n^(1)(k_xi R) e^{i n theta}.
With the frame vectors U_n = e^{i n theta} e_r, V_n = e^{i n theta} e_theta
the displacement reads

    v(r, theta) = sum_n [ (alpha_{p,n}(r) c_{p,n} + (in/r) beta_{s,n}(r) c_{s,n}) U_n
                        + ((in/r) beta_{p,n}(r) c_{p,n} - alpha_{s,n}(r) c_{s,n}) V_n ],

    alpha_{xi,n}(r) = k_xi H_n^(1)'(k_xi r) / H_n^(1)(k_xi R),
    beta_{xi,n}(r)  =       H_n^(1)(k_xi r) / H_n^(1)(k_xi R).

Projecting data on the measurement circle r = rho onto U_n and V_n yields,
per mode, a 2x2 linear system whose determinant is
beta_{p,n} beta_{s,n} Lambda_n with

    Lambda_n = n^2/rho^2 - alpha_{p,n} alpha_{s,n} / (beta_{p,n} beta_{s,n}),

nonzero for every integer n, so the coefficients follow in closed form.
Radial derivatives use kappa_{xi,n}(r) = alpha_{xi,n}'(r)
= k_xi^2 H_n^(1)''(k_xi r) / H_n^(1)(k_xi R).

Coefficient arrays are ordered n = -N..N along their last axis; leading
axes (one row per source for a record) pass through every evaluator, which
builds its Hankel tables (``specfun.hankel1_table``) once for all rows, on
the distinct radii of its points.  ModalField instances are immutable
after construction and all evaluators are pure.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .elastic import LameSystem
from .errors import AliasingError, ConfigError, DomainError, SolveError
from .records import ScatterRecord

__all__ = [
    "ModalRhs",
    "ModalField",
    "modal_rhs",
    "modal_matrix",
    "lambda_n",
    "solve_modal",
    "eval_field",
    "eval_polar_derivs",
    "eval_gradient",
    "limited_aperture_fit",
    "extract_field",
    "choose_truncation",
    "bracket",
]


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def _hankel_table(k: float, R: float, N: int, r: np.ndarray, want_kappa: bool):
    """alpha, beta (and kappa) tables of shape (2N+1, P) for orders -N..N.

    All three are even in n (numerator and denominator flip sign together
    under n -> -n), so only orders 0..N are evaluated, and only on the
    distinct radii (a circle of points has a few), then scattered back.
    """
    denom = specfun.hankel1_table(N, k * R)
    if np.any(np.abs(denom) == 0.0) or not np.all(np.isfinite(denom)):
        raise SolveError("degenerate normalization H_n(kR) (zero or overflow)")
    denom = denom[:, None]

    orders = np.arange(0, N + 1)[:, None]
    r_uniq, back = np.unique(np.asarray(r, dtype=float), return_inverse=True)
    t = k * r_uniq
    h_all = specfun.hankel1_table(max(N, 1), t)               # orders 0..max(N, 1)
    h = h_all[: N + 1]
    h_prev = np.concatenate([-h_all[1:2], h_all[:N]], axis=0)  # H_{-1} = -H_1
    hp = h_prev - (orders / t) * h

    tabs = [k * hp / denom, h / denom]
    if want_kappa:
        hpp = -hp / t - (1.0 - (orders / t) ** 2) * h
        tabs.append(k * k * hpp / denom)
    mirror = slice(None, None, -1)
    out = [np.concatenate([tab[1:][mirror], tab], axis=0)[:, back] for tab in tabs]
    return out if want_kappa else out + [None]


def _polar(x):
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.arctan2(x[..., 1], x[..., 0])
    return r, theta


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

def _check_coefficients(N: int, a: np.ndarray, b: np.ndarray):
    if a.shape[-1:] != (2 * N + 1,) or b.shape != a.shape:
        raise ValueError("coefficient arrays must share a shape (..., 2N+1)")


@dataclass(frozen=True)
class ModalRhs:
    """Projections of circle data onto U_n and V_n, orders -N..N."""

    N: int
    f_p: np.ndarray
    f_s: np.ndarray

    def __post_init__(self):
        _check_coefficients(self.N, self.f_p, self.f_s)


@dataclass(frozen=True)
class ModalField:
    """Truncated two-potential expansion, evaluable anywhere outside B_R."""

    N: int
    R: float
    rho: float
    sys: LameSystem
    phat_p: np.ndarray
    phat_s: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.R < self.rho):
            raise ValueError("need 0 < R < rho")
        _check_coefficients(self.N, self.phat_p, self.phat_s)

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "R": self.R,
            "rho": self.rho,
            "lame": {"lambda": self.sys.lam, "mu": self.sys.mu, "omega": self.sys.omega},
            "coefficients": {
                "p": np.stack([self.phat_p.real, self.phat_p.imag], -1).tolist(),
                "s": np.stack([self.phat_s.real, self.phat_s.imag], -1).tolist(),
            },
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModalField":
        sys = LameSystem(doc["lame"]["lambda"], doc["lame"]["mu"], doc["lame"]["omega"])
        cp, cs = (np.asarray(doc["coefficients"][w], dtype=float) for w in "ps")
        return cls(N=doc["N"], R=doc["R"], rho=doc["rho"], sys=sys,
                   phat_p=cp[..., 0] + 1j * cp[..., 1], phat_s=cs[..., 0] + 1j * cs[..., 1])


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def modal_rhs(rec: ScatterRecord, N: int) -> ModalRhs:
    """Project full-circle data onto the U_n / V_n frame, one row per source.

    On an equispaced receiver grid the trapezoid rule is the exact discrete
    Fourier transform, so the projections are exact for band-limited data
    up to the aliasing order.
    """
    if not rec.is_full_aperture:
        raise ConfigError("modal_rhs needs full aperture; use limited_aperture_fit")
    theta = rec.receivers
    m = theta.size
    if N >= m // 2:
        raise AliasingError(f"N={N} is not resolvable with {m} receivers")
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
    if not np.allclose(gaps, 2.0 * np.pi / m, rtol=0.0, atol=1e-9):
        raise ConfigError("modal_rhs needs equispaced receivers")

    g_r, g_t = _frame_components(rec)
    n = np.arange(-N, N + 1)
    phase = np.exp(-1j * theta[:, None] * n[None, :])         # (M, 2N+1)
    return ModalRhs(N=N, f_p=g_r @ phase / m, f_s=g_t @ phase / m)


def _frame_components(rec: ScatterRecord):
    """Radial and tangential components of the data, each (n_sources, M)."""
    theta = rec.receivers
    e_r = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    e_t = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    return np.sum(rec.values * e_r, axis=-1), np.sum(rec.values * e_t, axis=-1)


def _circle_tables(rho: float, R: float, N: int, sys: LameSystem):
    """(alpha_p, beta_p, alpha_s, beta_s) at the data radius, orders -N..N."""
    r = np.array([rho])
    alpha_p, beta_p, _ = _hankel_table(sys.k_p, R, N, r, False)
    alpha_s, beta_s, _ = _hankel_table(sys.k_s, R, N, r, False)
    return alpha_p[:, 0], beta_p[:, 0], alpha_s[:, 0], beta_s[:, 0]


def _circle_mode(n, rho: float, R: float, sys: LameSystem):
    """The four circle-table entries of order n (an int or an integer array)."""
    N = int(np.max(np.abs(n)))
    return tuple(tab[np.add(n, N)] for tab in _circle_tables(rho, R, N, sys))


def _lambda(n, rho, ap, bp, a_s, bs):
    return (n / rho) ** 2 - ap * a_s / (bp * bs)


def modal_matrix(n: int, rho: float, R: float, sys: LameSystem) -> np.ndarray:
    """Per-mode 2x2 system matrix evaluated at the data radius."""
    ap, bp, a_s, bs = _circle_mode(n, rho, R, sys)
    fac = 1j * n / rho
    return np.array([[ap, fac * bs], [fac * bp, -a_s]])


def lambda_n(n, rho: float, R: float, sys: LameSystem):
    """Per-mode determinant factor n^2/rho^2 - alpha_p alpha_s / (beta_p beta_s).

    ``n`` is an int (complex result) or an integer array (array of the same
    shape, from one table of orders up to max |n|).
    """
    return _lambda(n, rho, *_circle_mode(n, rho, R, sys))


def solve_modal(rhs: ModalRhs, rho: float, R: float, sys: LameSystem) -> ModalField:
    """Invert the per-mode 2x2 systems in closed form, for every row of rhs.

    The inverse is written through Lambda_n beta_{p,n} beta_{s,n} rather
    than via a generic solver so the arithmetic path is reproducible.
    """
    N = rhs.N
    ap, bp, a_s, bs = _circle_tables(rho, R, N, sys)
    n = np.arange(-N, N + 1)

    denom = _lambda(n, rho, ap, bp, a_s, bs) * bp * bs
    bad = (np.abs(denom) < 1e-300) | ~np.isfinite(denom)
    if np.any(bad):
        raise SolveError(
            f"modal determinant underflow at n={n[bad][0]} (|n| <= {N})"
        )
    fac = 1j * n / rho
    phat_p = (-a_s * rhs.f_p - fac * bs * rhs.f_s) / denom
    phat_s = (-fac * bp * rhs.f_p + ap * rhs.f_s) / denom
    return ModalField(N=N, R=R, rho=rho, sys=sys, phat_p=phat_p, phat_s=phat_s)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _mode_amplitudes(mf: ModalField, r: np.ndarray, want_kappa: bool):
    """Tables (2N+1, P), signed orders and mode amplitudes lead + (2N+1, P)."""
    alpha_p, beta_p, kappa_p = _hankel_table(mf.sys.k_p, mf.R, mf.N, r, want_kappa)
    alpha_s, beta_s, kappa_s = _hankel_table(mf.sys.k_s, mf.R, mf.N, r, want_kappa)
    n = np.arange(-mf.N, mf.N + 1, dtype=float)[:, None]
    cp = mf.phat_p[..., None]
    cs = mf.phat_s[..., None]
    a_mode = alpha_p * cp + (1j * n / r[None, :]) * beta_s * cs
    b_mode = (1j * n / r[None, :]) * beta_p * cp - alpha_s * cs
    return n, cp, cs, (alpha_p, beta_p, kappa_p), (alpha_s, beta_s, kappa_s), a_mode, b_mode


def _check_outside(mf: ModalField, r: np.ndarray):
    if np.any(r <= mf.R):
        raise DomainError(f"evaluation requires |x| > R = {mf.R:g}")


def _frame_to_cartesian(a, b, theta):
    ct, st = np.cos(theta), np.sin(theta)
    return np.stack([a * ct - b * st, a * st + b * ct], axis=-1)


def eval_field(mf: ModalField, x) -> np.ndarray:
    """Truncated scattered field at x (shape (..., 2)), |x| > R: lead + (..., 2)."""
    r, theta = _polar(x)
    shape = mf.phat_p.shape[:-1] + r.shape
    r, theta = np.atleast_1d(r).ravel(), np.atleast_1d(theta).ravel()
    _check_outside(mf, r)
    n, _, _, _, _, a_mode, b_mode = _mode_amplitudes(mf, r, False)
    phase = np.exp(1j * n * theta[None, :])
    a = np.sum(a_mode * phase, axis=-2)
    b = np.sum(b_mode * phase, axis=-2)
    return _frame_to_cartesian(a, b, theta).reshape(shape + (2,))


def eval_polar_derivs(mf: ModalField, x):
    """(d/dr v, d/dtheta v) at x, both as Cartesian component vectors."""
    r, theta = _polar(x)
    shape = mf.phat_p.shape[:-1] + r.shape
    r, theta = np.atleast_1d(r).ravel(), np.atleast_1d(theta).ravel()
    _check_outside(mf, r)
    n, cp, cs, tab_p, tab_s, a_mode, b_mode = _mode_amplitudes(mf, r, True)
    alpha_p, beta_p, kappa_p = tab_p
    alpha_s, beta_s, kappa_s = tab_s
    rr = r[None, :]

    da_mode = kappa_p * cp + (1j * n) * (alpha_s / rr - beta_s / rr ** 2) * cs
    db_mode = (1j * n) * (alpha_p / rr - beta_p / rr ** 2) * cp - kappa_s * cs

    phase = np.exp(1j * n * theta[None, :])
    dr_a = np.sum(da_mode * phase, axis=-2)
    dr_b = np.sum(db_mode * phase, axis=-2)
    # d/dtheta mixes the frame: U_n' = in U_n + V_n, V_n' = in V_n - U_n
    dt_a = np.sum((1j * n * a_mode - b_mode) * phase, axis=-2)
    dt_b = np.sum((a_mode + 1j * n * b_mode) * phase, axis=-2)

    d_r = _frame_to_cartesian(dr_a, dr_b, theta).reshape(shape + (2,))
    d_t = _frame_to_cartesian(dt_a, dt_b, theta).reshape(shape + (2,))
    return d_r, d_t


def eval_gradient(mf: ModalField, x) -> np.ndarray:
    """Cartesian Jacobian, entry (i, j) = d v_i / d x_j, shape lead + (..., 2, 2)."""
    r, theta = _polar(x)
    d_r, d_t = eval_polar_derivs(mf, x)
    ct = np.cos(theta)[..., None]
    st = np.sin(theta)[..., None]
    rr = r[..., None]
    col1 = d_r * ct - d_t * st / rr
    col2 = d_r * st + d_t * ct / rr
    return np.stack([col1, col2], axis=-1)


# ---------------------------------------------------------------------------
# limited aperture
# ---------------------------------------------------------------------------

def limited_aperture_fit(
    rec: ScatterRecord, N: int, reg: float = 0.0, R: float | None = None
) -> ModalField:
    """Least-squares coefficient fit for arc data, with optional ridge.

    Stacks the field representation at every receiver into an
    overdetermined complex system for the 2(2N+1) coefficients.  The
    design matrix does not depend on the source, so one SVD serves every
    source of the record.  The Tikhonov weight is ``reg`` times the
    largest singular value; with reg = 0 and full-aperture data this
    reproduces the projection route.
    """
    if reg < 0.0:
        raise ConfigError("reg must be nonnegative")
    theta = rec.receivers
    m = theta.size
    n_unknowns = 2 * (2 * N + 1)
    if 2 * m < n_unknowns:
        raise ConfigError(
            f"underdetermined fit: {2 * m} equations for {n_unknowns} unknowns"
        )
    rho = rec.rho
    R_ref = rho / 6.0 if R is None else R
    if not 0.0 < R_ref < rho:
        raise ConfigError("reference radius must lie in (0, rho)")
    ap, bp, a_s, bs = _circle_tables(rho, R_ref, N, rec.sys)
    n = np.arange(-N, N + 1, dtype=float)
    fac = 1j * n / rho

    phase = np.exp(1j * n[None, :] * theta[:, None])          # (M, 2N+1)
    a = np.zeros((2 * m, n_unknowns), dtype=complex)
    a[0::2, : 2 * N + 1] = phase * ap[None, :]
    a[0::2, 2 * N + 1 :] = phase * (fac * bs)[None, :]
    a[1::2, : 2 * N + 1] = phase * (fac * bp)[None, :]
    a[1::2, 2 * N + 1 :] = phase * (-a_s)[None, :]

    g_r, g_t = _frame_components(rec)
    b = np.zeros((rec.n_sources, 2 * m), dtype=complex)
    b[:, 0::2] = g_r
    b[:, 1::2] = g_t

    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        raise SolveError("zero design matrix in aperture fit")
    lam = reg * s[0]
    filt = s / (s * s + lam * lam)
    # one row per source: x^T = b^T conj(u) diag(filt) conj(vh)
    x = ((b @ u.conj()) * filt) @ vh.conj()
    return ModalField(
        N=N,
        R=R_ref,
        rho=rho,
        sys=rec.sys,
        phat_p=x[:, : 2 * N + 1],
        phat_s=x[:, 2 * N + 1 :],
    )


def extract_field(
    rec: ScatterRecord, N: int, R: float, reg: float = 1e-8
) -> ModalField:
    """One field for the whole record, by projection or arc fit by aperture."""
    if rec.is_full_aperture:
        rhs = modal_rhs(rec, N)
        return solve_modal(rhs, rec.rho, R, rec.sys)
    return limited_aperture_fit(rec, N, reg, R=R)


# ---------------------------------------------------------------------------
# truncation rule
# ---------------------------------------------------------------------------

def bracket(x: float) -> int:
    """Largest integer smaller than x + 1 (an integer x maps to itself)."""
    return int(math.ceil(x))


def choose_truncation(delta: float, mode: str = "practical", tau2: float | None = None) -> int:
    """Truncation order from the noise level.

    practical:    N = 2 [ |ln delta| ] + 1
    theoretical:  N = [ ln(1/delta) / ln tau2 ],  tau2 > 1
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if mode == "practical":
        return 2 * bracket(abs(math.log(delta))) + 1
    if mode == "theoretical":
        if tau2 is None or tau2 <= 1.0:
            raise DomainError("theoretical rule needs tau2 > 1")
        return bracket(math.log(1.0 / delta) / math.log(tau2))
    raise DomainError(f"unknown truncation mode {mode!r}")
