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
per mode, a 2x2 system with determinant beta_{p,n} beta_{s,n} Lambda_n,

    Lambda_n = n^2/rho^2 - alpha_{p,n} alpha_{s,n} / (beta_{p,n} beta_{s,n}),

nonzero for every integer n, so the coefficients follow in closed form.
This per-mode algebra is written once, here: ``_tables`` (alpha, beta,
kappa from one table call, over C_n(kR) given R), ``_frame`` (the U_n / V_n
amplitudes of a unit coefficient), ``_basis`` (their Cartesian components
times e^{in theta}), ``_expand`` (their contraction with the coefficients)
and ``_invert`` (the 2x2 inverse, with the one determinant guard).  The
disk oracle in ``forward`` shares them all but the Hankel library (its
tables are AMOS's, without R), so mpmath's per-mode matrix
(``tests/oracles.modal_matrix``) is their independent check.  The
projection of full-circle data (one matrix product with the trapezoid
weights) and the inverse act on each mode alone, so an extraction at order
N holds every lower order's coefficients.  The d/dr frame is the frame of
the tables (kappa, alpha - beta/r), kappa_{xi,n}(r) = alpha_{xi,n}'(r); the
angular derivative needs no table of its own, since U_n' = in U_n + V_n and
V_n' = in V_n - U_n make d/dtheta v the field of the coefficients in c plus
v turned a quarter.  The evaluators are ``eval_field`` (v), ``eval_radial``
(v and d/dr v, the Newton step's pair) and ``eval_gradient`` (the Cartesian
Jacobian, one ``eval_radial`` of the rows c and in c).

Coefficient arrays are ordered n = -N..N along their last axis; leading
axes (one row per source for a record) pass through every evaluator, which
builds its Hankel tables once for all rows (one ``_tables`` call for both
wavenumbers on the distinct radii and R) and contracts the
source-independent basis with [phat_p, phat_s] in one matrix product.  The
arc fit uses that basis as its design matrix.  ModalField instances are
immutable after construction and all evaluators are pure.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .elastic import LameSystem
from .errors import AliasingError, ConfigError, DomainError, SolveError
from .records import ScatterRecord

__all__ = [
    "ModalRhs",
    "ModalField",
    "modal_rhs",
    "lambda_n",
    "solve_modal",
    "eval_field",
    "eval_radial",
    "eval_gradient",
    "limited_aperture_fit",
    "extract_field",
    "choose_truncation",
    "bracket",
]


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def _tables(table, k, N: int, r: np.ndarray, R=None):
    """[alpha, beta, kappa] = [k C', C, k^2 C''], each np.shape(k) + (2N+1, P), orders
    -N..N, at the 1-D radii r: one ``specfun.cylinder_tables`` call on ``table`` for
    every k on the distinct radii (a circle has a few), scattered back.  Given R,
    its column goes last and every table is divided by C_n(kR)."""
    k = np.reshape(k, np.shape(k) + (1,))
    r_uniq, back = np.unique(np.asarray(r, dtype=float), return_inverse=True)
    t = k * (r_uniq if R is None else np.append(r_uniq, R))
    c, dc, ddc = (np.moveaxis(tab, 0, -2) for tab in specfun.cylinder_tables(table, N, t))
    k = k[..., None]
    if R is None:
        return [tab[..., back] for tab in (k * dc, c, k * k * ddc)]
    denom = c[..., -1:]
    if np.any(np.abs(denom) == 0.0) or not np.all(np.isfinite(denom)):
        raise SolveError("degenerate normalization H_n(kR) (zero or overflow)")
    return [tab[..., back] for tab in (k * dc / denom, c / denom, k * k * ddc / denom)]


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


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def modal_rhs(rec: ScatterRecord, N: int) -> ModalRhs:
    """Project full-circle data onto the U_n / V_n frame, one row per source.

    On an equispaced receiver grid the trapezoid rule is the exact discrete
    Fourier transform, so the projections are exact for band-limited data
    up to the aliasing order.  The rule is one (S, 2M) @ (2M, 2(2N+1))
    product with conj(U_n) / M and conj(V_n) / M at the receivers.
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

    # U_n (as p's unit frame) and V_n (as s's) in Cartesian components
    proj = _cartesian([((1.0, 0.0), (0.0, 1.0))], np.arange(-N, N + 1), theta).conj() / m
    f = rec.values.reshape(rec.n_sources, 2 * m) @ proj.reshape(2 * (2 * N + 1), 2 * m).T
    return ModalRhs(N=N, f_p=f[:, : 2 * N + 1], f_s=f[:, 2 * N + 1 :])


def _lambda(n, r, alpha, beta):
    (alpha_p, alpha_s), (beta_p, beta_s) = alpha, beta
    return (n / r) ** 2 - alpha_p * alpha_s / (beta_p * beta_s)


def _frame(n, r, alpha, beta):
    """U_n / V_n amplitudes ((a_p, b_p), (a_s, b_s)) of a unit coefficient in
    each potential, from (p, s) pairs of tables alpha and beta; the d/dr
    tables (kappa, alpha - beta/r) give the d/dr amplitudes, as beta' = alpha."""
    (alpha_p, alpha_s), (beta_p, beta_s) = alpha, beta
    inr = 1j * n / r
    return (alpha_p, inr * beta_p), (inr * beta_s, -alpha_s)


def _invert(n, r, alpha, beta, f_u, f_v):
    """Coefficients (c_p, c_s) whose ``_frame(n, r, alpha, beta)`` amplitudes are
    (f_u, f_v), for 1-D orders n: the frame's adjugate over its determinant
    Lambda_n beta_p beta_s, which is a SolveError if non-finite or below 1e-300."""
    (u_p, v_p), (u_s, v_s) = _frame(n, r, alpha, beta)
    denom = _lambda(n, r, alpha, beta) * beta[0] * beta[1]  # u_p v_s - u_s v_p
    bad = (np.abs(denom) < 1e-300) | ~np.isfinite(denom)
    if np.any(bad):
        raise SolveError(f"mode determinant tiny or non-finite at n={n[bad][0]} (|n| <= {n.max()})")
    return (v_s * f_u - u_s * f_v) / denom, (u_p * f_v - v_p * f_u) / denom


def lambda_n(n, rho: float, R: float, sys: LameSystem):
    """Per-mode determinant factor n^2/rho^2 - alpha_p alpha_s / (beta_p beta_s).

    ``n`` is an int (complex result) or an integer array (array of the same
    shape, from one table of orders up to max |n|).
    """
    N = int(np.max(np.abs(n)))
    alpha, beta, _ = _tables(specfun.hankel1_table, (sys.k_p, sys.k_s), N, np.array([rho]), R)
    return _lambda(n, rho, alpha[:, np.add(n, N), 0], beta[:, np.add(n, N), 0])


def solve_modal(rhs: ModalRhs, rho: float, R: float, sys: LameSystem) -> ModalField:
    """Invert the per-mode 2x2 systems in closed form (``_invert``), for every row of rhs."""
    N = rhs.N
    alpha, beta, _ = _tables(specfun.hankel1_table, (sys.k_p, sys.k_s), N, np.array([rho]), R)
    phat_p, phat_s = _invert(np.arange(-N, N + 1), rho, alpha[..., 0], beta[..., 0],
                             rhs.f_p, rhs.f_s)
    return ModalField(N=N, R=R, rho=rho, sys=sys, phat_p=phat_p, phat_s=phat_s)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _basis(table, N: int, sys: LameSystem, r, theta, d_r: bool, R=None) -> np.ndarray:
    """Source-independent basis, shape (2(2N+1), 1 + d_r, P, 2), from ``_tables``.

    Entry [w (2N+1) + N + n, i, p, c] is Cartesian component c at the point
    (r_p, theta_p) of the value (i = 0) or, with ``d_r``, its d/dr (i = 1)
    for a unit coefficient of order n in potential w (0 = p, 1 = s): the
    U_n / V_n amplitudes times e^{in theta}, rotated to Cartesian
    components.  r and theta are 1-D of length P.
    """
    alpha, beta, kappa = _tables(table, (sys.k_p, sys.k_s), N, r, R)
    n = np.arange(-N, N + 1, dtype=float)[:, None]
    frames = [_frame(n, r, alpha, beta)]
    if d_r:
        frames.append(_frame(n, r, kappa, alpha - beta / r))
    return _cartesian(frames, n, theta)


def _cartesian(frames, n, theta) -> np.ndarray:
    """(a e_r + b e_theta) e^{in theta} in Cartesian components, in ``_basis``'s
    layout, for every ((a_p, b_p), (a_s, b_s)) in ``frames`` at the 1-D angles theta."""
    n = np.reshape(n, (-1, 1))
    ct, st = np.cos(theta), np.sin(theta)
    phase = np.exp(1j * n * theta)
    basis = np.empty((2, n.size, len(frames), theta.size, 2), dtype=complex)
    for i, frame in enumerate(frames):
        for w, (a, b) in enumerate(frame):
            basis[w, :, i, :, 0] = (a * ct - b * st) * phase
            basis[w, :, i, :, 1] = (a * st + b * ct) * phase
    return basis.reshape(2 * n.size, len(frames), theta.size, 2)


def _expand(c_p, c_s, x, basis_of) -> list:
    """Fields of the coefficients [c_p, c_s] in each frame of ``basis_of(r, theta)``
    (``_basis``'s layout at the 1-D polar coordinates of x), each lead + x.shape[:-1]
    + (2,): one (lead, 2(2N+1)) @ (2(2N+1), frames * P * 2) product for every row."""
    r, theta = _polar(x)
    shape = c_p.shape[:-1] + r.shape
    basis = basis_of(np.atleast_1d(r).ravel(), np.atleast_1d(theta).ravel())
    coeffs = np.concatenate([c_p, c_s], axis=-1)
    out = (coeffs @ basis.reshape(len(basis), -1)).reshape(coeffs.shape[:-1] + basis.shape[1:])
    return [out[..., i, :, :].reshape(shape + (2,)) for i in range(basis.shape[1])]


def _evaluate(mf: ModalField, x, d_r: bool) -> list:
    """[v] or, with ``d_r``, [v, d/dr v] at x, each lead + (..., 2) Cartesian;
    a DomainError unless every |x| > R."""
    def basis_of(r, theta):
        if np.any(r <= mf.R):
            raise DomainError(f"evaluation requires |x| > R = {mf.R:g}")
        return _basis(specfun.hankel1_table, mf.N, mf.sys, r, theta, d_r, mf.R)

    return _expand(mf.phat_p, mf.phat_s, x, basis_of)


def eval_field(mf: ModalField, x) -> np.ndarray:
    """Truncated scattered field at x (shape (..., 2)), |x| > R: lead + (..., 2)."""
    return _evaluate(mf, x, False)[0]


def eval_radial(mf: ModalField, x):
    """(v, d/dr v) at x from one set of Hankel tables, as Cartesian vectors."""
    return tuple(_evaluate(mf, x, True))


def eval_gradient(mf: ModalField, x) -> np.ndarray:
    """Cartesian Jacobian, entry (i, j) = d v_i / d x_j, shape lead + (..., 2, 2).

    d/dtheta v = v[in c] + J v with J (x, y) = (-y, x), so one eval_radial of
    the rows (c, in c) yields v, d/dr v and d/dtheta v.
    """
    r, theta = _polar(x)
    i_n = 1j * np.arange(-mf.N, mf.N + 1)
    both = replace(mf, phat_p=np.stack([mf.phat_p, i_n * mf.phat_p]),
                   phat_s=np.stack([mf.phat_s, i_n * mf.phat_s]))
    (v, v_in), (d_r, _) = eval_radial(both, x)
    d_t = v_in + np.stack([-v[..., 1], v[..., 0]], axis=-1)
    ct = np.cos(theta)[..., None]
    st = np.sin(theta)[..., None]
    rr = r[..., None]
    col1 = d_r * ct - d_t * st / rr
    col2 = d_r * st + d_t * ct / rr
    return np.stack([col1, col2], axis=-1)


# ---------------------------------------------------------------------------
# limited aperture
# ---------------------------------------------------------------------------

def limited_aperture_fit(rec: ScatterRecord, N: int, reg: float, R: float) -> ModalField:
    """Least-squares coefficient fit for arc data, with optional ridge.

    The design matrix is the evaluators' basis at the receivers: one row
    per Cartesian component, one column per coefficient, 2(2N+1) in all.
    It does not depend on the source, so one SVD serves every source of
    the record.  The Tikhonov weight is ``reg`` times the largest singular
    value; with reg = 0 and full-aperture data this reproduces the
    projection route.
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
    if not 0.0 < R < rho:
        raise ConfigError("reference radius must lie in (0, rho)")
    basis = _basis(specfun.hankel1_table, N, rec.sys, np.full(m, rho), theta, False, R)
    a = basis.reshape(n_unknowns, 2 * m).T
    b = rec.values.reshape(rec.n_sources, 2 * m)

    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        raise SolveError("zero design matrix in aperture fit")
    lam = reg * s[0]
    filt = s / (s * s + lam * lam)
    # one row per source: x^T = b^T conj(u) diag(filt) conj(vh)
    x = ((b @ u.conj()) * filt) @ vh.conj()
    return ModalField(
        N=N,
        R=R,
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
