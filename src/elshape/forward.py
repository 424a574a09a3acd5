"""Synthetic data generation: MFS forward solver and an analytic disk oracle.

Two independent routes produce scattered fields for a rigid obstacle
(total displacement zero on the boundary):

* ``solve_mfs`` represents the scattered field as a combination of
  fundamental-tensor columns with source points on an interior dilation
  of the boundary, fitted by oversampled least-squares collocation of
  v = -u_inc on the boundary.  Works for any smooth parametric curve.

* ``disk_series`` solves the disk case exactly: the incident potentials
  are expanded about the origin in the regular Bessel basis (addition
  theorem for H_0^(1)), the scattered potentials in the outgoing basis,
  and the rigid condition couples them modewise through 2x2 systems.

The pair cross-validates itself and keeps inversion tests free of the
inverse crime.  ``simulate`` makes one MFS solve for all sources (one
collocation matrix, one least-squares solve with a right-hand side per
source, one receiver table) and packages it into a ScatterRecord;
``add_noise`` applies the multiplicative per-component noise model
v -> v + delta r1 |v| exp(i pi r2),  r1, r2 ~ U(-1, 1).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .elastic import LameSystem, PointSource, green_tensor, incident_field
from .errors import ConfigError, DomainError, SolveError
from .geometry import ParametricCurve
from .records import FULL_APERTURE, ScatterRecord

#: collocation residual above this emits an accuracy warning
RESIDUAL_WARN = 1e-6


# ---------------------------------------------------------------------------
# method of fundamental solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MfsSolution:
    """Charge layout and fitted strengths for the scattered fields of S sources.

    Arrays carry a leading source axis ``lead``: ``()`` when one source was
    solved, ``(S,)`` for a sequence.
    """

    charges: np.ndarray     # (n_charges, 2)
    strengths: np.ndarray   # lead + (n_charges, 2) complex
    residuals: np.ndarray   # lead; max residual on the collocation grid
    sys: LameSystem

    def __post_init__(self):
        if self.strengths.shape[-2:] != self.charges.shape:
            raise ValueError("one strength vector per charge point required")

    @property
    def residual(self) -> float:
        """Worst collocation residual over the sources."""
        return float(np.max(self.residuals, initial=0.0))

    def eval(self, x) -> np.ndarray:
        """Scattered displacement at x (shape (..., 2)): lead + x.shape[:-1] + (2,)."""
        x = np.asarray(x, dtype=float)
        g = _charge_matrix(x.reshape(-1, 2), self.charges, self.sys)
        lead = self.strengths.shape[:-2]
        coef = self.strengths.reshape(-1, g.shape[1])
        return (coef @ g.T).reshape(lead + x.shape[:-1] + (2,))


def _charge_matrix(x, charges, sys: LameSystem) -> np.ndarray:
    """G(x_i, y_j) laid out with rows (point, component), columns (charge, component)."""
    g = green_tensor(x[:, None, :], charges[None, :, :], sys)
    return g.transpose(0, 2, 1, 3).reshape(2 * len(x), 2 * len(charges))


def solve_mfs(
    curve: ParametricCurve,
    sources,
    sys: LameSystem,
    n_collocation: int = 128,
    n_charges: int = 64,
    shrink: float = 0.8,
    warn_above: float | None = RESIDUAL_WARN,
) -> MfsSolution:
    """Fit interior charges so that u_inc + v vanishes on the boundary.

    ``sources`` is one PointSource or a sequence of them.  The collocation
    matrix does not depend on the source, so it is built once and one
    least-squares solve fits every source's right-hand side.
    """
    single = isinstance(sources, PointSource)
    srcs = (sources,) if single else tuple(sources)
    if not 0.0 < shrink < 1.0:
        raise ConfigError("shrink must lie in (0, 1)")
    if n_collocation < n_charges:
        raise ConfigError("need at least as many collocation points as charges")
    if any(curve.contains(src.xy) for src in srcs):
        raise ConfigError("source point lies inside the obstacle")

    centroid = curve.centroid()
    t_chg = np.linspace(0.0, 2.0 * np.pi, n_charges, endpoint=False)
    charges = centroid + shrink * (curve.point(t_chg) - centroid)
    t_col = np.linspace(0.0, 2.0 * np.pi, n_collocation, endpoint=False)
    colloc = curve.point(t_col)

    a = _charge_matrix(colloc, charges, sys)
    # column s is -u_inc of source s on the grid, each with its own polarization
    z = np.array([src.location for src in srcs], dtype=float).reshape(-1, 2)
    pol = np.array([src.polarization for src in srcs], dtype=complex).reshape(-1, 2)
    u_inc = green_tensor(colloc[None], z[:, None], sys) @ pol[:, None, :, None]
    b = -u_inc.reshape(len(srcs), 2 * n_collocation).T

    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise SolveError("non-finite MFS collocation system")
    coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=1e-12)
    if rank == 0:
        raise SolveError("rank-deficient MFS collocation matrix")
    residuals = np.max(np.abs(a @ coef - b), axis=0)
    if warn_above is not None and np.any(residuals > warn_above):
        worst = int(np.argmax(residuals))
        warnings.warn(
            f"MFS collocation residual {residuals[worst]:.3e} exceeds {warn_above:.0e} "
            f"(source {worst} of {len(srcs)})",
            stacklevel=2,
        )
    strengths = coef.T.reshape(len(srcs), n_charges, 2)
    if single:
        strengths, residuals = strengths[0], residuals[0]
    return MfsSolution(charges=charges, strengths=strengths, residuals=residuals, sys=sys)


def boundary_residual(
    sol: MfsSolution, curve: ParametricCurve, src: PointSource, sys: LameSystem, n: int
) -> float:
    """Max |u_inc + v| on an n-point boundary grid (solution quality probe)."""
    pts = curve.sample(n)
    total = sol.eval(pts) + incident_field(pts, src, sys)
    return float(np.max(np.abs(total)))


# ---------------------------------------------------------------------------
# analytic disk solution
# ---------------------------------------------------------------------------

def _bessel_j_dj(orders: np.ndarray, t: np.ndarray):
    j = specfun.bessel_j(orders, t)
    j_prev = specfun.bessel_j(orders - 1, t)
    return j, j_prev - (orders / t) * j


def _hankel_h_dh(orders: np.ndarray, t: np.ndarray):
    h = specfun.hankel1(orders, t)
    h_prev = specfun.hankel1(orders - 1, t)
    return h, h_prev - (orders / t) * h


def _incident_potential_coeffs(src: PointSource, sys: LameSystem, n_modes: int):
    """Bessel-basis coefficients of the incident potentials about the origin.

    Differentiating the addition-theorem expansion of (i/4) H_0(k|x - z|)
    along the polarization (for the compressional part) and along its
    perpendicular (for the shear part) gives, per branch,

        coeff_m = c [ P H_{m+1}(k|z|) e^{-i(m+1) t_z}
                      -/+ conj(P) H_{m-1}(k|z|) e^{-i(m-1) t_z} ]

    with P = p1 + i p2, c = -i k / (8 w^2) for 'p' (minus sign inside) and
    c = k / (8 w^2) for 's' (plus sign inside).
    """
    z = src.xy
    rz = np.hypot(z[0], z[1])
    tz = np.arctan2(z[1], z[0])
    p_cplx = src.p[0] + 1j * src.p[1]
    m = np.arange(-n_modes, n_modes + 1)
    out = {}
    for branch, k in (("p", sys.k_p), ("s", sys.k_s)):
        h_up = specfun.hankel1(m + 1, np.full(m.shape, k * rz))
        h_dn = specfun.hankel1(m - 1, np.full(m.shape, k * rz))
        term_up = p_cplx * h_up * np.exp(-1j * (m + 1) * tz)
        term_dn = np.conj(p_cplx) * h_dn * np.exp(-1j * (m - 1) * tz)
        if branch == "p":
            out[branch] = (-1j * k / (8.0 * sys.omega**2)) * (term_up - term_dn)
        else:
            out[branch] = (k / (8.0 * sys.omega**2)) * (term_up + term_dn)
    return out["p"], out["s"]


@dataclass(frozen=True)
class DiskField:
    """Exact scattered field of a rigid disk, evaluable for |x| >= radius."""

    radius: float
    sys: LameSystem
    b_p: np.ndarray   # outgoing-basis coefficients, orders -M..M
    b_s: np.ndarray

    @property
    def n_modes(self) -> int:
        return (self.b_p.size - 1) // 2

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        theta = np.arctan2(x[..., 1], x[..., 0])
        shape = r.shape
        r = np.atleast_1d(r).ravel()
        theta = np.atleast_1d(theta).ravel()
        if np.any(r < self.radius * (1.0 - 1e-12)):
            raise DomainError("disk series evaluated inside the disk")

        m = np.arange(-self.n_modes, self.n_modes + 1)
        a = np.zeros(r.size, dtype=complex)
        b = np.zeros(r.size, dtype=complex)
        for branch, k, coef in (("p", self.sys.k_p, self.b_p), ("s", self.sys.k_s, self.b_s)):
            h, dh = _hankel_h_dh(m[:, None], k * r[None, :])
            if branch == "p":
                a = a + np.sum(coef[:, None] * k * dh * np.exp(1j * m[:, None] * theta), axis=0)
                b = b + np.sum(
                    coef[:, None] * (1j * m[:, None] / r[None, :]) * h
                    * np.exp(1j * m[:, None] * theta),
                    axis=0,
                )
            else:
                a = a + np.sum(
                    coef[:, None] * (1j * m[:, None] / r[None, :]) * h
                    * np.exp(1j * m[:, None] * theta),
                    axis=0,
                )
                b = b - np.sum(coef[:, None] * k * dh * np.exp(1j * m[:, None] * theta), axis=0)
        ct, st = np.cos(theta), np.sin(theta)
        vec = np.stack([a * ct - b * st, a * st + b * ct], axis=-1)
        return vec.reshape(shape + (2,))


def disk_series(
    radius: float, src: PointSource, sys: LameSystem, n_modes: int = 40
) -> DiskField:
    """Exact scattered field outside a rigid disk centered at the origin."""
    if radius <= 0.0:
        raise DomainError("disk radius must be positive")
    rz = float(np.hypot(*src.xy))
    if rz <= radius:
        raise DomainError("source must lie outside the disk")

    a_p, a_s = _incident_potential_coeffs(src, sys, n_modes)
    m = np.arange(-n_modes, n_modes + 1)
    tp = np.full(m.shape, sys.k_p * radius)
    ts = np.full(m.shape, sys.k_s * radius)
    jp, djp = _bessel_j_dj(m, tp)
    js, djs = _bessel_j_dj(m, ts)
    hp, dhp = _hankel_h_dh(m, tp)
    hs, dhs = _hankel_h_dh(m, ts)

    fac = 1j * m / radius
    b_p = np.zeros(m.size, dtype=complex)
    b_s = np.zeros(m.size, dtype=complex)
    for i in range(m.size):
        mat = np.array(
            [[sys.k_p * dhp[i], fac[i] * hs[i]], [fac[i] * hp[i], -sys.k_s * dhs[i]]]
        )
        rhs = -np.array(
            [
                sys.k_p * djp[i] * a_p[i] + fac[i] * js[i] * a_s[i],
                fac[i] * jp[i] * a_p[i] - sys.k_s * djs[i] * a_s[i],
            ]
        )
        sol = np.linalg.solve(mat, rhs)
        b_p[i], b_s[i] = sol[0], sol[1]
    return DiskField(radius=radius, sys=sys, b_p=b_p, b_s=b_s)


# ---------------------------------------------------------------------------
# record assembly and noise
# ---------------------------------------------------------------------------

def receiver_angles(n_receivers: int, aperture=FULL_APERTURE) -> np.ndarray:
    """Sorted receiver angles equidistributed over the (possibly wrapped) arc."""
    lo, hi = aperture
    if not (hi > lo and hi - lo <= 2.0 * np.pi + 1e-12):
        raise ConfigError("aperture must satisfy lo < hi <= lo + 2*pi")
    theta = lo + (hi - lo) * np.arange(n_receivers) / n_receivers
    return np.sort(np.mod(theta, 2.0 * np.pi))


def simulate(
    curve: ParametricCurve,
    sources,
    sys: LameSystem,
    rho: float,
    n_receivers: int,
    aperture=FULL_APERTURE,
    n_collocation: int = 128,
    n_charges: int = 64,
    shrink: float = 0.8,
    warn_above: float | None = RESIDUAL_WARN,
    residual_log: list | None = None,
) -> ScatterRecord:
    """Measure every source's MFS scattered field on the receiver arc (one solve)."""
    if rho <= curve.max_radius():
        raise ConfigError("measurement radius must exceed the obstacle")
    theta = receiver_angles(n_receivers, aperture)
    pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    sources = tuple(sources)
    sol = solve_mfs(curve, sources, sys, n_collocation, n_charges, shrink, warn_above)
    if residual_log is not None:
        residual_log.extend(float(r) for r in sol.residuals)
    return ScatterRecord(
        rho=rho,
        sys=sys,
        sources=sources,
        receivers=theta,
        values=sol.eval(pts),
        aperture=tuple(aperture),
    )


def ring_sources(
    n_sources: int, rho: float, polarization=(np.sqrt(0.5), np.sqrt(0.5))
):
    """Point sources equally distributed on the measurement circle."""
    angles = 2.0 * np.pi * np.arange(n_sources) / max(n_sources, 1)
    return tuple(
        PointSource((rho * np.cos(a), rho * np.sin(a)), polarization) for a in angles
    )


def record_from_disk_series(
    radius: float,
    sources,
    sys: LameSystem,
    rho: float,
    n_receivers: int,
    aperture=FULL_APERTURE,
    n_modes: int = 40,
) -> ScatterRecord:
    """ScatterRecord filled from the analytic disk solution (oracle route)."""
    if radius >= rho:
        raise ConfigError("measurement radius must exceed the disk")
    theta = receiver_angles(n_receivers, aperture)
    pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    values = np.zeros((len(sources), n_receivers, 2), dtype=complex)
    for i, src in enumerate(sources):
        values[i] = disk_series(radius, src, sys, n_modes).eval(pts)
    return ScatterRecord(
        rho=rho,
        sys=sys,
        sources=tuple(sources),
        receivers=theta,
        values=values,
        aperture=tuple(aperture),
    )


def add_noise(rec: ScatterRecord, delta: float, seed: int) -> ScatterRecord:
    """Perturb each complex component: v + delta r1 |v| exp(i pi r2)."""
    if not 0.0 <= delta < 1.0:
        raise DomainError("noise level must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    r1 = rng.uniform(-1.0, 1.0, rec.values.shape)
    r2 = rng.uniform(-1.0, 1.0, rec.values.shape)
    noisy = rec.values + delta * r1 * np.abs(rec.values) * np.exp(1j * np.pi * r2)
    return ScatterRecord(
        rho=rec.rho,
        sys=rec.sys,
        sources=rec.sources,
        receivers=rec.receivers,
        values=noisy,
        aperture=rec.aperture,
    )
