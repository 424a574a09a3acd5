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
  and the rigid condition couples them modewise through 2x2 systems,
  solved in closed form for every mode and source at once.

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
from .elastic import LameSystem, PointSource, green_tensor
# not called here: the benchmark tracer (perfbench/spans.py) wraps this name
from .elastic import incident_field  # noqa: F401
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


def _incident_fields(x, srcs, sys: LameSystem) -> np.ndarray:
    """u_inc of every source at the points x (P, 2), each with its own
    polarization: shape (S, P, 2), from one green_tensor call."""
    z = np.array([src.location for src in srcs], dtype=float).reshape(-1, 2)
    pol = np.array([src.polarization for src in srcs], dtype=complex).reshape(-1, 2)
    return (green_tensor(x[None], z[:, None], sys) @ pol[:, None, :, None])[..., 0]


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
    # column s is -u_inc of source s on the grid
    b = -_incident_fields(colloc, srcs, sys).reshape(len(srcs), 2 * n_collocation).T

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
    sol: MfsSolution, curve: ParametricCurve, sources, sys: LameSystem, n: int
) -> float:
    """Max |u_inc + v| on an n-point boundary grid over all sources (quality probe).

    ``sources`` matches the solution's source axis: one PointSource for a
    one-source solution, else the sequence that was solved.
    """
    srcs = (sources,) if isinstance(sources, PointSource) else tuple(sources)
    if len(srcs) != np.size(sol.residuals):
        raise ConfigError(
            f"{len(srcs)} sources given for a solution of {np.size(sol.residuals)}"
        )
    pts = curve.sample(n)
    return float(np.max(np.abs(sol.eval(pts) + _incident_fields(pts, srcs, sys))))


# ---------------------------------------------------------------------------
# analytic disk solution
# ---------------------------------------------------------------------------

def _value_and_derivative(fn, n_modes: int, t):
    """C_m(t) and C_m'(t) = C_{m-1}(t) - (m/t) C_m(t) for m = -M..M.

    One call of ``fn`` (a cylinder function of integer order) fills orders
    -M-1..M; both tables have shape (2M+1,) + np.shape(t).
    """
    t = np.asarray(t, dtype=float)
    m = np.arange(-n_modes - 1, n_modes + 1).reshape((-1,) + (1,) * t.ndim)
    c = fn(m, t)
    return c[1:], c[:-1] - (m[1:] / t) * c[1:]


def _incident_potential_coeffs(srcs, sys: LameSystem, n_modes: int):
    """Bessel-basis coefficients of the incident potentials about the origin.

    Differentiating the addition-theorem expansion of (i/4) H_0(k|x - z|)
    along the polarization (for the compressional part) and along its
    perpendicular (for the shear part) gives, per branch,

        coeff_m = c [ P H_{m+1}(k|z|) e^{-i(m+1) t_z}
                      -/+ conj(P) H_{m-1}(k|z|) e^{-i(m-1) t_z} ]

    with P = p1 + i p2, c = -i k / (8 w^2) for 'p' (minus sign inside) and
    c = k / (8 w^2) for 's' (plus sign inside).  Returns (S, 2M+1) arrays,
    one row per source, from one Hankel call per branch.
    """
    z = np.array([src.location for src in srcs], dtype=float).reshape(-1, 2)
    pol = np.array([src.polarization for src in srcs], dtype=float).reshape(-1, 2)
    rz = np.hypot(z[:, 0], z[:, 1])[:, None]
    tz = np.arctan2(z[:, 1], z[:, 0])[:, None]
    p_cplx = (pol[:, 0] + 1j * pol[:, 1])[:, None]
    m = np.arange(-n_modes, n_modes + 1)
    out = []
    for k, sign, c in ((sys.k_p, -1.0, -1j), (sys.k_s, 1.0, 1.0)):
        # orders -M-1..M+1: H_{m-1} is columns 0..2M, H_{m+1} columns 2..2M+2
        h = specfun.hankel1(np.arange(-n_modes - 1, n_modes + 2)[None, :], k * rz)
        term_up = p_cplx * h[:, 2:] * np.exp(-1j * (m + 1) * tz)
        term_dn = np.conj(p_cplx) * h[:, :-2] * np.exp(-1j * (m - 1) * tz)
        out.append((c * k / (8.0 * sys.omega**2)) * (term_up + sign * term_dn))
    return out


@dataclass(frozen=True)
class DiskField:
    """Exact scattered fields of a rigid disk, evaluable for |x| >= radius.

    Coefficients carry a leading source axis ``lead``: ``()`` for one
    source, ``(S,)`` for a sequence.
    """

    radius: float
    sys: LameSystem
    b_p: np.ndarray   # lead + (2M+1,) outgoing-basis coefficients, orders -M..M
    b_s: np.ndarray

    @property
    def n_modes(self) -> int:
        return (self.b_p.shape[-1] - 1) // 2

    def eval(self, x) -> np.ndarray:
        """Scattered displacement at x (shape (..., 2)): lead + x.shape[:-1] + (2,)."""
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        theta = np.arctan2(x[..., 1], x[..., 0])
        shape = self.b_p.shape[:-1] + r.shape
        r = np.atleast_1d(r).ravel()
        theta = np.atleast_1d(theta).ravel()
        if np.any(r < self.radius * (1.0 - 1e-12)):
            raise DomainError("disk series evaluated inside the disk")

        # the Hankel tables depend on r only: evaluate them on the distinct
        # radii (a receiver circle has a few) and scatter back
        r_uniq, back = np.unique(r, return_inverse=True)
        m = np.arange(-self.n_modes, self.n_modes + 1)[:, None]
        phase = np.exp(1j * m * theta)
        # per branch: radial part k H_m' and tangential part (i m / r) H_m
        radial, tangential = [], []
        for k, coef in ((self.sys.k_p, self.b_p), (self.sys.k_s, self.b_s)):
            h, dh = _value_and_derivative(specfun.hankel1, self.n_modes, k * r_uniq)
            radial.append(coef @ (k * dh[:, back] * phase))
            tangential.append(coef @ ((1j * m / r) * h[:, back] * phase))
        a = radial[0] + tangential[1]
        b = tangential[0] - radial[1]
        ct, st = np.cos(theta), np.sin(theta)
        vec = np.stack([a * ct - b * st, a * st + b * ct], axis=-1)
        return vec.reshape(shape + (2,))


def disk_series(radius: float, sources, sys: LameSystem, n_modes: int = 40) -> DiskField:
    """Exact scattered fields outside a rigid disk centered at the origin.

    ``sources`` is one PointSource or a sequence of them.  The rim tables do
    not depend on the source, and the per-mode 2x2 rigid-boundary systems
    are solved in closed form for every mode and source at once.
    """
    single = isinstance(sources, PointSource)
    srcs = (sources,) if single else tuple(sources)
    if radius <= 0.0:
        raise DomainError("disk radius must be positive")
    if any(np.hypot(*src.xy) <= radius for src in srcs):
        raise DomainError("source must lie outside the disk")

    a_p, a_s = _incident_potential_coeffs(srcs, sys, n_modes)
    m = np.arange(-n_modes, n_modes + 1)
    jp, djp = _value_and_derivative(specfun.bessel_j, n_modes, sys.k_p * radius)
    js, djs = _value_and_derivative(specfun.bessel_j, n_modes, sys.k_s * radius)
    hp, dhp = _value_and_derivative(specfun.hankel1, n_modes, sys.k_p * radius)
    hs, dhs = _value_and_derivative(specfun.hankel1, n_modes, sys.k_s * radius)

    # u_inc + v = 0 at r = radius, per mode:
    #   [k_p H_p'   fac H_s ] [b_p]     [k_p J_p' a_p + fac J_s a_s ]
    #   [fac H_p   -k_s H_s'] [b_s] = - [fac J_p a_p  - k_s J_s' a_s]
    # solved for c = b H(k radius), which keeps every entry O(m)
    fac = 1j * m / radius
    g_p = sys.k_p * dhp / hp
    g_s = sys.k_s * dhs / hs
    det = -g_p * g_s - fac * fac
    if not np.all(np.isfinite(det) & (det != 0.0)):
        raise SolveError("degenerate rigid-disk mode system")
    rhs_r = -(sys.k_p * djp * a_p + fac * js * a_s)
    rhs_t = -(fac * jp * a_p - sys.k_s * djs * a_s)
    b_p = (-g_s * rhs_r - fac * rhs_t) / (det * hp)
    b_s = (g_p * rhs_t - fac * rhs_r) / (det * hs)
    if single:
        b_p, b_s = b_p[0], b_s[0]
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
    """ScatterRecord filled from the analytic disk solution (one series solve)."""
    if radius >= rho:
        raise ConfigError("measurement radius must exceed the disk")
    theta = receiver_angles(n_receivers, aperture)
    pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    sources = tuple(sources)
    return ScatterRecord(
        rho=rho,
        sys=sys,
        sources=sources,
        receivers=theta,
        values=disk_series(radius, sources, sys, n_modes).eval(pts),
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
