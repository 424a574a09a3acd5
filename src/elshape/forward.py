"""Synthetic data generation: MFS forward solver and an analytic disk oracle.

Two independent routes produce scattered fields for a rigid obstacle
(total displacement zero on the boundary):

* ``solve_mfs`` represents the scattered field as a combination of
  fundamental-tensor columns with source points on an interior dilation
  of the boundary, fitted by oversampled least-squares collocation of
  v = -u_inc on the boundary.  Works for any smooth parametric curve.
  A is a view of ``green_tensor``'s array, not a copy (``elastic``
  lays G out for it, see ``elastic._tensor_array``).  One Householder QR
  of [A | B] gives A's triangle R and Q^H B, and one blocked
  back-substitution on R (64-row diagonal blocks, one product per block
  column for the rows above) gives every source's charges.
  No rank is truncated: the system is ill-conditioned (cond up to ~1e9 at
  the shipped resolutions, ~1e16 when over-resolved), but a
  backward-stable solve still gives an accurate field (Barnett & Betcke,
  JCP 2008), which the collocation residual reports.

* ``disk_series`` solves the disk case exactly: the incident potentials
  are expanded about the origin in the regular Bessel basis (addition
  theorem for H_0^(1)), the scattered potentials in the outgoing basis,
  and the rigid condition couples them modewise through 2x2 systems,
  solved in closed form for every mode and source at once.  It shares
  ``modal``'s per-mode algebra (the table layout of ``_tables``, the basis
  assembly of ``_basis``, the inverse and the contraction), whose own
  check is against mpmath, but not its Hankel library: its tables come
  from AMOS (``specfun.hankel1``/``bessel_j``) and are not normalized.

The pair cross-validates itself (``oracle_gap`` within ``ORACLE_TOL``)
and keeps inversion tests free of the inverse crime.  Both solutions
carry the sources they were solved for, and ``measure`` samples either
one on the receiver arc into a ScatterRecord; ``simulate`` is one MFS
solve for all sources plus ``measure``.  ``add_noise`` applies the
multiplicative noise v -> v + delta r1 |v| exp(i pi r2),  r1, r2 ~ U(-1, 1)
per component; ``noise_perturbation`` draws the added term alone.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .elastic import LameSystem, PointSource, green_tensor, incident_field
from .errors import ConfigError, DomainError, SolveError
from .geometry import ParametricCurve, disk
from .modal import _basis, _expand, _frame, _invert, _polar, _tables
from .records import FULL_APERTURE, ScatterRecord, aperture_error

#: collocation residual above this emits an accuracy warning
RESIDUAL_WARN = 1e-6
#: ``oracle_gap`` between MFS and disk-series records above this is a disagreement
ORACLE_TOL = 1e-6
#: rows of the diagonal blocks that ``_back_substitute`` solves densely
BACK_SUB_BLOCK = 64


# ---------------------------------------------------------------------------
# method of fundamental solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MfsSolution:
    """Charge layout and fitted strengths for the scattered fields of S sources."""

    charges: np.ndarray     # (n_charges, 2)
    strengths: np.ndarray   # (S, n_charges, 2) complex
    residuals: np.ndarray   # (S,); max residual on the collocation grid
    sys: LameSystem
    sources: tuple          # the S point sources, in row order

    def __post_init__(self):
        if self.strengths.shape[1:] != self.charges.shape:
            raise ValueError("one strength vector per charge point required")

    @property
    def residual(self) -> float:
        """Worst collocation residual over the sources."""
        return float(np.max(self.residuals, initial=0.0))

    def eval(self, x) -> np.ndarray:
        """Scattered displacement at x (shape (..., 2)): (S,) + x.shape."""
        x = np.asarray(x, dtype=float)
        g = _charge_matrix(x.reshape(-1, 2), self.charges, self.sys)
        coef = self.strengths.reshape(-1, g.shape[1])
        return (coef @ g.T).reshape(self.strengths.shape[:1] + x.shape)


def _charge_matrix(x, charges, sys: LameSystem) -> np.ndarray:
    """G(x_i, y_j) laid out with rows (point, component), columns (charge,
    component): a view of green_tensor's array, which ``elastic._tensor_array``
    lays out for it."""
    g = green_tensor(x[:, None, :], charges[None, :, :], sys)
    return g.swapaxes(1, 2).reshape(2 * len(x), 2 * len(charges))


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

    ``sources`` is a sequence of S point sources.  The collocation matrix
    does not depend on the source, so it is built once and one QR of
    [A | B] fits every source's right-hand side.  A zero on R's diagonal
    (an exactly rank-deficient A) is a ``SolveError``.
    """
    srcs = tuple(sources)
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
    b = -incident_field(colloc, srcs, sys).reshape(len(srcs), 2 * n_collocation).T

    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise SolveError("non-finite MFS collocation system")
    # R of [A | B] holds A's triangle and Q^H B side by side, so Q is never formed
    n = a.shape[1]
    r = np.linalg.qr(np.hstack([a, b]), mode="r")
    if not np.all(np.diagonal(r[:n, :n])):
        raise SolveError("rank-deficient MFS collocation matrix")
    coef = _back_substitute(r[:n, :n], r[:n, n:])
    residuals = np.max(np.abs(a @ coef - b), axis=0)
    if warn_above is not None and np.any(residuals > warn_above):
        worst = int(np.argmax(residuals))
        warnings.warn(
            f"MFS collocation residual {residuals[worst]:.3e} exceeds {warn_above:.0e} "
            f"(source {worst} of {len(srcs)})",
            stacklevel=2,
        )
    strengths = coef.T.reshape(len(srcs), n_charges, 2)
    return MfsSolution(
        charges=charges, strengths=strengths, residuals=residuals, sys=sys, sources=srcs
    )


def _back_substitute(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve r x = y for an upper-triangular r with nonzero diagonal.

    numpy has no triangular solver, so the diagonal blocks of
    BACK_SUB_BLOCK rows are solved bottom-up with ``np.linalg.solve``: on
    an upper triangle partial pivoting keeps the diagonal as pivot and every
    multiplier is zero, so its LU costs a block's size cubed, not R's.
    One product per block column then removes the solved unknowns from
    the rows above.
    """
    x = np.array(y, dtype=np.result_type(r, y))
    b = BACK_SUB_BLOCK
    for lo in range((r.shape[0] - 1) // b * b, -1, -b):
        x[lo : lo + b] = np.linalg.solve(r[lo : lo + b, lo : lo + b], x[lo : lo + b])
        x[:lo] -= r[:lo, lo : lo + b] @ x[lo : lo + b]
    return x


def boundary_residual(sol: MfsSolution, curve: ParametricCurve, n: int) -> float:
    """Max |u_inc + v| on an n-point boundary grid over the solution's
    sources (quality probe)."""
    pts = curve.sample(n)
    return float(np.max(np.abs(sol.eval(pts) + incident_field(pts, sol.sources, sol.sys))))


# ---------------------------------------------------------------------------
# analytic disk solution
# ---------------------------------------------------------------------------

def _amos(fn):
    """The AMOS function ``fn`` (``specfun.hankel1`` or ``bessel_j``) as a
    ``specfun.cylinder_tables`` table of orders 0..m."""
    return lambda m, t: fn(np.arange(m + 1).reshape((-1,) + (1,) * t.ndim), t)


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
    rz, tz = (a[:, None] for a in _polar(z))
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
    """Exact scattered fields of a rigid disk, evaluable for |x| >= radius."""

    radius: float
    sys: LameSystem
    b_p: np.ndarray   # (S, 2M+1) outgoing-basis coefficients, orders -M..M
    b_s: np.ndarray
    sources: tuple    # the S point sources, in row order

    @property
    def n_modes(self) -> int:
        return (self.b_p.shape[-1] - 1) // 2

    def eval(self, x) -> np.ndarray:
        """Scattered displacement at x (shape (..., 2)): (S,) + x.shape."""
        return _expand(self.b_p, self.b_s, x, self._basis)[0]

    def _basis(self, r, theta) -> np.ndarray:
        """The outgoing basis at the 1-D polar points (r, theta), ``modal._basis``'s layout."""
        if np.any(r < self.radius * (1.0 - 1e-12)):
            raise DomainError("disk series evaluated inside the disk")
        return _basis(_amos(specfun.hankel1), self.n_modes, self.sys, r, theta, False)


def disk_series(radius: float, sources, sys: LameSystem, n_modes: int = 40) -> DiskField:
    """Exact scattered fields outside a rigid disk centered at the origin.

    ``sources`` is a sequence of S point sources.  The rim tables do not
    depend on the source, and the per-mode 2x2 rigid-boundary systems are
    solved in closed form for every mode and source at once.
    """
    srcs = tuple(sources)
    if radius <= 0.0:
        raise DomainError("disk radius must be positive")
    if any(np.hypot(*src.xy) <= radius for src in srcs):
        raise DomainError("source must lie outside the disk")

    a_p, a_s = _incident_potential_coeffs(srcs, sys, n_modes)
    m = np.arange(-n_modes, n_modes + 1)
    # u_inc + v = 0 at r = radius, per mode: the H frame of b is minus the J
    # frame of a, solved for c = b H(k radius), whose frame has entries O(m)
    k, rim = (sys.k_p, sys.k_s), np.array([radius])
    j_alpha, j_beta, _ = (tab[..., 0] for tab in _tables(_amos(specfun.bessel_j), k, n_modes, rim))
    alpha, beta, _ = (tab[..., 0] for tab in _tables(_amos(specfun.hankel1), k, n_modes, rim))
    (u_p, v_p), (u_s, v_s) = _frame(m, radius, j_alpha, j_beta)
    with np.errstate(invalid="ignore"):  # inf / inf where H_m overflows: _invert refuses it
        ratio = alpha / beta
    c_p, c_s = _invert(m, radius, ratio, np.ones_like(beta),
                       -(u_p * a_p + u_s * a_s), -(v_p * a_p + v_s * a_s))
    return DiskField(radius=radius, sys=sys, b_p=c_p / beta[0], b_s=c_s / beta[1], sources=srcs)


def oracle_gap(values, reference) -> float:
    """Largest per-source relative L2 gap between two records' (S, M, 2) values."""
    num = np.sqrt(np.sum(np.abs(values - reference) ** 2, axis=(1, 2)))
    den = np.sqrt(np.sum(np.abs(reference) ** 2, axis=(1, 2)))
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# record assembly and noise
# ---------------------------------------------------------------------------

def receiver_angles(n_receivers: int, aperture=FULL_APERTURE) -> np.ndarray:
    """Sorted receiver angles equidistributed over the (possibly wrapped) arc."""
    if problem := aperture_error(aperture):
        raise ConfigError(problem)
    lo, hi = aperture
    theta = lo + (hi - lo) * np.arange(n_receivers) / n_receivers
    return np.sort(np.mod(theta, 2.0 * np.pi))


def measure(field, rho: float, n_receivers: int, aperture=FULL_APERTURE) -> ScatterRecord:
    """Sample a solved field (``MfsSolution`` or ``DiskField``) on the
    receiver arc of radius ``rho``: one record of all its sources."""
    theta = receiver_angles(n_receivers, aperture)
    return ScatterRecord(
        rho=rho, sys=field.sys, sources=field.sources, receivers=theta,
        values=field.eval(disk(rho).point(theta)), aperture=tuple(aperture),
    )


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
    if problem := aperture_error(aperture):
        raise ConfigError(problem)
    if rho <= curve.max_radius():
        raise ConfigError("measurement radius must exceed the obstacle")
    sol = solve_mfs(curve, sources, sys, n_collocation, n_charges, shrink, warn_above)
    if residual_log is not None:
        residual_log.extend(float(r) for r in sol.residuals)
    return measure(sol, rho, n_receivers, aperture)


def ring_sources(n_sources: int, rho: float, polarization):
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
    if problem := aperture_error(aperture):
        raise ConfigError(problem)
    if radius >= rho:
        raise ConfigError("measurement radius must exceed the disk")
    return measure(disk_series(radius, sources, sys, n_modes), rho, n_receivers, aperture)


def noise_perturbation(values: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """The seeded noise term delta r1 |v| exp(i pi r2) for each complex component of v."""
    if not 0.0 <= delta < 1.0:
        raise DomainError("noise level must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    r1 = rng.uniform(-1.0, 1.0, values.shape)
    r2 = rng.uniform(-1.0, 1.0, values.shape)
    return delta * r1 * np.abs(values) * np.exp(1j * np.pi * r2)


def add_noise(rec: ScatterRecord, delta: float, seed: int) -> ScatterRecord:
    """Perturb each complex component: v + delta r1 |v| exp(i pi r2)."""
    return replace(rec, values=rec.values + noise_perturbation(rec.values, delta, seed))
