"""Forward-solver-free Newton iteration for the obstacle boundary.

Candidate boundaries are star-shaped with trigonometric radial functions

    r(t) = a0 + sum_{j<=J} (a_j cos jt + b_j sin jt) = B(t) . c,
    B(t) = (1, cos t, ..., cos Jt, sin t, ..., sin Jt).

The rigid condition says the total field u = u_inc + v vanishes on the
true boundary.  With the modal approximation of v available everywhere
outside B_R, linearizing u along the radial direction at each collocation
point t_p gives, per source s,

    u(r(t_p) xhat) + d_r u(r(t_p) xhat)  B(t_p) dc  =  0,

four real equations per (s, t_p) once split into components and Re/Im.
Only u and its radial derivative du = (grad u) . xhat enter, so each
iterate makes one value + d_r pass per field.  The 4 S P equations reduce
exactly to P: with, per point,

    w_p = sum_{s,c} |du|^2,   g_p = Re sum_{s,c} conj(du) u,
    rho_p^2 = sum_{s,c} |u|^2 - g_p^2 / w_p  >= 0   (Cauchy-Schwarz),

every dc satisfies

    sum_{s,p,c} |du B(t_p) dc + u|^2
        = sum_p (sqrt(w_p) B(t_p) dc + g_p / sqrt(w_p))^2 + sum_p rho_p^2,

so the (P + 1)-row system [sqrt(w) B; 0] dc + [g / sqrt(w); sqrt(sum rho^2)]
has the full system's singular values, least-squares step and residual
norm.  One ridge-regularized least-squares solve per iteration updates the
coefficients.

Per run: the modal coefficients are extracted once, since the data live
on the measurement circle and do not depend on the iterate, and
``collocation`` builds everything that depends only on the collocation
angles t_p, the sources and the truncation order: B(t_p), the directions
xhat_p, the modal basis's cos t_p, sin t_p and e^{i n t_p} (taken from
t_p itself), and the source positions and polarizations.  Per iterate
(``assemble_system``): the radii and points; one argument buffer holding
the incident kernel's k |x_p - z_s|, then the modal tables' k r_p on the
iterate's own P radii (not deduplicated, read back through a slice) and
k R; one order-0/1 Hankel kernel pass over that buffer, whose rows each
consumer reads as views; the upward recurrence on the modal columns
only; the incident field and its radial derivative contracted with the
polarizations without forming G; the modal value and radial derivative
from one basis; and the reduction above.

Iterates must keep min_t r(t) > R; a violating step is halved up to five
times before the run is declared divergent.  The loop stops when the
relative update e_M = ||dr|| / ||r|| (L2 norms on the circle) falls below
``epsilon`` or, if ``stop.c1 > 0``, when ||dr|| falls below c1.
"""

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import elastic, modal, specfun
from .config import ReconstructionConfig
from .errors import AliasingError, ConfigError, DomainError, SingularityError, SolveError
from .forward import add_noise
from .geometry import ADMISSIBILITY_GRID, StarCurve, basis_matrix
from .modal import ModalField, extract_field
from .records import ScatterRecord

# not called here: the benchmark tracer (perfbench/spans.py) wraps these names
from .elastic import grad_incident_field, incident_field  # noqa: F401
from .modal import eval_field, eval_gradient  # noqa: F401

#: a relative update exceeding this declares the run divergent
DIVERGENCE_GUARD = 10.0

#: ridge of every Newton step, relative to the largest singular value
STEP_REG = 1e-10


def gram_weights(degree: int) -> np.ndarray:
    """Diagonal of (1/2pi) int B^T B dt: (1, 1/2, ..., 1/2)."""
    w = np.full(2 * degree + 1, 0.5)
    w[0] = 1.0
    return w


@dataclass(frozen=True)
class Collocation:
    """What every iterate of a run shares: all that depends on the
    collocation angles t_p, the sources and the truncation order, but not
    on the radii."""

    t: np.ndarray       # collocation angles t_p, (P,)
    basis: np.ndarray   # B(t_p), (P, 2 degree + 1)
    xhat: np.ndarray    # directions (cos t_p, sin t_p), (P, 2)
    angles: tuple       # modal._angles(N, t): n, cos t_p, sin t_p and e^{i n t_p}
    z: np.ndarray       # source locations, (S, 1, 2)
    p: np.ndarray       # source polarizations, (S, 1, 2)


def collocation(field: ModalField, srcs, t_grid, degree: int) -> Collocation:
    """The per-run part of ``assemble_system`` for curves of ``degree``,
    ``field``'s truncation order and the sources ``srcs`` of its rows."""
    t = np.asarray(t_grid, dtype=float)
    angles = modal._angles(field.N, t)
    return Collocation(t, basis_matrix(t, degree), np.stack(angles[1:3], axis=-1), angles,
                       *elastic._sources(srcs, 2))


def assemble_system(field: ModalField, grid: Collocation, curve: StarCurve):
    """Reduced linearization: returns (A, rhs) with ||A dc + rhs|| minimal.

    ``field`` holds one coefficient row per source of ``grid``, each with
    its own polarization, and the medium ``field.sys`` of their incident
    fields.  A is [sqrt(w) B; 0] with len(grid.t) + 1 rows and
    2*degree+1 columns; the last rhs entry carries the part of the boundary
    residual no step can reach, so ||rhs|| is the full residual ||u||.

    Only what the radii change is computed here: the points, then one
    buffer of the incident kernel's arguments k|x_p - z_s| and the modal
    tables' k r_p and k R through one order-0/1 kernel pass, the upward
    recurrence on the modal columns only, and the incident field
    contracted with the polarizations without forming G.
    """
    radii = grid.basis @ curve.coeffs
    bad = radii <= field.R
    if np.any(bad):
        raise DomainError(
            f"iterate point inside expansion disk at t={grid.t[bad][0]:.4f}"
        )
    sys, k = field.sys, (field.sys.k_p, field.sys.k_s)
    dx, dy, r = elastic._separation(radii[:, None] * grid.xhat, grid.z)
    # one argument buffer (k |x_p - z_s|, then k r_p and k R), one kernel pass, and views
    t = elastic._arguments(np.concatenate([r.reshape(-1), radii, [field.R]]), sys)
    h = specfun.hankel01(t)
    t_inc, h_inc = (a[..., : r.size].reshape(a.shape[:-1] + r.shape) for a in (t, h))
    t_mod, h_mod = t[:, r.size :], h[..., r.size :]

    u_inc, du_inc = elastic._contracted(dx, dy, r, grid.p, h_inc, t_inc, sys, grid.xhat)
    tabs = modal._tables_at(partial(specfun.hankel1_table, rows=h_mod), k, field.N, t_mod,
                            slice(radii.size), field.R, kappa=True)
    total = modal._contract(field.phat_p, field.phat_s, modal._basis_of(tabs, radii, grid.angles))
    total[..., 0, :, :] += u_inc
    total[..., 1, :, :] += du_inc
    # u and du per (source, point) as 4 reals: Re and Im of both components
    both = total.view(float).reshape(-1, 2, radii.size, 4)
    u, du = both[:, 0], both[:, 1]

    w, uu = np.einsum("spc,spc->p", du, du), np.einsum("spc,spc->p", u, u)
    # |g_p| <= sqrt(w_p uu_p): finite totals of w and uu (einsum does not warn) bound the system
    if not (np.isfinite(np.einsum("p->", w)) and np.isfinite(np.einsum("p->", uu))):
        raise SolveError("non-finite Newton system (the data overflow its squares)")
    g = np.einsum("spc,spc->p", du, u)
    sqrt_w = np.sqrt(w)
    # where du vanishes the row is zero and the point's residual is remainder
    g_scaled = np.divide(g, sqrt_w, out=np.zeros_like(g), where=w > 0.0)
    rho2 = uu - g_scaled ** 2
    a = np.concatenate([sqrt_w[:, None] * grid.basis, np.zeros((1, grid.basis.shape[1]))])
    # rho2 >= 0 holds up to round-off
    rhs = np.append(g_scaled, np.sqrt(np.sum(np.maximum(rho2, 0.0))))
    return a, rhs


def newton_step(a: np.ndarray, rhs: np.ndarray):
    """Least-squares step dc minimizing ||A dc + rhs|| with ridge STEP_REG s_max."""
    if a.shape[0] < a.shape[1]:
        raise SolveError("underdetermined Newton system")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        raise SolveError("zero Newton system")
    lam = STEP_REG * s[0]
    filt = s / (s * s + lam * lam)
    return -(vt.T @ (filt * (u.T @ rhs)))


def gram_norm(c: np.ndarray) -> float:
    """||r|| for r = B . c: the L2 norm on the circle, with the Gram weights."""
    c = np.asarray(c, dtype=float)
    return float(np.sqrt(np.sum(gram_weights((c.size - 1) // 2) * c * c)))


def relative_update(dc: np.ndarray, c: np.ndarray) -> float:
    """||dr|| / ||r|| (``gram_norm`` of each)."""
    if np.shape(dc) != np.shape(c):
        raise ValueError("coefficient vectors must have matching shape")
    den = gram_norm(c)
    if den == 0.0:
        raise DomainError("relative update undefined for a zero curve")
    return gram_norm(dc) / den


@dataclass(frozen=True)
class ReconRun:
    """Iteration history and termination state of one reconstruction."""

    curves: tuple       # StarCurve per accepted iterate, initial first
    e_history: tuple    # relative update per iteration performed
    termination: str    # converged | max_iterations | diverged | modal_failure
    config: dict        # configuration echo
    note: str = ""

    @property
    def final(self) -> StarCurve:
        return self.curves[-1]

    @property
    def iterations(self) -> int:
        return len(self.e_history)

    def to_json_dict(self) -> dict:
        return {
            "termination": self.termination,
            "iterations": self.iterations,
            "e_history": list(self.e_history),
            "coefficients": [list(c.coeffs) for c in self.curves],
            "config": self.config,
            "note": self.note,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def reconstruct(rec: ScatterRecord, cfg: ReconstructionConfig) -> ReconRun:
    """Run the full iteration on a clean record.

    The record's rho and medium must match the config's (ConfigError
    naming each field that differs).  Noise at the configured level is
    applied here (seeded), so a run is a pure function of (record, config).
    Modal coefficients are extracted exactly once; the loop alternates
    assembly, a step with an admissibility backtrack, and the stopping
    test.
    """
    diffs = cfg.mismatches([
        ("rho", rec.rho), ("lame.lambda", rec.sys.lam), ("lame.mu", rec.sys.mu),
        ("lame.omega", rec.sys.omega),
    ])
    if diffs:
        raise ConfigError("record/config physics mismatch: " + "; ".join(diffs))
    if cfg.delta_active and rec.n_sources:
        rec = add_noise(rec, cfg["delta"], cfg["seed"])

    guess = StarCurve.circle(cfg["guess.radius"], cfg["np"])
    R = cfg.resolve_R()
    N = cfg.resolve_truncation()
    curves = [guess]
    e_hist = []

    def finish(termination: str, note: str = "") -> ReconRun:
        return ReconRun(tuple(curves), tuple(e_hist), termination, cfg.echo(), note)

    try:
        field = extract_field(rec, N, R, cfg.resolve_fit_reg())
    except (SolveError, ConfigError, DomainError, AliasingError) as exc:
        return finish("modal_failure", str(exc))

    t_grid = np.linspace(0.0, 2.0 * np.pi, cfg["collocation.n"], endpoint=False)
    grid = collocation(field, rec.sources, t_grid, guess.degree)
    # StarCurve.min_radius's grid, its basis built once for every candidate
    t_admit = np.linspace(0.0, 2.0 * np.pi, ADMISSIBILITY_GRID, endpoint=False)
    admissibility = basis_matrix(t_admit, guess.degree)
    current = guess
    c1 = cfg["stop.c1"]
    for _ in range(cfg["max_iter"]):
        try:
            a, rhs = assemble_system(field, grid, current)
            dc = newton_step(a, rhs)
        except (SolveError, DomainError, SingularityError) as exc:
            return finish("diverged", str(exc))

        for _ in range(6):
            candidate = StarCurve(current.coeffs + dc)
            if np.min(admissibility @ candidate.coeffs) > R:
                break
            dc = 0.5 * dc
        else:
            return finish("diverged")

        e_m = relative_update(dc, current.coeffs)
        current = candidate
        curves.append(current)
        e_hist.append(e_m)
        if e_m > DIVERGENCE_GUARD:
            return finish("diverged")
        if (gram_norm(dc) < c1) if c1 > 0.0 else (e_m < cfg["epsilon"]):
            return finish("converged")
    return finish("max_iterations")
