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
coefficients; modal coefficients are extracted once per run since the data
live on the measurement circle and do not depend on the iterate.

Iterates must keep min_t r(t) > R; a violating step is halved up to five
times before the run is declared divergent.  The loop stops when the
relative update e_M = ||dr|| / ||r|| (L2 norms on the circle) falls below
``epsilon`` or, if ``stop.c1 > 0``, when ||dr|| falls below c1.
"""

import json
from dataclasses import dataclass

import numpy as np

from .config import ReconstructionConfig
from .elastic import incident_field
from .errors import AliasingError, ConfigError, DomainError, SolveError
from .forward import add_noise
from .geometry import ADMISSIBILITY_GRID, StarCurve, basis_matrix
from .modal import ModalField, eval_radial, extract_field
from .records import ScatterRecord

# not called here: the benchmark tracer (perfbench/spans.py) wraps these names
from .elastic import grad_incident_field  # noqa: F401
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


def assemble_system(field: ModalField, srcs, curve: StarCurve, t_grid: np.ndarray):
    """Reduced linearization: returns (A, rhs) with ||A dc + rhs|| minimal.

    ``field`` holds one coefficient row per source in ``srcs``, each with
    its own polarization, and the medium ``field.sys`` of their incident
    fields.  A is [sqrt(w) B; 0] with len(t_grid) + 1 rows and
    2*degree+1 columns; the last rhs entry carries the part of the boundary
    residual no step can reach, so ||rhs|| is the full residual ||u||.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    basis = basis_matrix(t_grid, curve.degree)
    radii = basis @ curve.coeffs
    bad = radii <= field.R
    if np.any(bad):
        raise DomainError(
            f"iterate point inside expansion disk at t={t_grid[bad][0]:.4f}"
        )
    xhat = np.stack([np.cos(t_grid), np.sin(t_grid)], axis=-1)
    pts = radii[:, None] * xhat

    v, dv = eval_radial(field, pts)
    u_inc, du_inc = incident_field(pts, srcs, field.sys, xhat)
    u, du = v + u_inc, dv + du_inc

    w = np.sum(du.real ** 2 + du.imag ** 2, axis=(0, 2))
    g = np.sum(du.real * u.real + du.imag * u.imag, axis=(0, 2))
    sqrt_w = np.sqrt(w)
    # where du vanishes the row is zero and the point's residual is remainder
    g_scaled = np.divide(g, sqrt_w, out=np.zeros_like(g), where=w > 0.0)
    rho2 = np.sum(u.real ** 2 + u.imag ** 2, axis=(0, 2)) - g_scaled ** 2
    a = np.concatenate([sqrt_w[:, None] * basis, np.zeros((1, basis.shape[1]))])
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
    # StarCurve.min_radius's grid, its basis built once for every candidate
    t_admit = np.linspace(0.0, 2.0 * np.pi, ADMISSIBILITY_GRID, endpoint=False)
    admissibility = basis_matrix(t_admit, guess.degree)
    current = guess
    c1 = cfg["stop.c1"]
    for _ in range(cfg["max_iter"]):
        try:
            a, rhs = assemble_system(field, rec.sources, current, t_grid)
            dc = newton_step(a, rhs)
        except (SolveError, DomainError) as exc:
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
