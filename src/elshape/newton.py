"""Forward-solver-free Newton iteration for the obstacle boundary.

Candidate boundaries are star-shaped with trigonometric radial functions

    r(t) = a0 + sum_{j<=J} (a_j cos jt + b_j sin jt) = B(t) . c,
    B(t) = (1, cos t, ..., cos Jt, sin t, ..., sin Jt).

The rigid condition says the total field u = u_inc + v vanishes on the
true boundary.  With the modal approximation of v available everywhere
outside B_R, linearizing u along the radial direction at each collocation
point gives, per source s and angle t,

    u(r(t) xhat) + [ (grad u)(r(t) xhat) . xhat ]  B(t) dc  =  0,

four real equations per (s, t) once split into components and Re/Im.  One
damped least-squares solve per iteration updates the coefficients; modal
coefficients are extracted once per run since the data live on the
measurement circle and do not depend on the iterate.

Iterates must keep min_t r(t) > R; a violating step is halved up to five
times before the run is declared divergent.  The loop stops when the
relative update e_M = ||dr|| / ||r|| (L2 norms on the circle) falls below
the configured tolerance.
"""

import json
from dataclasses import dataclass

import numpy as np

from .config import ReconstructionConfig
from .elastic import LameSystem, PointSource, grad_incident_field, incident_field
from .errors import AliasingError, ConfigError, DomainError, SolveError
from .forward import add_noise
from .geometry import ParametricCurve, radial_curve
from .modal import ModalField, eval_field, eval_gradient, extract_field
from .records import ScatterRecord

#: a relative update exceeding this declares the run divergent
DIVERGENCE_GUARD = 10.0
#: grid used for the iterate admissibility check
ADMISSIBILITY_GRID = 256


@dataclass(frozen=True)
class StarCurve:
    """Trigonometric radial boundary r(t) = B(t) . coeffs."""

    coeffs: np.ndarray  # (2*degree + 1,) ordered (a0, a_1.., b_1..)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficient vector must be 1-d with odd length")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def circle(cls, radius: float, degree: int) -> "StarCurve":
        c = np.zeros(2 * degree + 1)
        c[0] = radius
        return cls(c)

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    def radius(self, t) -> np.ndarray:
        return basis_matrix(np.asarray(t, dtype=float), self.degree) @ self.coeffs

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        r = self.radius(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def min_radius(self, n: int = ADMISSIBILITY_GRID) -> float:
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return float(np.min(self.radius(t)))

    def as_curve(self) -> ParametricCurve:
        return radial_curve(self.coeffs, "star")


def basis_row(t: float, degree: int) -> np.ndarray:
    """(1, cos t, ..., cos Jt, sin t, ..., sin Jt) of length 2J+1."""
    return basis_matrix(np.atleast_1d(np.asarray(t, dtype=float)), degree)[0]


def basis_matrix(t: np.ndarray, degree: int) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j = np.arange(1, degree + 1)
    ones = np.ones((t.size, 1))
    return np.concatenate(
        [ones, np.cos(t[:, None] * j), np.sin(t[:, None] * j)], axis=1
    )


def gram_weights(degree: int) -> np.ndarray:
    """Diagonal of (1/2pi) int B^T B dt: (1, 1/2, ..., 1/2)."""
    w = np.full(2 * degree + 1, 0.5)
    w[0] = 1.0
    return w


def assemble_system(
    field: ModalField,
    srcs,
    curve: StarCurve,
    t_grid: np.ndarray,
    sys: LameSystem,
):
    """Stacked real linearization: returns (A, rhs) with A dc + rhs = 0 rows.

    ``field`` holds one coefficient row per source in ``srcs``, which share
    one polarization.  Rows run over sources, collocation angles, field
    components and Re/Im, so A has 4 * len(srcs) * len(t_grid) rows and
    2*degree+1 columns.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    radii = curve.radius(t_grid)
    bad = radii <= field.R
    if np.any(bad):
        raise DomainError(
            f"iterate point inside expansion disk at t={t_grid[bad][0]:.4f}"
        )
    pts = curve.point(t_grid)
    xhat = np.stack([np.cos(t_grid), np.sin(t_grid)], axis=-1)
    basis = basis_matrix(t_grid, curve.degree)

    # the incident field depends on x - z only, so all sources are evaluated
    # at once as one source at the origin seen from the points shifted by
    # -z, an (S, P, 2) array
    shifted = pts - np.array([src.location for src in srcs])[:, None, :]
    origin = PointSource((0.0, 0.0), _shared_polarization(srcs))
    u = eval_field(field, pts) + incident_field(shifted, origin, sys)
    jac = eval_gradient(field, pts) + grad_incident_field(shifted, origin, sys)
    du = np.einsum("spij,pj->spi", jac, xhat)
    # complex rows: du[s, p, c] * B[p, :] dc = -u[s, p, c]
    a_c = (du[..., None] * basis[:, None, :]).reshape(-1, basis.shape[1])
    r_c = u.reshape(-1)
    a = np.concatenate([a_c.real, a_c.imag], axis=0)
    rhs = np.concatenate([r_c.real, r_c.imag], axis=0)
    return a, rhs


def _shared_polarization(srcs) -> tuple:
    pols = {src.polarization for src in srcs}
    if len(pols) != 1:
        raise ConfigError("sources must share one polarization")
    return pols.pop()


def newton_step(a: np.ndarray, rhs: np.ndarray, damping: float = 1.0, reg: float = 0.0):
    """Damped least-squares step dc minimizing ||A dc + rhs|| (+ ridge)."""
    if not 0.0 < damping <= 1.0:
        raise ConfigError("damping must lie in (0, 1]")
    if reg < 0.0:
        raise ConfigError("reg must be nonnegative")
    if a.shape[0] < a.shape[1]:
        raise SolveError("underdetermined Newton system")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        raise SolveError("zero Newton system")
    if reg == 0.0:
        rank = int(np.sum(s > s[0] * 1e-14))
        if rank < a.shape[1]:
            raise SolveError("singular Newton normal system (reg = 0)")
        filt = 1.0 / s
    else:
        lam = reg * s[0]
        filt = s / (s * s + lam * lam)
    return -damping * (vt.T @ (filt * (u.T @ rhs)))


def relative_update(dc: np.ndarray, c: np.ndarray) -> float:
    """||dr|| / ||r|| with the trigonometric Gram weights (L2 on the circle)."""
    dc = np.asarray(dc, dtype=float)
    c = np.asarray(c, dtype=float)
    if dc.shape != c.shape:
        raise ValueError("coefficient vectors must have matching shape")
    w = gram_weights((c.size - 1) // 2)
    den = float(np.sqrt(np.sum(w * c * c)))
    if den == 0.0:
        raise DomainError("relative update undefined for a zero curve")
    return float(np.sqrt(np.sum(w * dc * dc))) / den


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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReconRun":
        return cls(
            curves=tuple(StarCurve(np.array(c)) for c in doc["coefficients"]),
            e_history=tuple(doc["e_history"]),
            termination=doc["termination"],
            config=doc["config"],
            note=doc.get("note", ""),
        )


def reconstruct(rec: ScatterRecord, cfg: ReconstructionConfig) -> ReconRun:
    """Run the full iteration on a clean record.

    Noise at the configured level is applied here (seeded), so a run is a
    pure function of (record, config).  Modal coefficients are extracted
    exactly once; the loop alternates assembly, a damped step with an
    admissibility backtrack, and the relative-update stopping test.
    """
    if abs(rec.rho - cfg["rho"]) > 1e-12:
        raise ConfigError(f"record rho {rec.rho} != config rho {cfg['rho']}")
    if cfg.delta_active and rec.n_sources:
        rec = add_noise(rec, cfg["delta"], cfg["seed"])

    guess = StarCurve.circle(cfg["guess.radius"], cfg["np"])
    R = cfg.resolve_R(guess.min_radius())
    if guess.min_radius() <= R:
        raise ConfigError("initial guess must strictly contain the expansion disk")
    N = cfg.resolve_truncation()

    echo = cfg.echo()
    try:
        field = extract_field(rec, N, R, cfg.resolve_fit_reg())
    except (SolveError, ConfigError, DomainError, AliasingError) as exc:
        return ReconRun(
            curves=(guess,),
            e_history=(),
            termination="modal_failure",
            config=echo,
            note=str(exc),
        )

    t_grid = np.linspace(0.0, 2.0 * np.pi, cfg["collocation.n"], endpoint=False)
    curves = [guess]
    e_hist = []
    termination = "max_iterations"
    current = guess

    for _ in range(cfg["max_iter"]):
        try:
            a, rhs = assemble_system(field, rec.sources, current, t_grid, cfg.sys)
            dc = newton_step(a, rhs, cfg["damping"], cfg["reg"])
        except (SolveError, DomainError) as exc:
            return ReconRun(
                curves=tuple(curves),
                e_history=tuple(e_hist),
                termination="diverged",
                config=echo,
                note=str(exc),
            )

        candidate = StarCurve(current.coeffs + dc)
        tries = 0
        while candidate.min_radius() <= R and tries < 5:
            dc = 0.5 * dc
            candidate = StarCurve(current.coeffs + dc)
            tries += 1
        if candidate.min_radius() <= R:
            termination = "diverged"
            break

        e_m = relative_update(dc, current.coeffs)
        current = candidate
        curves.append(current)
        e_hist.append(e_m)
        if e_m > DIVERGENCE_GUARD:
            termination = "diverged"
            break
        if _stopped(cfg, dc, e_m):
            termination = "converged"
            break

    return ReconRun(
        curves=tuple(curves),
        e_history=tuple(e_hist),
        termination=termination,
        config=echo,
    )


def _stopped(cfg: ReconstructionConfig, dc: np.ndarray, e_m: float) -> bool:
    if cfg["stop.rule"] == "theoretical":
        w = gram_weights((dc.size - 1) // 2)
        return float(np.sqrt(np.sum(w * dc * dc))) < cfg["stop.c1"]
    return e_m < cfg["epsilon"]
