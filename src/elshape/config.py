"""Experiment configuration: flat key-value files with dotted sections.

The on-disk format is one ``key = value`` pair per line, ``#`` comments,
dotted keys for grouping:

    shape = kite
    lame.lambda = 1.0
    lame.omega = 5.0
    delta = 0.05
    truncation.mode = practical

Unknown keys are rejected with their path, since silent typos are the
main hazard in flat config files.  Numeric invariants are enforced at
build time (every float finite, a nonzero polarization, at least one
source, a nonnegative seed, a truth radius that stays positive,
rho > guess radius > R > 0, delta in [0,1), epsilon > 0, degree >= 1),
and then a measurement circle that clears the truth, before any solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .elastic import POLARIZATION, LameSystem
from .errors import ConfigError
from .forward import MfsSolution, measure, ring_sources, solve_mfs
from .modal import choose_truncation
from .records import ScatterRecord, aperture_error

#: key -> (python type, default)
CONFIG_SCHEMA = {
    "shape": (str, "kite"),
    "shape.radius": (float, 1.0),
    "shape.coeffs": (str, ""),
    "lame.lambda": (float, 1.0),
    "lame.mu": (float, 1.0),
    "lame.omega": (float, 5.0),
    "polarization.x": (float, POLARIZATION[0]),
    "polarization.y": (float, POLARIZATION[1]),
    "rho": (float, 3.0),
    "n_receivers": (int, 128),
    "n_sources": (int, 20),
    "aperture.lo": (float, 0.0),
    "aperture.hi": (float, 2.0 * math.pi),
    "delta": (float, 0.05),
    "seed": (int, 1),
    "epsilon": (float, 1e-4),
    "np": (int, 8),
    "guess.radius": (float, 1.5),
    "r_policy.mode": (str, "auto"),
    "r_policy.fraction": (float, 0.4),
    "r_policy.value": (float, 0.0),
    "max_iter": (int, 50),
    "damping": (float, 1.0),
    "reg": (float, 1e-10),
    "fit_reg": (float, -1.0),  # -1 = auto: 1e-8 noise-free, 2*delta otherwise
    "truncation.mode": (str, "practical"),
    "truncation.n": (int, 0),
    "truncation.tau2": (float, 0.0),
    "stop.rule": (str, "relative"),
    "stop.c1": (float, 0.0),
    "collocation.n": (int, 64),
    "mfs.n_collocation": (int, 0),
    "mfs.n_charges": (int, 0),
    "mfs.shrink": (float, 0.0),
}

#: per-shape MFS resolution giving comfortable forward accuracy; zeros in
#: the config mean "use these"
_MFS_BY_SHAPE = {
    "disk": (128, 64, 0.6),
    "kite": (512, 256, 0.92),
    "starfish": (384, 192, 0.85),
    "custom": (256, 128, 0.8),
}


def parse_config_text(text: str, schema: dict = CONFIG_SCHEMA) -> dict:
    """Parse the flat key-value format; values typed per ``schema``."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip().strip('"')
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        typ, _ = schema[key]
        try:
            values[key] = typ(val) if typ is not str else val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {exc}") from None
    return values


@dataclass(frozen=True)
class ReconstructionConfig:
    """Validated experiment parameters; see CONFIG_SCHEMA for defaults."""

    raw: dict = field(repr=False)

    def __post_init__(self):
        merged = {k: d for k, (_, d) in CONFIG_SCHEMA.items()}
        merged.update(self.raw)
        object.__setattr__(self, "raw", merged)
        self._validate()

    def _validate(self):
        g = self.raw
        # a nan or inf would slip through every comparison below
        bad = [k for k, (t, _) in CONFIG_SCHEMA.items() if t is float and not math.isfinite(g[k])]
        if bad:
            raise ConfigError("; ".join(f"{k}: must be finite" for k in bad))
        errors = []
        if g["shape"] not in ("disk", "kite", "starfish", "custom"):
            errors.append(f"shape: unknown shape '{g['shape']}'")
        if g["shape"] == "disk" and g["shape.radius"] <= 0.0:
            errors.append("shape.radius: must be positive")
        if g["shape"] == "custom":
            try:
                c = self.shape_coeffs()
                if c.size % 2 == 0:
                    errors.append("shape.coeffs: need odd number of coefficients")
                elif not np.all(np.isfinite(c)):
                    errors.append("shape.coeffs: must be finite")
                elif geometry.StarCurve(c).min_radius() <= 0.0:
                    errors.append("shape.coeffs: radius must stay positive")
            except ValueError:
                errors.append("shape.coeffs: expected comma-separated floats")
        if g["lame.mu"] <= 0.0 or g["lame.lambda"] + g["lame.mu"] <= 0.0:
            errors.append("lame: need mu > 0 and lambda + mu > 0")
        if g["lame.omega"] <= 0.0:
            errors.append("lame.omega: must be positive")
        if g["polarization.x"] == 0.0 and g["polarization.y"] == 0.0:
            errors.append("polarization.x, polarization.y: must not both be zero")
        if not 0.0 <= g["delta"] < 1.0:
            errors.append("delta: must lie in [0, 1)")
        if g["epsilon"] <= 0.0:
            errors.append("epsilon: must be positive")
        if g["np"] < 1:
            errors.append("np: trigonometric degree must be >= 1")
        if g["collocation.n"] < 2 * g["np"] + 1:
            # fewer points alias the boundary basis (sin(np t) vanishes on a
            # 2 np grid), leaving a coefficient the data cannot fix
            errors.append(
                f"collocation.n: need >= 2 np + 1 = {2 * g['np'] + 1} points"
            )
        if g["n_receivers"] < 4:
            errors.append("n_receivers: must be >= 4")
        if g["n_sources"] < 1:
            errors.append("n_sources: must be >= 1")
        if g["seed"] < 0:
            errors.append("seed: must be >= 0")
        if problem := aperture_error(self.aperture):
            errors.append(problem)
        if g["max_iter"] < 0:
            errors.append("max_iter: must be >= 0")
        if not 0.0 < g["damping"] <= 1.0:
            errors.append("damping: must lie in (0, 1]")
        if g["reg"] < 0.0:
            errors.append("reg: must be nonnegative")
        if g["fit_reg"] < 0.0 and g["fit_reg"] != -1.0:
            errors.append("fit_reg: must be nonnegative (or -1 for auto)")
        if g["truncation.mode"] not in ("practical", "theoretical", "fixed"):
            errors.append("truncation.mode: expected practical|theoretical|fixed")
        if g["truncation.mode"] == "fixed" and g["truncation.n"] < 0:
            errors.append("truncation.n: must be >= 0")
        if g["truncation.mode"] != "fixed" and not 0.0 < g["delta"] < 1.0:
            errors.append("truncation: practical/theoretical modes need delta in (0,1)")
        if g["truncation.mode"] == "theoretical" and g["truncation.tau2"] <= 1.0:
            errors.append("truncation.tau2: theoretical rule needs tau2 > 1")
        if g["stop.rule"] not in ("relative", "theoretical"):
            errors.append("stop.rule: expected relative|theoretical")
        if g["stop.rule"] == "theoretical" and g["stop.c1"] <= 0.0:
            errors.append("stop.c1: theoretical stop needs a positive constant")
        if g["r_policy.mode"] not in ("auto", "fixed"):
            errors.append("r_policy.mode: expected auto|fixed")

        R = self.resolve_R()
        if not 0.0 < R < g["guess.radius"]:
            errors.append(
                f"r_policy: resolved R={R:g} must satisfy 0 < R < guess radius"
            )
        if not g["guess.radius"] < g["rho"]:
            errors.append("guess.radius: must be smaller than rho")
        if errors:
            raise ConfigError("; ".join(errors))
        if g["rho"] <= make_shape(self).max_radius():
            raise ConfigError("rho: measurement radius must exceed the obstacle")

    # -- typed accessors ---------------------------------------------------

    def __getitem__(self, key):
        return self.raw[key]

    def mismatches(self, recorded) -> list:
        """One "key: record a vs config b" line per (key, a) in ``recorded``
        whose a differs from the configured b by more than 1e-12."""
        return [
            f"{key}: record {got!r} vs config {self.raw[key]!r}"
            for key, got in recorded if abs(got - self.raw[key]) > 1e-12
        ]

    @property
    def sys(self) -> LameSystem:
        return LameSystem(self.raw["lame.lambda"], self.raw["lame.mu"], self.raw["lame.omega"])

    @property
    def delta_active(self) -> bool:
        return self.raw["delta"] > 0.0

    @property
    def polarization(self):
        return (self.raw["polarization.x"], self.raw["polarization.y"])

    @property
    def aperture(self):
        return (self.raw["aperture.lo"], self.raw["aperture.hi"])

    def shape_coeffs(self) -> np.ndarray:
        return np.array(
            [float(v) for v in self.raw["shape.coeffs"].split(",") if v.strip() != ""]
        )

    def mfs_params(self):
        n_col = self.raw["mfs.n_collocation"]
        n_chg = self.raw["mfs.n_charges"]
        shrink = self.raw["mfs.shrink"]
        by_shape = _MFS_BY_SHAPE[self.raw["shape"]]
        return (
            n_col if n_col > 0 else by_shape[0],
            n_chg if n_chg > 0 else by_shape[1],
            shrink if shrink > 0.0 else by_shape[2],
        )

    def resolve_R(self) -> float:
        """Expansion radius from the policy; auto mode clamps to sane bounds."""
        g = self.raw
        if g["r_policy.mode"] == "fixed":
            return g["r_policy.value"]
        base = g["guess.radius"]
        return float(np.clip(g["r_policy.fraction"] * base, 0.1, 0.9 * base))

    def resolve_fit_reg(self) -> float:
        """Aperture-fit ridge: noise-free fits barely need one, noisy fits
        need a weight on the noise scale."""
        v = self.raw["fit_reg"]
        if v >= 0.0:
            return v
        return 1e-8 if self.raw["delta"] == 0.0 else 2.0 * self.raw["delta"]

    def resolve_truncation(self) -> int:
        g = self.raw
        mode = g["truncation.mode"]
        if mode == "fixed":
            return g["truncation.n"]
        if mode == "theoretical":
            return choose_truncation(g["delta"], "theoretical", g["truncation.tau2"])
        return choose_truncation(g["delta"], "practical")

    def echo(self) -> dict:
        """Stable dict for embedding into run artifacts."""
        return dict(sorted(self.raw.items()))


def load_config(path) -> ReconstructionConfig:
    with open(path) as fh:
        return ReconstructionConfig(parse_config_text(fh.read()))


def make_shape(cfg: ReconstructionConfig):
    """Truth curve named by the config."""
    name = cfg["shape"]
    if name == "disk":
        return geometry.disk(cfg["shape.radius"])
    if name == "kite":
        return geometry.kite()
    if name == "starfish":
        return geometry.starfish()
    return geometry.radial_curve(cfg.shape_coeffs(), "custom")


def solve_truth(cfg: ReconstructionConfig) -> MfsSolution:
    """The configured truth solved for a ring of ``n_sources`` on the
    measurement circle at the shape's MFS resolution (``mfs_params``); the
    per-source residuals stay in ``residuals``, not in a warning."""
    n_col, n_chg, shrink = cfg.mfs_params()
    return solve_mfs(
        make_shape(cfg), ring_sources(cfg["n_sources"], cfg["rho"], cfg.polarization),
        cfg.sys, n_col, n_chg, shrink, warn_above=None,
    )


def make_record(cfg: ReconstructionConfig, field) -> ScatterRecord:
    """Clean data of a solved field (``solve_truth``, ``disk_series``) on
    the configured receiver arc."""
    return measure(field, cfg["rho"], cfg["n_receivers"], cfg.aperture)
