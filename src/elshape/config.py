"""Experiment configuration: flat key-value files with dotted sections.

The on-disk format is one ``key = value`` pair per line, ``#`` comments,
dotted keys for grouping:

    shape = kite
    lame.lambda = 1.0
    lame.omega = 5.0
    delta = 0.05
    truncation.mode = practical

Unknown keys, in a file or a dict, are rejected with their path, since
silent typos are the main hazard in flat config files, and so is a value
not of its key's type.  Before any solve, the config builds the owners
of three input rules and reports their refusals under its keys:
``LameSystem`` (``lame``), ``make_shape`` with the curve constructors
(``shape``, ``shape.radius``, ``shape.coeffs``) and ``choose_truncation``
(``truncation``).  It checks the rest itself: every float finite, a
nonzero polarization, at least one source, a nonnegative seed, rho >
guess radius > R > 0, delta in [0,1), epsilon > 0, degree >= 1,
r_policy.value and stop.c1 >= 0 (0 selects the auto R and the
relative-update stop), and a measurement circle that clears the truth.
"""

import math
import numbers
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
    "r_policy.value": (float, 0.0),  # expansion radius R; 0 = auto
    "max_iter": (int, 50),
    "truncation.mode": (str, "practical"),
    "truncation.n": (int, 0),
    "truncation.tau2": (float, 0.0),
    "stop.c1": (float, 0.0),  # > 0: stop once ||dc|| < c1; 0 = relative rule
    "collocation.n": (int, 64),
}

#: auto R is this fraction of the guess radius, clamped to [0.1, 0.9 guess]
R_FRACTION = 0.4

#: per-shape MFS (n_collocation, n_charges, shrink) giving comfortable
#: forward accuracy
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


def _typed(key: str, value):
    """``value`` as ``key``'s schema type: ints take integers, floats any
    real number, strs a str, and none a bool."""
    if key not in CONFIG_SCHEMA:
        raise ConfigError(f"unknown key '{key}'")
    typ, _ = CONFIG_SCHEMA[key]
    kind = {int: numbers.Integral, float: numbers.Real, str: str}[typ]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {value!r}")
    return typ(value)


@dataclass(frozen=True)
class ReconstructionConfig:
    """Validated experiment parameters; see CONFIG_SCHEMA for defaults."""

    raw: dict = field(repr=False)

    def __post_init__(self):
        merged = {k: d for k, (_, d) in CONFIG_SCHEMA.items()}
        merged.update((k, _typed(k, v)) for k, v in self.raw.items())
        object.__setattr__(self, "raw", merged)
        self._validate()

    def _validate(self):
        g = self.raw
        # a nan or inf would slip through every comparison below
        bad = [k for k, (t, _) in CONFIG_SCHEMA.items() if t is float and not math.isfinite(g[k])]
        if bad:
            raise ConfigError("; ".join(f"{k}: must be finite" for k in bad))
        # the owners check their own rules; a refusal comes back under its key
        shape_key = {"disk": "shape.radius", "custom": "shape.coeffs"}.get(g["shape"], "shape")
        delta_ok = 0.0 <= g["delta"] < 1.0  # else reported once, below, for every mode
        owners = {"lame": lambda: self.sys, shape_key: lambda: make_shape(self),
                  **({"truncation": self.resolve_truncation} if delta_ok else {})}
        built, errors = {}, []
        for key, build in owners.items():
            try:
                built[key] = build()
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
        if g["polarization.x"] == 0.0 and g["polarization.y"] == 0.0:
            errors.append("polarization.x, polarization.y: must not both be zero")
        if not delta_ok:
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
        if g["stop.c1"] < 0.0:
            errors.append("stop.c1: must be >= 0 (0 = relative-update stop)")
        if g["r_policy.value"] < 0.0:
            errors.append("r_policy.value: must be >= 0 (0 = auto)")

        R = self.resolve_R()
        if not 0.0 < R < g["guess.radius"]:
            errors.append(
                f"r_policy: resolved R={R:g} must satisfy 0 < R < guess radius"
            )
        if not g["guess.radius"] < g["rho"]:
            errors.append("guess.radius: must be smaller than rho")
        if shape_key in built and g["rho"] <= built[shape_key].max_radius():
            errors.append("rho: measurement radius must exceed the obstacle")
        if errors:
            raise ConfigError("; ".join(errors))

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
        return _MFS_BY_SHAPE[self.raw["shape"]]

    def resolve_R(self) -> float:
        """Expansion radius: ``r_policy.value`` if positive, else the auto
        rule clamped to sane bounds."""
        if self.raw["r_policy.value"] > 0.0:
            return self.raw["r_policy.value"]
        base = self.raw["guess.radius"]
        return float(np.clip(R_FRACTION * base, 0.1, 0.9 * base))

    def resolve_fit_reg(self) -> float:
        """Aperture-fit ridge: noise-free fits barely need one, noisy fits
        need a weight on the noise scale."""
        return 1e-8 if self.raw["delta"] == 0.0 else 2.0 * self.raw["delta"]

    def resolve_truncation(self) -> int:
        """N of the ``fixed`` mode, else ``choose_truncation``'s rule for the
        configured mode (which refuses an unknown mode, delta or tau2)."""
        g = self.raw
        if g["truncation.mode"] != "fixed":
            return choose_truncation(g["delta"], g["truncation.mode"], g["truncation.tau2"])
        if g["truncation.n"] < 0:
            raise ValueError("fixed truncation.n must be >= 0")
        return g["truncation.n"]

    def echo(self) -> dict:
        """Stable dict for embedding into run artifacts."""
        return dict(sorted(self.raw.items()))


def load_config(path) -> ReconstructionConfig:
    with open(path, encoding="utf-8") as fh:
        return ReconstructionConfig(parse_config_text(fh.read()))


def make_shape(cfg: ReconstructionConfig):
    """Truth curve named by the config: a ValueError for a name not in
    ``_MFS_BY_SHAPE`` or a custom radius that is not positive everywhere."""
    name = cfg["shape"]
    if name not in _MFS_BY_SHAPE:
        raise ValueError(f"unknown shape {name!r}, expected one of {', '.join(_MFS_BY_SHAPE)}")
    if name == "disk":
        return geometry.disk(cfg["shape.radius"])
    if name == "kite":
        return geometry.kite()
    if name == "starfish":
        return geometry.starfish()
    coeffs = cfg.shape_coeffs()
    curve = geometry.radial_curve(coeffs, "custom")  # odd length, finite
    if geometry.StarCurve(coeffs).min_radius() <= 0.0:
        raise ValueError("custom radius must stay positive")
    return curve


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
