"""Measurement records: multi-source near-field data on a circle arc.

A record stores, for each point source on (or outside) the measurement
circle of radius rho, the scattered displacement at every receiver angle.
The JSON layout is fixed so records can be exchanged with other tools:

    {"rho": ..., "lame": {"lambda":..., "mu":..., "omega":...},
     "polarization": [p1, p2], "sources": [{"x":..., "y":...}, ...],
     "receivers": [theta, ...], "aperture": [lo, hi],
     "values": [[[re1, im1, re2, im2], ... per receiver], ... per source]}

Floats are written with Python's shortest round-trip repr, which is exact
to the full 17 significant digits of an IEEE double.
"""

import json
from dataclasses import dataclass

import numpy as np

from .elastic import LameSystem, PointSource
from .errors import ConfigError

FULL_APERTURE = (0.0, 2.0 * np.pi)
#: slack on the span bound hi - lo <= 2*pi, for spans computed in floating point
SPAN_TOL = 1e-12


def aperture_error(aperture) -> str:
    """Why (lo, hi) is not a receiver arc lo < hi <= lo + 2*pi; "" if it is."""
    lo, hi = aperture
    if not hi > lo:
        return "aperture: need lo < hi"
    if hi - lo > 2.0 * np.pi + SPAN_TOL:
        return "aperture: span cannot exceed 2*pi"
    return ""


def _number(value, key: str):
    """value if it is a JSON number; a boolean or other value raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, not {value!r}")
    return value


def _numbers(value, key: str) -> np.ndarray:
    """value as a float array if every entry, at any depth, passes ``_number``."""
    flat = [value]
    for item in flat:  # the lists' items are appended as the walk reaches them
        if type(item) is list:
            flat.extend(item)
        elif type(item) is not float:  # the common case skips the call
            _number(item, key)
    return np.asarray(value, dtype=float)


def _emptiness_error(n_sources: int, n_receivers: int) -> str:
    """Why a record of this size cannot be stored; "" if it can."""
    if not n_sources:
        return "record has no sources"
    if not n_receivers:
        return "record has no receivers"
    return ""


@dataclass(frozen=True)
class ScatterRecord:
    """Scattered-field samples: ``values[i, j]`` is sources[i] at receivers[j]."""

    rho: float
    sys: LameSystem
    sources: tuple          # of PointSource; a saved record needs one shared polarization
    receivers: np.ndarray   # sorted angles in [0, 2*pi), shape (M,)
    values: np.ndarray      # complex, shape (n_sources, M, 2)
    aperture: tuple         # (lo, hi), hi - lo <= 2*pi, hi may exceed 2*pi

    def __post_init__(self):
        rec = np.asarray(self.receivers, dtype=float)
        val = np.asarray(self.values, dtype=complex)
        if val.shape != (len(self.sources), rec.size, 2):
            raise ConfigError(
                f"values shape {val.shape} does not match "
                f"{len(self.sources)} sources x {rec.size} receivers"
            )
        if not (np.isfinite(self.rho) and np.all(np.isfinite(rec)) and np.all(np.isfinite(val))):
            raise ConfigError("rho, receivers and values must be finite")
        if not self.rho > 0.0:
            raise ConfigError("rho must be positive")
        if rec.size and (np.any(rec < 0.0) or np.any(rec >= 2.0 * np.pi)):
            raise ConfigError("receiver angles must lie in [0, 2*pi)")
        if rec.size and np.any(np.diff(rec) <= 0.0):
            raise ConfigError("receiver angles must be strictly increasing")
        if problem := aperture_error(self.aperture):
            raise ConfigError(problem)
        object.__setattr__(self, "receivers", rec)
        object.__setattr__(self, "values", val)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_receivers(self) -> int:
        return self.receivers.size

    @property
    def is_full_aperture(self) -> bool:
        lo, hi = self.aperture
        return bool(hi - lo >= 2.0 * np.pi - SPAN_TOL)

    def polarization(self) -> np.ndarray:
        """The sources' shared polarization; ConfigError if they have none or several."""
        pols = {s.polarization for s in self.sources}
        if len(pols) != 1:
            raise ConfigError(f"record sources carry {len(pols)} polarizations, need one")
        return np.array(pols.pop())

    def to_json_dict(self) -> dict:
        """The JSON layout; a record ``from_json_dict`` would refuse raises ConfigError."""
        if problem := _emptiness_error(self.n_sources, self.n_receivers):
            raise ConfigError(problem)
        pol = self.polarization()
        return {
            "rho": self.rho,
            "lame": {"lambda": self.sys.lam, "mu": self.sys.mu, "omega": self.sys.omega},
            "polarization": [float(pol[0]), float(pol[1])],
            "sources": [{"x": s.location[0], "y": s.location[1]} for s in self.sources],
            "receivers": [float(t) for t in self.receivers],
            "aperture": [float(self.aperture[0]), float(self.aperture[1])],
            "values": [
                [
                    [v[0].real, v[0].imag, v[1].real, v[1].imag]
                    for v in per_source
                ]
                for per_source in self.values
            ],
        }

    def save(self, path) -> None:
        doc = self.to_json_dict()
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScatterRecord":
        """Record from its JSON layout; a malformed document raises ConfigError."""
        try:
            sys = LameSystem(*(_number(doc["lame"][k], k) for k in ("lambda", "mu", "omega")))
            pol = tuple(_numbers(doc["polarization"], "polarization"))
            sources = tuple(
                PointSource(_numbers([s["x"], s["y"]], "sources"), pol) for s in doc["sources"]
            )
            receivers = _numbers(doc["receivers"], "receivers")
            if receivers.ndim != 1:
                raise ConfigError("receivers must be a flat list of angles")
            if problem := _emptiness_error(len(sources), receivers.size):
                raise ConfigError(problem)
            raw = _numbers(doc["values"], "values")
            if raw.ndim != 3 or raw.shape[2] != 4:
                raise ConfigError("each values entry must hold 4 numbers [re1, im1, re2, im2]")
            return cls(
                rho=_number(doc["rho"], "rho"),
                sys=sys,
                sources=sources,
                receivers=receivers,
                values=raw.view(complex),  # no arithmetic, so an inf stays for the check
                aperture=tuple(_numbers(doc["aperture"], "aperture")),
            )
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"record is missing key {exc}") from None
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"malformed record: {exc}") from None

    @classmethod
    def load(cls, path) -> "ScatterRecord":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
