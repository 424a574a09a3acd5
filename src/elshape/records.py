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


@dataclass(frozen=True)
class ScatterRecord:
    """Scattered-field samples: ``values[i, j]`` is sources[i] at receivers[j]."""

    rho: float
    sys: LameSystem
    sources: tuple          # of PointSource, all sharing one polarization
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
        if rec.size and (np.any(rec < 0.0) or np.any(rec >= 2.0 * np.pi)):
            raise ConfigError("receiver angles must lie in [0, 2*pi)")
        if rec.size and np.any(np.diff(rec) <= 0.0):
            raise ConfigError("receiver angles must be strictly increasing")
        lo, hi = self.aperture
        if not (hi > lo and hi - lo <= 2.0 * np.pi + 1e-12):
            raise ConfigError("aperture must satisfy lo < hi <= lo + 2*pi")
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
        return bool(hi - lo >= 2.0 * np.pi - 1e-12)

    def polarization(self) -> np.ndarray:
        pols = {s.polarization for s in self.sources}
        if len(pols) > 1:
            raise ValueError("record sources carry mixed polarizations")
        return np.array(pols.pop()) if pols else np.array([1.0, 0.0])

    def to_json_dict(self) -> dict:
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
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScatterRecord":
        """Record from its JSON layout; a malformed document raises ConfigError."""
        try:
            sys = LameSystem(doc["lame"]["lambda"], doc["lame"]["mu"], doc["lame"]["omega"])
            pol = tuple(doc["polarization"])
            sources = tuple(
                PointSource((s["x"], s["y"]), pol) for s in doc["sources"]
            )
            raw = np.asarray(doc["values"], dtype=float)
            if raw.size:
                values = raw[..., 0::2] + 1j * raw[..., 1::2]
            else:
                values = np.zeros((len(sources), len(doc["receivers"]), 2), dtype=complex)
            return cls(
                rho=doc["rho"],
                sys=sys,
                sources=sources,
                receivers=np.asarray(doc["receivers"], dtype=float),
                values=values,
                aperture=tuple(doc["aperture"]),
            )
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"record is missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed record: {exc}") from None

    @classmethod
    def load(cls, path) -> "ScatterRecord":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))
