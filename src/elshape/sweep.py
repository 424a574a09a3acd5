"""Aperture x noise sweeps with per-cell boundary errors.

A sweep file is an ordinary experiment config plus three list-valued keys:

    sweep.apertures = 0:6.283185307179586; 0.785398:5.497787
    sweep.deltas = 0.01, 0.05, 0.1
    sweep.seeds = 1, 2, 3, 4, 5

Errors follow the config grammar (line numbers, a repeated key refused);
a malformed, non-finite, repeated or negative list entry, and an aperture
or delta that the owner of its rule refuses (``records.aperture_error``,
``config.delta_error``, by ``choose_truncation`` unless the truncation is
fixed), is a ConfigError naming its key, raised when the file is parsed.
Without its three lists the file must be a valid, solvable experiment:
neither the aperture nor the noise changes the truth's MFS solution, so
the sweep solves it once, before any cell, and an invalid or unsolvable
base stops the whole sweep with that error.  Each (aperture, delta) cell
measures the shared solution on its arc, reconstructs once per seed and
reports the median boundary error against the configured truth (radial
L2 for star-shaped truths, symmetric Hausdorff otherwise).  A cell that
fails with a package error (bad configuration, domain, singularity,
aliasing or solve failure) is recorded in the output row and the sweep
continues; any other exception propagates.  Cells are independent, so
they can run in a process pool.
"""

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import (
    CONFIG_SCHEMA, ReconstructionConfig, delta_error, make_record, make_shape, parse_config_text,
    solve_truth,
)
from .errors import AliasingError, ConfigError, DomainError, SingularityError, SolveError
from .metrics import curve_hausdorff, radial_l2
from .newton import StarCurve, reconstruct
from .records import aperture_error

SWEEP_KEYS = ("sweep.apertures", "sweep.deltas", "sweep.seeds")
SWEEP_SCHEMA = {**CONFIG_SCHEMA, **{key: (str, "") for key in SWEEP_KEYS}}

#: package errors a cell records as failed; anything else is a bug and propagates
CELL_ERRORS = (ConfigError, DomainError, SolveError, SingularityError, AliasingError)

CSV_HEADER = [
    "aperture_lo",
    "aperture_hi",
    "delta",
    "n_seeds",
    "median_error",
    "converged",
    "status",
]


@dataclass(frozen=True)
class SweepSpec:
    base: dict
    apertures: tuple
    deltas: tuple
    seeds: tuple


def _entries(key: str, text: str, sep: str, parse, refusal=lambda value: "") -> tuple:
    """Distinct parsed entries of one sweep list, in file order; an entry
    whose ``refusal`` is not empty is refused under the list's key."""
    values = []
    for item in filter(None, (v.strip() for v in text.split(sep))):
        try:
            value = parse(item)
        except ValueError:
            raise ConfigError(f"{key}: bad entry {item!r}") from None
        if value in values:
            raise ConfigError(f"{key}: repeated entry {item!r}")
        if problem := refusal(value):
            raise ConfigError(f"{key}: entry {item!r}: {problem}")
        values.append(value)
    return tuple(values)


def _finite(item: str) -> float:
    value = float(item)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {item!r}")
    return value


def _interval(pair: str) -> tuple:
    lo, _, hi = pair.partition(":")
    return _finite(lo), _finite(hi)


def parse_sweep_text(text: str) -> SweepSpec:
    """The config grammar plus the three sweep.* lists; each aperture and
    delta is checked by the owner of its rule (``aperture_error``,
    ``delta_error`` under the base's truncation rule) before any cell runs."""
    base = parse_config_text(text, SWEEP_SCHEMA)
    apertures = _entries("sweep.apertures", base.pop("sweep.apertures", ""), ";", _interval,
                         aperture_error)
    rule = [base.get(k, CONFIG_SCHEMA[k][1]) for k in ("truncation.mode", "truncation.tau2")]
    deltas = _entries("sweep.deltas", base.pop("sweep.deltas", ""), ",", _finite,
                      lambda delta: delta_error(delta, *rule))
    seeds = _entries("sweep.seeds", base.pop("sweep.seeds", ""), ",", int)
    if any(seed < 0 for seed in seeds):
        raise ConfigError("sweep.seeds: must be >= 0")
    return SweepSpec(base, apertures, deltas, seeds)


def load_sweep(path) -> SweepSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_sweep_text(fh.read())


def boundary_error(cfg: ReconstructionConfig, run) -> float:
    recon = run.final.as_curve()
    if cfg["shape"] == "disk":
        return radial_l2(recon, cfg["shape.radius"])
    if cfg["shape"] == "custom":
        return radial_l2(recon, StarCurve(cfg.shape_coeffs()).radius)
    return curve_hausdorff(recon, make_shape(cfg))


def run_cell(base: dict, truth, aperture, delta: float, seeds) -> list:
    """One sweep cell measured from the solved ``truth``; returns a CSV row."""
    values = dict(base)
    values["aperture.lo"], values["aperture.hi"] = aperture
    values["delta"] = delta
    try:
        cfg = ReconstructionConfig(values)
        rec = make_record(cfg, truth)
        errors = []
        converged = 0
        for seed in seeds:
            seeded = dict(values)
            seeded["seed"] = seed
            run = reconstruct(rec, ReconstructionConfig(seeded))
            errors.append(boundary_error(cfg, run))
            converged += run.termination == "converged"
        med = float(np.median(errors)) if errors else float("nan")
        return [aperture[0], aperture[1], delta, len(seeds), med, converged, "ok"]
    except CELL_ERRORS as exc:  # cell isolation: record and continue
        return [aperture[0], aperture[1], delta, len(seeds), float("nan"), 0,
                f"failed: {type(exc).__name__}: {exc}"]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    truth = solve_truth(ReconstructionConfig(spec.base))
    cells = [(ap, d) for ap in spec.apertures for d in spec.deltas]
    # the pool starts every worker up front, so never more than there are cells
    workers = min(workers, len(cells))
    if workers <= 1:
        return [run_cell(spec.base, truth, ap, d, spec.seeds) for ap, d in cells]
    rows = [None] * len(cells)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(run_cell, spec.base, truth, ap, d, spec.seeds): i
            for i, (ap, d) in enumerate(cells)
        }
        for fut, i in futures.items():
            rows[i] = fut.result()
    return rows


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
