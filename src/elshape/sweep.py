"""Aperture x noise sweeps with per-cell boundary errors.

A sweep file is an ordinary experiment config plus three list-valued keys:

    sweep.apertures = 0:6.283185307179586; 0.785398:5.497787
    sweep.deltas = 0, 0.01, 0.05
    sweep.seeds = 1, 2, 3, 4, 5

Each (aperture, delta) cell simulates one clean record, reconstructs once
per seed and reports the median boundary error against the configured
truth (radial L2 for star-shaped truths, symmetric Hausdorff otherwise).
A cell that fails with a package error (bad configuration, domain,
singularity, aliasing or solve failure) is recorded in the output row and
the sweep continues; any other exception propagates.
Cells are independent, so they can run in a process pool.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ReconstructionConfig, make_shape, parse_config_text
from .errors import AliasingError, ConfigError, DomainError, SingularityError, SolveError
from .forward import ring_sources, simulate
from .metrics import curve_hausdorff, radial_l2
from .newton import StarCurve, reconstruct

SWEEP_KEYS = ("sweep.apertures", "sweep.deltas", "sweep.seeds")

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


def parse_sweep_text(text: str) -> SweepSpec:
    """Split sweep.* keys off the flat config and parse their lists; sweep
    lines are blanked in place, so config errors keep their line numbers."""
    base_lines = []
    sweep_values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, _, val = raw.split("#", 1)[0].partition("=")
        key = key.strip()
        if key in SWEEP_KEYS:
            if key in sweep_values:
                raise ConfigError(f"line {lineno}: duplicate key '{key}'")
            sweep_values[key] = val.strip()
            raw = ""
        base_lines.append(raw)
    base = parse_config_text("\n".join(base_lines))

    def floats(s):
        return tuple(float(v) for v in s.split(",") if v.strip() != "")

    apertures = []
    for pair in sweep_values.get("sweep.apertures", "").split(";"):
        pair = pair.strip()
        if not pair:
            continue
        lo, _, hi = pair.partition(":")
        try:
            apertures.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigError(f"sweep.apertures: bad interval {pair!r}") from None
    try:
        deltas = floats(sweep_values.get("sweep.deltas", ""))
        seeds = tuple(int(float(v)) for v in sweep_values.get("sweep.seeds", "").split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep lists: {exc}") from None
    return SweepSpec(base=base, apertures=tuple(apertures), deltas=deltas, seeds=seeds)


def load_sweep(path) -> SweepSpec:
    with open(path) as fh:
        return parse_sweep_text(fh.read())


def boundary_error(cfg: ReconstructionConfig, run) -> float:
    recon = run.final.as_curve()
    if cfg["shape"] == "disk":
        return radial_l2(recon, cfg["shape.radius"])
    if cfg["shape"] == "custom":
        return radial_l2(recon, StarCurve(cfg.shape_coeffs()).radius)
    return curve_hausdorff(recon, make_shape(cfg))


def run_cell(base: dict, aperture, delta: float, seeds) -> list:
    """One sweep cell; returns a CSV row."""
    values = dict(base)
    values["aperture.lo"], values["aperture.hi"] = aperture
    values["delta"] = delta
    try:
        cfg = ReconstructionConfig(values)
        curve = make_shape(cfg)
        srcs = ring_sources(cfg["n_sources"], cfg["rho"], cfg.polarization)
        n_col, n_chg, shrink = cfg.mfs_params()
        rec = simulate(
            curve, srcs, cfg.sys, cfg["rho"], cfg["n_receivers"],
            aperture=cfg.aperture, n_collocation=n_col, n_charges=n_chg,
            shrink=shrink, warn_above=None,
        )
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
    cells = [(ap, d) for ap in spec.apertures for d in spec.deltas]
    # the pool starts every worker up front, so never more than there are cells
    workers = min(workers, len(cells))
    if workers <= 1:
        return [run_cell(spec.base, ap, d, spec.seeds) for ap, d in cells]
    rows = [None] * len(cells)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(run_cell, spec.base, ap, d, spec.seeds): i
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
