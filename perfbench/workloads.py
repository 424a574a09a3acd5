"""The benchmark's three workloads: inputs made from the seed, the call
under test, and the checks on its output.

A workload is a list of cases, called in turn by one caller.  Each case
owns one timed call, the number of inner steps that call did (MFS source
solves, Newton iterations or battery checks) and a check that returns the
reasons its output is wrong (empty when it is right).  Checks run outside
the timed call.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from elshape import forward, geometry, metrics, newton, verify
from elshape.config import ReconstructionConfig
from elshape.elastic import LameSystem, PointSource
from elshape.records import ScatterRecord

from make_records import ARC, MANIFEST, N_RECEIVERS, N_SOURCES, POLARIZATION, RECORDS_DIR, RHO

#: relative L2 gap between the MFS disk record and the series oracle; the
#: threshold of `elshape forward --verify-oracle`
ORACLE_TOL = 1e-6
#: illuminated-arc error over full-aperture error (acceptance criterion 9)
ARC_RATIO_MAX = 1.5

#: name -> (curve factory, omega, MFS (n_collocation, n_charges, shrink)),
#: cheapest first so that a short run ends soon after its first full round
FORWARD_SHAPES = {
    "disk": (partial(geometry.disk, 1.0), 1.0, (128, 64, 0.6)),
    "starfish": (geometry.starfish, 5.0, (384, 192, 0.85)),
    "kite": (geometry.kite, 5.0, (512, 256, 0.92)),
}

STARFISH_CFG = {"shape": "starfish", "delta": 0.05, "guess.radius": 1.5, "max_iter": 50}
#: the criterion-8 settings: omega = 5, delta = 5% gives N = 7
KITE_CFG = {
    "shape": "kite", "lame.omega": 5.0, "rho": 3.0, "n_sources": 20, "n_receivers": 128,
    "delta": 0.05, "epsilon": 1e-4, "np": 8, "truncation.mode": "practical",
    "guess.radius": 1.5, "max_iter": 50,
}
#: record name -> (config without the noise seed, truth, scoring arc or None)
RECONSTRUCT_CASES = {
    "starfish": (STARFISH_CFG, geometry.starfish, None),
    "starfish_arc": (
        {**STARFISH_CFG, "aperture.lo": ARC[0], "aperture.hi": ARC[1]}, geometry.starfish, ARC,
    ),
    "kite": (KITE_CFG, geometry.kite, None),
}


@dataclass
class Case:
    name: str
    call: Callable[[], object]
    steps: Callable[[object], int]
    check: Callable[[object], list]
    #: the case is called at least twice per run, so repeats can be compared
    repeat: bool = False


@dataclass
class Workload:
    cases: list
    warmup: Callable[[], object]
    #: per-case output figures (no timings) for the run's artifacts
    outputs: dict = field(default_factory=dict)


class RecordError(Exception):
    """A stored record does not match the manifest."""


def load_records() -> dict:
    """The stored reconstruct inputs, checked against their manifest hashes."""
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    recs = {}
    for name, entry in manifest.items():
        path = RECORDS_DIR / entry["file"]
        if hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
            raise RecordError(f"{path.name} does not match its manifest hash")
        recs[name] = ScatterRecord.load(path)
    return recs


def _relative_gap(values, reference) -> float:
    """Largest per-source relative L2 gap, as `--verify-oracle` reports it."""
    num = np.sqrt(np.sum(np.abs(values - reference) ** 2, axis=(1, 2)))
    den = np.sqrt(np.sum(np.abs(reference) ** 2, axis=(1, 2)))
    return float(np.max(num / den))


def forward_mfs(seed: int, records: dict) -> Workload:
    """20 sources x 128 receivers per shape; the seed turns the source ring."""
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.0, 2.0 * math.pi / N_SOURCES)
    angles = offset + 2.0 * math.pi * np.arange(N_SOURCES) / N_SOURCES
    sources = tuple(
        PointSource((RHO * math.cos(a), RHO * math.sin(a)), POLARIZATION) for a in angles
    )
    oracle = {}
    outputs = {}

    def check(name, sys, rec):
        bad = []
        if rec.values.shape != (N_SOURCES, N_RECEIVERS, 2):
            bad.append(f"{name}: values shape {rec.values.shape}")
        elif not np.all(np.isfinite(rec.values)):
            bad.append(f"{name}: non-finite values")
        elif name == "disk":
            if "disk" not in oracle:
                oracle["disk"] = forward.record_from_disk_series(
                    1.0, sources, sys, RHO, N_RECEIVERS
                ).values
            gap = _relative_gap(rec.values, oracle["disk"])
            outputs.setdefault("disk", {"oracle_gap": gap})
            if not gap <= ORACLE_TOL:
                bad.append(f"disk: relative L2 gap to the series oracle {gap:.3e} > {ORACLE_TOL:g}")
        return bad

    cases = []
    for name, (curve, omega, (n_col, n_chg, shrink)) in FORWARD_SHAPES.items():
        sys = LameSystem(1.0, 1.0, omega)

        def call(curve=curve, sys=sys, n_col=n_col, n_chg=n_chg, shrink=shrink):
            return forward.simulate(
                curve(), sources, sys, RHO, N_RECEIVERS, n_collocation=n_col,
                n_charges=n_chg, shrink=shrink, warn_above=None,
            )

        cases.append(Case(name, call, lambda rec: rec.n_sources, partial(check, name, sys)))
    return Workload(cases, warmup=cases[0].call, outputs=outputs)


def _reconstruct(rec, config):
    # looked up at call time, so that the traced run sees its wrapper
    return newton.reconstruct(rec, config)


def reconstruct(seed: int, records: dict) -> Workload:
    """The three stored records; the seed sets each case's noise seed."""
    noise_seeds = np.random.default_rng(seed).integers(1, 2**31 - 1, size=len(RECONSTRUCT_CASES))
    first_json = {}
    outputs = {}

    def check(name, truth, arc, run):
        bad = []
        if run.termination in ("diverged", "modal_failure"):
            bad.append(f"{name}: ended {run.termination}: {run.note}")
        elif name.startswith("starfish") and run.termination != "converged":
            bad.append(f"{name}: ended {run.termination}, expected converged")
        text = json.dumps(run.to_json_dict(), sort_keys=True)
        if first_json.setdefault(name, text) != text:
            bad.append(f"{name}: repeated run is not byte-identical to the first")
        curve = run.final.as_curve()
        out = {"termination": run.termination, "iterations": run.iterations}
        if arc is None:
            out["hausdorff"] = metrics.curve_hausdorff(curve, truth())
        else:
            # the starfish case runs first in every round
            out["hausdorff"] = metrics.arc_hausdorff(curve, truth(), arc)
            out["arc_ratio"] = out["hausdorff"] / outputs["starfish"]["hausdorff_on_arc"]
            if not out["arc_ratio"] <= ARC_RATIO_MAX:
                bad.append(f"{name}: illuminated-arc error ratio {out['arc_ratio']:.3f} "
                           f"> {ARC_RATIO_MAX}")
        if name == "starfish":
            out["hausdorff_on_arc"] = metrics.arc_hausdorff(curve, truth(), ARC)
        outputs.setdefault(name, out)
        return bad

    cases = []
    for (name, (cfg, truth, arc)), noise in zip(RECONSTRUCT_CASES.items(), noise_seeds):
        config = ReconstructionConfig({**cfg, "seed": int(noise)})
        cases.append(Case(
            name,
            partial(_reconstruct, records[name], config),
            lambda run: run.iterations,
            partial(check, name, truth, arc),
            repeat=name == "starfish",
        ))
    return Workload(cases, warmup=cases[0].call, outputs=outputs)


def verify_battery(seed: int, records: dict) -> Workload:
    """`verify.run_battery()`; the battery fixes its own seeds."""
    outputs = {}

    def check(results):
        if not outputs:
            outputs.update({r.name: r.measured for r in results})
        return [f"battery check {r.name} failed: {r.detail}" for r in results if not r.passed]

    case = Case("battery", lambda: verify.run_battery(), len, check)
    return Workload([case], warmup=lambda: verify.check_truncation_decay(), outputs=outputs)


WORKLOADS = {
    "forward-mfs": forward_mfs,
    "reconstruct": reconstruct,
    "verify-battery": verify_battery,
}
