"""Write the fixed inputs of the `reconstruct` workload.

The three clean records (starfish at full aperture, starfish on the arc
[pi/4, 7pi/4], kite at omega = 5) are simulated once and committed, so
that repeats of the workload time only the reconstruction and a change to
the forward solver does not change its inputs.  `manifest.json` holds
each record's provenance and the SHA-256 of its file; the benchmark
refuses records that do not match it.

Run from the repository root, only when the inputs are meant to change:

    PYTHONPATH=src python3 perfbench/make_records.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from elshape import forward, geometry
from elshape.elastic import LameSystem

RECORDS_DIR = Path(__file__).resolve().parent / "records"
MANIFEST = RECORDS_DIR / "manifest.json"

RHO = 3.0
N_SOURCES = 20
N_RECEIVERS = 128
POLARIZATION = (math.sqrt(0.5), math.sqrt(0.5))
ARC = (math.pi / 4.0, 7.0 * math.pi / 4.0)
FULL = (0.0, 2.0 * math.pi)

#: name -> (shape, omega, MFS (n_collocation, n_charges, shrink), aperture);
#: the MFS triples are the per-shape defaults of elshape.config
RECORD_SPECS = {
    "starfish": ("starfish", 5.0, (384, 192, 0.85), FULL),
    "starfish_arc": ("starfish", 5.0, (384, 192, 0.85), ARC),
    "kite": ("kite", 5.0, (512, 256, 0.92), FULL),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    RECORDS_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, (shape, omega, (n_col, n_chg, shrink), aperture) in RECORD_SPECS.items():
        curve = getattr(geometry, shape)()
        sources = forward.ring_sources(N_SOURCES, RHO, POLARIZATION)
        residuals = []
        rec = forward.simulate(
            curve, sources, LameSystem(1.0, 1.0, omega), RHO, N_RECEIVERS,
            aperture=aperture, n_collocation=n_col, n_charges=n_chg, shrink=shrink,
            warn_above=None, residual_log=residuals,
        )
        path = RECORDS_DIR / f"{name}.json"
        rec.save(path)
        manifest[name] = {
            "file": path.name,
            "sha256": sha256(path),
            "shape": shape,
            "lame": {"lambda": 1.0, "mu": 1.0, "omega": omega},
            "mfs": {"n_collocation": n_col, "n_charges": n_chg, "shrink": shrink},
            "source_ring": {
                "n_sources": N_SOURCES, "radius": RHO, "angular_offset": 0.0,
                "polarization": list(POLARIZATION),
            },
            "rho": RHO,
            "n_receivers": N_RECEIVERS,
            "aperture": list(aperture),
            "mfs_residual_max": float(np.max(residuals)),
        }
        print(f"{name}: {path.stat().st_size} bytes, residual {max(residuals):.3e}")
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
