"""End-to-end reconstruction of a disk from noise-free data.

Simulates 20 sources on the measurement circle, extracts the modal
coefficients once, and runs the damped least-squares boundary iteration
from a circle of radius 2 down to the true radius 1.  Writes an overlay
SVG next to this script.
"""

from pathlib import Path

import numpy as np

from elshape import ReconstructionConfig, make_record, make_shape, reconstruct, solve_truth
from elshape.svgout import overlay_svg

cfg = ReconstructionConfig({
    "shape": "disk",
    "shape.radius": 1.0,
    "lame.omega": 1.0,
    "delta": 0.0,
    "guess.radius": 2.0,
    "truncation.mode": "fixed",
    "truncation.n": 15,
    "max_iter": 15,
})

record = make_record(cfg, solve_truth(cfg))
run = reconstruct(record, cfg)
print("termination:", run.termination, "after", run.iterations, "iterations")
print("relative updates:", " ".join(f"{e:.2e}" for e in run.e_history))
print("final coefficients:", np.round(run.final.coeffs, 6))
print("radius error:", abs(run.final.coeffs[0] - 1.0))

svg = overlay_svg(record, run, make_shape(cfg), f"disk reconstruction: {run.termination}")
out = Path(__file__).with_name("out_disk_overlay.svg")
out.write_text(svg)
print("wrote", out)
