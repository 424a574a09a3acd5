"""Noisy starfish reconstruction, full versus three-quarter aperture.

The data get 5% multiplicative noise; the truncation order follows the
noise rule N = 2[|ln delta|] + 1 = 7.  With receivers covering only
[pi/4, 7pi/4) the coefficients come from a ridge-regularized arc fit, and
the illuminated side is recovered about as well as with full coverage.
The aperture only chooses the receivers, so one MFS solve of the truth
serves both records.
"""

from pathlib import Path

import numpy as np

from elshape import ReconstructionConfig, make_record, make_shape, reconstruct, solve_truth
from elshape.metrics import arc_hausdorff, curve_hausdorff
from elshape.svgout import overlay_svg

ARC = (np.pi / 4.0, 7.0 * np.pi / 4.0)

base = {
    "shape": "starfish",
    "delta": 0.05,
    "seed": 7,
    "guess.radius": 1.5,
}

base_cfg = ReconstructionConfig(base)
truth = make_shape(base_cfg)
solution = solve_truth(base_cfg)

for label, aperture in (("full aperture", None), ("three-quarter aperture", ARC)):
    values = dict(base)
    if aperture is not None:
        values["aperture.lo"], values["aperture.hi"] = aperture
    cfg = ReconstructionConfig(values)
    record = make_record(cfg, solution)
    run = reconstruct(record, cfg)
    full_err = curve_hausdorff(run.final.as_curve(), truth)
    lit_err = arc_hausdorff(run.final.as_curve(), truth, ARC)
    print(f"{label}: {run.termination} in {run.iterations} iterations, "
          f"boundary error {full_err:.3f} (lit arc {lit_err:.3f})")

    svg = overlay_svg(record, run, truth, f"starfish, {label}: {run.termination}")
    name = "out_starfish_full.svg" if aperture is None else "out_starfish_arc.svg"
    out = Path(__file__).with_name(name)
    out.write_text(svg)
    print("  wrote", out)
