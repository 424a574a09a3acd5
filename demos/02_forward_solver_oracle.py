"""Forward data generation and the analytic cross-check.

The fundamental-solutions solver places charges on a shrunk copy of the
boundary and fits the rigid condition by least squares.  For a disk the
scattered field is also available in closed form, which makes an
independent oracle: the two routes agree to ~1e-10 while sharing no
discretization.
"""

import numpy as np

from elshape import (
    LameSystem,
    PointSource,
    disk_series,
    solve_mfs,
)
from elshape.forward import boundary_residual, measure
from elshape.geometry import disk, kite

sys = LameSystem(1.0, 1.0, 5.0)
srcs = (PointSource((3.0, 0.0), (np.sqrt(0.5), np.sqrt(0.5))),)

sol = solve_mfs(disk(1.0), srcs, sys, n_collocation=128, n_charges=64, shrink=0.7)
print("unit disk, 64 charges at shrink 0.7:")
print("  collocation residual:", f"{sol.residual:.3e}")
print("  residual on a 4x finer grid:", f"{boundary_residual(sol, disk(1.0), 512):.3e}")

# both solutions carry their sources, so one measurement samples either
v_mfs = measure(sol, 3.0, 128).values
v_oracle = measure(disk_series(1.0, srcs, sys, n_modes=40), 3.0, 128).values
rel = np.sqrt(np.sum(np.abs(v_mfs - v_oracle) ** 2)) / np.sqrt(np.sum(np.abs(v_oracle) ** 2))
print("  MFS vs analytic series on the measurement circle:", f"{rel:.3e}")

# non-convex boundaries need a denser charge set; the residual reports how
# trustworthy the synthetic data are
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    weak = solve_mfs(kite(), srcs, sys, 128, 64, 0.8)
    strong = solve_mfs(kite(), srcs, sys, 512, 256, 0.92)
print("\nkite residuals: 64 charges", f"{weak.residual:.2e}",
      " / 256 charges", f"{strong.residual:.2e}")
