"""Point-source elastic fields: the displacement tensor and its gradient.

Walks through the basic objects: wavenumbers of the two elastic branches,
the fundamental displacement tensor G(x, z), the incident field G p, and
the analytic field gradient checked against finite differences.
"""

import numpy as np

from elshape import (
    LameSystem,
    PointSource,
    grad_incident_field,
    green_tensor,
    incident_field,
)

sys = LameSystem(lam=1.0, mu=1.0, omega=5.0)
print(f"compressional wavenumber k_p = {sys.k_p:.6f}  (omega / sqrt(lambda + 2 mu))")
print(f"shear wavenumber         k_s = {sys.k_s:.6f}  (omega / sqrt(mu))")

src = PointSource(location=(3.0, 0.0), polarization=(np.sqrt(0.5), np.sqrt(0.5)))
srcs = (src,)  # the field functions take a source sequence, one row per source
x = np.array([1.0, 0.8])

g = green_tensor(x, src.xy, sys)
print("\nG(x, z) at x =", x, "z =", src.xy)
print(g)
print("symmetry defect:", np.max(np.abs(g - g.T)))

u = incident_field(x, srcs, sys)[0]
print("\nincident displacement u = G p:", u)

# the gradient is assembled from radial derivatives of the kernels, no
# differencing involved; compare against central differences anyway
h = 1e-5
fd = np.zeros((2, 2), dtype=complex)
for j in range(2):
    e = np.zeros(2)
    e[j] = h
    fd[:, j] = (incident_field(x + e, srcs, sys) - incident_field(x - e, srcs, sys))[0] / (2 * h)
jac = grad_incident_field(x, srcs, sys)[0]
print("gradient vs finite differences:", np.max(np.abs(jac - fd)) / np.max(np.abs(fd)))

# cylindrical spreading: |u| ~ r^(-1/2) far from the source
far = incident_field(src.xy + np.array([50.0, 0.0]), srcs, sys)
farther = incident_field(src.xy + np.array([200.0, 0.0]), srcs, sys)
print("\n|u(50)| / |u(200)| =", np.max(np.abs(far)) / np.max(np.abs(farther)),
      "(expect ~2 from the half-power law)")
