"""Physical parameters, fundamental solutions and point-source fields.

The background medium is homogeneous and isotropic with Lame constants
(lambda, mu) and angular frequency omega, giving the two wavenumbers

    k_p = omega / sqrt(lambda + 2 mu),     k_s = omega / sqrt(mu).

The scalar kernel is Phi_xi(x, y) = (i/4) H_0^(1)(k_xi |x - y|) and the
fundamental displacement tensor of the Navier operator is

    G(x, z) = (1/mu) Phi_s I + (1/omega^2) grad grad^T (Phi_s - Phi_p).

For a radial function f(|x - z|) the Hessian is assembled analytically,

    grad grad^T f = (f'/r) I + (f'' - f'/r) d d^T,   d = (x - z)/r,

and the gradient of G(x, z) p needs the third radial derivative, obtained
by differentiating the Bessel equation once.  No finite differences are
used outside the test suite.

Point evaluations broadcast over leading axes: x may be an (..., 2) array.
The incident-field functions take a sequence of S sources and prepend (S,).
All functions are pure.
"""

from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import SingularityError

#: closer than this, x and the source point are considered coincident
SEPARATION_GUARD = 1e-8

#: the default source polarization, the unit diagonal
POLARIZATION = (float(np.sqrt(0.5)), float(np.sqrt(0.5)))


@dataclass(frozen=True)
class LameSystem:
    """Lame constants and frequency with the derived wavenumbers."""

    lam: float
    mu: float
    omega: float
    k_p: float = field(init=False)
    k_s: float = field(init=False)

    def __post_init__(self):
        if not (self.mu > 0.0 and self.lam + self.mu > 0.0):
            raise ValueError("need mu > 0 and lambda + mu > 0")
        if not self.omega > 0.0:
            raise ValueError("need omega > 0")
        object.__setattr__(self, "k_p", self.omega / np.sqrt(self.lam + 2.0 * self.mu))
        object.__setattr__(self, "k_s", self.omega / np.sqrt(self.mu))


@dataclass(frozen=True)
class PointSource:
    """Point source at ``location`` with polarization vector ``polarization``.

    The physical setting uses unit polarizations; non-unit vectors are
    accepted so linearity can be exercised directly.
    """

    location: tuple
    polarization: tuple

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float)
        pol = np.asarray(self.polarization, dtype=float)
        if loc.shape != (2,) or pol.shape != (2,):
            raise ValueError("location and polarization must be 2-vectors")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(pol))):
            raise ValueError("location and polarization must be finite")
        object.__setattr__(self, "location", (float(loc[0]), float(loc[1])))
        object.__setattr__(self, "polarization", (float(pol[0]), float(pol[1])))

    @property
    def xy(self):
        return np.array(self.location)

    @property
    def p(self):
        return np.array(self.polarization)


def _separation(x, y):
    """Pairwise offsets and distances with the singularity guard applied."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = x - y
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    if np.any(r < SEPARATION_GUARD):
        raise SingularityError("evaluation point coincides with the source point")
    return diff, r


def _phi_radial(k, r, order):
    """Radial derivatives of Phi(r) = (i/4) H_0^(1)(k r) up to ``order``.

    ``k`` is one wavenumber or a sequence of them; every derivative then
    has shape np.shape(k) + np.shape(r), from one table call for all of them.
    """
    k = np.reshape(k, np.shape(k) + (1,) * np.ndim(r))
    t = k * r
    h0, h1 = specfun.hankel1_table(1, t)
    c = 0.25j
    out = [c * h0]
    if order >= 1:
        d1 = -h1  # H_0' = -H_1
        out.append(c * k * d1)
    if order >= 2:
        d2 = -d1 / t - h0
        out.append(c * k * k * d2)
    if order >= 3:
        d3 = -d2 / t + (1.0 / (t * t) - 1.0) * d1
        out.append(c * k ** 3 * d3)
    return out


def green_tensor(x, z, sys: LameSystem):
    """Fundamental displacement tensor G(x, z), shape (..., 2, 2)."""
    diff, r = _separation(x, z)
    d = diff / r[..., None]
    (phs, _), (dphs, dphp), (d2phs, d2php) = _phi_radial((sys.k_s, sys.k_p), r, 2)
    dg = dphs - dphp
    d2g = d2phs - d2php

    eye = np.eye(2)
    radial = dg / r
    ddT = d[..., :, None] * d[..., None, :]
    hess = radial[..., None, None] * eye + (d2g - radial)[..., None, None] * ddT
    return (phs / sys.mu)[..., None, None] * eye + hess / sys.omega ** 2


def incident_field(x, srcs, sys: LameSystem):
    """Displacements G(x, z) p of the sources in ``srcs``, each with its own
    polarization: shape (S,) + x.shape, from one green_tensor call."""
    x = np.asarray(x, dtype=float)
    shape = (len(srcs),) + (1,) * (x.ndim - 1) + (2,)  # broadcasts against x
    z = np.reshape([src.location for src in srcs], shape)
    p = np.reshape([src.polarization for src in srcs], shape).astype(complex)
    return (green_tensor(x, z, sys) @ p[..., None])[..., 0]


def incident_field_directional(x, srcs, sys: LameSystem, e):
    """(G(x, z) p, its derivative along e) from one radial table for both wavenumbers.

    Both are (S,) + x.shape arrays, one row per source in ``srcs``, each
    with its own polarization.  ``e`` broadcasts against x, one direction
    per point.  The derivative contracts the third-derivative tensor of the
    radial g = Phi_s - Phi_p with p and e:

        sum_jk T_ijk p_k e_j = (B/r) (d_i (p.e) + (d.e) p_i + (d.p) e_i)
                               + (dB/dr - 2B/r) (d.p) (d.e) d_i,

    with B = g'' - g'/r.
    """
    shape = (len(srcs),) + (1,) * (np.ndim(x) - 1) + (2,)  # broadcasts against x
    p = np.reshape([src.polarization for src in srcs], shape)
    diff, r = _separation(x, np.reshape([src.location for src in srcs], shape))
    d = diff / r[..., None]
    e = np.asarray(e, dtype=float)

    (phs, _), (dphs, dphp), (d2phs, d2php), (d3phs, d3php) = _phi_radial(
        (sys.k_s, sys.k_p), r, 3
    )
    dg = dphs - dphp
    d2g = d2phs - d2php
    d3g = d3phs - d3php

    B = d2g - dg / r
    Bp = d3g - d2g / r + dg / (r * r)
    # radial factors against the trailing component axis
    phs, dphs, dg, B, Bp, r = (f[..., None] for f in (phs, dphs, dg, B, Bp, r))
    dp = np.sum(d * p, axis=-1, keepdims=True)
    de = np.sum(d * e, axis=-1, keepdims=True)
    pe = np.sum(p * e, axis=-1, keepdims=True)

    value = (phs / sys.mu) * p + ((dg / r) * p + B * dp * d) / sys.omega ** 2
    tv = (B / r) * (d * pe + de * p + dp * e) + (Bp - 2.0 * B / r) * dp * de * d
    deriv = (dphs * de / sys.mu) * p + tv / sys.omega ** 2
    return value, deriv


def grad_incident_field(x, srcs, sys: LameSystem):
    """Jacobians of the sources' incident fields, shape (S,) + x.shape + (2,):
    entry (..., i, j) is d u_i / d x_j."""
    x = np.asarray(x, dtype=float)[..., None, :]
    _, deriv = incident_field_directional(x, srcs, sys, np.eye(2))
    return np.swapaxes(deriv, -1, -2)
