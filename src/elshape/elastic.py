"""Physical parameters, fundamental solutions and point-source fields.

The background medium is homogeneous and isotropic with Lame constants
(lambda, mu) and angular frequency omega, giving the two wavenumbers

    k_p = omega / sqrt(lambda + 2 mu),     k_s = omega / sqrt(mu).

The scalar kernel is Phi_xi(x, y) = (i/4) H_0^(1)(k_xi |x - y|) and the
fundamental displacement tensor of the Navier operator is

    G(x, z) = (1/mu) Phi_s I + (1/omega^2) grad grad^T (Phi_s - Phi_p).

``green_tensor`` builds G from its closed form,

    G = (i/8) [ (H_0(k_s r) I + H_2(k_s r) D) / mu
              + (H_0(k_p r) I - H_2(k_p r) D) / (lambda + 2 mu) ],

with d = (x - z)/r, D = 2 d d^T - I and H_2(t) = (2/t) H_1(t) - H_0(t):
two complex scalars per pair from one order-0/1 table.  The gradient of
G(x, z) p goes through the Hessian route: for a radial f(|x - z|),

    grad grad^T f = (f'/r) I + (f'' - f'/r) d d^T,

and its derivative needs the third radial derivative, obtained by
differentiating the Bessel equation once.  No finite differences are used
outside the test suite.

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


def _phi_radial(k, r):
    """Phi(r) = (i/4) H_0^(1)(k r) and its first three radial derivatives.

    ``k`` is one wavenumber or a sequence of them; every derivative then
    has shape np.shape(k) + np.shape(r), from one table call for all of them.
    """
    k = np.reshape(k, np.shape(k) + (1,) * np.ndim(r))
    t = k * r
    h0, h1 = specfun.hankel1_table(1, t)
    d1 = -h1  # H_0' = -H_1
    d2 = -d1 / t - h0
    d3 = -d2 / t + (1.0 / (t * t) - 1.0) * d1
    c = 0.25j
    return [c * h0, c * k * d1, c * k * k * d2, c * k ** 3 * d3]


def green_tensor(x, z, sys: LameSystem):
    """Fundamental displacement tensor G(x, z), shape (..., 2, 2).

    G = alpha I + beta D with D = 2 d d^T - I and the two radial scalars

        alpha = (i/8) (H_0(k_s r) / mu + H_0(k_p r) / (lambda + 2 mu)),
        beta  = (i/8) (H_2(k_s r) / mu - H_2(k_p r) / (lambda + 2 mu)),

    H_2(t) = (2/t) H_1(t) - H_0(t), from one table call for both wavenumbers.
    """
    diff, r = _separation(x, z)
    t = np.multiply.outer((sys.k_s, sys.k_p), r)
    h0, h2 = specfun.hankel1_table(1, t)
    h2 *= 2.0 / t  # H_1 becomes H_2 = (2/t) H_1 - H_0 in place
    h2 -= h0
    c_s, c_p = 0.125j / sys.mu, 0.125j / (sys.lam + 2.0 * sys.mu)
    alpha = c_s * h0[0] + c_p * h0[1]
    beta = c_s * h2[0] - c_p * h2[1]
    # D is traceless: D_xx = -D_yy = (dx^2 - dy^2) / r^2, D_xy = 2 dx dy / r^2
    dx, dy = diff[..., 0], diff[..., 1]
    beta /= r * r
    b_xx = beta * (dx * dx - dy * dy)
    g = np.empty(r.shape + (2, 2), dtype=complex)
    np.add(alpha, b_xx, out=g[..., 0, 0])
    np.subtract(alpha, b_xx, out=g[..., 1, 1])
    np.multiply(beta, 2.0 * dx * dy, out=g[..., 0, 1])
    g[..., 1, 0] = g[..., 0, 1]
    return g


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
        (sys.k_s, sys.k_p), r
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
