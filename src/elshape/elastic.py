"""Physical parameters, fundamental solutions and point-source fields.

The background medium is homogeneous and isotropic with Lame constants
(lambda, mu) and angular frequency omega, giving the two wavenumbers

    k_p = omega / sqrt(lambda + 2 mu),     k_s = omega / sqrt(mu).

The scalar kernel is Phi_xi(x, y) = (i/4) H_0^(1)(k_xi |x - y|) and the
fundamental displacement tensor of the Navier operator is

    G(x, z) = (1/mu) Phi_s I + (1/omega^2) grad grad^T (Phi_s - Phi_p).

``green_tensor`` evaluates its closed form,

    G = alpha I + beta D,     D = 2 d d^T - I,     d = (x - z)/r,
    alpha = (i/8) (H_0(k_s r) / mu + H_0(k_p r) / (lambda + 2 mu)),
    beta  = (i/8) (H_2(k_s r) / mu - H_2(k_p r) / (lambda + 2 mu)),

with H_2(t) = (2/t) H_1(t) - H_0(t): two complex scalars per pair from one
order-0/1 table for both wavenumbers.  ``incident_field`` applies G to the
sources' polarizations, and with a direction also G's derivative along it,
without forming either tensor; no finite differences are used outside the
test suite.  Each consumer is three steps: the arguments (``_separation``,
then ``_arguments``, k_p before k_s as in ``modal``), one ``specfun.hankel01``
pass over them, and the result from the kernel rows: ``_radial_scalars``
then G's entries for ``green_tensor``, ``_contracted`` for ``incident_field``
and for a caller that batches the arguments of several consumers into one
pass, as the Newton iterate does; ``green_tensor`` runs them per L2-sized block of rows.

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
        if not np.all(np.isfinite((self.lam, self.mu, self.omega))):
            raise ValueError("lambda, mu and omega must be finite")
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


def _separation(x, y):
    """Pairwise offsets dx, dy and distances r = sqrt(dx^2 + dy^2), with
    the singularity guard applied."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x[..., 0] - y[..., 0]
    dy = x[..., 1] - y[..., 1]
    r = np.sqrt(dx * dx + dy * dy)
    if np.any(r < SEPARATION_GUARD):
        raise SingularityError("evaluation point coincides with the source point")
    return dx, dy, r


def _sources(srcs, ndim: int):
    """Locations z and polarizations p of the sources, each (S, 1, .., 1, 2)
    so that they broadcast against points x with x.ndim == ndim."""
    shape = (len(srcs),) + (1,) * (ndim - 1) + (2,)
    z = np.reshape([src.location for src in srcs], shape)
    p = np.reshape([src.polarization for src in srcs], shape)
    return z, p


def _arguments(r, sys: LameSystem):
    """The order-0/1 kernel's arguments (k_p r, k_s r), (2,) + r.shape."""
    return np.multiply.outer((sys.k_p, sys.k_s), r)


def _radial_scalars(h, t, sys: LameSystem, derivative=False):
    """alpha and beta of G = alpha I + beta D at t = ``_arguments(r, sys)``
    from the kernel rows h = (H_0(t), H_1(t)), k_p r first in each, and with
    ``derivative`` also alpha' and beta' in r (H_0' = -H_1, H_2' = H_1 - (2/t) H_2).
    h's H_1 row is overwritten.  This closed form stays, not ``cylinder_tables``:
    on the kite's 262,144-argument Green-tensor calls that rule would build 15
    rows (orders -2..2 of C, C', C''), where this one writes H_2 in place."""
    h0, h2 = h
    h1 = h2.copy() if derivative else None
    two_t = 2.0 / t
    h2 *= two_t  # H_1 becomes H_2 = (2/t) H_1 - H_0 in place
    h2 -= h0
    c_s, c_p = 0.125j / sys.mu, 0.125j / (sys.lam + 2.0 * sys.mu)
    alpha = c_s * h0[1] + c_p * h0[0]
    beta = c_s * h2[1] - c_p * h2[0]
    if not derivative:
        return alpha, beta
    dh2 = h1 - two_t * h2
    c_s, c_p = c_s * sys.k_s, c_p * sys.k_p
    return alpha, beta, -(c_s * h1[1] + c_p * h1[0]), c_s * dh2[1] - c_p * dh2[0]


def _tensor_array(shape):
    """Empty complex array of shape + (2, 2) whose memory runs (..., i, n, j)
    over the last axis n of shape: a matrix with rows (..., i) and columns
    (n, j) is then a view, not a copy.  ``forward._charge_matrix`` depends
    on this layout; ``tests/test_forward.py`` checks that it gets a view."""
    if not shape:
        return np.empty((2, 2), dtype=complex)
    return np.empty(shape[:-1] + (2, shape[-1], 2), dtype=complex).swapaxes(-3, -2)


def _contracted(dx, dy, r, p, h, t, sys: LameSystem, e=None):
    """G p, and with a direction e also (d_e G) p, from the kernel rows h at t, for
    polarizations p that broadcast against the offsets, without forming either tensor.

    G = (alpha - beta) I + 2 beta d d^T, d_e r = d.e and
    d_e d = (e - (d.e) d) / r give, with H_0' = -H_1 and
    H_2' = H_1 - (2/t) H_2 (so no further Hankel order),

        d_e G = a I + b d d^T + c (e d^T + d e^T),      c = 2 beta / r,
        a = (alpha' - beta') (d.e),      b = (2 beta' - 4 beta / r) (d.e),

    and so

        G p = (alpha - beta) p + 2 beta (d.p) d,
        (d_e G) p = a p + b (d.p) d + c ((d.p) e + (e.p) d).
    """
    alpha, beta, *slopes = _radial_scalars(h, t, sys, e is not None)
    ux, uy, px, py = dx / r, dy / r, p[..., 0], p[..., 1]
    dp = ux * px + uy * py
    a, two_b_dp = alpha - beta, 2.0 * beta * dp
    u = np.empty(np.shape(two_b_dp) + (2,), dtype=complex)
    np.multiply(a, px, out=u[..., 0])
    u[..., 0] += two_b_dp * ux
    np.multiply(a, py, out=u[..., 1])
    u[..., 1] += two_b_dp * uy
    if e is None:
        return u

    e = np.asarray(e, dtype=float)
    ex, ey = e[..., 0], e[..., 1]
    dalpha, dbeta = slopes
    de = ux * ex + uy * ey
    a, b, c = (dalpha - dbeta) * de, (2.0 * dbeta - 4.0 * beta / r) * de, 2.0 * beta / r
    b_dp, c_dp, c_ep = b * dp, c * dp, c * (ex * px + ey * py)
    du = np.empty(np.shape(b_dp) + (2,), dtype=complex)
    du[..., 0] = a * px + b_dp * ux + c_dp * ex + c_ep * ux
    du[..., 1] = a * py + b_dp * uy + c_dp * ey + c_ep * uy
    return u, du


def green_tensor(x, z, sys: LameSystem):
    """Fundamental displacement tensor G(x, z) = alpha I + beta D, shape
    (..., 2, 2), with alpha and beta as in the module docstring.

    Built into a ``_tensor_array`` in blocks of ``specfun._BLOCK`` pairs (or one
    leading-axis row), each through the whole pipeline (``_green_block``): the kernel's
    value does not depend on its batch and every other step is element-wise, so no bit moves.
    Pairs are checked block by block, so the first block holding a bad pair decides
    the error: ``SingularityError`` for a coincident pair, ``DomainError`` for a
    non-finite one, ``SingularityError`` if the block holds both.
    """
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], z.shape[:-1])
    g = None
    step = max(1, specfun._BLOCK // max(1, int(np.prod(shape[1:]))))
    for lo in range(0, shape[0] if shape else 1, step):
        rows = slice(lo, lo + step) if shape else ()
        x_rows, z_rows = (a[rows] if a.ndim > len(shape) and a.shape[0] > 1 else a for a in (x, z))
        g = _green_block(x_rows, z_rows, sys, g, shape, rows)
    return _tensor_array(shape) if g is None else g


def _green_block(x, z, sys: LameSystem, g, shape, rows):
    """``green_tensor``'s offsets, kernel pass and entries for x and z, into the
    ``rows`` of g, which is allocated (as ``shape``) after the first kernel pass: a
    one-block call then peaks no higher than its pass (~2 MB on the disk's matrix)."""
    dx, dy, r = _separation(x, z)
    t = _arguments(r, sys)
    alpha, beta = _radial_scalars(specfun.hankel01(t), t, sys)
    # D is traceless: D_xx = -D_yy = (dx^2 - dy^2) / r^2, D_xy = 2 dx dy / r^2
    b_r2 = beta / (r * r)
    b_xx = b_r2 * (dx * dx - dy * dy)
    g = _tensor_array(shape) if g is None else g
    out = g[rows]
    np.add(alpha, b_xx, out=out[..., 0, 0])
    np.subtract(alpha, b_xx, out=out[..., 1, 1])
    np.multiply(b_r2, 2.0 * dx * dy, out=out[..., 0, 1])
    out[..., 1, 0] = out[..., 0, 1]
    return g


def incident_field(x, srcs, sys: LameSystem, e=None):
    """Displacements G(x, z) p of the sources in ``srcs``, each with its own
    polarization: shape (S,) + x.shape.  With a direction ``e``, also
    their derivatives along e, of shape (S,) + broadcast(x, e).

    The same offsets, arguments and kernel pass as ``green_tensor``, but
    the fields come from alpha, beta and their slopes directly
    (``_contracted``): no (S, ..., 2, 2) tensor is built.
    """
    x = np.asarray(x, dtype=float)
    z, p = _sources(srcs, x.ndim)
    dx, dy, r = _separation(x, z)
    t = _arguments(r, sys)
    return _contracted(dx, dy, r, p, specfun.hankel01(t), t, sys, e)


def grad_incident_field(x, srcs, sys: LameSystem):
    """Jacobians of the sources' incident fields, shape (S,) + x.shape + (2,):
    entry (..., i, j) is d u_i / d x_j."""
    x = np.asarray(x, dtype=float)[..., None, :]
    _, deriv = incident_field(x, srcs, sys, np.eye(2))
    return np.swapaxes(deriv, -1, -2)
