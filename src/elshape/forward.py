"""Synthetic data generation: MFS forward solver and an analytic disk oracle.

Two independent routes produce scattered fields for a rigid obstacle
(total displacement zero on the boundary):

* ``solve_mfs`` represents the scattered field as a combination of
  fundamental-tensor columns with source points on an interior dilation
  of the boundary, fitted by oversampled least-squares collocation of
  v = -u_inc on the boundary.  Works for any smooth parametric curve.
  A is a view of ``green_tensor``'s array, not a copy (``elastic``
  lays G out for it, see ``elastic._tensor_array``).  If a turn by 2 pi / g maps
  the curve and both grids onto themselves (``_symmetry``), A is evaluated on one
  orbit, and one FFT over the orbit index splits [A | B] exactly into g blocks:
  the disk at 128/64 is g = 64 blocks of 4 x (2 + S).  Else a curve symmetric about
  the x-axis (``mirrored``: the starfish and the kite, g = 1) has A on half the points
  and an even and an odd block, folded from strided views (the mirrors by reversed
  strides, nothing gathered) in L2-sized blocks, bit for bit; any other curve is the
  turns' g = 1 case, one block, bit for bit.  After the layout, ``_charge_fit`` does
  the rest: one stacked Householder QR gives each block's triangle R and Q^H B, and
  one blocked back-substitution on R (64-row diagonal blocks, one product per block
  column for the rows above) gives every source's charges.
  No rank is truncated: the system is ill-conditioned (cond up to ~1e9 at
  the shipped resolutions, ~1e16 when over-resolved), but a
  backward-stable solve still gives an accurate field (Barnett & Betcke,
  JCP 2008), which the collocation residual reports.

* ``disk_series`` solves the disk case exactly: the incident potentials
  are expanded about the origin in the regular Bessel basis (addition
  theorem for H_0^(1)), the scattered potentials in the outgoing basis,
  and the rigid condition couples them modewise through 2x2 systems,
  solved in closed form for every mode and source at once.  It shares
  ``modal``'s per-mode algebra (``_tables``, ``_frame`` and ``_invert`` for
  the solve, ``_fields`` for evaluation), whose own check is against
  mpmath, but not its Hankel library: it passes AMOS's tables
  (``specfun.hankel1``/``bessel_j``), which are not normalized.

The pair cross-validates itself (``oracle_gap`` within ``ORACLE_TOL``) and
keeps inversion tests free of the inverse crime.  Both solutions carry the
sources they were solved for, and ``measure`` samples either one on the
receiver arc into a ScatterRecord.  On the full circle the receivers are
exactly mirror-closed, and g orbits of M/g points when g divides M.  So an MFS
field of the turns (g > 1) is measured from G on one orbit of M/g receivers
(``_orbit_ring``: in the orbits' frames the field is a circular correlation
over the orbit index, one FFT and one product per mode); otherwise an MFS field
with mirror-closed charges is evaluated on half of them (no tolerance); a disk
series by ``modal._ring``: one inverse FFT per circular component
v_x +- i v_y, with orders beyond M/2 folded modulo M (exact on the grid).
Arcs, other full spans and ``DiskField.eval`` keep ``_fields``, as their
points are off the grid 2 pi j / M.  Receiver and mode counts must be
nonnegative integers.
``simulate`` is one MFS solve for all sources plus ``measure``.
``add_noise`` applies the multiplicative noise
v -> v + delta r1 |v| exp(i pi r2),  r1, r2 ~ U(-1, 1) per component;
``noise_perturbation`` draws the added term alone.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .elastic import LameSystem, PointSource, _sources, green_tensor, incident_field
from .errors import ConfigError, DomainError, SolveError
from .geometry import ParametricCurve, disk
from .modal import _arguments, _fields, _frame, _invert, _polar, _ring, _tables
from .records import FULL_APERTURE, ScatterRecord, aperture_error

#: collocation residual above this emits an accuracy warning
RESIDUAL_WARN = 1e-6
#: ``oracle_gap`` between MFS and disk-series records above this is a disagreement
ORACLE_TOL = 1e-6
#: rows of the diagonal blocks that ``_back_substitute`` solves densely
BACK_SUB_BLOCK = 64


# ---------------------------------------------------------------------------
# method of fundamental solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MfsSolution:
    """Charge layout and fitted strengths for the scattered fields of S sources."""

    charges: np.ndarray     # (n_charges, 2)
    strengths: np.ndarray   # (S, n_charges, 2) complex
    residuals: np.ndarray   # (S,); max residual on the collocation grid
    sys: LameSystem
    sources: tuple          # the S point sources, in row order
    g: int = 1              # the charges are g orbits of the turn by 2 pi / g (solve_mfs)

    def __post_init__(self):
        if self.strengths.shape[1:] != self.charges.shape:
            raise ValueError("one strength vector per charge point required")

    @property
    def residual(self) -> float:
        """Worst collocation residual over the sources."""
        return float(np.max(self.residuals, initial=0.0))

    def eval(self, x) -> np.ndarray:
        """Scattered displacement at x (shape (..., 2)): (S,) + x.shape.

        If the points and the charges are both ``_mirror_closed`` (else G is full),
        G is built on the points j <= M/2 only: G(R x, y_k) = R G(x, R y_k) R with
        R = diag(1, -1), so one product with the 2S rows [c ; R c_sigma], sigma the
        charge mirror k -> -k mod m, gives point j's field and R times point M - j's."""
        x = np.asarray(x, dtype=float)
        pts, c, m = x.reshape(-1, 2), self.strengths, len(self.charges)
        n, mirrored = len(pts), _mirror_closed(pts) and _mirror_closed(self.charges)
        g = _charge_matrix(pts[: n // 2 + 1 if mirrored else None], self.charges, self.sys)
        if not mirrored:
            return (c.reshape(-1, g.shape[1]) @ g.T).reshape(c.shape[:1] + x.shape)
        coef = np.concatenate([c, c[:, -np.arange(m) % m] * (1.0, -1.0)]).reshape(-1, 2 * m)
        half = (coef @ g.T).reshape(2, len(c), g.shape[0] // 2, 2)
        mirror = half[1, :, (n - 1) // 2 : 0 : -1] * (1.0, -1.0)
        return np.concatenate([half[0], mirror], axis=1).reshape(c.shape[:1] + x.shape)


def _orbit_ring(sol: MfsSolution, rho: float, n: int) -> np.ndarray:
    """``sol``'s field at the ``_grid(disk(rho), n)`` receivers, n a multiple of g = sol.g,
    (S, n, 2), from G at orbit 0's n/g receivers x_a.  In the orbits' own frames the
    field is a circular correlation over the orbit index, v'_l = sum_d K_{d-l} c'_d with
    K_e = G(x_a, R^e y_b) R^e, so per Fourier mode it is one product of the
    ``_turn_rows`` and ``_turn_vectors`` blocks, and ``_unturn`` gives v."""
    turns = _grid(disk(1.0), sol.g)
    k = _charge_matrix(_grid(disk(rho), n)[: n // sol.g], sol.charges, sol.sys)
    c = sol.strengths.reshape(-1, k.shape[1]).T
    v = _unturn(_turn_rows(k, turns) @ _turn_vectors(c, turns), turns)
    return v.T.reshape(len(c.T), n, 2)


def _charge_matrix(x, charges, sys: LameSystem) -> np.ndarray:
    """G(x_i, y_j) laid out with rows (point, component), columns (charge,
    component): a view of green_tensor's array, which ``elastic._tensor_array``
    lays out for it."""
    g = green_tensor(x[:, None, :], charges[None, :, :], sys)
    return g.swapaxes(1, 2).reshape(2 * len(x), 2 * len(charges))


def solve_mfs(
    curve: ParametricCurve,
    sources,
    sys: LameSystem,
    n_collocation: int = 128,
    n_charges: int = 64,
    shrink: float = 0.8,
    warn_above: float | None = RESIDUAL_WARN,
) -> MfsSolution:
    """Fit interior charges so that u_inc + v vanishes on the boundary.

    ``sources`` is a sequence of S point sources.  The collocation matrix
    does not depend on the source, so it is built once and one stacked QR
    of [A | B] fits every source's right-hand side.  [A | B] is split into g blocks
    (``_turn_system``) if g = ``_symmetry`` > 1 or the curve is not ``mirrored``,
    else into an even and an odd block (``_fold_system``, A at the points j <= n/2).
    This function lays out the grids and builds A and B; ``_charge_fit`` fits.
    A zero on a block's R diagonal is a ``SolveError``.
    """
    srcs = tuple(sources)
    if not 0.0 < shrink < 1.0:
        raise ConfigError("shrink must lie in (0, 1)")
    if not 1 <= n_charges <= n_collocation:
        raise ConfigError("need at least one charge and as many collocation points as charges")
    if np.any(curve.contains(_sources(srcs, 1)[0])):
        raise ConfigError("source point lies inside the obstacle")

    g = _symmetry(curve, n_collocation, n_charges)
    mirrored = curve.mirrored and g == 1
    colloc, charges = _grid(curve, n_collocation), _grid(curve, n_charges)
    turns = None if mirrored else _grid(disk(1.0), g)
    if not mirrored:  # orbits l of n/g and m/g representatives, turned by 2 pi l / g
        colloc, charges = (_turn(p[: len(p) // g], turns, -1.0).reshape(-1, 2)
                           for p in (colloc, charges))
    centre = 0.0 if g > 1 else curve.centroid() * (1.0, not mirrored)  # on the mirror's axis
    charges = centre + shrink * (charges - centre)
    rows = n_collocation // 2 + 1 if mirrored else n_collocation // g
    # column s of B is -u_inc of source s on the grid; A and B are passed unnamed, so
    # that _charge_fit can free them before its QR
    coef, res = _charge_fit(
        _charge_matrix(colloc[:rows], charges, sys),
        -incident_field(colloc, srcs, sys).reshape(len(srcs), 2 * n_collocation).T,
        n_collocation, n_charges, turns)
    residuals = np.max(np.abs(res), axis=0)
    if warn_above is not None and np.any(residuals > warn_above):
        worst = int(np.argmax(residuals))
        warnings.warn(
            f"MFS collocation residual {residuals[worst]:.3e} exceeds {warn_above:.0e} "
            f"(source {worst} of {len(srcs)})",
            stacklevel=2,
        )
    strengths = coef.T.reshape(len(srcs), n_charges, 2)
    return MfsSolution(charges=charges, strengths=strengths, residuals=residuals, sys=sys,
                       sources=srcs, g=g)


def _charge_fit(a, b, n: int, m: int, turns=None):
    """The charges (2m, S) and collocation misfits A c - B (2n, S) of the least-squares
    fit to each column of B, for n collocation points and m charges: [A | B] split by
    ``_fold_system`` (turns None, A at the points j <= n/2) or ``_turn_system`` (A on
    orbit 0's rows), one stacked QR, a ``SolveError`` for a non-finite system or a zero
    on a block's R diagonal, ``_back_substitute``, and ``_unfold`` or ``_unturn``."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise SolveError("non-finite MFS collocation system")
    stack = _fold_system(a, b, n, m) if turns is None else _turn_system(a, b, turns)
    k = stack.shape[2] - b.shape[1]
    del a, b  # freed before the QR, whose copies of the stack then reuse their pages
    # R of a block [A | B] holds A's triangle and Q^H B side by side, so Q is never formed
    r = np.linalg.qr(stack, mode="r")
    if not np.all(np.diagonal(r[:, :k, :k], axis1=1, axis2=2)):
        raise SolveError("rank-deficient MFS collocation matrix")
    coef = _back_substitute(r[:, :k, :k], r[:, :k, k:])
    res = stack[..., :k] @ coef - stack[..., k:]
    if turns is None:
        return _unfold(coef, m), _unfold(res, n)
    return _unturn(coef, turns), _unturn(res, turns)


def _grid(curve: ParametricCurve, n: int) -> np.ndarray:
    """x(2 pi j / n) for j < n; on a ``mirrored`` curve for j <= n/2 only, with
    y = 0 at j = 0 (and n/2), and point n - j point j mirrored, exactly."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if not curve.mirrored:
        return curve.point(t)
    half = curve.point(t[: n // 2 + 1])
    half[[0, -1] if n % 2 == 0 else 0, 1] = 0.0
    return np.concatenate([half, half[(n - 1) // 2 : 0 : -1] * (1.0, -1.0)])


def _mirror_closed(p) -> bool:
    """Point -j mod n of the (n, 2) points p is point j mirrored, exactly (``_grid``)."""
    return bool(np.array_equal(p[-np.arange(len(p)) % max(len(p), 1)], p * (1.0, -1.0)))


def _symmetry(curve: ParametricCurve, n: int, m: int) -> int:
    """The largest g dividing n and m with e = 1 mod g for every e with z_e != 0 in
    Z = x_1 + i x_2 = sum_e z_e e^{iet}, z_{+-j} = (C_j1 +- S_j2 + i (C_j2 -+ S_j1)) / 2:
    then the turn by 2 pi / g about the origin maps the curve and both grids onto themselves."""
    j = np.arange(len(curve.cos))
    (c1, c2), (s1, s2) = curve.cos.T, curve.sin.T * (j > 0)  # sin 0t = 0
    e = np.concatenate([j[(c1 + s2 != 0) | (c2 - s1 != 0)], -j[(c1 - s2 != 0) | (c2 + s1 != 0)]])
    return int(np.gcd.reduce(np.append(e - 1, [n, m])))


def _turn(v, turns, sense=1.0) -> np.ndarray:
    """The (x, y) pairs on v's last axis, those of orbit l (axis -3) turned by
    -2 pi l / g, or by +2 pi l / g with sense -1; turns[l] is (cos, sin) of 2 pi l / g."""
    c, s = turns[:, None, 0], sense * turns[:, None, 1]
    x, y = v[..., 0], v[..., 1]
    return np.stack([x * c + y * s, y * c - x * s], axis=-1)


def _turn_rows(a, turns) -> np.ndarray:
    """The (g, rows, 2m/g) blocks of the rows a against m charges in g orbits: each
    orbit's columns in its representative's frame, then one FFT over the orbit index;
    block r is sum_d G(x_a, R^d y_b) R^d e^{2 pi i r d / g}."""
    g, rows = len(turns), len(a)
    a_hat = np.fft.ifft(_turn(a.reshape(rows, g, -1, 2), turns), axis=1, norm="forward")
    return a_hat.reshape(rows, g, -1).swapaxes(0, 1)


def _turn_vectors(v, turns) -> np.ndarray:
    """The (g, 2k, S) blocks of the (2gk, S) vectors v on g orbits of k points: each
    orbit in its representative's frame, then one FFT over the orbit index."""
    g, s = len(turns), v.shape[1]
    v_hat = np.fft.fft(_turn(v.T.reshape(s, g, len(v) // (2 * g), 2), turns), axis=1)
    return v_hat.reshape(s, g, len(v) // g).transpose(1, 2, 0)


def _turn_system(a, b, turns) -> np.ndarray:
    """The (g, 2n/g, 2m/g + S) blocks of [A | B] for n points and m charges in g orbits,
    from A at orbit 0's points: ``_turn_rows`` of A beside ``_turn_vectors`` of B."""
    return np.concatenate([_turn_rows(a, turns), _turn_vectors(b, turns)], axis=2)


def _unturn(x, turns) -> np.ndarray:
    """The (2 g k, S) vectors, in global components, whose ``_turn_vectors`` blocks are x."""
    g, k2, s = x.shape
    v = np.fft.ifft(x, axis=0).transpose(2, 0, 1).reshape(s, g, k2 // 2, 2)
    return _turn(v, turns, -1.0).reshape(s, g * k2).T


def _fold(n: int):
    """Orthonormal even/odd split of (point, component) vectors v on an n-point
    mirrored ``_grid``: (v[rep] +- s v[mir]) w over the points j <= n/2 and
    their mirrors -j mod n, sign s = 1 (x), -1 (y), w = 1/sqrt 2 (1/2 on the
    axis).  Entries run axis x, pairs, axis y: the parts are [:n] and [-n:].
    This is the layout by index arrays; ``_fold_system`` and ``_unfold`` build
    it from views."""
    j = np.arange(n // 2 + 1)
    on_axis = j == -j % n
    point = np.concatenate([j[on_axis], np.repeat(j[~on_axis], 2), j[on_axis]])
    comp = np.concatenate([0 * j[on_axis], np.tile([0, 1], np.sum(~on_axis)), 0 * j[on_axis] + 1])
    w = np.where(point == -point % n, 0.5, np.sqrt(0.5))
    return 2 * point + comp, 2 * (-point % n) + comp, 1.0 - 2.0 * comp, w


#: the fold's sign s per component, x then y
_SIGNS = np.array([1.0, -1.0])


def _axis(n: int) -> slice:
    """The on-axis points of an n-point mirrored ``_grid``, 0 and n/2 when n is even,
    among its points j <= n/2 or all n of them."""
    return slice(0, None, n // 2) if n % 2 == 0 else slice(0, 1)


def _fold_columns(a, weight, even=None, odd=None):
    """The even and odd column parts of the (r, m, 2) rows a of A (charge, component
    on the last two axes) into the (r, m) views ``even`` and ``odd``, where given, with
    the rows' fold weight 2 w in ``weight``: on-axis charges, then the pairs k, m - k.
    Each entry takes the index form's operations in its order (a w + a (w s)), bit for bit."""
    r, m = len(a), a.shape[1]
    q, ax = (m - 1) // 2, _axis(m)
    na, w = m - 2 * q, weight * 0.5
    if even is not None:
        np.add(a[:, ax, 0] * w, a[:, ax, 0] * (w * 1.0), out=even[:, :na])
    if odd is not None:
        np.subtract(a[:, ax, 1] * w, a[:, ax, 1] * (w * -1.0), out=odd[:, 2 * q :])
    w = weight * np.sqrt(0.5)
    x, mirror = a[:, 1 : q + 1] * w, a[:, m - 1 : m - q - 1 : -1]
    y = np.empty(x.shape, dtype=complex)
    for c, s in enumerate(_SIGNS):  # one product per component: no inner loop of two
        np.multiply(mirror[..., c], w * s, out=y[..., c])
    if even is not None:
        np.add(x, y, out=even[:, na:].reshape(r, q, 2))
    if odd is not None:
        np.subtract(x, y, out=odd[:, : 2 * q].reshape(r, q, 2))


def _fold_system(a, b, n: int, m: int) -> np.ndarray:
    """The (2, n, m + S) even and odd blocks of [A | B] for n collocation points
    and m charges, from A at the points j <= n/2 and all of B: A commutes with
    the mirror, so a pair's even or odd row is sqrt 2 times its first point's.
    Every part is a strided view (the mirrors m - k and n - j by reversed strides):
    B's columns fold over the points as A's rows fold over the charges, the on-axis
    rows of A apart, its pair rows in L2-sized blocks of points."""
    s, p, ax = b.shape[1], (n - 1) // 2, _axis(n)
    nr, a4 = n - 2 * p, a.reshape(len(a) // 2, 2, m, 2)
    stack = np.empty((2, n, m + s), dtype=complex)
    even, odd = stack[:, :, :m]
    _fold_columns(b.T.reshape(s, n, 2), 1.0, stack[0, :, m:].T, stack[1, :, m:].T)
    _fold_columns(a4[ax, 0], 1.0, even=even[:nr])
    _fold_columns(a4[ax, 1], 1.0, odd=odd[2 * p :])
    step = max(1, specfun._BLOCK // m)  # pair points per block: 2 _BLOCK entries of A
    for lo in range(0, p, step):
        hi = min(lo + step, p)
        _fold_columns(a4[1 + lo : 1 + hi].reshape(-1, m, 2), 2.0 * np.sqrt(0.5),
                      even[nr + 2 * lo : nr + 2 * hi], odd[2 * lo : 2 * hi])
    return stack


def _unfold(x, n: int) -> np.ndarray:
    """The (2n, S) vectors whose ``_fold`` even and odd parts are x[0] and x[1]."""
    p, ax = (n - 1) // 2, _axis(n)
    nr, s = n - 2 * p, x.shape[2]
    full = np.empty((2 * n, s), dtype=x.dtype)
    full3, f = full.reshape(n, 2, s), 0.5 / np.sqrt(0.5)
    e, o = x[0, nr:].reshape(p, 2, s), x[1, : 2 * p].reshape(p, 2, s)
    np.multiply(e - o, f * _SIGNS[:, None], out=full3[n - 1 : n - p - 1 : -1])
    np.multiply(e + o, f, out=full3[1 : p + 1])
    # on the axis the index form adds a zero part and weighs by 1; so do these, for
    # the signs of zeros
    full3[ax, 0] = (x[0, :nr] + 0.0) * 1.0
    full3[ax, 1] = (x[1, 2 * p :] + 0.0) * 1.0
    return full


def _back_substitute(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve r x = y for an upper-triangular r, or a stack of them, with nonzero diagonal.

    numpy has no triangular solver, so the diagonal blocks of
    BACK_SUB_BLOCK rows are solved bottom-up with ``np.linalg.solve``: on
    an upper triangle partial pivoting keeps the diagonal as pivot and every
    multiplier is zero, so its LU costs a block's size cubed, not R's.
    One product per block column then removes the solved unknowns from
    the rows above.
    """
    x = np.array(y, dtype=np.result_type(r, y))
    b = BACK_SUB_BLOCK
    for lo in range((r.shape[-1] - 1) // b * b, -1, -b):
        hi = lo + b
        x[..., lo:hi, :] = np.linalg.solve(r[..., lo:hi, lo:hi], x[..., lo:hi, :])
        x[..., :lo, :] -= r[..., :lo, lo:hi] @ x[..., lo:hi, :]
    return x


def boundary_residual(sol: MfsSolution, curve: ParametricCurve, n: int) -> float:
    """Max |u_inc + v| on an n-point boundary grid over the solution's
    sources (quality probe)."""
    pts = curve.sample(n)
    return float(np.max(np.abs(sol.eval(pts) + incident_field(pts, sol.sources, sol.sys))))


def reciprocity_gap(field) -> float:
    """||P - P^T||_F / ||P||_F (0 if P = 0), P_ij = p_i . v_j(z_i), of a solved
    field (``MfsSolution`` or ``DiskField``): the scattered Green tensor is
    reciprocal, so P is symmetric whatever the shape, a check without oracle."""
    z, p = _sources(field.sources, 1)
    P = np.sum(field.eval(z) * p, axis=-1)
    return float(np.linalg.norm(P - P.T) / max(np.linalg.norm(P), np.finfo(float).tiny))


# ---------------------------------------------------------------------------
# analytic disk solution
# ---------------------------------------------------------------------------

def _amos(fn):
    """The AMOS function ``fn`` as a ``specfun.cylinder_tables`` table of
    orders 0..m: the one adapter to AMOS tables (disk oracle, ``verify``)."""
    return lambda m, t: fn(np.arange(m + 1).reshape((-1,) + (1,) * t.ndim), t)


def _incident_potential_coeffs(srcs, sys: LameSystem, n_modes: int):
    """Bessel-basis coefficients of the incident potentials about the origin.

    Differentiating the addition-theorem expansion of (i/4) H_0(k|x - z|)
    along the polarization (for the compressional part) and along its
    perpendicular (for the shear part) gives, per branch,

        coeff_m = c [ P H_{m+1}(k|z|) e^{-i(m+1) t_z}
                      -/+ conj(P) H_{m-1}(k|z|) e^{-i(m-1) t_z} ]

    with P = p1 + i p2, c = -i k / (8 w^2) for 'p' (minus sign inside) and
    c = k / (8 w^2) for 's' (plus sign inside).  Returns (S, 2M+1) arrays,
    one row per source, from one ``cylinder_tables`` call per branch on the distinct |z|.
    """
    z, pol = _sources(srcs, 1)
    rz, tz = (a[:, None] for a in _polar(z))
    p_cplx = (pol[:, 0] + 1j * pol[:, 1])[:, None]
    m = np.arange(-n_modes, n_modes + 1)
    out = []
    for k, sign, c in ((sys.k_p, -1.0, -1j), (sys.k_s, 1.0, 1.0)):
        # orders -M-1..M+1 on the distinct radii: H_{m-1} is columns 0..2M, H_{m+1} 2..2M+2
        t, back = _arguments(k, rz[:, 0])
        h = specfun.cylinder_tables(_amos(specfun.hankel1), n_modes + 1, t)[0].T[back]
        term_up = p_cplx * h[:, 2:] * np.exp(-1j * (m + 1) * tz)
        term_dn = np.conj(p_cplx) * h[:, :-2] * np.exp(-1j * (m - 1) * tz)
        out.append((c * k / (8.0 * sys.omega**2)) * (term_up + sign * term_dn))
    return out


@dataclass(frozen=True)
class DiskField:
    """Exact scattered fields of a rigid disk, evaluable for |x| >= radius."""

    radius: float
    sys: LameSystem
    b_p: np.ndarray   # (S, 2M+1) outgoing-basis coefficients, orders -M..M
    b_s: np.ndarray
    sources: tuple    # the S point sources, in row order

    def eval(self, x) -> np.ndarray:
        """Scattered displacement at x (shape (..., 2)): (S,) + x.shape."""
        r, theta = _polar(x)
        return _fields(self.b_p, self.b_s, self._outside(r), theta, _amos(specfun.hankel1),
                       self.sys, False)[0]

    def _outside(self, r):
        """r, if no radius lies inside the disk (round-off allowed), else a DomainError."""
        if np.any(r < self.radius * (1.0 - 1e-12)):
            raise DomainError("disk series evaluated inside the disk")
        return r


def disk_series(radius: float, sources, sys: LameSystem, n_modes: int = 40) -> DiskField:
    """Exact scattered fields outside a rigid disk centered at the origin.

    ``sources`` is a sequence of S point sources.  The rim tables do not
    depend on the source, and the per-mode 2x2 rigid-boundary systems are
    solved in closed form for every mode and source at once.
    """
    srcs = tuple(sources)
    if not _count(n_modes):
        raise DomainError(f"n_modes must be a nonnegative integer, not {n_modes!r}")
    if radius <= 0.0:
        raise DomainError("disk radius must be positive")
    if any(np.hypot(*src.xy) <= radius for src in srcs):
        raise DomainError("source must lie outside the disk")

    a_p, a_s = _incident_potential_coeffs(srcs, sys, n_modes)
    m = np.arange(-n_modes, n_modes + 1)
    # u_inc + v = 0 at r = radius, per mode: the H frame of b is minus the J
    # frame of a, solved for c = b H(k radius), whose frame has entries O(m)
    k, rim = (sys.k_p, sys.k_s), np.array([radius])
    j_alpha, j_beta = (tab[..., 0] for tab in _tables(_amos(specfun.bessel_j), k, n_modes, rim))
    alpha, beta = (tab[..., 0] for tab in _tables(_amos(specfun.hankel1), k, n_modes, rim))
    (u_p, v_p), (u_s, v_s) = _frame(m, radius, j_alpha, j_beta)
    with np.errstate(invalid="ignore"):  # inf / inf where H_m overflows: _invert refuses it
        ratio = alpha / beta
    c_p, c_s = _invert(m, radius, ratio, np.ones_like(beta),
                       -(u_p * a_p + u_s * a_s), -(v_p * a_p + v_s * a_s))
    return DiskField(radius=radius, sys=sys, b_p=c_p / beta[0], b_s=c_s / beta[1], sources=srcs)


def oracle_gap(values, reference) -> float:
    """Largest per-source relative L2 gap between two records' (S, M, 2) values."""
    num = np.sqrt(np.sum(np.abs(values - reference) ** 2, axis=(1, 2)))
    den = np.sqrt(np.sum(np.abs(reference) ** 2, axis=(1, 2)))
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# record assembly and noise
# ---------------------------------------------------------------------------

def _count(n) -> bool:
    """n is a nonnegative integer (Python or numpy, not a bool)."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0


def _check_layout(n_receivers, aperture):
    """A ConfigError unless n_receivers is a ``_count`` and aperture an arc."""
    if not _count(n_receivers):
        raise ConfigError(f"n_receivers must be a nonnegative integer, not {n_receivers!r}")
    if problem := aperture_error(aperture):
        raise ConfigError(problem)


def receiver_angles(n_receivers: int, aperture=FULL_APERTURE) -> np.ndarray:
    """Sorted receiver angles equidistributed over the (possibly wrapped) arc."""
    _check_layout(n_receivers, aperture)
    lo, hi = aperture
    theta = lo + (hi - lo) * np.arange(n_receivers) / n_receivers
    return np.sort(np.mod(theta, 2.0 * np.pi))


def measure(field, rho: float, n_receivers: int, aperture=FULL_APERTURE) -> ScatterRecord:
    """Sample a solved field (``MfsSolution`` or ``DiskField``) on the receiver arc
    of radius ``rho``: one record of all its sources.  On exactly FULL_APERTURE the
    receivers are the mirror-closed ``_grid(disk(rho), M)``, the angles ``receiver_angles``,
    a ``DiskField`` is sampled there by inverse FFT (``modal._ring``), and an
    ``MfsSolution`` of g > 1 turns, g dividing M, on one orbit (``_orbit_ring``)."""
    theta = receiver_angles(n_receivers, aperture)
    full = n_receivers > 0 and tuple(aperture) == FULL_APERTURE
    if full and isinstance(field, DiskField):
        values = _ring(field.b_p, field.b_s, _amos(specfun.hankel1), field.sys,
                       field._outside(rho), n_receivers)
    elif full and isinstance(field, MfsSolution) and field.g > 1 and n_receivers % field.g == 0:
        values = _orbit_ring(field, rho, n_receivers)
    else:
        values = field.eval(_grid(disk(rho), n_receivers) if full else disk(rho).point(theta))
    return ScatterRecord(rho=rho, sys=field.sys, sources=field.sources, receivers=theta,
                         values=values, aperture=tuple(aperture))


def simulate(
    curve: ParametricCurve,
    sources,
    sys: LameSystem,
    rho: float,
    n_receivers: int,
    aperture=FULL_APERTURE,
    n_collocation: int = 128,
    n_charges: int = 64,
    shrink: float = 0.8,
    warn_above: float | None = RESIDUAL_WARN,
    residual_log: list | None = None,
) -> ScatterRecord:
    """Measure every source's MFS scattered field on the receiver arc (one solve)."""
    _check_layout(n_receivers, aperture)
    if rho <= curve.max_radius():
        raise ConfigError("measurement radius must exceed the obstacle")
    sol = solve_mfs(curve, sources, sys, n_collocation, n_charges, shrink, warn_above)
    if residual_log is not None:
        residual_log.extend(float(r) for r in sol.residuals)
    return measure(sol, rho, n_receivers, aperture)


def ring_sources(n_sources: int, rho: float, polarization):
    """Point sources equally distributed on the measurement circle."""
    angles = 2.0 * np.pi * np.arange(n_sources) / max(n_sources, 1)
    return tuple(
        PointSource((rho * np.cos(a), rho * np.sin(a)), polarization) for a in angles
    )


def record_from_disk_series(
    radius: float,
    sources,
    sys: LameSystem,
    rho: float,
    n_receivers: int,
    aperture=FULL_APERTURE,
    n_modes: int = 40,
) -> ScatterRecord:
    """ScatterRecord filled from the analytic disk solution (one series solve)."""
    _check_layout(n_receivers, aperture)
    if radius >= rho:
        raise ConfigError("measurement radius must exceed the disk")
    return measure(disk_series(radius, sources, sys, n_modes), rho, n_receivers, aperture)


def noise_perturbation(values: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """The seeded noise term delta r1 |v| exp(i pi r2) for each complex component of v."""
    if not 0.0 <= delta < 1.0:
        raise DomainError("noise level must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    r1 = rng.uniform(-1.0, 1.0, values.shape)
    r2 = rng.uniform(-1.0, 1.0, values.shape)
    out = np.empty(values.shape, dtype=complex)
    scale = delta * r1 * np.abs(values)
    r2 *= np.pi
    np.multiply(scale, np.cos(r2), out=out.real)
    np.multiply(scale, np.sin(r2), out=out.imag)
    return out


def add_noise(rec: ScatterRecord, delta: float, seed: int) -> ScatterRecord:
    """Perturb each complex component: v + delta r1 |v| exp(i pi r2)."""
    return replace(rec, values=rec.values + noise_perturbation(rec.values, delta, seed))
