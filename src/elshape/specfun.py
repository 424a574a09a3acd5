"""Bessel and Hankel functions of integer order, with derivatives.

Everything downstream (fundamental solutions, modal expansions, Newton
kernels) reduces to J_n, Y_n, H_n^(1) and the first two derivatives of
H_n^(1), plus log-Gamma for magnitude estimates.

Two routes give H_n^(1):
  * ``hankel1_table(N, t)`` fills every order 0..N at once and needs only
    numpy.  Orders 0 and 1 come from a kernel with two regions split at
    T1 = 8, each evaluating four Chebyshev series from one T_k table:
      - t <= T1, in x = 2 (t/T1)^2 - 1: J_0, J_1/t and the entire
        remainders Y_0 - (2/pi) ln(t/2) J_0 and
        (Y_1 - (2/pi) ln(t/2) J_1 + 2/(pi t))/t;
      - t > T1, in x = 2 (T1/t)^2 - 1: the modulus-phase factors P_nu and
        t Q_nu of H_nu = sqrt(2/(pi t)) (P_nu + i Q_nu) e^{i(t - (2nu+1)pi/4)},
        rebuilt from one cos t and one sin t (t - pi/4 is never rounded).
    Each region runs on its own arguments, gathered from the block, and its
    two rows are written back into the block's output: the logarithm is
    taken only for t <= T1, the square root, cosine and sine only for
    t > T1.  Both regions' series arguments lie side by side in one T_k
    table, filled by one recurrence; a region's four series are one BLAS
    product with its column segment, zero-padded to a multiple of 8 columns
    so that every column takes the same micro-kernel; a value then does not
    depend on the batch it is evaluated in (a property of the BLAS build,
    which ``tests/test_specfun.py`` pins bit for bit).  The 16-term coefficients
    are fitted from mpmath by ``tools/fit_hankel01.py``.  Against mpmath on
    2000 log-spaced points of [1e-3, 100] the worst relative error of H_0
    and H_1 is 1.5e-15 (cephes j0/y0/j1/y1, which this kernel replaced:
    6.3e-15).  Higher orders follow from the
    upward recurrence H_{n+1} = (2n/t) H_n - H_{n-1} (1/t is formed only
    when the table goes past order 1), which is stable for
    H^(1) because Y_n, which it carries, dominates once n > t; against
    mpmath its worst relative error on orders 0..60 is 6.5e-15.  The modal
    tables H_n(k r) / H_n(k R) in ``modal`` use it, with one call for both
    wavenumbers; the point-source kernels in ``elastic`` (Green tensor,
    incident field and its gradient, hence the MFS solve) need orders 0..2
    and call only the kernel pass ``hankel01(t)``, forming H_2 themselves.
    The pass and the recurrence ``hankel1_table(N, t, rows)`` are separate,
    so a caller can run one pass over several consumers' arguments (the
    Newton iterate writes the incident field's and the modal tables' into
    one buffer) and extend only the columns that need higher orders.  The
    recurrence steps J and Y together on the table's float view, three
    ufunc calls per order for both (two each would take five), with the
    same arithmetic for each float entry; that pays on small tables such
    as a Newton iterate's, where call overhead dominates.
  * ``hankel1(n, t)`` and the other AMOS wrappers (``bessel_j``,
    ``bessel_y``, ``ln_gamma``) call scipy.special, imported on first use.
    Only the disk-series oracle in ``forward`` and the checks in ``verify``
    use them, so the solver path imports no scipy and the oracle that the
    MFS solve is compared against shares no Hankel library with it (it does
    share ``modal``'s per-mode algebra).

Conventions:
  * ``derivatives`` owns C_n' = C_{n-1} - (n/t) C_n and, by the Bessel
    equation, C_n'' = -C_n'/t - (1 - n^2/t^2) C_n (DLMF 10.6.2), checked
    by finite differences; it always returns both, as does
  * ``cylinder_tables``, which owns the tables of orders -N..N around it:
    orders 0..max(N, 1) from either route, C_{-1} = -C_1 to close C_0', and
    C_{-n} = (-1)^n C_n (DLMF 10.4; J, Y and H^(1) alike), which AMOS's own
    negative orders equal exactly.  Every negative order in the package
    comes from it, so AMOS is asked for orders >= 0 only.

All functions broadcast over numpy arrays in both order and argument and
are pure, so they are safe for concurrent use.
"""

import numpy as np

from .errors import DomainError

__all__ = [
    "bessel_j",
    "bessel_y",
    "hankel1",
    "hankel01",
    "hankel1_table",
    "derivatives",
    "cylinder_tables",
    "ln_gamma",
]


def _amos():
    """scipy.special, imported on first use: only the AMOS wrappers need it."""
    from scipy import special

    return special


def _check_argument(t):
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("bessel argument must be finite")
    if np.any(t <= 0.0):
        raise DomainError("bessel argument must be positive")
    return t


def _check_order(n):
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer):
        raise DomainError("order must be integer")
    return n


def bessel_j(n, t):
    """Bessel function of the first kind J_n(t), integer n, t > 0."""
    t = _check_argument(t)
    return _amos().jv(_check_order(n), t)


def bessel_y(n, t):
    """Bessel function of the second kind Y_n(t), integer n, t > 0."""
    t = _check_argument(t)
    return _amos().yv(_check_order(n), t)


def hankel1(n, t):
    """Hankel function of the first kind H_n^(1)(t) = J_n(t) + i Y_n(t)."""
    t = _check_argument(t)
    return _amos().hankel1(_check_order(n), t)


# ---------------------------------------------------------------------------
# orders 0 and 1 in numpy
# ---------------------------------------------------------------------------

#: region boundary of the order-0/1 kernel (tools/fit_hankel01.py fits to it)
T1 = 8.0
#: arguments per kernel pass; bounds the T_k table at 1 MB
_BLOCK = 8192
#: Chebyshev coefficients written by tools/fit_hankel01.py; rows 0-3 are
#: series in 2 (t/T1)^2 - 1 for t <= T1, rows 4-7 in 2 (T1/t)^2 - 1 for t > T1
_CHEB = np.array([
    # J0
    [0.15772797147489012, -0.008723442352852221, 0.2651786132033368,
     -0.37009499387264977, 0.15806710233209725, -0.034893769411408884,
     0.004819180069467605, -0.00046062616620627504, 3.246032882100508e-05,
     -1.7619469077621507e-06, 7.608163592418782e-08, -2.679253530557673e-09,
     7.848696314479465e-11, -1.9438346867370164e-12, 4.125320595634374e-14,
     -7.588508125447546e-16],
    # J1 / t
    [0.08104484632565812, -0.1489751450676521, 0.1609992623572097,
     -0.08268049176681791, 0.022213639654966037, -0.003646940600769276,
     0.0004050337728354822, -3.255554866857259e-05, 1.9858774049915165e-06,
     -9.521984756750436e-08, 3.687133759097148e-09, -1.178026622695885e-10,
     3.160154580348003e-12, -7.221755239651773e-14, 1.4232144003513942e-15,
     -2.4441972916190464e-17],
    # Y0 - (2/pi) ln(t/2) J0
    [0.03645469809116044, -0.2783237094075825, 0.2960499990207148,
     0.09825508408187864, -0.10755155280627783, 0.031799074084414514,
     -0.005161397105810715, 0.0005498525320039012, -4.1996983149420134e-05,
     2.4290361107923793e-06, -1.1049969793472957e-07, 4.06651736597911e-09,
     -1.2374148898289854e-10, 3.1685725528945945e-12, -6.926956032431002e-14,
     1.3086308625876684e-15],
    # (Y1 - (2/pi) ln(t/2) J1 + 2/(pi t)) / t
    [0.038300769852423776, -0.08182561412732826, -0.0248677076121964,
     0.047967452752746984, -0.01852588451089802, 0.003680607687823511,
     -0.0004627254060293369, 4.06940026958087e-05, -2.6617695125295625e-06,
     1.350602691325434e-07, -5.483524110336276e-09, 1.8245086841229007e-10,
     -5.070666636591129e-12, 1.1956162517587948e-13, -2.423162442712473e-15,
     4.268126513072962e-17],
    # P0
    [0.9994603493475187, -0.0005365220468132117, 3.0751847875194745e-06,
     -5.1705945376060975e-08, 1.6306464635151382e-09, -7.86409137723707e-11,
     5.168262387349193e-12, -4.3045788699253914e-13, 4.3265957431549404e-14,
     -5.069034095935236e-15, 6.748072215733873e-16, -1.0011513723467786e-16,
     1.6305919233744186e-17, -2.880866169482871e-18, 5.468082783259038e-19,
     -1.1062036496829717e-19],
    # t Q0
    [-0.12444683684269607, 0.0005470815954089319, -5.9315987288485175e-06,
     1.4377965798375193e-07, -5.817532749493056e-09, 3.376097523734991e-10,
     -2.565397936797308e-11, 2.404916100281365e-12, -2.6690625482579414e-13,
     3.4041800321963686e-14, -4.87994410531204e-15, 7.729703176242605e-16,
     -1.3348852171502517e-16, 2.4865952389390515e-17, -4.952892629886516e-18,
     1.0473158973776097e-18],
    # P1
    [1.0009030408600137, 0.0008989898330859408, -3.987284300488908e-06,
     6.177633960644299e-08, -1.8718907491063067e-09, 8.816898659582339e-11,
     -5.704863640395645e-12, 4.699195515230542e-13, -4.6842237839904895e-14,
     5.452674896044717e-15, -7.221180842274018e-16, 1.0667689114335412e-16,
     -1.7312313216116335e-17, 3.0492991197665872e-18, -5.772421654987453e-19,
     1.165057175571149e-19],
    # t Q1
    [0.3742222965562826, -0.0007702178839325664, 7.3108922063643636e-06,
     -1.676782510726674e-07, 6.583354662120443e-09, -3.749090950541556e-10,
     2.8121750359748866e-11, -2.61145253946232e-12, 2.8774212663332235e-13,
     -3.649001916061838e-14, 5.206626366226707e-15, -8.215318025458595e-16,
     1.4141084390211833e-16, -2.626761589838529e-17, 5.2192649196714085e-18,
     -1.101261718787959e-18],
])
#: +1 for order 0, -1 for order 1: folds the phases e^{-i pi/4}, e^{-3i pi/4}
_SIGN = np.array([[1.0], [-1.0]])


def _near(t, f):
    """J_nu + i Y_nu, nu = 0, 1, at 0 < t <= T1, shape (2, t.size), from the
    rows 0-3 of _CHEB summed at x = (t/T1)^2 (f)."""
    h = np.empty((2, t.size), dtype=complex)
    j, y = h.real, h.imag
    log_term = np.log(0.5 * t)
    log_term *= 2.0 / np.pi
    j[0] = f[0]
    np.multiply(t, f[1], out=j[1])
    y[0] = f[2]
    np.multiply(t, f[3], out=y[1])
    y[1] -= (2.0 / np.pi) / t
    y += log_term * j
    return h


def _far(t, f):
    """H_nu, nu = 0, 1, at t > T1, shape (2, t.size), from the rows
    (P_nu, t Q_nu) of _CHEB 4-7 summed at x = (T1/t)^2 (f).

    (P + iQ) e^{-i(2nu+1)pi/4} = (X + iY)/sqrt(2) with X = Q + s P and
    Y = s Q - P, s = +1 (nu = 0) or -1 (nu = 1), so that
    H_nu = (X + iY)(cos t + i sin t) / sqrt(pi t).
    """
    inv_t = 1.0 / t
    scale = np.sqrt(inv_t * (1.0 / np.pi))
    c = np.cos(t)
    c *= scale
    s = np.sin(t)
    s *= scale
    p, q = f[0::2], f[1::2] * inv_t
    x = q + _SIGN * p
    y = _SIGN * q - p
    h = np.empty((2, t.size), dtype=complex)
    re, im = h.real, h.imag
    np.multiply(x, c, out=re)
    re -= y * s
    np.multiply(x, s, out=im)
    im += y * c
    return h


def _series(parts):
    """The four _CHEB series of each region, (4, part.size), at the arguments t <= T1
    and t > T1 in ``parts``, from one T_k table: the regions' arguments lie side by
    side, x = (t/T1)^2 and then x = (T1/t)^2, each segment padded with x = 0 to a
    multiple of 8 columns, so that every column takes the same BLAS micro-kernel and
    a value does not depend on its batch; one recurrence fills the table, and one
    product per region on its column view sums the series.  Returning frees the
    table before the regions' own arithmetic allocates its temporaries."""
    width = [-(-part.size // 8) * 8 for part in parts]
    table = np.empty((_CHEB.shape[1], sum(width)))
    table[0] = 1.0
    u = table[1]  # u = 2x - 1, and -1 in the padding
    u[:] = 0.0
    for part, lo, inverse in zip(parts, (0, width[0]), (False, True)):
        x = part * (1.0 / T1)
        x *= x
        if inverse:
            np.divide(1.0, x, out=x)
        np.multiply(2.0, x, out=u[lo : lo + part.size])
    u -= 1.0
    two_u = u + u
    for k in range(1, len(table) - 1):
        np.multiply(two_u, table[k], out=table[k + 1])
        table[k + 1] -= table[k - 1]
    cols = slice(0, width[0]), slice(width[0], None)
    return [(_CHEB[4 * i : 4 * i + 4] @ table[:, c])[:, : part.size]
            for i, (part, c) in enumerate(zip(parts, cols))]


def _orders01(t, out):
    """H_0^(1), H_1^(1) at the 1-D array t into out, shape (2, t.size): both
    regions' series from one ``_series`` table, then each region's rows written
    back by a 1-D mask."""
    near = t <= T1
    parts = t[near], t[~near]
    for where, part, branch, f in zip((near, ~near), parts, (_near, _far), _series(parts)):
        if part.size:
            for row, value in zip(out, branch(part, f)):
                row[where] = value


def hankel01(t):
    """H_0^(1)(t), H_1^(1)(t) for t > 0, shape (2,) + np.shape(t): one pass of
    the order-0/1 kernel, in blocks of _BLOCK arguments."""
    t = _check_argument(t)
    h = np.empty((2,) + t.shape, dtype=complex)
    flat_t, flat_h = t.reshape(-1), h.reshape(2, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, flat_t.size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            _orders01(flat_t[block], flat_h[:, block])
    return h


def hankel1_table(N, t, rows=None):
    """H_0^(1)(t) .. H_N^(1)(t) for t > 0, shape (N+1,) + np.shape(t).

    Orders 0 and 1 are ``rows`` when given (``hankel01`` at these t, e.g.
    sliced from a pass over several consumers' arguments), else one
    ``hankel01`` pass; the rest come from the upward recurrence, run on the
    real (J) and imaginary (Y) parts together through the float view, with
    1/t repeated for each.  Where H_n overflows the entries become
    non-finite, as AMOS's do.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 0):
        raise DomainError("table order N must be a nonnegative integer")
    if rows is None:
        rows = hankel01(t)
    if N <= 1:
        return rows[: N + 1]
    t = np.asarray(t, dtype=float)
    h = np.empty((N + 1,) + t.shape, dtype=complex)
    h[:2] = rows
    jy = h.reshape(N + 1, -1).view(float)  # (J, Y) interleaved per argument
    inv_t = np.repeat(1.0 / t.reshape(-1), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N):
            np.subtract((2.0 * n) * inv_t * jy[n], jy[n - 1], out=jy[n + 1])
    return h


def derivatives(c_prev, c, n, t):
    """(C_n'(t), C_n''(t)) of any cylinder function C from C_{n-1}(t) and C_n(t)."""
    d1 = c_prev - (n / t) * c
    return d1, -d1 / t - (1.0 - (n / t) ** 2) * c


def cylinder_tables(table, N, t):
    """[C, C', C''] for n = -N..N as one (3, 2N+1) + t.shape array, which a caller
    may scale in place, from ``table(m, t)``, which gives C_0(t) .. C_m(t) on a
    leading axis (as ``hankel1_table`` does).

    Where C overflows the entries become non-finite without a warning, for
    the caller's guard to refuse.
    """
    t = np.asarray(t, dtype=float)
    c = table(max(N, 1), t)  # C_1 even at N = 0: C_{-1} = -C_1 closes C_0'
    n = np.arange(N + 1).reshape((-1,) + (1,) * t.ndim)
    out = np.empty((3, 2 * N + 1) + c.shape[1:], dtype=c.dtype)
    out[0, N:] = c[: N + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out[1, N:], out[2, N:] = derivatives(np.concatenate([-c[1:2], c[:N]]), c[: N + 1], n, t)
    odd = slice(1 - N % 2, N, 2)  # C_{-n} = (-1)^n C_n: the rows of -1, -3, .. -N
    out[:, :N] = out[:, : N : -1]
    np.negative(out[:, odd], out=out[:, odd])
    return out


def ln_gamma(x):
    """log Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("ln_gamma requires x > 0")
    return _amos().gammaln(x)
