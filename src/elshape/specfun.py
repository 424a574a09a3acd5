"""Bessel and Hankel functions of integer order, with derivatives.

Everything downstream (fundamental solutions, modal expansions, Newton
kernels) reduces to J_n, Y_n, H_n^(1) and the first two derivatives of
H_n^(1), plus log-Gamma for magnitude estimates.  Evaluations are backed
by scipy.special (cephes/amos), which meets the 1e-12 relative accuracy
target on the working range 0 <= n <= 60, 1e-3 <= t <= 100.

Two routes give H_n^(1):
  * ``hankel1_table(N, t)`` fills every order 0..N at once: orders 0 and 1
    from cephes J_0, Y_0, J_1, Y_1, higher orders by the upward recurrence
    H_{n+1} = (2n/t) H_n - H_{n-1}.  Upward recurrence is stable for
    H^(1) because Y_n, which it carries, dominates once n > t; against
    mpmath its worst relative error on the working range is 6e-15.  The
    hot tables use it: the point-source kernels in ``elastic`` (Green
    tensor, incident field and its gradient, hence the MFS solve) and the
    modal tables H_n(k r) / H_n(k R) in ``modal``.
  * ``hankel1(n, t)`` is scipy's general-order AMOS routine, for any order
    set.  The disk-series oracle in ``forward`` and the Hankel identity
    checks in ``verify`` stay on it, so the oracle that the MFS solve is
    compared against does not share its Hankel kernel with the solver.

Conventions:
  * negative integer orders go straight to scipy, whose result equals the
    reflection C_{-n} = (-1)^n C_n (valid for J, Y and H^(1) alike) exactly;
  * H_n^(1)'(t) = H_{n-1}^(1)(t) - (n/t) H_n^(1)(t);
  * H_n^(1)''(t) = -(1/t) H_n^(1)'(t) - (1 - n^2/t^2) H_n^(1)(t)
    (the Bessel differential equation).

All functions broadcast over numpy arrays in both order and argument and
are pure, so they are safe for concurrent use.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "bessel_j",
    "bessel_y",
    "hankel1",
    "hankel1_table",
    "hankel1_d1",
    "hankel1_d2",
    "ln_gamma",
]


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
    return _sp.jv(_check_order(n), t)


def bessel_y(n, t):
    """Bessel function of the second kind Y_n(t), integer n, t > 0."""
    t = _check_argument(t)
    return _sp.yv(_check_order(n), t)


def hankel1(n, t):
    """Hankel function of the first kind H_n^(1)(t) = J_n(t) + i Y_n(t)."""
    t = _check_argument(t)
    return _sp.hankel1(_check_order(n), t)


def hankel1_table(N, t):
    """H_0^(1)(t) .. H_N^(1)(t) for t > 0, shape (N+1,) + np.shape(t).

    Orders 0 and 1 come from cephes, the rest from the upward recurrence
    run separately on the real (J) and imaginary (Y) parts.  Where H_n
    overflows the entries become non-finite, as AMOS's do.
    """
    t = _check_argument(t)
    if not (isinstance(N, (int, np.integer)) and N >= 0):
        raise DomainError("table order N must be a nonnegative integer")
    h = np.empty((N + 1,) + t.shape, dtype=complex)
    j, y = h.real, h.imag
    _sp.j0(t, out=j[0, ...])
    _sp.y0(t, out=y[0, ...])
    if N >= 1:
        _sp.j1(t, out=j[1, ...])
        _sp.y1(t, out=y[1, ...])
    inv_t = 1.0 / t
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N):
            two_n_t = (2.0 * n) * inv_t
            np.subtract(two_n_t * j[n], j[n - 1], out=j[n + 1, ...])
            np.subtract(two_n_t * y[n], y[n - 1], out=y[n + 1, ...])
    return h


def hankel1_d1(n, t):
    """First derivative H_n^(1)'(t) via H_{n-1} - (n/t) H_n."""
    t = _check_argument(t)
    n = np.asarray(n)
    return hankel1(n - 1, t) - (n / t) * hankel1(n, t)


def hankel1_d2(n, t):
    """Second derivative H_n^(1)''(t) from the Bessel ODE."""
    t = _check_argument(t)
    n = np.asarray(n)
    h = hankel1(n, t)
    hp = hankel1(n - 1, t) - (n / t) * h
    return -hp / t - (1.0 - (n / t) ** 2) * h


def ln_gamma(x):
    """log Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("ln_gamma requires x > 0")
    return _sp.gammaln(x)
