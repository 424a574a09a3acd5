"""Bessel and Hankel functions of integer order, with derivatives.

Everything downstream (fundamental solutions, modal expansions, Newton
kernels) reduces to J_n, Y_n, H_n^(1) and the first two derivatives of
H_n^(1), plus log-Gamma for magnitude estimates.  Evaluations are backed
by scipy.special (cephes/amos), which meets the 1e-12 relative accuracy
target on the working range 0 <= n <= 60, 1e-3 <= t <= 100.

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
