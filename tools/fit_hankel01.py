"""Fit the Chebyshev coefficients of elshape's order-0/1 Hankel kernel.

`specfun.hankel1_table` evaluates H_0^(1) and H_1^(1) in two regions
split at t = T1.  Each region holds four Chebyshev series, interpolated
here from mpmath at NODES first-kind nodes and cut to TERMS terms:

  t <= T1, in x = 2 (t/T1)^2 - 1:
      J_0,   J_1 / t,   Y_0 - (2/pi) ln(t/2) J_0,
      (Y_1 - (2/pi) ln(t/2) J_1 + 2/(pi t)) / t;
  t > T1, in x = 2 (T1/t)^2 - 1, the modulus-phase factors of
      H_nu = sqrt(2/(pi t)) (P_nu + i Q_nu) exp(i (t - (2 nu + 1) pi/4)):
      P_0,   t Q_0,   P_1,   t Q_1.

All eight are smooth in x on [-1, 1] (the first four are entire in t^2).
The script prints the `_CHEB` array of `src/elshape/specfun.py`; the
test suite reruns `fit()` and checks that the committed array matches it
bit for bit.  Run from the repository root (about 1 s):

    python tools/fit_hankel01.py
"""

import mpmath

#: region boundary of the kernel; specfun.T1 must equal it
T1 = 8
#: Chebyshev terms kept per series
TERMS = 16
#: interpolation nodes per series
NODES = 48
#: working precision of the fit, in decimal digits
DIGITS = 40

ROW_NAMES = (
    "J0", "J1 / t", "Y0 - (2/pi) ln(t/2) J0", "(Y1 - (2/pi) ln(t/2) J1 + 2/(pi t)) / t",
    "P0", "t Q0", "P1", "t Q1",
)


def near_rows(x):
    """The four t <= T1 series at the Chebyshev variable x."""
    t = T1 * mpmath.sqrt((1 + x) / 2)
    j0, j1 = mpmath.besselj(0, t), mpmath.besselj(1, t)
    log_term = 2 / mpmath.pi * mpmath.log(t / 2)
    return [
        j0,
        j1 / t,
        mpmath.bessely(0, t) - log_term * j0,
        (mpmath.bessely(1, t) - log_term * j1 + 2 / (mpmath.pi * t)) / t,
    ]


def far_rows(x):
    """The four t > T1 series at the Chebyshev variable x."""
    t = T1 / mpmath.sqrt((1 + x) / 2)
    rows = []
    for nu in (0, 1):
        pq = mpmath.sqrt(mpmath.pi * t / 2) * mpmath.hankel1(nu, t) * mpmath.expj(
            -(t - (2 * nu + 1) * mpmath.pi / 4)
        )
        rows += [pq.real, t * pq.imag]
    return rows


def fit():
    """The eight coefficient rows, TERMS floats each, in ROW_NAMES order."""
    with mpmath.workdps(DIGITS):
        angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
        cosines = [[mpmath.cos(k * a) for a in angles] for k in range(TERMS)]
        coeffs = []
        for rows_at in (near_rows, far_rows):
            samples = [rows_at(mpmath.cos(a)) for a in angles]
            for i in range(4):
                row = []
                for k in range(TERMS):
                    c = 2 * mpmath.fsum(s[i] * w for s, w in zip(samples, cosines[k])) / NODES
                    row.append(float(c / 2 if k == 0 else c))
                coeffs.append(row)
    return coeffs


def source(coeffs) -> str:
    """`coeffs` as the `_CHEB` assignment of specfun.py, three values a line."""
    lines = ["_CHEB = np.array(["]
    for name, row in zip(ROW_NAMES, coeffs):
        lines.append(f"    # {name}")
        chunks = [", ".join(map(repr, row[lo:lo + 3])) for lo in range(0, TERMS, 3)]
        lines.append("    [" + ",\n     ".join(chunks) + "],")
    lines.append("])")
    return "\n".join(lines)


if __name__ == "__main__":
    print(source(fit()))
