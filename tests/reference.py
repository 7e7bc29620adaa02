"""A long-double reference for averages over a Gaussian pulse's spectrum.

The trapezoid in u over the pulse's own window, on the map w = a + s sinh(u) with a
the window's point nearest the line centre w = 0 and s = hypot(a, 1 / 2), taken in
np.longdouble at the exact float inputs a caller passes. The density is taken at the
carrier offsets c + s sinh(u), c = a - detuning, so a window far from the line keeps
its offsets exact. Every row the package integrates is analytic in a strip about the
real u axis, so on the default 4096 panels the rule has converged far below float64
rounding (512 and 1024 panels agree with it to about 1e-18 in P_T, P_S and the delays
where the window holds the line), and where long double carries at least 64 bits of
mantissa its own rounding lies near 1e-19: the reference can say which float64 digit
is the correctly rounded one.
"""

import numpy as np

LONG = np.longdouble
# long double carries enough digits to judge float64's last printed digit
PRECISE = np.finfo(LONG).eps < 1e-18
WHY_NOT = f"long double eps {float(np.finfo(LONG).eps):.3g} is not below 1e-18 on this platform"


def integrals(sigma, detuning, rows, panels=4096, half=8):
    """The integral of each row of rows(w, dens), long double arrays of the nodes w and the
    density dens there, over the window +- half / sigma about the carrier, and the density's
    own integral first. Each lacks the same constant factor, which every ratio cancels."""
    sigma, detuning = LONG(sigma), LONG(detuning)
    half = LONG(half) / sigma
    lo, hi = detuning - half, detuning + half
    a, c = min(max(LONG(0), lo), hi), min(max(-detuning, -half), half)
    s = np.sqrt(a * a + LONG(0.25))
    u_lo, u_hi = np.arcsinh((-half - c) / s), np.arcsinh((half - c) / s)
    u = u_lo + (u_hi - u_lo) * np.arange(panels + 1, dtype=LONG) / panels
    weights = s * np.cosh(u)  # dw / du
    weights[[0, -1]] /= 2
    dens = np.exp(-2 * sigma**2 * (c + s * np.sinh(u)) ** 2)
    return [(weights * row).sum() for row in (dens, *rows(a + s * np.sinh(u), dens))]


def report(sigma, detuning, od0, panels=4096, half=8):
    """{P_T, P_S, tau_T, tau_S, od_eff} of a Gaussian pulse (sigma, detuning) through
    resonant depth od0, each a long double, on the window +- half / sigma (integrals)."""
    def rows(w, dens):
        line = 1 / (1 + 4 * w * w)
        x = LONG(od0) * line
        trans = dens * np.exp(-x)
        return trans, dens * -np.expm1(-x), trans * -x * (1 - 4 * w * w) * line

    norm, pt, ps, num = integrals(sigma, detuning, rows, panels, half)
    return {"P_T": pt / norm, "P_S": ps / norm, "tau_T": num / pt, "tau_S": 1 - num / ps,
            "od_eff": -np.log(pt / norm)}


def printed(value):
    """value, a float or a long double, with the 12 significant digits a figure CSV prints."""
    return np.format_float_scientific(value, precision=11, unique=False, exp_digits=2)


def near_boundary(value, rel=1e-15):
    """Whether a long double value lies within rel of a boundary between two of its
    12-digit roundings, where float64 rounding may fall either way."""
    lo, hi = LONG(value) * (1 - LONG(rel)), LONG(value) * (1 + LONG(rel))
    return printed(lo) != printed(hi)
