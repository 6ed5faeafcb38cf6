"""Scalar root finding without scipy.

A line-for-line port of scipy's ``brentq`` (``Zeros/brentq.c``).  It
performs the same IEEE operations in the same order, so every root is the
same double scipy returns; the tests keep scipy as the reference.
Importing this module costs nothing beyond the standard library.
"""

from __future__ import annotations

import math

_RTOL = 4 * 2.220446049250313e-16  # 4 * machine epsilon, scipy's floor
_MAXITER = 100


def _checked(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (1973): inverse quadratic interpolation or secant steps,
    falling back to bisection, until the bracket is narrower than
    ``xtol + 4*eps*|x|``.  Raises ValueError on a same-sign bracket or a NaN
    value, and RuntimeError after 100 iterations without convergence.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(f, xpre)
    fcur = _checked(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
