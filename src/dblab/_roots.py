"""Scalar root finding and bounded minimization without scipy.

Line-for-line ports of scipy's ``brentq`` (``Zeros/brentq.c``) and of the
bounded Brent minimizer behind ``minimize_scalar(method="bounded")``.  They
perform the same IEEE operations in the same order, so every root and
minimum is the same double scipy returns; the tests keep scipy as the
reference.  Importing this module costs nothing beyond the standard library.
"""

from __future__ import annotations

import math

_RTOL = 4 * 2.220446049250313e-16  # 4 * machine epsilon, scipy's floor
_MAXITER = 100  # brentq
_MAXFUN = 500  # minimize_bounded
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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


def minimize_bounded(f, lo: float, hi: float, xatol: float) -> float:
    """The smallest value of ``f`` that Brent's bounded search finds on
    [lo, hi]: golden-section steps with parabolic interpolation, stopping
    once the minimizer is pinned to ``xatol`` or after 500 evaluations."""
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = float(f(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return fx
