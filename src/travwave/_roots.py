"""The bisection, the converged root and the sign-flip rule behind every
root search."""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketFailureError, NonconvergenceError

XTOL = 1e-14  # brent's default width: a root is known to within it
RTOL = 4.0 * float(np.finfo(float).eps)  # brent's relative width, brentq's
MAXITER = 100  # brent's iterations before it gives up, brentq's


def bisect(side, lo, hi, tol):
    """Halve [lo, hi] to width <= tol: side(mid) > 0 moves hi, < 0 (or NaN)
    moves lo, and an exact zero returns (mid, mid)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s = side(mid)
        if s == 0.0:
            return mid, mid
        if s > 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def flips(values, tol) -> list[tuple[int, int]]:
    """Index pairs (i, j), in order, where the samples change sign: each
    sample with |v| > tol pairs with the next such sample, and a NaN pairs
    with nothing."""
    v = np.asarray(values, dtype=float)
    nz = np.flatnonzero(~(np.abs(v) <= tol))
    flip = np.sign(v[nz[:-1]]) * np.sign(v[nz[1:]]) < 0.0
    return list(zip(nz[:-1][flip].tolist(), nz[1:][flip].tolist()))


def brent(fn, lo, hi, xtol: float = XTOL) -> float:
    """The root of the scalar fn between lo and hi, where fn changes sign,
    by Brent's method (Algorithms for Minimization without Derivatives,
    1973, ch. 4) to within xtol + RTOL |root|.

    A port of scipy's C brentq on plain floats, giving its bits: the same
    iteration, the same choice of inverse interpolation, extrapolation or
    bisection, and the same least step, delta, half the tolerance.  Ends
    of one sign or a NaN value of fn raise BracketFailureError, and
    MAXITER iterations without convergence NonconvergenceError."""
    def value(x):
        v = float(fn(x))
        if v != v:
            raise BracketFailureError(
                f"f({x!r}) is NaN in the bracket [{lo!r}, {hi!r}]")
        return v

    xpre, xcur = float(lo), float(hi)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketFailureError(
            f"no sign change on [{xpre!r}, {xcur!r}]: f = {fpre!r}, {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the better end
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # no step to try: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is inf or NaN: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NonconvergenceError(
        f"brent: no convergence in {MAXITER} iterations on [{lo!r}, {hi!r}]; "
        f"last x = {xcur!r}, f = {fcur!r}")


def sign_changes(fn, u, tol):
    """Lazily yield the `brent` root of fn in each `flips` pair of its
    samples on u."""
    for i, j in flips(fn(u), tol):
        yield brent(lambda x: float(fn(x)), u[i], u[j])
