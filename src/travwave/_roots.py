"""The bisection, the converged root and the sign-flip rule behind every
root search."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

XTOL = 1e-14  # brent's default width: a root is known to within it


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


def brent(fn, lo, hi, xtol: float = XTOL):
    """The root of the scalar fn between lo and hi, where fn changes sign,
    by Brent's method (scipy's brentq, at its rtol 4 eps) to within
    xtol + 4 eps |root|."""
    return float(brentq(fn, lo, hi, xtol=xtol))


def sign_changes(fn, u, tol):
    """Lazily yield the `brent` root of fn in each `flips` pair of its
    samples on u."""
    for i, j in flips(fn(u), tol):
        yield brent(lambda x: float(fn(x)), u[i], u[j])
