"""The bisection and the sign-change scan behind every root search."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq


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


def sign_changes(fn, u, tol):
    """Lazily yield the brentq root at each sign flip of fn on the samples u,
    pairing each sample with |fn| > tol with the next such sample."""
    vals = np.asarray(fn(u), dtype=float)
    sgn = np.sign(np.where(np.abs(vals) <= tol, 0.0, vals))
    nz = np.nonzero(sgn)[0]
    for i, j in zip(nz[:-1], nz[1:]):
        if sgn[i] * sgn[j] < 0:
            yield float(brentq(lambda x: float(fn(x)), u[i], u[j], xtol=1e-14))
