"""The shared bisection and sign-change scan behind every root search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from travwave._roots import bisect, sign_changes


def _counted(fn):
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)
    return wrapped, calls


@pytest.mark.parametrize("lo,hi,tol", [(0.0, 1.0, 1e-3), (-3.0, 5.0, 1e-8),
                                       (0.2, 0.7, 0.3)])
def test_bisect_width_and_call_count(lo, hi, tol):
    root = lo + (hi - lo) / math.pi   # never a dyadic midpoint
    side, calls = _counted(lambda m: m - root)
    a, b = bisect(side, lo, hi, tol)
    assert b - a <= tol
    assert a <= root <= b
    assert len(calls) == math.ceil(math.log2((hi - lo) / tol))


def test_bisect_stops_at_exact_zero():
    side, calls = _counted(lambda m: m - 0.25)
    assert bisect(side, 0.0, 1.0, 1e-12) == (0.25, 0.25)
    assert calls == [0.5, 0.25]


def test_bisect_nan_moves_lo():
    assert bisect(lambda m: float("nan"), 0.0, 1.0, 0.25) == (0.75, 1.0)


def test_sign_changes_finds_three_roots():
    def quintic(u):
        u = np.asarray(u, dtype=float)
        return (u - 0.13) * (u - 0.47) * (u - 0.81) * (u * u + 1.0)
    roots = list(sign_changes(quintic, np.linspace(0.0, 1.0, 101), 1e-12))
    assert roots == pytest.approx([0.13, 0.47, 0.81], abs=1e-13)


def test_sign_changes_skips_near_zero_samples():
    u = np.linspace(0.0, 1.0, 11)
    # a tangency whose sample at u = 0.5 dips to -1e-13: within tol, no flip
    touch = lambda x: (np.asarray(x) - 0.5) ** 2 - 1e-13
    assert list(sign_changes(touch, u, 1e-12)) == []
    assert len(list(sign_changes(touch, u, 1e-14))) == 2
    # an exact zero sample pairs its neighbours across it
    assert list(sign_changes(lambda x: np.asarray(x) - 0.5, u, 1e-12)) == [0.5]


def test_sign_changes_is_lazy():
    fn, calls = _counted(lambda x: np.sin(2.0 * np.pi * np.asarray(x) * 2.5))
    u = np.linspace(0.01, 0.99, 50)
    gen = sign_changes(fn, u, 1e-12)
    assert calls == []
    assert next(gen) == pytest.approx(0.2, abs=1e-13)
    # one sampling pass, then brentq only inside the first bracket
    assert calls[0] is u
    assert len(calls) > 1 and all(u[9] <= x <= u[10] for x in calls[1:])
