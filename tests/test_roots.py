"""The shared bisection, converged root and sign-flip rule behind every
root search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from travwave._roots import bisect, brent, flips, sign_changes
from travwave.errors import BracketFailureError


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


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-3.0, 5.0)])
def test_brent_converges_in_fewer_calls_than_bisect(lo, hi):
    # a smooth monotone function, like the manifold gap near c*
    root = lo + (hi - lo) / math.pi
    fn, calls = _counted(lambda x: math.expm1(x - root) + 0.5 * (x - root))
    r = brent(fn, lo, hi)
    assert isinstance(r, float) and abs(r - root) <= 1e-14 * max(1.0, abs(root))
    assert len(calls) < math.ceil(math.log2((hi - lo) / 1e-14)) / 2


def test_brent_refuses_ends_of_one_sign():
    # scipy's brentq raised an untyped ValueError
    with pytest.raises(BracketFailureError, match=r"no sign change on "
                       r"\[0\.5, 2\.0\]: f = 0\.25, 4\.0"):
        brent(lambda x: x * x, 0.5, 2.0)


def test_brent_refuses_a_nan():
    # at an end, and on the way where the function has a hole
    with pytest.raises(BracketFailureError, match=r"f\(0\.0\) is NaN in "
                       r"the bracket \[0\.0, 1\.0\]"):
        brent(lambda x: math.nan if x == 0.0 else x - 0.3, 0.0, 1.0)
    fn, calls = _counted(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5)
    with pytest.raises(BracketFailureError, match=r"f\(0\.5\) is NaN in "
                       r"the bracket \[0\.0, 1\.0\]"):
        brent(fn, 0.0, 1.0)
    assert calls == [0.0, 1.0, 0.5]


def test_bisect_stops_at_exact_zero():
    side, calls = _counted(lambda m: m - 0.25)
    assert bisect(side, 0.0, 1.0, 1e-12) == (0.25, 0.25)
    assert calls == [0.5, 0.25]


def test_bisect_nan_moves_lo():
    assert bisect(lambda m: float("nan"), 0.0, 1.0, 0.25) == (0.75, 1.0)


def test_flips_skips_samples_within_tol():
    # |v| <= tol is no sign: its neighbours pair across it
    assert flips([-1.0, 0.0, 2.0], 0.0) == [(0, 2)]
    assert flips([-1.0, 1e-13, -1e-13, 2.0], 1e-12) == [(0, 3)]
    assert flips([-1.0, 1e-13, 2.0], 1e-14) == [(0, 1)]
    assert flips([0.0, 0.0, 0.0], 0.0) == []


def test_flips_nan_pairs_with_nothing():
    # a NaN is a sample, so it breaks the pair across it
    assert flips([-1.0, np.nan, 1.0], 0.0) == []
    assert flips([-1.0, np.nan, 1.0, -1.0], 0.0) == [(2, 3)]


def test_flips_come_back_in_order():
    v = [1.0, -2.0, -3.0, 0.0, 4.0, 5.0, -6.0]
    pairs = flips(v, 0.0)
    assert pairs == [(0, 1), (2, 4), (5, 6)]
    assert all(type(k) is int for pair in pairs for k in pair)
    assert flips([], 0.0) == [] and flips([1.0], 0.0) == []


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
