"""The package's own numerics against the scipy routines they replace, bit
for bit: Brent's root finder (`_roots.brent`, scipy's brentq), the DOP853
tableau (`_dop853`), Simpson's rule (`control_construct._simpson`,
simpson) and the cumulative trapezoid (`profile._cumulative_trapezoid`,
cumulative_trapezoid).  The PCHIP (`phaseplane._pchip`) has its oracle in
test_phaseplane.py.  The package imports none of these from scipy; its
tests keep them as oracles.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from scipy.integrate import DOP853, cumulative_trapezoid, simpson
from scipy.optimize import brentq

import travwave._dop853 as dop
import travwave.control_construct as cc
from travwave._roots import brent
from travwave.errors import BracketFailureError, NonconvergenceError
from travwave.profile import _cumulative_trapezoid


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _same(a, b) -> bool:
    """Equal to the bit, signed zeros and NaNs included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("name", ["A", "B", "C", "E3", "E5", "A_EXTRA",
                                  "C_EXTRA", "D"])
def test_the_tableau_is_dop853_s(name):
    assert _same(getattr(dop, name), getattr(DOP853, name))


def test_the_stage_count_and_exponent_are_dop853_s():
    assert dop.N_STAGES == DOP853.n_stages
    assert dop.EXPONENT == -1.0 / (DOP853.error_estimator_order + 1)


# four smooth families with one root at b in the bracket, and a kinked one
FAMILIES = [
    lambda a, b: lambda x: math.expm1(a * (x - b)) + 0.3 * (x - b),
    lambda a, b: lambda x: (x - b) ** 3 + a * (x - b),
    lambda a, b: lambda x: math.tanh(a * (x - b)) - 0.05 * math.sin(7.0 * x),
    lambda a, b: lambda x: (x - b) * (x * x + a) - 1e-3,
    lambda a, b: lambda x: a * (x - b) if x > b else (x - b) / a,
]


def _brackets(n: int, seed: int = 0):
    """n seeded (fn, lo, hi, xtol): a family, a root b, a bracket of either
    orientation around it (an end at b itself one time in ten, where most
    families are exactly zero) and xtol log-uniform in [1e-14, 1e-3]."""
    rng = random.Random(seed)
    for k in range(n):
        a, b = rng.uniform(0.1, 10.0), rng.uniform(-1.0, 1.0)
        lo, hi = b - rng.uniform(0.01, 5.0), b + rng.uniform(0.01, 5.0)
        if k % 10 == 0:
            lo = b
        if rng.random() < 0.5:
            lo, hi = hi, lo
        yield FAMILIES[k % len(FAMILIES)](a, b), lo, hi, \
            10.0 ** rng.uniform(-14.0, -3.0)


def test_brent_is_brentq_on_seeded_brackets():
    agreed = zero_ends = refused = 0
    for fn, lo, hi, xtol in _brackets(10_000):
        try:
            want = brentq(fn, lo, hi, xtol=xtol)
        except ValueError:  # both ends of one sign
            with pytest.raises(BracketFailureError, match="no sign change"):
                brent(fn, lo, hi, xtol)
            refused += 1
            continue
        got = brent(fn, lo, hi, xtol)
        assert type(got) is float and _same(got, want), (lo, hi, xtol)
        agreed += 1
        zero_ends += fn(lo) == 0.0 or fn(hi) == 0.0
    assert agreed > 9_000 and zero_ends > 500 and refused > 0


def test_brent_steps_where_brentq_does_at_the_step_bound():
    # one bracket in 200,000 drawn where the short-step test
    # 2 |step| < 3 |half width| - delta decides, not the bound without delta
    fn = FAMILIES[0](6.792555148262066, -0.12046719179677812)
    lo, hi, xtol = -4.556335681366477, 2.068804344167062, 0.0008269594746265701
    assert _same(brent(fn, lo, hi, xtol), brentq(fn, lo, hi, xtol=xtol))
    assert brent(fn, lo, hi, xtol) == -0.12057594670949325


def test_brent_fails_to_converge_where_brentq_does():
    # a jump at pi across a bracket 2**1000 times xtol: 100 iterations of
    # bisection or worse cannot reach it
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < math.pi else 1.0

    with pytest.raises(RuntimeError, match="Failed to converge"):
        brentq(step, 0.0, 1e300, xtol=1e-14)
    scipy_calls, calls[:] = calls[:], []
    with pytest.raises(NonconvergenceError, match="100 iterations"):
        brent(step, 0.0, 1e300, 1e-14)
    assert calls == scipy_calls and len(calls) == 2 + 100
    assert _same(brent(step, 0.0, 4.0, 1e-14), brentq(step, 0.0, 4.0,
                                                      xtol=1e-14))


def _grids(seed: int = 1):
    """Irregular grids of 2 to 30 nodes, five of each size, with values
    over many magnitudes."""
    rng = np.random.default_rng(seed)
    for n in list(range(2, 31)) * 5:
        x = np.cumsum(rng.uniform(1e-6, 1.0, n)) - rng.uniform(0.0, 2.0)
        yield x, rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0)


def test_simpson_is_scipy_s_on_irregular_grids():
    sizes = set()
    for x, y in _grids():
        assert _same(cc._simpson(y, x), simpson(y, x=x)), len(x)
        sizes.add(len(x))
    assert {2, 3, 4, 5} <= sizes


def test_cost_of_is_scipy_s_simpson(weed, opt01, monkeypatch):
    # on the c = -0.1 Pontryagin trajectory, with and without its first
    # node: one grid of each parity
    seen = []

    def spy(y, x):
        seen.append((y, x))
        return inner(y, x)
    inner = cc._simpson
    monkeypatch.setattr(cc, "_simpson", spy)
    traj = opt01.trajectory
    half = cc.PhaseTrajectory(traj.u_nodes[1:], traj.p_values[1:], traj.c,
                              traj.kind, beta_values=traj.beta_values[1:])
    costs = [cc.cost_of(weed, t) for t in (traj, half)]
    assert {len(x) % 2 for _, x in seen} == {0, 1}
    for cost, (y, x) in zip(costs, seen):
        assert _same(cost, float(simpson(y, x=x)))


def test_cumulative_trapezoid_is_scipy_s():
    for x, y in _grids(2):
        assert _same(_cumulative_trapezoid(y, x),
                     cumulative_trapezoid(y, x, initial=0))
