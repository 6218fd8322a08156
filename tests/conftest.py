"""Session-scoped fixtures backed by the acceptance module's cache.

The heavy artifacts (natural speed, the c = -0.1 optimal profile, the
Model-2 sandwich pipeline) are computed once per session and shared
between the acceptance tests and the module tests.  `numpy_lookups`
counts what an inner loop asks of numpy.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

import travwave._dop853 as dop853
import travwave._roots as roots
import travwave.acceptance as acc
import travwave.control_construct as cc
import travwave.model as model
import travwave.phaseplane as pp
import travwave.pmp as pmp
import travwave.speed as speed

# the modules an integration runs through: the integrator, its event
# root finder, the right-hand sides and the callables they read
_COUNTED = (dop853, roots, model, pmp, pp, cc, speed)
# the modules that call the integrator
_DRIVERS = (pmp, pp, cc)


class _CountingNumpy:
    """Stands in for a module's `np`: counts each attribute lookup."""

    def __init__(self, where: str, counts: collections.Counter):
        self._where, self._counts = where, counts

    def __getattr__(self, name):
        self._counts[f"{self._where}.{name}"] += 1
        return getattr(np, name)


@pytest.fixture(scope="session")
def weed():
    return acc._weed()


@pytest.fixture(scope="session")
def c_star_weed():
    return acc._c_star()


@pytest.fixture(scope="session")
def opt01(weed):
    return acc._optimal_01()


@pytest.fixture(scope="session")
def spatial01(opt01):
    return acc._spatial_01()


@pytest.fixture(scope="session")
def m2_pipeline():
    return acc._m2_pipeline()


@pytest.fixture
def numpy_lookups(monkeypatch):
    """run(fn, *args, **kwargs) -> (lookups, nfevs, fn's value).

    `lookups` counts the numpy attribute lookups fn makes through the `np`
    global of the integrator, its event root finder and the modules of the
    right-hand sides, keyed "module.name"; `nfevs` lists the RHS calls of
    each integration fn runs.  A per-point numpy call in an inner loop
    shows as lookups that grow with the nfev.
    """
    def run(fn, *args, **kwargs):
        counts, nfevs = collections.Counter(), []
        with monkeypatch.context() as m:
            for mod in _COUNTED:
                m.setattr(mod, "np", _CountingNumpy(
                    mod.__name__.rsplit(".", 1)[-1], counts))
            for mod in _DRIVERS:
                def recorded(*a, _solve=mod.solve_ivp, **kw):
                    sol = _solve(*a, **kw)
                    nfevs.append(sol.nfev)
                    return sol
                m.setattr(mod, "solve_ivp", recorded)
            value = fn(*args, **kwargs)
        return counts, nfevs, value
    return run
