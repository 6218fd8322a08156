"""Natural and substitute-equation wave speeds."""

from __future__ import annotations

import numpy as np
import pytest

import travwave.speed
from travwave.errors import (BracketFailureError, InvalidParameterError,
                            InvalidSubstituteError)
from travwave.model import make_logistic_model, make_weed_model
from travwave.speed import (_vectorized, make_substitute_spec, manifold_gap,
                            modified_speed, natural_speed)

C_STAR = -1.0 / (3.0 * np.sqrt(2.0))


def test_natural_speed_weed(c_star_weed):
    # closed-form oracle c* = (2 u* - 1)/sqrt(2)
    assert abs(c_star_weed - C_STAR) < 1e-6
    assert abs(c_star_weed - (-0.2356)) < 1e-3


def test_natural_speed_balanced_case():
    # u* = 1/2 is the balanced bistable: the front is stationary
    assert abs(natural_speed(make_weed_model(0.5))) < 1e-6


def test_speed_sign_follows_mass():
    # c* and the signed area of f have opposite signs:
    # multiply U'' + cU' + f = 0 by U' and integrate.
    spec = make_weed_model(0.25)
    c = natural_speed(spec, tol=1e-6)
    area = float(np.trapezoid(spec.f(np.linspace(0, 1, 4001)),
                              np.linspace(0, 1, 4001)))
    assert area > 0.0 and c < 0.0
    assert c == pytest.approx((2 * 0.25 - 1.0) / np.sqrt(2.0), abs=1e-6)


def test_monostable_rejected():
    with pytest.raises(InvalidParameterError):
        natural_speed(make_logistic_model(1.0))


def test_no_gap_sign_change_raises(weed, monkeypatch):
    monkeypatch.setattr(travwave.speed, "manifold_gap", lambda *a, **k: 1.0)
    with pytest.raises(BracketFailureError):
        natural_speed(weed)


def test_gap_monotone_and_zero_at_cstar(weed, c_star_weed):
    gaps = [manifold_gap(weed, c) for c in (-0.3, c_star_weed, -0.15, 0.0)]
    assert gaps[0] < 0.0
    assert abs(gaps[1]) < 1e-7
    assert gaps[2] > 0.0
    assert all(gaps[i] < gaps[i + 1] for i in range(3))


def test_tolerance_refinement_invariance(weed, c_star_weed):
    refined = natural_speed(weed, rtol=1e-11, atol=1e-13)
    assert abs(refined - c_star_weed) < 1e-6


def test_identity_substitute(weed, c_star_weed):
    assert modified_speed(weed, weed.f, df_hat=weed.df) == pytest.approx(
        c_star_weed, abs=1e-8)


def test_trimmed_substitute_raises_speed(weed, c_star_weed):
    from travwave.control_construct import default_substitute
    c_hat = modified_speed(weed, default_substitute(weed))
    assert c_hat > c_star_weed
    assert c_hat > 0.0   # strong trim reverses the front


def test_substitute_spec_has_no_fused_rhs(weed):
    # the fused right-hand side closes over the cubic f, not over f_hat
    from travwave.control_construct import default_substitute
    assert weed.pmp_rhs is not None
    assert make_substitute_spec(weed, default_substitute(weed)).pmp_rhs is None


def test_substitute_below_sandwich_rejected(weed):
    bad = lambda u: float(weed.f(u) - 2.0 * weed.beta_max(u))
    with pytest.raises(InvalidSubstituteError):
        modified_speed(weed, bad)


def test_substitute_violating_bistability_rejected(weed):
    # f - beta_max/2 does not vanish at u = 1, so no front can exist
    bad = lambda u: float(weed.f(u) - 0.5 * weed.beta_max(u))
    with pytest.raises(InvalidSubstituteError):
        modified_speed(weed, bad)


def test_vectorized_probe_only_forgives_scalar_only_errors(weed):
    # scalar-only substitutes fail on the probe array with TypeError or
    # ValueError and fall back to np.vectorize
    assert not _vectorized(lambda u: float(weed.f(u)))
    assert not _vectorized(lambda u: max(u, 0.5))
    assert _vectorized(weed.f)
    spec = make_substitute_spec(weed, lambda u: float(weed.f(u)))
    assert np.array_equal(spec.f(np.array([0.25, 0.75])),
                          weed.f(np.array([0.25, 0.75])))

    # any other error on an array is a bug in f_hat and propagates
    def broken(u):
        if np.ndim(u):
            raise RuntimeError("array path broken")
        return float(weed.f(u))
    with pytest.raises(RuntimeError, match="array path broken"):
        make_substitute_spec(weed, broken)
    with pytest.raises(RuntimeError, match="array path broken"):
        modified_speed(weed, broken)
