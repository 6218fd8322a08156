"""Natural and substitute-equation wave speeds."""

from __future__ import annotations

import numpy as np
import pytest

import travwave.speed
from travwave.errors import (BracketFailureError, InvalidParameterError,
                            InvalidSubstituteError)
from travwave.control_construct import default_substitute
from travwave.model import make_logistic_model, make_weed_model
from travwave.phaseplane import stable_manifold, unstable_manifold
from travwave.speed import (make_substitute_spec, manifold_gap,
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


@pytest.mark.parametrize("subst, c", [
    (False, -2.0), (False, -0.3), (False, "c*"), (False, -0.1),
    (False, 0.1), (False, 0.5), (True, -2.0), (True, -0.3)])
def test_gap_is_the_manifolds_end_states(weed, c_star_weed, subst, c):
    # manifold_gap reads only the end states of the two branches; they must
    # be the manifold builders' values at u* to the bit, a branch that
    # collapsed onto the U-axis counting as 0
    spec = make_substitute_spec(weed, default_substitute(weed)) if subst \
        else weed
    c = c_star_weed if c == "c*" else c
    flat = unstable_manifold(spec, c, u_stop=spec.u_star)
    sharp = stable_manifold(spec, c, u_stop=spec.u_star)
    p_flat = flat.p_values[-1] if flat.terminated_by == "u_stop" else 0.0
    p_sharp = sharp.p_values[0] if sharp.terminated_by == "u_stop" else 0.0
    gap = manifold_gap(spec, c)
    assert float(gap).hex() == float(p_sharp - p_flat).hex()
    if c == -2.0:
        assert sharp.terminated_by == "p_zero"
    for t in (flat, sharp):
        assert np.all(np.diff(t.u_nodes) > 0.0)


def test_tolerance_refinement_invariance(weed, c_star_weed):
    refined = natural_speed(weed, rtol=1e-11, atol=1e-13)
    assert abs(refined - c_star_weed) < 1e-6


def test_identity_substitute(weed, c_star_weed):
    assert modified_speed(weed, weed.f) == pytest.approx(
        c_star_weed, abs=1e-8)


def test_trimmed_substitute_raises_speed(weed, c_star_weed, monkeypatch):
    # make_substitute_spec checks bistability; the speed core does not redo it
    calls = []
    check = travwave.speed.check_A1
    monkeypatch.setattr(travwave.speed, "check_A1",
                        lambda *a, **k: calls.append(a) or check(*a, **k))
    c_hat = modified_speed(weed, default_substitute(weed))
    assert len(calls) == 1
    assert c_hat > c_star_weed
    assert c_hat > 0.0   # strong trim reverses the front


def test_substitute_spec_has_no_fused_rhs(weed):
    # the fused right-hand side closes over the cubic f, not over f_hat
    from travwave.control_construct import default_substitute
    assert weed.pmp_rhs is not None
    assert make_substitute_spec(weed, default_substitute(weed)).pmp_rhs is None


def test_substitute_below_sandwich_rejected(weed):
    bad = lambda u: weed.f(u) - 2.0 * weed.beta_max(u)
    with pytest.raises(InvalidSubstituteError):
        modified_speed(weed, bad)


def test_substitute_violating_bistability_rejected(weed):
    # f - beta_max/2 does not vanish at u = 1, so no front can exist
    bad = lambda u: weed.f(u) - 0.5 * weed.beta_max(u)
    with pytest.raises(InvalidSubstituteError):
        modified_speed(weed, bad)


def test_substitute_must_map_arrays(weed):
    # a scalar-only or constant f_hat is outside input and rejected as such
    for bad in (lambda u: float(weed.f(u)), lambda u: 0.5):
        with pytest.raises(InvalidSubstituteError, match="map an array"):
            make_substitute_spec(weed, bad)

    # any other error on an array is a bug in f_hat and propagates
    def broken(u):
        if np.ndim(u):
            raise RuntimeError("array path broken")
        return float(weed.f(u))
    with pytest.raises(RuntimeError, match="array path broken"):
        make_substitute_spec(weed, broken)
    with pytest.raises(RuntimeError, match="array path broken"):
        modified_speed(weed, broken)


def test_substitute_spec_is_validated(weed):
    # f - beta_max/2 keeps the sandwich and an interior zero but not
    # f(1) = 0; building its spec alone must already reject it
    with pytest.raises(InvalidSubstituteError, match="bistability"):
        make_substitute_spec(weed, lambda u: weed.f(u) - 0.5 * weed.beta_max(u))
