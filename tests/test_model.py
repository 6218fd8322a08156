"""Model definitions: built-in (f, L) pairs and assumption checkers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from travwave.errors import InvalidParameterError
from travwave.model import (Model2Params, check_A1, check_A2, make_cubic_model,
                            make_logistic_model, make_weed_model, ModelSpec)


def test_weed_growth_value(weed):
    # direct evaluation: f(0.5) = 0.5 * (0.5 - 1/3) * 0.5 = 1/24
    assert weed.f(0.5) == pytest.approx(1.0 / 24.0, abs=1e-15)


def test_weed_zero_control_costs_nothing(weed):
    for u in (0.1, 1.0 / 3.0, 0.6, 0.99):
        assert weed.L(u, 0.0) == 0.0


def test_weed_cost_formula(weed):
    # barrier (u - u*) u = 1/12 at u = 0.5, so L(0.5, 1/48) = (1/48)/(1/12 - 1/48)
    barrier = (0.5 - 1.0 / 3.0) * 0.5
    assert barrier == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert weed.L(0.5, 1.0 / 48.0) == pytest.approx(
        (1.0 / 48.0) / (barrier - 1.0 / 48.0), rel=1e-12)
    # at half the barrier the cost is exactly 1, for every u above u*
    for u in (0.4, 0.5, 0.8):
        assert weed.L(u, weed.beta_max(u) / 2.0) == pytest.approx(1.0, rel=1e-12)


def test_weed_barrier_zero_below_ustar(weed):
    u = np.linspace(0.0, 1.0 / 3.0, 50)
    assert np.all(weed.beta_max(u) == 0.0)
    above = np.linspace(0.34, 1.0, 50)
    assert np.allclose(weed.beta_max(above), above * (above - 1.0 / 3.0))


def test_weed_infinite_cost_beyond_barrier(weed):
    barrier = float(weed.beta_max(0.5))
    assert np.isinf(weed.L(0.5, barrier))
    assert np.isinf(weed.L(0.5, 2.0 * barrier))
    assert np.isinf(weed.L(0.2, 1e-3))  # below u*: any removal is impossible


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        make_weed_model(0.0)
    with pytest.raises(InvalidParameterError):
        make_weed_model(0.6)
    with pytest.raises(InvalidParameterError):
        make_cubic_model(0.2, rate=-1.0)
    with pytest.raises(InvalidParameterError):
        make_logistic_model(0.0)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_factory_rates_must_be_finite_and_positive(value):
    with pytest.raises(InvalidParameterError, match="rate must be finite"):
        make_cubic_model(0.3, value)
    with pytest.raises(InvalidParameterError, match="kappa3 must be finite"):
        make_logistic_model(value)


def test_logistic_values():
    spec = make_logistic_model(1.0)
    assert spec.f(0.5) == pytest.approx(0.25)
    assert spec.L(0.7, 0.0) == 0.0
    assert spec.L(0.5, 0.1) == pytest.approx(0.2)


def test_check_a1_weed_passes(weed):
    rep = check_A1(weed)
    assert rep.passed
    assert rep.interior_zero == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_check_a1_logistic_fails():
    rep = check_A1(make_logistic_model(1.0))
    assert not rep.passed
    failed = dict((name, detail) for name, ok, detail in rep.clauses if not ok)
    assert "df(0)<0" in failed  # monostable: df(0) = kappa3 > 0


def test_check_a1_degenerate_zero_function(weed):
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    spec = ModelSpec(zero, zero, 0.5, weed.L, weed.L_beta, weed.L_betabeta,
                     weed.L_ubeta, weed.beta_max, "zero")
    rep = check_A1(spec)
    assert not rep.passed
    assert any(name == "df(0)<0" and not ok for name, ok, _ in rep.clauses)


def test_check_a1_reports_every_interior_zero(weed):
    zeros = (0.2, 0.5, 0.8)
    f = lambda u: -np.asarray(u) * np.prod([np.asarray(u) - z for z in zeros],
                                           axis=0) * (1.0 - np.asarray(u))
    spec = ModelSpec(f, f, 0.5, weed.L, weed.L_beta, weed.L_betabeta,
                     weed.L_ubeta, weed.beta_max, "three zeros")
    rep = check_A1(spec)
    assert rep.sign_changes == pytest.approx(list(zeros), abs=1e-12)
    assert not dict((name, ok) for name, ok, _ in rep.clauses)[
        "unique interior sign change"]
    assert not rep.passed


def test_check_a2_weed(weed):
    rep = check_A2(weed)
    assert rep.passed
    assert rep.convexity_ok and rep.superlinear_ok
    assert rep.p_fit > 1.0
    assert all(v <= 1e-5 for v in rep.fd_max.values())


def test_check_a2_fd_oracle_single_point(weed):
    # independent central-difference oracle at (u, beta) = (0.5, 1/96)
    u, b, h = 0.5, 1.0 / 96.0, 1e-6
    fd = (weed.L(u, b + h) - weed.L(u, b - h)) / (2.0 * h)
    an = weed.L_beta(u, b)
    assert abs(fd - an) / abs(an) < 1e-6


def test_check_a2_logistic_fails_convexity():
    rep = check_A2(make_logistic_model(1.0))
    assert not rep.convexity_ok       # linear in beta
    assert not rep.superlinear_ok     # log-log slope exactly 1


@pytest.mark.parametrize("rate", [0.1, 0.5, 1.0, 2.0, 4.5, 10.0])
@pytest.mark.parametrize("u_star", [0.05, 0.1, 0.15, 0.25, 1.0 / 3.0, 0.4, 0.5])
def test_check_a2_passes_every_cubic(u_star, rate):
    # the partials are exact, so the FD oracle must accept them at any rate
    rep = check_A2(make_cubic_model(u_star, rate))
    assert rep.passed, rep.fd_max


@pytest.mark.parametrize("offset", [1e-8, 1e-10, 1e-13])
def test_check_a2_passes_a_cubic_whose_barrier_is_near_a_grid_u(offset):
    # u* just below the grid u = 0.15 puts the barrier beta_max(u) = 0 a
    # hair's breadth away in u, so the cross step is a few thousand ulps;
    # at 1e-13 it rounds to zero and that row leaves the cross check
    rep = check_A2(make_cubic_model(0.15 - offset, 4.5))
    assert rep.passed, rep.fd_max
    assert rep.fd_max["L_ubeta"] > 0.0


def test_check_a2_fd_oracle_catches_a_wrong_partial(weed):
    wrong = dataclasses.replace(
        weed, L_ubeta=lambda u, b: 1.1 * weed.L_ubeta(u, b))
    rep = check_A2(wrong)
    assert rep.fd_max["L_ubeta"] == pytest.approx(0.1 / 1.1, rel=1e-3)
    assert not rep.fd_ok and not rep.passed
    assert rep.convexity_ok and rep.superlinear_ok and rep.l_zero_ok


def test_check_a2_evaluates_each_callable_on_arrays(weed):
    calls = []

    def counted(name):
        fn = getattr(weed, name)
        return lambda *args: calls.append(name) or fn(*args)

    fields = ("f", "df", "L", "L_beta", "L_betabeta", "L_ubeta", "beta_max")
    check_A2(dataclasses.replace(weed, **{n: counted(n) for n in fields}))
    assert len(calls) <= 20, calls


@given(st.floats(0.40, 0.95), st.floats(0.05, 0.85))
def test_weed_cost_strictly_convex(u, frac):
    spec = make_weed_model(1.0 / 3.0)
    m = float(spec.beta_max(u))
    h = 0.05 * m
    b = frac * (m - 2.0 * h) + h
    second = spec.L(u, b + h) - 2.0 * spec.L(u, b) + spec.L(u, b - h)
    assert second > 0.0


def test_model2_params():
    p = Model2Params(1.0, 1.0, 1.0)
    assert p.v_star == pytest.approx(0.5)
    assert 0.0 < Model2Params(0.3, 2.0, 0.5).v_star < 1.0
    with pytest.raises(InvalidParameterError):
        Model2Params(1.0, -1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        Model2Params(0.0, 1.0, 1.0)
    for rates in ((np.inf, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.inf),
                  (np.nan, 1.0, 1.0)):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            Model2Params(*rates)


def test_beta_from_alpha_inverts_cost(weed):
    # spending alpha buys beta with L(u, beta) = alpha
    u, alpha = 0.6, 0.7
    beta = float(weed.beta_from_alpha(u, alpha))
    assert float(weed.L(u, beta)) == pytest.approx(alpha, rel=1e-12)
