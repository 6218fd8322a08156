"""Natural and substitute-equation wave speeds."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import travwave.speed
from travwave._roots import XTOL, bisect, brent
from travwave.errors import (BracketFailureError, InvalidParameterError,
                            InvalidSubstituteError)
from travwave.control_construct import default_substitute
from travwave.model import make_cubic_model, make_logistic_model, make_weed_model
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


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
def test_a_gap_an_ulp_off_zero_at_the_root_is_the_root(monkeypatch, sign):
    # u* = 1/2 has c* = 0 exactly, and 0 is the replayed bisection's first
    # midpoint.  The two mirror chart runs can round apart there: gap(0)
    # read -5.55e-17, and c* became 9e-9, outside the zero-control band
    spec = make_cubic_model(0.5, 1.0)
    gap = travwave.speed.manifold_gap
    # the branches' P at u* is 1/(4 sqrt 2); the gap is one ulp of it
    ulp = sign * math.ulp(0.25 / math.sqrt(2.0))
    probed = []

    def off_by_an_ulp(s, c, **kw):
        probed.append(c)
        return ulp if c == 0.0 else gap(s, c, **kw)
    monkeypatch.setattr(travwave.speed, "manifold_gap", off_by_an_ulp)
    assert natural_speed(spec) == 0.0
    assert 0.0 in probed


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


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_tol_must_be_finite_and_positive(weed, tol):
    with pytest.raises(InvalidParameterError, match="tol"):
        natural_speed(weed, tol=tol)


def test_no_gap_sign_change_raises(weed, monkeypatch):
    monkeypatch.setattr(travwave.speed, "manifold_gap", lambda *a, **k: 1.0)
    with pytest.raises(BracketFailureError):
        natural_speed(weed)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", [manifold_gap, stable_manifold,
                                   unstable_manifold])
def test_a_speed_that_is_not_finite_is_refused(weed, solve, c):
    # before the seed: a NaN seed would reach solve_ivp as an untyped error
    with pytest.raises(InvalidParameterError, match="speed must be finite"):
        solve(weed, c)


@pytest.mark.parametrize("tols", [
    {"rtol": -1.0}, {"rtol": 0.0}, {"rtol": np.nan}, {"atol": 0.0},
    {"atol": np.inf}], ids=["rtol-1", "rtol0", "rtol-nan", "atol0", "atol-inf"])
@pytest.mark.parametrize("solve, args", [
    (natural_speed, ()), (manifold_gap, (-0.1,)), (unstable_manifold, (-0.1,)),
    (stable_manifold, (-0.1,))],
    ids=["natural_speed", "manifold_gap", "unstable", "stable"])
def test_tolerances_must_be_finite_and_positive(weed, monkeypatch, solve,
                                                args, tols):
    # refused before any integration; rtol=-1 used to pass through scipy's
    # clamp with a UserWarning
    def no_integration(*a, **k):
        raise AssertionError("integration started")
    monkeypatch.setattr("travwave.phaseplane.solve_ivp", no_integration)
    with pytest.raises(InvalidParameterError,
                       match="tol must be finite and positive"):
        solve(weed, *args, **tols)


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


@pytest.mark.parametrize("shape, needle", [
    (lambda f: lambda u: f(u) + 0.1, "exceeds f"),
    (lambda f: lambda u: np.minimum(f(u), 0.0), "no interior sign change"),
], ids=["above_f", "no_zero"])
def test_substitute_refusals_name_the_failed_check(weed, shape, needle):
    with pytest.raises(InvalidSubstituteError, match=needle):
        make_substitute_spec(weed, shape(weed.f))


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


def _scalar_speed(spec, tol=1e-8):
    """Reference: the bisection of the scalar manifold_gap on the bracket
    the speed solver starts from, where a midpoint within brent's xtol of
    the gap's root is that root."""
    df = spec.df(np.linspace(0, 1, 2001))
    scale = 2.0 * np.sqrt(float(np.max(np.abs(df)))) + 1.0

    def gap(c):
        return manifold_gap(spec, c)
    root = brent(gap, *bisect(gap, -scale, scale, 0.25 * scale))
    return np.mean(bisect(lambda c: 0.0 if abs(c - root) <= XTOL else gap(c),
                          -scale, scale, 2.0 * tol))


@settings(max_examples=6, deadline=None)
@given(u_star=st.floats(0.05, 0.5), rate=st.floats(0.1, 10.0))
@example(u_star=0.5, rate=2.0)
def test_lock_step_speed_is_the_scalar_bisection(u_star, rate):
    # the replayed path must take every turn of the scalar gap's bisection
    spec = make_cubic_model(u_star, rate)
    assert float(natural_speed(spec)).hex() == float(_scalar_speed(spec)).hex()


def test_weed_and_substitute_speeds_are_the_scalar_bisection(weed,
                                                            c_star_weed):
    sub = make_substitute_spec(weed, default_substitute(weed))
    assert float(c_star_weed).hex() == float(_scalar_speed(weed)).hex()
    assert float(travwave.speed._speed(sub)).hex() \
        == float(_scalar_speed(sub)).hex()


def _count_bisects(monkeypatch):
    calls = []
    monkeypatch.setattr(travwave.speed, "bisect",
                        lambda *a: calls.append(a[1:]) or bisect(*a))
    return calls


def test_the_speed_solve_is_a_coarse_and_a_replayed_bisect(
        weed, c_star_weed, monkeypatch):
    # a bracket to width scale/4, then bisect's whole path on
    # [-scale, scale] replayed around brent's root; no scalar bisection
    calls = _count_bisects(monkeypatch)
    assert float(natural_speed(weed)).hex() == float(c_star_weed).hex()
    assert len(calls) == 2
    (lo, hi, coarse), (lo2, hi2, tol) = calls
    assert lo == lo2 == -hi and hi2 == hi
    assert coarse == 0.25 * hi and tol == 2e-8


def test_no_speed_is_gapped_twice(weed, monkeypatch, caplog):
    # the gap is memoised: bracket, brent, replay and the final check
    # share every evaluation, and the report counts each once
    sub = make_substitute_spec(weed, default_substitute(weed))
    gap = travwave.speed.manifold_gap
    for spec in (weed, sub):
        calls = []
        monkeypatch.setattr(travwave.speed, "manifold_gap",
                            lambda s, c, **k: calls.append(c) or gap(s, c, **k))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="travwave"):
            c = travwave.speed._speed(spec)
        (rec,) = [r for r in caplog.records if r.name == "travwave.speed"]
        assert len(calls) == len(set(calls)) == rec.speed_work["gap_calls"]
        # the final bracket's two ends, one on either side of c
        width = rec.speed_work["width"]
        assert any(c - width <= x < c for x in calls)
        assert any(c < x <= c + width for x in calls)


def test_a_wrong_root_falls_back_to_the_scalar_path(
        weed, c_star_weed, monkeypatch, caplog):
    # a root 1e-3 above the gap's turns the replayed path the wrong way at
    # every midpoint between the two, so the final bracket's ends do not
    # confirm the sign change and the scalar bisection decides
    brent = travwave.speed.brent
    monkeypatch.setattr(travwave.speed, "brent",
                        lambda *a: brent(*a) + 1e-3)
    bisects = _count_bisects(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="travwave"):
        c = natural_speed(weed)
    # the coarse and the replayed bisection, then the scalar one
    assert len(bisects) == 3
    assert float(c).hex() == float(c_star_weed).hex()
    (rec,) = [r for r in caplog.records if r.name == "travwave.speed"]
    assert rec.speed_work["fallback"]
    assert rec.speed_work["root"] == pytest.approx(C_STAR + 1e-3, abs=1e-13)


def test_speed_logs_nothing_by_default(weed, caplog):
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("travwave").handlers)
    natural_speed(weed)
    assert not [r for r in caplog.records if r.name.startswith("travwave")]


def test_speed_logs_its_work_at_debug(weed, caplog):
    # at most 12 gap evaluations for the weed and 14 for its substitute
    sub = make_substitute_spec(weed, default_substitute(weed))
    for spec, max_gaps in ((weed, 12), (sub, 14)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="travwave"):
            c = travwave.speed._speed(spec)
        (rec,) = [r for r in caplog.records if r.name == "travwave.speed"]
        assert rec.levelno == logging.DEBUG
        work = rec.speed_work
        assert 0 < work["gap_calls"] <= max_gaps and not work["fallback"]
        assert 0.0 < work["width"] <= 2e-8
        assert abs(c - work["root"]) <= work["width"]
        msg = rec.getMessage()
        assert spec.label in msg
        assert f"gap_calls={work['gap_calls']} fallback=False" in msg
        assert f"root={work['root']!r}" in msg
        if spec is weed:
            assert abs(work["root"] - C_STAR) <= 1e-13
