"""Phase-plane chart integration and saddle manifolds."""

from __future__ import annotations

import contextlib
import signal
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

import travwave.phaseplane as pp
from travwave._dop853 import solve_ivp
from travwave.errors import (InvalidParameterError, NotASaddleError,
                             SingularityError)
from travwave.model import make_logistic_model, make_weed_model
from travwave.phaseplane import (P_COLLAPSE, integrate_pu, saddle_eigenvalues,
                                 slope_bound, stable_manifold,
                                 unstable_manifold)

C_STAR = -1.0 / (3.0 * np.sqrt(2.0))


def test_saddle_eigenvalues_at_zero_speed(weed):
    lp, lm = saddle_eigenvalues(weed, 0.0, 0.0)
    # df(0) = -1/3, so lambda = +- sqrt(4/3)/2 = +- 1/sqrt(3)
    assert lp == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
    assert lm == pytest.approx(-1.0 / np.sqrt(3.0), rel=1e-12)


def test_saddle_eigenvalues_shifted_speed(weed):
    lp, lm = saddle_eigenvalues(weed, -0.1, 0.0)
    disc = np.sqrt(0.01 + 4.0 / 3.0)
    assert lp == pytest.approx((0.1 + disc) / 2.0, rel=1e-12)
    assert lm == pytest.approx((0.1 - disc) / 2.0, rel=1e-12)


def test_not_a_saddle():
    monostable = make_logistic_model(1.0)   # df(0) = +1
    with pytest.raises(NotASaddleError):
        saddle_eigenvalues(monostable, 0.0, 0.0)


@given(st.floats(-2.0, 2.0))
def test_eigenvalue_identities(c):
    # Vieta: lambda+ + lambda- = -c, lambda+ * lambda- = df(u_eq)
    spec = make_weed_model(1.0 / 3.0)
    for u_eq in (0.0, 1.0):
        lp, lm = saddle_eigenvalues(spec, c, u_eq)
        assert lp + lm == pytest.approx(-c, abs=1e-10)
        assert lp * lm == pytest.approx(float(spec.df(u_eq)), abs=1e-10)
        assert lm < 0.0 < lp


def test_unstable_manifold_matches_ansatz(weed):
    traj = unstable_manifold(weed, C_STAR, u_stop=1.0)
    exact = traj.u_nodes * (1.0 - traj.u_nodes) / np.sqrt(2.0)
    assert np.max(np.abs(traj.p_values - exact)) < 1e-3
    assert np.all(traj.p_values[1:-1] > 0.0)


def test_stable_manifold_matches_ansatz(weed):
    traj = stable_manifold(weed, C_STAR, u_stop=0.0)
    exact = traj.u_nodes * (1.0 - traj.u_nodes) / np.sqrt(2.0)
    assert np.max(np.abs(traj.p_values - exact)) < 1e-3


def test_stable_manifold_entry_slope(weed):
    c = -0.1
    traj = stable_manifold(weed, c, u_stop=0.5)
    _, lm = saddle_eigenvalues(weed, c, 1.0)
    # slope dP/dU at U=1 equals lambda_minus < 0
    du = 1.0 - traj.u_nodes[-2]
    slope = (0.0 - traj.p_values[-2]) / du
    assert slope < 0.0
    assert abs(slope - lm) / abs(lm) < 1e-4


def test_manifold_ordering_above_natural_speed(weed, c_star_weed):
    # for c > c*, the unstable branch lies strictly below the stable one
    # on (0, u*]
    c = -0.1
    us = weed.u_star
    flat = unstable_manifold(weed, c, u_stop=us)
    sharp = stable_manifold(weed, c, u_stop=0.0)
    assert flat.p_values[-1] < float(sharp.interp_p()(us))
    ps = sharp.interp_p()
    inner = (flat.u_nodes > 1e-3) & (flat.u_nodes <= us)
    assert np.all(flat.p_values[inner] < np.asarray(ps(flat.u_nodes[inner])))


def test_a_chart_run_asks_numpy_nothing_per_rhs_call(weed, numpy_lookups):
    # the chart's right-hand side reads f one plain float at a time; the
    # run's numpy lookups (the seed, the sampled nodes) are the same at
    # any tolerance
    runs = [numpy_lookups(unstable_manifold, weed, -0.1, rtol=rtol)
            for rtol in (1e-6, pp.RTOL)]
    (loose, (n_loose,), _), (tight, (n_tight,), _) = runs
    assert 100 < n_loose < n_tight
    assert loose == tight and sum(tight.values()) <= 40, tight


def test_early_termination_flagged(weed):
    # for c > c*, P_flat crashes into the axis before U = 1
    traj = unstable_manifold(weed, -0.1, u_stop=1.0)
    assert traj.terminated_by == "p_zero"
    assert traj.termination_u is not None and traj.termination_u < 1.0


def test_seed_robustness(weed):
    t1 = unstable_manifold(weed, C_STAR, u_stop=0.5)
    t2 = unstable_manifold(weed, C_STAR, u_stop=0.5, eps_seed=0.5e-8)
    assert abs(float(t1.p_values[-1]) - float(t2.p_values[-1])) < 1e-6


def test_seeded_slope_matches_eigenvector(weed):
    traj = unstable_manifold(weed, -0.1, u_stop=0.5)
    lp, _ = saddle_eigenvalues(weed, -0.1, 0.0)
    k = np.searchsorted(traj.u_nodes, traj.seed_offset)
    slope = traj.p_values[k] / traj.u_nodes[k]
    assert abs(slope - lp) / lp < 1e-4


def test_uniqueness_of_flow(weed):
    # re-integrating from a node of P_flat reproduces P_flat ahead
    # (compared at integrator-exact nodes, not interpolated values)
    flat = unstable_manifold(weed, C_STAR, u_stop=0.9)
    k0 = int(np.searchsorted(flat.u_nodes, 0.3))
    k1 = int(np.searchsorted(flat.u_nodes, 0.8))
    u0, p0 = float(flat.u_nodes[k0]), float(flat.p_values[k0])
    u1, p1 = float(flat.u_nodes[k1]), float(flat.p_values[k1])
    t = integrate_pu(weed, C_STAR, None, u0, p0, u1)
    assert abs(float(t.p_values[-1]) - p1) < 1e-8


def test_forward_backward_consistency(weed):
    flat = unstable_manifold(weed, C_STAR, u_stop=0.7)
    p0 = float(flat.p_values[-1])
    fwd = integrate_pu(weed, C_STAR, None, 0.7, p0, 0.4)
    back = integrate_pu(weed, C_STAR, None, 0.4, float(fwd.p_values[0]), 0.7)
    assert abs(float(back.p_values[-1]) - p0) < 1e-7
    # nodes run in increasing U whichever way the chart was integrated
    for t in (fwd, back):
        assert np.all(np.diff(t.u_nodes) > 0.0)


def test_large_control_pushes_below_flat_branch(weed):
    # bang-arc mechanism: a large constant removal drives the backward orbit
    # below P_flat
    c = -0.1
    us = weed.u_star
    flat = unstable_manifold(weed, c, u_stop=us)
    sharp = stable_manifold(weed, c, u_stop=us)
    pf = flat.interp_p()
    gamma = 20.0 * weed.max_f()
    t = integrate_pu(weed, c, lambda u: np.full_like(u, gamma), us,
                     float(sharp.p_values[0]), 1e-3,
                     stop_when=lambda u, p: float(pf(u)) - p)
    assert t.terminated_by == "event"


def test_invalid_start(weed):
    with pytest.raises(InvalidParameterError):
        integrate_pu(weed, 0.0, None, 0.5, -1.0, 0.7)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the body once `seconds` have passed, so that a
    call that never returns fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("c, u_from, u_to", [
    (np.nan, 0.5, 0.7), (-0.1, np.nan, 0.7), (-0.1, 0.5, np.nan),
    (np.inf, 0.5, 0.7), (-0.1, 0.5, np.inf),
], ids=["nan-c", "nan-u_from", "nan-u_to", "inf-c", "inf-u_to"])
def test_a_chart_run_needs_a_finite_speed_and_ends(weed, c, u_from, u_to):
    # the three NaN cases never returned; c = inf raised SingularityError
    # and u_to = inf returned a run
    with _deadline(10), pytest.raises(InvalidParameterError,
                                      match="must be finite"):
        integrate_pu(weed, c, None, u_from, 0.2, u_to)


@pytest.mark.parametrize("u_from, u_to", [(-0.5, 0.7), (0.5, 1.5)],
                         ids=["u_from-below-0", "u_to-above-1"])
def test_a_chart_run_stays_in_the_unit_interval(weed, u_from, u_to):
    # from u_from = -0.5 a p_zero run on [-0.5, -0.465] came back, outside
    # the model's domain
    with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
        integrate_pu(weed, -0.1, None, u_from, 0.2, u_to)


def _unit_run(direction):
    # y' = 1 from y(0) = 0 on (0, 2), with the terminal event y = 1
    return solve_ivp(lambda t, y: [1.0], (0.0, 2.0), [0.0], 1e-3, 1e-6,
                     events=[(lambda t, y: y[0] - 1.0, direction)])


def test_a_terminal_event_ends_the_run_at_its_root():
    sol = _unit_run(1)
    assert sol.ended == 0
    assert sol.t[-1] == pytest.approx(1.0, abs=1e-12)
    # the end state is the event's root: y = 1 there
    assert sol.y[0, -1] == pytest.approx(1.0, abs=1e-12)


def test_an_event_of_the_other_direction_never_fires():
    sol = _unit_run(-1)
    assert sol.ended == 1
    assert sol.t[-1] == 2.0


def test_a_failed_run_is_stopped_by_nothing():
    # y' = y^2, y(0) = 1 blows up at t = 1: the step size collapses there
    sol = solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], 1e-3, 1e-6,
                    events=[(lambda t, y: y[0] + 1.0, -1)])
    assert sol.ended is None and sol.t[-1] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("eps_seed", [0.0, -1e-8, np.nan, np.inf, 0.5, 2.0])
def test_the_seed_offset_lies_inside_the_run(weed, eps_seed):
    with pytest.raises(InvalidParameterError, match="eps_seed"):
        unstable_manifold(weed, -0.1, u_stop=0.5, eps_seed=eps_seed)


@pytest.mark.parametrize("u_stop", [0.0, 1.5, np.nan])
def test_unstable_manifold_refuses_a_stop_outside_its_range(weed, u_stop):
    with pytest.raises(InvalidParameterError, match="u_stop must lie in"):
        unstable_manifold(weed, -0.1, u_stop=u_stop)


@pytest.mark.parametrize("u_stop", [1.0, 1.0 - 1e-9, np.nan],
                         ids=["one", "above_the_seed", "nan"])
def test_stable_manifold_refuses_a_stop_not_below_its_seed(weed, u_stop):
    # u_stop = 1 returned a one-node trajectory, and a stop between the
    # seed 1 - EPS_SEED and 1 would be integrated upward from the seed
    with pytest.raises(InvalidParameterError, match="u_stop must lie in"):
        stable_manifold(weed, -0.1, u_stop=u_stop)


def test_heteroclinic_residual(weed, c_star_weed):
    traj = unstable_manifold(weed, c_star_weed, u_stop=1.0)
    u, p = traj.u_nodes, traj.p_values
    # the midpoint check degrades like f/P^2 at the saddle corners, so the
    # invariant is audited away from them
    keep = p >= 1e-2
    interval = keep[:-1] & keep[1:]
    dp = np.diff(p)[interval] / np.diff(u)[interval]
    um = 0.5 * (u[:-1] + u[1:])[interval]
    pm = 0.5 * (p[:-1] + p[1:])[interval]
    rhs = -c_star_weed - np.asarray(weed.f(um), dtype=float) / pm
    assert np.max(np.abs(dp - rhs)) < 1e-5


def test_slope_bound(weed):
    for c in (C_STAR, -0.1, 0.0):
        bound = slope_bound(weed, c)
        traj = unstable_manifold(weed, c, u_stop=1.0)
        assert float(np.max(traj.p_values)) <= bound


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_slope_bound_near_zero_speed(weed, sign):
    # 1 - e^-c and 1/(1 - e^-c) - 1/c cancel as c -> 0; checked against a
    # 80-digit evaluation of the same closed form
    m = Decimal(weed.max_f())
    for c in (sign * np.logspace(-13.0, 1.0, 57)).tolist():
        bound = slope_bound(weed, c)
        with localcontext() as ctx:
            ctx.prec = 80
            q = 1 - (-Decimal(c)).exp()
            exact = Decimal(c) / q + m * (1 / q - 1 / Decimal(c))
            assert abs(Decimal(float(bound)) / exact - 1) <= Decimal("1e-12")


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_slope_bound_refuses_a_non_finite_speed(weed, c):
    with pytest.raises(InvalidParameterError, match=f"c={c}"):
        slope_bound(weed, c)


def test_csv_export(tmp_path, weed):
    traj = unstable_manifold(weed, -0.1, u_stop=0.5)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "u,p,beta"
    assert len(lines) == len(traj.u_nodes) + 1


def test_integrator_failure_raises_singularity(weed):
    # a NaN control past U = 0.6 makes the step size collapse there
    with pytest.raises(SingularityError) as info:
        integrate_pu(weed, -0.1, lambda u: np.where(u > 0.6, np.nan, 0.0),
                     u_from=0.5, p_from=0.2, u_to=0.9)
    assert info.value.location == pytest.approx(0.6, abs=1e-6)


def test_a_zero_length_chart_run_is_refused(weed):
    # u_from == u_to returned 401 copies of one point, whose interpolant
    # raised an untyped ValueError
    with pytest.raises(InvalidParameterError, match="u_from != u_to"):
        integrate_pu(weed, -0.1, None, 0.5, 0.2, 0.5)


def test_a_one_point_run_has_no_interpolant(weed):
    # a collapsed P whose first step already fails is a p_zero run of one
    # point: its nodes do not increase, and interp_p refuses them by name
    traj = integrate_pu(weed, -0.1,
                        lambda u: np.where(u > 0.5, np.nan, 0.0),
                        u_from=0.5, p_from=0.5 * P_COLLAPSE, u_to=0.9)
    assert traj.terminated_by == "p_zero" and traj.termination_u == 0.5
    assert np.all(traj.u_nodes == 0.5)
    with pytest.raises(InvalidParameterError,
                       match="controlled nodes are not strictly increasing"):
        traj.interp_p()


def test_a_failed_first_step_raises_singularity(weed):
    # NaN just past u_from, where the control's probe passes: no step is
    # accepted, and the run still reports where it stalled
    with pytest.raises(SingularityError) as info:
        integrate_pu(weed, -0.1, lambda u: np.where(u > 0.5, np.nan, 0.0),
                     u_from=0.5, p_from=0.2, u_to=0.9)
    assert info.value.location == 0.5


def test_control_is_sampled_once_on_the_nodes(weed):
    # beta(U) has the contract of alpha(x): one array call fills
    # beta_values; the integrator's calls get floats, and the only other
    # array call is the two-point probe at u_from
    calls = []

    def beta(u):
        calls.append(u)
        return 0.01 * np.asarray(u) ** 2

    t = integrate_pu(weed, -0.1, beta, 0.5, 0.2, 0.7)
    arrays = [u for u in calls if isinstance(u, np.ndarray)]
    assert len(arrays) == 2
    assert np.array_equal(arrays[0], [0.5, 0.5])
    assert arrays[1] is t.u_nodes
    assert np.array_equal(t.beta_values, 0.01 * t.u_nodes ** 2)
    assert len(calls) > 2 and all(isinstance(u, float) for u in calls
                                  if not isinstance(u, np.ndarray))


@pytest.mark.parametrize("beta", [
    0.05,
    lambda u: 0.05,
    lambda u: 0.05 if u > 0.6 else 0.0,
], ids=["number", "constant", "branching"])
def test_non_array_control_raises_before_integrating(weed, monkeypatch, beta):
    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr("travwave.phaseplane.solve_ivp", no_integration)
    with pytest.raises(InvalidParameterError, match="array of x or U"):
        integrate_pu(weed, -0.1, beta, 0.5, 0.2, 0.7)


def test_interp_p_refuses_to_extrapolate(weed):
    # at c = -0.1, P_flat meets the U-axis near u = 0.631; a PCHIP
    # extrapolated to 0.7 read -6.8e17 there
    flat = unstable_manifold(weed, -0.1, u_stop=1.0)
    lo, hi = flat.u_nodes[0], flat.u_nodes[-1]
    assert flat.terminated_by == "p_zero" and 0.62 < hi < 0.64
    pf = flat.interp_p()
    inside = np.linspace(lo, hi, 501)
    ref = PchipInterpolator(flat.u_nodes, flat.p_values)
    assert np.array_equal(pf(inside), ref(inside))
    assert float(pf(0.5)) == float(ref(0.5))
    for bad in (0.7, np.array([0.5, 0.7]), np.nextafter(hi, 1.0), -1e-3):
        with pytest.raises(InvalidParameterError,
                           match=r"unstable_manifold span \[0, 0\.63"):
            pf(bad)


def test_interp_p_refuses_nan(weed):
    # a NaN U is no point of the curve: scipy's PCHIP read NaN for it
    pf = unstable_manifold(weed, -0.1, u_stop=1.0).interp_p()
    for bad in (np.nan, np.float64(np.nan), np.array(np.nan),
                np.array([0.5, np.nan])):
        with pytest.raises(InvalidParameterError,
                           match=r"U=nan is not in the unstable_manifold"):
            pf(bad)


def test_interpolant_refuses_non_finite_data():
    # scipy's PCHIP raised an untyped ValueError; the refusal names the
    # curve and is still a ValueError
    u = np.linspace(0.0, 1.0, 5)
    for nodes, values in ((u, [0.0, 1.0, np.nan, 3.0, 4.0]),
                          (u, [0.0, 1.0, 2.0, np.inf, 4.0]),
                          (np.append(u[:-1], np.inf), np.ones(5))):
        with pytest.raises(InvalidParameterError,
                           match="P_c' nodes or values are not finite"):
            pp._interpolant(nodes, values, "P_c'")
    with pytest.raises(ValueError, match="fewer than two"):
        pp._interpolant(u[:1], [1.0], "P_c'")


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=30),
       start=st.floats(-10.0, 10.0),
       values=st.lists(st.floats(-1e3, 1e3), min_size=31, max_size=31),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=20))
@example(steps=[1.0, 1.0, 1.0], start=0.0,
         values=[0.0, 0.0, 0.0, 2.225073858507203e-309] + [0.0] * 27,
         fracs=[])
@example(steps=[0.5], start=0.0, values=[1.0, -2.0] + [0.0] * 29,
         fracs=[0.25, 0.5])
@example(steps=[0.5, 1e-3], start=-1.0, values=[1.0, 3.0, 2.0] + [0.0] * 28,
         fracs=[0.1, 0.9])
def test_float_interpolant_is_scipy_s_pchip(steps, start, values, fracs):
    # the package's PCHIP against PchipInterpolator, bit for bit: its
    # coefficient rows, and its float path (float and np.float64) and array
    # path at random points, every node and both ends, on 2 to 31 nodes; a
    # subnormal slope makes scipy's harmonic mean warn of an overflow,
    # which the errstate scope forgives the oracle only
    u = start + np.cumsum([0.0] + steps)
    v = np.array(values[:len(u)])
    assume(np.all(np.diff(u) > 0.0))
    at = pp._interpolant(u, v, "test")
    with np.errstate(over="ignore"):
        ref = PchipInterpolator(u, v)
    assert np.array_equal(_bits(pp._pchip(u, v)), _bits(ref.c))
    points = [u[0] + f * (u[-1] - u[0]) for f in fracs] + u.tolist() \
        + [float(u[0]), float(u[-1])]
    for x in points:
        want = _bits(ref(x))
        for arg in (float(x), np.float64(x)):
            got = at(arg)
            assert isinstance(got, float) and _bits(got) == want
    for arr in (np.array(points), np.array(points).reshape(-1, 1)):
        got, want = at(arr), ref(arr)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


def test_chart_nodes_have_no_near_duplicates(weed, monkeypatch):
    # at this speed a cluster node of P_flat lands within an ulp of a
    # uniform node (U ~ 0.4688); a PCHIP through both was off by 3e-6
    inner, sols = pp.solve_ivp, []

    def kept(*args, **kwargs):
        sols.append(inner(*args, **kwargs))
        return sols[-1]
    monkeypatch.setattr(pp, "solve_ivp", kept)
    flat = unstable_manifold(weed, -0.094840911941193956, u_stop=1.0)
    u = flat.u_nodes
    assert np.min(np.diff(u)) > 1e-12 * (u[-1] - u[0])
    near = np.linspace(0.4658, 0.4718, 601)
    assert np.max(np.abs(flat.interp_p()(near) - sols[0].sol(near)[0])) \
        <= 1e-9
