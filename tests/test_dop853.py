"""The package's DOP853 integrator against scipy's solve_ivp(method="DOP853").

Each ODE run of a program call below is made twice: by
`_dop853.solve_ivp`, which the program uses, and by scipy on the same
arguments, its (g, direction) event pairs turned into scipy's tagged
terminal events.  The two must end the same way: on the same event (or
at the span's end), with end states within the run's rtol max(1, |y|),
and dense solutions that agree to that bound at the run's nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import travwave.acceptance as acc
import travwave.control_construct as cc
import travwave.model2 as model2
import travwave.phaseplane as pp
import travwave.pmp as pmp
from travwave._dop853 import RTOL_FLOOR, LockStep, Run, solve_ivp
from travwave.model import Model2Params, make_cubic_model
from travwave.phaseplane import (P_COLLAPSE, _integrate_chart, _saddle_seed,
                                 stable_manifold, unstable_manifold)
from travwave.speed import make_substitute_spec, manifold_gap


def _scipy_events(events) -> list:
    """scipy's form of (g, direction) pairs: a copy of each g, tagged
    terminal with its direction."""
    tagged = []
    for g, direction in events:
        def h(t, y, g=g):
            return g(t, y)
        h.terminal, h.direction = True, direction
        tagged.append(h)
    return tagged


def _ended(run) -> int | None:
    """The index of the event that ended a run of either integrator, the
    number of events at its span's end, None if the integrator failed."""
    if isinstance(run, Run):
        return run.ended
    roots = run.t_events or []  # None for a run without events
    return None if run.status == -1 else next(
        (i for i, t in enumerate(roots) if len(t)), len(roots))


def _twins(monkeypatch, module) -> list:
    """Make every ODE run of `module` run under scipy too; the returned
    list collects (package run, scipy run, rtol)."""
    inner, runs = module.solve_ivp, []

    def both(fun, t_span, y0, rtol, atol, dense_output=False, events=()):
        sol = inner(fun, t_span, y0, rtol, atol, dense_output=dense_output,
                    events=events)
        ref = scipy_solve_ivp(lambda t, y: fun(float(t), y.tolist()), t_span,
                              y0, method="DOP853", rtol=rtol, atol=atol,
                              dense_output=dense_output,
                              events=_scipy_events(events))
        runs.append((sol, ref, rtol))
        return sol
    monkeypatch.setattr(module, "solve_ivp", both)
    return runs


def _close(y, y_ref, rtol) -> bool:
    return bool(np.all(np.abs(y - y_ref)
                       <= rtol * np.maximum(1.0, np.abs(y_ref))))


def _assert_same_runs(runs) -> None:
    assert runs
    for sol, ref, rtol in runs:
        assert sol.ended is not None and sol.ended == _ended(ref)
        assert _close(sol.y[:, -1], ref.y[:, -1], rtol)
        assert (sol.sol is None) == (ref.sol is None)
        if sol.sol is not None:
            assert _close(sol.sol(sol.t), ref.sol(sol.t), rtol)


@pytest.fixture(scope="module")
def sandwich_cubic():
    return make_cubic_model(0.15, 4.5)


@pytest.mark.parametrize("case", ["weed", "sandwich"])
def test_shots_on_a_u1_grid_end_as_scipy_s(weed, sandwich_cubic, monkeypatch,
                                          case):
    # the weed at c = -0.1 and the Model-2 cubic at c = -0.9: 21 junctions
    # across each scan range, ending on P_sharp or on beta = 0, and one shot
    # with its sampled nodes
    spec, c = (weed, -0.1) if case == "weed" else (sandwich_cubic, -0.9)
    flat, sharp = unstable_manifold(spec, c), stable_manifold(spec, c)
    lo, hi, _ = pmp._scan_grid(spec, flat, 1e-3)
    runs = _twins(monkeypatch, pmp)
    grid = np.linspace(lo, hi, 21)
    for u1 in grid:
        pmp.shoot_from(spec, c, u1, flat.interp_p(), sharp.interp_p())
    pmp.shoot_from(spec, c, grid[10], flat.interp_p(), sharp.interp_p(),
                   want_nodes=True)
    assert {sol.ended for sol, _, _ in runs} == {0, 1}
    _assert_same_runs(runs)


def test_chart_runs_end_as_scipy_s(weed, monkeypatch):
    # dense: P_flat at c = -0.3 reaches U = 1, P_sharp at c = -0.1 reaches
    # U = 0; without dense output: both branches of the gap, to u*
    runs = _twins(monkeypatch, pp)
    unstable_manifold(weed, -0.3)
    stable_manifold(weed, -0.1)
    for c in (-0.3, -0.1):
        manifold_gap(weed, c)
    assert [sol.sol is None for sol, _, _ in runs] \
        == [False, False] + [True] * 4
    _assert_same_runs(runs)


def test_the_p_c_prime_orbit_ends_as_scipy_s(weed, monkeypatch):
    # finite_cost_control's orbit from 0.75 a0 at c = 0, which reaches U = 1
    sub = make_substitute_spec(weed, cc.default_substitute(weed))
    c_prime = 0.5 * acc._c_hat()
    a0 = cc._aux_left_end(sub, c_prime)
    runs = _twins(monkeypatch, cc)
    assert cc._pcprime_orbit(sub, c_prime, 0.75 * a0)[0]
    _assert_same_runs(runs)


def test_the_model_2_subsolution_arc_ends_as_scipy_s(m2_pipeline,
                                                    monkeypatch):
    # the arc of the Model-2 cubic at c = -0.9, three events (the
    # descending V-zero, V's cap and Theta's cap), with every retry
    runs = _twins(monkeypatch, model2)
    sub = model2.subsolution(m2_pipeline["spatial"], m2_pipeline["alpha"],
                             m2_pipeline["params"], -0.9)
    # halved while the arc hit V's cap, then cut at its V-zero
    ends = [sol.ended for sol, _, _ in runs]
    assert len(ends) > 1 and set(ends[:-1]) == {1} and ends[-1] == 0
    assert runs[-1][0].t[-1] == sub.meta["x1"]
    _assert_same_runs(runs)


def test_the_case_2_run_ends_as_scipy_s(monkeypatch):
    # backward in x, ended by the first sign change of V or Theta, either
    # way (direction 0)
    runs = _twins(monkeypatch, model2)
    rep = model2.case2_demo(Model2Params(1.0, 1.0, 1.0), -0.9)
    ((sol, _, _),) = runs
    assert sol.t[-1] == rep.x_violation < 0.0
    assert ("V", "Theta")[sol.ended] == rep.component
    _assert_same_runs(runs)


def test_lock_step_chart_columns_match_solve_ivp(weed):
    # P_flat columns at three speeds in one stepper, each run forward to u*
    # and compared with the chart run of its speed alone
    cs = np.array([-0.3, -0.2357, -0.1])
    seeds = [_saddle_seed(weed, c, 0.0) for c in cs]
    live_c = [cs]  # the live columns' speeds, in st.ids order
    st = LockStep(lambda u, y: (-live_c[0] - weed.f(u) / y[0])[None],
                  [u for u, _ in seeds], [p for _, p in seeds],
                  weed.u_star, 1e-10, 1e-12)
    ends = np.full(len(cs), np.nan)
    while len(st.ids):
        accept, stalled = st.step()
        assert not stalled.any()
        done = accept & (st.u == weed.u_star)
        ends[st.ids[done]] = st.y[0, done]
        st.keep(~done)
        live_c[0] = cs[st.ids]
    for (u0, p0), c, end in zip(seeds, cs, ends):
        _, p, how, _ = _integrate_chart(weed, c, None, u0, p0, weed.u_star,
                                        dense_output=False)
        assert how == "u_stop"
        assert abs(end - p[-1]) <= 1e-11


def test_a_step_underflow_stalls_where_scipy_s_does(weed, monkeypatch):
    # P_flat at c = -0.1 falls onto the U-axis near U = 0.631, where both
    # integrators fail.  There P' ~ f/P: the stall's position, which
    # agrees to rtol, moves P at a node by (f/P) dU, so P is compared only
    # at the nodes away from the stall, P >= 1e-3
    runs = _twins(monkeypatch, pp)
    unstable_manifold(weed, -0.1)
    ((sol, ref, rtol),) = runs
    assert sol.ended is _ended(ref) is None
    assert _close(sol.t[-1], ref.t[-1], rtol)
    assert sol.y[0, -1] <= P_COLLAPSE and ref.y[0, -1] <= P_COLLAPSE
    p_ref = ref.sol(sol.t)[0]
    away = p_ref >= 1e-3
    assert away.sum() > len(away) // 2
    assert _close(sol.sol(sol.t)[0][away], p_ref[away], rtol)


def _oscillator(events, dense_output=False, t_end=10.0):
    # y'' = -y from (1, 0): y = cos t, by both integrators
    kwargs = dict(rtol=1e-10, atol=1e-12, dense_output=dense_output)
    return (solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, t_end), [1.0, 0.0],
                      events=events, **kwargs),
            scipy_solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, t_end),
                            [1.0, 0.0], method="DOP853",
                            events=_scipy_events(events), **kwargs))


@pytest.mark.parametrize("events, ended, root", [
    ([(lambda t, y: y[0], -1)], 0, np.pi / 2),
    ([(lambda t, y: y[0], 1)], 0, 1.5 * np.pi),
    ([(lambda t, y: y[0] + 0.5, 0)], 0, 2 * np.pi / 3),
    ([(lambda t, y: -y[0] - 0.5, 0)], 0, 2 * np.pi / 3),
    # both fire in one step; the earlier root, the second event's, ends it
    ([(lambda t, y: y[0] - 0.49, -1), (lambda t, y: y[0] - 0.5, -1)], 1,
     np.pi / 3),
], ids=["down", "up", "either-down", "either-up", "earlier-of-two"])
def test_a_terminal_root_is_scipy_s_on_the_step_interpolant(events, ended,
                                                           root):
    # the run ends exactly on the root, located on the step's interpolant,
    # after as many RHS calls as scipy's run makes
    sol, ref = _oscillator(events)
    assert sol.ended == _ended(ref) == ended
    assert events[ended][0](sol.t[-1], sol.y[:, -1]) == pytest.approx(
        0.0, abs=1e-12)
    assert sol.t[-1] == pytest.approx(root, abs=1e-9)
    assert sol.t[-1] == pytest.approx(ref.t[-1], abs=1e-14)
    assert sol.nfev == ref.nfev


def test_dense_output_counts_its_extra_stages():
    # three RHS calls per step for the interpolant, as scipy counts them
    sol, ref = _oscillator([], dense_output=True)
    assert sol.ended == _ended(ref) == 0
    assert sol.nfev == ref.nfev > 15 * (len(sol.t) - 1)


@pytest.mark.parametrize("side", [0, 1], ids=["package", "scipy"])
def test_a_root_on_the_last_node_adds_no_step(side):
    # g = (t - node)^2 touches zero at a node from above, which does not
    # fire an upward event, and fires on the next step, at that node: the
    # run ends there without a zero-length step.  The two integrators' nodes
    # can part by an ulp, so each runs to its own fourth node
    node = float(_oscillator([])[side].t[3])
    sol = _oscillator([(lambda t, y: (t - node) ** 2, 1)],
                      dense_output=True)[side]
    assert _ended(sol) == 0
    assert sol.t[-1] == node and len(sol.t) == 4
    assert _close(sol.sol(sol.t), sol.y, 1e-12)


def test_a_zero_span_is_one_constant_step():
    sol = solve_ivp(lambda t, y: [1.0], (1.0, 1.0), [2.0], 1e-3, 1e-6,
                    dense_output=True)
    ref = scipy_solve_ivp(lambda t, y: [1.0], (1.0, 1.0), [2.0],
                          method="DOP853", dense_output=True)
    assert sol.ended == _ended(ref) == 0
    assert sol.nfev == ref.nfev == 1
    assert np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)
    assert np.array_equal(sol.sol([0.0, 1.0, 5.0]), ref.sol([0.0, 1.0, 5.0]))


def test_dense_output_takes_a_scalar_or_an_array():
    sol = solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, -3.0), [1.0, 0.0],
                    1e-10, 1e-12, dense_output=True)
    t = np.linspace(0.0, -3.0, 7)
    y = sol.sol(t)
    assert y.shape == (2, 7)
    assert np.allclose(y, [np.cos(t), -np.sin(t)], atol=1e-9)
    assert np.array_equal(sol.sol(t[3]), y[:, 3])
    assert np.array_equal(sol.sol(sol.t), np.column_stack(
        [sol.sol(s) for s in sol.t]))


def test_a_run_that_takes_no_step_fails_as_scipy_s():
    # the RHS is NaN past t0, so the first step falls below min_step: the
    # run fails at t0, and the dense solution is the constant y0
    def fun(t, y):
        return [y[0] if t == 0.0 else np.nan]
    kwargs = dict(rtol=1e-10, atol=1e-12, dense_output=True)
    sol = solve_ivp(fun, (0.0, 1.0), [0.5], **kwargs)
    ref = scipy_solve_ivp(fun, (0.0, 1.0), [0.5], method="DOP853", **kwargs)
    assert sol.ended is _ended(ref) is None
    assert sol.nfev == ref.nfev
    assert np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)
    assert np.array_equal(sol.sol([0.0, 0.5]), [[0.5, 0.5]])


def test_an_rtol_below_the_floor_runs_at_the_floor():
    # scipy raises rtol to 100 eps with a UserWarning, and so do both drivers
    def fun(t, y):
        return [y[1], -y[0]]
    with pytest.warns(UserWarning, match="rtol"):
        sol = solve_ivp(fun, (0.0, 3.0), [1.0, 0.0], 1e-16, 1e-14)
    with pytest.warns(UserWarning, match="rtol"):
        ref = scipy_solve_ivp(fun, (0.0, 3.0), [1.0, 0.0], method="DOP853",
                              rtol=1e-16, atol=1e-14)
    at_floor = solve_ivp(fun, (0.0, 3.0), [1.0, 0.0], RTOL_FLOOR, 1e-14)
    assert RTOL_FLOOR == 100 * np.finfo(float).eps
    assert sol.nfev == ref.nfev == at_floor.nfev
    assert np.array_equal(sol.y, at_floor.y)
    with pytest.warns(UserWarning, match="rtol"):
        st = LockStep(lambda u, y: y[::-1] * [[1.0], [-1.0]], [0.0],
                      [[1.0], [0.0]], 3.0, 1e-16, 1e-14)
    assert st.rtol == RTOL_FLOOR
