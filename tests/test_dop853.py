"""The package's DOP853 integrator against scipy's solve_ivp(method="DOP853").

Each ODE run of a program call below is made twice: by
`_dop853.solve_ivp`, which the program uses, and by scipy on the same
arguments.  The two must end the same way: the same status and terminal
event, end states within the run's rtol max(1, |y|), and dense solutions
that agree to that bound at the run's nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import travwave.acceptance as acc
import travwave.control_construct as cc
import travwave.phaseplane as pp
import travwave.pmp as pmp
from travwave._dop853 import RTOL_FLOOR, LockStep, solve_ivp
from travwave.model import make_cubic_model
from travwave.phaseplane import (P_COLLAPSE, _stopped_by, _terminal,
                                 stable_manifold, unstable_manifold)
from travwave.speed import make_substitute_spec, manifold_gap


def _twins(monkeypatch, module) -> list:
    """Make every ODE run of `module` run under scipy too; the returned
    list collects (package run, scipy run, rtol)."""
    inner, runs = module.solve_ivp, []

    def both(fun, t_span, y0, rtol, atol, dense_output=False, events=()):
        sol = inner(fun, t_span, y0, rtol, atol, dense_output=dense_output,
                    events=events)
        ref = scipy_solve_ivp(lambda t, y: fun(float(t), y.tolist()), t_span,
                              y0, method="DOP853", rtol=rtol, atol=atol,
                              dense_output=dense_output, events=list(events))
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
        assert sol.status == ref.status != -1
        assert _stopped_by(sol) == _stopped_by(ref)
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
    assert {_stopped_by(sol) for sol, _, _ in runs} == {0, 1}
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


def test_a_step_underflow_stalls_where_scipy_s_does(weed, monkeypatch):
    # P_flat at c = -0.1 falls onto the U-axis near U = 0.631, where both
    # integrators fail with status -1.  There P' ~ f/P: the stall's position,
    # which agrees to rtol, moves P at a node by (f/P) dU, so P is compared
    # only at the nodes away from the stall, P >= 1e-3
    runs = _twins(monkeypatch, pp)
    unstable_manifold(weed, -0.1)
    ((sol, ref, rtol),) = runs
    assert sol.status == ref.status == -1
    assert _stopped_by(sol) is _stopped_by(ref) is None
    assert _close(sol.t[-1], ref.t[-1], rtol)
    assert sol.y[0, -1] <= P_COLLAPSE and ref.y[0, -1] <= P_COLLAPSE
    p_ref = ref.sol(sol.t)[0]
    away = p_ref >= 1e-3
    assert away.sum() > len(away) // 2
    assert _close(sol.sol(sol.t)[0][away], p_ref[away], rtol)


def _oscillator(events, dense_output=False, t_end=10.0):
    # y'' = -y from (1, 0): y = cos t, by both integrators
    kwargs = dict(rtol=1e-10, atol=1e-12, dense_output=dense_output,
                  events=_terminal(*events))
    return (solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, t_end), [1.0, 0.0],
                      **kwargs),
            scipy_solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, t_end),
                            [1.0, 0.0], method="DOP853", **kwargs))


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
    assert sol.status == ref.status == 1
    assert _stopped_by(sol) == _stopped_by(ref) == ended
    assert sol.t[-1] == sol.t_events[ended][0]
    assert sol.t[-1] == pytest.approx(root, abs=1e-9)
    assert sol.t[-1] == pytest.approx(ref.t[-1], abs=1e-14)
    assert sol.nfev == ref.nfev


def test_dense_output_counts_its_extra_stages():
    # three RHS calls per step for the interpolant, as scipy counts them
    sol, ref = _oscillator([], dense_output=True)
    assert sol.status == ref.status == 0
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
    assert sol.status == 1
    assert sol.t[-1] == node and len(sol.t) == 4
    assert _close(sol.sol(sol.t), sol.y, 1e-12)


def test_a_zero_span_is_one_constant_step():
    sol = solve_ivp(lambda t, y: [1.0], (1.0, 1.0), [2.0], 1e-3, 1e-6,
                    dense_output=True)
    ref = scipy_solve_ivp(lambda t, y: [1.0], (1.0, 1.0), [2.0],
                          method="DOP853", dense_output=True)
    assert sol.status == ref.status == 0
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
    # the RHS is NaN past t0, so the first step falls below min_step: status
    # -1 at t0, and the dense solution is the constant y0
    def fun(t, y):
        return [y[0] if t == 0.0 else np.nan]
    kwargs = dict(rtol=1e-10, atol=1e-12, dense_output=True)
    sol = solve_ivp(fun, (0.0, 1.0), [0.5], **kwargs)
    ref = scipy_solve_ivp(fun, (0.0, 1.0), [0.5], method="DOP853", **kwargs)
    assert sol.status == ref.status == -1
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
        st = LockStep(lambda u, y, ids: y[::-1] * [[1.0], [-1.0]], [0.0],
                      [[1.0], [0.0]], [3.0], 1e-16, 1e-14)
    assert st.rtol == RTOL_FLOOR
