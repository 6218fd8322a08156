"""The package's DOP853 integrator against scipy's solve_ivp(method="DOP853").

Each ODE run of a program call below is made twice: by
`_dop853.solve_ivp`, which the program uses, and by scipy on the same
arguments, its (g, direction) event pairs turned into scipy's tagged
terminal events.  The two must end the same way: on the same event (or
at the span's end), with end states within the run's rtol max(1, |y|),
and dense solutions that agree to that bound at the run's nodes.

The generated step kernel is checked against the per-stage loops it
replaced, kept here as the oracle: the same bits out (a NaN's sign
aside, see `_bits`), the same calls of the right-hand side, the same
exception from the same call.
"""

from __future__ import annotations

import math
import struct
import traceback
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

import travwave.acceptance as acc
import travwave.control_construct as cc
import travwave.model2 as model2
import travwave.phaseplane as pp
import travwave.pmp as pmp
from travwave._dop853 import (B_ROW, D_ROWS, E3_ROW, E5_ROW, EXTRA_STAGES,
                              RTOL_FLOOR, STAGES, Run, _kernel, solve_ivp)
from travwave.model import Model2Params, make_cubic_model
from travwave.phaseplane import (P_COLLAPSE, stable_manifold,
                                 unstable_manifold)
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
    list collects (package run, scipy run, rtol).  Each scipy run's
    `tight()` repeats it at rtol 1e-13, atol 1e-16, without dense output."""
    inner, runs = module.solve_ivp, []

    def both(fun, t_span, y0, rtol, atol, dense_output=False, events=()):
        sol = inner(fun, t_span, y0, rtol, atol, dense_output=dense_output,
                    events=events)

        def scipy_run(rtol, atol, dense_output):
            return scipy_solve_ivp(lambda t, y: fun(float(t), y.tolist()),
                                   t_span, y0, method="DOP853", rtol=rtol,
                                   atol=atol, dense_output=dense_output,
                                   events=_scipy_events(events))
        ref = scipy_run(rtol, atol, dense_output)
        ref.tight = lambda: scipy_run(1e-13, 1e-16, False)
        runs.append((sol, ref, rtol))
        return sol
    monkeypatch.setattr(module, "solve_ivp", both)
    return runs


def _close(y, y_ref, rtol) -> bool:
    return bool(np.all(np.abs(y - y_ref)
                       <= rtol * np.maximum(1.0, np.abs(y_ref))))


def _end_distances(sol, ref) -> str:
    """Each driver's end-state distance from the tight scipy run, so that
    a failed end-state check shows which of the two moved."""
    y = ref.tight().y[:, -1]
    return (f"end states part; max distance from scipy at rtol 1e-13: "
            f"package {np.max(np.abs(sol.y[:, -1] - y)):.2g}, "
            f"scipy {np.max(np.abs(ref.y[:, -1] - y)):.2g}")


def _assert_same_runs(runs) -> None:
    assert runs
    for sol, ref, rtol in runs:
        assert sol.ended is not None and sol.ended == _ended(ref)
        assert _close(sol.y[:, -1], ref.y[:, -1], rtol), \
            _end_distances(sol, ref)
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
    # finite_cost_control's orbit at c = 0, which reaches U = 1.  The start
    # is 0.75 a0 with a0 from the chart run that stopped on a square-root
    # asymptote, kept as a literal: on this orbit each driver ends 1e-12
    # to 4e-11 from scipy at rtol 1e-13 as the start's last bits move, and
    # a * (1 + 1e-12) parts the two by 4.1e-11 (scipy 3.8e-11 off, the
    # package 2.6e-12), beyond this check's rtol 1e-11
    sub = make_substitute_spec(weed, cc.default_substitute(weed))
    runs = _twins(monkeypatch, cc)
    assert cc._pcprime_orbit(sub, 0.5 * acc._c_hat(), 0.10678250420348792)[0]
    _assert_same_runs(runs)


def test_a_parted_end_state_names_each_driver_s_distance(weed, monkeypatch):
    # a package end state moved by 1e-3 fails the check, and the message
    # shows which driver moved away from the tight scipy run
    sub = make_substitute_spec(weed, cc.default_substitute(weed))
    runs = _twins(monkeypatch, cc)
    cc._pcprime_orbit(sub, 0.5 * acc._c_hat(), 0.1)
    runs[0][0].y[:, -1] += 1e-3
    with pytest.raises(AssertionError, match=r"rtol 1e-13: package 0\.001, "
                                             r"scipy \d(\.\d)?e-1[0-6]\b"):
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
    # scipy raises rtol to 100 eps with a UserWarning, and so does the driver
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


# The per-stage loops that `_kernel` replaced, verbatim: the oracle of
# its bits.


def _add_stages(fun, t, y, h, K, stages) -> None:
    """Append the values of each (c, a row) stage to K, which holds each
    component's stage values so far."""
    for c, a in stages:
        k = fun(t + c * h, [v + sum(map(mul, a, ks)) * h
                            for v, ks in zip(y, K)])
        for ks, v in zip(K, k):
            ks.append(v)


def _trial(fun, t, y, f, h):
    """One trial step of size h: (y_new, f_new, K), where K holds each
    component's stage values, f first and f_new last."""
    K = [[v] for v in f]
    _add_stages(fun, t, y, h, K, STAGES)
    y_new = [v + h * sum(map(mul, B_ROW, ks)) for v, ks in zip(y, K)]
    f_new = fun(t + h, y_new)
    for ks, v in zip(K, f_new):
        ks.append(v)
    return y_new, f_new, K


def _error_norm(K, y, y_new, h, rtol, atol) -> float:
    """scipy's DOP853 error norm: the 5th-order estimate corrected by the
    3rd-order one, scaled by the larger of |y| and |y_new|."""
    e5 = e3 = 0.0
    for ks, v, v_new in zip(K, y, y_new):
        # y_new first: a NaN there propagates, as in np.maximum
        scale = atol + max(abs(v_new), abs(v)) * rtol
        r5 = sum(map(mul, E5_ROW, ks)) / scale
        r3 = sum(map(mul, E3_ROW, ks)) / scale
        e5 += r5 * r5
        e3 += r3 * r3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _dense_step(fun, t_old, y_old, f_old, y, f, h, K):
    """The accepted step's interpolant (t_old, h, y_old, coefficients);
    its three extra stages call fun."""
    _add_stages(fun, t_old, y_old, h, K, EXTRA_STAGES)
    coefs = []
    for v_old, v, fo, fv, ks in zip(y_old, y, f_old, f, K):
        dv = v - v_old
        d3, d4, d5, d6 = (h * sum(map(mul, r, ks)) for r in D_ROWS)
        # in Horner order, highest power first
        coefs.append((d6, d5, d4, d3, 2 * dv - h * (fv + fo), h * fo - dv,
                      dv))
    return t_old, h, y_old, coefs


def _loops(fun, t, y, f, h, rtol, atol):
    y_new, f_new, K = _trial(fun, t, y, f, h)
    err = _error_norm(K, y, y_new, h, rtol, atol)
    flat = [v for ks in K for v in ks]
    _, _, _, coefs = _dense_step(fun, t, y, f, y_new, f_new, h, K)
    return y_new, f_new, flat, err, coefs


def _generated(fun, t, y, f, h, rtol, atol):
    trial, dense = _kernel(len(y))
    y_new, f_new, K, err = trial(fun, t, y, f, h, rtol, atol)
    _, _, _, coefs = dense(fun, t, y, y_new, h, K)
    return y_new, f_new, list(K), err, coefs


def _bits(x):
    """Every float of a nested result as its 8 bytes, so -0.0 counts, and
    a NaN as "nan".  Where two NaNs meet, CPython 3.11 returns the other
    one's sign and payload once it specialises a + b for floats (after a
    few runs of the line), and sum's C loop returns the item's: a NaN's
    sign is the interpreter's, not the arithmetic's, and nothing reads it.
    """
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return "nan" if math.isnan(x) else struct.pack("d", x)


def _counted(fault):
    """A nonlinear RHS that counts its calls; `fault` (kind, n) makes call
    n return inf, -inf or NaN in every component, or raise.  tanh takes
    an infinite input back to a finite value, so a stage that meets
    0.0 * inf is NaN where one that skipped the term would be finite."""
    calls = [0]

    def fun(t, y):
        calls[0] += 1
        if fault is not None and calls[0] == fault[1]:
            if fault[0] == "raise":
                raise RuntimeError(f"call {calls[0]}")
            return [float(fault[0])] * len(y)
        m = len(y)
        return [math.tanh(v * y[(i + 1) % m] + t) - 0.5 * math.tanh(v)
                for i, v in enumerate(y)]
    return fun, calls


def _outcome(driver, fault, t, y, f, h, rtol, atol):
    """(bits of the result or the exception's repr, RHS calls made)."""
    fun, calls = _counted(fault)
    try:
        out = _bits(driver(fun, t, y, f, h, rtol, atol))
    except (ArithmeticError, RuntimeError) as exc:
        out = repr(exc)
    return out, calls[0]


_floats = st.floats(-1e3, 1e3)
_states = st.integers(1, 3).flatmap(
    lambda m: st.tuples(*[st.lists(_floats, min_size=m, max_size=m)] * 2))


@settings(max_examples=300, deadline=None)
@given(t=_floats, yf=_states, h=st.floats(-2.0, 2.0),
       rtol=st.floats(1e-14, 1e-2), atol=st.floats(0.0, 1e-3),
       fault=st.none() | st.tuples(
           st.sampled_from(["inf", "-inf", "nan", "raise"]),
           st.integers(1, 15)))
# stage 1 inf: stage 3 reads it through its zero entry, 0.0 * inf = NaN
@example(t=0.5, yf=([0.3, -0.2], [1.0, 0.5]), h=0.1, rtol=1e-8, atol=1e-10,
         fault=("inf", 1))
@example(t=0.5, yf=([0.3], [1.0]), h=-0.1, rtol=1e-8, atol=1e-10,
         fault=("nan", 7))
# fun raises at stage 5, and at the second extra stage of the interpolant
@example(t=0.0, yf=([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]), h=0.2, rtol=1e-6,
         atol=1e-9, fault=("raise", 5))
@example(t=0.0, yf=([1.0, 2.0], [0.5, 0.5]), h=0.2, rtol=1e-6, atol=1e-9,
         fault=("raise", 14))
# a zero scale: 0.0 / 0.0 raises in both
@example(t=0.0, yf=([0.0], [0.0]), h=0.0, rtol=1e-6, atol=0.0, fault=None)
def test_the_kernel_is_the_stage_loops_bit_for_bit(t, yf, h, rtol, atol,
                                                   fault):
    # y_new, f_new, every stage value, the error norm and the seven dense
    # coefficients per component, or the same exception after as many calls
    y, f = yf
    args = (fault, t, y, f, h, rtol, atol)
    assert _outcome(_generated, *args) == _outcome(_loops, *args)


def test_a_stage_s_exception_shows_its_generated_line():
    # calls 1 and 2 are the initial step's, call 3 is the first stage
    fun, _ = _counted(("raise", 3))
    with pytest.raises(RuntimeError, match="call 3") as info:
        solve_ivp(fun, (0.0, 1.0), [1.0, 0.0], 1e-8, 1e-10)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<dop853 step m=2>"' in text
    assert "[k1_0, k1_1] = fun(t + " in text
