"""Optimality system: shooting map, optimal profiles, effort table."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import travwave.control_construct as cc
import travwave.phaseplane as pp
import travwave.pmp as pmp
from travwave.control_construct import finite_cost_control
from travwave.errors import (ConvexityViolationError, InvalidParameterError,
                             NoSolutionError, SingularityError)
from travwave.model import make_cubic_model, make_logistic_model
from travwave.phaseplane import stable_manifold, unstable_manifold
from travwave._roots import flips
from travwave.pmp import (_generic_rhs, _scan_grid, effort_curve,
                          optimal_profile, pmp_residual, shoot_from)


@pytest.fixture(scope="module")
def manifolds01(weed):
    flat = unstable_manifold(weed, -0.1, u_stop=1.0)
    sharp = stable_manifold(weed, -0.1, u_stop=0.0)
    return flat, sharp


def test_shooting_map_changes_sign(weed, manifolds01):
    flat, sharp = manifolds01
    pf, ps = flat.interp_p(), sharp.interp_p()
    u_bar = flat.termination_u
    grid = np.linspace(weed.u_star + 0.01, u_bar - 0.01, 12)
    phis = [shoot_from(weed, -0.1, u1, pf, ps).phi for u1 in grid]
    signs = np.sign(phis)
    assert signs[0] > 0 and signs[-1] < 0
    assert np.any(signs[:-1] * signs[1:] < 0)


def test_shot_failure_mode_near_crash(weed, manifolds01):
    # close to the crash point of P_flat the control is exhausted at once
    flat, sharp = manifolds01
    res = shoot_from(weed, -0.1, flat.termination_u - 5e-4,
                     flat.interp_p(), sharp.interp_p())
    assert res.status in ("beta_zero", "p_zero")
    assert res.phi < 0.0


def test_shot_integrator_failure(weed, manifolds01):
    # a right-hand side that turns NaN makes the step size collapse there
    flat, sharp = manifolds01
    pf, ps = flat.interp_p(), sharp.interp_p()

    def nan_past(u, P, beta, c):
        if u > 0.46 or not np.isfinite(P + beta):
            return np.nan, np.nan
        return weed.pmp_rhs(u, P, beta, c)
    # with P far from zero that is a failure, not a beta_zero shot
    with pytest.raises(SingularityError) as info:
        shoot_from(dataclasses.replace(weed, pmp_rhs=nan_past), -0.1, 0.45,
                   pf, ps)
    assert info.value.location == pytest.approx(0.46, abs=1e-9)

    def nan_near_axis(u, P, beta, c):
        return (np.nan, np.nan) if not P >= 1e-6 else (-10.0, 1.0)
    # where P has collapsed onto the U-axis it is still a p_zero shot
    res = shoot_from(dataclasses.replace(weed, pmp_rhs=nan_near_axis), -0.1,
                     0.45, pf, ps)
    assert res.status == "p_zero" and res.p_end <= 1e-5
    assert res.phi == -(float(ps(res.u_end)) - res.p_end) < 0.0


def test_trivial_profile_at_natural_speed(weed, c_star_weed):
    prof = optimal_profile(weed, c_star_weed, c_star=c_star_weed)
    assert prof.cost == 0.0
    assert prof.u1 == prof.u2 == weed.u_star
    assert pmp_residual(prof, weed).yu_max == 0.0


def test_trivial_profile_within_the_speed_guard(weed, c_star_weed):
    # the guard band around c* is the one finite_cost_control uses
    prof = optimal_profile(weed, c_star_weed + 5e-10, c_star=c_star_weed)
    assert prof.cost == 0.0 and prof.arc is None


@pytest.mark.parametrize("entry", [
    optimal_profile, lambda spec, c, **kw: effort_curve(spec, [c], **kw),
    finite_cost_control,
], ids=["optimal_profile", "effort_curve", "finite_cost_control"])
@pytest.mark.parametrize("case, needle", [
    ("c_nan", "speed must be finite"), ("c_star_nan", "c_star must be finite"),
    ("below_c_star", "speed ordering violated"),
])
def test_one_speed_rule_refuses_before_any_solve(weed, c_star_weed,
                                                 monkeypatch, entry, case,
                                                 needle):
    # below c* optimal_profile returned the natural heteroclinic at cost 0,
    # relabelled with the requested speed
    c, c_star = {"c_nan": (np.nan, None), "c_star_nan": (-0.1, np.nan),
                 "below_c_star": (c_star_weed - 1e-3, c_star_weed)}[case]

    def solved(*args, **kwargs):
        raise AssertionError("a speed or a shot was solved")
    monkeypatch.setattr(pmp, "shoot_from", solved)
    monkeypatch.setattr(cc, "natural_speed", solved)
    monkeypatch.setattr(cc, "_speed", solved)
    with pytest.raises(InvalidParameterError, match=needle):
        entry(weed, c, c_star=c_star)


def test_optimal_profile_invariants(weed, c_star_weed, opt01, manifolds01):
    prof = opt01
    assert weed.u_star < prof.u1 < prof.u2 < 1.0
    arc = prof.arc
    assert float(arc.beta_values[0]) <= 1e-6
    assert float(arc.beta_values[-1]) <= 1e-6
    assert np.all(arc.beta_values[1:-1] >= 0.0)
    flat, sharp = manifolds01
    assert abs(arc.p_values[0] - float(flat.interp_p()(prof.u1))) <= 1e-8
    assert abs(arc.p_values[-1] - float(sharp.interp_p()(prof.u2))) <= 1e-8
    # stationarity of the control: Y + L_beta = 0 along the arc
    inner = slice(1, -1)
    lb = np.asarray(weed.L_beta(arc.u_nodes[inner], arc.beta_values[inner]))
    assert np.max(np.abs(arc.y_values[inner] + lb)) <= 1e-6


def test_transversality_boundary_conditions(weed, opt01):
    # Y(u_i) + L_beta(u_i, 0+) = 0 at both junctions, Y from stationarity
    arc = opt01.arc
    for k, u in ((0, opt01.u1), (-1, opt01.u2)):
        y = -float(weed.L_beta(u, float(arc.beta_values[k])))
        assert abs(y + float(weed.L_beta(u, 0.0))) <= 1e-5


def test_pmp_residual_and_argmin(weed, opt01):
    rep = pmp_residual(opt01, weed)
    assert rep.yu_max <= 1e-5
    assert rep.min22_failures == 0


def test_argmin_check_detects_perturbation(weed, opt01):
    import copy
    prof = copy.deepcopy(opt01)
    k = len(prof.arc.u_nodes) // 2
    prof.arc.beta_values[k] += 1e-3
    rep = pmp_residual(prof, weed)
    assert rep.min22_failures > 0


def _argmin_failures_loop(profile, spec, n_beta=41):
    """Reference for pmp_residual's argmin count: one node at a time."""
    u, b = profile.arc.u_nodes, profile.arc.beta_values
    Y = profile.arc.y_values
    failures = 0
    for i in range(len(u)):
        bhat = float(spec.beta_max(u[i]))
        hi = 0.999 * bhat if np.isfinite(bhat) else 5.0
        if hi <= 0.0:
            continue
        cand = np.linspace(0.0, hi, n_beta)
        vals = cand * Y[i] + np.asarray(spec.L(np.full_like(cand, u[i]), cand),
                                        dtype=float)
        here = b[i] * Y[i] + float(spec.L(u[i], b[i]))
        failures += int(np.sum(vals < here - 1e-8))
    return failures


def test_argmin_count_matches_node_loop(weed, opt01, monkeypatch):
    import copy
    rng = np.random.default_rng(1)
    prof = copy.deepcopy(opt01)
    # perturb every 40th control both ways, and push the first nodes to
    # u <= u* where the control range is empty and the node is skipped
    k = np.arange(0, len(prof.arc.u_nodes), 40)
    prof.arc.beta_values[k] *= 1.0 + rng.uniform(-0.2, 0.2, len(k))
    prof.arc.u_nodes[:3] = weed.u_star - np.array([0.02, 0.01, 0.0])
    for p in (opt01, prof):
        for n_beta in (41, 7):
            with monkeypatch.context() as m:
                m.setattr(pmp, "N_BETA", n_beta)
                rep = pmp_residual(p, weed)
            assert np.isfinite(rep.yu_max)
            assert rep.min22_failures == _argmin_failures_loop(p, weed, n_beta)
            assert rep.n_checked == len(p.arc.u_nodes)
    assert pmp_residual(prof, weed).min22_failures > 10


def test_optimal_cost_below_constructed(weed, c_star_weed, opt01):
    con = finite_cost_control(weed, -0.1, c_star=c_star_weed)
    assert opt01.cost <= con.cost


@pytest.mark.parametrize("c, u1", [(np.nan, 0.5), (-0.1, np.nan),
                                   (np.inf, 0.5)])
def test_a_shot_needs_a_finite_speed_and_junction(weed, manifolds01, c, u1):
    # c = NaN raised SingularityError, u1 = NaN ConvexityViolationError
    flat, sharp = manifolds01
    with pytest.raises(InvalidParameterError, match="must be finite"):
        shoot_from(weed, c, u1, flat.interp_p(), sharp.interp_p())


def test_a_shot_needs_p_flat_above_the_axis(weed, manifolds01):
    _, sharp = manifolds01
    with pytest.raises(InvalidParameterError, match="is not positive"):
        shoot_from(weed, -0.1, 0.5, lambda u: 0.0, sharp.interp_p())


@pytest.mark.parametrize("tols", [{"rtol": 0.0}, {"rtol": -1.0},
                                  {"atol": np.nan}])
def test_shooting_tolerances_must_be_finite_and_positive(
        weed, c_star_weed, manifolds01, tols):
    flat, sharp = manifolds01
    with pytest.raises(InvalidParameterError, match="tol must be finite"):
        shoot_from(weed, -0.1, 0.5, flat.interp_p(), sharp.interp_p(), **tols)
    with pytest.raises(InvalidParameterError, match="tol must be finite"):
        optimal_profile(weed, -0.1, c_star=c_star_weed, **tols)


def test_a_speed_floor_that_is_not_finite_is_refused(weed, monkeypatch):
    # c_star = NaN ran a scan and raised NoSolutionError below c*, and made
    # an effort row of NaN
    monkeypatch.setattr(pmp, "unstable_manifold", None)
    with pytest.raises(InvalidParameterError, match="c_star must be finite"):
        optimal_profile(weed, -0.3, c_star=np.nan)
    with pytest.raises(InvalidParameterError, match="c_star must be finite"):
        effort_curve(weed, [-0.3], c_star=np.nan)


def test_gate_rejects_monostable():
    with pytest.raises(InvalidParameterError):
        optimal_profile(make_logistic_model(1.0), -0.1)


def test_gate_rejects_a_linear_cost(weed):
    # bistable f passes the first gate; the logistic cost is linear in beta
    lin = make_logistic_model(1.0)
    spec = dataclasses.replace(weed, L=lin.L, L_beta=lin.L_beta,
                               L_betabeta=lin.L_betabeta,
                               L_ubeta=lin.L_ubeta, beta_max=lin.beta_max,
                               pmp_rhs=None)
    with pytest.raises(InvalidParameterError, match="strictly convex cost"):
        optimal_profile(spec, -0.1)


def test_no_solution_reports_scan_table(weed, c_star_weed):
    # far above the reachable speed range the shooting map has no root
    with pytest.raises(NoSolutionError) as info:
        optimal_profile(weed, 0.75, c_star=c_star_weed)
    table = np.asarray(info.value.phi_table)
    assert table.ndim == 2 and table.shape[0] > 0 and table.shape[1] == 2
    assert np.all(np.isfinite(table))
    phi = table[:, 1]
    assert np.all(phi < 0.0) or np.all(phi > 0.0)


def test_effort_row_independence(weed, c_star_weed, opt01):
    rows = effort_curve(weed, [-0.1], c_star=c_star_weed)
    assert rows[0].ok
    assert rows[0].effort == pytest.approx(opt01.cost, rel=1e-9)


def test_effort_requires_admissible_speeds(weed, c_star_weed):
    with pytest.raises(InvalidParameterError):
        effort_curve(weed, [c_star_weed - 0.1], c_star=c_star_weed)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_optimal_profile_rejects_a_non_finite_speed(weed, c_star_weed, c):
    with pytest.raises(InvalidParameterError, match="finite"):
        optimal_profile(weed, c, c_star=c_star_weed)


@pytest.mark.parametrize("resolution", [0.0, -1e-3, np.nan])
def test_scan_resolution_must_be_finite_and_positive(weed, c_star_weed,
                                                     resolution):
    with pytest.raises(InvalidParameterError, match="scan_resolution"):
        optimal_profile(weed, -0.1, scan_resolution=resolution,
                        c_star=c_star_weed)


def test_a_resolution_past_the_scan_range_is_refused(weed, c_star_weed):
    with pytest.raises(NoSolutionError, match="empty scan range"):
        optimal_profile(weed, -0.1, scan_resolution=1.0, c_star=c_star_weed)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_effort_requires_finite_speeds(weed, c_star_weed, c):
    with pytest.raises(InvalidParameterError, match="finite"):
        effort_curve(weed, [c], c_star=c_star_weed)


def test_effort_curve_mixes_trivial_and_controlled_rows(weed, c_star_weed, opt01):
    rows = effort_curve(weed, [c_star_weed, -0.1], c_star=c_star_weed)
    assert rows[0].effort == 0.0
    assert rows[1].effort == pytest.approx(opt01.cost, rel=1e-9)


def test_effort_curve_records_no_solution_row(weed, c_star_weed):
    rows = effort_curve(weed, [0.75], c_star=c_star_weed)
    assert not rows[0].ok
    assert np.isnan(rows[0].effort)
    assert "no sign change of phi" in rows[0].message


def test_effort_curve_propagates_programming_errors(weed, c_star_weed):
    # a broken right-hand side is a bug, not a per-row failure
    def broken(u, P, beta, c):
        return P + "not a number", beta
    spec = dataclasses.replace(weed, pmp_rhs=broken)
    with pytest.raises(TypeError):
        effort_curve(spec, [-0.1], c_star=c_star_weed)


@settings(max_examples=400, deadline=None)
@given(u_star=st.floats(0.05, 0.5), rate=st.floats(0.1, 10.0),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 2.0),
                                 st.floats(-1.0, 2.0)),
                       min_size=1, max_size=40),
       c=st.floats(-1.0, 1.0))
def test_fused_rhs_matches_generic(u_star, rate, points, c):
    spec = make_cubic_model(u_star, rate)
    generic = _generic_rhs(spec)
    for u, P, frac in points:
        if u <= u_star:
            # beta_max = 0 there: no admissible control, L_betabeta = inf
            for rhs in (spec.pmp_rhs, generic):
                with pytest.raises(ConvexityViolationError):
                    rhs(u, P, frac, c)
            continue
        # frac < 0 and frac >= 1 exercise the clamp to [0, beta_max)
        beta = frac * float(spec.beta_max(u))
        fused = spec.pmp_rhs(u, P, beta, c)
        # the same operations in the same order: equal to the bit, which is
        # what keeps optimal_profile's bisection path unchanged
        assert fused == generic(u, P, beta, c)


@pytest.mark.parametrize("fused", [True, False])
def test_nonfinite_state_is_a_singularity(weed, fused):
    rhs = weed.pmp_rhs if fused else _generic_rhs(weed)
    # a NaN control above u*, and any non-finite state below u*, where the
    # error branch is taken anyway: the state is named, not the convexity
    for u, P, beta in ((0.5, 0.1, np.nan), (0.5, np.nan, np.nan),
                       (0.2, np.nan, 0.0), (0.2, 0.1, np.inf)):
        with pytest.raises(SingularityError, match="non-finite") as info:
            rhs(u, P, beta, -0.1)
        assert info.value.location == u
    # a finite state below u* is still a convexity violation
    with pytest.raises(ConvexityViolationError):
        rhs(0.2, 0.1, 0.0, -0.1)


def test_the_scan_takes_the_fused_rhs(weed, monkeypatch):
    # a silent fall-back from the fused right-hand side to the generic one
    # keeps every result and loses the speed: nothing may build it here
    def refuse(spec):
        raise AssertionError("_generic_rhs built for a fused spec")
    monkeypatch.setattr(pmp, "_generic_rhs", refuse)
    prof = optimal_profile(weed, -0.1)
    assert prof.converged.n_scanned > 0 and prof.cost > 0.0


def test_a_shot_reads_its_curves_on_floats(weed, manifolds01, monkeypatch):
    # shoot_from looks P_flat and P_sharp up one float at a time; each
    # lookup must take the interpolant's plain-float path, not the array
    # path of phaseplane._pchip_at
    flat, sharp = manifolds01
    pf, ps = flat.interp_p(), sharp.interp_p()
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)
    inner = pp._pchip_at
    monkeypatch.setattr(pp, "_pchip_at", counted)
    for want_nodes in (False, True):
        shot = shoot_from(weed, -0.1, 0.45, pf, ps, want_nodes=want_nodes)
        assert shot.u_end > 0.45 and np.isfinite(shot.phi)
    assert calls == []
    pf(np.array([0.45]))  # the array path is the one counted
    ps(np.array([0.45]))
    assert len(calls) == 2


def _scan_case(spec, c, resolution):
    flat = unstable_manifold(spec, c, u_stop=1.0)
    sharp = stable_manifold(spec, c, u_stop=0.0)
    pf, ps = flat.interp_p(), sharp.interp_p()
    return _scan_grid(spec, flat, resolution)[2], pf, ps


def _searched_bracket(spec, c, grid, pf, ps):
    """(_grid_bracket's answer, the u1 it shot, scalar phi on every grid
    point)."""
    probed = []

    def phi(u1):
        probed.append(u1)
        return shoot_from(spec, c, u1, pf, ps).phi
    bracket = pmp._grid_bracket(phi, grid.tolist())
    return bracket, probed, [phi(u1) for u1 in grid.tolist()]


def _check_search_against_list(grid, bracket, probed, phis):
    """The search's bracket is the scalar list's one sign change, found in
    about log2 n shots; None only where the list's ends share a sign."""
    assert np.all(np.isfinite(phis))
    changes = flips(phis, 0.0)
    probed = probed[:len(probed) - len(grid)]  # the search's own shots
    assert len(probed) <= math.ceil(math.log2(len(grid))) + 2
    if bracket is None:
        assert np.sign(phis[0]) * np.sign(phis[-1]) >= 0.0
    else:
        assert len(changes) == 1
        (i, j), = changes
        assert bracket == (grid[i], grid[j])


@settings(max_examples=8, deadline=None)
@given(u_star=st.floats(0.1, 0.45), rate=st.floats(0.3, 8.0),
       frac=st.floats(0.02, 1.0))
def test_scan_signs_match_scalar_phi(u_star, rate, frac):
    # speeds from just above the exact c* = sqrt(rate/2) (2u* - 1) upward
    spec = make_cubic_model(u_star, rate)
    scale = np.sqrt(rate / 2.0)
    c = scale * (2.0 * u_star - 1.0) + 0.5 * frac * scale
    grid, pf, ps = _scan_case(spec, c, 1e-2)
    _check_search_against_list(grid, *_searched_bracket(spec, c, grid,
                                                         pf, ps))


@st.composite
def _cubic_cases(draw):
    """(u*, rate, c) over the cubic box, c from just above the exact
    c* = sqrt(rate/2) (2u* - 1) to c* + 1.5 sqrt(rate/2)."""
    u_star = draw(st.floats(0.05, 0.5))
    rate = draw(st.floats(0.1, 10.0))
    scale = math.sqrt(rate / 2.0)
    c_star = scale * (2.0 * u_star - 1.0)
    return u_star, rate, draw(st.floats(c_star + 0.01 * scale,
                                        c_star + 1.5 * scale))


# seed-0 speed of the model2_sandwich benchmark set-up; u1 = 0.3461640213...
# is the root where phi jumps between the met_psharp and beta_zero branches
SANDWICH_C = -0.8965557814847496
SANDWICH_U1 = 0.3461640213131907


# the ROADMAP's worst draw of the 40 cubic draws
WORST_DRAW = (0.06739491614261098, 5.716042082249537, -0.16594270322585647)


@settings(max_examples=100, deadline=None)
@given(case=_cubic_cases())
@example(case=(0.15, 4.5, SANDWICH_C))
@example(case=WORST_DRAW)
@example(case=(1.0 / 3.0, 1.0, -0.1))
def test_phi_on_the_scan_grid_changes_sign_at_most_once(case):
    # the grid search relies on at most one change, + below and - above:
    # an even number of changes goes to the scalar list, and an odd number
    # of three or more would lose roots
    u_star, rate, c = case
    spec = make_cubic_model(u_star, rate)
    try:
        grid, pf, ps = _scan_case(spec, c, 1e-2)
    except NoSolutionError:  # an empty scan range: no grid to sign
        return
    phis = [shoot_from(spec, c, u1, pf, ps).phi for u1 in grid]
    assert np.all(np.isfinite(phis))
    changes = flips(phis, 0.0)
    assert len(changes) <= 1
    for i, j in changes:
        assert phis[i] > 0.0 > phis[j]


@pytest.mark.parametrize("case", ["weed", "sandwich"])
def test_dense_output_does_not_change_shots(weed, manifolds01, case):
    if case == "weed":
        spec, c = weed, -0.1
        flat, sharp = manifolds01
        grid = np.linspace(0.34, 0.62, 15)
    else:
        spec, c = make_cubic_model(0.15, 4.5), SANDWICH_C
        flat = unstable_manifold(spec, c, u_stop=1.0)
        sharp = stable_manifold(spec, c, u_stop=0.0)
        grid = np.append(np.linspace(0.16, 0.6, 12),
                         [SANDWICH_U1, SANDWICH_U1 + 6e-11])
    pf, ps = flat.interp_p(), sharp.interp_p()
    statuses = set()
    for u1 in grid:
        bare = shoot_from(spec, c, u1, pf, ps)
        dense = shoot_from(spec, c, u1, pf, ps, want_nodes=True)
        assert (bare.status, bare.phi, bare.u_end, bare.p_end, bare.beta_end) \
            == (dense.status, dense.phi, dense.u_end, dense.p_end,
                dense.beta_end)
        statuses.add(bare.status)
    assert statuses == {"met_psharp", "beta_zero"}


def test_fused_shot_matches_generic(weed, manifolds01):
    flat, sharp = manifolds01
    pf, ps = flat.interp_p(), sharp.interp_p()
    generic = dataclasses.replace(weed, pmp_rhs=None)
    statuses = set()
    for u1 in (0.4, 0.45, 0.5, 0.55, 0.6):
        fused = shoot_from(weed, -0.1, u1, pf, ps)
        ref = shoot_from(generic, -0.1, u1, pf, ps)
        assert fused.status == ref.status
        assert fused.phi == ref.phi
        statuses.add(fused.status)
    assert statuses == {"met_psharp", "beta_zero"}


def test_scan_signs_at_the_sandwich_setup():
    # the full 1e-3 scan of the model2_sandwich set-up, whose root sits
    # where the met_psharp and beta_zero branches of phi meet
    spec = make_cubic_model(0.15, 4.5)
    grid, pf, ps = _scan_case(spec, SANDWICH_C, 1e-3)
    bracket, probed, phis = _searched_bracket(spec, SANDWICH_C, grid, pf, ps)
    assert np.any(np.array(phis) > 0.0) and np.any(np.array(phis) < 0.0)
    assert bracket is not None and bracket[0] <= SANDWICH_U1 <= bracket[1]
    _check_search_against_list(grid, bracket, probed, phis)


def test_two_events_in_one_step_go_to_the_scalar_shot(weed, manifolds01):
    flat, _ = manifolds01
    pf = flat.interp_p()

    def far(u):     # a P_sharp the arc never meets
        return np.full_like(np.asarray(u, dtype=float), 10.0)
    free = shoot_from(weed, -0.1, 0.5, pf, far, want_nodes=True)
    assert free.status == "beta_zero" and free.phi < 0.0
    # a steep P_sharp the arc meets 1e-6 before beta = 0, inside the step
    # that ends the shot: the earlier event, meeting P_sharp, ends it
    u_m = free.u_end - 1e-6
    p_m = np.interp(u_m, free.arc.u_nodes, free.arc.p_values)

    def steep(u):
        return p_m + 50.0 * (u_m - np.asarray(u, dtype=float))
    ref = shoot_from(weed, -0.1, 0.5, pf, steep)
    assert ref.status == "met_psharp" and ref.phi > 0.0
    assert abs(ref.u_end - u_m) <= 1e-8
    # u = 1 reached with the control still on
    assert shoot_from(weed, -0.1, 0.4, pf, far).status == "left_domain"


def _spied_shots(monkeypatch):
    """The u1 of every shoot_from call the module makes, in order."""
    shots = []

    def spy(*args, **kwargs):
        shots.append(args[2])
        return shoot_from(*args, **kwargs)
    monkeypatch.setattr(pmp, "shoot_from", spy)
    return shots


def test_shooting_diagnostics_count_every_shot(weed, c_star_weed, opt01,
                                               monkeypatch):
    shots = _spied_shots(monkeypatch)
    prof = optimal_profile(weed, -0.1, c_star=c_star_weed)
    diag = prof.converged
    assert diag == opt01.converged and prof.cost == opt01.cost
    assert diag.shots == len(shots) and diag.scan_fallbacks == 0
    assert 0 < diag.n_scanned < diag.shots
    # the grid points searched, 24 bisection halvings of 1e-3 down to
    # 1e-10 per root, and the sampled shot
    assert diag.shots == diag.n_scanned + 24 * len(diag.roots) + 1


def test_the_grid_search_shoots_a_logarithm_of_the_grid(opt01, manifolds01,
                                                        weed):
    # a search that shot the whole grid again would pass every other test
    grid = _scan_grid(weed, manifolds01[0], 1e-3)[2]
    diag = opt01.converged
    assert len(grid) > 200 and len(diag.roots) == 1
    assert diag.n_scanned <= math.ceil(math.log2(len(grid))) + 2
    assert diag.shots == diag.n_scanned + 24 * len(diag.roots) + 1


def test_every_junction_is_shot_once(weed, c_star_weed, opt01, manifolds01,
                                     monkeypatch):
    # a search that shoots its probes and then does not decide: the
    # scalar list reads the probes from the phi table, and only the
    # sampled final shot repeats a u1
    search = pmp._grid_bracket
    monkeypatch.setattr(pmp, "_grid_bracket",
                        lambda phi, u1s: search(phi, u1s) and None)
    shots = _spied_shots(monkeypatch)
    prof = optimal_profile(weed, -0.1, c_star=c_star_weed)
    diag = prof.converged
    grid = _scan_grid(weed, manifolds01[0], 1e-3)[2]
    assert shots[:2] == [grid[0], grid[-1]]
    assert sorted(shots[:len(grid)]) == grid.tolist()
    assert len(set(shots[:-1])) == len(shots) - 1 and shots[-1] == prof.u1
    assert diag.shots == len(shots) == len(grid) + 24 * len(diag.roots) + 1
    assert diag.scan_fallbacks == diag.n_scanned == len(grid)
    assert prof.cost == opt01.cost and diag.roots == opt01.converged.roots


def test_failed_scan_brackets_fall_back_to_the_scalar_list(
        weed, c_star_weed, opt01, monkeypatch):
    # a search that decides nothing sends the profile to one scalar shot
    # per grid point, with the same result
    monkeypatch.setattr(pmp, "_grid_bracket", lambda phi, u1s: None)
    prof = optimal_profile(weed, -0.1, c_star=c_star_weed)
    diag = prof.converged
    assert prof.cost == opt01.cost and diag.roots == opt01.converged.roots
    assert diag.scan_fallbacks == diag.n_scanned > opt01.converged.n_scanned
    # every grid point is shot once, the search's probes included
    assert diag.shots == (diag.n_scanned + opt01.converged.shots
                          - opt01.converged.n_scanned)


class _Assembled(Exception):
    """Raised by a synthetic shot asked for the sampled final run."""


def _synthetic_search(weed, c_star_weed, monkeypatch, phi):
    """(shots, u1) of optimal_profile at c = -0.1 when phi(u1) is the
    given function: the u1 shot in order and the junction assembled."""
    shots = []

    def shot(spec, c, u1, *args, **kwargs):
        if kwargs.get("want_nodes"):
            raise _Assembled(u1)
        shots.append(u1)
        return pmp.ShotResult("met_psharp", phi(u1), u1, 1.0, 0.0, 0.0)
    monkeypatch.setattr(pmp, "shoot_from", shot)
    with pytest.raises(_Assembled) as info:
        optimal_profile(weed, -0.1, c_star=c_star_weed)
    return shots, info.value.args[0]


def _between(grid, fraction):
    """A point inside the grid cell `fraction` of the way along, off the
    cell's midpoint, where the bisection would stop at once."""
    i = int(fraction * (len(grid) - 1))
    return grid[i] + 0.3 * (grid[i + 1] - grid[i])


def test_three_roots_between_opposite_ends_bracket_one(
        weed, c_star_weed, manifolds01, monkeypatch):
    grid = _scan_grid(weed, manifolds01[0], 1e-3)[2]
    roots = [_between(grid, f) for f in (0.2, 0.45, 0.8)]
    shots, u1 = _synthetic_search(weed, c_star_weed, monkeypatch, lambda u: (
        -(u - roots[0]) * (u - roots[1]) * (u - roots[2])))
    nodes = set(grid.tolist())
    probes = [u for u in shots if u in nodes]
    assert len(probes) <= math.ceil(math.log2(len(grid))) + 2
    # one root, bisected inside the adjacent grid pair around it
    (root,) = [r for r in roots if abs(u1 - r) <= 1e-10]
    k = int(np.searchsorted(grid, root))
    assert grid[k - 1] in probes and grid[k] in probes
    assert len(shots) == len(probes) + 24
    assert all(grid[k - 1] < u < grid[k] for u in shots[len(probes):])


def test_two_roots_between_ends_of_one_sign_go_to_the_list(
        weed, c_star_weed, manifolds01, monkeypatch):
    grid = _scan_grid(weed, manifolds01[0], 1e-3)[2]
    roots = [_between(grid, f) for f in (0.3, 0.7)]
    shots, u1 = _synthetic_search(weed, c_star_weed, monkeypatch, lambda u: (
        (u - roots[0]) * (u - roots[1])))
    # the ends alone, then the whole grid, then both brackets bisected;
    # the smaller root is assembled
    assert shots[:2] == [grid[0], grid[-1]]
    assert sorted(shots[:len(grid)]) == grid.tolist()
    assert len(shots) == len(grid) + 2 * 24
    assert abs(u1 - roots[0]) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_a_non_finite_probe_goes_to_the_list(weed, c_star_weed, manifolds01,
                                             monkeypatch, bad):
    grid = _scan_grid(weed, manifolds01[0], 1e-3)[2]
    root, probe = _between(grid, 0.25), grid[(len(grid) - 1) // 2]
    shots, u1 = _synthetic_search(weed, c_star_weed, monkeypatch, lambda u: (
        bad if u == probe else root - u))
    # the first midpoint is not finite: the list decides, every grid
    # point shot once, and finds the root
    assert shots[:3] == [grid[0], grid[-1], probe]
    assert sorted(shots[:len(grid)]) == grid.tolist()
    assert len(shots) == len(grid) + 24
    assert abs(u1 - root) <= 1e-10


def test_an_exact_zero_in_the_phi_list_is_bracketed_across(
        weed, c_star_weed, opt01, manifolds01, monkeypatch):
    # phi exactly 0 at a grid node: the search takes the node as a bracket
    # end, the scalar list brackets across it, and either way the node is
    # the root
    grid = _scan_grid(weed, manifolds01[0], 1e-3)[2]
    node = float(grid[np.argmin(np.abs(grid - opt01.u1))])

    def shot(spec, c, u1, *args, **kwargs):
        if kwargs.get("want_nodes"):
            return shoot_from(spec, c, u1, *args, **kwargs)
        return pmp.ShotResult("met_psharp", u1 - node, u1, 1.0, 0.0, 0.0)
    monkeypatch.setattr(pmp, "shoot_from", shot)
    search = pmp._grid_bracket
    for decides in (True, False):
        monkeypatch.setattr(pmp, "_grid_bracket", lambda phi, u1s: (
            search(phi, u1s) if decides else None))
        prof = optimal_profile(weed, -0.1, c_star=c_star_weed)
        assert prof.converged.roots == [prof.u1]
        assert abs(prof.u1 - node) <= 1e-10
        assert (prof.converged.scan_fallbacks == 0) == decides
