"""Constructive controls: bang arcs, finite-cost concatenations, costs."""

from __future__ import annotations

import numpy as np
import pytest

from travwave.control_construct import (bang_control, cost_of,
                                        finite_cost_control,
                                        natural_heteroclinic)
from travwave.errors import (CapExceededError, InvalidParameterError,
                             NoControlNeeded, SingularCostError)
from travwave.phaseplane import (PhaseTrajectory, integrate_pu,
                                 stable_manifold, unstable_manifold)


def test_bang_at_natural_speed(weed, c_star_weed):
    gamma, u0, traj = bang_control(weed, c_star_weed, c_star=c_star_weed)
    assert gamma == 0.0
    assert np.all(traj.beta_values == 0.0)
    # uncontrolled heteroclinic spans [0,1]
    assert traj.u_nodes[0] == 0.0 and traj.u_nodes[-1] == 1.0


def test_bang_below_natural_speed(weed, c_star_weed):
    with pytest.raises(NoControlNeeded):
        bang_control(weed, c_star_weed - 0.05, c_star=c_star_weed)


def test_bang_above_natural_speed(weed, c_star_weed):
    gamma, u0, traj = bang_control(weed, -0.1, c_star=c_star_weed)
    assert gamma > 0.0
    assert 0.0 < u0 < weed.u_star
    # junction continuity against the uncontrolled branch
    flat = unstable_manifold(weed, -0.1, u_stop=weed.u_star)
    pf = flat.interp_p()
    k = int(np.argmin(np.abs(traj.u_nodes - u0)))
    assert abs(traj.p_values[k] - float(pf(u0))) <= 1e-8
    # control is the constant gamma exactly on (u0, u*)
    inside = (traj.u_nodes > u0 + 1e-12) & (traj.u_nodes < weed.u_star - 1e-12)
    assert np.all(traj.beta_values[inside] == gamma)
    assert np.all(traj.beta_values[~inside] == 0.0)
    # bang control spends beyond the barrier below u*: infinite cost
    assert cost_of(weed, traj) == np.inf


def test_bang_doubling_cap(weed, c_star_weed):
    # at c = 0 the orbit needs gamma ~ 0.084 > max f ~ 0.078: one doubling
    with pytest.raises(CapExceededError):
        bang_control(weed, 0.0, c_star=c_star_weed, max_doublings=0)


def test_bang_crossing_monotone_in_gamma(weed, c_star_weed):
    c = -0.1
    us = weed.u_star
    flat = unstable_manifold(weed, c, u_stop=us)
    sharp = stable_manifold(weed, c, u_stop=us)
    pf = flat.interp_p()
    p_top = float(sharp.p_values[0])
    gamma, _, _ = bang_control(weed, c, c_star=c_star_weed)
    crossings = []
    for g in (gamma, 1.5 * gamma, 2.0 * gamma, 3.0 * gamma):
        t = integrate_pu(weed, c, g, us, p_top, 1e-3,
                         stop_when=lambda u, p: p - float(pf(u)), direction=-1)
        assert t.terminated_by == "event"
        crossings.append(float(t.u_nodes[0]))
    assert all(a < b for a, b in zip(crossings, crossings[1:]))


def test_cost_zero_for_zero_control(weed):
    traj = unstable_manifold(weed, -0.1, u_stop=0.5)
    assert cost_of(weed, traj) == 0.0


def test_cost_infinite_beyond_barrier(weed):
    u = np.linspace(0.4, 0.6, 50)
    beta = np.asarray(weed.beta_max(u))  # exactly at the barrier
    traj = PhaseTrajectory(u, np.full_like(u, 0.1), -0.1, "controlled",
                           beta_values=beta)
    assert cost_of(weed, traj) == np.inf


def test_cost_singular_when_slope_vanishes(weed):
    u = np.linspace(0.4, 0.6, 50)
    p = np.full_like(u, 0.1)
    p[25] = 0.0
    beta = 0.5 * np.asarray(weed.beta_max(u))
    traj = PhaseTrajectory(u, p, -0.1, "controlled", beta_values=beta)
    with pytest.raises(SingularCostError):
        cost_of(weed, traj)


def test_finite_cost_construction(weed, c_star_weed):
    prof = finite_cost_control(weed, -0.1, c_star=c_star_weed)
    assert np.isfinite(prof.cost) and prof.cost > 0.0
    assert weed.u_star < prof.u1 < prof.u2_tilde < 1.0

    # trimmed control is nonnegative with a uniform margin below the barrier
    middle = prof.pieces[1]
    u = middle.u_nodes
    bhat = np.asarray(weed.beta_max(u))
    bt = middle.beta_values
    assert np.all(bt >= 0.0)
    assert prof.delta_margin > 0.0
    active = bt > 1e-14
    assert np.all((bhat - bt)[active] >= prof.delta_margin - 1e-12)

    # comparison bound: the controlled middle piece rides above the
    # auxiliary orbit
    assert prof.meta["p_above_aux"]

    # junction continuity of the concatenation
    flat, mid, sharp = prof.pieces
    assert abs(flat.p_values[-1] - mid.p_values[0]) <= 1e-8
    assert abs(mid.p_values[-1] - sharp.p_values[0]) <= 1e-8

    # quadrature refinement oracle
    j1 = cost_of(weed, mid, refine=False)
    j2 = cost_of(weed, mid, refine=True)
    assert abs(j2 - j1) / j2 < 1e-6


def test_trim_max_with_zero_form(weed, c_star_weed):
    prof = finite_cost_control(weed, -0.1, c_star=c_star_weed)
    mid = prof.pieces[1]
    # recompute the trim from its definition on the middle nodes
    for u, bt in zip(mid.u_nodes[::100], mid.beta_values[::100]):
        assert bt == pytest.approx(prof.beta_tilde(float(u)), abs=1e-12)
    # a point where the subtrahend exceeds the barrier gives exactly zero
    assert prof.beta_tilde(weed.u_star + 1e-6) == 0.0


def test_speed_ordering_validated(weed, c_star_weed):
    with pytest.raises(InvalidParameterError):
        finite_cost_control(weed, c_star_weed - 0.05, c_star=c_star_weed)
    with pytest.raises(InvalidParameterError):
        finite_cost_control(weed, -0.1, c_prime=-0.2, c_star=c_star_weed)


def test_trivial_construction_at_cstar(weed, c_star_weed):
    prof = finite_cost_control(weed, c_star_weed, c_star=c_star_weed)
    assert prof.cost == 0.0
    assert prof.meta.get("trivial")


def test_trivial_trajectory_is_heteroclinic(weed, c_star_weed):
    # the one-node middle piece coincides with both joints and is dropped
    t = finite_cost_control(weed, c_star_weed, c_star=c_star_weed).trajectory
    het = natural_heteroclinic(weed, c_star_weed)
    assert np.array_equal(t.u_nodes, het.u_nodes)
    assert np.array_equal(t.p_values, het.p_values)
    assert np.all(t.beta_values == 0.0)
    assert np.all(np.diff(t.u_nodes) > 0.0)


def test_merged_trajectory_monotone(weed, c_star_weed):
    prof = finite_cost_control(weed, -0.15, c_star=c_star_weed)
    t = prof.trajectory
    assert np.all(np.diff(t.u_nodes) > 0.0)
    outside = (t.u_nodes < prof.u1 - 1e-12) | (t.u_nodes > prof.u2_tilde + 1e-12)
    assert np.all(t.beta_values[outside] == 0.0)
