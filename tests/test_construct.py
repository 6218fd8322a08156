"""Constructive controls: finite-cost concatenations, constant-removal
arcs, costs."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

import travwave.acceptance as acc
import travwave.control_construct as cc
import travwave.phaseplane as pp
from travwave.control_construct import (_aux_left_end, _pcprime_orbit,
                                        cost_of, default_substitute,
                                        finite_cost_control,
                                        natural_heteroclinic)
from travwave.errors import (ConstructionFailureError, InvalidParameterError,
                             InvalidSubstituteError, SingularCostError)
from travwave.model import make_cubic_model
from travwave.phaseplane import (PhaseTrajectory, integrate_pu,
                                 stable_manifold, unstable_manifold)
from travwave.speed import make_substitute_spec


def test_bang_crossing_monotone_in_gamma(weed):
    c = -0.1
    us = weed.u_star
    flat = unstable_manifold(weed, c, u_stop=us)
    sharp = stable_manifold(weed, c, u_stop=us)
    pf = flat.interp_p()
    p_top = float(sharp.p_values[0])
    # the smallest gamma whose backward orbit meets P_flat is 0.0387, about
    # 0.495 max f, so each of these crosses
    gamma = weed.max_f()
    crossings = []
    for g in (gamma, 1.5 * gamma, 2.0 * gamma, 3.0 * gamma):
        t = integrate_pu(weed, c, lambda u: np.full_like(u, g), us, p_top,
                         1e-3, stop_when=lambda u, p: p - float(pf(u)),
                         direction=-1)
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

    # quadrature halving oracle
    assert prof.meta["cost_error"] / prof.cost < 1e-6


SEED0_SPEEDS = [-0.16811156296949903, -0.094840911941193956,
                -0.026588568383383103]  # the benchmark's seed-0 effort table


@pytest.mark.parametrize("c", [*SEED0_SPEEDS, 0.0])
def test_cost_matches_the_integrated_effort(weed, c_star_weed, c):
    # J carried with P as a second state along the middle piece; max_step
    # keeps DOP853 from striding over the knots of the PCHIP P_c' inside
    # beta_tilde, which cost it 2e-11 relative at c = -0.027
    prof = finite_cost_control(weed, c, c_star=c_star_weed,
                               c_hat=acc._c_hat())
    mid = prof.pieces[1]

    def rhs(u, y):
        b = float(prof.beta_tilde(np.array([u]))[0])
        return [-c + (b - float(weed.f(u))) / y[0],
                float(weed.L(u, b)) / y[0]]
    sol = solve_ivp(rhs, (mid.u_nodes[0], mid.u_nodes[-1]),
                    [mid.p_values[0], 0.0], method="DOP853", rtol=1e-13,
                    atol=1e-15, max_step=1e-4)
    j_ref = float(sol.y[1, -1])
    err = abs(prof.cost - j_ref)
    assert err <= 2e-10 * j_ref
    assert prof.meta["cost_error"] >= err


def test_cost_is_smooth_in_a0(weed, c_star_weed, monkeypatch):
    # a last-bit change of a0 moves the nodes of the middle piece, not
    # the effort integral along it
    def cost():
        return finite_cost_control(weed, 0.0, c_star=c_star_weed,
                                   c_hat=acc._c_hat()).cost
    base, inner = cost(), cc._aux_left_end
    for scale in (1.0 - 1e-12, 1.0 + 1e-12):
        monkeypatch.setattr(cc, "_aux_left_end",
                            lambda *args: inner(*args) * scale)
        assert abs(cost() - base) <= 1e-9 * base


def test_trim_max_with_zero_form(weed, c_star_weed):
    prof = finite_cost_control(weed, -0.1, c_star=c_star_weed)
    mid = prof.pieces[1]
    # recompute the trim from its definition on the middle nodes
    for u, bt in zip(mid.u_nodes[::100], mid.beta_values[::100]):
        assert bt == pytest.approx(prof.beta_tilde(float(u)), abs=1e-12)
    # the array form the middle piece was sampled with, bit for bit
    assert np.array_equal(prof.beta_tilde(mid.u_nodes), mid.beta_values)
    # a point where the subtrahend exceeds the barrier gives exactly zero
    assert prof.beta_tilde(weed.u_star + 1e-6) == 0.0


def test_speed_ordering_validated(weed, c_star_weed):
    with pytest.raises(InvalidParameterError):
        finite_cost_control(weed, c_star_weed - 0.05, c_star=c_star_weed)
    with pytest.raises(InvalidParameterError):
        finite_cost_control(weed, -0.1, c_prime=-0.2, c_star=c_star_weed)


def test_given_c_hat_does_not_skip_substitute_check(weed, c_star_weed,
                                                  monkeypatch):
    # a caller-given c_hat must not skip the substitute checks:
    # f - beta_max/2 keeps the sandwich but is not bistable (f_hat(1) = -1/3)
    c_hat = acc._c_hat()
    monkeypatch.setattr(
        cc, "default_substitute",
        lambda spec: lambda u: spec.f(u) - 0.5 * spec.beta_max(u))
    with pytest.raises(InvalidSubstituteError, match="bistability"):
        finite_cost_control(weed, -0.1, c_star=c_star_weed, c_hat=c_hat)


def test_cprime_above_substitute_speed_fails(weed, c_star_weed):
    # c' above the substitute's true speed: no orbit from the U-axis
    # reaches U = 1, so there is no auxiliary orbit to ride above
    c_hat = acc._c_hat()
    with pytest.raises(ConstructionFailureError, match="auxiliary orbit"):
        finite_cost_control(weed, -0.1, c_prime=c_hat + 0.05,
                            c_star=c_star_weed, c_hat=c_hat + 0.5)


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


def _bits(x):
    return np.asarray(x, dtype=float).reshape(-1).view(np.int64)


# None stands for u* itself; 5e-324 makes f underflow to -0.0 below u*,
# where the operand order of min decides the sign of the zero
@settings(max_examples=300, deadline=None)
@given(u_star=st.floats(0.05, 0.5), rate=st.floats(0.1, 10.0),
       u=st.one_of(st.floats(-0.1, 1.1),
                   st.sampled_from([0.0, -0.0, 1.0, None, math.nan, 5e-324])))
@example(u_star=0.25, rate=0.1, u=5e-324)
def test_scalar_kernels_match_array_forms(u_star, rate, u):
    spec = make_cubic_model(u_star, rate)
    f_hat = default_substitute(spec)
    u = u_star if u is None else u
    for fn in (spec.beta_max, f_hat):
        scalar = fn(u)
        assert isinstance(scalar, float)
        # equal to the bit, signed zeros and NaN included
        assert np.array_equal(_bits(scalar), _bits(fn(np.array([u]))))
        assert np.array_equal(_bits(fn(np.float64(u))), _bits(scalar))


@pytest.mark.parametrize("c", [-0.2, -0.15, -0.1, -0.05, 0.0])
def test_a0_bounds_orbits_reaching_one(weed, c_star_weed, c):
    # a0, the U-axis end of the substitute's P_sharp, separates the orbits
    # from (a, 0) that reach U = 1 from those that do not
    prof = finite_cost_control(weed, c, c_star=c_star_weed,
                               c_hat=acc._c_hat())
    sub = make_substitute_spec(weed, default_substitute(weed))
    a0 = prof.meta["a0"]
    flags = [_pcprime_orbit(sub, prof.c_prime, a)[0]
             for a in (0.5 * a0, a0 - 1e-6, a0 - 1e-9,
                       a0 + 1e-9, a0 + 1e-6, 1.5 * a0)]
    assert flags == [True, True, True, False, False, False]


@pytest.mark.parametrize("c", [-0.2, -0.1, 0.0])
def test_a0_asymptote_matches_the_axis_run(weed, monkeypatch, c):
    # stopping P_sharp early and closing the gap with the square-root
    # asymptote gives the a0 of the run that crawls down to the P floor,
    # within the asymptote's 1e-12 error bound, in fewer RHS evaluations
    sub = make_substitute_spec(weed, default_substitute(weed))
    c_prime = 0.5 * (c + acc._c_hat())
    inner, nfev = pp.solve_ivp, []

    def counted(*args, **kwargs):
        sol = inner(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol
    monkeypatch.setattr(pp, "solve_ivp", counted)
    u0, p0 = pp._saddle_seed(sub, c_prime, 1.0)
    *_, ended, u_axis = pp._integrate_chart(sub, c_prime, None, u0, p0,
                                            u1=0.0, dense_output=False)
    assert ended == "p_zero"
    a0 = _aux_left_end(sub, c_prime)
    assert abs(a0 - u_axis) <= 3e-12 * u_axis
    assert nfev[1] < 0.9 * nfev[0]


@pytest.mark.parametrize("u_star, rate, frac", [
    (0.16827123072701727, 1.0, 1.0),
    (0.15961935544548733, 0.170209103171346, 0.6528064776634489),
])
def test_a0_where_p_sharp_tends_to_the_threshold_node(u_star, rate, frac):
    # here P_sharp at c' tends to the node (u*, 0) and the chart run reaches
    # its P floor just beyond u*, where f > 0 (2.0e-6 beyond in the first
    # case); a0 is u* itself
    spec = make_cubic_model(u_star, rate)
    sub = make_substitute_spec(spec, spec.f)
    kappa = math.sqrt(rate / 2.0)
    c_prime = kappa * (2.0 * u_star - 1.0) - frac * kappa
    a0 = _aux_left_end(sub, c_prime)
    assert a0 == sub.u_star
    assert _pcprime_orbit(sub, c_prime, a0 * (1.0 - 1e-7))[0]
    assert not _pcprime_orbit(sub, c_prime, a0 * (1.0 + 1e-7))[0]


@settings(max_examples=10, deadline=None)
@given(u_star=st.floats(0.05, 0.45), rate=st.floats(0.1, 10.0),
       frac=st.floats(0.02, 1.0))
@example(u_star=1.0 / 3.0, rate=1.1, frac=0.9999999999999999)
@example(u_star=0.18337025608485896, rate=0.5, frac=0.809007619551687)
def test_a0_threshold_across_cubic_family(u_star, rate, frac):
    # with f_hat = f the substitute's speed is the exact
    # c* = kappa (2 u* - 1), kappa = sqrt(rate / 2); every c' below it
    # has an a0 in (0, u*] that splits the orbits reaching U = 1.  The
    # first example ends on the P floor at u*, in a step whose
    # asymptote-event root lies where |c'| P^3 and 3 A0_RTOL U f_hat^2 are
    # below 1e-18.  In the second, P_sharp tends to the node (u*, 0), and
    # an unbounded chart steps across u* and ends 5.5e-6 relative short
    spec = make_cubic_model(u_star, rate)
    sub = make_substitute_spec(spec, spec.f)
    kappa = math.sqrt(rate / 2.0)
    c_prime = kappa * (2.0 * u_star - 1.0) - frac * kappa
    a0 = _aux_left_end(sub, c_prime)  # raises unless it ends on the floor
    assert 0.0 < a0 <= sub.u_star * (1.0 + 1e-7)
    assert _pcprime_orbit(sub, c_prime, a0 * (1.0 - 1e-7))[0]
    assert not _pcprime_orbit(sub, c_prime, a0 * (1.0 + 1e-7))[0]


def test_finite_cost_control_work(weed, c_star_weed, monkeypatch):
    # flat, sharp, a0 and the middle piece are chart integrations; P_c'
    # from 0.75 a0 is the one auxiliary-orbit integration
    c_hat = acc._c_hat()
    calls = {"chart": 0, "aux": 0}

    def counted(module, key):
        inner = module.solve_ivp

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, "solve_ivp", wrapper)
    counted(pp, "chart")
    counted(cc, "aux")
    finite_cost_control(weed, -0.1, c_star=c_star_weed, c_hat=c_hat)
    assert calls == {"chart": 4, "aux": 1}
