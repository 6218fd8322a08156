"""Closed-form oracles of the cubic family and Pontryagin invariants.

For f = rate * U (U - u*) (1 - U) the uncontrolled front is exact:
P(U) = kappa U (1 - U) with kappa = sqrt(rate/2), travelling at
c* = kappa (2 u* - 1); its left tail decays at the saddle rate kappa, and
P/U = kappa (1 - U) is least at the anchor U(0) = u*.  These hold for
every (u*, rate), so they are checked across the parameter space, not at
one point; so is the speed of a free front evolved by the PDE.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from travwave.control_construct import natural_heteroclinic
from travwave.model import make_cubic_model, make_weed_model
from travwave.pde import evolve_scalar, front_speed
from travwave.pmp import effort_curve
from travwave.profile import reconstruct_x
from travwave.speed import natural_speed


@settings(max_examples=8, deadline=None)
@given(u_star=st.floats(0.05, 0.5), rate=st.floats(0.1, 10.0))
def test_cubic_speed_and_front_match_closed_form(u_star, rate):
    spec = make_cubic_model(u_star, rate)
    kappa = np.sqrt(rate / 2.0)
    c_star = natural_speed(spec)
    # bisection stops at a bracket of width 2e-8 around the gap's root
    assert abs(c_star - kappa * (2.0 * u_star - 1.0)) <= 2e-8 * max(1.0, kappa)
    # inside _speed's bracket: |c*| < 2 sqrt(max |f'|) (Hadeler & Rothe)
    u = np.linspace(0.0, 1.0, 2001)
    assert abs(c_star) < 2.0 * np.sqrt(np.max(np.abs(spec.df(u))))
    het = natural_heteroclinic(spec, c_star)
    u = het.u_nodes
    assert np.max(np.abs(het.p_values - kappa * u * (1.0 - u))) \
        <= 1e-8 * max(1.0, kappa)
    # the left tail of the wave profile
    prof = reconstruct_x(het, spec)
    x, u = prof.x_nodes, prof.u_values
    assert abs(prof.meta["lambda_left"] - kappa) <= 1e-7 * kappa
    left = x <= 0.0
    C = float(np.min(prof.p_values[left] / u[left]))
    assert abs(C - kappa * (1.0 - u_star)) <= 1e-7 * kappa
    # U' >= C U integrates to the envelope U <= u* e^{C x} on x <= 0
    assert np.all(u[left] <= u_star * np.exp(C * x[left]) * (1.0 + 1e-12))
    tail = left & (u <= 0.05 * u_star)
    slope = np.polyfit(x[tail], np.log(u[tail]), 1)[0]
    assert abs(slope - kappa) <= 1e-2 * kappa


@settings(max_examples=6, deadline=None)
@given(u_star=st.floats(0.1, 0.4), rate=st.floats(0.5, 10.0))
def test_pde_front_speed_matches_closed_form(u_star, rate):
    # a free front from a step, run until it has moved about 40 (at most
    # T = 50); the default dt is scaled by sup|f'|, which keeps the O(dt^2)
    # speed error well inside 2% at the fast corner of the box
    spec = make_cubic_model(u_star, rate)
    c_star = np.sqrt(rate / 2.0) * (2.0 * u_star - 1.0)
    rec = evolve_scalar(spec, lambda x: 1.0 if x > 20.0 else 0.0,
                        T=min(50.0, 40.0 / abs(c_star)))
    assert abs(front_speed(rec).speed - c_star) <= 0.02 * abs(c_star)


def test_pontryagin_invariants_across_thresholds():
    for u_star in (0.25, 0.4):
        spec = make_weed_model(u_star)
        c_star = np.sqrt(0.5) * (2.0 * u_star - 1.0)
        speeds = [c_star + d for d in (0.0, 0.05, 0.1, 0.2)]
        rows = effort_curve(spec, speeds, c_star=c_star, keep_profiles=True)
        assert all(row.ok for row in rows)
        efforts = [row.effort for row in rows]
        assert efforts[0] == 0.0
        assert all(e1 < e2 for e1, e2 in zip(efforts, efforts[1:]))
        for row in rows[1:]:
            prof = row.profile
            assert u_star < prof.u1 < prof.u2 < 1.0
            assert prof.arc.beta_values[0] <= 1e-6
            assert prof.arc.beta_values[-1] <= 1e-6
