"""Method-of-lines verifiers: stability, conservation, fronts, invariance."""

from __future__ import annotations

import numpy as np
import pytest

from travwave.errors import (ConfigError, FrontNotFoundError,
                             InstabilityError, InvalidParameterError)
from travwave.model import Model2Params, ModelSpec
from travwave.pde import (evolve_model1, evolve_model2, evolve_scalar,
                          front_speed)
from travwave.phaseplane import unstable_manifold
from travwave.profile import reconstruct_x

C_STAR = -1.0 / (3.0 * np.sqrt(2.0))


def _zero_reaction(weed):
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return ModelSpec(zero, zero, 0.5, weed.L, weed.L_beta, weed.L_betabeta,
                     weed.L_ubeta, weed.beta_max, "zero")


def test_equilibria_are_fixed(weed):
    for const in (0.0, 1.0):
        rec = evolve_scalar(weed, lambda x: const, T=2.0, x_span=(-10, 10),
                            dx=0.1)
        assert rec.summary["max_drift"] <= 1e-12


def test_mass_conservation_without_reaction(weed):
    spec = _zero_reaction(weed)
    rec = evolve_scalar(spec, lambda x: float(np.exp(-x * x)), T=2.0,
                        x_span=(-20, 20), dx=0.1)
    m0 = float(np.sum(rec.u_snapshots[0])) * rec.dx
    m1 = float(np.sum(rec.u_snapshots[-1])) * rec.dx
    assert abs(m1 - m0) / rec.summary["T"] <= 1e-8


def test_cfl_guard(weed):
    with pytest.raises(ConfigError):
        evolve_scalar(weed, lambda x: 0.5, T=1.0, dx=0.1, dt=0.01)


@pytest.mark.parametrize("scalar_only", [
    lambda x: 0.05 if abs(x) < 2.0 else 0.0,
    lambda x: 0.05,
], ids=["branching", "constant"])
def test_controls_are_sampled_on_arrays(weed, scalar_only):
    with pytest.raises(InvalidParameterError, match="array of x"):
        evolve_scalar(weed, lambda x: 0.5, alpha_of_x=scalar_only, T=0.1,
                      x_span=(-5, 5), dx=0.1)


def test_blowup_guard(weed):
    runaway = lambda u: 10.0 * np.asarray(u, dtype=float)
    spec = ModelSpec(runaway, lambda u: 10.0 + 0.0 * np.asarray(u), 0.5,
                     weed.L, weed.L_beta, weed.L_betabeta, weed.L_ubeta,
                     weed.beta_max, "runaway")
    with pytest.raises(InstabilityError):
        evolve_scalar(spec, lambda x: 1.0, T=5.0, x_span=(-5, 5), dx=0.1)


def test_blowup_guard_catches_nan(weed):
    with pytest.raises(InstabilityError):
        evolve_scalar(weed, lambda x: float("nan") if abs(x) < 0.5 else 0.0,
                      T=1.0, x_span=(-5, 5), dx=0.1)


def test_comparison_preserved(weed):
    lo = lambda x: 0.5 / (1.0 + np.exp(-x))
    hi = lambda x: 0.2 + 0.6 / (1.0 + np.exp(-x))
    rl = evolve_scalar(weed, lo, T=5.0, x_span=(-20, 20), dx=0.1)
    rh = evolve_scalar(weed, hi, T=5.0, x_span=(-20, 20), dx=0.1)
    for ul, uh in zip(rl.u_snapshots, rh.u_snapshots):
        assert np.all(ul <= uh + 1e-12)


def test_comoving_stationarity_exact_front(weed):
    traj = unstable_manifold(weed, C_STAR, u_stop=1.0)
    prof = reconstruct_x(traj, weed)
    rec = evolve_scalar(weed, prof, c_frame=C_STAR, T=50.0, dx=0.025)
    assert rec.summary["max_drift"] <= 5e-3


def test_front_not_found(weed):
    rec = evolve_scalar(weed, lambda x: 1.0, T=1.0, x_span=(-10, 10), dx=0.1)
    with pytest.raises(FrontNotFoundError):
        front_speed(rec)


def test_front_too_close_to_boundary(weed):
    from travwave.errors import DomainExceededError
    rec = evolve_scalar(weed, lambda x: 1.0 if x > 55.0 else 0.0, T=5.0,
                        x_span=(-60, 60), dx=0.1)
    with pytest.raises(DomainExceededError):
        front_speed(rec)


def test_front_speed_refinement(weed):
    speeds = []
    for dx in (0.1, 0.05):
        rec = evolve_scalar(weed, lambda x: 1.0 if x > 10.0 else 0.0,
                            T=25.0, x_span=(-50, 50), dx=dx)
        speeds.append(front_speed(rec).speed)
    assert abs(speeds[1] - speeds[0]) / abs(speeds[1]) < 0.01
    assert abs(speeds[1] - C_STAR) / abs(C_STAR) < 0.02


def test_model1_theta_frozen_without_population(weed):
    rec = evolve_model1(weed, lambda x: 0.0, lambda x: 0.3, kappa1=1.0,
                        T=2.0, x_span=(-10, 10), dx=0.1)
    assert rec.summary["theta_drift"] <= 1e-12
    assert rec.summary["theta_monotone_in_t"]


def test_model1_cost_accounting(weed, spatial01):
    from travwave.profile import theta_model1
    thp = theta_model1(spatial01, 0.02, -0.1)
    kw = dict(alpha_of_x=spatial01.alpha_at, kappa1=0.02, T=5.0,
              x_span=(-40, 40))
    rec = evolve_model1(weed, thp, thp.theta_at, dx=0.1, snapshot_dt=0.1,
                        **kw)
    # refinement oracle: the per-step accumulation against snapshot trapz
    snap = np.array([np.sum(spatial01.alpha_at(rec.x) + th) * rec.dx
                     for th in rec.theta_snapshots])
    j_snap = float(np.trapezoid(snap, rec.times))
    j_run = rec.summary["cost_integral"]
    assert abs(j_run - j_snap) / j_snap < 1e-3


def test_model1_comoving_stationarity(weed, spatial01):
    from travwave.profile import theta_model1
    thp = theta_model1(spatial01, 0.02, -0.1)
    rec = evolve_model1(weed, thp, thp.theta_at,
                        alpha_of_x=spatial01.alpha_at, kappa1=0.02,
                        c_frame=-0.1, T=50.0, x_span=(-60, 120), dx=0.05)
    assert rec.summary["joint_drift"] <= 1e-2


@pytest.mark.parametrize("c_frame", [None, -0.1])
def test_inert_extra_fields_leave_u_unchanged(weed, c_frame):
    # all three systems advance u with the same arithmetic, so inert extra
    # fields (theta = 0 with kappa1 = 0; v = theta = 0 without a control)
    # must reproduce the scalar run bit for bit
    u0 = lambda x: 1.0 / (1.0 + np.exp(-x))
    alpha = lambda x: np.where(np.abs(x) < 2.0, 0.05, 0.0)
    kw = dict(T=2.0, c_frame=c_frame, x_span=(-10, 10), dx=0.1,
              snapshot_dt=0.5)
    zero = lambda x: 0.0
    scalar = evolve_scalar(weed, u0, **kw)
    controlled = evolve_scalar(weed, u0, alpha_of_x=alpha, **kw)
    m1 = evolve_model1(weed, u0, zero, alpha_of_x=alpha, kappa1=0.0, **kw)
    m2 = evolve_model2(weed, u0, zero, zero, **kw)
    assert len(scalar.u_snapshots) == 5
    for rec, ref in ((m1, controlled), (m2, scalar)):
        assert np.array_equal(rec.times, ref.times)
        for u, u_ref in zip(rec.u_snapshots, ref.u_snapshots, strict=True):
            assert np.array_equal(u, u_ref)


def test_model2_right_state_stationary():
    from travwave.model import make_cubic_model
    spec = make_cubic_model(0.15, 4.5)
    params = Model2Params(1.0, 1.0, 1.0)
    rec = evolve_model2(spec, lambda x: 1.0, lambda x: params.v_star,
                        lambda x: 1.0, params=params, T=2.0,
                        x_span=(-10, 10), dx=0.1)
    assert rec.summary["joint_drift"] <= 1e-10


def test_model2_order_invariance(weed):
    params = Model2Params(1.0, 1.0, 1.0)
    u0 = lambda x: 1.0 / (1.0 + np.exp(-x))
    v0 = lambda x: 0.4 / (1.0 + np.exp(-x + 2.0))
    th0 = lambda x: 1.0 / (1.0 + np.exp(-x + 1.0))
    rec = evolve_model2(weed, u0, v0, th0, params=params, T=5.0,
                        x_span=(-20, 20), dx=0.1)
    assert rec.summary["d_invariance"] <= 1e-6
    for u, v in zip(rec.u_snapshots, rec.v_snapshots):
        assert np.all(v <= u + 1e-6)


def test_model2_comoving_stationarity_pinned_front(weed, c_star_weed):
    # at c = -0.2 the (V, Theta) front locks just right of the U-front,
    # so the comoving run is genuinely stationary
    from travwave.pmp import optimal_profile
    from travwave.profile import alpha_multiplicative
    from travwave.model2 import solve_vtheta
    params = Model2Params(1.0, 1.0, 1.0)
    prof = optimal_profile(weed, -0.2, c_star=c_star_weed)
    sp = reconstruct_x(prof.trajectory, weed)
    alpha = alpha_multiplicative(sp)
    sol = solve_vtheta(sp, alpha, params, -0.2)
    u0 = lambda x: float(sp.u_at(x))
    v0 = lambda x: float(np.interp(x, sol.x_nodes, sol.v_values,
                                   left=0.0, right=params.v_star))
    rec = evolve_model2(weed, u0, v0, sol.theta_at, alpha_of_x=alpha,
                        params=params, c_frame=-0.2, T=50.0, x_span=(-60, 60),
                        dx=0.025)
    assert rec.summary["joint_drift"] <= 2e-2
    assert rec.summary["d_invariance"] <= 1e-6


def test_snapshot_csv(tmp_path, weed):
    rec = evolve_scalar(weed, lambda x: 0.5, T=1.0, x_span=(-2, 2), dx=0.5,
                        snapshot_dt=0.5)
    out = tmp_path / "snap.csv"
    rec.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + len(rec.times) * len(rec.x)
