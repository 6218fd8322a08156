"""Method-of-lines verifiers: stability, conservation, fronts, invariance."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

import travwave.pde as pde
from travwave._columns import write_columns
from travwave.errors import (ConfigError, FrontNotFoundError,
                             InstabilityError, InvalidParameterError)
from travwave.model import Model2Params, ModelSpec
from travwave.pde import (EvolutionRecord, _operator, _Scheme, evolve_model1,
                          evolve_model2, evolve_scalar, front_speed)
from travwave.phaseplane import unstable_manifold
from travwave.profile import reconstruct_x

C_STAR = -1.0 / (3.0 * np.sqrt(2.0))


def _laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    """Reference stencil: second difference with reflected ghosts."""
    ue = np.concatenate(([u[1]], u, [u[-2]]))
    return (ue[:-2] - 2.0 * u + ue[2:]) / dx**2


def _upwind(u: np.ndarray, dx: float, c: float) -> np.ndarray:
    """Reference stencil: first-order upwind u_z for the term c * u_z."""
    g = np.empty_like(u)
    if c < 0.0:
        g[1:] = (u[1:] - u[:-1]) / dx
        g[0] = 0.0
    else:
        g[:-1] = (u[1:] - u[:-1]) / dx
        g[-1] = 0.0
    return g


def _apply_banded(ab: np.ndarray, u: np.ndarray) -> np.ndarray:
    a = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    return a @ u


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


def test_step_bound_guard():
    # sup|f'| = 150 (at u = 1): dt = 0.1 would give dt * sup|f'| = 15 > 1
    from travwave.model import make_cubic_model
    spec = make_cubic_model(0.25, 200.0)
    kw = dict(T=0.1, x_span=(-5, 5), dx=0.1)
    rec = evolve_scalar(spec, lambda x: 0.5, **kw)
    assert rec.summary["rate_bound"] == pytest.approx(150.0)
    assert rec.summary["dt_rate"] <= 1.0


@pytest.mark.parametrize("c_frame", [None, -0.3, 0.3])
def test_operator_matches_reference_stencil(c_frame):
    # (u - A u) / dt is the semi-discrete right-hand side the explicit
    # stepper used, so IMEX solves the same semi-discrete equation
    rng = np.random.default_rng(1)
    u, dx, dt = rng.uniform(0.0, 1.0, 40), 0.05, 0.02
    lhs = (u - _apply_banded(_operator(len(u), dx, dt, c_frame), u)) / dt
    ref = _laplacian(u, dx)
    if c_frame is not None:
        ref = ref + c_frame * _upwind(u, dx, c_frame)
    assert np.max(np.abs(lhs - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("c_frame", [None, -0.3, 0.3])
def test_transport_operator_has_no_diffusion(c_frame):
    rng = np.random.default_rng(2)
    u, dx, dt = rng.uniform(0.0, 1.0, 40), 0.05, 0.02
    ab = _operator(len(u), dx, dt, c_frame, diffusion=False)
    if c_frame is None:
        assert np.array_equal(ab[1], np.ones_like(u)) and not ab[[0, 2]].any()
    else:
        lhs = (u - _apply_banded(ab, u)) / dt
        ref = c_frame * _upwind(u, dx, c_frame)
        assert np.max(np.abs(lhs - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_weed_default_run_takes_500_steps(weed):
    # sup|f'| = 2/3 leaves dt at DT_MAX = 0.1, a whole fraction of the
    # snapshot interval 1
    rec = evolve_scalar(weed, lambda x: 0.5, T=50.0, x_span=(-5, 5), dx=0.1)
    assert rec.dt == 0.1
    assert rec.summary["n_steps"] == 500


def test_default_dt_rate_within_bound(weed):
    # sup|f'| = 2/3 (at u = 1) plus sup alpha = 0.05
    alpha = lambda x: np.where(np.abs(x) < 2.0, 0.05, 0.0)
    rec = evolve_scalar(weed, lambda x: 0.5, alpha_of_x=alpha, T=1.0,
                        x_span=(-5, 5), dx=0.1)
    assert rec.summary["rate_bound"] == pytest.approx(2.0 / 3.0 + 0.05)
    assert rec.summary["dt_rate"] == rec.dt * rec.summary["rate_bound"]
    assert rec.summary["dt_rate"] <= 1.0


def test_lab_frame_control_from_beyond_the_pad_is_read(weed):
    # alpha = 5 on (150, 160) moves left at speed 2 and covers x in
    # (50, 60) at T = 50: it starts 90 beyond the domain, past the table's
    # 80 pad, so the table has to follow the sweep of the whole run
    alpha = lambda x: np.where((x > 150.0) & (x < 160.0), 5.0, 0.0)
    kw = dict(T=50.0, x_span=(-60.0, 60.0), dx=0.1)
    rec = evolve_scalar(weed, lambda x: np.full_like(x, 0.9), alpha,
                        control_speed=-2.0, **kw)
    free = evolve_scalar(weed, lambda x: np.full_like(x, 0.9), **kw)
    assert rec.summary["rate_bound"] == pytest.approx(2.0 / 3.0 + 5.0)
    inside = (rec.x > 50.0) & (rec.x < 60.0)
    assert np.max(free.u_snapshots[-1][inside]) > 0.99
    assert np.min(rec.u_snapshots[-1][inside]) < 0.6


@pytest.mark.parametrize("control_speed", [None, -2.0],
                         ids=["static", "moving-away"])
def test_a_control_the_run_never_reads_sets_no_step_bound(weed,
                                                          control_speed):
    # alpha = 50 on (-120, -110) lies in the table's 80 pad left of the
    # domain; static, or moving left at speed 2, u never sees it, so the
    # step bound is sup|f'| alone and dt stays at DT_MAX
    alpha = lambda x: np.where((x > -120.0) & (x < -110.0), 50.0, 0.0)
    rec = evolve_scalar(weed, lambda x: np.full_like(x, 0.9), alpha, T=5.0,
                        x_span=(-60.0, 60.0), dx=0.1,
                        control_speed=control_speed)
    assert rec.summary["rate_bound"] == pytest.approx(2.0 / 3.0)
    assert rec.dt == pde.DT_MAX
    assert rec.summary["n_steps"] == 50


def test_model2_step_bound_counts_rates(weed):
    params = Model2Params(1.0, 2.0, 3.0)
    rec = evolve_model2(weed, lambda x: 0.5, lambda x: 0.1, lambda x: 0.2,
                        params=params, T=0.1, x_span=(-5, 5), dx=0.1)
    assert rec.summary["rate_bound"] == pytest.approx(2.0 / 3.0 + 6.0)
    assert rec.summary["dt_rate"] <= 1.0
    # v's rate d + kappa2 = 5 is the fastest, and sets the accuracy target
    assert rec.dt == pytest.approx(pde.DT_ACCURACY / 5.0)


def test_model2_initial_data_must_keep_v_below_u(weed):
    with pytest.raises(ConfigError, match="v <= u"):
        evolve_model2(weed, lambda x: 0.2, lambda x: 0.5, lambda x: 0.0,
                      T=1.0)


@pytest.mark.parametrize("scalar_only", [
    lambda x: 0.05 if abs(x) < 2.0 else 0.0,
    lambda x: 0.05,
], ids=["branching", "constant"])
def test_controls_are_sampled_on_arrays(weed, scalar_only):
    with pytest.raises(InvalidParameterError, match="array of x"):
        evolve_scalar(weed, lambda x: 0.5, alpha_of_x=scalar_only, T=0.1,
                      x_span=(-5, 5), dx=0.1)


@pytest.mark.parametrize("bad", [
    {"T": -5.0}, {"dx": 0.0}, {"dx": -0.05}, {"T": np.inf}, {"dx": np.inf},
    {"dx": 5e-324}, {"dx": 1000.0}, {"x_span": (10, -10)},
    {"x_span": (5, 5)}, {"x_span": (-np.inf, 5)},
], ids=["T<0", "dx=0", "dx<0", "T=inf", "dx=inf", "dx=5e-324", "dx>span",
        "xmin>xmax", "xmin=xmax", "xmin=-inf"])
def test_step_inputs_are_checked(weed, bad):
    kw = dict(T=0.1, x_span=(-5, 5), dx=0.1) | bad
    with pytest.raises(ConfigError):
        evolve_scalar(weed, lambda x: 0.5, **kw)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_control_is_refused(weed, value):
    # the first non-finite sample of the control grid lies just right of
    # x = 1, at 1.003 (grid step 0.0085 over [-85, 85])
    alpha = lambda x: np.where(x > 1.0, value, 0.05)
    with pytest.raises(InvalidParameterError,
                       match=r"alpha\(1\.0\d*\) = (nan|inf)"):
        evolve_scalar(weed, lambda x: 0.5, alpha_of_x=alpha, T=0.1,
                      x_span=(-5, 5), dx=0.1)


def test_control_without_a_channel_is_refused(weed):
    # the scalar and Model-1 u-equations remove beta_from_alpha(u, alpha):
    # a spec without it refuses a control instead of ignoring it; Model 2's
    # multiplicative control needs no such channel
    spec = dataclasses.replace(weed, beta_from_alpha=None)
    kw = dict(alpha_of_x=lambda x: np.where(np.abs(x) < 2.0, 0.05, 0.0),
              T=0.1, x_span=(-5, 5), dx=0.1)
    with pytest.raises(ConfigError, match="no control channel"):
        evolve_scalar(spec, lambda x: 0.5, **kw)
    with pytest.raises(ConfigError, match="no control channel"):
        evolve_model1(spec, lambda x: 0.5, lambda x: 0.0, **kw)
    rec = evolve_model2(spec, lambda x: 0.5, lambda x: 0.1, lambda x: 0.2,
                        **kw)
    assert rec.summary["n_steps"] == 1


@pytest.mark.parametrize("speed", [
    {"c_frame": np.nan}, {"c_frame": np.inf}, {"control_speed": np.nan},
    {"control_speed": -np.inf},
], ids=["c_frame=nan", "c_frame=inf", "control_speed=nan",
        "control_speed=-inf"])
def test_non_finite_frame_speed_is_refused(weed, speed):
    # refused before the operators are factored or any step is taken
    (name, value), = speed.items()
    alpha = lambda x: np.where(np.abs(x) < 2.0, 0.05, 0.0)
    with pytest.raises(InvalidParameterError,
                       match=f"{name} must be finite, got {value}"):
        evolve_scalar(weed, lambda x: 0.5, alpha_of_x=alpha, T=0.1,
                      x_span=(-5, 5), dx=0.1, **speed)


@pytest.mark.parametrize("kappa1", [-1.0, 0.0, np.nan, np.inf])
def test_model1_requires_a_finite_positive_kappa1(weed, kappa1):
    with pytest.raises(InvalidParameterError, match="kappa1 must be finite"):
        evolve_model1(weed, lambda x: 0.5, lambda x: 0.0, kappa1=kappa1,
                      T=0.1, x_span=(-5, 5), dx=0.1)


@pytest.mark.parametrize("c_frame", [None, -0.3, 0.3])
def test_factored_step_matches_banded_solve(c_frame):
    # factoring once per run changes no bit of a step: solve_banded on the
    # same operator is the reference, at 2/3 dt (SBDF2) and at dt (the
    # Euler start), for one and for two columns
    rng = np.random.default_rng(3)
    n, dx, dt = 2401, 0.05, 0.02
    w, r, w0, r0 = rng.uniform(0.0, 1.0, (4, n, 2))
    scheme = _Scheme.build(n, dx, dt, c_frame)
    for h, prev in ((2.0 * dt / 3.0, (w0, r0)), (dt, None)):
        ab = _operator(n, dx, h, c_frame)
        tab = _operator(n, dx, h, c_frame, diffusion=False)
        start = prev is None
        for cols in (0, slice(None)):
            p = None if start else (w0[:, cols], r0[:, cols])
            b = scheme.explicit(w[:, cols], r[:, cols], p)
            assert np.array_equal(scheme.diffuse(b, start),
                                  solve_banded((1, 1), ab, b))
            assert np.array_equal(scheme.transport(b, start),
                                  solve_banded((1, 1), tab, b))
        b = scheme.explicit(w, r, prev)
        assert np.array_equal(scheme.diffuse(b, start)[:, 0],
                              scheme.diffuse(b[:, 0], start))
    ref = (4.0 * w - w0) / 3.0 + (2.0 * dt / 3.0) * (2.0 * r - r0)
    assert np.array_equal(scheme.explicit(w, r, (w0, r0)), ref)
    assert np.array_equal(scheme.explicit(w, r, None), w + dt * r)


def test_explicit_is_the_formula_and_leaves_inputs_unmodified():
    # the in-place SBDF2 right-hand side is bit-equal to the one-line
    # formula, also on strided column views, and writes to no input
    rng = np.random.default_rng(11)
    dt = 0.0731
    scheme = _Scheme.build(5, 0.05, dt, None)
    arrays = rng.standard_normal((4, 1001, 2))
    for cols in (0, 1, slice(None)):
        w, r, w0, r0 = (a[:, cols] for a in arrays)
        before = arrays.copy()
        ref = (4.0 * w - w0) / 3.0 + (2.0 * dt / 3.0) * (2.0 * r - r0)
        assert np.array_equal(scheme.explicit(w, r, (w0, r0)), ref)
        assert np.array_equal(arrays, before)


def test_observed_temporal_order_is_two(monkeypatch):
    # SBDF2 on cubic(0.4, 10) from a smooth front: the error at T = 2
    # against a dt = 0.1/64 reference falls by 4x per halving of dt (the
    # first-order IMEX Euler step reads an order of about 1 here).  The
    # time-error estimate, the local error of an Euler step, is O(dt^2)
    from travwave.model import make_cubic_model
    spec = make_cubic_model(0.4, 10.0)
    monkeypatch.setattr(pde, "DT_ACCURACY", 1.0)  # dt = DT_MAX here
    monkeypatch.setattr(pde, "SNAPSHOT_DT", 2.0)

    def run(dt):
        monkeypatch.setattr(pde, "DT_MAX", dt)
        return evolve_scalar(spec, lambda x: 1.0 / (1.0 + np.exp(-x)),
                             T=2.0, x_span=(-10, 10), dx=0.1)
    ref = run(0.1 / 64).u_snapshots[-1]
    recs = [run(dt) for dt in (0.1, 0.05, 0.025)]
    errs = [float(np.max(np.abs(r.u_snapshots[-1] - ref))) for r in recs]
    orders = np.log2(np.divide(errs[:-1], errs[1:]))
    assert np.all(orders >= 1.8), orders
    est = [r.summary["time_error"] for r in recs]
    assert np.all(np.divide(est[:-1], est[1:]) >= 3.0), est


@pytest.mark.parametrize("c_frame, factorizations", [(None, 2), (-0.1, 4)])
def test_operators_factored_once_per_run(weed, monkeypatch, c_frame,
                                         factorizations):
    # the diffusion operator at 2/3 dt and at dt, and in the comoving
    # frame the transport operator at both as well, however many steps
    # the run takes
    from scipy.linalg import lapack
    inner, calls = lapack.dgttrf, []

    def counted(*args):
        calls.append(1)
        return inner(*args)
    monkeypatch.setattr(lapack, "dgttrf", counted)
    for T in (0.5, 5.0):
        calls.clear()
        rec = evolve_scalar(weed, lambda x: 1.0 / (1.0 + np.exp(-x)), T=T,
                            c_frame=c_frame, x_span=(-10, 10), dx=0.1)
        assert rec.summary["n_steps"] == round(T / rec.dt)
        assert len(calls) == factorizations


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


def test_a_front_on_the_left_boundary_is_refused(weed):
    # a decreasing field crosses u = 1/2 at the domain's first cell
    rec = evolve_scalar(weed, lambda x: 1.0 / (1.0 + np.exp(x)), T=1.0,
                        x_span=(-10, 10), dx=0.1)
    with pytest.raises(FrontNotFoundError, match="left boundary"):
        front_speed(rec)


def test_front_speed_needs_two_positions(weed):
    # T = 0 records one snapshot: a line through one point is no fit
    rec = evolve_scalar(weed, lambda x: 1.0 / (1.0 + np.exp(-x)), T=0.0,
                        x_span=(-10, 10), dx=0.1)
    assert len(rec.times) == 1
    with pytest.raises(ConfigError, match="needs two"):
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


def _fast_infection(weed, c_frame):
    # theta0 = 0 under a logistic u: theta rises at rate up to kappa1 = 20
    return evolve_model1(weed, lambda x: 1.0 / (1.0 + np.exp(-x)),
                         lambda x: 0.0, kappa1=20.0, T=4.0, c_frame=c_frame,
                         x_span=(-10, 10), dx=0.1)


def test_model1_lab_theta_decrease_is_reported(weed, monkeypatch):
    # at the edge of the step bound (dt kappa1 = 0.95) the first SBDF2 step
    # after the Euler start lowers theta where u is near 1
    monkeypatch.setattr(pde, "DT_ACCURACY", 1.0)
    rec = _fast_infection(weed, None)
    assert rec.dt == pytest.approx(1.0 / 21.0)
    assert rec.summary["theta_monotone_in_t"] is False


@pytest.mark.parametrize("c_frame", [None, -0.1])
def test_model1_fast_infection_is_resolved(weed, c_frame, monkeypatch):
    # the accuracy target dt kappa1 <= DT_ACCURACY sets the step, so theta
    # stays within 1e-3 of a run at dt / 8 (DT_MAX / 64; it reads 7.9e-5)
    # and, in the lab frame, rises in every cell at every step; at fixed z
    # there is no such flag
    rec = _fast_infection(weed, c_frame)
    assert rec.dt == pytest.approx(pde.DT_ACCURACY / 20.0)
    assert rec.summary["dt_rate"] <= 1.0
    assert rec.summary["theta_monotone_in_t"] is (
        True if c_frame is None else None)
    monkeypatch.setattr(pde, "DT_MAX", pde.DT_MAX / 64)
    ref = _fast_infection(weed, c_frame)
    assert np.array_equal(rec.times, ref.times)
    errs = [float(np.max(np.abs(th - th_ref))) for th, th_ref
            in zip(rec.theta_snapshots, ref.theta_snapshots, strict=True)]
    assert max(errs) <= 1e-3, errs


def test_model1_cost_accounting(weed, spatial01, monkeypatch):
    from travwave.profile import theta_model1
    thp = theta_model1(spatial01, 0.02, -0.1)
    kw = dict(alpha_of_x=spatial01.alpha_at, kappa1=0.02, T=5.0,
              x_span=(-40, 40))
    monkeypatch.setattr(pde, "SNAPSHOT_DT", 0.1)
    rec = evolve_model1(weed, thp, thp.theta_at, dx=0.1, **kw)
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


def test_model1_lab_theta_and_cost_are_second_order(weed, monkeypatch):
    # theta takes the SBDF2 step of u's explicit half, and the cost
    # integral is a trapezoid sum: both converge like the SBDF2 u-step
    monkeypatch.setattr(pde, "DT_ACCURACY", 1.0)  # dt = DT_MAX here

    def run(dt_max):
        monkeypatch.setattr(pde, "DT_MAX", dt_max)
        rec = evolve_model1(weed, lambda x: 1.0 / (1.0 + np.exp(-x)),
                            lambda x: 0.0, kappa1=0.5, T=4.0,
                            x_span=(-10, 10), dx=0.1)
        assert rec.dt == dt_max
        return rec.theta_snapshots[-1], rec.summary["cost_integral"]
    th_ref, cost_ref = run(0.1 / 32)
    errs = np.array([[float(np.max(np.abs(th - th_ref))), abs(cost - cost_ref)]
                     for th, cost in (run(0.1), run(0.05), run(0.025))])
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


@pytest.mark.parametrize("c_frame", [None, -0.1])
def test_inert_extra_fields_leave_u_unchanged(weed, c_frame, monkeypatch):
    # all three systems advance u with the same arithmetic, so inert extra
    # fields (theta = 1, where kappa1 u (1 - theta) = 0; v = theta = 0
    # without a control) must reproduce the scalar run bit for bit
    u0 = lambda x: 1.0 / (1.0 + np.exp(-x))
    alpha = lambda x: np.where(np.abs(x) < 2.0, 0.05, 0.0)
    kw = dict(T=2.0, c_frame=c_frame, x_span=(-10, 10), dx=0.1)
    monkeypatch.setattr(pde, "SNAPSHOT_DT", 0.5)
    zero = lambda x: 0.0
    scalar = evolve_scalar(weed, u0, **kw)
    controlled = evolve_scalar(weed, u0, alpha_of_x=alpha, **kw)
    m1 = evolve_model1(weed, u0, lambda x: 1.0, alpha_of_x=alpha, **kw)
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


def test_a_callable_initial_field_is_read_on_plain_floats(spatial01):
    # a closure such as lambda x: float(sp.u_at(x)) then takes the float
    # paths; the field is the profile's own to the bit
    x, seen = np.linspace(-60.0, 60.0, 2401), set()

    def u0(xx):
        seen.add(type(xx))
        return spatial01.u_at(xx)
    field = pde._field_on_grid(u0, x)
    assert seen == {float}
    assert np.array_equal(field, pde._field_on_grid(spatial01, x))


def test_snapshot_csv(tmp_path, weed, monkeypatch):
    monkeypatch.setattr(pde, "SNAPSHOT_DT", 0.5)
    rec = evolve_scalar(weed, lambda x: 0.5, T=1.0, x_span=(-2, 2), dx=0.5)
    out = tmp_path / "snap.csv"
    rec.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + len(rec.times) * len(rec.x)


def _columns_csv(rec: EvolutionRecord, path) -> bytes:
    """The snapshot table through write_columns on whole columns: t
    repeated per cell, x tiled per snapshot, the fields concatenated."""
    cols = {"t": np.repeat(rec.times, len(rec.x)),
            "x": np.tile(rec.x, len(rec.times)),
            "u": np.concatenate(rec.u_snapshots)}
    for name in ("v", "theta"):
        snaps = getattr(rec, f"{name}_snapshots")
        if snaps is not None:
            cols[name] = np.concatenate(snaps)
    write_columns(path, cols)
    return path.read_bytes()


def _assert_same_csv_bytes(rec: EvolutionRecord, tmp_path):
    rec.to_csv(tmp_path / "snapshots.csv")
    assert (tmp_path / "snapshots.csv").read_bytes() \
        == _columns_csv(rec, tmp_path / "columns.csv")


def test_snapshot_csv_bytes_of_evolved_records(tmp_path, weed, monkeypatch):
    def front(x):
        return 1.0 / (1.0 + np.exp(x))
    monkeypatch.setattr(pde, "SNAPSHOT_DT", 0.5)
    kw = dict(T=2.0, x_span=(-5, 5), dx=0.1)
    recs = [evolve_scalar(weed, front, c_frame=-0.2, **kw),
            evolve_model1(weed, front, lambda x: 0.3, **kw),
            evolve_model2(weed, front, lambda x: 0.5 * front(x),
                          lambda x: 0.2, c_frame=-0.2, **kw)]
    for rec, header in zip(recs, ("t,x,u", "t,x,u,theta", "t,x,u,v,theta")):
        _assert_same_csv_bytes(rec, tmp_path)
        with open(tmp_path / "snapshots.csv") as fh:
            assert fh.readline() == header + "\n"


@pytest.mark.parametrize("shape", ["full", "one_snapshot", "one_cell",
                                   "no_cell"])
def test_snapshot_csv_bytes_of_extreme_values(tmp_path, shape):
    # -0.0 and 0.0 are both in x (each written as itself), with the
    # smallest subnormal, both infinities and NaN among t, x and the fields
    x = np.array([-0.0, 0.0, 5e-324, -np.inf, np.inf, np.nan, 1.0 / 3.0])
    times = np.array([-0.0, 5e-324, 1e300])
    rng = np.random.default_rng(5)
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf,
                         np.nan])
    snaps = {name: [rng.permutation(specials) for _ in times]
             for name in ("u", "v", "theta")}
    keep_t, keep_x = {"full": (slice(None), slice(None)),
                      "one_snapshot": (slice(1, 2), slice(None)),
                      "one_cell": (slice(None), slice(0, 1)),
                      "no_cell": (slice(None), slice(0, 0))}[shape]
    rec = EvolutionRecord(
        x[keep_x], times[keep_t], [u[keep_x] for u in snaps["u"][keep_t]],
        0.1, 0.01, "lab", None,
        v_snapshots=[v[keep_x] for v in snaps["v"][keep_t]],
        theta_snapshots=[th[keep_x] for th in snaps["theta"][keep_t]])
    _assert_same_csv_bytes(rec, tmp_path)
    lines = (tmp_path / "snapshots.csv").read_text().splitlines()
    assert len(lines) == 1 + len(rec.times) * len(rec.x)
    if shape == "full":
        assert lines[1].startswith("-0,-0,") and lines[2].startswith("-0,0,")
        assert lines[1 + len(x)].startswith("4.9406564584124654e-324,-0,")
