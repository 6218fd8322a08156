"""Spatial reconstruction, tree infection, left-tail integrability."""

from __future__ import annotations

import numpy as np
import pytest

import travwave.profile as profile
from travwave.control_construct import _slice_to, merge_pieces
from travwave.errors import (IntegrabilityError, InvalidParameterError,
                             InvalidTrajectoryError, NonexistenceError)
from travwave.phaseplane import (PhaseTrajectory, integrate_pu,
                                 stable_manifold, unstable_manifold)
from travwave.profile import (SpatialProfile, alpha_multiplicative,
                              reconstruct_x, theta_model1)

C_STAR = -1.0 / (3.0 * np.sqrt(2.0))


@pytest.fixture(scope="module")
def exact_profile(weed):
    traj = unstable_manifold(weed, C_STAR, u_stop=1.0)
    return reconstruct_x(traj, weed)


def test_reconstruction_matches_logistic(exact_profile):
    # closed form: U' = U(1-U)/sqrt(2) anchored at U(0) = 1/3 gives
    # U(x) = 1/(1 + 2 exp(-x/sqrt 2))
    x = exact_profile.x_nodes
    exact = 1.0 / (1.0 + 2.0 * np.exp(-x / np.sqrt(2.0)))
    assert np.max(np.abs(exact_profile.u_values - exact)) < 2e-3
    assert abs(float(exact_profile.u_at(0.0)) - 1.0 / 3.0) < 1e-8


def test_far_field_tails_do_not_overflow(exact_profile):
    # each saddle tail is evaluated on the whole array; off its own side
    # its exponent must not overflow (a RuntimeWarning fails the suite)
    x = exact_profile.x_nodes
    u = exact_profile.u_at(np.array([x[0] - 1e4, 0.0, x[-1] + 1e4]))
    assert u[0] == 0.0 and u[-1] == 1.0


@pytest.mark.parametrize("case", ["saddle tails", "no rates", "short grid"])
def test_u_at_on_floats_is_the_array_path(exact_profile, case):
    # inside the grid, at the nodes, in both tails, and with no tail rates
    # (the end values held); float in, float out, bit for bit.  The short
    # grid ends far from the saddles, where a tail's rounding shows
    sp = exact_profile
    if case != "saddle tails":
        sp = SpatialProfile(sp.x_nodes, sp.u_values, sp.p_values,
                            sp.alpha_values, sp.c)
    if case == "short grid":
        x3 = np.array([-1.0, 0.3, 2.0])
        sp = SpatialProfile(x3, np.array([0.2, 0.45, 0.7]), x3, x3, sp.c,
                            meta={"lambda_left": 0.9, "lambda_right": -0.6})
    x = sp.x_nodes
    rng = np.random.default_rng(5)
    pts = np.concatenate((rng.uniform(x[0] - 30.0, x[-1] + 30.0, 2000), x,
                          [x[0] - 1e4, np.nextafter(x[0], -np.inf),
                           np.nextafter(x[-1], np.inf), x[-1] + 1e4]))
    floats = [sp.u_at(v) for v in pts.tolist()]
    assert all(isinstance(v, float) for v in floats)
    assert np.array_equal(np.array(floats).view(np.int64),
                          sp.u_at(pts).view(np.int64))
    # the tails decay toward 0 and 1 with rates, else hold the end values
    ends = sp.u_at(x[0] - 1.0), sp.u_at(x[-1] + 1.0)
    if case == "no rates":
        assert ends == (sp.u_values[0], sp.u_values[-1])
    else:
        assert ends[0] < sp.u_values[0] and ends[1] > sp.u_values[-1]


@pytest.mark.parametrize("x", [np.nan, np.float64(np.nan),
                               np.array([0.0, np.nan])])
def test_u_at_refuses_a_nan_x(exact_profile, x):
    with pytest.raises(InvalidParameterError, match=r"x.*(nan|NaN)"):
        exact_profile.u_at(x)


def test_uncontrolled_profile_has_zero_cost_density(exact_profile):
    assert np.all(exact_profile.alpha_values == 0.0)


def test_monotone_where_slope_positive(exact_profile):
    assert np.all(np.diff(exact_profile.u_values) > 0.0)


def test_invalid_trajectory_rejected(weed):
    u = np.linspace(0.1, 0.9, 20)
    p = np.full_like(u, 0.2)
    p[10] = -0.1
    with pytest.raises(InvalidTrajectoryError):
        reconstruct_x(PhaseTrajectory(u, p, -0.1, "controlled",
                                      beta_values=np.zeros_like(u)), weed)


def test_reconstruction_needs_a_node_with_positive_p(weed):
    # every node at P <= 1e-9 is dropped, and nothing is left to invert
    traj = PhaseTrajectory([0.2, 0.3, 0.4], [1e-10, 5e-10, 2e-10], -0.1, "x")
    with pytest.raises(InvalidTrajectoryError, match="all 3 have P <= 1e-9"):
        reconstruct_x(traj, weed)


def test_reconstruction_needs_a_trajectory_across_u_star(weed):
    # x is anchored at U(0) = u*, which P_flat stopped at U = 0.2 misses
    with pytest.raises(InvalidTrajectoryError, match="does not straddle"):
        reconstruct_x(unstable_manifold(weed, -0.1, u_stop=0.2), weed)


def test_alpha_multiplicative_needs_removal_rates(exact_profile):
    sp = exact_profile
    bare = SpatialProfile(sp.x_nodes, sp.u_values, sp.p_values,
                          sp.alpha_values, sp.c)
    with pytest.raises(InvalidTrajectoryError, match="no removal-rate"):
        alpha_multiplicative(bare)


def test_change_of_variables_identity(weed, opt01, spatial01):
    # int L(U, beta)/P dU = int alpha(x) dx under x(U) = int dU/P
    j_x = float(np.trapezoid(spatial01.alpha_values, spatial01.x_nodes))
    assert abs(j_x - opt01.cost) / opt01.cost < 1e-5


def test_theta_closed_form(spatial01):
    thp = theta_model1(spatial01, 1.0, -0.1)
    th = thp.theta_values
    assert np.all(np.diff(th) >= -1e-12)
    assert th[0] <= 1e-4
    assert th[-1] >= 1.0 - 1e-4
    # independent quadrature oracle at an interior point
    k = len(thp.x_nodes) // 2
    integral = (spatial01.u_values[0] / spatial01.meta["lambda_left"]
                + np.trapezoid(thp.u_values[:k + 1], thp.x_nodes[:k + 1]))
    assert th[k] == pytest.approx(1.0 - np.exp(-10.0 * integral), abs=1e-9)


def test_theta_extension_closed_form(spatial01):
    # at kappa1 = 0.02 the grid is extended; Theta at its last node against
    # one trapezoid of U over the whole extended grid plus the left tail
    thp = theta_model1(spatial01, 0.02, -0.1)
    assert len(thp.x_nodes) > len(spatial01.x_nodes)
    integral = (spatial01.u_values[0] / spatial01.meta["lambda_left"]
                + np.trapezoid(thp.u_values, thp.x_nodes))
    assert abs(thp.theta_values[-1]
               - (1.0 - np.exp((0.02 / -0.1) * integral))) <= 1e-12


def test_theta_at(spatial01):
    thp = theta_model1(spatial01, 1.0, -0.1)
    x = thp.x_nodes
    assert thp.theta_at(x[0] - 1.0) == 0.0
    assert thp.theta_at(x[-1] + 1.0) == 1.0
    assert np.array_equal(thp.theta_at(x), thp.theta_values)
    with pytest.raises(InvalidTrajectoryError, match="no Theta"):
        spatial01.theta_at(0.0)


def test_theta_zero_while_population_absent():
    # U identically zero left of the onset keeps Theta at zero there
    x = np.linspace(-30.0, 30.0, 601)
    u = np.where(x > 0.0, 1.0 - np.exp(-np.maximum(x, 0.0)), 0.0)
    u = np.clip(u, 0.0, 1.0)
    p = np.gradient(u, x)
    prof = SpatialProfile(x, u, p, np.zeros_like(x), -0.5,
                          beta_values=np.zeros_like(x),
                          f_values=np.zeros_like(x),
                          meta={"lambda_left": 1.0, "lambda_right": -1.0})
    thp = theta_model1(prof, 1.0, -0.5)
    assert np.all(thp.theta_values[x <= 0.0] <= 1e-12)


def test_theta_requires_leftward_wave(spatial01):
    with pytest.raises(NonexistenceError):
        theta_model1(spatial01, 1.0, +0.1)


@pytest.mark.parametrize("c", [np.nan, -np.inf])
def test_theta_requires_a_finite_speed(spatial01, c):
    with pytest.raises(InvalidParameterError, match="speed must be finite"):
        theta_model1(spatial01, 1.0, c)


@pytest.mark.parametrize("kappa1", [-1.0, 0.0, np.nan, np.inf])
def test_theta_requires_a_finite_positive_kappa1(spatial01, kappa1):
    with pytest.raises(InvalidParameterError, match="kappa1 must be finite"):
        theta_model1(spatial01, kappa1, -0.1)


def test_theta_tail_consistency(spatial01, monkeypatch):
    monkeypatch.setattr(profile, "END_TOL", 1e-4)
    a = theta_model1(spatial01, 1.0, -0.1)
    monkeypatch.setattr(profile, "END_TOL", 1e-6)
    b = theta_model1(spatial01, 1.0, -0.1)
    assert abs((1.0 - a.theta_values[-1]) - (1.0 - b.theta_values[-1])) < 1e-5


def test_decay_check_exact_profile(exact_profile):
    # the weed at c* is the cubic (u*, rate) = (1/3, 1): P = U (1-U)/sqrt 2
    prof, x, u = exact_profile, exact_profile.x_nodes, exact_profile.u_values
    assert prof.meta["lambda_left"] == pytest.approx(1.0 / np.sqrt(2.0),
                                                     rel=1e-7)
    # guaranteed envelope constant: min P/U over {U <= u*} = (1-u*)/sqrt 2
    left = x <= 0.0
    C = float(np.min(prof.p_values[left] / u[left]))
    assert C == pytest.approx((1.0 - 1.0 / 3.0) / np.sqrt(2.0), rel=1e-3)
    assert np.all(u[left] <= u[left][-1] * np.exp(C * x[left]) * (1.0 + 1e-8))
    # tail log-slope matches the saddle rate within 10%
    tail = left & (u <= 0.05 / 3.0)
    slope = np.polyfit(x[tail], np.log(u[tail]), 1)[0]
    assert abs(slope - prof.meta["lambda_left"]) < 0.1 * slope
    th = theta_model1(prof, 1.0, C_STAR).theta_values
    assert np.all(np.isfinite(th))


def test_decay_check_constant_profile(weed):
    # P = 0 on a constant profile: the left tail of U is not integrable
    x = np.linspace(-20.0, 20.0, 401)
    u = np.full_like(x, weed.u_star)
    prof = SpatialProfile(x, u, np.zeros_like(x), np.zeros_like(x), -0.1,
                          beta_values=np.zeros_like(x),
                          f_values=np.asarray(weed.f(u)))
    with pytest.raises(IntegrabilityError, match="decay constant 0"):
        theta_model1(prof, 0.02, -0.1)


def test_decay_check_bang_profile(weed):
    # a constant removal max f on (u0, u*): the backward orbit from
    # (u*, P_sharp(u*)) meets P_flat at u0, and the control crosses the
    # cost barrier below u*
    c, us, gamma = -0.1, weed.u_star, weed.max_f()
    flat = unstable_manifold(weed, c, u_stop=us)
    sharp = stable_manifold(weed, c, u_stop=us)
    pf = flat.interp_p()
    arc = integrate_pu(weed, c, lambda u: np.full_like(u, gamma), us,
                       float(sharp.p_values[0]), 1e-3,
                       stop_when=lambda u, p: float(pf(u)) - p)
    assert arc.terminated_by == "event"
    u0 = float(arc.u_nodes[0])
    traj = merge_pieces((_slice_to(flat, u0, pf), arc, sharp), c)
    prof = reconstruct_x(traj, weed)
    assert np.any(prof.alpha_values == np.inf)
    th = theta_model1(prof, 1.0, c).theta_values
    assert np.all(np.diff(th) >= 0.0)
    assert 0.0 <= th[0] and th[-1] <= 1.0


def test_alpha_multiplicative(spatial01):
    alpha = alpha_multiplicative(spatial01)
    # beta = alpha * U pointwise on the grid
    k = int(np.argmax(spatial01.beta_values))
    x = float(spatial01.x_nodes[k])
    assert alpha(x) * spatial01.u_values[k] == pytest.approx(
        float(spatial01.beta_values[k]), rel=1e-9)
    assert alpha(spatial01.x_nodes[0] - 100.0) == 0.0


def test_profile_csv(tmp_path, spatial01):
    out = tmp_path / "profile.csv"
    spatial01.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,u,p,alpha,theta"
    assert lines[1].endswith(",")  # no theta yet
    thp = theta_model1(spatial01, 1.0, -0.1)
    thp.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,u,p,alpha,theta"
    assert not lines[1].endswith(",")
