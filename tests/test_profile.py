"""Spatial reconstruction, tree infection, decay audit."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from travwave.errors import (IntegrabilityError, InvalidTrajectoryError,
                             NonexistenceError)
from travwave.model import make_logistic_model
from travwave.phaseplane import PhaseTrajectory, unstable_manifold
from travwave.profile import (SpatialProfile, alpha_multiplicative,
                              decay_check, reconstruct_x, theta_model1)

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


def test_theta_tail_consistency(spatial01):
    a = theta_model1(spatial01, 1.0, -0.1, end_tol=1e-4)
    b = theta_model1(spatial01, 1.0, -0.1, end_tol=1e-6)
    assert abs((1.0 - a.theta_values[-1]) - (1.0 - b.theta_values[-1])) < 1e-5


def test_decay_check_exact_profile(weed, exact_profile):
    rep = decay_check(exact_profile, weed)
    # guaranteed envelope constant: min P/U over {U <= u*} = (1-u*)/sqrt 2
    assert rep.C == pytest.approx((1.0 - 1.0 / 3.0) / np.sqrt(2.0), rel=1e-3)
    assert rep.envelope_ok
    assert rep.integrable
    # tail log-slope matches the saddle rate within 10%
    assert abs(rep.lambda_fit - rep.lambda_plus) / rep.lambda_plus < 0.1


def test_decay_check_constant_profile(weed):
    x = np.linspace(-20.0, 20.0, 401)
    u = np.full_like(x, weed.u_star)
    prof = SpatialProfile(x, u, np.zeros_like(x), np.zeros_like(x), -0.1,
                          beta_values=np.zeros_like(x),
                          f_values=np.asarray(weed.f(u)))
    rep = decay_check(prof, weed)
    assert not rep.integrable
    assert rep.violations
    with pytest.raises(IntegrabilityError, match="decay constant 0"):
        theta_model1(prof, 0.02, -0.1)


def test_decay_check_reads_no_rate_without_a_saddle(exact_profile):
    # the logistic f'(0) > 0: (0, 0) is no saddle, so no lambda_plus
    rep = decay_check(exact_profile, make_logistic_model(1.0))
    assert rep.lambda_plus is None


def test_decay_check_propagates_a_broken_spec(weed, exact_profile):
    # only a missing saddle reads as "no rate"; a bug in the spec propagates
    def broken_df(u):
        raise TypeError("df is broken")
    with pytest.raises(TypeError, match="df is broken"):
        decay_check(exact_profile, dataclasses.replace(weed, df=broken_df))


def test_decay_check_bang_profile(weed, c_star_weed):
    from travwave.control_construct import bang_control
    _, _, traj = bang_control(weed, -0.1, c_star=c_star_weed)
    prof = reconstruct_x(traj, weed)
    rep = decay_check(prof, weed)
    assert rep.integrable


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
