"""Insect/tree system: spectrum, threshold, barriers, obstruction."""

from __future__ import annotations

import dataclasses
import logging
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import lu_factor, lu_solve

import travwave.acceptance as acc
import travwave.model2 as model2
from travwave.errors import (ConstructionFailureError, InvalidParameterError,
                             NonconvergenceError, OrderingError, RegimeError)
from travwave.model import Model2Params, make_cubic_model, make_weed_model
from travwave.model2 import (c_sharp, case2_demo, char_poly, check_drate,
                             lambda_min, p_at_lambda_min, solve_vtheta,
                             spectrum, subsolution, supersolution)

P111 = Model2Params(1.0, 1.0, 1.0)


def test_char_poly_values():
    assert np.allclose(char_poly(-1.0, P111), [1.0, -1.0, -1.0, 1.0])
    assert np.allclose(char_poly(1.0, P111), [1.0, 1.0, -1.0, -1.0])
    # p(0) = -kappa1 kappa2 / c > 0 for leftward waves
    assert char_poly(-0.5, P111)[-1] > 0.0
    with pytest.raises(InvalidParameterError):
        char_poly(0.0, P111)


def test_lambda_min_is_critical_point():
    for c in (-0.5, -1.0, -2.0):
        lm = lambda_min(c, P111)
        dp = np.polyder(char_poly(c, P111))
        assert lm > 0.0
        assert abs(np.polyval(dp, lm)) < 1e-12


def test_c_sharp_unit_parameters():
    cs = c_sharp(P111)
    assert cs == pytest.approx(-1.0, abs=1e-12)
    # hand factorization at the threshold: p = (l-1)^2 (l+1)
    assert np.allclose(char_poly(cs, P111), [1.0, -1.0, -1.0, 1.0])
    assert abs(p_at_lambda_min(cs, P111)) < 1e-9


def test_critical_value_sign_split():
    cs = c_sharp(P111)
    for c in (cs - 0.5, cs - 0.1, cs):
        assert p_at_lambda_min(c, P111) <= 1e-12
    for c in (-0.9, -0.5, -0.1):
        assert p_at_lambda_min(c, P111) > 0.0
    # the critical value is strictly increasing in c on (-inf, 0), which
    # makes the threshold root unique
    cs_grid = np.linspace(-2.5, -0.05, 25)
    vals = [p_at_lambda_min(c, P111) for c in cs_grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("d", [0.01, 0.3, 1.0, 10.0])
def test_c_sharp_keeps_its_closed_form_for_small_rates(d):
    # the closed form's numerator cancels to (s - d)^2 (2s + d) as
    # kappa1 kappa2 / d^2 -> 0; checked against a 80-digit evaluation
    for k1 in np.logspace(-9.0, 3.0, 25).tolist():
        for k2 in (1e-3, 1.0, 7.0):
            cs = c_sharp(Model2Params(k1, k2, d))
            with localcontext() as ctx:
                ctx.prec = 80
                k, dd = Decimal(k1) * Decimal(k2), Decimal(d)
                num = (-2 * dd**3 - 9 * k * dd
                       + 2 * (dd * dd + 3 * k).sqrt() ** 3)
                exact = -(num / (dd * dd + 4 * k)).sqrt()
                assert abs(Decimal(cs) / exact - 1) <= Decimal("1e-15")


@pytest.mark.parametrize("fn", [char_poly, lambda_min, p_at_lambda_min])
@pytest.mark.parametrize("c", [0.0, np.nan, np.inf, -np.inf])
def test_cubic_helpers_refuse_an_undefined_speed(fn, c):
    with pytest.raises(InvalidParameterError, match=f"at c = {c}"):
        fn(c, P111)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
def test_c_sharp_root_property(k1, k2, d):
    params = Model2Params(k1, k2, d)
    cs = c_sharp(params)
    assert cs < 0.0
    scale = max(1.0, k1 * k2 / abs(cs))
    assert abs(p_at_lambda_min(cs, params)) <= 1e-9 * scale
    # below the threshold the inequality holds (two positive real roots)
    assert p_at_lambda_min(1.5 * cs, params) < 0.0


def test_spectrum_boundary_case():
    s = spectrum(-1.0, P111)
    assert s.classification == "repeated_real"
    roots = np.sort(s.roots.real)
    assert roots[0] == pytest.approx(-1.0, abs=1e-6)
    assert roots[1] == pytest.approx(1.0, abs=1e-5)
    assert roots[2] == pytest.approx(1.0, abs=1e-5)


def test_spectrum_lemma71_regime():
    s = spectrum(-0.9, P111)
    assert s.classification == "lemma71_regime"
    assert s.lambda1 < 0.0 < s.a and s.b > 0.0
    # every reported eigenvalue satisfies the cubic to 1e-10
    coeffs = char_poly(-0.9, P111)
    assert np.max(np.abs(np.polyval(coeffs, s.roots))) <= 1e-10
    # eigenvectors: (1, l, -k1/(c l)) against the Jacobian
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.9, -1.0], [1.0 / 0.9, 0.0, 0.0]])
    for lam in s.roots:
        v = np.array([1.0, lam, -1.0 / (-0.9 * lam)])
        assert np.max(np.abs(A @ v - lam * v)) <= 1e-9
    # w2, w3 are the real/imaginary parts of the complex eigenvector
    v2 = np.array([1.0, s.a + 1j * s.b, -1.0 / (-0.9 * (s.a + 1j * s.b))])
    assert np.allclose(s.w2, v2.real, atol=1e-12)
    assert np.allclose(s.w3, v2.imag, atol=1e-12)


def test_spectrum_regime_validation():
    for c in (0.0, 0.5, float("nan")):
        with pytest.raises(InvalidParameterError):
            spectrum(c, P111)


def test_drate_condition():
    check_drate(make_weed_model(1.0 / 3.0).f, 1.0)
    check_drate(make_cubic_model(0.15, 4.5).f, 1.0)
    with pytest.raises(InvalidParameterError):
        check_drate(make_cubic_model(0.15, 8.0).f, 1.0)  # f/u -> -1.2 < -1


@pytest.mark.parametrize("d", [np.nan, np.inf, 0.0, -1.0])
def test_drate_needs_a_finite_positive_rate(d):
    with pytest.raises(InvalidParameterError, match="d must be finite"):
        check_drate(make_cubic_model(0.15, 4.5).f, d)


@pytest.mark.parametrize("d", [0.5, 0.6])
def test_supersolution_names_the_death_rate_hypothesis(m2_pipeline, d):
    # f/u -> -4.5 * 0.15 = -0.675 as u -> 0, so f(u) >= -d u fails for
    # d < 0.675; this used to surface as a residual-sign
    # ConstructionFailureError
    with pytest.raises(InvalidParameterError, match="death-rate hypothesis"):
        supersolution(m2_pipeline["spatial"], Model2Params(1.0, 1.0, d), -0.9)


def test_supersolution_needs_f_samples(m2_pipeline):
    sp = dataclasses.replace(m2_pipeline["spatial"], f_values=None)
    with pytest.raises(InvalidParameterError, match="f samples"):
        supersolution(sp, m2_pipeline["params"], -0.9)


def test_supersolution_structure(m2_pipeline):
    sup = supersolution(m2_pipeline["spatial"], m2_pipeline["params"], -0.9)
    u, v = sup.u_values, sup.v_values
    vstar = m2_pipeline["params"].v_star
    assert np.all(v == np.minimum(u, vstar))
    assert float(np.max(v)) == pytest.approx(vstar, abs=1e-12)
    assert np.max(sup.residuals["second"]) <= 1e-6
    assert np.max(sup.residuals["third"]) <= 1e-6
    # third-equation residual has the closed form kappa1 (1-theta)(v+ - u) <= 0
    k1 = m2_pipeline["params"].kappa1
    expected = k1 * (1.0 - sup.theta_values) * (v - u)
    assert np.allclose(sup.residuals["third"], expected, atol=1e-12)


def test_supersolution_requires_leftward_wave(m2_pipeline):
    with pytest.raises(RegimeError):
        supersolution(m2_pipeline["spatial"], m2_pipeline["params"], 0.1)


def test_lambda0_formula():
    # explicit relaxation rate at c=-1 with kappa2 Theta + d = 2
    c, load = -1.0, 2.0
    lam0 = (-c - np.sqrt(c * c + 4.0 * load)) / 2.0
    assert lam0 == pytest.approx(-1.0, abs=1e-15)


def test_subsolution_structure(m2_pipeline):
    sub = subsolution(m2_pipeline["spatial"], m2_pipeline["alpha"],
                      m2_pipeline["params"], -0.9)
    assert np.min(sub.residuals["second"]) >= -1e-6
    assert np.min(sub.residuals["third"]) >= -1e-6
    # junction slopes at the first descending V-zero: left <= 0 <= right
    assert sub.meta["dv_left"] <= 0.0 <= sub.meta["dv_right"]
    # window length within two rotations of the spiral
    s = spectrum(-0.9, m2_pipeline["params"])
    assert sub.meta["x1"] - sub.meta["x0"] <= 4.0 * np.pi / s.b
    # theta^- climbs to 1 on the right
    assert sub.theta_values[-1] >= 1.0 - 1e-3
    # path stays inside the invariant box
    assert np.all(sub.v_values >= 0.0) and np.all(sub.v_values <= 1.0)
    assert np.all((0.0 <= sub.theta_values) & (sub.theta_values <= 1.0))
    assert np.all(sub.v_values <= sub.u_values + 1e-12)


def test_subsolution_regime_gate(m2_pipeline):
    with pytest.raises(RegimeError):
        subsolution(m2_pipeline["spatial"], m2_pipeline["alpha"],
                    m2_pipeline["params"], -1.5)


def test_subsolution_needs_a_profile_reaching_one(m2_pipeline):
    sp = m2_pipeline["spatial"]
    capped = dataclasses.replace(sp, u_values=np.minimum(sp.u_values, 0.99))
    with pytest.raises(ConstructionFailureError, match="never reaches U"):
        subsolution(capped, m2_pipeline["alpha"], m2_pipeline["params"], -0.9)


def test_subsolution_near_c_sharp_says_why(m2_pipeline):
    # c_sharp = -0.91 here: the arc grows by e^(a pi/b) before its first
    # V-zero, and the amplitude that keeps it under V's cap is below the
    # launch ladder's floor
    with pytest.raises(ConstructionFailureError,
                       match=r"floor eps = 1e-10: arc left the admissible box"
                             r".*c - c_sharp = 0\.01, b = 0\.0991: .*"
                             r"e\^\(a pi/b\) = e\^30\.2 .* pi/b = 31\.7, so "
                             r"its V cap 0\.49 needs eps <= 3\.7e-14"):
        subsolution(m2_pipeline["spatial"], m2_pipeline["alpha"],
                    Model2Params(0.8317, 1.0, 1.0), -0.9)


@settings(max_examples=10, deadline=None)
@given(k1=st.floats(0.3, 3.0), k2=st.floats(0.3, 3.0), d=st.floats(0.3, 3.0))
@example(k1=1.0, k2=1.0, d=1.0)
@example(k1=0.8317, k2=1.0, d=1.0)
def test_sandwich_across_rates(m2_pipeline, k1, k2, d):
    # criterion 8 at c = -0.9 for rates inside the hypotheses: the death
    # rate d >= 0.675 of this f (f/u -> -0.675 as u -> 0) and c_sharp < c.
    # Near c_sharp the subsolution may refuse instead, saying why.
    params, tol = Model2Params(k1, k2, d), 1e-6
    assume(d >= 0.675 and c_sharp(params) < -0.9)
    sp, alpha = m2_pipeline["spatial"], m2_pipeline["alpha"]
    sup = supersolution(sp, params, -0.9)
    try:
        sub = subsolution(sp, alpha, params, -0.9)
    except ConstructionFailureError as exc:
        assert "c - c_sharp" in str(exc) and "needs eps <=" in str(exc)
        return
    sol = solve_vtheta(sp, alpha, params, -0.9, sub=sub, sup=sup)
    assert np.max(sup.residuals["second"]) <= tol
    assert np.max(sup.residuals["third"]) <= tol
    assert np.min(sub.residuals["second"]) >= -tol
    assert np.min(sub.residuals["third"]) >= -tol
    x, vstar = sol.x_nodes, params.v_star
    assert np.all(sol.v_values >= sub.v_at(x) - tol)
    assert np.all(sol.v_values <= np.minimum(sol.u_values, vstar) + tol)
    assert np.all(sol.theta_values >= sub.theta_at(x) - tol)
    assert np.all(sol.theta_values <= sup.theta_at(x) + tol)
    assert abs(sol.meta["v_right_end"] - vstar) <= 1e-3


def test_solution_theta_identity(m2_pipeline):
    sol = solve_vtheta(m2_pipeline["spatial"], m2_pipeline["alpha"],
                       m2_pipeline["params"], -0.9)
    # the theta relation holds exactly in the scheme's own discretization
    assert np.max(np.abs(sol.residuals["third"])) <= 1e-8
    assert np.max(np.abs(sol.residuals["second"])) <= 1e-6
    assert sol.meta["theta_right_end"] >= 1.0 - 1e-3
    assert abs(sol.meta["v_right_end"] - 0.5) <= 1e-3
    # asymptotic targets at the left end
    assert abs(sol.v_values[0]) <= 1e-3 and abs(sol.theta_values[0]) <= 1e-3


def test_solution_mesh_refinement(m2_pipeline, monkeypatch):
    sup, sub, sol = acc._m2_sandwich()
    monkeypatch.setattr(model2, "SOLVE_H", 0.01)
    tracemalloc.start()
    try:
        fine = solve_vtheta(m2_pipeline["spatial"], m2_pipeline["alpha"],
                            m2_pipeline["params"], -0.9, sub=sub, sup=sup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the corrector runs on both meshes (the sweeps alone stop short of tol)
    assert sol.meta["newton_iterations"] >= 1
    assert fine.meta["newton_iterations"] >= 1
    # O(N) memory: one dense 7601^2 Jacobian alone would be 462 MB
    assert peak < 64 * 2**20
    vi = np.interp(sol.x_nodes, fine.x_nodes, fine.v_values)
    assert np.max(np.abs(vi - sol.v_values)) < 1e-4


def _dense_newton_solve(dg, up, lo, fac, h, F):
    """Reference for model2._newton_solve: assemble the dense Jacobian
    T + diag(fac) h (S - I/2) and solve it directly.

    A plain double LU solve of J is off by up to ~3e-12 of |dv| at
    N ~ 200, so one refinement step (on the same LU factors) against J
    assembled in extended precision brings the reference to the exact
    solution's rounding."""
    def assemble(dtype):
        n = len(dg)
        idx = np.arange(n)
        J = np.tril(np.full((n, n), dtype(h)), -1)
        J[idx, idx] = dtype(h) / 2
        J *= fac.astype(dtype)[:, None]
        J[idx, idx] += dg.astype(dtype)
        J[idx[:-1], idx[:-1] + 1] += dtype(up)
        J[idx[1:], idx[1:] - 1] += dtype(lo)
        return J

    lu = lu_factor(assemble(np.float64), overwrite_a=True)
    dv = lu_solve(lu, -F)
    r = -F - assemble(np.longdouble) @ dv.astype(np.longdouble)
    return dv + lu_solve(lu, r.astype(float))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.floats(-1.5, -0.1), st.floats(0.005, 0.05),
       st.integers(0, 2**32 - 1))
def test_newton_solve_matches_dense(n, c, h, seed):
    rng = np.random.default_rng(seed)
    dg = -2.0 / h**2 - rng.uniform(0.0, 5.0, n)
    fac = rng.uniform(0.0, 5.0, n)
    F = rng.standard_normal(n)
    up, lo = 1.0 / h**2 + c / (2.0 * h), 1.0 / h**2 - c / (2.0 * h)
    dv = model2._newton_solve(dg, up, lo, fac, h, F)
    ref = _dense_newton_solve(dg, up, lo, fac, h, F)
    assert np.max(np.abs(dv - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 300), st.floats(-1.5, 1.5), st.floats(0.005, 0.05),
       st.integers(0, 2**32 - 1))
def test_linear_v_solve_satisfies_the_shared_operator(n, c, h, seed):
    # the banded matrix of _solve_linear_v and the residual operator are
    # one stencil: the solve leaves no defect beyond rounding
    rng = np.random.default_rng(seed)
    x = -1.0 + h * np.arange(n)
    coeff = rng.uniform(0.0, 5.0, n)
    source = rng.uniform(-1.0, 1.0, n)
    v_left, v_right = rng.uniform(0.0, 1.0, 2)
    v = model2._solve_linear_v(x, c, coeff, source, v_left, v_right)
    assert v[0] == v_left and v[-1] == v_right
    hx = x[1] - x[0]
    defect = (model2._v_operator(v, c, hx) - coeff[1:-1] * v[1:-1]
              + source[1:-1])
    scale = np.max(np.abs(v)) / hx**2 + np.max(np.abs(coeff * v)) \
        + np.max(np.abs(source))
    assert np.max(np.abs(defect)) <= 1e-9 * scale


def test_solution_matches_dense_newton(m2_pipeline, monkeypatch):
    # criterion-8 state: c = -0.9, h = 0.02, the cached sandwich.  A dense
    # solve of every trial (N ~ 3,800) would take about 50 s, so the banded
    # updates of the first and the last trial are checked against the
    # dense reference on the inputs the solver gave them
    sup, sub, sol = acc._m2_sandwich()
    banded, calls = model2._newton_solve, []

    def recorded(*args):
        dv = banded(*args)
        calls.append((args, dv))
        return dv

    monkeypatch.setattr(model2, "_newton_solve", recorded)
    again = solve_vtheta(m2_pipeline["spatial"], m2_pipeline["alpha"],
                         m2_pipeline["params"], -0.9, sub=sub, sup=sup)
    assert np.array_equal(again.v_values, sol.v_values)
    assert np.array_equal(again.theta_values, sol.theta_values)
    assert len(calls) == len(sol.meta["deltas"]) >= 2
    for args, dv in (calls[0], calls[-1]):
        ref = _dense_newton_solve(*args)
        assert np.max(np.abs(dv - ref)) <= 1e-12 * np.max(np.abs(ref))
    # every accepted step is a Newton step with a pseudo-time shift
    assert sol.meta["newton_iterations"] == sol.meta["iterations"] \
        == len(sol.meta["history"]) >= 1
    assert sol.meta["iterations"] + sol.meta["rejected"] \
        == len(sol.meta["deltas"])
    assert sol.meta["deltas"][0] == model2.DELTA0
    assert sol.meta["defect"] == sol.meta["history"][-1] <= model2.DEFECT_TOL


def _inside_sandwich(sol, sub, sup, slack=1e-6):
    x = sol.x_nodes
    v_hi = np.minimum(sol.u_values, sup.meta["v_star"])
    return bool(np.all(sol.v_values >= sub.v_at(x) - slack)
                and np.all(sol.v_values <= v_hi + slack)
                and np.all(sol.theta_values >= sub.theta_at(x) - slack)
                and np.all(sol.theta_values <= sup.theta_at(x) + slack))


@pytest.mark.parametrize("c", [-0.7, -0.8, -0.85, -0.895, -0.9, -0.905,
                               -0.95, -0.97])
def test_solution_converges_inside_the_sandwich(m2_pipeline, c):
    # the (V, Theta) equations along the c = -0.9 profile U, across the
    # complex-pair regime of P111 (c_sharp = -1) and the benchmark's speeds
    sp, al, pr = (m2_pipeline["spatial"], m2_pipeline["alpha"],
                  m2_pipeline["params"])
    sup = supersolution(sp, pr, c)
    sub = subsolution(sp, al, pr, c)
    sol = solve_vtheta(sp, al, pr, c, sub=sub, sup=sup)
    assert sol.meta["defect"] <= model2.DEFECT_TOL
    assert np.max(np.abs(sol.residuals["second"])) <= model2.DEFECT_TOL
    assert _inside_sandwich(sol, sub, sup)
    assert sol.meta["iterations"] + sol.meta["rejected"] \
        == len(sol.meta["deltas"]) <= model2.TRIALS


def test_solve_vtheta_rejects_a_step_that_leaves_the_sandwich(
        m2_pipeline, monkeypatch):
    # delta0 = 1e6 starts as plain Newton, whose first steps overshoot the
    # sandwich; they are rejected and delta halved until a step stays in
    sup, sub, sol = acc._m2_sandwich()
    monkeypatch.setattr(model2, "DELTA0", 1e6)
    forced = solve_vtheta(m2_pipeline["spatial"], m2_pipeline["alpha"],
                          m2_pipeline["params"], -0.9, sub=sub, sup=sup)
    deltas = forced.meta["deltas"]
    assert deltas[0] == 1e6 and deltas[1] == 5e5
    assert forced.meta["rejected"] >= 1
    assert forced.meta["defect"] <= model2.DEFECT_TOL
    assert _inside_sandwich(forced, sub, sup)
    # each trial doubles delta after an accepted step and halves it after
    # a rejected one
    ratios = np.array(deltas[1:]) / np.array(deltas[:-1])
    assert set(ratios) <= {0.5, 2.0}
    assert int(np.sum(ratios == 0.5)) in (forced.meta["rejected"],
                                          forced.meta["rejected"] - 1)
    assert np.max(np.abs(forced.v_values - sol.v_values)) <= 1e-4


def test_solve_vtheta_logs_its_work_at_debug(m2_pipeline, caplog):
    sup, sub, _ = acc._m2_sandwich()
    args = (m2_pipeline["spatial"], m2_pipeline["alpha"],
            m2_pipeline["params"], -0.9)
    solve_vtheta(*args, sub=sub, sup=sup)
    assert not [r for r in caplog.records if r.name.startswith("travwave")]
    with caplog.at_level(logging.DEBUG, logger="travwave"):
        sol = solve_vtheta(*args, sub=sub, sup=sup)
    (rec,) = [r for r in caplog.records if r.name == "travwave.model2"]
    assert rec.levelno == logging.DEBUG
    meta = sol.meta
    assert rec.vtheta_work == {"trials": len(meta["deltas"]),
                               "iterations": meta["iterations"],
                               "rejected": meta["rejected"],
                               "defect": meta["defect"]}


@pytest.mark.parametrize("scalar_only", [
    lambda x: 0.05 if abs(x) < 2.0 else 0.0,
    lambda x: 0.05,
], ids=["branching", "constant"])
def test_controls_are_sampled_on_arrays(m2_pipeline, scalar_only):
    sup, sub, _ = acc._m2_sandwich()
    sp, pr = m2_pipeline["spatial"], m2_pipeline["params"]
    with pytest.raises(InvalidParameterError, match="array of x"):
        subsolution(sp, scalar_only, pr, -0.9)
    with pytest.raises(InvalidParameterError, match="array of x"):
        solve_vtheta(sp, scalar_only, pr, -0.9, sub=sub, sup=sup)


def test_solve_vtheta_reports_nonconvergence(m2_pipeline, monkeypatch):
    # three trials cannot reach tol: from delta0 = 0.1 all three are
    # accepted, from delta0 = 1e6 all three leave the sandwich
    sup, sub, _ = acc._m2_sandwich()
    monkeypatch.setattr(model2, "TRIALS", 3)
    for delta0, rejected in ((0.1, 0), (1e6, 3)):
        monkeypatch.setattr(model2, "DELTA0", delta0)
        with pytest.raises(NonconvergenceError) as exc:
            solve_vtheta(m2_pipeline["spatial"], m2_pipeline["alpha"],
                         m2_pipeline["params"], -0.9, sub=sub, sup=sup)
        assert f"3 trials, {rejected} rejected" in str(exc.value)
        assert len(exc.value.history) == 3 - rejected
        assert all(d > model2.DEFECT_TOL for d in exc.value.history)


def test_far_fields_of_triple_paths(m2_pipeline):
    # every sub- and solution path ends exactly on its Dirichlet value V*,
    # which is what v_at reads right of the grid
    _, sub, sol = acc._m2_sandwich()
    vstar = m2_pipeline["params"].v_star
    assert sub.v_values[-1] == sol.v_values[-1] == vstar
    for path in (sub, sol):
        lo, hi = path.x_nodes[0] - 1.0, path.x_nodes[-1] + 1.0
        assert path.v_at(lo) == 0.0 and path.theta_at(lo) == 0.0
        assert path.v_at(hi) == vstar and path.theta_at(hi) == 1.0
        assert np.array_equal(path.v_at(path.x_nodes), path.v_values)
        assert np.array_equal(path.theta_at(path.x_nodes), path.theta_values)


def test_solve_vtheta_rejects_unordered_barriers(m2_pipeline):
    # a subsolution V raised by 1 lies above min(U, V*) everywhere
    sup, sub, _ = acc._m2_sandwich()
    raised = dataclasses.replace(sub, v_values=sub.v_values + 1.0)
    with pytest.raises(OrderingError, match="barriers are not ordered"):
        solve_vtheta(m2_pipeline["spatial"], m2_pipeline["alpha"],
                     m2_pipeline["params"], -0.9, sub=raised, sup=sup)


def test_case2_demo(m2_pipeline):
    rep = case2_demo(P111, -0.9)
    assert rep.within_three_periods
    assert rep.component in ("V", "Theta")
    # rotation rate ~ b
    assert abs(rep.rotation_rate - rep.b) / rep.b < 0.05
    rep2 = case2_demo(P111, -0.9, seed_amplitude=2e-3)
    assert abs(rep2.winding - rep.winding) <= 1.0


def test_case2_demo_negative_seed_violates_immediately():
    # -1e-3 w2 starts with V = -1e-3 < 0
    rep = case2_demo(P111, -0.9, seed_amplitude=-1e-3)
    assert rep.x_violation == 0.0 and rep.winding == 0.0
    assert rep.component == "V"


@pytest.mark.parametrize("amplitude", [0.0, np.nan, np.inf, -np.inf])
def test_case2_demo_seed_must_be_finite_and_nonzero(amplitude):
    with pytest.raises(InvalidParameterError, match="seed_amplitude"):
        case2_demo(P111, -0.9, seed_amplitude=amplitude)


def test_case2_demo_regime_gate():
    with pytest.raises(RegimeError):
        case2_demo(P111, -1.5)
