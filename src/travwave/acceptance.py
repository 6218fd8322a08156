"""Acceptance suite: one checkable criterion per release gate.

Each criterion function recomputes its claim from scratch (through the
package's public API) against an independent yardstick: closed-form
solutions of the cubic model, hand-verified spectral identities, finite
differences, quadrature halving, or direct PDE evolution.  Heavy shared
artifacts (manifolds, optimal profiles, the Model-2 sandwich) are cached
in-process so `verify` and the pytest wrapper do the work once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .control_construct import default_substitute, finite_cost_control
from .errors import ConfigError, NonexistenceError
from .model import Model2Params, check_A2, make_cubic_model, make_weed_model
from .model2 import _linalg, c_sharp, case2_demo, solve_vtheta, spectrum, \
    subsolution, supersolution
from .pde import evolve_model2, evolve_scalar, front_speed
from .phaseplane import slope_bound, stable_manifold, unstable_manifold
from .pmp import effort_curve, optimal_profile, pmp_residual
from .profile import alpha_multiplicative, reconstruct_x, theta_model1
from .speed import manifold_gap, modified_speed, natural_speed

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA"]

C_STAR_EXACT = -1.0 / (3.0 * np.sqrt(2.0))   # cubic ansatz at u* = 1/3
EFFORT_GRID_TAIL = [-0.2, -0.15, -0.1, -0.05, 0.0]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.elapsed <= self.budget


@cache
def _weed():
    return make_weed_model(1.0 / 3.0)


@cache
def _c_star():
    return natural_speed(_weed())


@cache
def _optimal_01():
    return optimal_profile(_weed(), -0.1, c_star=_c_star())


@cache
def _spatial_01():
    return reconstruct_x(_optimal_01().trajectory, _weed())


@cache
def _effort_rows():
    grid = [_c_star()] + EFFORT_GRID_TAIL
    return effort_curve(_weed(), grid, c_star=_c_star(), keep_profiles=True)


@cache
def _c_hat():
    """Speed of the default substitute, the upper end for constructed controls."""
    return modified_speed(_weed(), default_substitute(_weed()))


@cache
def _constructed(c: float):
    """The constructed finite-cost control at speed c, below c_hat."""
    return finite_cost_control(_weed(), c, c_star=_c_star(), c_hat=_c_hat())


@cache
def _m2_pipeline():
    """Scaled cubic with exact c* = -1.05, PMP-controlled at c = -0.9."""
    spec = make_cubic_model(0.15, 4.5)
    c_star = natural_speed(spec)
    prof = optimal_profile(spec, -0.9, c_star=c_star)
    sp = reconstruct_x(prof.trajectory, spec)
    alpha = alpha_multiplicative(sp)
    params = Model2Params(1.0, 1.0, 1.0)
    return {"spec": spec, "c_star": c_star, "profile": prof,
            "spatial": sp, "alpha": alpha, "params": params}


@cache
def _m2_sandwich():
    """Model-2 barriers at c = -0.9 and the exact (V, Theta) between them."""
    m2 = _m2_pipeline()
    sup = supersolution(m2["spatial"], m2["params"], -0.9)
    sub = subsolution(m2["spatial"], m2["alpha"], m2["params"], -0.9)
    sol = solve_vtheta(m2["spatial"], m2["alpha"], m2["params"], -0.9,
                       sub=sub, sup=sup)
    return sup, sub, sol


def criterion_1() -> tuple[bool, str]:
    """Natural speed of the weed model against the closed-form oracle."""
    c_star = _c_star()
    err = abs(c_star - C_STAR_EXACT)
    ok = err <= 1e-3
    return ok, (f"c* = {c_star:.8f}, exact -1/(3 sqrt 2) = {C_STAR_EXACT:.8f}, "
                f"|err| = {err:.2e} (tol 1e-3)")


def criterion_2() -> tuple[bool, str]:
    """Computed heteroclinic against P = U(1-U)/sqrt(2) and its x-profile."""
    spec = _weed()
    traj = unstable_manifold(spec, _c_star(), u_stop=1.0)
    exact_p = traj.u_nodes * (1.0 - traj.u_nodes) / np.sqrt(2.0)
    sup_p = float(np.max(np.abs(traj.p_values - exact_p)))
    prof = reconstruct_x(traj, spec)
    exact_u = 1.0 / (1.0 + 2.0 * np.exp(-prof.x_nodes / np.sqrt(2.0)))
    sup_u = float(np.max(np.abs(prof.u_values - exact_u)))
    ok = sup_p <= 1e-3 and sup_u <= 2e-3
    return ok, (f"sup|P - ansatz| = {sup_p:.2e} (tol 1e-3), "
                f"sup|U(x) - logistic| = {sup_u:.2e} (tol 2e-3)")


def criterion_3() -> tuple[bool, str]:
    """PMP solve at c = -0.1: junctions, boundary controls, residual, the
    minimum condition at every node, and the controlled-arc geometry
    bridging P_flat to P_sharp.

    The junction jumps compare the arc's ends with chart runs that stop
    exactly at u1 and u2.  The arc starts on the P_flat interpolant that
    seeds the shot, so jump1 checks that interpolant; jump2 checks where
    the shot meets P_sharp."""
    spec = _weed()
    prof = _optimal_01()
    order_ok = spec.u_star < prof.u1 < prof.u2 < 1.0
    b1 = float(prof.arc.beta_values[0])
    b2 = float(prof.arc.beta_values[-1])
    res = pmp_residual(prof, spec)
    flat = unstable_manifold(spec, -0.1, u_stop=1.0)
    sharp = stable_manifold(spec, -0.1, u_stop=0.0)
    pf, ps = flat.interp_p(), sharp.interp_p()
    to_u1 = unstable_manifold(spec, -0.1, u_stop=prof.u1)
    to_u2 = stable_manifold(spec, -0.1, u_stop=prof.u2)
    jump1 = abs(float(prof.arc.p_values[0]) - float(to_u1.p_values[-1]))
    jump2 = abs(float(prof.arc.p_values[-1]) - float(to_u2.p_values[0]))
    mid = prof.arc.u_nodes[1:-1]
    on_flat = mid <= flat.u_nodes[-1]  # P_flat ends on the U-axis
    geom = bool(np.all(prof.arc.p_values[1:-1][on_flat]
                       >= np.asarray(pf(mid[on_flat])) - 1e-7)
                and np.all(prof.arc.p_values[1:-1]
                           <= np.asarray(ps(mid)) + 1e-7))
    ok = (order_ok and b1 <= 1e-6 and b2 <= 1e-6 and res.yu_max <= 1e-5
          and res.min22_failures == 0 and jump1 <= 1e-8 and jump2 <= 1e-8
          and geom)
    return ok, (f"u1 = {prof.u1:.6f}, u2 = {prof.u2:.6f}, "
                f"beta ends = ({b1:.1e}, {b2:.1e}) (tol 1e-6), "
                f"YU residual = {res.yu_max:.2e} (tol 1e-5), "
                f"minimum-condition failures = {res.min22_failures} of "
                f"{res.n_checked} nodes, "
                f"junction jumps = ({jump1:.1e}, {jump2:.1e}), "
                f"arc inside [P_flat, P_sharp]: {geom}")


def criterion_4() -> tuple[bool, str]:
    """Effort curve on the speed grid: zero at c*, nondecreasing."""
    rows = _effort_rows()
    all_ok = all(r.ok for r in rows)
    E = [r.effort for r in rows]
    zero = E[0] <= 1e-6
    nondec = all(E[i] <= E[i + 1] + 1e-12 for i in range(len(E) - 1))
    ok = all_ok and zero and nondec
    table = ", ".join(f"E({r.c:+.4f})={r.effort:.4f}" for r in rows)
    return ok, (f"E(c*) = {E[0]:.2e} (tol 1e-6), nondecreasing = {nondec}; "
                + table)


def criterion_5() -> tuple[bool, str]:
    """PMP cost never exceeds the constructed-control cost at the same c."""
    details = []
    ok = True
    for r in _effort_rows():
        constructed = _constructed(r.c).cost
        good = r.effort <= constructed + 1e-9
        ok &= good
        details.append(f"c={r.c:+.3f}: E={r.effort:.4f} <= "
                       f"constructed {constructed:.4f} ({good})")
    return ok, "; ".join(details)


def criterion_6() -> tuple[bool, str]:
    """Tree infection along the c = -0.1 optimal wave; no wave for c > 0."""
    sp = _spatial_01()
    thp = theta_model1(sp, 1.0, -0.1)
    th = thp.theta_values
    monotone = bool(np.all(np.diff(th) >= -1e-12))
    left, right = float(th[0]), float(th[-1])
    try:
        theta_model1(sp, 1.0, +0.1)
        raises = False
    except NonexistenceError:
        raises = True
    ok = monotone and left <= 1e-3 and right >= 1.0 - 1e-3 and raises
    return ok, (f"Theta monotone = {monotone}, ends = ({left:.2e}, "
                f"1-{1.0 - right:.2e}) (tol 1e-3), c = +0.1 raises "
                f"nonexistence = {raises}")


def criterion_7() -> tuple[bool, str]:
    """Threshold speed and spectral classification at kappa1=kappa2=d=1."""
    params = Model2Params(1.0, 1.0, 1.0)
    cs = c_sharp(params)
    err = abs(cs - (-1.0))
    s_boundary = spectrum(-1.0, params)
    roots = np.sort(s_boundary.roots.real)
    factor_ok = (s_boundary.classification == "repeated_real"
                 and abs(roots[0] + 1.0) <= 1e-6
                 and abs(roots[1] - 1.0) <= 1e-5
                 and abs(roots[2] - 1.0) <= 1e-5)
    s = spectrum(-0.9, params)
    regime_ok = (s.classification == "lemma71_regime" and s.lambda1 < 0.0
                 and s.a > 0.0 and s.b > 0.0)
    A = np.array([[0.0, 1.0, 0.0],
                  [params.d, 0.9, -params.kappa2],
                  [-params.kappa1 / (-0.9), 0.0, 0.0]])
    resid = 0.0
    for lam in s.roots:
        v = np.array([1.0, lam, -params.kappa1 / (-0.9 * lam)])
        resid = max(resid, float(np.max(np.abs(A @ v - lam * v))))
    ok = err <= 1e-10 and factor_ok and regime_ok and resid <= 1e-9
    return ok, (f"c_sharp = {cs:.12f} (err {err:.1e}, tol 1e-10), "
                f"p factors as (l-1)^2(l+1) at c=-1: {factor_ok}, "
                f"c=-0.9 regime: {regime_ok} (l1={s.lambda1:.4f}, "
                f"a={s.a:.4f}, b={s.b:.4f}), eigenpair residual = {resid:.1e}")


def criterion_8() -> tuple[bool, str]:
    """Barrier sandwich and exact (V, Theta) for the insect/tree system."""
    m2 = _m2_pipeline()
    sup, sub, sol = _m2_sandwich()
    tol = 1e-6
    sup_ok = (float(np.max(sup.residuals["second"])) <= tol
              and float(np.max(sup.residuals["third"])) <= tol)
    sub_ok = (float(np.min(sub.residuals["second"])) >= -tol
              and float(np.min(sub.residuals["third"])) >= -tol)
    x = sol.x_nodes
    vstar = m2["params"].v_star
    v_lo, th_lo = sub.v_at(x), sub.theta_at(x)
    v_hi, th_hi = np.minimum(sol.u_values, vstar), sup.theta_at(x)
    slack = 1e-6
    sandwich = (bool(np.all(sol.v_values >= v_lo - slack))
                and bool(np.all(sol.v_values <= v_hi + slack))
                and bool(np.all(sol.theta_values >= th_lo - slack))
                and bool(np.all(sol.theta_values <= th_hi + slack)))
    v_tail = sol.meta["v_tail"]
    ok = sup_ok and sub_ok and sandwich and v_tail <= 1e-3
    return ok, (f"supersolution residuals <= 0: {sup_ok}, subsolution "
                f"residuals >= 0: {sub_ok}, sandwich within 1e-6: {sandwich}, "
                f"|V(+inf) - 0.5| = {v_tail:.2e} (tol 1e-3); "
                f"defect = {sol.meta['defect']:.2e} in "
                f"{sol.meta['iterations']} iterations")


def criterion_9() -> tuple[bool, str]:
    """Direct PDE evolution agrees with the computed waves."""
    spec = _weed()
    sp = _spatial_01()
    rec = evolve_scalar(spec, sp, alpha_of_x=sp.alpha_at, c_frame=-0.1,
                        T=50.0)
    drift = rec.summary["max_drift"]
    rec_lab = evolve_scalar(spec, sp, alpha_of_x=sp.alpha_at, T=50.0,
                            control_speed=-0.1)
    fit_c = front_speed(rec_lab)
    rec_free = evolve_scalar(spec, lambda x: 1.0 if x > 20.0 else 0.0, T=50.0)
    fit_f = front_speed(rec_free)
    err_c = abs(fit_c.speed - (-0.1)) / 0.1
    err_f = abs(fit_f.speed - C_STAR_EXACT) / abs(C_STAR_EXACT)
    ok = drift <= 1e-2 and err_c <= 0.05 and err_f <= 0.02
    return ok, (f"comoving drift = {drift:.4f} (tol 1e-2), controlled speed "
                f"= {fit_c.speed:.5f} ({100 * err_c:.2f}%, tol 5%), "
                f"uncontrolled speed = {fit_f.speed:.5f} "
                f"({100 * err_f:.2f}%, tol 2%)")


def criterion_10() -> tuple[bool, str]:
    """Spiral obstruction: sign violation within three rotation periods."""
    rep = case2_demo(Model2Params(1.0, 1.0, 1.0), -0.9)
    ok = rep.within_three_periods
    return ok, (f"{rep.component} < 0 at x = {rep.x_violation:.4f} after "
                f"{rep.periods_to_violation:.3f} periods (limit 3); winding "
                f"= {rep.winding:.3f}, rotation rate {rep.rotation_rate:.4f} "
                f"vs b = {rep.b:.4f}")


def criterion_11() -> tuple[bool, str]:
    """Property battery: one load-bearing invariant per module."""
    spec = _weed()
    c_star = _c_star()
    checks: list[tuple[str, bool, str]] = []

    rep = check_A2(spec)
    checks.append(("cost partials vs finite differences (1e-5 rel)",
                   rep.fd_ok, f"max {max(rep.fd_max.values()):.1e}"))

    c_ref = natural_speed(spec, rtol=1e-11, atol=1e-13)
    checks.append(("natural speed invariant under 10x tighter integrator "
                   "tolerances (1e-6)", abs(c_ref - c_star) <= 1e-6,
                   f"|dc| = {abs(c_ref - c_star):.1e}"))

    con = _constructed(-0.1)
    rel = con.meta["cost_error"] / max(abs(con.cost), 1e-300)
    checks.append(("cost quadrature halving (1e-6 rel)", rel <= 1e-6,
                   f"rel estimate {rel:.1e}"))
    checks.append(("constructed control margin below the cost barrier",
                   con.delta_margin > 0.0, f"delta = {con.delta_margin:.3g}"))

    t1 = unstable_manifold(spec, c_star, u_stop=0.5)
    t2 = unstable_manifold(spec, c_star, u_stop=0.5, eps_seed=0.5e-8)
    dseed = abs(float(t1.p_values[-1]) - float(t2.p_values[-1]))
    checks.append(("manifold seed halving moves the endpoint < 1e-6",
                   dseed < 1e-6, f"|dP| = {dseed:.1e}"))

    u = t1.u_nodes
    p = t1.p_values
    keep = p >= 1e-2
    um = 0.5 * (u[:-1] + u[1:])
    interval = keep[:-1] & keep[1:]
    dp = np.diff(p)[interval] / np.diff(u)[interval]
    pm = 0.5 * (p[:-1] + p[1:])[interval]
    rhs = -c_star - np.asarray(spec.f(um[interval]), dtype=float) / pm
    het = float(np.max(np.abs(dp - rhs))) if np.any(interval) else 0.0
    checks.append(("heteroclinic residual at midpoints (1e-5)", het <= 1e-5,
                   f"max {het:.1e}"))

    bound = slope_bound(spec, c_star)
    checks.append(("slope bound max P <= c/(1-e^-c) + M(...)",
                   float(np.max(p)) <= bound,
                   f"max P = {np.max(p):.4f} <= {bound:.4f}"))

    gaps = [manifold_gap(spec, c) for c in (-0.3, -0.2, -0.1, 0.0, 0.1)]
    gap_mono = all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1))
    checks.append(("manifold gap strictly increasing in c", gap_mono,
                   "sampled on [-0.3, 0.1]"))

    prof_ref = optimal_profile(spec, -0.1, c_star=c_star, rtol=5e-11,
                               atol=5e-13)
    e_rel = abs(prof_ref.cost - _optimal_01().cost) / _optimal_01().cost
    checks.append(("E(-0.1) invariant under halved integrator tolerances "
                   "(1e-5 rel)", e_rel <= 1e-5, f"rel change {e_rel:.1e}"))

    m2 = _m2_pipeline()
    _, _, sol = _m2_sandwich()
    rec = evolve_model2(m2["spec"], m2["spatial"], sol.v_at, sol.theta_at,
                        alpha_of_x=m2["alpha"], params=m2["params"],
                        c_frame=-0.9, T=50.0, x_span=(-60.0, 60.0), dx=0.05)
    checks.append(("invariant-domain excursion during Model-2 evolution "
                   "(1e-6)", rec.summary["d_invariance"] <= 1e-6,
                   f"excursion {rec.summary['d_invariance']:.1e}, drift "
                   f"{rec.summary['joint_drift']:.3f} (front pinning at "
                   "c=-0.9 is ~1e-7; the stationarity example runs at a "
                   "pinned configuration in the module tests)"))

    ok = all(c[1] for c in checks)
    failed = [f"{name} [{info}]" for name, good, info in checks if not good]
    detail = f"{sum(c[1] for c in checks)}/{len(checks)} invariants hold"
    if failed:
        detail += "; FAILED: " + "; ".join(failed)
    return ok, detail


CRITERIA = [
    (1, "natural speed vs closed form", criterion_1, 5.0),
    (2, "exact-profile oracle", criterion_2, 5.0),
    (3, "PMP suite at c = -0.1", criterion_3, 30.0),
    (4, "effort curve shape", criterion_4, 180.0),
    (5, "PMP dominates constructed control", criterion_5, 180.0),
    (6, "tree-infection profile", criterion_6, 5.0),
    (7, "Model-2 spectral identities", criterion_7, 1.0),
    (8, "Model-2 barrier sandwich", criterion_8, 60.0),
    (9, "PDE cross-validation", criterion_9, 120.0),
    (10, "spiral obstruction demo", criterion_10, 5.0),
    (11, "module property battery", criterion_11, 300.0),
]


# the criteria that run a banded solve, the first of which would otherwise
# time scipy.linalg's import (see model2._linalg)
BANDED = frozenset({8, 9, 11})


def _criterion(number: int) -> tuple:
    """The CRITERIA row numbered `number`; anything else is a ConfigError."""
    for row in CRITERIA:
        if row[0] == number:
            return row
    raise ConfigError(f"no acceptance criterion {number!r} (criteria are "
                      f"numbered 1 to {len(CRITERIA)})")


def run_criterion(number: int) -> CriterionResult:
    num, name, fn, budget = _criterion(number)
    t0 = time.perf_counter()
    try:
        passed, details = fn()
    except Exception as exc:  # a crash is a failed criterion, not a crash
        passed, details = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return CriterionResult(num, name, bool(passed), details, elapsed, budget)


def run_all(selected=None) -> list[CriterionResult]:
    numbers = selected if selected is not None else [n for n, *_ in CRITERIA]
    for n in numbers:  # an unknown number fails before any criterion runs
        _criterion(n)
    if BANDED.intersection(numbers):
        _linalg()  # loaded before any timer starts: no criterion pays for it
    return [run_criterion(n) for n in numbers]
