"""Minimum-effort controls via the Pontryagin necessary conditions.

In the (U, P) chart the effort of a feedback control beta(U) is
J = int_0^1 L(U, beta)/P dU.  Along an optimal arc the adjoint satisfies
Y + L_beta(U, beta) = 0, and eliminating Y turns the stationarity condition
into a closed ODE for (P, beta):

    dP/dU    = -c + (beta - f)/P
    dbeta/dU = [ ((beta - f)/P^2) L_beta - L/P^2 - L_Ubeta ] / L_betabeta.

The control is active on a single interval (u1, u2) with beta(u1) =
beta(u2) = 0 and P matching the uncontrolled branches P_flat / P_sharp at
the junctions.  For a trial u1 the system is integrated from
(P, beta) = (P_flat(u1), 0+) until P meets P_sharp; the terminal control
beta(u2) defines the shooting map phi(u1), whose root yields the optimal
support.  phi is extended continuously to the failure modes (beta or P
exhausted before the meeting) so that a scan plus bisection can bracket
the root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from ._roots import bisect
from .control_construct import (SPEED_GUARD, _slice_from, _slice_to, cost_of,
                                merge_pieces, natural_heteroclinic)
from .errors import (ConvexityViolationError, InvalidParameterError,
                     NoSolutionError, TravwaveError)
from .model import ModelSpec, _check_finite_state, check_A1, check_A2
from .phaseplane import (PhaseTrajectory, _floor_event, _underflow_status,
                         stable_manifold, unstable_manifold)
from .speed import natural_speed

__all__ = ["ShotResult", "OptimalProfile", "PmpResidualReport", "EffortRow",
           "shoot_from", "optimal_profile", "pmp_residual", "effort_curve"]

BETA_START = 1e-10


@dataclass
class ShotResult:
    """Outcome of one (P, beta) integration from a trial left junction u1."""

    status: str           # met_psharp | beta_zero | p_zero | left_domain
    phi: float
    u1: float
    u_end: float
    p_end: float
    beta_end: float
    u_nodes: np.ndarray | None = None
    p_values: np.ndarray | None = None
    beta_values: np.ndarray | None = None


@dataclass
class ShootingDiagnostics:
    converged: bool
    u1_root: float
    phi_at_root: float
    roots: list[float]
    scan_lo: float
    scan_hi: float
    n_scanned: int


@dataclass
class OptimalProfile:
    c: float
    u1: float
    u2: float
    trajectory: PhaseTrajectory
    cost: float
    converged: ShootingDiagnostics
    arc: PhaseTrajectory | None = None


@dataclass
class PmpResidualReport:
    yu_max: float
    min22_failures: int
    n_checked: int


@dataclass
class EffortRow:
    c: float
    effort: float
    ok: bool
    message: str = ""
    profile: OptimalProfile | None = None


def _generic_rhs(spec: ModelSpec):
    """(P, beta) right-hand side built from the spec's array callables.

    Used for specs without a fused ``pmp_rhs``.  RK trial stages may probe
    just outside the admissible strip 0 <= beta < beta_max (the events cut
    the real path there); the cost partials are evaluated at the clamped
    control.  A non-positive L_betabeta raises ConvexityViolationError, or
    SingularityError when the state (P, beta) itself is not finite.
    """
    def rhs(u, P, b, c):
        fv = float(spec.f(u))
        bhat = float(spec.beta_max(u))
        b_adm = min(max(b, 0.0), (1.0 - 1e-12) * bhat) if np.isfinite(bhat) \
            else max(b, 0.0)
        Lbb = float(spec.L_betabeta(u, b_adm))
        if not Lbb > 0.0 or not np.isfinite(Lbb):
            _check_finite_state(u, P, b)
            raise ConvexityViolationError(
                f"L_betabeta({u:.6f}, {b_adm:.3g}) = {Lbb:g} is not positive")
        Lb = float(spec.L_beta(u, b_adm))
        Lv = float(spec.L(u, b_adm))
        Lub = float(spec.L_ubeta(u, b_adm))
        dP = -c + (b - fv) / P
        db = (((b_adm - fv) / P**2) * Lb - Lv / P**2 - Lub) / Lbb
        return dP, db

    return rhs


def shoot_from(spec: ModelSpec, c: float, u1: float, p_flat, p_sharp,
               rtol: float = 1e-10, atol: float = 1e-12,
               want_nodes: bool = False) -> ShotResult:
    """Integrate the optimality system from (P_flat(u1), 0+) toward P_sharp.

    Termination is classified and mapped onto the continuous shooting
    surrogate: meeting P_sharp reports phi = beta(u2) >= 0, exhausting beta
    or P before the meeting reports phi = -(remaining gap to P_sharp) < 0.
    An integrator failure counts as P exhausted where P has collapsed and
    raises SingularityError elsewhere, by the chart's rule
    (phaseplane._underflow_status).  A non-positive L_betabeta along the way
    raises ConvexityViolationError; a non-finite state, SingularityError.
    """
    p0 = float(p_flat(u1))
    if not p0 > 0.0:
        raise InvalidParameterError(f"P_flat({u1:g}) = {p0:g} is not positive")

    pmp_rhs = spec.pmp_rhs or _generic_rhs(spec)

    def rhs(u, y):
        P, b = y.tolist()
        return pmp_rhs(float(u), P, b, c)

    def ev_meet(u, y):
        return y[0] - float(p_sharp(u))
    ev_meet.terminal = True
    ev_meet.direction = 1

    def ev_beta(u, y):
        return y[1]
    ev_beta.terminal = True
    ev_beta.direction = -1

    # dense output only for the sampled shot: event location builds its
    # own interpolant on demand, and DOP853's extra stages cost RHS calls
    sol = solve_ivp(rhs, (u1, 1.0), [p0, BETA_START], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=want_nodes,
                    events=[ev_meet, ev_beta, _floor_event(p0)])

    u_end = float(sol.t[-1])
    p_end, b_end = float(sol.y[0, -1]), float(sol.y[1, -1])
    if sol.status == -1:
        status = _underflow_status(sol)
    elif sol.status == 1:
        if len(sol.t_events[0]):
            status = "met_psharp"
        elif len(sol.t_events[1]):
            status = "beta_zero"
        else:
            status = "p_zero"
    else:
        status = "left_domain"

    if status in ("met_psharp", "left_domain"):
        phi = b_end
    else:
        phi = -(float(p_sharp(u_end)) - p_end)

    nodes = pvals = bvals = None
    if want_nodes:
        n = max(1500, int((u_end - u1) * 10000)) + 1
        nodes = np.linspace(u1, u_end, n)
        vals = sol.sol(nodes)
        pvals, bvals = vals[0], np.maximum(vals[1], 0.0)
    return ShotResult(status, phi, u1, u_end, p_end, b_end,
                      nodes, pvals, bvals)


def _gate(spec: ModelSpec) -> None:
    rep = check_A1(spec)
    if not rep.passed:
        raise InvalidParameterError(
            f"optimal control requires bistable f; {spec.label} fails: "
            + "; ".join(rep.failures()))
    rep2 = check_A2(spec)
    if not (rep2.convexity_ok and rep2.l_zero_ok):
        raise InvalidParameterError(
            f"optimal control requires a strictly convex cost; {spec.label} "
            f"fails (convex={rep2.convexity_ok}, L(u,0)=0 ok={rep2.l_zero_ok})")


def _trivial_profile(spec: ModelSpec, c: float, c_star: float) -> OptimalProfile:
    traj = natural_heteroclinic(spec, c_star)
    diag = ShootingDiagnostics(True, spec.u_star, 0.0, [], spec.u_star,
                               spec.u_star, 0)
    return OptimalProfile(c, spec.u_star, spec.u_star, traj, 0.0, diag,
                          arc=None)


def optimal_profile(spec: ModelSpec, c: float, tol: float = 1e-10,
                    scan_resolution: float = 1e-3,
                    c_star: float | None = None,
                    rtol: float = 1e-10, atol: float = 1e-12) -> OptimalProfile:
    """Minimum-effort profile at speed c > c* by scan plus bisection on phi.

    At or below the natural speed the zero control is optimal and the
    natural heteroclinic is returned with zero cost.  If phi has several
    roots, the smallest is assembled and all bracketed roots are reported
    in the diagnostics.
    """
    _gate(spec)
    if c_star is None:
        c_star = natural_speed(spec)
    if c <= c_star + SPEED_GUARD:
        return _trivial_profile(spec, c, c_star)

    flat = unstable_manifold(spec, c, u_stop=1.0, rtol=rtol, atol=atol)
    sharp = stable_manifold(spec, c, u_stop=0.0, rtol=rtol, atol=atol)
    p_flat, p_sharp = flat.interp_p(), sharp.interp_p()

    # Control is worthless where the cost barrier sits at zero; scan above
    # u* for such models, else over the whole unit interval.
    barrier_zero_below = float(spec.beta_max(0.5 * spec.u_star)) == 0.0 \
        if np.isfinite(spec.u_star) else False
    scan_lo = (spec.u_star if barrier_zero_below else 0.0) + scan_resolution
    scan_hi = float(flat.u_nodes[-1]) - 1e-4
    if scan_hi <= scan_lo:
        raise NoSolutionError(
            f"empty scan range [{scan_lo:g}, {scan_hi:g}] at c={c:g}")

    def phi_of(u1: float) -> float:
        return shoot_from(spec, c, u1, p_flat, p_sharp,
                          rtol=rtol, atol=atol).phi

    grid = np.arange(scan_lo, scan_hi, scan_resolution)
    if grid[-1] < scan_hi - 1e-12:
        grid = np.append(grid, scan_hi)
    phis = np.array([phi_of(u) for u in grid])

    finite = np.isfinite(phis)
    brackets = []
    for i in range(len(grid) - 1):
        if finite[i] and finite[i + 1] and phis[i] * phis[i + 1] < 0.0:
            brackets.append((grid[i], grid[i + 1], phis[i], phis[i + 1]))
    if not brackets:
        raise NoSolutionError(
            f"no sign change of phi on [{scan_lo:.4f}, {scan_hi:.4f}] at c={c:g}",
            phi_table=np.column_stack([grid, phis]))

    roots = []
    for lo, hi, flo, fhi in brackets:
        best = (lo, flo) if abs(flo) < abs(fhi) else (hi, fhi)

        def side(u1):
            nonlocal best
            fmid = phi_of(u1)
            if abs(fmid) < abs(best[1]):
                best = (u1, fmid)
            return -flo * fmid

        bisect(side, lo, hi, tol)
        roots.append(best)

    roots.sort(key=lambda r: r[0])
    u1_root, phi_root = roots[0]
    shot = shoot_from(spec, c, u1_root, p_flat, p_sharp, rtol=rtol, atol=atol,
                      want_nodes=True)
    u2 = shot.u_end

    arc = PhaseTrajectory(shot.u_nodes, shot.p_values, c, "controlled",
                          beta_values=shot.beta_values)
    arc.y_values = -np.asarray(spec.L_beta(arc.u_nodes, arc.beta_values),
                               dtype=float)

    traj = merge_pieces((_slice_to(flat, u1_root, p_flat), arc,
                         _slice_from(sharp, u2, p_sharp)), c)

    cost = cost_of(spec, arc)
    diag = ShootingDiagnostics(True, u1_root, phi_root,
                               [r[0] for r in roots], scan_lo, scan_hi,
                               len(grid))
    return OptimalProfile(c, u1_root, u2, traj, cost, diag, arc=arc)


def pmp_residual(profile: OptimalProfile, spec: ModelSpec,
                 n_beta: int = 41) -> PmpResidualReport:
    """Stationarity residual of the optimality ODE plus the argmin check.

    The residual | d/dU L_beta - ((beta-f)/P^2) L_beta + L/P^2 | is formed
    at interval midpoints with interpolated (P, beta); the argmin check
    samples candidate controls beta' >= 0 at every node and counts
    violations of beta' Y + L(U,beta') >= beta Y + L(U,beta) - 1e-8.
    """
    if profile.arc is None:
        return PmpResidualReport(0.0, 0, 0)
    u = profile.arc.u_nodes
    p = profile.arc.p_values
    b = profile.arc.beta_values
    p_i = PchipInterpolator(u, p)
    b_i = PchipInterpolator(u, b)

    Lb = np.asarray(spec.L_beta(u, b), dtype=float)
    um = 0.5 * (u[:-1] + u[1:])
    dLb = np.diff(Lb) / np.diff(u)
    pm = np.asarray(p_i(um))
    bm = np.maximum(np.asarray(b_i(um)), 0.0)
    fm = np.asarray(spec.f(um), dtype=float)
    Lbm = np.asarray(spec.L_beta(um, bm), dtype=float)
    Lm = np.asarray(spec.L(um, bm), dtype=float)
    resid = dLb - ((bm - fm) / pm**2) * Lbm + Lm / pm**2
    yu_max = float(np.max(np.abs(resid))) if len(resid) else 0.0

    # argmin check against the profile's stored adjoint: recomputing Y from
    # the node's own beta would be self-consistent by construction; one row
    # of n_beta candidate controls per node with a positive control range
    Y = profile.arc.y_values if profile.arc.y_values is not None else -Lb
    bhat = np.asarray(spec.beta_max(u), dtype=float)
    hi = np.where(np.isfinite(bhat), 0.999 * bhat, 5.0)
    k = hi > 0.0
    cand = np.linspace(0.0, hi[k], n_beta, axis=1)
    uu = np.broadcast_to(u[k, None], cand.shape)
    vals = cand * Y[k, None] + np.asarray(spec.L(uu, cand), dtype=float)
    here = b[k] * Y[k] + np.asarray(spec.L(u[k], b[k]), dtype=float)
    failures = int(np.sum(vals < here[:, None] - 1e-8))
    return PmpResidualReport(yu_max, failures, len(u))


def effort_curve(spec: ModelSpec, c_grid, c_star: float | None = None,
                 keep_profiles: bool = False) -> list[EffortRow]:
    """Table of (c, E(c)) rows.

    Solver failures (`TravwaveError`) are recorded per row, not raised;
    any other exception is a bug and propagates.
    """
    if c_star is None:
        c_star = natural_speed(spec)
    cs = sorted(float(c) for c in np.atleast_1d(c_grid))
    for c in cs:
        if c < c_star - SPEED_GUARD:
            raise InvalidParameterError(
                f"effort is defined for c >= c*; got c={c:g} < c*={c_star:.8g}")

    def row(c: float) -> EffortRow:
        try:
            prof = optimal_profile(spec, c, c_star=c_star)
            return EffortRow(c, prof.cost, True,
                             profile=prof if keep_profiles else None)
        except TravwaveError as exc:  # a solver failure is a data point
            return EffortRow(c, float("nan"), False, message=str(exc))

    return [row(c) for c in cs]
