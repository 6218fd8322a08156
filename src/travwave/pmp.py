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
exhausted before the meeting) so that bisection can bracket the root.

The root is bracketed on a grid of trial junctions: phi is shot at the
grid's two ends and, when they differ in sign, at the midpoints of an
index range halved until two adjacent grid points bracket the change.
Ends of one sign are refused with the phi table of the whole grid.
Every phi value is a scalar `shoot_from` call, memoised per u1 in one
table that the search, the bisection and the diagnostics read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dop853 import solve_ivp
from ._roots import bisect
from .control_construct import (_cost_and_error, _slice_from, _slice_to,
                                _speed_regime, merge_pieces,
                                natural_heteroclinic)
from .errors import InvalidParameterError, NoSolutionError, TravwaveError
from .model import (ModelSpec, _check_positive, _refuse_rhs, check_A1,
                    check_A2)
from .phaseplane import (ATOL, RTOL, PhaseTrajectory, _floor_event,
                         _interpolant, _underflow_status, stable_manifold,
                         unstable_manifold)

__all__ = ["ShotResult", "OptimalProfile", "PmpResidualReport", "EffortRow",
           "shoot_from", "optimal_profile", "pmp_residual", "effort_curve"]

BETA_START = 1e-10
U1_TOL = 1e-10  # width to which phi's bracket on the junction u1 is bisected
N_BETA = 41  # candidate controls per node of pmp_residual's argmin check


@dataclass
class ShotResult:
    """Outcome of one (P, beta) integration from a trial left junction u1."""

    status: str           # met_psharp | beta_zero | p_zero | left_domain
    phi: float
    u1: float
    u_end: float
    p_end: float
    beta_end: float
    arc: PhaseTrajectory | None = None  # the sampled run, see shoot_from


@dataclass
class ShootingDiagnostics:
    """What one `optimal_profile` call did.

    `n_scanned` grid points were shot to bracket the root: the grid's ends
    and the halving's midpoints.  `roots` is [u1_root], or empty for the
    zero control.  `shots` counts the distinct junctions u1 whose phi was
    shot (grid points and bisection) plus the final sampled shot.
    """

    u1_root: float
    phi_at_root: float
    roots: list[float]
    scan_lo: float
    scan_hi: float
    n_scanned: int
    shots: int = 0
    cost_error: float = 0.0  # the arc cost's halving error estimate


@dataclass
class OptimalProfile:
    c: float
    u1: float
    u2: float
    trajectory: PhaseTrajectory
    cost: float
    converged: ShootingDiagnostics
    arc: PhaseTrajectory | None = None  # the sampled run, see shoot_from


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
    """(P, beta) right-hand side on floats, built from the spec's callables.

    It does the operations of a fused ``pmp_rhs`` in the same order, so the
    two agree to the bit; `shoot_from` uses it for specs without a fused
    ``pmp_rhs``.  RK trial stages may probe just outside the admissible
    strip 0 <= beta < beta_max (the events cut the real path there); the
    cost partials are evaluated at the clamped control.  A non-positive
    L_betabeta raises ConvexityViolationError, or SingularityError when
    the state (P, beta) itself is not finite.
    """
    def rhs(u, P, b, c):
        fv = float(spec.f(u))
        bhat = float(spec.beta_max(u))
        b_pos = max(b, 0.0)
        b_adm = min(b_pos, (1.0 - 1e-12) * bhat) if math.isfinite(bhat) \
            else b_pos
        Lbb = float(spec.L_betabeta(u, b_adm))
        if not 0.0 < Lbb < math.inf:
            _refuse_rhs(u, P, b, b_adm, Lbb)
        Lb = float(spec.L_beta(u, b_adm))
        Lv = float(spec.L(u, b_adm))
        Lub = float(spec.L_ubeta(u, b_adm))
        P2 = P**2  # libm pow, as in the fused form
        dP = -c + (b - fv) / P
        db = (((b_adm - fv) / P2) * Lb - Lv / P2 - Lub) / Lbb
        return dP, db

    return rhs


def shoot_from(spec: ModelSpec, c: float, u1: float, p_flat, p_sharp,
               rtol: float = RTOL, atol: float = ATOL,
               want_nodes: bool = False) -> ShotResult:
    """Integrate the optimality system from (P_flat(u1), 0+) toward P_sharp.

    The run's end, an event or U = 1, is mapped onto the continuous
    shooting surrogate: meeting P_sharp reports
    phi = beta(u2) >= 0, exhausting beta or P before the meeting reports
    phi = -(remaining gap to P_sharp) < 0.  An integrator failure counts as
    P exhausted where P has collapsed and raises SingularityError elsewhere
    (phaseplane._underflow_status).  A non-positive L_betabeta along the way
    raises ConvexityViolationError; a non-finite state, SingularityError.
    A non-finite c or u1, or a tolerance that is not finite and positive,
    raises InvalidParameterError.  With `want_nodes`, `arc` samples the
    run on >= 1501 nodes, with beta >= 0 and the adjoint Y = -L_beta.
    """
    if not (np.isfinite(c) and np.isfinite(u1)):
        raise InvalidParameterError(
            f"speed and junction must be finite, got c={c}, u1={u1}")
    _check_positive("rtol", rtol)
    _check_positive("atol", atol)
    p0 = float(p_flat(u1))
    if not p0 > 0.0:
        raise InvalidParameterError(f"P_flat({u1:g}) = {p0:g} is not positive")

    pmp_rhs = spec.pmp_rhs or _generic_rhs(spec)
    c = float(c)  # plain float: np.float64 arithmetic is slower

    def rhs(u, y):
        P, b = y
        return pmp_rhs(u, P, b, c)

    # dense output only for the sampled shot: event location builds its
    # own interpolant on demand, and DOP853's extra stages cost RHS calls
    sol = solve_ivp(rhs, (u1, 1.0), [p0, BETA_START], rtol=rtol, atol=atol,
                    dense_output=want_nodes,
                    events=((lambda u, y: y[0] - float(p_sharp(u)), 1),
                            (lambda u, y: y[1], -1), _floor_event(p0)))

    u_end = float(sol.t[-1])
    p_end, b_end = float(sol.y[0, -1]), float(sol.y[1, -1])
    status = _underflow_status(sol) if sol.ended is None else (
        "met_psharp", "beta_zero", "p_zero", "left_domain")[sol.ended]

    if status in ("met_psharp", "left_domain"):
        phi = b_end
    else:
        phi = -(float(p_sharp(u_end)) - p_end)

    arc = None
    if want_nodes:
        n = max(1500, int((u_end - u1) * 10000)) + 1
        nodes = np.linspace(u1, u_end, n)
        p_vals, b_vals = sol.sol(nodes)
        b_vals = np.maximum(b_vals, 0.0)
        arc = PhaseTrajectory(nodes, p_vals, c, "controlled",
                              beta_values=b_vals, y_values=-np.asarray(
                                  spec.L_beta(nodes, b_vals), dtype=float))
    return ShotResult(status, phi, u1, u_end, p_end, b_end, arc)


def _scan_grid(spec: ModelSpec, flat: PhaseTrajectory,
               resolution: float) -> tuple[float, float, np.ndarray]:
    """(scan_lo, scan_hi, grid): the trial junctions u1 of the phi scan,
    `resolution` apart below P_flat's end."""
    _check_positive("scan_resolution", resolution)
    # Control is worthless where the cost barrier sits at zero; scan above
    # u* for such models, else over the whole unit interval.
    barrier_zero_below = float(spec.beta_max(0.5 * spec.u_star)) == 0.0 \
        if np.isfinite(spec.u_star) else False
    lo = (spec.u_star if barrier_zero_below else 0.0) + resolution
    hi = float(flat.u_nodes[-1]) - 1e-4
    if hi <= lo:
        raise NoSolutionError(
            f"empty scan range [{lo:g}, {hi:g}] at c={flat.c:g}")
    grid = np.arange(lo, hi, resolution)
    if grid[-1] < hi - 1e-12:
        grid = np.append(grid, hi)
    return lo, hi, grid


def _grid_bracket(phi, u1s: list) -> tuple[float, float] | None:
    """Adjacent grid points (lo, hi) where phi changes sign (or is exactly
    zero at one of them), found by halving the index range between the
    grid's ends.  None when the ends do not differ in sign."""
    i, j = 0, len(u1s) - 1
    f_i, f_j = phi(u1s[i]), phi(u1s[j])
    if not np.sign(f_i) * np.sign(f_j) < 0.0:
        return None
    while j - i > 1:
        m = (i + j) // 2
        if (phi(u1s[m]) > 0.0) == (f_i > 0.0):
            i = m
        else:
            j = m
    return u1s[i], u1s[j]


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


def optimal_profile(spec: ModelSpec, c: float,
                    scan_resolution: float = 1e-3,
                    c_star: float | None = None,
                    rtol: float = RTOL, atol: float = ATOL) -> OptimalProfile:
    """Minimum-effort profile at speed c > c* by a grid search plus
    bisection on phi.

    `_speed_regime` refuses c < c*; within its guard of c* the zero control
    is optimal and the natural heteroclinic is returned with zero cost.
    phi(u1) is shot at most once per u1, into one table: the grid points
    `_grid_bracket` probes and the bisection steps.  The root is the
    bracket's tabled u1 with the smallest |phi|, assembled with one more
    shot, sampled densely.  Where phi changes sign an odd number of times,
    at least three, between the grid's ends, the search brackets one of
    those changes, not necessarily the one at the smallest u1.  Ends of
    one sign (no change, or an even number) raise NoSolutionError with
    phi on the whole grid.
    """
    _gate(spec)
    c_star, trivial = _speed_regime(spec, c, c_star)
    if trivial:
        u = spec.u_star
        return OptimalProfile(c, u, u, natural_heteroclinic(spec, c_star),
                              0.0, ShootingDiagnostics(u, 0.0, [], u, u, 0))

    flat = unstable_manifold(spec, c, u_stop=1.0, rtol=rtol, atol=atol)
    sharp = stable_manifold(spec, c, u_stop=0.0, rtol=rtol, atol=atol)
    p_flat, p_sharp = flat.interp_p(), sharp.interp_p()

    scan_lo, scan_hi, grid = _scan_grid(spec, flat, scan_resolution)
    table: dict[float, float] = {}

    def phi(u1: float) -> float:
        if u1 not in table:
            table[u1] = shoot_from(spec, c, u1, p_flat, p_sharp,
                                   rtol=rtol, atol=atol).phi
        return table[u1]

    u1s = grid.tolist()
    bracket = _grid_bracket(phi, u1s)
    if bracket is None:
        # the rest of the grid is shot only for the refusal's table
        raise NoSolutionError(
            f"no sign change of phi between the ends of [{scan_lo:.4f}, "
            f"{scan_hi:.4f}] at c={c:g}",
            phi_table=np.column_stack([grid, [phi(x) for x in u1s]]))
    n_scanned = len(table)  # grid points only: the bisection comes next

    lo, hi = bracket
    flo = phi(lo)
    bisect(lambda u1: -flo * phi(u1), lo, hi, U1_TOL)
    u1_root = min((x for x in table if lo <= x <= hi),
                  key=lambda x: abs(table[x]))
    shot = shoot_from(spec, c, u1_root, p_flat, p_sharp, rtol=rtol, atol=atol,
                      want_nodes=True)
    u2, arc = shot.u_end, shot.arc
    traj = merge_pieces((_slice_to(flat, u1_root, p_flat), arc,
                         _slice_from(sharp, u2, p_sharp)), c)

    cost, cost_error = _cost_and_error(spec, arc)
    diag = ShootingDiagnostics(u1_root, table[u1_root], [u1_root], scan_lo,
                               scan_hi, n_scanned, len(table) + 1, cost_error)
    return OptimalProfile(c, u1_root, u2, traj, cost, diag, arc=arc)


def pmp_residual(profile: OptimalProfile,
                 spec: ModelSpec) -> PmpResidualReport:
    """Stationarity residual of the optimality ODE plus the argmin check.

    The residual | d/dU L_beta - ((beta-f)/P^2) L_beta + L/P^2 | is formed
    at the midpoints of intervals whose nodes have a finite L_beta, with
    interpolated (P, beta); the argmin check samples candidate controls
    beta' >= 0 at every node with a control range and counts
    violations of beta' Y + L(U,beta') >= beta Y + L(U,beta) - 1e-8.
    """
    if profile.arc is None:
        return PmpResidualReport(0.0, 0, 0)
    u = profile.arc.u_nodes
    p = profile.arc.p_values
    b = profile.arc.beta_values
    p_i = _interpolant(u, p, "Pontryagin arc")
    b_i = _interpolant(u, b, "Pontryagin arc")

    Lb = np.asarray(spec.L_beta(u, b), dtype=float)
    ok = np.isfinite(Lb[:-1]) & np.isfinite(Lb[1:])
    um = 0.5 * (u[:-1] + u[1:])[ok]
    dLb = (Lb[1:][ok] - Lb[:-1][ok]) / np.diff(u)[ok]
    pm = np.asarray(p_i(um))
    bm = np.maximum(np.asarray(b_i(um)), 0.0)
    fm = np.asarray(spec.f(um), dtype=float)
    Lbm = np.asarray(spec.L_beta(um, bm), dtype=float)
    Lm = np.asarray(spec.L(um, bm), dtype=float)
    resid = dLb - ((bm - fm) / pm**2) * Lbm + Lm / pm**2
    yu_max = float(np.max(np.abs(resid))) if len(resid) else 0.0

    # argmin check against the profile's stored adjoint: recomputing Y from
    # the node's own beta would be self-consistent by construction; one row
    # of N_BETA candidate controls per node with a positive control range
    Y = profile.arc.y_values
    bhat = np.asarray(spec.beta_max(u), dtype=float)
    hi = np.where(np.isfinite(bhat), 0.999 * bhat, 5.0)
    k = hi > 0.0
    cand = np.linspace(0.0, hi[k], N_BETA, axis=1)
    uu = np.broadcast_to(u[k, None], cand.shape)
    vals = cand * Y[k, None] + np.asarray(spec.L(uu, cand), dtype=float)
    here = b[k] * Y[k] + np.asarray(spec.L(u[k], b[k]), dtype=float)
    failures = int(np.sum(vals < here[:, None] - 1e-8))
    return PmpResidualReport(yu_max, failures, len(u))


def effort_curve(spec: ModelSpec, c_grid, c_star: float | None = None,
                 keep_profiles: bool = False) -> list[EffortRow]:
    """Table of (c, E(c)) rows.

    Every grid speed passes `_speed_regime` before any row is solved.
    Solver failures (`TravwaveError`) are recorded per row, not raised;
    any other exception is a bug and propagates.
    """
    cs = sorted(float(c) for c in np.atleast_1d(c_grid))
    for c in cs:
        c_star, _ = _speed_regime(spec, c, c_star)

    def row(c: float) -> EffortRow:
        try:
            prof = optimal_profile(spec, c, c_star=c_star)
            return EffortRow(c, prof.cost, True,
                             profile=prof if keep_profiles else None)
        except TravwaveError as exc:  # a solver failure is a data point
            return EffortRow(c, float("nan"), False, message=str(exc))

    return [row(c) for c in cs]
