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

The scan integrates all its grid shots in lock step, as the columns of
one `_dop853.LockStep` (scipy's DOP853 on arrays, a step size per
shot), under scipy's event rule applied here, and yields only the signs
of phi.  Scan and shots take the same right-hand side, the spec's fused
``pmp_rhs`` or else `_generic_rhs`, on arrays and on floats; the two are
equal to the bit per element.  Every phi value is a scalar `shoot_from`
call, memoised per u1 in one table that the scan's hand-offs, the bracket
ends, the bisection and the diagnostics read, so the root and the cost do
not depend on the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dop853 import LockStep, solve_ivp
from ._roots import bisect, flips
from .control_construct import (_cost_and_error, _slice_from, _slice_to,
                                _speed_regime, merge_pieces,
                                natural_heteroclinic)
from .errors import InvalidParameterError, NoSolutionError, TravwaveError
from .model import (ModelSpec, _check_positive, _refuse_rhs, check_A1,
                    check_A2)
from .phaseplane import (ATOL, RTOL, PhaseTrajectory, _floor_event,
                         _interpolant, _p_floor, _underflow_status,
                         stable_manifold, unstable_manifold)

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

    `n_scanned` grid points were signed by the lock-step scan in
    `scan_passes` vector passes; `scan_fallbacks` of them were handed off
    to the scalar phi instead (all of them when the scan's brackets did
    not hold).  `shots` counts the distinct junctions u1 whose phi was
    shot (hand-offs, bracket ends, bisection) plus the final sampled shot.
    """

    u1_root: float
    phi_at_root: float
    roots: list[float]
    scan_lo: float
    scan_hi: float
    n_scanned: int
    shots: int = 0
    scan_passes: int = 0
    scan_fallbacks: int = 0
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
    """(P, beta) right-hand side built from the spec's array callables.

    Takes floats or equal-shape arrays of (u, P, beta); per element it does
    the operations of a fused ``pmp_rhs`` in the same order, so the two
    agree to the bit.  `shoot_from` (on floats) and the lock-step scan (on
    arrays of shots) use it for specs without a fused ``pmp_rhs``.  RK
    trial stages may probe just outside the admissible strip
    0 <= beta < beta_max (the events cut the real path there); the cost
    partials are evaluated at the clamped control.  A non-positive
    L_betabeta raises ConvexityViolationError, or SingularityError when the
    state (P, beta) itself is not finite, naming the first such element.
    """
    def rhs(u, P, b, c):
        fv = np.asarray(spec.f(u), dtype=float)
        bhat = np.asarray(spec.beta_max(u), dtype=float)
        b_pos = np.maximum(b, 0.0)
        b_adm = np.where(np.isfinite(bhat),
                         np.minimum(b_pos, (1.0 - 1e-12) * bhat), b_pos)
        Lbb = np.asarray(spec.L_betabeta(u, b_adm), dtype=float)
        bad = ~(Lbb > 0.0) | ~np.isfinite(Lbb)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            _refuse_rhs(*(np.broadcast_to(x, bad.shape).flat[i]
                          for x in (u, P, b, b_adm, Lbb)))
        Lb = np.asarray(spec.L_beta(u, b_adm), dtype=float)
        Lv = np.asarray(spec.L(u, b_adm), dtype=float)
        Lub = np.asarray(spec.L_ubeta(u, b_adm), dtype=float)
        # P**2 through libm pow, as float.__pow__ in a fused form; numpy's
        # array power squares by multiplication, which can round differently
        P2 = np.float_power(P, 2)
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


def _scan_signs(spec: ModelSpec, c: float, grid: np.ndarray, p_flat, p_sharp,
                phi, rtol: float, atol: float) -> tuple[np.ndarray, int]:
    """Signs of phi on the scan grid from one lock-step DOP853 integration.

    Every grid shot is a column of one `_dop853.LockStep` over
    (P, beta), with the right-hand side `shoot_from` takes (the spec's
    fused ``pmp_rhs``, else `_generic_rhs`) on arrays.  After each pass
    scipy's active-event rule decides the shots that moved: meeting P_sharp
    (upward) gives +1; beta = 0 or the P floor (downward) gives the sign of
    P - P_sharp, which is phi's there; reaching u = 1 (beta > 0) gives +1.
    A shot with two events in one step, whose gap to P_sharp changes sign
    over its terminal step, or whose step falls below min_step is handed
    off to the scalar `phi(u1)`.

    Returns (signs, passes): a sign per grid point (NaN where a handed-off
    phi is not finite) and the vector passes.
    """
    rhs = spec.pmp_rhs or _generic_rhs(spec)
    u = np.array(grid, dtype=float)
    p0 = np.asarray(p_flat(u), dtype=float)
    if not np.all(p0 > 0.0):
        i = int(np.flatnonzero(~(p0 > 0.0))[0])
        raise InvalidParameterError(
            f"P_flat({u[i]:g}) = {p0[i]:g} is not positive")
    signs = np.full(len(u), np.nan)
    handed: list[int] = []
    passes = 0
    p_floor = _p_floor(p0)
    gap = p0 - np.asarray(p_sharp(u), dtype=float)
    st = LockStep(lambda u, y: np.array(rhs(u, y[0], y[1], c)), u,
                  np.vstack((p0, np.full_like(p0, BETA_START))), 1.0,
                  rtol, atol)
    with np.errstate(all="ignore"):
        while len(st.ids):
            passes += 1
            accept, stalled = st.step()
            todo, y, y_old = st.ids, st.y, st.y_old
            gap_old, gap_new = gap[todo], gap[todo]
            if accept.any():
                gap_new[accept] = y[0, accept] - np.asarray(
                    p_sharp(st.u[accept]), dtype=float)
            meet = accept & (gap_old <= 0.0) & (gap_new >= 0.0)
            b_zero = accept & (y_old[1] >= 0.0) & (y[1] <= 0.0)
            floor = accept & (y_old[0] >= p_floor[todo]) \
                & (y[0] <= p_floor[todo])
            events = meet.astype(int) + b_zero + floor
            stopped = (events == 1) & ~meet
            sign = np.where(stopped, np.sign(gap_new), 1.0)
            to_scalar = (events > 1) | (stopped & (np.sign(gap_old) != sign)) \
                | stalled
            done = ((events == 1) | (accept & (st.u >= 1.0))) & ~to_scalar
            signs[todo[done]] = sign[done]
            handed.extend(todo[to_scalar].tolist())
            gap[todo] = gap_new
            st.keep(~(done | to_scalar))

    for i in sorted(handed):
        signs[i] = np.sign(phi(float(grid[i])))
    return signs, passes


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
    """Minimum-effort profile at speed c > c* by scan plus bisection on phi.

    `_speed_regime` refuses c < c*; within its guard of c* the zero control
    is optimal and the natural heteroclinic is returned with zero cost.
    phi(u1) is shot at most once per u1, into one table: the lock-step
    scan's hand-offs, the bracket ends (or, when a bracket does not hold,
    the whole grid) and the bisection steps.  Each bracket's root is its
    tabled u1 with the smallest |phi|; if phi has several roots, the
    smallest is assembled with one more shot, sampled densely, and all are
    reported in the diagnostics.
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

    signs, passes = _scan_signs(spec, c, grid, p_flat, p_sharp, phi,
                                rtol, atol)
    fallbacks = len(table)
    # the scan only signs the grid: each bracket's ends are shot, so the
    # bisection starts from scalar phi values
    u1s = grid.tolist()
    brackets = [(u1s[i], u1s[j]) for i, j in flips(signs, 0.0)]
    if not brackets or not all(flips([phi(lo), phi(hi)], 0.0)
                               for lo, hi in brackets):
        # no bracket, or one that did not hold: the scalar phi list decides
        fallbacks = len(grid)
        phis = [phi(x) for x in u1s]
        brackets = [(u1s[i], u1s[j]) for i, j in flips(phis, 0.0)]
        if not brackets:
            raise NoSolutionError(
                f"no sign change of phi on [{scan_lo:.4f}, {scan_hi:.4f}] "
                f"at c={c:g}", phi_table=np.column_stack([grid, phis]))

    roots = []
    for lo, hi in brackets:
        flo = phi(lo)
        bisect(lambda u1: -flo * phi(u1), lo, hi, U1_TOL)
        roots.append(min((x for x in table if lo <= x <= hi
                          and np.isfinite(table[x])),
                         key=lambda x: abs(table[x])))

    u1_root = roots[0]
    shot = shoot_from(spec, c, u1_root, p_flat, p_sharp, rtol=rtol, atol=atol,
                      want_nodes=True)
    u2, arc = shot.u_end, shot.arc
    traj = merge_pieces((_slice_to(flat, u1_root, p_flat), arc,
                         _slice_from(sharp, u2, p_sharp)), c)

    cost, cost_error = _cost_and_error(spec, arc)
    diag = ShootingDiagnostics(u1_root, table[u1_root], roots, scan_lo,
                               scan_hi, len(grid), len(table) + 1, passes,
                               fallbacks, cost_error)
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
