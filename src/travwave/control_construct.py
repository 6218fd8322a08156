"""Constructive controls: the finite-cost concatenation and its effort.

`finite_cost_control` produces a traveling profile at a prescribed speed
c > c* as a concatenation P_flat | P_tilde | P_sharp whose middle piece
rides above the auxiliary orbit P_c' of a substitute equation at an
intermediate speed c', using the trimmed control

    beta_tilde(U) = max(beta_max(U) - (c' - c) P_c'(U), 0).

The trim keeps beta_tilde a uniform distance below the cost barrier, so
the effort integral of the middle piece is finite.  P_c' starts at
(0.75 a0, 0), with a0 the largest a whose orbit from (a, 0) reaches U = 1.
The stable manifold of the saddle (1, 0) bounds those orbits, so a0 is
where the substitute's P_sharp at c' meets the U-axis: one integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import PchipInterpolator

from ._roots import sign_changes
from .errors import (ConstructionFailureError, InvalidParameterError,
                     SingularCostError)
from .model import ModelSpec
from .phaseplane import (PhaseTrajectory, _integrate_chart, _saddle_seed,
                         integrate_pu, stable_manifold, unstable_manifold)
from .speed import _speed, make_substitute_spec, natural_speed

__all__ = ["ConcatProfile", "finite_cost_control", "cost_of",
           "default_substitute"]

SPEED_GUARD = 1e-9
A0_RTOL = 1e-12  # a0 error of the square-root asymptote, see _aux_left_end


@dataclass
class ConcatProfile:
    """Concatenated trajectory P_flat | P_tilde | P_sharp with its control
    `beta_tilde`, which maps an array of U to an array of the same shape
    (the contract of `SpatialProfile.alpha_at`)."""

    pieces: tuple[PhaseTrajectory, PhaseTrajectory, PhaseTrajectory]
    u1: float
    u2_tilde: float
    beta_tilde: Callable[[np.ndarray], np.ndarray]
    cost: float
    c: float
    c_prime: float
    delta_margin: float
    meta: dict = field(default_factory=dict)

    @property
    def trajectory(self) -> PhaseTrajectory:
        return merge_pieces(self.pieces, self.c)


def merge_pieces(pieces, c: float) -> PhaseTrajectory:
    """Join trajectories into one increasing-node trajectory.

    The adjoint samples are NaN on pieces that carry none, and absent when
    no piece carries any.
    """
    cols = []
    for piece in pieces:
        u = piece.u_nodes
        col = (u, piece.p_values, piece.beta_values,
               piece.y_values if piece.y_values is not None
               else np.full_like(u, np.nan))
        if cols and len(u) and abs(u[0] - cols[-1][0][-1]) < 1e-12:
            col = tuple(a[1:] for a in col)
        if len(col[0]):  # a one-node piece at a joint leaves nothing
            cols.append(col)
    u, p, b, y = (np.concatenate(a) for a in zip(*cols))
    has_y = any(piece.y_values is not None for piece in pieces)
    return PhaseTrajectory(u, p, c, "concatenated", beta_values=b,
                           y_values=y if has_y else None)


def _slice_to(traj: PhaseTrajectory, u_hi: float, p_at) -> PhaseTrajectory:
    """Restrict a trajectory to u <= u_hi, ending exactly at (u_hi, p_at(u_hi))."""
    keep = traj.u_nodes < u_hi - 1e-14
    u = np.concatenate((traj.u_nodes[keep], [u_hi]))
    p = np.concatenate((traj.p_values[keep], [float(p_at(u_hi))]))
    return PhaseTrajectory(u, p, traj.c, traj.kind)


def _slice_from(traj: PhaseTrajectory, u_lo: float, p_at) -> PhaseTrajectory:
    keep = traj.u_nodes > u_lo + 1e-14
    u = np.concatenate(([u_lo], traj.u_nodes[keep]))
    p = np.concatenate(([float(p_at(u_lo))], traj.p_values[keep]))
    return PhaseTrajectory(u, p, traj.c, traj.kind)


def natural_heteroclinic(spec: ModelSpec, c_star: float) -> PhaseTrajectory:
    """Uncontrolled heteroclinic at the natural speed (P_flat glued to P_sharp)."""
    flat = unstable_manifold(spec, c_star, u_stop=spec.u_star)
    sharp = stable_manifold(spec, c_star, u_stop=spec.u_star)
    return merge_pieces((flat, sharp), c_star)


def default_substitute(spec: ModelSpec):
    """Trimmed reaction term f - 0.95 min(beta_max, max(f, 0)).

    Equal to f wherever control is useless, scaled down to 0.05 f where the
    barrier exceeds f; stays inside the admissibility sandwich and keeps
    the bistable sign pattern.
    """
    def f_hat(u):
        if isinstance(u, float):
            # plain-float form for the integrators, bit-equal to the array
            # form below: same operations in the same order
            fv = spec.f(u)
            bm = spec.beta_max(u)
            return fv - 0.95 * min(bm if math.isfinite(bm) else math.inf,
                                   max(fv, 0.0))
        fv = np.asarray(spec.f(u), dtype=float)
        bm = np.asarray(spec.beta_max(u), dtype=float)
        return fv - 0.95 * np.minimum(np.where(np.isfinite(bm), bm, np.inf),
                                   np.maximum(fv, 0.0))
    return f_hat


def _pcprime_orbit(sub_spec: ModelSpec, c_prime: float, a: float):
    """x-parameterized orbit of U'=P, P'=-c' P - f_hat(U) from (a, 0).

    Returns (reached_one, dense solution).  Near the axis the chart equation
    is singular but the planar system is regular, so integration runs in x.
    """
    def rhs(x, y):
        return [y[1], -c_prime * y[1] - float(sub_spec.f(y[0]))]

    def ev_hit_one(x, y):
        return y[0] - 1.0
    ev_hit_one.terminal = True
    ev_hit_one.direction = 1

    def ev_fall(x, y):
        return y[1]
    ev_fall.terminal = True
    ev_fall.direction = -1

    sol = solve_ivp(rhs, (0.0, 1000.0), [a, 0.0], method="DOP853",
                    rtol=1e-10, atol=1e-12, dense_output=True,
                    events=[ev_hit_one, ev_fall])
    reached = sol.status == 1 and len(sol.t_events[0]) > 0
    return reached, sol


def _aux_left_end(sub_spec: ModelSpec, c_prime: float) -> float:
    """a0: where the substitute's P_sharp at c' ends on the U-axis.

    P ~ sqrt(U - a0) has an infinite slope there, so the branch stops as
    soon as the square-root asymptote P^2 = 2 |f_hat| (U - a0) of
    P dP/dU = -c' P - f_hat(U) closes the gap to A0_RTOL relative: the
    c' P term it leaves out moves a0 by about |c'| P^3 / (3 f_hat^2).
    Where that never happens (f_hat(a0) = 0, or c' = 0) the branch ends on
    the P floor, at a0 itself.  P falls to the axis only where f_hat <= 0,
    so a0 <= u_hat*.  Where (u_hat*, 0) is a node (c' <= -2 sqrt(f_hat'))
    the branch may tend to it along P ~ mu (U - u_hat*), and a chart step
    can cross u_hat* there and fall to the axis just short of it.  So a
    chart bounded at u_hat* runs first: ending on the P floor, the branch
    tends to the node and a0 = u_hat*.
    """
    def asymptote_excess(u, p):
        # in cube roots: linear in P, so the event's root finder converges
        f_neg = max(-float(sub_spec.f(u)), 0.0)
        return np.cbrt(abs(c_prime)) * p - np.cbrt(3 * A0_RTOL * u * f_neg**2)

    u0, p0 = _saddle_seed(sub_spec, c_prime, 1.0)
    u_hat = sub_spec.u_star
    node = c_prime < 0.0 and c_prime**2 >= 4.0 * float(sub_spec.df(u_hat))
    if node and _integrate_chart(sub_spec, c_prime, None, u0, p0, u_hat,
                                 dense_output=False)[2] == "p_zero":
        return u_hat
    _, p_end, ended, u_end = _integrate_chart(
        sub_spec, c_prime, None, u0, p0, u1=0.0, stop_when=asymptote_excess,
        direction=-1, dense_output=False)
    if ended == "event":
        return u_end + float(p_end[0]) ** 2 / (2.0 * float(sub_spec.f(u_end)))
    if ended != "p_zero":
        raise ConstructionFailureError(f"auxiliary orbit not found: P_sharp "
                                       f"at c'={c_prime:g} ends by {ended}")
    return min(u_end, u_hat)


def finite_cost_control(spec: ModelSpec, c: float, c_prime: float | None = None,
                        c_star: float | None = None,
                        c_hat: float | None = None) -> ConcatProfile:
    """Finite-cost concatenated profile at speed c in (c*, c_hat).

    The substitute is `default_substitute(spec)`, validated on every call,
    and c_hat defaults to its speed; c' defaults to the midpoint of
    (c, c_hat).  At c = c* (within guard) the trivial zero-cost
    concatenation is returned.  P_c' starts at (0.75 a0, 0): a0, the largest
    a whose orbit from (a, 0) reaches U = 1, is where the substitute's
    P_sharp at c' (the stable manifold of (1, 0) that bounds those orbits)
    meets the U-axis; a c' above the substitute's speed has no a0.
    """
    if c_star is None:
        c_star = natural_speed(spec)
    if c < c_star - SPEED_GUARD:
        raise InvalidParameterError(
            f"speed ordering violated: c={c:g} < c*={c_star:.8g}")
    if c <= c_star + SPEED_GUARD:
        flat = unstable_manifold(spec, c_star, u_stop=spec.u_star)
        sharp = stable_manifold(spec, c_star, u_stop=spec.u_star)
        return ConcatProfile(
            (flat, PhaseTrajectory(np.array([spec.u_star]),
                                   np.array([float(sharp.p_values[0])]),
                                   c_star, "controlled"), sharp),
            spec.u_star, spec.u_star, np.zeros_like, 0.0, c, c_star, 0.0,
            meta={"trivial": True, "cost_error": 0.0})

    sub_spec = make_substitute_spec(spec, default_substitute(spec))
    if c_hat is None:
        c_hat = _speed(sub_spec)
    if c_prime is None:
        c_prime = 0.5 * (c + c_hat)
    if not (c_star < c < c_prime < c_hat):
        raise InvalidParameterError(
            f"speed ordering violated: need c* < c < c' < c_hat, got "
            f"c*={c_star:.6g}, c={c:.6g}, c'={c_prime:.6g}, c_hat={c_hat:.6g}")

    flat = unstable_manifold(spec, c, u_stop=1.0)
    sharp = stable_manifold(spec, c, u_stop=0.0)
    pflat, psharp = flat.interp_p(), sharp.interp_p()
    u_bar = float(flat.u_nodes[-1])  # where P_flat ends

    a0 = _aux_left_end(sub_spec, c_prime)
    a_use = 0.75 * a0
    ok, sol = _pcprime_orbit(sub_spec, c_prime, a_use)
    if not ok:
        raise ConstructionFailureError(f"auxiliary orbit from a={a_use:g} failed")

    xs = np.linspace(0.0, float(sol.t[-1]), 4000)
    uu, pp = sol.sol(xs)
    keep = np.concatenate(([True], np.diff(uu) > 1e-13))
    uu, pp = uu[keep], pp[keep]
    pc = PchipInterpolator(uu, pp, extrapolate=True)

    # junction u1: first crossing of P_c' through P_flat, upward because
    # P_c' starts on the U-axis below P_flat
    grid = np.linspace(a_use + 1e-9, u_bar - 1e-9, 800)
    u1 = next(sign_changes(lambda u: pc(u) - pflat(u), grid, 0.0), None)
    if u1 is None:
        raise ConstructionFailureError("P_c' does not cross P_flat")

    def beta_tilde(u):
        return np.maximum(spec.beta_max(u) - (c_prime - c) * pc(u), 0.0)

    middle = integrate_pu(spec, c, beta_tilde, u_from=u1,
                          p_from=float(pflat(u1)), u_to=1.0,
                          stop_when=lambda u, p: p - float(psharp(u)),
                          direction=1)
    if middle.terminated_by != "event":
        raise ConstructionFailureError(
            f"controlled middle piece never met P_sharp "
            f"(terminated by {middle.terminated_by})")
    u2t = float(middle.u_nodes[-1])

    flat_piece = _slice_to(flat, u1, pflat)
    sharp_piece = _slice_from(sharp, u2t, psharp)
    middle_cost, cost_error = _cost_and_error(spec, middle)

    bt = middle.beta_values
    active = bt > 1e-14
    bhat_mid = np.asarray(spec.beta_max(middle.u_nodes), dtype=float)
    delta = float(np.min((bhat_mid - bt)[active])) if np.any(active) else 0.0
    comparison_ok = bool(np.all(middle.p_values >= pc(middle.u_nodes) - 1e-7))

    return ConcatProfile((flat_piece, middle, sharp_piece), u1, u2t,
                         beta_tilde, middle_cost, c, c_prime, delta,
                         meta={"c_hat": c_hat, "a0": a0, "a": a_use,
                               "p_above_aux": comparison_ok,
                               "u_bar": u_bar, "cost_error": cost_error})


def cost_of(spec: ModelSpec, traj: PhaseTrajectory) -> float:
    """Effort integral J = int L(U, beta(U)) / P(U) dU along a trajectory.

    Composite Simpson on the trajectory nodes, which the chart integrator
    samples from its dense output.  Control at or beyond the cost barrier
    makes J infinite (reported as +inf); positive control where P ~ 0
    raises SingularCostError.
    """
    u = np.asarray(traj.u_nodes, dtype=float)
    p = np.asarray(traj.p_values, dtype=float)
    b = np.asarray(traj.beta_values, dtype=float)
    active = b > 0.0
    if not np.any(active):
        return 0.0
    if np.any(active & (p <= 1e-10)):
        i = int(np.argmax(active & (p <= 1e-10)))
        raise SingularCostError(
            f"positive control at U={u[i]:.6f} where P={p[i]:.3g}")
    bmax = np.asarray(spec.beta_max(u), dtype=float)
    if np.any(active & (b >= bmax)):
        return float("inf")
    g = np.zeros_like(u)
    g[active] = np.asarray(spec.L(u[active], b[active]), dtype=float) \
        / p[active]
    return float(simpson(g, x=u))


def _cost_and_error(spec: ModelSpec, traj: PhaseTrajectory):
    """`cost_of(spec, traj)` and its halving error estimate: the distance
    to `cost_of` on every other node, the last node kept."""
    keep = np.zeros(len(traj.u_nodes), dtype=bool)
    keep[::2] = keep[-1] = True
    half = PhaseTrajectory(traj.u_nodes[keep], traj.p_values[keep], traj.c,
                           traj.kind, beta_values=traj.beta_values[keep])
    cost = cost_of(spec, traj)
    return cost, abs(cost - cost_of(spec, half))
