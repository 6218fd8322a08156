"""Constructive controls: bang control and the finite-cost concatenation.

Two explicit recipes produce a traveling profile at a prescribed speed
c > c*:

* `bang_control` applies a constant removal rate gamma on (u0, u*).  The
  backward orbit of dP/dU = -c + (gamma - f)/P from (u*, P_sharp(u*)) is
  pushed below the unstable branch by raising gamma; the smallest gamma
  that makes the orbit meet P_flat is located by doubling plus bisection.
  For costs with a finiteness barrier this control is typically infinitely
  expensive: its value is existence, not efficiency.

* `finite_cost_control` builds a concatenation P_flat | P_tilde | P_sharp
  whose middle piece rides above the auxiliary orbit P_c' of a substitute
  equation at an intermediate speed c', using the trimmed control

      beta_tilde(U) = max(beta_max(U) - (c' - c) P_c'(U), 0).

  The trim keeps beta_tilde a uniform distance below the cost barrier, so
  the effort integral of the middle piece is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from ._roots import bisect
from .errors import (CapExceededError, ConstructionFailureError,
                     InvalidParameterError, NoControlNeeded, SingularCostError)
from .model import ModelSpec
from .phaseplane import (PhaseTrajectory, integrate_pu, stable_manifold,
                         unstable_manifold)
from .speed import _speed, make_substitute_spec, natural_speed

__all__ = ["ConcatProfile", "bang_control", "finite_cost_control", "cost_of",
           "default_substitute"]

SPEED_GUARD = 1e-9


@dataclass
class ConcatProfile:
    """Concatenated trajectory P_flat | P_tilde | P_sharp with its control."""

    pieces: tuple[PhaseTrajectory, PhaseTrajectory, PhaseTrajectory]
    u1: float
    u2_tilde: float
    beta_tilde: Callable[[float], float]
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
        col = (u, piece.p_values,
               piece.beta_values if piece.beta_values is not None
               else np.zeros_like(u),
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
    return PhaseTrajectory(u, p, traj.c, traj.kind,
                           beta_values=np.zeros_like(u))


def _slice_from(traj: PhaseTrajectory, u_lo: float, p_at) -> PhaseTrajectory:
    keep = traj.u_nodes > u_lo + 1e-14
    u = np.concatenate(([u_lo], traj.u_nodes[keep]))
    p = np.concatenate(([float(p_at(u_lo))], traj.p_values[keep]))
    return PhaseTrajectory(u, p, traj.c, traj.kind,
                           beta_values=np.zeros_like(u))


def natural_heteroclinic(spec: ModelSpec, c_star: float) -> PhaseTrajectory:
    """Uncontrolled heteroclinic at the natural speed (P_flat glued to P_sharp)."""
    flat = unstable_manifold(spec, c_star, u_stop=spec.u_star)
    sharp = stable_manifold(spec, c_star, u_stop=spec.u_star)
    return merge_pieces((flat, sharp), c_star)


def bang_control(spec: ModelSpec, c: float, c_star: float | None = None,
                 max_doublings: int = 60) -> tuple[float, float, PhaseTrajectory]:
    """Constant control gamma on (u0, u*) realizing speed c > c*.

    Returns (gamma, u0, trajectory), gamma to within 1e-8.  At c = c*
    (within guard) the zero
    control with the natural heteroclinic is returned; below, raising the
    speed is unnecessary and NoControlNeeded is raised.
    """
    if c_star is None:
        c_star = natural_speed(spec)
    if c < c_star - SPEED_GUARD:
        raise NoControlNeeded(
            f"c={c:g} is below the natural speed c*={c_star:.8g}")
    if c <= c_star + SPEED_GUARD:
        return 0.0, spec.u_star, natural_heteroclinic(spec, c_star)

    us = spec.u_star
    flat = unstable_manifold(spec, c, u_stop=us)
    sharp = stable_manifold(spec, c, u_stop=us)
    pflat = flat.interp_p()
    p_top = float(sharp.p_values[0])  # P_sharp(u*)

    # The infimum gamma lands the crossing exactly on the (0,0) corner, so
    # the search targets the smallest gamma whose crossing sits at a
    # well-conditioned abscissa u0 >= u0_floor.
    u0_floor = min(1e-3, 0.01 * us)

    arc = None

    def crossed(gamma: float) -> bool:
        """Whether the backward orbit meets P_flat; keeps the last that does."""
        nonlocal arc
        traj = integrate_pu(spec, c, gamma, u_from=us, p_from=p_top,
                            u_to=u0_floor,
                            stop_when=lambda u, p: p - float(pflat(u)),
                            direction=-1)
        if traj.terminated_by == "event":
            arc = traj
        return traj.terminated_by == "event"

    gamma = spec.max_f()
    lo = 0.0
    doublings = 0
    while not crossed(gamma):
        if doublings >= max_doublings:
            raise CapExceededError(
                f"no crossing of P_flat after {max_doublings} doublings "
                f"(gamma={gamma:g})")
        lo = gamma
        gamma *= 2.0
        doublings += 1

    _, gamma = bisect(lambda g: 1.0 if crossed(g) else -1.0, lo, gamma, 1e-8)
    u0 = float(arc.u_nodes[0])

    flat_piece = _slice_to(flat, u0, pflat)
    arc.beta_values = np.where(
        (arc.u_nodes > u0 + 1e-14) & (arc.u_nodes < us - 1e-14), gamma, 0.0)
    merged = merge_pieces((flat_piece, arc, sharp), c)
    merged.meta["gamma"] = gamma
    merged.meta["u0"] = u0
    return gamma, u0, merged


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


def _pcprime_orbit(sub_spec: ModelSpec, c_prime: float, a: float,
                   x_max: float = 1000.0, dense_output: bool = False):
    """x-parameterized orbit of U'=P, P'=-c' P - f_hat(U) from (a, 0).

    Returns (reached_one, solution); ``solution.sol`` exists only with
    ``dense_output``.  Near the axis the chart equation is singular but
    the planar system is regular, so integration runs in x.
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

    sol = solve_ivp(rhs, (0.0, x_max), [a, 0.0], method="DOP853",
                    rtol=1e-10, atol=1e-12, dense_output=dense_output,
                    events=[ev_hit_one, ev_fall])
    reached = sol.status == 1 and len(sol.t_events[0]) > 0
    return reached, sol


def finite_cost_control(spec: ModelSpec, c: float, c_prime: float | None = None,
                        c_star: float | None = None,
                        c_hat: float | None = None) -> ConcatProfile:
    """Finite-cost concatenated profile at speed c in (c*, c_hat).

    The substitute is `default_substitute(spec)`, validated on every call,
    and c_hat defaults to its speed; c' defaults to the midpoint of
    (c, c_hat).  At c = c* (within guard) the trivial zero-cost
    concatenation is returned.
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
                                   c_star, "controlled",
                                   beta_values=np.array([0.0])), sharp),
            spec.u_star, spec.u_star, lambda u: 0.0, 0.0, c, c_star, 0.0,
            meta={"trivial": True})

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

    # left endpoint of the auxiliary orbit: bisect on 'reaches U=1 with P>0'
    def side(a):
        return -1.0 if _pcprime_orbit(sub_spec, c_prime, a)[0] else 1.0

    u_hat_star = sub_spec.u_star
    lo = min(1e-3, 0.05 * u_hat_star)
    if side(lo) > 0.0:
        raise ConstructionFailureError(
            f"auxiliary orbit not found: even a={lo:g} fails to reach U=1")
    hi = 0.999 * u_hat_star
    a0 = hi if side(hi) < 0.0 else bisect(side, lo, hi, 1e-10)[0]
    a_use = 0.75 * a0
    ok, sol = _pcprime_orbit(sub_spec, c_prime, a_use, dense_output=True)
    if not ok:
        raise ConstructionFailureError(f"auxiliary orbit from a={a_use:g} failed")

    xs = np.linspace(0.0, float(sol.t[-1]), 4000)
    uu, pp = sol.sol(xs)
    keep = np.concatenate(([True], np.diff(uu) > 1e-13))
    uu, pp = uu[keep], pp[keep]
    pc = PchipInterpolator(uu, pp, extrapolate=True)

    # junction u1: first upward crossing of P_c' through P_flat
    scan_lo = max(a_use + 1e-9, float(flat.u_nodes[0]) + 1e-9)
    scan_hi = u_bar - 1e-9
    grid = np.linspace(scan_lo, scan_hi, 800)
    gvals = pc(grid) - pflat(grid)
    idx = np.nonzero((gvals[:-1] < 0.0) & (gvals[1:] >= 0.0))[0]
    if len(idx) == 0:
        raise ConstructionFailureError("P_c' does not cross P_flat")
    i = idx[0]
    u1 = float(brentq(lambda u: float(pc(u) - pflat(u)), grid[i], grid[i + 1],
                      xtol=1e-14))

    def beta_tilde(u):
        return max(float(spec.beta_max(u)) - (c_prime - c) * float(pc(u)), 0.0)

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
    middle_cost = cost_of(spec, middle)

    bt = middle.beta_values
    active = bt > 1e-14
    bhat_mid = np.asarray(spec.beta_max(middle.u_nodes), dtype=float)
    delta = float(np.min((bhat_mid - bt)[active])) if np.any(active) else 0.0
    comparison_ok = bool(np.all(middle.p_values >= pc(middle.u_nodes) - 1e-7))

    return ConcatProfile((flat_piece, middle, sharp_piece), u1, u2t,
                         beta_tilde, middle_cost, c, c_prime, delta,
                         meta={"c_hat": c_hat, "a0": a0, "a": a_use,
                               "p_above_aux": comparison_ok,
                               "u_bar": u_bar})


def cost_of(spec: ModelSpec, traj: PhaseTrajectory, refine: bool = True) -> float:
    """Effort integral J = int L(U, beta(U)) / P(U) dU along a trajectory.

    Composite Simpson on the trajectory nodes, with one midpoint-refinement
    pass when `refine`.  Control at or beyond the cost barrier makes J
    infinite (reported as +inf); positive control where P ~ 0 raises
    SingularCostError.
    """
    if traj.beta_values is None:
        raise InvalidParameterError("trajectory carries no control samples")
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

    def integrand(uu, pp, bb):
        out = np.zeros_like(uu)
        act = bb > 0.0
        Lv = np.asarray(spec.L(uu[act], bb[act]), dtype=float)
        out[act] = Lv / pp[act]
        return out

    g = integrand(u, p, b)
    J = float(simpson(g, x=u))
    if not refine or len(u) < 3:
        return J
    p_i = PchipInterpolator(u, p)
    b_i = PchipInterpolator(u, np.maximum(b, 0.0))
    um = 0.5 * (u[:-1] + u[1:])
    u2 = np.sort(np.concatenate((u, um)))
    g2 = integrand(u2, np.asarray(p_i(u2)), np.maximum(np.asarray(b_i(u2)), 0.0))
    return float(simpson(g2, x=u2))
