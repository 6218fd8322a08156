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
where the substitute's P_sharp at c' meets the U-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._dop853 import solve_ivp
from ._roots import sign_changes
from .errors import (ConstructionFailureError, InvalidParameterError,
                     SingularCostError)
from .model import ModelSpec
from .phaseplane import (PhaseTrajectory, _saddle_seed, integrate_pu,
                         stable_manifold, unstable_manifold)
from .speed import _speed, make_substitute_spec, natural_speed

__all__ = ["ConcatProfile", "finite_cost_control", "cost_of",
           "default_substitute"]

SPEED_GUARD = 1e-9
# tolerances of the x-runs for a0 and P_c': at the chart's 1e-10 / 1e-12
# a last-bit change of a0 could move the constructed cost by 1.9e-7 relative
AUX_RTOL, AUX_ATOL = 1e-11, 1e-13


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


def _planar_rhs(sub_spec: ModelSpec, c_prime: float):
    """U' = P, P' = -c' P - f_hat(U): regular where the chart is singular."""
    c_prime = float(c_prime)  # plain float: np.float64 arithmetic is slower

    def rhs(x, y):
        return [y[1], -c_prime * y[1] - float(sub_spec.f(y[0]))]
    return rhs


def _pcprime_orbit(sub_spec: ModelSpec, c_prime: float, a: float):
    """(reached_one, dense solution) of the x-run of `_planar_rhs` from
    (a, 0), ended by the first of two events: U rises to 1 or P falls to 0.
    """
    sol = solve_ivp(_planar_rhs(sub_spec, c_prime), (0.0, 1000.0), [a, 0.0],
                    rtol=AUX_RTOL, atol=AUX_ATOL, dense_output=True,
                    events=((lambda x, y: y[0] - 1.0, 1),
                            (lambda x, y: y[1], -1)))
    return sol.ended == 0, sol


def _aux_left_end(sub_spec: ModelSpec, c_prime: float) -> float:
    """a0: where the substitute's P_sharp at c' ends on the U-axis.

    P_sharp runs backward in x from its seed at the saddle (1, 0), in two
    legs: to U = u_hat*, where the default substitute's slope drops from
    f' to 0.05 f', then on to P = 0, so that no step straddles the kink.
    P falls to the axis only where f_hat <= 0, so a0 <= u_hat*.  Where
    (u_hat*, 0) is a node (c' <= -2 sqrt(f_hat')) the branch may tend to
    it, and the first leg reaches x = -1000 short of u_hat*: a0 = u_hat*.
    Above the substitute's speed P_sharp reaches U = 0 first and there is
    no a0: ConstructionFailureError, as for a run that ends any other way.
    """
    rhs, u_hat = _planar_rhs(sub_spec, c_prime), sub_spec.u_star
    leg = solve_ivp(rhs, (0.0, -1000.0), _saddle_seed(sub_spec, c_prime, 1.0),
                    rtol=AUX_RTOL, atol=AUX_ATOL,
                    events=((lambda x, y: y[0] - u_hat, -1),))
    node = c_prime < 0.0 and c_prime**2 >= 4.0 * float(sub_spec.df(u_hat))
    if leg.ended == 1 and node:
        return u_hat
    if leg.ended == 0:
        leg = solve_ivp(rhs, (float(leg.t[-1]), -1000.0), leg.y[:, -1],
                        rtol=AUX_RTOL, atol=AUX_ATOL,
                        events=((lambda x, y: y[1], -1),
                                (lambda x, y: y[0], -1)))
        if leg.ended == 0:
            return min(float(leg.y[0, -1]), u_hat)
    raise ConstructionFailureError(f"auxiliary orbit not found: P_sharp at "
                                   f"c'={c_prime:g} never falls to the U-axis")


def _speed_regime(spec: ModelSpec, c: float, c_star: float | None):
    """(c*, trivial) of a controlled profile at speed c.  A control only
    raises dP/dU, so c < c* - SPEED_GUARD raises InvalidParameterError;
    within the guard the zero control is the answer.  c* defaults to
    `natural_speed(spec)`; a non-finite c or c* is refused before that."""
    if not np.isfinite(c):
        raise InvalidParameterError(f"speed must be finite, got c={c}")
    if c_star is None:
        c_star = natural_speed(spec)
    elif not np.isfinite(c_star):
        raise InvalidParameterError(f"c_star must be finite, got {c_star}")
    if c < c_star - SPEED_GUARD:
        raise InvalidParameterError(
            f"speed ordering violated: c={c:g} < c*={c_star:.8g}")
    return c_star, c <= c_star + SPEED_GUARD


def finite_cost_control(spec: ModelSpec, c: float, c_prime: float | None = None,
                        c_star: float | None = None,
                        c_hat: float | None = None) -> ConcatProfile:
    """Finite-cost concatenated profile at speed c in (c*, c_hat).

    The substitute is `default_substitute(spec)`, validated on every call,
    and c_hat defaults to its speed; c' defaults to the midpoint of
    (c, c_hat).  `_speed_regime` refuses c < c*; within its guard the
    trivial zero-cost concatenation is returned.  P_c' starts at (0.75 a0,
    0): a0, the largest a whose orbit from (a, 0) reaches U = 1, is where
    the substitute's P_sharp at c' (the stable manifold of (1, 0) that
    bounds those orbits) meets the U-axis; a c' above the substitute's
    speed has no a0.  A non-finite speed is refused before any solve.
    """
    if not all(np.isfinite(v) for v in (c_prime, c_hat) if v is not None):
        raise InvalidParameterError(
            f"speeds must be finite, got (c', c_hat) = {(c_prime, c_hat)}")
    c_star, trivial = _speed_regime(spec, c, c_star)
    if trivial:
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
    pc = PhaseTrajectory(uu[keep], pp[keep], c_prime, "P_c'").interp_p()

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
                          stop_when=lambda u, p: p - float(psharp(u)))
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


def _ratio(num, den):
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson(y: np.ndarray, x: np.ndarray):
    """scipy's simpson(y, x=x) for 1-D data, equal to the bit: Simpson's
    parabola on each pair of intervals of the irregular nodes x; an even
    node count closes on its last interval with Cartwright's correction
    (J. Math. Sci. Math. Educ. 12(2), 2017), and two nodes are a
    trapezoid."""
    n = len(y)
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    h = np.diff(x)
    stop = n - 2 if n % 2 else n - 3  # the pairs end at node stop + 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, h0h1 = h0 + h1, _ratio(h0, h1)
    total = np.sum(hsum / 6.0 * (
        y[0:stop:2] * (2.0 - _ratio(1.0, h0h1))
        + y[1:stop + 1:2] * (hsum * _ratio(hsum, h0 * h1))
        + y[2:stop + 2:2] * (2.0 - h0h1)))
    if n % 2:
        return total
    h0, h1 = h[-2, ...], h[-1, ...]
    alpha = _ratio(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _ratio(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
    eta = _ratio(1 * h1 ** 3, 6 * h0 * (h0 + h1))
    return total + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0


def cost_of(spec: ModelSpec, traj: PhaseTrajectory) -> float:
    """Effort integral J = int L(U, beta(U)) / P(U) dU along a trajectory.

    Composite Simpson (`_simpson`) on the trajectory nodes, which the
    chart integrator samples from its dense output.  Control at or beyond
    the cost barrier makes J infinite (reported as +inf); positive control
    where P ~ 0 raises SingularCostError.
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
    return float(_simpson(g, u))


def _cost_and_error(spec: ModelSpec, traj: PhaseTrajectory):
    """`cost_of(spec, traj)` and its halving error estimate: the distance
    to `cost_of` on every other node, the last node kept."""
    keep = np.zeros(len(traj.u_nodes), dtype=bool)
    keep[::2] = keep[-1] = True
    half = PhaseTrajectory(traj.u_nodes[keep], traj.p_values[keep], traj.c,
                           traj.kind, beta_values=traj.beta_values[keep])
    cost = cost_of(spec, traj)
    return cost, abs(cost - cost_of(spec, half))
