"""Phase-plane integration for traveling-wave profiles.

A monotone front U(x) with speed c solves U'' + c U' + f(U) - beta = 0;
writing P = U' > 0 and using U as the independent variable gives the chart
equation

    dP/dU = -c + (beta(U) - f(U)) / P.

Both equilibria (0,0) and (1,0) are saddles of the underlying planar system
whenever f'(0), f'(1) < 0, with eigenvalues

    lambda_pm = ( -c +- sqrt(c^2 - 4 f'(u_eq)) ) / 2.

`unstable_manifold` follows the branch leaving (0,0) along the unstable
eigendirection (P_flat), `stable_manifold` the branch entering (1,0)
(P_sharp).  The 1/P singularity at the equilibria is handled by seeding a
small distance eps_seed along the eigenvector, where the linearization is
exact; trajectories are sampled densely from the integrator's dense output
so they feed quadrature and interpolation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from ._columns import write_columns
from .errors import InvalidParameterError, NotASaddleError, SingularityError
from .model import ModelSpec, _check_positive

__all__ = [
    "PhaseTrajectory",
    "saddle_eigenvalues",
    "unstable_manifold",
    "stable_manifold",
    "integrate_pu",
    "slope_bound",
]

EPS_SEED = 1e-8
P_FLOOR = 1e-11
P_COLLAPSE = 1e-5  # a step underflow at P <= P_COLLAPSE is a collapse
RTOL = 1e-10
ATOL = 1e-12


@dataclass
class PhaseTrajectory:
    """Sampled curve U -> P(U) with control (zero when not given) and
    optional adjoint samples.

    terminated_by is one of 'u_stop', 'p_zero', 'event'; for early
    termination `termination_u` records where the run ended.
    """

    u_nodes: np.ndarray
    p_values: np.ndarray
    c: float
    kind: str
    beta_values: np.ndarray | None = None
    y_values: np.ndarray | None = None
    terminated_by: str = "u_stop"
    termination_u: float | None = None
    seed_offset: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.beta_values is None:
            self.beta_values = np.zeros_like(self.u_nodes)

    def interp_p(self) -> Callable:
        """P(U) by `_interpolant`, which raises InvalidParameterError
        outside [u_nodes[0], u_nodes[-1]] (P_flat, for one, ends on the
        U-axis)."""
        return _interpolant(self.u_nodes, self.p_values, self.kind)

    def to_csv(self, path) -> None:
        write_columns(path, {"u": self.u_nodes, "p": self.p_values,
                             "beta": self.beta_values})


def _interpolant(u_nodes, values, kind: str) -> Callable:
    """The one interpolant of sampled curves: the PCHIP (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17(2), 1980) through `values` on the increasing
    `u_nodes`.  It raises InvalidParameterError, naming the `kind` of
    curve, outside [u_nodes[0], u_nodes[-1]], where the curve is unknown,
    instead of extrapolating."""
    pchip = PchipInterpolator(u_nodes, values)
    lo, hi = float(u_nodes[0]), float(u_nodes[-1])

    def at(u):
        uu = np.asarray(u)
        outside = (uu < lo) | (uu > hi)
        if outside.any():
            raise InvalidParameterError(
                f"U={float(uu[outside].flat[0]):.6g} requested outside "
                f"the {kind} span [{lo:.6g}, {hi:.6g}]")
        return pchip(u)
    return at


def saddle_eigenvalues(spec: ModelSpec, c: float, u_eq: float) -> tuple[float, float]:
    """(lambda_plus, lambda_minus) of the planar linearization at (u_eq, 0);
    a speed c that is not finite raises InvalidParameterError."""
    if not np.isfinite(c):
        raise InvalidParameterError(f"speed must be finite, got c={c}")
    dfe = float(spec.df(u_eq))
    if not dfe < 0.0:
        raise NotASaddleError(
            f"(u,P)=({u_eq:g},0) is not a saddle: df({u_eq:g})={dfe:g} >= 0")
    disc = np.sqrt(c * c - 4.0 * dfe)
    return (-c + disc) / 2.0, (-c - disc) / 2.0


def _call_on_array(fn, x: np.ndarray, error: type, what: str) -> np.ndarray:
    """fn(x) in one call, as floats of x's shape.  A TypeError or ValueError
    from fn, or a result of another shape (a number, a scalar-only
    callable), raises `error` with the text `what`; any other exception
    from fn propagates."""
    try:
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape != x.shape:
            raise ValueError(f"got shape {vals.shape} for {x.shape}")
    except (TypeError, ValueError) as exc:
        raise error(f"{what}: {exc}") from exc
    return vals


def _sample_control(control, x: np.ndarray) -> np.ndarray:
    """A control, beta(U) or alpha(x), sampled on the array x in one call:
    None gives zeros, and a control that does not map x to an array of its
    shape raises InvalidParameterError."""
    if control is None:
        return np.zeros_like(x)
    return _call_on_array(control, x, InvalidParameterError,
                          "a control must map an array of x or U to an "
                          "array of its shape")


def _saddle_seed(spec: ModelSpec, c: float, u_eq: float,
                 eps_seed: float = EPS_SEED) -> tuple[float, float]:
    """Seed (u0, p0) of P_flat (u_eq = 0) or P_sharp (u_eq = 1)."""
    lam_p, lam_m = saddle_eigenvalues(spec, c, u_eq)
    if u_eq == 0.0:
        return eps_seed, lam_p * eps_seed
    return 1.0 - eps_seed, -lam_m * eps_seed


def _p_floor(p0):
    """The P floor min(P_FLOOR, p0/4) of a run seeded at P = p0 (float or
    array, elementwise)."""
    return np.minimum(P_FLOOR, 0.25 * p0)


def _floor_event(p0: float):
    """Terminal solve_ivp event: P falls to `_p_floor(p0)`."""
    p_floor = _p_floor(p0)

    def ev_floor(u, y):
        return y[0] - p_floor
    ev_floor.terminal = True
    ev_floor.direction = -1
    return ev_floor


def _underflow_status(sol) -> str:
    """'p_zero' for a failed (status -1) solve_ivp run whose P collapsed.

    Step underflow happens exactly where P collapses onto the U-axis or into
    a saddle corner; any other failure raises SingularityError.
    """
    u_end = float(sol.t[-1])
    if float(sol.y[0, -1]) <= P_COLLAPSE:
        return "p_zero"
    raise SingularityError(f"integrator failed near U={u_end:.8f}: "
                           f"{sol.message}", location=u_end)


def _integrate_chart(spec: ModelSpec, c: float, beta, u0: float, p0: float,
                     u1: float, stop_when=None, direction: int = 0,
                     rtol: float = RTOL, atol: float = ATOL,
                     dense_output: bool = True):
    """Integrate dP/dU = -c + (beta - f)/P from (u0, p0) toward u1.

    Returns (u, p, terminated_by, u_end) with u increasing; without dense
    output the end state is the only node.  Terminal events: P reaching
    P_FLOOR ('p_zero') and an optional user event g(u, p) ('event').  The
    control beta is evaluated at the step's float u.  rtol and atol must be
    finite and positive.
    """
    _check_positive("rtol", rtol)
    _check_positive("atol", atol)
    def rhs(u, y):
        b = 0.0 if beta is None else float(beta(u))
        return [-c + (b - float(spec.f(u))) / y[0]]

    events = [_floor_event(p0)]
    if stop_when is not None:
        def ev_user(u, y):
            return stop_when(u, y[0])
        ev_user.terminal = True
        ev_user.direction = direction
        events.append(ev_user)

    sol = solve_ivp(rhs, (u0, u1), [p0], method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense_output, events=events)

    u_end = float(sol.t[-1])
    if sol.status == -1:
        terminated_by = _underflow_status(sol)
    elif sol.status == 1:
        terminated_by = "p_zero" if len(sol.t_events[0]) else "event"
    else:
        terminated_by = "u_stop"
    if not dense_output:
        return sol.t[-1:], sol.y[0, -1:], terminated_by, u_end

    span = abs(u_end - u0)
    u = np.linspace(u0, u_end, max(400, int(span * 1600)) + 1)
    if span > 0.0:
        # geometric clusters toward both ends: x(U) ~ ln U / lambda near an
        # equilibrium, so uniform-in-U sampling cannot resolve the tails
        offs = np.geomspace(span * 1e-9, span * 0.25, 160)
        u = np.concatenate((u, u0 + np.sign(u_end - u0) * offs,
                            u_end - np.sign(u_end - u0) * offs))
        # drop a cluster node an ulp from a uniform one (gaps >= 1.3e-10 span)
        u = np.sort(np.clip(u, min(u0, u_end), max(u0, u_end)))
        u = u[np.concatenate(([True], np.diff(u) > 1e-12 * span))]
    p = sol.sol(u)[0]
    return u, p, terminated_by, u_end


def unstable_manifold(spec: ModelSpec, c: float, u_stop: float = 1.0,
                      eps_seed: float = EPS_SEED, rtol: float = RTOL,
                      atol: float = ATOL) -> PhaseTrajectory:
    """Branch P_flat leaving (0,0) along the unstable eigendirection.

    Integrated until U = u_stop or P falls to the floor (early termination,
    flagged, not an error).  The node set starts with the exact corner
    (0,0) followed by the seed point, so the seeded slope can be audited.
    The seed offset eps_seed must be positive and below u_stop.
    """
    if not (0.0 < u_stop <= 1.0):
        raise InvalidParameterError(f"u_stop must lie in (0, 1], got {u_stop}")
    _check_positive("eps_seed", eps_seed)
    if not eps_seed < u_stop:
        raise InvalidParameterError(
            f"eps_seed must lie below u_stop={u_stop}, got {eps_seed}")
    u0, p0 = _saddle_seed(spec, c, 0.0, eps_seed)
    u, p, terminated_by, u_end = _integrate_chart(
        spec, c, None, u0, p0, u_stop, rtol=rtol, atol=atol)

    u = np.concatenate(([0.0], u))
    p = np.concatenate(([0.0], p))
    if terminated_by == "p_zero" and abs(u_end - 1.0) < 1e-5:
        u = np.concatenate((u, [1.0]))
        p = np.concatenate((p, [0.0]))
    return PhaseTrajectory(
        u, p, c, "unstable_manifold", terminated_by=terminated_by,
        termination_u=None if terminated_by == "u_stop" else u_end,
        seed_offset=eps_seed)


def stable_manifold(spec: ModelSpec, c: float, u_stop: float = 0.0,
                    rtol: float = RTOL, atol: float = ATOL) -> PhaseTrajectory:
    """Branch P_sharp entering (1,0), integrated in decreasing U to u_stop."""
    if not (0.0 <= u_stop <= 1.0):
        raise InvalidParameterError(f"u_stop must lie in [0, 1], got {u_stop}")
    u0, p0 = _saddle_seed(spec, c, 1.0)
    if u_stop == 1.0:
        return PhaseTrajectory(np.array([1.0]), np.array([0.0]), c,
                               "stable_manifold", seed_offset=EPS_SEED)
    u, p, terminated_by, u_end = _integrate_chart(
        spec, c, None, u0, p0, u_stop, rtol=rtol, atol=atol)

    u = np.concatenate((u, [1.0]))
    p = np.concatenate((p, [0.0]))
    if terminated_by == "p_zero" and abs(u_end - u_stop) < 1e-5:
        u = np.concatenate(([u_stop], u))
        p = np.concatenate(([0.0], p))
    return PhaseTrajectory(
        u, p, c, "stable_manifold", terminated_by=terminated_by,
        termination_u=None if terminated_by == "u_stop" else u_end,
        seed_offset=EPS_SEED)


def integrate_pu(spec: ModelSpec, c: float, beta, u_from: float, p_from: float,
                 u_to: float, stop_when=None,
                 direction: int = 0) -> PhaseTrajectory:
    """General chart integration from (u_from, p_from) toward u_to.

    beta(U) is None or maps an array of U to an array of its shape, like
    alpha(x); a two-point probe at u_from rejects any other control before
    integrating, and `beta_values` is one call on the returned nodes.
    `stop_when(u, p)` is an optional terminal event function (sign change,
    located by the integrator's dense output); `direction` restricts the
    crossing direction as in scipy events.  c, u_from and u_to must be
    finite, and p_from finite and positive.
    """
    if not np.all(np.isfinite([c, u_from, u_to])):
        raise InvalidParameterError(f"c, u_from and u_to must be finite, got "
                                    f"{c}, {u_from}, {u_to}")
    _check_positive("p_from", p_from)
    _sample_control(beta, np.full(2, float(u_from)))
    u, p, terminated_by, u_end = _integrate_chart(
        spec, c, beta, u_from, p_from, u_to, stop_when=stop_when,
        direction=direction)
    return PhaseTrajectory(
        u, p, c, "controlled", beta_values=_sample_control(beta, u),
        terminated_by=terminated_by,
        termination_u=None if terminated_by == "u_stop" else u_end)


def slope_bound(spec: ModelSpec, c: float) -> float:
    """A-priori bound on max P over any admissible trajectory.

    With M = max f, integrating the slope inequality P' >= -cP - M over a
    unit x-interval gives P <= c/(1-e^-c) + M (1/(1-e^-c) - 1/c) for c != 0
    and P <= 1 + M/2 for c = 0.
    """
    M = spec.max_f()
    if abs(c) < 1e-12:
        return 1.0 + M / 2.0
    q = 1.0 - np.exp(-c)
    return c / q + M * (1.0 / q - 1.0 / c)
