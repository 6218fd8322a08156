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

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._columns import write_columns
from ._dop853 import solve_ivp
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


def _edge_slope(h0, h1, m0, m1):
    """PCHIP's slope at an end node: the one-sided three-point estimate,
    zero where its sign is not the first interval's, and at most three
    times that interval's slope where the data turn (scipy's
    PchipInterpolator._edge_case)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The coefficient rows (c3, c2, c1, c0) of the PCHIP (Fritsch &
    Carlson, SIAM J. Numer. Anal. 17(2), 1980) through the finite y on the
    strictly increasing x, shape (4, len(x) - 1), equal to the bit to
    scipy's PchipInterpolator(x, y).c: the same operations as its
    _find_derivatives and CubicHermiteSpline.  An interior slope is the
    weighted harmonic mean of its two intervals' slopes, or zero where they
    differ in sign or one is zero; two nodes give the line."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if len(x) == 2:
        d[:] = m[0]
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        # a zero slope divides by zero (its node is flat, slope 0) and a
        # subnormal one overflows to slope 1/inf = 0, as in scipy, silently
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inverse = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        d[1:-1] = np.where(flat, 0.0, inverse)
        d[0] = _edge_slope(h[0], h[1], m[0], m[1])
        d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _pchip_at(x: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The piecewise cubic of breakpoints x and coefficient rows c on the
    array u inside [x[0], x[-1]], as scipy's PPoly reads it: the piece
    with x[i] <= u < x[i+1] (the last one at u = x[-1]) and its cubic in
    s = u - x[i], summed from the constant term up."""
    uu = np.asarray(u, dtype=float)
    flat = uu.ravel()
    i = np.minimum(np.searchsorted(x, flat, side="right"), len(x) - 1) - 1
    s = flat - x[i]
    z = s * s
    p = (((0.0 + c[3, i]) + c[2, i] * s) + c[1, i] * z) + c[0, i] * (z * s)
    return p.reshape(uu.shape)


def _interpolant(u_nodes, values, kind: str) -> Callable:
    """The one interpolant of sampled curves: the `_pchip` through `values`
    on the increasing `u_nodes`.  It raises InvalidParameterError, naming
    the `kind` of curve, on nodes or values that are not finite, on fewer
    than two nodes or nodes that are not strictly increasing (a run that
    took no step), and on a U that is NaN or outside [u_nodes[0],
    u_nodes[-1]], where the curve is unknown, instead of extrapolating.

    It gives scipy's PchipInterpolator's bits.  A float in gives a float
    out: the piece is found by `bisect_right` on a memoryview of the
    breakpoints and its cubic summed as `_pchip_at` sums it (s^k by
    repeated multiplication, terms added from the constant term up), on
    memoryviews of the coefficient rows, without copies.  Arrays go
    through `_pchip_at`."""
    x = np.ascontiguousarray(u_nodes, dtype=float)
    y = np.asarray(values, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameterError(
            f"the {kind} nodes or values are not finite")
    if not (len(x) > 1 and np.all(np.diff(x) > 0.0)):
        raise InvalidParameterError(
            f"the {kind} nodes are not strictly increasing (or fewer than "
            f"two)")
    c = _pchip(x, y)
    lo, hi = float(x[0]), float(x[-1])
    xs, (c3, c2, c1, c0) = memoryview(x), map(memoryview, c)
    last = len(x) - 1

    def refuse(u):
        raise InvalidParameterError(
            f"U={u:.6g} is not in the {kind} span [{lo:.6g}, {hi:.6g}]")

    def at(u):
        if isinstance(u, float):
            if not lo <= u <= hi:
                refuse(u)
            i = min(bisect_right(xs, u), last) - 1
            s = u - xs[i]
            z = s * s
            return (((0.0 + c0[i]) + c1[i] * s) + c2[i] * z) + c3[i] * (z * s)
        uu = np.asarray(u)
        inside = (uu >= lo) & (uu <= hi)
        if not inside.all():
            refuse(float(uu[~inside].flat[0]))
        return _pchip_at(x, c, uu)
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


def _floor_event(p0: float):
    """The event pair of P falling to the floor min(P_FLOOR, p0/4) of a run
    seeded at P = p0."""
    p_floor = float(min(0.25 * p0, P_FLOOR))  # a NaN p0 stays NaN
    return (lambda u, y: y[0] - p_floor), -1


def _underflow_status(sol) -> str:
    """'p_zero' for a failed `_dop853.solve_ivp` run (`ended` None), whose
    step fell below min_step, when its P collapsed.

    Step underflow happens exactly where P collapses onto the U-axis or into
    a saddle corner; any other failure raises SingularityError, with where
    the run stalled.
    """
    u_end = float(sol.t[-1])
    if float(sol.y[0, -1]) <= P_COLLAPSE:
        return "p_zero"
    raise SingularityError(f"integrator failed near U={u_end:.8f}: its step "
                           f"fell below min_step", location=u_end)


def _integrate_chart(spec: ModelSpec, c: float, beta, u0: float, p0: float,
                     u1: float, stop_when=None,
                     rtol: float = RTOL, atol: float = ATOL,
                     dense_output: bool = True):
    """Integrate dP/dU = -c + (beta - f)/P from (u0, p0) toward u1.

    Returns (u, p, terminated_by, u_end) with u increasing; without dense
    output the end state is the only node.  Its events: P reaching the
    floor ('p_zero') and an optional stop_when(u, p) rising through zero
    ('event').  The control beta is evaluated at the step's float u.
    rtol and atol must be finite and positive.
    """
    _check_positive("rtol", rtol)
    _check_positive("atol", atol)
    c = float(c)  # plain float: np.float64 arithmetic is slower

    def rhs(u, y):
        b = 0.0 if beta is None else float(beta(u))
        return [-c + (b - float(spec.f(u))) / y[0]]

    events = [_floor_event(p0)]
    if stop_when is not None:
        events.append((lambda u, y: stop_when(u, y[0]), 1))

    sol = solve_ivp(rhs, (u0, u1), [p0], rtol=rtol, atol=atol,
                    dense_output=dense_output, events=events)

    u_end = float(sol.t[-1])
    terminated_by = _underflow_status(sol) if sol.ended is None else (
        ("p_zero", "event")[:len(events)] + ("u_stop",))[sol.ended]
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
    """Branch P_sharp entering (1,0), integrated in decreasing U from its
    seed at 1 - EPS_SEED to u_stop, which must lie in [0, 1 - EPS_SEED)."""
    if not (0.0 <= u_stop < 1.0 - EPS_SEED):
        raise InvalidParameterError(
            f"u_stop must lie in [0, 1 - EPS_SEED), got {u_stop}")
    u0, p0 = _saddle_seed(spec, c, 1.0)
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
                 u_to: float, stop_when=None) -> PhaseTrajectory:
    """General chart integration from (u_from, p_from) toward u_to.

    beta(U) is None or maps an array of U to an array of its shape, like
    alpha(x); a two-point probe at u_from rejects any other control before
    integrating, and `beta_values` is one call on the returned nodes.
    `stop_when(u, p)` is an optional event that ends the run at its first
    upward root, located on the step's interpolant; to stop where a
    condition falls through zero, pass it negated.  c must be finite,
    u_from and u_to distinct points of the model's domain [0, 1], and
    p_from finite and positive.
    """
    if not (np.isfinite(c) and 0.0 <= u_from <= 1.0 and 0.0 <= u_to <= 1.0
            and u_from != u_to):
        raise InvalidParameterError(f"c must be finite and u_from != u_to in "
                                    f"[0, 1], got {c}, {u_from}, {u_to}")
    _check_positive("p_from", p_from)
    _sample_control(beta, np.full(2, float(u_from)))
    u, p, terminated_by, u_end = _integrate_chart(
        spec, c, beta, u_from, p_from, u_to, stop_when=stop_when)
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
