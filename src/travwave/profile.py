"""Spatial profiles: chart inversion and tree infection.

A phase trajectory U -> P(U) is converted to a wave profile by quadrature
of dx = dU / P, anchored so that U(0) = u*.  Beyond the sampled range the
profile is extended by the saddle asymptotics U ~ e^{lambda_plus x} on the
left and 1 - U ~ e^{lambda_minus x} on the right.  The physical control is
recovered as alpha(x) = L(U(x), beta(U(x))).

For the insect/tree model the infected-tree fraction along a wave of speed
c < 0 has the closed form

    Theta(x) = 1 - exp( (kappa1 / c) * int_{-inf}^x U(y) dy ),

which tends to 0 / 1 at -inf / +inf exactly when c < 0 and the left tail
of U is integrable; for c >= 0 no profile exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from ._columns import write_columns
from .errors import (IntegrabilityError, InvalidParameterError,
                     InvalidTrajectoryError, NonexistenceError)
from .model import ModelSpec, _check_positive
from .phaseplane import PhaseTrajectory, _interpolant, saddle_eigenvalues

__all__ = ["SpatialProfile", "reconstruct_x", "theta_model1",
           "alpha_multiplicative"]

TAIL_FACTOR = 10.0
N_PAD, N_EXT = 120, 200  # tail nodes of reconstruct_x and theta_model1
END_TOL = 1e-4  # theta_model1 extends the grid until Theta >= 1 - END_TOL


def _far_field(x, x_nodes, u_nodes, lam_left, lam_right, p_nodes=None):
    """U (and P, given p_nodes) of a wave on x: node values inside the grid,
    the saddle tails U = U_0 e^{lam_left (x - x_0)}, P = lam_left U left of
    it and U = 1 - (1 - U_N) e^{lam_right (x - x_N)}, P = -lam_right (1 - U)
    right of it; a side without a rate holds its end value with P = 0.
    A float x without p_nodes gives a float, equal to the bit, by np.interp
    on the grid and the same np.exp in the tails, skipping the array
    masks.  A NaN x raises InvalidParameterError: U is unknown there."""
    if isinstance(x, float) and p_nodes is None:
        if x != x:
            raise InvalidParameterError(f"x={x} is not a point of the wave")
        x0, xn = float(x_nodes[0]), float(x_nodes[-1])
        if x < x0 and lam_left is not None:
            return u_nodes[0] * float(np.exp(lam_left * (x - x0)))
        if x > xn and lam_right is not None:
            return 1.0 - (1.0 - u_nodes[-1]) \
                * float(np.exp(lam_right * (x - xn)))
        return float(np.interp(x, x_nodes, u_nodes))
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise InvalidParameterError("x holds a NaN, not a point of the wave")
    u = np.interp(x, x_nodes, u_nodes)
    x0, xn = x_nodes[0], x_nodes[-1]
    left, right = x < x0, x > xn
    # each tail's exponent is clamped to <= 0 off its own side (no overflow)
    if lam_left is not None and np.any(left):
        u = np.where(left, u_nodes[0]
                     * np.exp(lam_left * (np.minimum(x, x0) - x0)), u)
    if lam_right is not None and np.any(right):
        u = np.where(right, 1.0 - (1.0 - u_nodes[-1])
                     * np.exp(lam_right * (np.maximum(x, xn) - xn)), u)
    if p_nodes is None:
        return u[()]
    p_left = 0.0 if lam_left is None else lam_left * u
    p_right = 0.0 if lam_right is None else -lam_right * (1.0 - u)
    return u, np.where(left, p_left, np.where(right, p_right,
                                              np.interp(x, x_nodes, p_nodes)))


@dataclass
class SpatialProfile:
    """Wave profile sampled on an increasing x grid, anchored at U(0) = u*."""

    x_nodes: np.ndarray
    u_values: np.ndarray
    p_values: np.ndarray
    alpha_values: np.ndarray
    c: float
    theta_values: np.ndarray | None = None
    beta_values: np.ndarray | None = None
    f_values: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def u_at(self, x) -> np.ndarray:
        """U on arbitrary points, exponential tails beyond the grid; a float
        in gives a float out."""
        return _far_field(x, self.x_nodes, self.u_values,
                          self.meta.get("lambda_left"),
                          self.meta.get("lambda_right"))

    def alpha_at(self, x) -> np.ndarray:
        return np.interp(x, self.x_nodes, self.alpha_values,
                         left=0.0, right=0.0)

    def theta_at(self, x) -> np.ndarray:
        """Theta on arbitrary points: 0 left of the grid, 1 right of it."""
        if self.theta_values is None:
            raise InvalidTrajectoryError(
                "profile carries no Theta (build it with theta_model1)")
        return np.interp(x, self.x_nodes, self.theta_values,
                         left=0.0, right=1.0)

    def to_csv(self, path) -> None:
        """Columns x,u,p,alpha,theta; theta is empty when not computed."""
        write_columns(path, {"x": self.x_nodes, "u": self.u_values,
                             "p": self.p_values, "alpha": self.alpha_values,
                             "theta": self.theta_values})


def reconstruct_x(traj: PhaseTrajectory, spec: ModelSpec) -> SpatialProfile:
    """Invert the chart: x(U) = int_{u*}^U dV / P(V), plus asymptotic tails.

    Interior nodes must have P > 0; nodes with P <= 1e-9 are dropped.  The
    control in physical space is alpha(x) = L(U(x), beta(U(x))), which is
    +inf wherever the control reaches the cost barrier.
    """
    u = np.asarray(traj.u_nodes, dtype=float)
    p = np.asarray(traj.p_values, dtype=float)
    b = np.asarray(traj.beta_values, dtype=float)
    interior = (u > 0.0) & (u < 1.0)
    if np.any(interior & (p <= 0.0)):
        i = int(np.argmax(interior & (p <= 0.0)))
        raise InvalidTrajectoryError(
            f"P({u[i]:.6f}) = {p[i]:.3g} is not positive on an interior node")

    keep = p > 1e-9
    u, p, b = u[keep], p[keep], b[keep]
    us = spec.u_star
    if not (u[0] < us < u[-1]):
        raise InvalidTrajectoryError(
            f"trajectory [{u[0]:.4f}, {u[-1]:.4f}] does not straddle u*={us:.4f}")

    # insert an exact anchor node at u*
    if not np.any(np.isclose(u, us, rtol=0, atol=1e-14)):
        k = int(np.searchsorted(u, us))
        p_us = float(_interpolant(u, p, traj.kind)(us))
        b_us = float(_interpolant(u, b, traj.kind)(us))
        u = np.insert(u, k, us)
        p = np.insert(p, k, p_us)
        b = np.insert(b, k, b_us)
    k_anchor = int(np.argmin(np.abs(u - us)))

    x = cumulative_trapezoid(1.0 / p, u, initial=0.0)
    x -= x[k_anchor]

    lam_left = saddle_eigenvalues(spec, traj.c, 0.0)[0] \
        if u[0] < 1e-3 else None
    lam_right = saddle_eigenvalues(spec, traj.c, 1.0)[1] \
        if u[-1] > 1.0 - 1e-3 else None
    left = np.linspace(x[0] - TAIL_FACTOR / lam_left, x[0], N_PAD,
                       endpoint=False) if lam_left is not None else np.empty(0)
    right = np.linspace(x[-1], x[-1] - TAIL_FACTOR / lam_right, N_PAD + 1)[1:] \
        if lam_right is not None else np.empty(0)
    u_pad, p_pad = _far_field(np.concatenate((left, right)), x, u, lam_left,
                              lam_right, p)
    n_l, n_r = len(left), len(right)
    x = np.concatenate((left, x, right))
    u = np.concatenate((u_pad[:n_l], u, u_pad[n_l:]))
    p = np.concatenate((p_pad[:n_l], p, p_pad[n_l:]))
    b = np.concatenate((np.zeros(n_l), b, np.zeros(n_r)))

    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.asarray(spec.L(u, b), dtype=float)
    alpha = np.where(b == 0.0, 0.0, alpha)
    f_vals = np.asarray(spec.f(u), dtype=float)
    return SpatialProfile(x, u, p, alpha, traj.c, beta_values=b,
                          f_values=f_vals,
                          meta={"lambda_left": lam_left,
                                "lambda_right": lam_right,
                                "anchor_index": k_anchor + n_l})


def _theta_closed_form(x, u, kappa1: float, c: float,
                       tail: float = 0.0) -> np.ndarray:
    """Theta = 1 - exp((kappa1/c) int_{-inf}^x U) on the grid x.

    `tail` is the integral of U left of x[0].  The integral is clipped at
    0 so that an integrand of mixed sign (a trial V of solve_vtheta's
    pseudo-transient Newton loop) cannot push Theta below 0; for a
    non-negative integrand the clip does nothing.
    """
    integral = np.clip(tail + cumulative_trapezoid(u, x, initial=0.0),
                       0.0, None)
    return 1.0 - np.exp((kappa1 / c) * integral)


def theta_model1(profile: SpatialProfile, kappa1: float,
                 c: float) -> SpatialProfile:
    """Infected-tree fraction Theta along a leftward wave (c < 0).

    The left tail must be integrable: C = min P/U over the nodes up to
    U ~ min(1/2, 0.99 U_end) bounds it by U' >= C U, and C <= 1e-8 raises
    IntegrabilityError.  Its integral is closed exactly as U_0 / lambda
    with the saddle rate lambda = meta["lambda_left"], or C without one.
    While Theta is short of 1 - END_TOL, the grid is extended by the
    wave's far field (alpha, beta, f = 0 there) and Theta is formed on it
    by the same closed form.  c must be finite, and for c >= 0 the profile
    cannot exist; kappa1 must be finite and positive.
    """
    if not np.isfinite(c):
        raise InvalidParameterError(f"speed must be finite, got c={c}")
    if c >= 0.0:
        raise NonexistenceError(
            f"infected-tree profile requires c < 0 (invading front); got c={c:g}")
    _check_positive("kappa1", kappa1)

    x, u, p = profile.x_nodes, profile.u_values, profile.p_values
    k = int(np.argmin(np.abs(u - min(0.5, 0.99 * float(u[-1])))))
    left = (x <= x[k]) & (u > 0.0)
    C = float(np.min(p[left] / u[left])) if np.any(left) else 0.0
    if not C > 1e-8:
        raise IntegrabilityError(
            f"left tail of U not integrable (decay constant {C:.3g})")
    lam_l = profile.meta.get("lambda_left")
    tail = u[0] / (C if lam_l is None else lam_l)
    theta = _theta_closed_form(x, u, kappa1, c, tail=tail)

    ext = np.empty(0)
    if theta[-1] < 1.0 - END_TOL:
        if u[-1] < 0.99:
            raise IntegrabilityError(
                "profile does not reach the populated state; cannot extend "
                f"(U(right end) = {u[-1]:.4f})")
        need = (np.log(1.0 - theta[-1]) - np.log(END_TOL / 10.0)) \
            / (-(kappa1 / c) * u[-1])
        ext = np.linspace(x[-1], x[-1] + need, N_EXT + 1)[1:]
    u_ext, p_ext = _far_field(ext, x, u, None,
                              profile.meta.get("lambda_right"), p)
    x, u = np.concatenate((x, ext)), np.concatenate((u, u_ext))
    if len(ext):
        theta = _theta_closed_form(x, u, kappa1, c, tail=tail)

    def extended(col):
        return None if col is None \
            else np.concatenate((col, np.zeros_like(ext)))

    out = SpatialProfile(x, u, np.concatenate((p, p_ext)),
                         extended(profile.alpha_values), c,
                         theta_values=theta,
                         beta_values=extended(profile.beta_values),
                         f_values=extended(profile.f_values),
                         meta=dict(profile.meta))
    out.meta["kappa1"] = kappa1
    out.meta["theta_left_end"] = float(theta[0])
    out.meta["theta_right_end"] = float(theta[-1])
    return out


def alpha_multiplicative(profile: SpatialProfile):
    """Controls enter the insect/tree system as -alpha u: convert the
    removal rate beta(x) of a scalar profile to that multiplicative alpha.

    Returns alpha(x) = beta(x) / U(x) as a callable on arrays (the control
    contract of `pde` and `model2`), zero outside the control support and
    where U is negligible.
    """
    if profile.beta_values is None:
        raise InvalidTrajectoryError("profile carries no removal-rate samples")
    x = profile.x_nodes
    vals = np.where(profile.u_values > 1e-12,
                    profile.beta_values / np.maximum(profile.u_values, 1e-12),
                    0.0)

    def alpha(xx):
        return np.interp(xx, x, vals, left=0.0, right=0.0)
    return alpha
