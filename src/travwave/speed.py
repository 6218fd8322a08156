"""Wave-speed solvers: the natural speed c* and substitute-equation speeds.

For bistable f the uncontrolled equation has a unique front speed c*.  It
is located by shooting on the manifold gap

    gap(c) = P_sharp(u*) - P_flat(u*)        (both computed with beta = 0),

which is strictly increasing in c (raising c lowers the slope field, which
pushes P_flat down and P_sharp up), vanishes exactly at c*, and is cheap to
evaluate.  The root is found by bracketing plus bisection.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._roots import bisect, sign_changes
from .errors import BracketFailureError, InvalidParameterError, InvalidSubstituteError
from .model import ModelSpec, check_A1
from .phaseplane import _integrate_chart, _saddle_seed

__all__ = ["natural_speed", "manifold_gap", "modified_speed", "make_substitute_spec"]


def manifold_gap(spec: ModelSpec, c: float, rtol: float = 1e-10,
                 atol: float = 1e-12) -> float:
    """P_sharp(u*) - P_flat(u*) at speed c with zero control, read from the
    branches' end states; a branch that collapsed before u* counts as 0."""
    ends = []
    for u_eq in (0.0, 1.0):
        u0, p0 = _saddle_seed(spec, c, u_eq)
        _, p, terminated_by, _ = _integrate_chart(
            spec, c, None, u0, p0, spec.u_star, rtol=rtol, atol=atol,
            dense_output=False)
        ends.append(float(p[-1]) if terminated_by == "u_stop" else 0.0)
    p_flat, p_sharp = ends
    return p_sharp - p_flat


def natural_speed(spec: ModelSpec, tol: float = 1e-8, rtol: float = 1e-10,
                  atol: float = 1e-12) -> float:
    """Unique front speed of u_t = u_xx + f(u) for bistable f.

    Raises InvalidParameterError when the bistability check fails (e.g. the
    logistic model, which has a spectrum of speeds instead of a single c*).
    """
    report = check_A1(spec)
    if not report.passed:
        raise InvalidParameterError(
            f"natural_speed requires bistable f; {spec.label} fails: "
            + "; ".join(report.failures()))
    return _speed(spec, tol, rtol, atol)


def _speed(spec: ModelSpec, tol: float = 1e-8, rtol: float = 1e-10,
           atol: float = 1e-12) -> float:
    """Bracket-and-bisect core of `natural_speed` for a spec whose
    bistability is checked (there or by `make_substitute_spec`)."""
    scale = 2.0 * np.sqrt(float(np.max(np.abs(spec.df(np.linspace(0, 1, 2001)))))) + 1.0
    lo, hi = -scale, scale
    g = lambda c: manifold_gap(spec, c, rtol=rtol, atol=atol)
    g_lo, g_hi = g(lo), g(hi)
    expansions = 0
    while g_lo * g_hi > 0.0:
        if expansions >= 5:
            raise BracketFailureError(
                f"no sign change of the manifold gap in [{lo:g}, {hi:g}]")
        lo, hi = 2.0 * lo, 2.0 * hi
        g_lo, g_hi = g(lo), g(hi)
        expansions += 1

    # g has the sign of g_lo at the lower end of every sub-bracket
    return np.mean(bisect(lambda c: -g_lo * g(c), lo, hi, 2.0 * tol))


def make_substitute_spec(spec: ModelSpec, f_hat: Callable) -> ModelSpec:
    """Validated ModelSpec wrapper around a substitute reaction term.

    f_hat must map an array of U to an array, satisfy the admissibility
    sandwich f - beta_max <= f_hat <= f pointwise (checked on 2001 samples)
    and be bistable; otherwise InvalidSubstituteError.  u_star is the
    substitute's interior zero (sampling plus bisection), the derivative a
    central difference, and the cost fields are inherited (manifold work
    never touches them).
    """
    u = np.linspace(0.0, 1.0, 2001)
    try:
        fh_vals = np.asarray(f_hat(u), dtype=float)
        if fh_vals.shape != u.shape:
            raise ValueError(f"got shape {fh_vals.shape} for {u.shape}")
    except (TypeError, ValueError) as exc:
        raise InvalidSubstituteError(
            f"f_hat must map an array of U to an array: {exc}") from exc
    f_vals = np.asarray(spec.f(u), dtype=float)
    bhat = np.asarray(spec.beta_max(u), dtype=float)
    slack = 1e-12
    if np.any(fh_vals > f_vals + slack):
        i = int(np.argmax(fh_vals - f_vals))
        raise InvalidSubstituteError(
            f"f_hat({u[i]:.4f})={fh_vals[i]:.6g} exceeds f={f_vals[i]:.6g}")
    lower = f_vals - np.where(np.isfinite(bhat), bhat, np.inf)
    if np.any(fh_vals < lower - slack):
        i = int(np.argmax(lower - fh_vals))
        raise InvalidSubstituteError(
            f"f_hat({u[i]:.4f})={fh_vals[i]:.6g} below f - beta_max={lower[i]:.6g}")

    zero = next(sign_changes(f_hat, np.linspace(0.0, 1.0, 4001)[1:-1], 1e-12),
                None)
    if zero is None:
        raise InvalidSubstituteError("substitute has no interior sign change")

    h = 1e-7
    def df_central(u):
        return (f_hat(np.asarray(u) + h) - f_hat(np.asarray(u) - h)) / (2.0 * h)

    sub = ModelSpec(f_hat, df_central, zero, spec.L, spec.L_beta,
                    spec.L_betabeta, spec.L_ubeta, spec.beta_max,
                    spec.label + "|substitute", spec.beta_from_alpha)
    rep = check_A1(sub, tol=1e-9)
    if not rep.passed:
        raise InvalidSubstituteError(
            "substitute fails bistability: " + "; ".join(rep.failures()))
    return sub


def modified_speed(spec: ModelSpec, f_hat: Callable) -> float:
    """Front speed c_hat of the substitute equation u_t = u_xx + f_hat(u);
    `make_substitute_spec` validates f_hat."""
    return _speed(make_substitute_spec(spec, f_hat))
