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
from .phaseplane import stable_manifold, unstable_manifold

__all__ = ["natural_speed", "manifold_gap", "modified_speed", "make_substitute_spec"]


def manifold_gap(spec: ModelSpec, c: float, rtol: float = 1e-10,
                 atol: float = 1e-12) -> float:
    """P_sharp(u*) - P_flat(u*) at speed c with zero control."""
    us = spec.u_star
    flat = unstable_manifold(spec, c, u_stop=us, rtol=rtol, atol=atol)
    sharp = stable_manifold(spec, c, u_stop=us, rtol=rtol, atol=atol)
    p_flat = float(flat.p_values[-1]) if flat.terminated_by == "u_stop" else 0.0
    p_sharp = float(sharp.p_values[0]) if sharp.terminated_by == "u_stop" else 0.0
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


def make_substitute_spec(spec: ModelSpec, f_hat: Callable, df_hat=None) -> ModelSpec:
    """ModelSpec wrapper around a substitute reaction term.

    The derivative defaults to a central difference; the cost fields are
    inherited (manifold work never touches them).  The interior zero is
    located by sampling plus bisection.
    """
    fh = np.vectorize(f_hat, otypes=[float]) if not _vectorized(f_hat) else f_hat
    if df_hat is None:
        h = 1e-7
        def df_hat_fd(u):
            return (fh(np.asarray(u) + h) - fh(np.asarray(u) - h)) / (2.0 * h)
        dfh = df_hat_fd
    else:
        dfh = df_hat

    zero = next(sign_changes(fh, np.linspace(0.0, 1.0, 4001)[1:-1], 1e-12),
                None)
    if zero is None:
        raise InvalidSubstituteError("substitute has no interior sign change")

    return ModelSpec(fh, dfh, zero, spec.L, spec.L_beta, spec.L_betabeta,
                     spec.L_ubeta, spec.beta_max, spec.label + "|substitute",
                     spec.beta_from_alpha)


def _vectorized(fn) -> bool:
    """Whether fn maps a 2-array to a 2-array.

    A scalar-only fn fails on the array with TypeError or ValueError (a
    truth-value or float() conversion); any other error is its own bug and
    propagates.
    """
    try:
        out = fn(np.array([0.25, 0.75]))
        return np.shape(out) == (2,)
    except (TypeError, ValueError):
        return False


def modified_speed(spec: ModelSpec, f_hat: Callable, df_hat=None) -> float:
    """Front speed c_hat of the substitute equation u_t = u_xx + f_hat(u).

    f_hat must itself be bistable and satisfy the admissibility sandwich
    f - beta_max <= f_hat <= f pointwise (checked on 2001 samples);
    violating either raises InvalidSubstituteError.
    """
    u = np.linspace(0.0, 1.0, 2001)
    f_vals = np.asarray(spec.f(u), dtype=float)
    bhat = np.asarray(spec.beta_max(u), dtype=float)
    try:
        fh_vals = np.asarray([float(f_hat(x)) for x in u])
    except Exception as exc:
        raise InvalidSubstituteError(f"substitute not evaluable: {exc}") from exc
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

    sub = make_substitute_spec(spec, f_hat, df_hat=df_hat)
    rep = check_A1(sub, tol=1e-9)
    bad = [name for name, ok, _ in rep.clauses if not ok
           and name != "interior zero matches u_star"]
    if bad:
        raise InvalidSubstituteError(
            "substitute fails bistability: " + "; ".join(rep.failures()))
    return natural_speed(sub)
