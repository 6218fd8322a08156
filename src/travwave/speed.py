"""Wave-speed solvers: the natural speed c* and substitute-equation speeds.

For bistable f the uncontrolled equation has a unique front speed c*.  It
is located by shooting on the manifold gap

    gap(c) = P_sharp(u*) - P_flat(u*)        (both computed with beta = 0),

which is strictly increasing in c (raising c lowers the slope field, which
pushes P_flat down and P_sharp up) and vanishes exactly at c*.  c* is the
answer of `_roots.bisect` on the gap over [-scale, scale], to width 2 tol,
but that path is replayed, not paid for: `_roots.brent` (Brent, Algorithms
for Minimization without Derivatives, 1973, ch. 4) converges on the gap's
root r in a coarse bracket, and every midpoint farther than DELTA from r
takes the sign of m - r.  Only the final bracket's two ends, and any
midpoint within DELTA of r, are further `manifold_gap` calls.  A midpoint
within brent's xtol of r is the root, the exact zero `bisect` returns: the
gap's sign there is rounding (at a symmetric model's c* = 0 it read one
ulp either way).  Where the final ends do not confirm the sign change, the
gap's own bisection on [-scale, scale] decides, so c* is always the root
of that bisection, or a midpoint within xtol of the gap's root.  The
bracket needs no expansion:
|c*| < 2 sqrt(sup f(u)/u) <= 2 sqrt(max |f'|) (Hadeler & Rothe, J. Math.
Biol. 2, 1975, and the mean value theorem), and scale exceeds that by 1.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from ._roots import XTOL, bisect, brent, sign_changes
from .errors import BracketFailureError, InvalidParameterError, InvalidSubstituteError
from .model import ModelSpec, _check_positive, check_A1
from .phaseplane import (ATOL, RTOL, _call_on_array, _integrate_chart,
                         _saddle_seed)

__all__ = ["natural_speed", "manifold_gap", "modified_speed", "make_substitute_spec"]

log = logging.getLogger(__name__)

DELTA = 1e-9  # within DELTA of brent's root, bisect's side is the gap itself


def manifold_gap(spec: ModelSpec, c: float, rtol: float = RTOL,
                 atol: float = ATOL) -> float:
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


def natural_speed(spec: ModelSpec, tol: float = 1e-8, rtol: float = RTOL,
                  atol: float = ATOL) -> float:
    """Unique front speed of u_t = u_xx + f(u) for bistable f.

    Raises InvalidParameterError when tol is not finite and positive, or
    when the bistability check fails (e.g. the logistic model, which has a
    spectrum of speeds instead of a single c*).
    """
    _check_positive("tol", tol)
    report = check_A1(spec)
    if not report.passed:
        raise InvalidParameterError(
            f"natural_speed requires bistable f; {spec.label} fails: "
            + "; ".join(report.failures()))
    return _speed(spec, tol, rtol, atol)


def _speed(spec: ModelSpec, tol: float = 1e-8, rtol: float = RTOL,
           atol: float = ATOL) -> float:
    """Bisection core of `natural_speed` for a spec whose bistability is
    checked (there or by `make_substitute_spec`).

    A coarse `bisect` of the memoised gap to width scale/4 brackets the
    root, and `brent` converges on it, r, inside that bracket.  `bisect`
    then halves [-scale, scale] to width 2 tol on side(m) = m - r, except
    within DELTA of r, where side is the gap itself, and within XTOL of r,
    where m is the root.  The final bracket's two ends are checked with
    the gap.  A wrong sign of m - r anywhere on the path leaves the final
    bracket on one side of the root, so when both ends confirm the sign
    change, its midpoint is the gap's own bisection's answer.  Otherwise
    that bisection decides, and BracketFailureError is raised when the gap
    does not change sign on [-scale, scale].
    """
    scale = 2.0 * np.sqrt(float(np.max(np.abs(spec.df(np.linspace(0, 1, 2001)))))) + 1.0
    gaps = {}

    def g(c):
        if c not in gaps:
            gaps[c] = manifold_gap(spec, c, rtol=rtol, atol=atol)
        return gaps[c]

    lo, hi = bisect(g, -scale, scale, 0.25 * scale)
    root, fallback = np.nan, True
    if g(lo) < 0.0 < g(hi):
        root = brent(g, lo, hi)

        def side(m):
            # within brent's xtol of its root the gap's sign is rounding,
            # so m is the root: bisect returns it as an exact zero
            if abs(m - root) <= XTOL:
                return 0.0
            return g(m) if abs(m - root) <= DELTA else m - root
        lo, hi = bisect(side, -scale, scale, 2.0 * tol)
        fallback = lo != hi and not g(lo) < 0.0 < g(hi)
    if fallback:
        if not g(-scale) < 0.0 < g(scale):
            raise BracketFailureError(f"no sign change of the manifold gap "
                                      f"in [{-scale:g}, {scale:g}]")
        lo, hi = bisect(g, -scale, scale, 2.0 * tol)
    work = {"gap_calls": len(gaps), "fallback": fallback, "root": root,
            "width": hi - lo}
    log.debug("speed of %s: gap_calls=%d fallback=%s root=%r width=%.3g",
              spec.label, len(gaps), fallback, root, hi - lo,
              extra={"speed_work": work})
    return np.mean((lo, hi))


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
    fh_vals = _call_on_array(f_hat, u, InvalidSubstituteError,
                             "f_hat must map an array of U to an array")
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
