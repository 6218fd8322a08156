"""Wave-speed solvers: the natural speed c* and substitute-equation speeds.

For bistable f the uncontrolled equation has a unique front speed c*.  It
is located by shooting on the manifold gap

    gap(c) = P_sharp(u*) - P_flat(u*)        (both computed with beta = 0),

which is strictly increasing in c (raising c lowers the slope field, which
pushes P_flat down and P_sharp up) and vanishes exactly at c*.  The root
is found by bisection on [-scale, scale].  The midpoints' gaps come from
lock-step chart integrations (`_lockstep.LockStep`, the stepper of the
PMP scan), the midpoints of five bisection levels at a time, and only
the final bracket's two ends are scalar `manifold_gap` calls.  Where
those ends do not confirm the sign change, the scalar bracket-and-bisect
(with its bracket expansions) decides, so c* is always the root of the
scalar gap's bisection.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from ._lockstep import LockStep
from ._roots import bisect, sign_changes
from .errors import BracketFailureError, InvalidParameterError, InvalidSubstituteError
from .model import ModelSpec, _check_positive, check_A1
from .phaseplane import (P_COLLAPSE, _call_on_array, _integrate_chart,
                         _p_floor, _saddle_seed)

__all__ = ["natural_speed", "manifold_gap", "modified_speed", "make_substitute_spec"]

log = logging.getLogger(__name__)

TREE_DEPTH = 5  # bisection levels whose midpoints share one lock-step round


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


def _speed(spec: ModelSpec, tol: float = 1e-8, rtol: float = 1e-10,
           atol: float = 1e-12) -> float:
    """Bisection core of `natural_speed` for a spec whose bistability is
    checked (there or by `make_substitute_spec`).

    The gap is bisected on [-scale, scale] to width 2 tol in lock step
    (`_bisect_lock_step`), and the final bracket's two ends are checked
    with the scalar `manifold_gap`.  A wrong lock-step sign anywhere on
    the path leaves its midpoint as an end of that bracket, so when both
    ends confirm the sign change, the midpoint is the scalar bisection's
    answer.  Otherwise the scalar bracket-and-bisect decides.
    """
    scale = 2.0 * np.sqrt(float(np.max(np.abs(spec.df(np.linspace(0, 1, 2001)))))) + 1.0
    calls = 0

    def g(c):
        nonlocal calls
        calls += 1
        return manifold_gap(spec, c, rtol=rtol, atol=atol)

    lo, hi, work = _bisect_lock_step(spec, -scale, scale, 2.0 * tol, rtol, atol)
    fallback = not g(lo) < 0.0 < g(hi)
    if fallback:
        lo, hi = -scale, scale
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
        lo, hi = bisect(lambda c: -g_lo * g(c), lo, hi, 2.0 * tol)
    log.debug("speed of %s: rounds=%d passes=%d columns=%d pruned=%d "
              "gap_calls=%d fallback=%s", spec.label, work["rounds"],
              work["passes"], work["columns"], work["pruned"], calls, fallback,
              extra={"speed_work": dict(work, gap_calls=calls,
                                        fallback=fallback)})
    return np.mean((lo, hi))


def _bisect_lock_step(spec: ModelSpec, lo: float, hi: float, tol: float,
                      rtol: float, atol: float) -> tuple[float, float, dict]:
    """`_roots.bisect` on the sign of the gap, with the gap from lock-step
    chart columns instead of scalar `manifold_gap` calls.

    Each round takes the midpoints of the next TREE_DEPTH bisection levels
    of [lo, hi] (as `bisect` computes them, only while the width exceeds
    tol) and integrates a P_flat and a P_sharp column for each in one
    `LockStep`.  A column ends at u* (giving P) or on its P floor (giving
    0), as in `manifold_gap`; a stalled column gives 0 where P has
    collapsed and NaN elsewhere.  As soon as both columns of the path's
    midpoint are done the path descends by bisect's rules (gap > 0 moves
    hi, < 0 or NaN moves lo, 0 returns), and the columns of the subtree it
    left are dropped.  Returns (lo, hi, work counts).
    """
    work = {"rounds": 0, "passes": 0, "columns": 0, "pruned": 0}
    f, u_star = spec.f, spec.u_star
    while hi - lo > tol:
        work["rounds"] += 1
        # the subtree's midpoints, keyed by their path from the round's
        # bracket (0: to the lower half, 1: to the upper half)
        keys, mids, todo = [], [], [((), lo, hi)]
        for key, a, b in todo:
            if b - a > tol and len(key) < TREE_DEPTH:
                m = 0.5 * (a + b)
                keys.append(key)
                mids.append(m)
                todo += [(key + (0,), a, m), (key + (1,), m, b)]
        node = {key: j for j, key in enumerate(keys)}
        # column j is P_flat and column n + j P_sharp of midpoint j
        n = len(mids)
        cs = np.tile(mids, 2)
        (u_flat, p_flat), (u_sharp, p_sharp) = (
            _saddle_seed(spec, cs[:n], u_eq) for u_eq in (0.0, 1.0))
        p0 = np.concatenate((p_flat, p_sharp))
        st = LockStep(lambda u, y, ids: (-cs[ids] + (0.0 - f(u)) / y[0])[None],
                      np.repeat([u_flat, u_sharp], n), p0,
                      np.full(2 * n, u_star), rtol, atol)
        p_floor = _p_floor(p0)
        ends = np.full(2 * n, np.nan)
        live = np.ones(2 * n, dtype=bool)
        path = ()
        work["columns"] += 2 * n
        while path in node:
            work["passes"] += 1
            accept, stalled = st.step()
            ids, p = st.ids, st.y[0]
            floor = accept & (st.y_old[0] >= p_floor[ids]) & (p <= p_floor[ids])
            at_u_star = accept & (st.u == u_star) & ~floor
            ends[ids[floor]] = 0.0
            ends[ids[at_u_star]] = p[at_u_star]
            ends[ids[stalled]] = np.where(p[stalled] <= P_COLLAPSE, 0.0, np.nan)
            live[ids[floor | at_u_star | stalled]] = False
            keep = live[ids]
            while path in node:
                j = node[path]
                if live[j] or live[n + j]:
                    break
                s = ends[n + j] - ends[j]
                if s == 0.0:
                    return mids[j], mids[j], work
                if s > 0.0:
                    hi, path = mids[j], path + (0,)
                else:
                    lo, path = mids[j], path + (1,)
                left = np.array([keys[i][:len(path)] != path
                                 for i in ids % n], dtype=bool)
                work["pruned"] += int(np.count_nonzero(keep & left))
                keep &= ~left
            st.keep(keep)
    return lo, hi, work


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
