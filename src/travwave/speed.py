"""Wave-speed solvers: the natural speed c* and substitute-equation speeds.

For bistable f the uncontrolled equation has a unique front speed c*.  It
is located by shooting on the manifold gap

    gap(c) = P_sharp(u*) - P_flat(u*)        (both computed with beta = 0),

which is strictly increasing in c (raising c lowers the slope field, which
pushes P_flat down and P_sharp up) and vanishes exactly at c*.  The root
is found by `_roots.bisect` on [-scale, scale], whose side is a lock-step
gap: it answers each midpoint from chart columns integrated together
(`_lockstep.LockStep`, the stepper of the PMP scan), the midpoints of
five bisection levels at a time, and only the final bracket's two ends
are scalar `manifold_gap` calls.  Where those ends do not confirm the
sign change, the scalar gap's bisection on [-scale, scale] decides, so c*
is always the root of that bisection.  The bracket needs no expansion:
|c*| < 2 sqrt(sup f(u)/u) <= 2 sqrt(max |f'|) (Hadeler & Rothe, J. Math.
Biol. 2, 1975, and the mean value theorem), and scale exceeds that by 1.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from ._lockstep import LockStep
from ._roots import bisect, sign_changes
from .errors import BracketFailureError, InvalidParameterError, InvalidSubstituteError
from .model import ModelSpec, _check_positive, check_A1
from .phaseplane import (ATOL, P_COLLAPSE, RTOL, _call_on_array,
                         _integrate_chart, _p_floor, _saddle_seed)

__all__ = ["natural_speed", "manifold_gap", "modified_speed", "make_substitute_spec"]

log = logging.getLogger(__name__)

TREE_DEPTH = 5  # bisection levels whose midpoints share one lock-step round


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

    `bisect` halves [-scale, scale] to width 2 tol on the lock-step gap
    (`_LockStepGap`), and the final bracket's two ends are checked with
    the scalar `manifold_gap`.  A wrong lock-step sign anywhere on the
    path leaves its midpoint as an end of that bracket, so when both ends
    confirm the sign change, the midpoint is the scalar bisection's
    answer.  Otherwise that bisection decides, and BracketFailureError is
    raised when the gap does not change sign on [-scale, scale].
    """
    scale = 2.0 * np.sqrt(float(np.max(np.abs(spec.df(np.linspace(0, 1, 2001)))))) + 1.0
    calls = 0

    def g(c):
        nonlocal calls
        calls += 1
        return manifold_gap(spec, c, rtol=rtol, atol=atol)

    side = _LockStepGap(spec, -scale, scale, 2.0 * tol, rtol, atol)
    lo, hi = bisect(side, -scale, scale, 2.0 * tol)
    fallback = not g(lo) < 0.0 < g(hi)
    if fallback:
        if not g(-scale) < 0.0 < g(scale):
            raise BracketFailureError(f"no sign change of the manifold gap "
                                      f"in [{-scale:g}, {scale:g}]")
        lo, hi = bisect(g, -scale, scale, 2.0 * tol)
    work = side.work
    log.debug("speed of %s: rounds=%d passes=%d columns=%d pruned=%d "
              "gap_calls=%d fallback=%s", spec.label, work["rounds"],
              work["passes"], work["columns"], work["pruned"], calls, fallback,
              extra={"speed_work": dict(work, gap_calls=calls,
                                        fallback=fallback)})
    return np.mean((lo, hi))


class _LockStepGap:
    """The manifold gap as `bisect`'s side, from lock-step chart columns.

    Asked at a midpoint it has no column for, it starts a round: bisect's
    midpoints for the next TREE_DEPTH levels below that midpoint's bracket
    (while the width exceeds tol), a P_flat and a P_sharp column each.  A
    column ends as in `manifold_gap`, at u* (P) or on the P floor (0); a
    stalled one gives 0 where P has collapsed and NaN elsewhere.  Columns
    not strictly inside the asked bracket are pruned: bisect never asks
    there again.
    """

    def __init__(self, spec: ModelSpec, lo: float, hi: float, tol: float,
                 rtol: float, atol: float):
        self.spec, self.tol, self.rtol, self.atol = spec, tol, rtol, atol
        self.bracket, self.col = {0.5 * (lo + hi): (lo, hi)}, {}
        self.work = {"rounds": 0, "passes": 0, "columns": 0, "pruned": 0}

    def __call__(self, m: float) -> float:
        a, b = self.bracket[m]
        if m not in self.col:
            self._round(a, b)
        st, ends, live, p_floor = self.st, self.ends, self.live, self.p_floor
        inside = (a < self.cs[st.ids]) & (self.cs[st.ids] < b)
        self.work["pruned"] += np.count_nonzero(~inside)
        st.keep(inside)
        j, n = self.col[m], len(self.col)
        while live[j] or live[n + j]:
            self.work["passes"] += 1
            accept, stalled = st.step()
            ids, p = st.ids, st.y[0]
            floor = accept & (st.y_old[0] >= p_floor[ids]) & (p <= p_floor[ids])
            at_u_star = accept & (st.u == self.spec.u_star) & ~floor
            ends[ids[floor]] = 0.0
            ends[ids[at_u_star]] = p[at_u_star]
            ends[ids[stalled]] = np.where(p[stalled] <= P_COLLAPSE, 0.0, np.nan)
            ended = floor | at_u_star | stalled
            live[ids[ended]] = False
            st.keep(~ended)
        return ends[n + j] - ends[j]

    def _round(self, lo: float, hi: float) -> None:
        """Columns j (P_flat) and n + j (P_sharp) for midpoint j below
        [lo, hi], and the brackets down to where the next round starts."""
        spec = self.spec
        self.bracket, mids, todo = {}, [], [(0, lo, hi)]
        for depth, a, b in todo:
            m = 0.5 * (a + b)
            self.bracket[m] = (a, b)
            if b - a > self.tol and depth < TREE_DEPTH:
                mids.append(m)
                todo += [(depth + 1, a, m), (depth + 1, m, b)]
        self.col = {m: j for j, m in enumerate(mids)}
        n = len(mids)
        self.cs = cs = np.tile(mids, 2)
        (u_flat, p_flat), (u_sharp, p_sharp) = (
            _saddle_seed(spec, cs[:n], u_eq) for u_eq in (0.0, 1.0))
        p0 = np.concatenate((p_flat, p_sharp))
        self.st = LockStep(
            lambda u, y, ids: (-cs[ids] + (0.0 - spec.f(u)) / y[0])[None],
            np.repeat([u_flat, u_sharp], n), p0, np.full(2 * n, spec.u_star),
            self.rtol, self.atol)
        self.p_floor, self.ends = _p_floor(p0), np.full(2 * n, np.nan)
        self.live = np.ones(2 * n, dtype=bool)
        self.work["rounds"] += 1
        self.work["columns"] += 2 * n


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
