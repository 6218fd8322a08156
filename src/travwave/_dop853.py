"""scipy's DOP853 as two integrators: one run on plain floats, and lock step.

Both follow scipy's `DOP853` control with its tableau, read here once:
the initial step (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4),
the error norm, safety 0.9, factors 0.2/10, exponent -1/8 and min_step,
below which a run fails (sec. II.5).

`solve_ivp` is scipy's ``solve_ivp(..., method="DOP853")`` for a system
of a few components, on plain Python floats: at one to three components
most of a scipy step is numpy's per-call overhead on tiny arrays.  It
keeps scipy's event rule and dense output, and counts RHS calls as scipy
does; its events are (g, direction) pairs, and a run reports which one
`ended` it.

`LockStep` integrates many independent problems, forward to one bound,
as the columns of arrays.  Every pass takes one trial step for all live
columns.  The stepper knows no events: after each pass the caller reads
the accepted moves, applies its own event rule and keeps only the
columns it has not decided.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import mul

import numpy as np
from scipy.integrate import DOP853

from ._roots import brent

A, B, C, E3, E5 = DOP853.A, DOP853.B, DOP853.C, DOP853.E3, DOP853.E5
A_EXTRA, C_EXTRA, D = DOP853.A_EXTRA, DOP853.C_EXTRA, DOP853.D
N_STAGES = DOP853.n_stages
EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
A_ROWS = [A[s, :s] for s in range(1, N_STAGES)]
# the same tableau as plain floats: (c, a row) of stages 1..11 and of the
# three extra stages of the dense output, which see every stage before them
STAGES = [(float(C[s]), tuple(A_ROWS[s - 1].tolist()))
          for s in range(1, N_STAGES)]
EXTRA_STAGES = [(float(c), tuple(a[:s].tolist())) for s, (c, a)
                in enumerate(zip(C_EXTRA, A_EXTRA), start=N_STAGES + 1)]
B_ROW, E3_ROW, E5_ROW = (tuple(r.tolist()) for r in (B, E3, E5))
D_ROWS = [tuple(r.tolist()) for r in D]
# scipy's xtol of an event root; its rtol, 4 eps too, is brentq's default
ROOT_TOL = 4.0 * np.finfo(float).eps
RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy's least rtol


@dataclass
class Run:
    """One run: the accepted nodes t and states y (shape (m, len(t))), the
    index of the event that `ended` it (the number of events at the span's
    end, None when a step fell below min_step), the RHS calls and the
    dense solution (None without dense output)."""

    t: np.ndarray
    y: np.ndarray
    ended: int | None
    nfev: int
    sol: Dense | None


class Dense:
    """The run's dense solution, like scipy's OdeSolution over its steps'
    7th-order interpolants.

    Called on a scalar it returns y (shape (m,)), on n points shape (m, n).
    A node shared by two steps is read from the earlier one, and points
    outside the run from its end steps.  A run that took no step has one
    constant step.
    """

    def __init__(self, ts: list, steps: list):
        self.ts = np.array(ts)
        t_old, h, y_old, coefs = zip(*steps)
        self.t_old, self.h = np.array(t_old), np.array(h)
        self.y_old, self.coefs = np.array(y_old), np.array(coefs)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        tt, ts, n = t.ravel(), self.ts, len(self.h)
        if ts[-1] >= ts[0]:
            seg = np.searchsorted(ts, tt, side="left") - 1
        else:
            seg = n - np.searchsorted(ts[::-1], tt, side="right")
        seg = np.clip(seg, 0, n - 1)
        x = ((tt - self.t_old[seg]) / self.h[seg])[:, None]
        coefs, y_old = self.coefs[seg], self.y_old[seg]
        y = np.zeros(y_old.shape)
        for j in range(coefs.shape[2]):
            y += coefs[:, :, j]
            y *= x if j % 2 == 0 else 1 - x
        y += y_old
        return y[0] if t.ndim == 0 else y.T


def _at(step, t: float) -> list:
    """One step's interpolant at the float t: scipy's Horner scheme."""
    t_old, h, y_old, coefs = step
    x = (t - t_old) / h
    w = (x, 1 - x, x, 1 - x, x, 1 - x, x)
    out = []
    for y0, cs in zip(y_old, coefs):
        v = 0.0
        for c, wj in zip(cs, w):
            v = (v + c) * wj
        out.append(v + y0)
    return out


def _floor_rtol(rtol: float) -> float:
    """rtol raised to RTOL_FLOOR, with scipy's UserWarning when it is
    below: a step's relative error cannot be held much nearer to eps."""
    if rtol < RTOL_FLOOR:
        warnings.warn(f"At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {RTOL_FLOOR})`.",
                      stacklevel=3)
        return RTOL_FLOOR
    return rtol


def _norm(x) -> float:
    """scipy's RMS norm of a list of floats."""
    return math.sqrt(sum(v * v for v in x)) / len(x) ** 0.5


def _initial_step(fun, t, y, f, t1, direction, rtol, atol) -> float:
    """scipy's select_initial_step; calls fun once unless the span is 0."""
    span = abs(t1 - t)
    if span == 0.0:
        return 0.0
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _norm([v / s for v, s in zip(y, scale)])
    d1 = _norm([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t + h0 * direction, [v + h0 * direction * fv
                                  for v, fv in zip(y, f)])
    d2 = _norm([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -EXPONENT
    return min(100 * h0, h1, span)


def _add_stages(fun, t, y, h, K, stages) -> None:
    """Append the values of each (c, a row) stage to K, which holds each
    component's stage values so far."""
    for c, a in stages:
        k = fun(t + c * h, [v + sum(map(mul, a, ks)) * h
                            for v, ks in zip(y, K)])
        for ks, v in zip(K, k):
            ks.append(v)


def _trial(fun, t, y, f, h):
    """One trial step of size h: (y_new, f_new, K), where K holds each
    component's stage values, f first and f_new last."""
    K = [[v] for v in f]
    _add_stages(fun, t, y, h, K, STAGES)
    y_new = [v + h * sum(map(mul, B_ROW, ks)) for v, ks in zip(y, K)]
    f_new = fun(t + h, y_new)
    for ks, v in zip(K, f_new):
        ks.append(v)
    return y_new, f_new, K


def _error_norm(K, y, y_new, h, rtol, atol) -> float:
    """scipy's DOP853 error norm: the 5th-order estimate corrected by the
    3rd-order one, scaled by the larger of |y| and |y_new|."""
    e5 = e3 = 0.0
    for ks, v, v_new in zip(K, y, y_new):
        # y_new first: a NaN there propagates, as in np.maximum
        scale = atol + max(abs(v_new), abs(v)) * rtol
        r5 = sum(map(mul, E5_ROW, ks)) / scale
        r3 = sum(map(mul, E3_ROW, ks)) / scale
        e5 += r5 * r5
        e3 += r3 * r3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _step(fun, t, y, f, h_abs, t1, direction, rtol, atol):
    """scipy's step control from (t, y): trial steps until one is accepted.

    Returns (trials, accepted): accepted is (t_new, y_new, f_new, K, h, the
    next step's h_abs), or None once the step falls below min_step.
    """
    min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
    h_abs = max(h_abs, min_step)
    trials, rejected = 0, False
    while h_abs >= min_step:
        t_new = t + h_abs * direction
        if direction * (t_new - t1) > 0:
            t_new = t1
        h = t_new - t
        h_abs = abs(h)
        y_new, f_new, K = _trial(fun, t, y, f, h)
        trials += 1
        err = _error_norm(K, y, y_new, h, rtol, atol)
        if err < 1.0:
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** EXPONENT)
            h_abs *= min(1.0, factor) if rejected else factor
            return trials, (t_new, y_new, f_new, K, h, h_abs)
        # max(0.2, NaN) is 0.2: a NaN error shrinks by the minimum factor
        h_abs *= max(0.2, 0.9 * err ** EXPONENT)
        rejected = True
    return trials, None


def _dense_step(fun, t_old, y_old, f_old, y, f, h, K):
    """The accepted step's interpolant (t_old, h, y_old, coefficients);
    its three extra stages call fun."""
    _add_stages(fun, t_old, y_old, h, K, EXTRA_STAGES)
    coefs = []
    for v_old, v, fo, fv, ks in zip(y_old, y, f_old, f, K):
        dv = v - v_old
        d3, d4, d5, d6 = (h * sum(map(mul, r, ks)) for r in D_ROWS)
        # in Horner order, highest power first
        coefs.append((d6, d5, d4, d3, 2 * dv - h * (fv + fo), h * fo - dv,
                      dv))
    return t_old, h, y_old, coefs


def solve_ivp(fun, t_span, y0, rtol: float, atol: float,
              dense_output: bool = False, events=()) -> Run:
    """Integrate y' = fun(t, y) over t_span on plain floats, as scipy's
    ``solve_ivp(..., method="DOP853")`` does.

    fun(t, y) gets a float t and a list of floats and returns a sequence
    of floats.  An event (g, direction) ends the run at the first root of
    the float g(t, y) crossed upward (direction 1), downward (-1) or
    either way (0): at each accepted step the events whose value crossed
    zero are solved on the step's interpolant by Brent's method, and the
    run ends on the earliest root.  The three extra stages of a step's
    interpolant are paid only with dense output or when an event fires.
    A step that would fall below min_step ends the run, `ended` None.
    rtol below RTOL_FLOOR runs at RTOL_FLOOR, with a UserWarning.
    """
    rtol = _floor_rtol(rtol)
    t0, t1 = map(float, t_span)
    t, y = t0, [float(v) for v in y0]
    direction = 1.0 if t1 >= t0 else -1.0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t1, direction, rtol, atol)
    nfev = 1 if t == t1 else 2
    g_old = [g(t, y) for g, _ in events]
    ts, ys, steps = [t], [y], []
    ended, running = len(events), t != t1
    if not running:
        # nothing to integrate: scipy's one constant step
        ts, ys = [t, t], [y, y]
    while running:
        trials, accepted = _step(fun, t, y, f, h_abs, t1, direction, rtol,
                                 atol)
        nfev += N_STAGES * trials
        if accepted is None:
            ended = None
            break
        t_old, y_old, f_old = t, y, f
        t, y, f, K, h, h_abs = accepted
        running = direction * (t - t1) < 0
        step = None
        if dense_output:
            step = _dense_step(fun, t_old, y_old, f_old, y, f, h, K)
            nfev += len(EXTRA_STAGES)
            steps.append(step)
        if events:
            g_new = [g(t, y) for g, _ in events]
            active = [i for i, ((_, d), a, b) in
                      enumerate(zip(events, g_old, g_new))
                      if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b)]
            if active:
                if step is None:
                    step = _dense_step(fun, t_old, y_old, f_old, y, f, h, K)
                    nfev += len(EXTRA_STAGES)
                roots = [(_event_root(events[i][0], step, t_old, t), i)
                         for i in active]
                root, ended = min(roots,
                                  key=lambda r: (direction * r[0], r[1]))
                running, t, y = False, root, _at(step, root)
            g_old = g_new
        if dense_output and len(ts) > 1 and ts[-1] == t:
            # an event root on the previous node: no zero-length step
            steps.pop()
        else:
            ts.append(t)
            ys.append(y)
    if dense_output and not steps:
        # no step taken, over an empty span or below min_step at once:
        # scipy's constant step of an empty span, held at t0
        steps.append((t0, 1.0, ys[0], [(0.0,) * 7 for _ in y]))
    return Run(np.array(ts), np.array(ys).T, ended, nfev,
               Dense(ts, steps) if dense_output else None)


def _event_root(g, step, t_old: float, t: float) -> float:
    """The root of g on the step's interpolant, as scipy's event
    location: Brent's method on [t_old, t] at xtol = rtol = 4 eps."""
    return brent(lambda s: g(s, _at(step, s)), t_old, t, xtol=ROOT_TOL)


def _rms(x: np.ndarray) -> np.ndarray:
    """scipy's RMS norm of each column."""
    return np.sqrt(np.sum(x * x, axis=0) / len(x))


class LockStep:
    """Columns y' = fun(u, y) integrated together up to one bound, one
    step a pass.

    u0 holds one value per column, each below the float `bound`, and y0
    one row per component (shape (m, n)).  fun receives the live columns'
    u and y and returns dy of y's shape; `ids` are their indices among
    the starting columns.  After `step()`, u, y and f hold every live
    column's state (moved where the step was accepted) and y_old the
    state before the pass.  Non-finite trial values only reject the step,
    as in scipy.
    """

    def __init__(self, fun, u0, y0, bound: float, rtol: float, atol: float):
        self.fun, self.rtol, self.atol = fun, _floor_rtol(rtol), atol
        self.bound = float(bound)
        self.u = np.array(u0, dtype=float)
        self.ids = np.arange(len(self.u))
        self.y = np.array(y0, dtype=float).reshape(-1, len(self.u))
        self.y_old = self.y
        self.min_step = self._min_step()
        with np.errstate(all="ignore"):
            self.f = fun(self.u, self.y)
            self.h_abs = np.maximum(self._initial_step(), self.min_step)
        self.rejected = np.zeros(len(self.u), dtype=bool)

    def _min_step(self) -> np.ndarray:
        return 10.0 * (np.nextafter(self.u, np.inf) - self.u)

    def _initial_step(self) -> np.ndarray:
        """scipy's select_initial_step, column by column."""
        u, y, f = self.u, self.y, self.f
        span = self.bound - u
        scale = self.atol + np.abs(y) * self.rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1 = self.fun(u + h0, y + h0 * f)
        d2 = _rms((f1 - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (-EXPONENT))
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """One trial step for every live column.

        Returns (accept, stalled): the columns that moved, and the rejected
        columns whose next step would fall below min_step, where scipy
        stops with status -1.
        """
        u, y = self.u, self.y
        with np.errstate(all="ignore"):
            u_new = np.minimum(u + self.h_abs, self.bound)
            h = u_new - u
            # stage s is row s of K; each row holds y's shape flattened
            K = np.empty((N_STAGES + 1, y.size))
            K[0] = self.f.ravel()
            u_stage = u + C[1:N_STAGES, None] * h
            for s, a_s in enumerate(A_ROWS, start=1):
                dy = (a_s @ K[:s]).reshape(y.shape)
                K[s] = self.fun(u_stage[s - 1], y + dy * h).ravel()
            y_new = y + h * (B @ K[:N_STAGES]).reshape(y.shape)
            f_new = self.fun(u_new, y_new)
            K[N_STAGES] = f_new.ravel()
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            e5 = np.sum(((E5 @ K).reshape(y.shape) / scale) ** 2, axis=0)
            e3 = np.sum(((E3 @ K).reshape(y.shape) / scale) ** 2, axis=0)
            err = np.where((e5 == 0.0) & (e3 == 0.0), 0.0, np.abs(h) * e5
                           / np.sqrt((e5 + 0.01 * e3) * len(y)))
            accept = err < 1.0
            grow = np.where(err == 0.0, 10.0,
                            np.minimum(10.0, 0.9 * err ** EXPONENT))
            grow = np.where(self.rejected, np.minimum(1.0, grow), grow)
            # fmax: a NaN error norm shrinks by the minimum factor, as
            # Python's max(0.2, nan) does in scipy
            shrink = np.fmax(0.2, 0.9 * err ** EXPONENT)
            h_abs = np.abs(h) * np.where(accept, grow, shrink)
        self.rejected = ~accept
        self.y_old = y
        self.u = np.where(accept, u_new, u)
        self.y = np.where(accept, y_new, y)
        self.f = np.where(accept, f_new, self.f)
        # a new step starts from at least min_step at its u
        self.min_step = np.where(accept, self._min_step(), self.min_step)
        stalled = self.rejected & (h_abs < self.min_step)
        self.h_abs = np.where(accept, np.maximum(h_abs, self.min_step), h_abs)
        return accept, stalled

    def keep(self, mask: np.ndarray) -> None:
        """Drop every live column where mask is False."""
        for name in ("ids", "u", "h_abs", "min_step", "rejected"):
            setattr(self, name, getattr(self, name)[mask])
        for name in ("y", "y_old", "f"):
            setattr(self, name, getattr(self, name)[:, mask])
