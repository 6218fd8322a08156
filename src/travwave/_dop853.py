"""scipy's DOP853 on plain floats.

The integrator follows scipy's `DOP853` control with its tableau, held here:
the initial step (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4),
the error norm, safety 0.9, factors 0.2/10, exponent -1/8 and min_step,
below which a run fails (sec. II.5).

`solve_ivp` is scipy's ``solve_ivp(..., method="DOP853")`` for a system
of a few components, on plain Python floats: at one to three components
most of a scipy step is numpy's per-call overhead on tiny arrays.  It
keeps scipy's event rule and dense output, and counts RHS calls as scipy
does; its events are (g, direction) pairs, and a run reports which one
`ended` it.  Its step is straight-line code that `_kernel` writes from
the tableau, once per number of components, with the arithmetic of the
per-stage loops it replaced (tests/test_dop853.py keeps them as its
oracle).
"""

from __future__ import annotations

import functools
import linecache
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._roots import RTOL, brent


def _full(rows, width: int) -> np.ndarray:
    """An array of len(rows) rows of `width` zeros, but for each row's
    {column: value} entries."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


# DOP853's tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5),
# copied from scipy's integrate/_ivp/dop853_coefficients.py (BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers): the 16
# nodes, the nonzero a[s, j] of stages 1..15 a row each, the error weights
# and the dense output's rows.  A, C, A_EXTRA and C_EXTRA are cut from them
# as scipy's DOP853 cuts them, and its error estimator is of order 7.
N_STAGES = 12
_C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01, 0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])
_A = _full([{},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1, 3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1, 4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1, 4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2, 6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825, 4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1, 6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468, 4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1, 6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1, 8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357, 6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1, 4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1, 6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674, 8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1, 10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566, 6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227, 8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1, 10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1, 7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1, 9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3, 11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2, 6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2, 10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4, 12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331, 8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3, 13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
], 16)
B = _A[N_STAGES, :N_STAGES]
E3 = np.append(B, 0.0) - _full([{0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547, 11: 0.220588235294117647058823529412e-1}], 13)[0]
E5 = _full([{0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1, 6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1, 8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841, 10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}], 13)[0]
D = _full([
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590, 6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1, 8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490, 10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290, 12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2, 14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3, 6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3, 8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1, 10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1, 12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2, 14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3, 6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3, 8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1, 10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740, 12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2, 14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3, 6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3, 8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2, 10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2, 12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2, 14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
], 16)
A, C = _A[:N_STAGES, :N_STAGES], _C[:N_STAGES]
A_EXTRA, C_EXTRA = _A[N_STAGES + 1:], _C[N_STAGES + 1:]
EXPONENT = -1.0 / (7 + 1)
# the same tableau as plain floats: (c, a row) of stages 1..11 and of the
# three extra stages of the dense output, which see every stage before them
STAGES = [(float(C[s]), tuple(A[s, :s].tolist()))
          for s in range(1, N_STAGES)]
EXTRA_STAGES = [(float(c), tuple(a[:s].tolist())) for s, (c, a)
                in enumerate(zip(C_EXTRA, A_EXTRA), start=N_STAGES + 1)]
B_ROW, E3_ROW, E5_ROW = (tuple(r.tolist()) for r in (B, E3, E5))
D_ROWS = [tuple(r.tolist()) for r in D]
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


def _dot(row, i: int) -> str:
    """The source of sum(map(mul, row, ks)) over component i's stage
    values ks: from the int 0, as sum starts, each term added left to
    right, zero entries kept (0.0 times an infinite stage value is NaN,
    which must reach the next stage)."""
    return "0" + "".join(f" + {a!r} * k{j}_{i}" for j, a in enumerate(row))


@functools.cache
def _kernel(m: int):
    """(trial, dense): one DOP853 step on m components as straight-line
    code, written from the tableau and compiled once per m.

    trial(fun, t, y, f, h, rtol, atol) returns (y_new, f_new, K, err): K
    holds each component's stage values, f to f_new, and err is scipy's
    error norm, scaled by the larger of |y_new| and |y|.  dense(fun,
    t_old, y_old, y, h, K) pays the three extra stages and returns the
    step's interpolant (t_old, h, y_old, Horner coefficients).

    Stage s of component i is the local k{s}_{i}, so a step builds no
    per-stage list, zip or sum.  Every dot product is the loops' sum
    written out by `_dot`, so every output is theirs to the bit, and a NaN
    where they had one (CPython 3.12's compensated sum would round
    otherwise).  linecache holds the source as "<dop853 step m=...>", so
    a traceback through a stage shows its line.
    """
    comps = range(m)

    def row(stem: str) -> str:  # one name per component, a list display
        return "[" + ", ".join(f"{stem}_{i}" for i in comps) + "]"

    def stages(t: str, table, first: int):
        for s, (c, a) in enumerate(table, start=first):
            yield from (f"    z_{i} = y_{i} + ({_dot(a, i)}) * h"
                        for i in comps)
            yield f"    {row(f'k{s}')} = fun({t} + {c!r} * h, {row('z')})"

    end = N_STAGES  # the stage index of f_new
    K = "(" + "".join(f"k{s}_{i}, " for i in comps
                      for s in range(end + 1)) + ")"
    e5, e3 = ("0.0" + "".join(f" + {r}_{i} * {r}_{i}" for i in comps)
              for r in ("r5", "r3"))
    source = "\n".join([
        "def trial(fun, t, y, f, h, rtol, atol):",
        f"    {row('y')} = y",
        f"    {row('k0')} = f",
        *stages("t", STAGES, 1),
        *(f"    n_{i} = y_{i} + h * ({_dot(B_ROW, i)})" for i in comps),
        f"    y_new = {row('n')}",
        "    f_new = fun(t + h, y_new)",
        f"    {row(f'k{end}')} = f_new",
        *(line for i in comps for line in (
            # y_new first: a NaN there propagates, as in np.maximum
            f"    s_{i} = atol + max(abs(n_{i}), abs(y_{i})) * rtol",
            f"    r5_{i} = ({_dot(E5_ROW, i)}) / s_{i}",
            f"    r3_{i} = ({_dot(E3_ROW, i)}) / s_{i}")),
        f"    e5, e3 = {e5}, {e3}",
        "    err = 0.0 if e5 == 0.0 and e3 == 0.0 else abs(h) * e5 / sqrt("
        f"(e5 + 0.01 * e3) * {m})",
        f"    return y_new, f_new, {K}, err",
        "",
        "",
        "def dense(fun, t_old, y_old, y, h, K):",
        f"    {row('y')} = y_old",
        f"    {K} = K",
        *stages("t_old", EXTRA_STAGES, end + 1),
        f"    {row('n')} = y",
        *(f"    dv_{i} = n_{i} - y_{i}" for i in comps),
        # per component, in Horner order: d6, d5, d4, d3, the cubic's three
        "    return t_old, h, y_old, [",
        *("        (" + "".join(f"h * ({_dot(r, i)}), " for r in D_ROWS[::-1])
          + f"2 * dv_{i} - h * (k{end}_{i} + k0_{i}), "
          f"h * k0_{i} - dv_{i}, dv_{i})," for i in comps),
        "    ]\n"])
    filename = f"<dop853 step m={m}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["trial"], namespace["dense"]


def _step(trial, fun, t, y, f, h_abs, t1, direction, rtol, atol):
    """scipy's step control from (t, y): `trial` steps until one is
    accepted.

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
        y_new, f_new, K, err = trial(fun, t, y, f, h, rtol, atol)
        trials += 1
        if err < 1.0:
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** EXPONENT)
            h_abs *= min(1.0, factor) if rejected else factor
            return trials, (t_new, y_new, f_new, K, h, h_abs)
        # max(0.2, NaN) is 0.2: a NaN error shrinks by the minimum factor
        h_abs *= max(0.2, 0.9 * err ** EXPONENT)
        rejected = True
    return trials, None


def solve_ivp(fun, t_span, y0, rtol: float, atol: float,
              dense_output: bool = False, events=()) -> Run:
    """Integrate y' = fun(t, y) over t_span on plain floats, as scipy's
    ``solve_ivp(..., method="DOP853")`` does.

    fun(t, y) gets a float t and a list of floats and returns a sequence
    of as many floats.  An event (g, direction) ends the run at the first
    root of the float g(t, y) crossed upward (direction 1), downward (-1)
    or either way (0): at each accepted step the events whose value crossed
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
    trial, dense = _kernel(len(y))
    h_abs = _initial_step(fun, t, y, f, t1, direction, rtol, atol)
    nfev = 1 if t == t1 else 2
    g_old = [g(t, y) for g, _ in events]
    ts, ys, steps = [t], [y], []
    ended, running = len(events), t != t1
    if not running:
        # nothing to integrate: scipy's one constant step
        ts, ys = [t, t], [y, y]
    while running:
        trials, accepted = _step(trial, fun, t, y, f, h_abs, t1, direction,
                                 rtol, atol)
        nfev += N_STAGES * trials
        if accepted is None:
            ended = None
            break
        t_old, y_old = t, y
        t, y, f, K, h, h_abs = accepted
        running = direction * (t - t1) < 0
        step = None
        if dense_output:
            step = dense(fun, t_old, y_old, y, h, K)
            nfev += len(EXTRA_STAGES)
            steps.append(step)
        if events:
            g_new = [g(t, y) for g, _ in events]
            active = [i for i, ((_, d), a, b) in
                      enumerate(zip(events, g_old, g_new))
                      if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b)]
            if active:
                if step is None:
                    step = dense(fun, t_old, y_old, y, h, K)
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
    return brent(lambda s: g(s, _at(step, s)), t_old, t, xtol=RTOL)
