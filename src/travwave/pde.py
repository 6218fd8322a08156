"""Method-of-lines evolution of the parabolic systems for cross-validation.

Finite differences on a uniform grid: a second-order Laplacian with
zero-flux boundaries (reflected ghosts, which conserve mass exactly for
pure diffusion) and, in the comoving frame z = x - c t, a transport term
c u_z discretized by first-order upwinding; its numerical diffusion
|c| dz / 2 is part of the drift tolerance budget of the stationarity
checks.

Time stepping is second-order SBDF2 (Ascher, Ruuth & Wetton, SIAM J.
Numer. Anal. 32(3), 1995): diffusion and transport A are implicit,
reaction and control R are extrapolated explicitly,

    (I - 2/3 dt A) u+ = (4 u - u-) / 3 + 2/3 dt (2 R(u) - R(u-)),

with one IMEX Euler step, (I - dt A) u+ = u + dt R(u), to start a run.
Each tridiagonal operator is built and LU-factored (LAPACK gttrf) at
2/3 dt and at dt once per run, and a step is one gttrs solve against the
factors; R is evaluated once per step and carried to the next.  SBDF2 is
not monotone, so positivity and comparison are not guaranteed: the step
bound dt * rate_bound <= 1 is a stability condition for the explicit
extrapolation, and the blow-up guard checks every field every step.  A
fixed point of the step solves the semi-discrete equation for any dt, so
the comoving drift measures spatial error only.  On snapshot steps the
IMEX Euler step from the same u is taken as well; the largest difference
of the two is summary['time_error'], an estimate of the local time error.

The scalar, Model-1 and Model-2 systems share one time loop and one SBDF2
step for every field; each supplies its reactions, rates and bookkeeping.

A traveling profile evolved in its own comoving frame with the matching
control must stay put; evolved in the lab frame it must translate at its
design speed, measured by `front_speed` from the u = 1/2 level set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from ._columns import write_snapshots
from .errors import (ConfigError, DomainExceededError, FrontNotFoundError,
                     InstabilityError, InvalidParameterError)
from .model import Model2Params, ModelSpec, _check_positive
from .model2 import check_drate
from .phaseplane import _sample_control
from .profile import SpatialProfile

__all__ = ["EvolutionRecord", "FrontFit", "evolve_scalar",
           "front_speed", "evolve_model1", "evolve_model2"]

# dt = min(DT_MAX, DT_ACCURACY / max(sup|f'|, *extra_rates), 1 / rate_bound),
# cut to a whole number of steps per snapshot interval SNAPSHOT_DT
DT_MAX, DT_ACCURACY, SNAPSHOT_DT = 0.1, 0.25, 1.0
BLOWUP_LO, BLOWUP_HI = -0.01, 1.01
FRONT_LEVEL, BOUNDARY_MARGIN = 0.5, 10.0  # see front_speed


@dataclass
class EvolutionRecord:
    x: np.ndarray
    times: np.ndarray
    u_snapshots: list[np.ndarray]
    dx: float
    dt: float
    frame: str
    c: float | None
    v_snapshots: list[np.ndarray] | None = None
    theta_snapshots: list[np.ndarray] | None = None
    summary: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """One row per snapshot and cell: t,x,u[,v][,theta].

        Each x is formatted once per file and each t once per snapshot;
        the field values of a snapshot are formatted as one block.
        """
        fields = {"u": self.u_snapshots, "v": self.v_snapshots,
                  "theta": self.theta_snapshots}
        write_snapshots(path, self.times, self.x,
                        {k: s for k, s in fields.items() if s is not None})


def _operator(n: int, dx: float, dt: float, c: float | None,
              diffusion: bool = True) -> np.ndarray:
    """I - dt (D2 + c U) on n cells as a (1, 1) banded array.

    D2 is the second difference with reflected ghosts (zero flux), left out
    for `diffusion=False`; U is the first-order upwind u_z for the term
    c u_z (one-sided towards +z for c >= 0, towards -z for c < 0), absent
    for c None.  Row i holds the coefficients of u[i-1], u[i], u[i+1] in
    ab[2, i-1], ab[1, i], ab[0, i+1].
    """
    ab = np.zeros((3, n))
    ab[1] = 1.0
    if diffusion:
        k = dt / dx**2
        ab[0, 1:] -= k
        ab[1] += 2.0 * k
        ab[2, :-1] -= k
        ab[0, 1] -= k       # ghost u[-1] = u[1]
        ab[2, -2] -= k      # ghost u[n] = u[n-2]
    if c:
        k = dt * abs(c) / dx
        if c < 0.0:         # c (u[i] - u[i-1]) / dx for i >= 1
            ab[1, 1:] += k
            ab[2, :-1] -= k
        else:               # c (u[i+1] - u[i]) / dx for i <= n-2
            ab[1, :-1] += k
            ab[0, 1:] -= k
    return ab


def _factor(ab: np.ndarray) -> tuple:
    """LU factors (LAPACK gttrf) of a (1, 1) banded operator."""
    *lu, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise ConfigError(f"implicit operator is singular (gttrf info={info})")
    return tuple(lu)


@dataclass(frozen=True)
class _Scheme:
    """The two halves of one SBDF2 step on a run's grid.

    `explicit(w, r, prev)` is the known side of a step from the field w
    with explicit reaction r: (4w - w-)/3 + 2/3 dt (2r - r-) given the
    previous step's pair prev = (w-, r-), or the IMEX Euler w + dt r for
    prev None.  `diffuse(b, start)` solves I - h (D2 + c U) against it and
    `transport(b, start)` solves I - h c U, which is the identity in the
    lab frame (no factors); h = 2/3 dt, or dt for the Euler `start`.  Each
    holds the gttrf factors of its operator at both h, and several fields
    may be stacked as columns of b.
    """
    dx: float
    dt: float
    diffusion_lu: tuple         # (factors at 2/3 dt, factors at dt)
    transport_lu: tuple | None

    @classmethod
    def build(cls, n: int, dx: float, dt: float, c: float | None):
        def factors(diffusion):
            return tuple(_factor(_operator(n, dx, h, c, diffusion))
                         for h in (2.0 * dt / 3.0, dt))
        return cls(dx, dt, factors(True),
                   None if c is None else factors(False))

    def explicit(self, w: np.ndarray, r: np.ndarray, prev) -> np.ndarray:
        if prev is None:
            return w + self.dt * r
        w0, r0 = prev
        # in place, bit-equal to the formula without its temporaries
        a = 4.0 * w
        a -= w0
        a /= 3.0
        b = 2.0 * r
        b -= r0
        b *= 2.0 * self.dt / 3.0
        a += b
        return a

    def diffuse(self, b: np.ndarray, start: bool) -> np.ndarray:
        # gttrs does not check for finiteness: a NaN reaches the blow-up
        # guard as NaN
        return lapack.dgttrs(*self.diffusion_lu[start], b)[0]

    def transport(self, b: np.ndarray, start: bool) -> np.ndarray:
        if self.transport_lu is None:
            return b
        return lapack.dgttrs(*self.transport_lu[start], b)[0]


def _time_step(rate, rate_bound) -> float:
    """dt from the accuracy target on the fastest field's explicit rate and
    the step bound, the stability condition of the explicit extrapolation."""
    dt = 1.0 / max(1.0 / DT_MAX, rate / DT_ACCURACY, rate_bound)
    # 1e-9: a ratio one rounding above a whole number stays that number
    return SNAPSHOT_DT / math.ceil(SNAPSHOT_DT / dt - 1e-9)


def _field_on_grid(initial, x) -> np.ndarray:
    if isinstance(initial, SpatialProfile):
        return np.clip(np.asarray(initial.u_at(x), dtype=float), 0.0, 1.0)
    if callable(initial):
        return np.clip(np.asarray([float(initial(xx)) for xx in x]), 0.0, 1.0)
    arr = np.asarray(initial, dtype=float)
    if arr.shape != x.shape:
        raise ConfigError(f"initial field shape {arr.shape} != grid {x.shape}")
    return np.clip(arr, 0.0, 1.0)


def _alpha_lookup(alpha_of_x, x, x_span, speed, T):
    """The control on the grid as a function of t (None without a control,
    a static field, or alpha_of_x translated at `speed`) and its sup, both
    from one table over x_span padded by max(80, |speed| T), the sweep of
    a run to T, at 20001 points for the 80 pad and no coarser beyond.  The
    sup is over the table nodes that bracket the points a run reads,
    x - speed t for t in [0, T]: [lo, hi] for a static control.  A NaN or
    infinite sample raises InvalidParameterError naming its x."""
    if alpha_of_x is None:
        return (lambda t: None), 0.0
    lo, hi = x_span
    pad = max(80.0, abs(speed or 0.0) * T)
    n = math.ceil(20000 * (hi - lo + 2 * pad) / (hi - lo + 160.0)) + 1
    zs = np.linspace(lo - pad, hi + pad, n)
    vals = _sample_control(alpha_of_x, zs)
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise InvalidParameterError(
            f"control alpha({zs[bad[0]]:.6g}) = {vals[bad[0]]} is not finite")
    sweep = (speed or 0.0) * T
    first = np.searchsorted(zs, lo - max(0.0, sweep), side="right") - 1
    last = np.searchsorted(zs, hi - min(0.0, sweep), side="left")
    sup = float(np.max(vals[max(first, 0):last + 1]))
    if speed in (None, 0.0):
        static = np.interp(x, zs, vals)
        return (lambda t: static), sup
    return (lambda t: np.interp(x - speed * t, zs, vals)), sup


def _guard(u: np.ndarray, t: float) -> None:
    lo, hi = float(u.min()), float(u.max())
    if not (BLOWUP_LO <= lo and hi <= BLOWUP_HI):  # NaN fails both
        raise InstabilityError(f"field left [{BLOWUP_LO}, {BLOWUP_HI}] at "
                               f"t={t:.3f} (min={lo:.3g}, max={hi:.3g})")


def _drift(snaps: list[np.ndarray]) -> float:
    return max(float(np.max(np.abs(s - snaps[0]))) for s in snaps)


def _control_channel(spec: ModelSpec, alpha_of_x):
    """alpha_of_x for a u-equation that removes beta_from_alpha(u, alpha)."""
    if alpha_of_x is not None and spec.beta_from_alpha is None:
        raise ConfigError(f"{spec.label} has no control channel "
                          "(beta_from_alpha missing)")
    return alpha_of_x


def _evolve(initial: dict, system, spec: ModelSpec, T, c_frame, x_span, dx,
            extra_rates, alpha_of_x=None,
            control_speed=None) -> EvolutionRecord:
    """SBDF2 time loop shared by the evolve_* systems.

    `initial` maps field names to initial data: 'u' first, then 'v' and/or
    'theta' (the names of EvolutionRecord's snapshot lists).  The loop owns
    the grid, the control lookup (static, or in the lab frame translated
    at `control_speed`), the step bound and dt, the factored operators, the
    previous step's fields and reactions, the blow-up guard on every field
    every step, the snapshot cadence, the per-field drift and the
    time-error estimate of u.  `extra_rates` holds the explicit rate of
    each extra field: none for the scalar system, kappa1 for Model 1's
    theta, d + kappa2 for Model 2's v and kappa1 for its theta.  The step
    bound rate_bound = sup|f'| + sup alpha + sum(extra_rates) bounds the
    Lipschitz constant of the explicit reaction, and the accuracy target
    dt * max(sup|f'|, *extra_rates) <= DT_ACCURACY holds every field to
    the same standard.  `system(scheme, fields)` validates the fields on
    the grid and returns (step, report): step(fields, alpha, prev) gives
    the fields one dt later through the `_Scheme` and the explicit
    reactions it evaluated at `fields`, one per field (alpha is None
    without a control; prev holds one (field, reaction) pair per field
    from the step before, or one None per field at the start), and
    report(record) gives the system's own summary entries after the run.
    Unless T is finite and >= 0, dx finite and > 0 and x_span = (lo, hi)
    a finite span of at least two cells, ConfigError is raised; a NaN or
    infinite c_frame or control_speed raises InvalidParameterError.
    """
    for name, speed in (("c_frame", c_frame),
                        ("control_speed", control_speed)):
        if speed is not None and not math.isfinite(speed):
            raise InvalidParameterError(f"{name} must be finite, got {speed}")
    lo, hi = x_span
    if not (0.0 <= T < math.inf and 0.0 < dx < math.inf
            and 2.0 <= (hi - lo) / dx < math.inf):
        raise ConfigError(f"need T >= 0, dx > 0 and hi - lo >= 2 dx, all "
                          f"finite; got T={T}, dx={dx}, x_span=({lo}, {hi})")
    x = np.linspace(lo, hi, int(round((hi - lo) / dx)) + 1)
    dx = float(x[1] - x[0])
    fields = tuple(_field_on_grid(init, x) for init in initial.values())
    alpha_at, alpha_sup = _alpha_lookup(
        alpha_of_x, x, x_span, control_speed if c_frame is None else None, T)
    f_rate = float(np.max(np.abs(spec.df(np.linspace(0.0, 1.0, 2001)))))
    rate_bound = f_rate + alpha_sup + sum(extra_rates)
    dt = _time_step(max((f_rate, *extra_rates)), rate_bound)
    scheme = _Scheme.build(len(x), dx, dt, c_frame)
    step, report = system(scheme, fields)
    n_steps = int(round(T / dt))
    snap_every = max(1, int(round(SNAPSHOT_DT / dt)))

    times = [0.0]
    snaps = [[f.copy()] for f in fields]
    t, time_error = 0.0, 0.0
    prev = (None,) * len(fields)
    for k in range(1, n_steps + 1):
        new, reactions = step(fields, alpha_at(t), prev)
        prev = tuple(zip(fields, reactions))
        fields = new
        t = k * dt
        for f in fields:
            _guard(f, t)
        if k % snap_every == 0 or k == n_steps:
            times.append(t)
            for s, f in zip(snaps, fields):
                s.append(f.copy())
            euler = scheme.diffuse(scheme.explicit(*prev[0], None), True)
            time_error = max(time_error,
                             float(np.max(np.abs(fields[0] - euler))))

    rec = EvolutionRecord(
        x=x, times=np.asarray(times), dx=dx, dt=dt, c=c_frame,
        frame="lab" if c_frame is None else "comoving",
        **{f"{name}_snapshots": s for name, s in zip(initial, snaps)})
    drift = [_drift(s) for s in snaps]
    rec.summary = {"max_drift": drift[0]}
    rec.summary.update({f"{name}_drift": d
                        for name, d in zip(list(initial)[1:], drift[1:])})
    if len(drift) > 1:
        rec.summary["joint_drift"] = max(drift)
    rec.summary.update(report(rec))
    rec.summary.update(T=T, n_steps=n_steps, rate_bound=rate_bound,
                       dt_rate=dt * rate_bound, time_error=time_error)
    return rec


def _reaction(spec: ModelSpec, u, alpha) -> np.ndarray:
    """f(u) - beta(u, alpha): the explicit part of the scalar u-equation."""
    r = np.asarray(spec.f(u), dtype=float)
    if alpha is not None:
        r = r - np.asarray(spec.beta_from_alpha(u, alpha), dtype=float)
    return r


def evolve_scalar(spec: ModelSpec, initial, alpha_of_x=None,
                  c_frame: float | None = None, T: float = 50.0,
                  x_span=(-60.0, 60.0), dx: float = 0.05,
                  control_speed: float | None = None) -> EvolutionRecord:
    """SBDF2 evolution of u_t = u_xx + f(u) - beta(u, alpha).

    `c_frame` switches to the comoving frame (transport term + static
    control field); in the lab frame a moving control is produced by
    `control_speed`, translating alpha_of_x at that speed.
    """
    def system(scheme, fields):
        def step(fields, alpha, prev):
            (u,), (p,) = fields, prev
            r = _reaction(spec, u, alpha)
            return (scheme.diffuse(scheme.explicit(u, r, p), p is None),), (r,)

        def report(rec):
            max_exc = 0.0
            for u in rec.u_snapshots[1:]:
                max_exc = max(max_exc, float(np.max(u)) - 1.0,
                              -float(np.min(u)))
            return {"max_excursion": max_exc}
        return step, report

    return _evolve({"u": initial}, system, spec, T, c_frame, x_span, dx, (),
                   _control_channel(spec, alpha_of_x), control_speed)


@dataclass
class FrontFit:
    speed: float
    stderr: float
    times: np.ndarray
    positions: np.ndarray


def front_speed(record: EvolutionRecord) -> FrontFit:
    """Least-squares speed of the u = FRONT_LEVEL crossing across snapshots.

    The first 20% of the record is treated as transient; a front closer
    than BOUNDARY_MARGIN to either edge aborts the fit, and fewer than two
    positions after the transient raise ConfigError.
    """
    x = record.x
    positions = []
    for u in record.u_snapshots:
        above = u >= FRONT_LEVEL
        if np.all(above) or not np.any(above):
            raise FrontNotFoundError(
                f"no u={FRONT_LEVEL:g} crossing in a snapshot (field is "
                f"{'all above' if np.all(above) else 'all below'})")
        i = int(np.argmax(above))
        if i == 0:
            raise FrontNotFoundError("front touches the left boundary")
        x0, x1 = x[i - 1], x[i]
        u0, u1 = u[i - 1], u[i]
        positions.append(x0 + (FRONT_LEVEL - u0) * (x1 - x0) / (u1 - u0))
    positions = np.asarray(positions)
    if np.any(positions < x[0] + BOUNDARY_MARGIN) or \
            np.any(positions > x[-1] - BOUNDARY_MARGIN):
        raise DomainExceededError(
            f"front within {BOUNDARY_MARGIN:g} of the domain boundary")

    k0 = int(np.floor(0.2 * len(positions)))
    tt = record.times[k0:]
    pp = positions[k0:]
    if len(tt) < 2:
        raise ConfigError(f"front_speed fits a line to {len(tt)} front "
                          "position(s) after the transient; it needs two")
    A = np.column_stack([tt, np.ones_like(tt)])
    coef, res, *_ = np.linalg.lstsq(A, pp, rcond=None)
    n = len(tt)
    if n > 2 and len(res):
        sigma2 = float(res[0]) / (n - 2)
        stderr = float(np.sqrt(sigma2 / np.sum((tt - tt.mean()) ** 2)))
    else:
        stderr = float("nan")
    return FrontFit(float(coef[0]), stderr, tt, pp)


def evolve_model1(spec: ModelSpec, initial_u, initial_theta,
                  alpha_of_x=None, kappa1: float = 1.0,
                  T: float = 50.0, c_frame: float | None = None,
                  x_span=(-60.0, 60.0), dx: float = 0.05) -> EvolutionRecord:
    """Scalar front plus pointwise tree infection theta_t = kappa1 u (1-theta).

    theta takes the same SBDF2 step as Model 2's theta: its reaction
    kappa1 u (1 - theta) is extrapolated explicitly and only transport is
    implicit (none in the lab frame); kappa1 is its rate in the step
    bound and the accuracy target.  In the lab frame
    summary['theta_monotone_in_t'] is False once a step lowers theta in
    some cell by more than 1e-12; in the comoving frame, where a
    translating profile lowers theta at fixed z, it is None.  The running
    cost integral of control plus infected trees is accumulated per step,
    by the trapezoid rule, into summary['cost_integral'].  kappa1 must be
    finite and positive.
    """
    _check_positive("kappa1", kappa1)

    def system(scheme, fields):
        cost = 0.0
        theta_monotone = True

        def step(fields, alpha, prev):
            nonlocal cost, theta_monotone
            (u, th), (p_u, p_th) = fields, prev
            start = p_u is None
            r_u = _reaction(spec, u, alpha)
            r_th = kappa1 * u * (1.0 - th)
            u_new = scheme.diffuse(scheme.explicit(u, r_u, p_u), start)
            th_new = scheme.transport(scheme.explicit(th, r_th, p_th), start)
            if c_frame is None:  # theta_t >= 0 holds at fixed x only
                theta_monotone &= not np.any(th_new < th - 1e-12)
            # alpha is static in both frames
            cost += scheme.dt * scheme.dx * float(np.sum(
                (alpha if alpha is not None else 0.0) + 0.5 * (th + th_new)))
            return (u_new, th_new), (r_u, r_th)

        def report(rec):
            return {"cost_integral": cost, "theta_monotone_in_t":
                    theta_monotone if c_frame is None else None}
        return step, report

    return _evolve({"u": initial_u, "theta": initial_theta}, system, spec, T,
                   c_frame, x_span, dx, (kappa1,),
                   _control_channel(spec, alpha_of_x))


def evolve_model2(spec: ModelSpec, initial_u, initial_v, initial_theta,
                  alpha_of_x=None, params: Model2Params | None = None,
                  T: float = 50.0, c_frame: float | None = None,
                  x_span=(-60.0, 60.0), dx: float = 0.05) -> EvolutionRecord:
    """Insect/tree system with multiplicative control (removal of insects).

    u and v diffuse through one implicit operator, solved as two columns
    of one banded system; theta is only transported.  v's explicit rate
    is d + kappa2 and theta's kappa1, so the step bound adds d + kappa1 +
    kappa2 to sup|f'| + sup alpha.  The invariant set
    {0 <= v <= u <= 1, theta in [0,1]} is monitored per snapshot; the
    worst violation is reported in summary['d_invariance'].
    """
    if params is None:
        params = Model2Params(1.0, 1.0, 1.0)
    check_drate(spec.f, params.d)
    k1, k2, d = params.kappa1, params.kappa2, params.d

    def system(scheme, fields):
        u, v, _ = fields
        if np.any(v > u + 1e-9):
            raise ConfigError("initial data violates v <= u")

        def step(fields, alpha, prev):
            (u, v, th), (p_u, p_v, p_th) = fields, prev
            start = p_u is None
            al = 0.0 if alpha is None else alpha
            r_u = np.asarray(spec.f(u), dtype=float) - al * u
            r_v = k2 * (u - v) * th - (al + d) * v
            r_th = k1 * v * (1.0 - th)
            uv = scheme.diffuse(np.column_stack((
                scheme.explicit(u, r_u, p_u), scheme.explicit(v, r_v, p_v))),
                start)
            th_new = scheme.transport(scheme.explicit(th, r_th, p_th), start)
            return (uv[:, 0], uv[:, 1], th_new), (r_u, r_v, r_th)

        def report(rec):
            d_inv = 0.0
            for u, v, th in zip(rec.u_snapshots[1:], rec.v_snapshots[1:],
                                rec.theta_snapshots[1:]):
                d_inv = max(d_inv, float(np.max(v - u)),
                            -float(np.min(v)), -float(np.min(th)),
                            float(np.max(th)) - 1.0, float(np.max(u)) - 1.0,
                            -float(np.min(u)))
            return {"d_invariance": d_inv}
        return step, report

    return _evolve({"u": initial_u, "v": initial_v, "theta": initial_theta},
                   system, spec, T, c_frame, x_span, dx, (d + k2, k1),
                   alpha_of_x)
