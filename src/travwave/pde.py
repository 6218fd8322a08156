"""Method-of-lines evolution of the parabolic systems for cross-validation.

Explicit finite differences with a second-order Laplacian and zero-flux
boundaries (reflected ghosts, which conserve mass exactly for pure
diffusion).  The comoving frame z = x - c t adds a transport term c u_z,
discretized by first-order upwinding; its numerical diffusion |c| dz / 2
is part of the drift tolerance budget of the stationarity checks.

The scalar, Model-1 and Model-2 systems share one explicit-Euler time
loop; each supplies only its own step arithmetic and bookkeeping.

A traveling profile evolved in its own comoving frame with the matching
control must stay put; evolved in the lab frame it must translate at its
design speed, measured by `front_speed` from the u = 1/2 level set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._columns import write_columns
from .errors import (ConfigError, DomainExceededError, FrontNotFoundError,
                     InstabilityError)
from .model import Model2Params, ModelSpec
from .model2 import check_drate
from .profile import SpatialProfile, _sample_control

__all__ = ["EvolutionRecord", "FrontFit", "evolve_scalar",
           "front_speed", "evolve_model1", "evolve_model2"]

CFL_LIMIT = 0.4
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
        """One row per snapshot and cell: t,x,u[,v][,theta]."""
        n_x = len(self.x)
        cols = {"t": np.repeat(self.times, n_x),
                "x": np.tile(self.x, len(self.times)),
                "u": np.concatenate(self.u_snapshots)}
        if self.v_snapshots is not None:
            cols["v"] = np.concatenate(self.v_snapshots)
        if self.theta_snapshots is not None:
            cols["theta"] = np.concatenate(self.theta_snapshots)
        write_columns(path, cols)


def _laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    ue = np.concatenate(([u[1]], u, [u[-2]]))  # reflected ghosts, zero flux
    return (ue[:-2] - 2.0 * u + ue[2:]) / dx**2


def _upwind(u: np.ndarray, dx: float, c: float) -> np.ndarray:
    """First-order upwind discretization of u_z for the term c * u_z."""
    g = np.empty_like(u)
    if c < 0.0:
        g[1:] = (u[1:] - u[:-1]) / dx
        g[0] = 0.0
    else:
        g[:-1] = (u[1:] - u[:-1]) / dx
        g[-1] = 0.0
    return g


def _setup(x_span, dx, dt, c):
    n = int(round((x_span[1] - x_span[0]) / dx)) + 1
    x = np.linspace(x_span[0], x_span[1], n)
    dx = float(x[1] - x[0])
    dt_max = CFL_LIMIT * dx * dx
    if c is not None and c != 0.0:
        dt_max = min(dt_max, 0.5 * dx / abs(c))
    if dt is None:
        dt = dt_max
    elif dt > CFL_LIMIT * dx * dx + 1e-15:
        raise ConfigError(f"dt={dt:g} violates the CFL bound "
                          f"{CFL_LIMIT:g}*dx^2={CFL_LIMIT * dx * dx:g}")
    return x, dx, float(dt)


def _field_on_grid(initial, x) -> np.ndarray:
    if isinstance(initial, SpatialProfile):
        return np.clip(np.asarray(initial.u_at(x), dtype=float), 0.0, 1.0)
    if callable(initial):
        return np.clip(np.asarray([float(initial(xx)) for xx in x]), 0.0, 1.0)
    arr = np.asarray(initial, dtype=float)
    if arr.shape != x.shape:
        raise ConfigError(f"initial field shape {arr.shape} != grid {x.shape}")
    return np.clip(arr, 0.0, 1.0)


def _alpha_lookup(alpha_of_x, x, x_span, speed):
    """The control on the grid as a function of t: None without a control,
    a static field, or alpha_of_x translated at `speed`."""
    if alpha_of_x is None:
        return lambda t: None
    zs = np.linspace(x_span[0] - 80.0, x_span[1] + 80.0, 20001)
    vals = np.nan_to_num(_sample_control(alpha_of_x, zs), nan=0.0)
    if speed in (None, 0.0):
        static = np.interp(x, zs, vals)
        return lambda t: static
    return lambda t: np.interp(x - speed * t, zs, vals)


def _guard(u: np.ndarray, t: float) -> None:
    lo, hi = float(np.min(u)), float(np.max(u))
    if not (BLOWUP_LO <= lo and hi <= BLOWUP_HI):  # NaN fails both
        raise InstabilityError(f"field left [{BLOWUP_LO}, {BLOWUP_HI}] at "
                               f"t={t:.3f} (min={lo:.3g}, max={hi:.3g})")


def _drift(snaps: list[np.ndarray]) -> float:
    return max(float(np.max(np.abs(s - snaps[0]))) for s in snaps)


def _evolve(initial: dict, system, T, c_frame, x_span, dx, dt, snapshot_dt,
            alpha_of_x=None, control_speed=None) -> EvolutionRecord:
    """Explicit-Euler time loop shared by the evolve_* systems.

    `initial` maps field names to initial data: 'u' first, then 'v' and/or
    'theta' (the names of EvolutionRecord's snapshot lists).  The loop owns
    the grid and CFL set-up, the control lookup (static, or in the lab
    frame translated at `control_speed`), the blow-up guard on every field
    every 50 steps and at each snapshot, the snapshot cadence and the
    per-field drift.  `system(dx, dt, fields)` validates the fields on the
    grid and returns (step, report): step(fields, alpha) gives the
    fields one dt later (alpha is None without a control), and
    report(record) gives the system's own summary entries after the run.
    """
    x, dx, dt = _setup(x_span, dx, dt, c_frame)
    fields = tuple(_field_on_grid(init, x) for init in initial.values())
    step, report = system(dx, dt, fields)
    alpha_at = _alpha_lookup(alpha_of_x, x, x_span,
                             control_speed if c_frame is None else None)
    n_steps = int(round(T / dt))
    snap_every = max(1, int(round(snapshot_dt / dt)))

    times = [0.0]
    snaps = [[f.copy()] for f in fields]
    t = 0.0
    for k in range(1, n_steps + 1):
        fields = step(fields, alpha_at(t))
        t = k * dt
        snapshot = k % snap_every == 0 or k == n_steps
        if snapshot or k % 50 == 0:
            for f in fields:
                _guard(f, t)
        if snapshot:
            times.append(t)
            for s, f in zip(snaps, fields):
                s.append(f.copy())

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
    rec.summary.update(T=T, n_steps=n_steps)
    return rec


def _scalar_rhs(spec: ModelSpec, u, alpha, dx, c_frame) -> np.ndarray:
    """u_xx + f(u) - beta(u, alpha), plus c u_z in the comoving frame."""
    rhs = _laplacian(u, dx) + np.asarray(spec.f(u), dtype=float)
    if alpha is not None:
        rhs = rhs - np.asarray(spec.beta_from_alpha(u, alpha), dtype=float)
    if c_frame is not None:
        rhs = rhs + c_frame * _upwind(u, dx, c_frame)
    return rhs


def evolve_scalar(spec: ModelSpec, initial, alpha_of_x=None,
                  c_frame: float | None = None, T: float = 50.0,
                  x_span=(-60.0, 60.0), dx: float = 0.05,
                  dt: float | None = None, snapshot_dt: float = 1.0,
                  control_speed: float | None = None) -> EvolutionRecord:
    """Explicit evolution of u_t = u_xx + f(u) - beta(u, alpha).

    `c_frame` switches to the comoving frame (transport term + static
    control field); in the lab frame a moving control is produced by
    `control_speed`, translating alpha_of_x at that speed.
    """
    if alpha_of_x is not None and spec.beta_from_alpha is None:
        raise ConfigError(f"{spec.label} has no control channel "
                          "(beta_from_alpha missing)")

    def system(dx, dt, fields):
        def step(fields, alpha):
            (u,) = fields
            return (u + dt * _scalar_rhs(spec, u, alpha, dx, c_frame),)

        def report(rec):
            max_exc = 0.0
            for u in rec.u_snapshots[1:]:
                max_exc = max(max_exc, float(np.max(u)) - 1.0,
                              -float(np.min(u)))
            return {"max_excursion": max_exc}
        return step, report

    return _evolve({"u": initial}, system, T, c_frame, x_span, dx, dt,
                   snapshot_dt, alpha_of_x, control_speed)


@dataclass
class FrontFit:
    speed: float
    stderr: float
    times: np.ndarray
    positions: np.ndarray


def front_speed(record: EvolutionRecord) -> FrontFit:
    """Least-squares speed of the u = FRONT_LEVEL crossing across snapshots.

    The first 20% of the record is treated as transient; a front closer
    than BOUNDARY_MARGIN to either edge aborts the fit.
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
                  x_span=(-60.0, 60.0), dx: float = 0.05,
                  snapshot_dt: float = 1.0) -> EvolutionRecord:
    """Scalar front plus pointwise tree infection theta_t = kappa1 u (1-theta).

    In the lab frame theta is advanced by its exact exponential update
    (monotone and bounded); the comoving frame adds upwinded transport.
    The running cost integral of control plus infected trees is
    accumulated per step into summary['cost_integral'].
    """
    def system(dx, dt, fields):
        cost = 0.0
        theta_monotone = True

        def step(fields, alpha):
            nonlocal cost, theta_monotone
            u, th = fields
            if c_frame is not None:
                th_new = th + dt * (c_frame * _upwind(th, dx, c_frame)
                                    + kappa1 * u * (1.0 - th))
            else:
                th_new = 1.0 - (1.0 - th) * np.exp(-kappa1 * u * dt)
                if np.any(th_new < th - 1e-12):
                    theta_monotone = False
            cost += dt * dx * float(np.sum(
                (alpha if alpha is not None else 0.0) + th))
            return (u + dt * _scalar_rhs(spec, u, alpha, dx, c_frame),
                    np.clip(th_new, 0.0, 1.0))

        def report(rec):
            return {"cost_integral": cost,
                    "theta_monotone_in_t": theta_monotone}
        return step, report

    # a spec without a control channel evolves uncontrolled
    alpha = alpha_of_x if spec.beta_from_alpha is not None else None
    return _evolve({"u": initial_u, "theta": initial_theta}, system, T,
                   c_frame, x_span, dx, None, snapshot_dt, alpha)


def evolve_model2(spec: ModelSpec, initial_u, initial_v, initial_theta,
                  alpha_of_x=None, params: Model2Params | None = None,
                  T: float = 50.0, c_frame: float | None = None,
                  x_span=(-60.0, 60.0), dx: float = 0.05,
                  snapshot_dt: float = 1.0) -> EvolutionRecord:
    """Insect/tree system with multiplicative control (removal of insects).

    The invariant set {0 <= v <= u <= 1, theta in [0,1]} is monitored per
    snapshot; the worst violation is reported in summary['d_invariance'].
    """
    if params is None:
        params = Model2Params(1.0, 1.0, 1.0)
    check_drate(spec.f, params.d)
    k1, k2, d = params.kappa1, params.kappa2, params.d

    def system(dx, dt, fields):
        u, v, _ = fields
        if np.any(v > u + 1e-9):
            raise ConfigError("initial data violates v <= u")

        def step(fields, alpha):
            u, v, th = fields
            al = 0.0 if alpha is None else alpha
            rhs_u = _laplacian(u, dx) + np.asarray(spec.f(u), dtype=float) \
                - al * u
            rhs_v = _laplacian(v, dx) + k2 * (u - v) * th - (al + d) * v
            rhs_th = k1 * v * (1.0 - th)
            if c_frame is not None:
                rhs_u = rhs_u + c_frame * _upwind(u, dx, c_frame)
                rhs_v = rhs_v + c_frame * _upwind(v, dx, c_frame)
                rhs_th = rhs_th + c_frame * _upwind(th, dx, c_frame)
            return u + dt * rhs_u, v + dt * rhs_v, th + dt * rhs_th

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
                   system, T, c_frame, x_span, dx, None, snapshot_dt, alpha_of_x)
