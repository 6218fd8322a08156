"""Reaction terms, control-cost densities and assumption checkers.

A scalar invasion model is the pair (f, L): a bistable growth rate f on
[0,1] and a cost density L(u, beta) for removing population at rate beta.
Both built-in families come from weed-removal / insect-removal dynamics:

  cubic family:   f(u) = rate * u (u - u*) (1 - u)
                  L(u, beta) = beta / (m(u) - beta),  m(u) = rate * u (u - u*)
                  (finite only for beta < m(u); control is useless below u*)

  logistic:       f(u) = kappa3 (1 - u) u,   L(u, beta) = beta / u

The bistable assumption (checked by `check_A1`) asks for f(0)=f(1)=0 with
f'(0), f'(1) < 0 and a single interior zero u* with f'(u*) > 0; the cost
assumption (`check_A2`) asks for strict convexity and superlinear growth of
beta -> L(u, beta).  The logistic model intentionally fails both: it is
monostable with a linear cost, and downstream solvers gate on the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NoReturn

import numpy as np

from ._roots import sign_changes
from .errors import (ConvexityViolationError, InvalidParameterError,
                     SingularityError)

__all__ = [
    "ModelSpec",
    "Model2Params",
    "make_weed_model",
    "make_cubic_model",
    "make_logistic_model",
    "check_A1",
    "check_A2",
    "A1Report",
    "A2Report",
]

FD_TOL = 1e-5  # relative error check_A2 allows the partials against FD
MAX_F_SAMPLES = 2001  # grid on [0, 1] on which ModelSpec.max_f samples f


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of a growth rate and its control-cost density.

    Units: f has dimension 1/time, u is dimensionless, the diffusion
    coefficient is fixed to 1 by rescaling space.  ``beta_max(u)`` is the
    finiteness boundary of ``L(u, .)``; ``beta_from_alpha`` inverts the
    cost map, returning the removal rate produced by spending alpha.
    ``pmp_rhs(u, P, beta, c) -> (dP, dbeta)``, when given, is a fused
    right-hand side of the Pontryagin system (see `travwave.pmp`) computed
    directly from the model's parameters.  It takes floats and is equal to
    the bit to the one `pmp._generic_rhs` builds from the callables above,
    which the solvers use without it.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    u_star: float
    L: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L_beta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L_betabeta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    L_ubeta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    beta_max: Callable[[np.ndarray], np.ndarray]
    label: str
    beta_from_alpha: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    pmp_rhs: Callable[[float, float, float, float], tuple[float, float]] | None = None

    def max_f(self) -> float:
        u = np.linspace(0.0, 1.0, MAX_F_SAMPLES)
        return float(np.max(self.f(u)))


def _check_positive(name: str, value: float) -> None:
    """Raise InvalidParameterError unless value is finite and positive."""
    if not 0.0 < value < math.inf:
        raise InvalidParameterError(
            f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Model2Params:
    """Infection/death rates of the insect-tree system (all 1/time)."""

    kappa1: float
    kappa2: float
    d: float

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "d"):
            _check_positive(name, getattr(self, name))

    @property
    def v_star(self) -> float:
        """Asymptotic infected-insect density kappa2 / (kappa2 + d)."""
        return self.kappa2 / (self.kappa2 + self.d)


def _refuse_rhs(u, P, beta, b, Lbb) -> NoReturn:
    """Refuse a Pontryagin right-hand side whose L_betabeta(u, b) at the
    clamped control b is not finite and positive: SingularityError when
    the state (P, beta) itself is not finite, which would otherwise be
    misreported, else ConvexityViolationError."""
    if not (math.isfinite(P) and math.isfinite(beta)):
        raise SingularityError(
            f"non-finite Pontryagin state at U={u:.8f}: P={P:g}, beta={beta:g}",
            location=u)
    raise ConvexityViolationError(
        f"L_betabeta({u:.6f}, {b:.3g}) = {Lbb:g} is not positive")


def make_cubic_model(u_star: float, rate: float = 1.0) -> ModelSpec:
    """Bistable cubic f(u) = rate * u (u-u*) (1-u) with the matching cost.

    The control shrinks the carrying capacity; spending alpha removes
    beta = (1 - 1/(1+alpha)) * rate * u (u-u*), so the cost of a removal
    rate beta is beta / (m - beta) with m = rate * u (u-u*).  Below u* the
    control is counterproductive and any positive beta costs +inf.
    """
    if not (0.0 < u_star <= 0.5):
        raise InvalidParameterError(f"u_star must lie in (0, 1/2], got {u_star}")
    _check_positive("rate", rate)
    a, k = float(u_star), float(rate)

    def f(u):
        return k * u * (u - a) * (1.0 - u)

    def df(u):
        return k * (-3.0 * u * u + 2.0 * (1.0 + a) * u - a)

    def m_of(u):
        return k * u * (u - a)

    def dm_of(u):
        return k * (2.0 * u - a)

    def beta_max(u):
        # plain-float branch for the integrators' scalar calls (np.float64
        # is a float); the same operations as the array form, bit for bit
        if isinstance(u, float):
            return m_of(u) if u > a else 0.0
        u = np.asarray(u, dtype=float)
        return np.where(u > a, m_of(u), 0.0)

    def barrier_gap(u, beta):
        # u, beta, m, the strip 0 <= beta < m with m > 0, and m - beta on it
        u = np.asarray(u, dtype=float)
        beta = np.asarray(beta, dtype=float)
        m = m_of(u)
        inside = (m > 0.0) & (beta >= 0.0) & (beta < m)
        return u, beta, m, inside, np.where(inside, m - beta, 1.0)

    def L(u, beta):
        with np.errstate(divide="ignore", invalid="ignore"):
            u, beta, m, inside, gap = barrier_gap(u, beta)
            val = np.where(inside, beta / gap, np.inf)
        return np.where(beta == 0.0, 0.0, val)[()]

    def L_beta(u, beta):
        u, beta, m, inside, gap = barrier_gap(u, beta)
        return np.where(inside, m / gap**2, np.inf)[()]

    def L_betabeta(u, beta):
        u, beta, m, inside, gap = barrier_gap(u, beta)
        return np.where(inside, 2.0 * m / (gap * gap * gap), np.inf)[()]

    def L_ubeta(u, beta):
        u, beta, m, inside, gap = barrier_gap(u, beta)
        return np.where(inside, -dm_of(u) * (m + beta) / (gap * gap * gap),
                        np.inf)[()]

    def beta_from_alpha(u, alpha):
        u = np.asarray(u, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        return np.maximum(m_of(u), 0.0) * alpha / (1.0 + alpha)

    def pmp_rhs(u, P, beta, c):
        # the generic right-hand side on floats with f, beta_max and the
        # cost partials fused (m, gap and its cube once): same clamp, same
        # partials, same guard.  The cube is the product gap * gap * gap,
        # as in the array partials above, and P**2 goes through libm's pow,
        # as in the generic one, so the two agree to the bit without a
        # numpy call per evaluation.
        m = k * u * (u - a)
        fv = m * (1.0 - u)
        b = min(max(beta, 0.0), (1.0 - 1e-12) * (m if u > a else 0.0))
        gap = m - b
        gap3 = gap * gap * gap
        inside = 0.0 <= b < m and gap3 > 0.0
        Lbb = 2.0 * m / gap3 if inside else math.inf
        if not 0.0 < Lbb < math.inf:
            _refuse_rhs(u, P, beta, b, Lbb)
        Lb = m / (gap * gap)
        P2 = P**2
        Lub = -(k * (2.0 * u - a)) * (m + b) / gap3
        dP = -c + (beta - fv) / P
        db = (((b - fv) / P2) * Lb - (b / gap) / P2 - Lub) / Lbb
        return dP, db

    label = f"cubic(u_star={a:g})" if k == 1.0 else f"cubic(u_star={a:g}, rate={k:g})"
    return ModelSpec(f, df, a, L, L_beta, L_betabeta, L_ubeta, beta_max, label,
                     beta_from_alpha, pmp_rhs)


def make_weed_model(u_star: float) -> ModelSpec:
    """Weed-removal model: the cubic family at unit rate."""
    return make_cubic_model(u_star, rate=1.0)


def make_logistic_model(kappa3: float) -> ModelSpec:
    """Logistic growth with removal by spraying: f = kappa3 (1-u) u, L = beta/u.

    Monostable (f'(0) = kappa3 > 0): does not satisfy the bistable
    assumption and is rejected by the traveling-wave solvers that need it.
    The cost is linear in beta, so strict convexity fails as well.
    """
    _check_positive("kappa3", kappa3)
    k3 = float(kappa3)

    def f(u):
        return k3 * (1.0 - u) * u

    def df(u):
        return k3 * (1.0 - 2.0 * np.asarray(u, dtype=float))

    def L(u, beta):
        u = np.asarray(u, dtype=float)
        beta = np.asarray(beta, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(u > 0.0, beta / np.where(u > 0.0, u, 1.0), np.inf)
        return np.where(beta == 0.0, 0.0, val)[()]

    def L_beta(u, beta):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(u > 0.0, 1.0 / np.where(u > 0.0, u, 1.0), np.inf)[()]

    def L_betabeta(u, beta):
        return np.zeros_like(np.asarray(u, dtype=float) * np.asarray(beta, dtype=float))[()]

    def L_ubeta(u, beta):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(u > 0.0, -1.0 / np.where(u > 0.0, u, 1.0) ** 2, -np.inf)[()]

    def beta_max(u):
        return np.full_like(np.asarray(u, dtype=float), np.inf)[()]

    def beta_from_alpha(u, alpha):
        return np.asarray(u, dtype=float) * np.asarray(alpha, dtype=float)

    return ModelSpec(f, df, float("nan"), L, L_beta, L_betabeta, L_ubeta,
                     beta_max, f"logistic(kappa3={k3:g})", beta_from_alpha)


# ---------------------------------------------------------------------------
# assumption reports
# ---------------------------------------------------------------------------


@dataclass
class A1Report:
    """Per-clause verdicts for the bistability assumption."""

    clauses: list[tuple[str, bool, str]]
    interior_zero: float | None
    sign_changes: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.clauses)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.clauses if not ok]


@dataclass
class A2Report:
    """Convexity/superlinearity verdicts plus finite-difference consistency."""

    convexity_ok: bool
    superlinear_ok: bool
    p_fit: float
    c1_fit: float
    fd_max: dict[str, float]
    l_zero_ok: bool

    @property
    def fd_ok(self) -> bool:
        return all(v <= FD_TOL for v in self.fd_max.values())

    @property
    def passed(self) -> bool:
        return self.convexity_ok and self.superlinear_ok and self.l_zero_ok and self.fd_ok


def check_A1(spec: ModelSpec, tol: float = 1e-10) -> A1Report:
    """Sampled verification of the bistability clauses.

    Equality clauses use ``tol``; the sign-change count uses a dense grid
    of 2001 points, so reaction terms are treated as black boxes.
    """
    clauses: list[tuple[str, bool, str]] = []
    f0 = float(spec.f(0.0))
    f1 = float(spec.f(1.0))
    d0 = float(spec.df(0.0))
    d1 = float(spec.df(1.0))
    clauses.append(("f(0)=0", abs(f0) <= tol, f"f(0)={f0:.3e}"))
    clauses.append(("f(1)=0", abs(f1) <= tol, f"f(1)={f1:.3e}"))
    clauses.append(("df(0)<0", d0 < 0.0, f"df(0)={d0:.6g}"))
    clauses.append(("df(1)<0", d1 < 0.0, f"df(1)={d1:.6g}"))

    crossings = list(sign_changes(spec.f, np.linspace(0.0, 1.0, 2001)[1:-1],
                                  tol))
    clauses.append(("unique interior sign change", len(crossings) == 1,
                    f"found {len(crossings)} sign changes at {crossings}"))

    zero = crossings[0] if crossings else None
    if zero is not None:
        dz = float(spec.df(zero))
        clauses.append(("df(u*)>0", dz > 0.0, f"df({zero:.6f})={dz:.6g}"))
        if np.isfinite(spec.u_star):
            clauses.append(("interior zero matches u_star",
                            abs(zero - spec.u_star) <= 1e-6,
                            f"zero={zero:.8f}, u_star={spec.u_star:.8f}"))
    return A1Report(clauses, zero, crossings)


def check_A2(spec: ModelSpec) -> A2Report:
    """Sampled convexity/superlinearity check with an FD oracle on the partials.

    One grid serves every verdict: the 19 u in [0.05, 0.95], and at each u
    the removal rates beta = (0, 0.1, ..., 0.9) * top, where top is
    beta_max(u), or 2 where the cost has no barrier (rows with
    beta_max(u) <= 0 hold beta = 0 only).  L(u, 0) = 0 is checked on the
    first column, strict convexity by second differences along each row,
    and the FD oracle and the log-log fit of L ~ C1 beta^p use the nine
    positive entries.  Each callable is evaluated on the whole array.
    """
    u = np.linspace(0.05, 0.95, 19)
    frac = np.linspace(0.0, 0.9, 10)
    bmax = np.asarray(spec.beta_max(u), dtype=float)
    top = np.where(np.isinf(bmax), 2.0, bmax)
    live = top > 0.0
    Lv = np.asarray(spec.L(u[:, None], np.where(live, top, 0.0)[:, None] * frac),
                    dtype=float)
    l_zero_ok = bool(np.all(np.abs(Lv[:, 0]) <= 1e-14))
    d2 = Lv[live, 2:] - 2.0 * Lv[live, 1:-1] + Lv[live, :-2]
    convex = bool(np.all(d2 > 1e-14))

    # FD consistency of the partials on the positive entries; steps scale
    # with the distance to the finiteness barrier, where the cost blows up
    # and absolute steps would dominate the truncation error.  The u-step
    # also stays below the barrier's u-distance (beta_max - beta)/|beta_max'|,
    # with the steeper one-sided slope of beta_max (a central difference
    # halves it where beta_max is cut to zero within du).  Every step is
    # rounded so that x +- h are exact: near the barrier the u-step is a
    # few ulps of u, and an off-centre stencil misreads L_ubeta, which
    # varies on the scale of u - u*.  An entry whose steps round to zero (a
    # barrier within an ulp or so) is left out of the cross check.
    u, bm, Lv = u[live, None], bmax[live, None], Lv[live, 1:]
    b = top[live, None] * frac[1:]
    room = np.where(np.isinf(bm), 1.0, bm - b)
    scale = np.minimum(room, b)
    du = 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        dbm = np.maximum(np.abs(spec.beta_max(u + du) - bm),
                         np.abs(bm - spec.beta_max(u - du))) / du
        hc = 1e-3 * np.fmin(np.minimum(scale, u), room / dbm)
    h1 = (b + 1e-4 * scale) - b
    h2 = (b + 1e-3 * scale) - b
    hc = (u + hc) - u
    hb = (b + np.minimum(h2, hc)) - b
    resolved = (hc > 0.0) & (hb > 0.0)
    L, aL = spec.L, np.abs(Lv)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (L(u + hc, b + hb) - L(u + hc, b - hb) - L(u - hc, b + hb)
                 + L(u - hc, b - hb)) / (4.0 * hc * hb)
    fd = {
        "L_beta": ((L(u, b + h1) - L(u, b - h1)) / (2.0 * h1),
                   spec.L_beta(u, b), aL / scale, True),
        "L_betabeta": ((L(u, b + h2) - 2.0 * Lv + L(u, b - h2)) / h2**2,
                       spec.L_betabeta(u, b), aL / scale**2, True),
        "L_ubeta": (cross, spec.L_ubeta(u, b), aL / scale**2, resolved),
    }
    fd_max = {name: float(np.max(np.abs(num - an)
                                 / np.maximum(np.maximum(np.abs(an), floor), 1e-10),
                                 initial=0.0, where=where))
              for name, (num, an, floor, where) in fd.items()}

    # empirical superlinearity: smallest per-u log-log slope and matching C1
    p_fit = c1 = float("nan")
    if Lv.size and np.all(np.isfinite(Lv) & (Lv > 0.0)):
        p_fit = float(np.min(np.polyfit(np.log(frac[1:]), np.log(Lv).T, 1)[0]))
        c1 = float(np.min(Lv / b**p_fit))
    superlinear = p_fit > 1.0 + 1e-6 and c1 > 0.0

    return A2Report(convexity_ok=convex, superlinear_ok=superlinear,
                    p_fit=p_fit, c1_fit=c1, fd_max=fd_max, l_zero_ok=l_zero_ok)
