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
from typing import Callable

import numpy as np

from ._roots import sign_changes
from .errors import (ConvexityViolationError, DomainError, InvalidParameterError,
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


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of a growth rate and its control-cost density.

    Units: f has dimension 1/time, u is dimensionless, the diffusion
    coefficient is fixed to 1 by rescaling space.  ``beta_max(u)`` is the
    finiteness boundary of ``L(u, .)``; ``beta_from_alpha`` inverts the
    cost map, returning the removal rate produced by spending alpha.
    ``pmp_rhs(u, P, beta, c) -> (dP, dbeta)``, when given, is a plain-float
    right-hand side of the Pontryagin system (see `travwave.pmp`) computed
    directly from the model's parameters; without it the solvers build one
    from the callables above.
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

    def max_f(self, n: int = 2001) -> float:
        u = np.linspace(0.0, 1.0, n)
        return float(np.max(self.f(u)))


@dataclass(frozen=True)
class Model2Params:
    """Infection/death rates of the insect-tree system (all 1/time)."""

    kappa1: float
    kappa2: float
    d: float

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "d"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(f"{name} must be strictly positive")

    @property
    def v_star(self) -> float:
        """Asymptotic infected-insect density kappa2 / (kappa2 + d)."""
        return self.kappa2 / (self.kappa2 + self.d)


def _check_finite_state(u, P, beta) -> None:
    """Raise SingularityError when a Pontryagin state (P, beta) is not finite.

    Called only on the right-hand sides' error branch, where a NaN state
    would otherwise be misreported as a convexity violation.
    """
    if not (math.isfinite(P) and math.isfinite(beta)):
        raise SingularityError(
            f"non-finite Pontryagin state at U={u:.8f}: P={P:g}, beta={beta:g}",
            location=u)


def make_cubic_model(u_star: float, rate: float = 1.0) -> ModelSpec:
    """Bistable cubic f(u) = rate * u (u-u*) (1-u) with the matching cost.

    The control shrinks the carrying capacity; spending alpha removes
    beta = (1 - 1/(1+alpha)) * rate * u (u-u*), so the cost of a removal
    rate beta is beta / (m - beta) with m = rate * u (u-u*).  Below u* the
    control is counterproductive and any positive beta costs +inf.
    """
    if not (0.0 < u_star <= 0.5):
        raise InvalidParameterError(f"u_star must lie in (0, 1/2], got {u_star}")
    if not rate > 0.0:
        raise InvalidParameterError(f"rate must be positive, got {rate}")
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

    def L(u, beta):
        u = np.asarray(u, dtype=float)
        beta = np.asarray(beta, dtype=float)
        m = m_of(u)
        inside = (beta >= 0.0) & (beta < m)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(inside, beta / np.where(inside, m - beta, 1.0), np.inf)
        return np.where(beta == 0.0, 0.0, val)[()]

    def barrier_gap(u, beta):
        # u, beta, m, the strip 0 <= beta < m with m > 0, and m - beta on it
        u = np.asarray(u, dtype=float)
        beta = np.asarray(beta, dtype=float)
        m = m_of(u)
        inside = (m > 0.0) & (beta >= 0.0) & (beta < m)
        return u, beta, m, inside, np.where(inside, m - beta, 1.0)

    def L_beta(u, beta):
        u, beta, m, inside, gap = barrier_gap(u, beta)
        return np.where(inside, m / gap**2, np.inf)[()]

    def L_betabeta(u, beta):
        u, beta, m, inside, gap = barrier_gap(u, beta)
        return np.where(inside, 2.0 * m / gap**3, np.inf)[()]

    def L_ubeta(u, beta):
        u, beta, m, inside, gap = barrier_gap(u, beta)
        return np.where(inside, -dm_of(u) * (m + beta) / gap**3, np.inf)[()]

    def beta_from_alpha(u, alpha):
        u = np.asarray(u, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        return np.maximum(m_of(u), 0.0) * alpha / (1.0 + alpha)

    def pmp_rhs(u, P, beta, c):
        # the generic right-hand side with f, beta_max and the cost partials
        # inlined as plain floats: same clamp, same partials, same guard.
        # gap**3 goes through numpy's power, as in the array partials above
        # (its SIMD loop can round differently from float.__pow__), so the
        # two paths agree to the bit.
        m = k * u * (u - a)
        fv = m * (1.0 - u)
        b = min(max(beta, 0.0), (1.0 - 1e-12) * (m if u > a else 0.0))
        gap = m - b
        gap3 = float(np.power(gap, 3))
        inside = 0.0 <= b < m and gap3 > 0.0
        Lbb = 2.0 * m / gap3 if inside else np.inf
        if not 0.0 < Lbb < np.inf:
            _check_finite_state(u, P, beta)
            raise ConvexityViolationError(
                f"L_betabeta({u:.6f}, {b:.3g}) = {Lbb:g} is not positive")
        Lb = m / (gap * gap)
        Lub = -(k * (2.0 * u - a)) * (m + b) / gap3
        P2 = P**2
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
    if not kappa3 > 0.0:
        raise InvalidParameterError(f"kappa3 must be positive, got {kappa3}")
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


def _fd_cross(L, u, b, hu, hb):
    return (L(u + hu, b + hb) - L(u + hu, b - hb)
            - L(u - hu, b + hb) + L(u - hu, b - hb)) / (4.0 * hu * hb)


def check_A2(spec: ModelSpec,
             u_samples: np.ndarray | None = None,
             beta_samples: np.ndarray | None = None) -> A2Report:
    """Sampled convexity/superlinearity check with an FD oracle on the partials.

    ``beta_samples`` are absolute removal rates; every (u, beta) pair must
    lie strictly inside the finiteness region, otherwise a DomainError is
    raised.  With the defaults, betas are placed at fixed fractions of
    beta_max(u) (or of an O(1) range when beta_max is infinite).
    """
    if u_samples is None:
        u_samples = np.linspace(0.05, 0.95, 19)
    u_samples = np.atleast_1d(np.asarray(u_samples, dtype=float))

    fractions = np.linspace(0.1, 0.9, 9)
    pairs: list[tuple[float, float]] = []
    for uu in u_samples:
        bmax = float(spec.beta_max(uu))
        if beta_samples is not None:
            for bb in np.atleast_1d(beta_samples):
                if bb >= bmax:
                    raise DomainError(
                        f"beta={bb:g} outside finiteness region at u={uu:g} "
                        f"(beta_max={bmax:g})")
                if bb > 0.0:
                    pairs.append((float(uu), float(bb)))
        elif np.isfinite(bmax) and bmax > 0.0:
            pairs.extend((float(uu), float(bb)) for bb in fractions * bmax)
        elif np.isinf(bmax):
            pairs.extend((float(uu), float(bb)) for bb in fractions * 2.0)

    l_zero_ok = bool(np.all(np.abs(spec.L(u_samples, np.zeros_like(u_samples))) <= 1e-14))

    # strict convexity via second differences along beta at each sampled u
    convex = True
    for uu in u_samples:
        bmax = float(spec.beta_max(uu))
        if bmax <= 0.0:
            continue
        hi = 0.95 * bmax if np.isfinite(bmax) else 2.0
        bs = np.linspace(0.0, hi, 11)
        Ls = np.asarray(spec.L(np.full_like(bs, uu), bs), dtype=float)
        d2 = Ls[2:] - 2.0 * Ls[1:-1] + Ls[:-2]
        if not np.all(d2 > 1e-14):
            convex = False

    # FD consistency of the supplied partials at the interior samples;
    # steps scale with the distance to the finiteness barrier, where the
    # cost blows up and absolute steps would dominate the truncation error
    fd_max = {"L_beta": 0.0, "L_betabeta": 0.0, "L_ubeta": 0.0}
    for uu, bb in pairs:
        bmax = float(spec.beta_max(uu))
        room = (bmax - bb) if np.isfinite(bmax) else 1.0
        scale = min(room, bb)
        h1 = 1e-4 * scale
        h2 = 1e-3 * scale
        hc = 1e-3 * min(scale, uu)
        if min(h1, h2, hc) <= 0.0:
            continue
        Lv = abs(float(spec.L(uu, bb)))
        an = float(spec.L_beta(uu, bb))
        fd = float((spec.L(uu, bb + h1) - spec.L(uu, bb - h1)) / (2.0 * h1))
        fd_max["L_beta"] = max(fd_max["L_beta"],
                               abs(fd - an) / max(abs(an), Lv / scale, 1e-10))
        an = float(spec.L_betabeta(uu, bb))
        fd = float((spec.L(uu, bb + h2) - 2.0 * spec.L(uu, bb) + spec.L(uu, bb - h2)) / h2**2)
        fd_max["L_betabeta"] = max(fd_max["L_betabeta"],
                                   abs(fd - an) / max(abs(an), Lv / scale**2, 1e-10))
        an = float(spec.L_ubeta(uu, bb))
        fd = float(_fd_cross(spec.L, uu, bb, hc, min(h2, hc)))
        fd_max["L_ubeta"] = max(fd_max["L_ubeta"],
                                abs(fd - an) / max(abs(an), Lv / scale**2, 1e-10))

    # empirical superlinearity: smallest per-u log-log slope and matching C1
    slopes = []
    c1 = np.inf
    by_u: dict[float, list[tuple[float, float]]] = {}
    for uu, bb in pairs:
        Lv = float(spec.L(uu, bb))
        if np.isfinite(Lv) and Lv > 0.0 and bb > 0.0:
            by_u.setdefault(uu, []).append((bb, Lv))
    for uu, pts in by_u.items():
        if len(pts) < 3:
            continue
        lb = np.log([p[0] for p in pts])
        lL = np.log([p[1] for p in pts])
        slopes.append(float(np.polyfit(lb, lL, 1)[0]))
    p_fit = min(slopes) if slopes else float("nan")
    if slopes and p_fit > 0:
        for uu, pts in by_u.items():
            for bb, Lv in pts:
                c1 = min(c1, Lv / bb**p_fit)
    superlinear = bool(slopes) and p_fit > 1.0 + 1e-6 and c1 > 0.0

    return A2Report(convexity_ok=convex, superlinear_ok=superlinear,
                    p_fit=p_fit, c1_fit=float(c1) if np.isfinite(c1) else float("nan"),
                    fd_max=fd_max, l_zero_ok=l_zero_ok)
