"""Insect/tree system: spectrum, threshold speed, sandwich and obstruction.

Traveling profiles (U, V, Theta) of

    U'' + c U' + f(U) - alpha(x) U              = 0
    V'' + c V' + kappa2 (U - V) Theta - (d + alpha(x)) V = 0
    c Theta' + kappa1 V (1 - Theta)             = 0

are analyzed through the linearization at (U, V, W, Theta) = (1, 0, 0, 0),
whose characteristic polynomial is

    p(lambda) = lambda^3 + c lambda^2 - d lambda - kappa1 kappa2 / c.

For c < 0, p(0) > 0 and p has two positive real roots iff p(lambda_min) <= 0
at the positive critical point lambda_min = (-c + sqrt(c^2 + 3 d)) / 3.
Equality defines the threshold speed c_sharp; for c_sharp < c < 0 the
spectrum is one negative root plus a complex pair with positive real part,
which rules out monotone entry into the healthy state (the orbit spirals).

The reaction terms are cooperative on {0 <= v <= u <= 1, 0 <= theta <= 1}
for every control: the nonzero off-diagonal partials kappa2 theta,
kappa2 (u - v) and kappa1 (1 - theta) are positive rates (`Model2Params`
rejects any other) times non-negative coordinates.  The comparison
argument rests on it: `supersolution` / `subsolution` build its barriers,
`solve_vtheta` reaches the exact (V, Theta) from the subsolution by
pseudo-transient Newton steps, accepting only steps that stay between the
barriers, and `case2_demo` integrates the linearized spiral backward to
exhibit the sign violation that forbids buffer-zone profiles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from ._columns import write_columns
from .errors import (ConstructionFailureError, InvalidParameterError,
                     NonconvergenceError, OrderingError, RegimeError)
from .model import Model2Params, _check_positive
from .phaseplane import _sample_control
from .profile import SpatialProfile, _theta_closed_form, theta_model1

__all__ = [
    "Model2Spectrum", "TriplePath", "char_poly", "lambda_min", "p_at_lambda_min",
    "c_sharp", "spectrum", "check_drate", "supersolution", "subsolution",
    "solve_vtheta", "case2_demo", "Case2Report",
]

log = logging.getLogger(__name__)

EPS0 = 1e-3  # subsolution's constants, see its docstring
ARC_ATOL = 1e-13
GRID_H = 0.01
SOLVE_H = 0.02  # solve_vtheta's mesh spacing
DEFECT_TOL = 1e-6  # solve_vtheta's bound on the V-equation defect
DELTA0, TRIALS = 0.1, 100  # solve_vtheta: first pseudo-time step, trials


@dataclass
class Model2Spectrum:
    """Roots and eigenvectors of the healthy-state linearization."""

    c: float
    params: Model2Params
    lambda1: float
    a: float
    b: float
    lambda_min: float
    c_sharp: float
    classification: str       # lemma71_regime | repeated_real | three_real
    eigvec1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    roots: np.ndarray = field(default=None)


@dataclass
class TriplePath:
    """Sampled (U, V, Theta) path with residual bookkeeping."""

    x_nodes: np.ndarray
    u_values: np.ndarray
    v_values: np.ndarray
    theta_values: np.ndarray
    kind: str                 # supersolution | subsolution | solution
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def v_at(self, x) -> np.ndarray:
        """V on arbitrary points: 0 left of the grid, the path's own
        right-end value right of it (V*, the Dirichlet value of every sub-
        and solution path)."""
        return np.interp(x, self.x_nodes, self.v_values, left=0.0)

    def theta_at(self, x) -> np.ndarray:
        """Theta on arbitrary points: 0 left of the grid, 1 right of it."""
        return np.interp(x, self.x_nodes, self.theta_values, left=0.0,
                         right=1.0)

    def to_csv(self, path) -> None:
        write_columns(path, {"x": self.x_nodes, "u": self.u_values,
                             "v": self.v_values, "theta": self.theta_values})


def char_poly(c: float, params: Model2Params) -> np.ndarray:
    """Coefficients (1, c, -d, -kappa1 kappa2 / c) of the linearization cubic."""
    if c == 0.0:
        raise InvalidParameterError("characteristic polynomial undefined at c = 0")
    return np.array([1.0, c, -params.d, -params.kappa1 * params.kappa2 / c])


def lambda_min(c: float, params: Model2Params) -> float:
    """Positive critical point of the cubic: (-c + sqrt(c^2 + 3 d)) / 3."""
    return (-c + np.sqrt(c * c + 3.0 * params.d)) / 3.0


def p_at_lambda_min(c: float, params: Model2Params) -> float:
    """Value of the cubic at its positive critical point (<= 0 iff two
    positive real roots)."""
    k12 = params.kappa1 * params.kappa2
    d = params.d
    return (-k12 / c + c * d / 3.0 + (2.0 / 27.0) * c**3
            - (2.0 / 27.0) * (c * c + 3.0 * d) ** 1.5)


def c_sharp(params: Model2Params) -> float:
    """Threshold speed: the unique c < 0 where the critical value vanishes."""
    d, k12 = params.d, params.kappa1 * params.kappa2
    num = -2.0 * d**3 - 9.0 * k12 * d + 2.0 * (d * d + 3.0 * k12) ** 1.5
    den = d * d + 4.0 * k12
    cs = -np.sqrt(max(num, 0.0) / den)
    resid = p_at_lambda_min(cs, params)
    if abs(resid) > 1e-9 * max(1.0, abs(k12 / cs)):
        raise ConstructionFailureError(
            f"threshold formula inconsistent: p(lambda_min; c_sharp) = {resid:.3g}")
    return float(cs)


def spectrum(c: float, params: Model2Params) -> Model2Spectrum:
    """Classified roots and eigenvectors of the healthy-state linearization.

    Roots come from the companion-matrix eigensolve with one Newton polish
    each; a conjugate pair with |Im| <= 1e-6 is classified as the
    repeated-real boundary case.
    """
    if not -np.inf < c < 0.0:
        raise InvalidParameterError(
            f"spectrum is analyzed for finite c < 0, got {c:g}")
    coeffs = char_poly(c, params)
    roots = np.roots(coeffs)
    dp = np.polyder(coeffs)
    for _ in range(2):
        pv = np.polyval(coeffs, roots)
        dv = np.polyval(dp, roots)
        roots = roots - np.where(np.abs(dv) > 0, pv / dv, 0.0)

    imag = np.abs(roots.imag)
    k1 = params.kappa1
    if np.max(imag) > 1e-6:
        i_real = int(np.argmin(imag))
        lam1 = float(roots[i_real].real)
        pair = np.delete(roots, i_real)
        a = float(pair[0].real)
        b = float(abs(pair[0].imag))
        classification = "lemma71_regime" if (lam1 < 0.0 < a and b > 0.0) \
            else "complex_other"
    else:
        rr = np.sort(roots.real)
        lam1 = float(rr[0])
        a = float(0.5 * (rr[1] + rr[2]))
        b = 0.0
        classification = "repeated_real" if abs(rr[2] - rr[1]) <= 1e-5 * max(
            1.0, abs(rr[2])) else "three_real"

    v1 = np.array([1.0, lam1, -k1 / (c * lam1)])
    s = a * a + b * b
    w2 = np.array([1.0, a, -k1 * a / (c * s)])
    w3 = np.array([0.0, b, k1 * b / (c * s)])
    return Model2Spectrum(c, params, lam1, a, b,
                          lambda_min(c, params), c_sharp(params),
                          classification, v1, w2, w3, roots=roots)


def check_drate(f, d: float) -> None:
    """Verify f(u) >= -d u - 1e-12 on 2001 samples of [0,1]; required by
    the comparison structure of the insect/tree system."""
    u = np.linspace(0.0, 1.0, 2001)
    _check_drate_on(u, np.asarray(f(u), dtype=float), d)


def _check_drate_on(u: np.ndarray, fv: np.ndarray, d: float) -> None:
    """The death-rate hypothesis f(u) >= -d u - 1e-12 on samples fv = f(u):
    InvalidParameterError names the first failing sample, or a d that is
    not finite and positive."""
    _check_positive("d", d)
    bad = fv < -d * u - 1e-12
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidParameterError(
            f"death-rate hypothesis f(u) >= -d u fails at d={d:g}: "
            f"f({u[i]:.4g})={fv[i]:.6g} < {-d * u[i]:.6g}")


# ---------------------------------------------------------------------------
# comparison barriers
# ---------------------------------------------------------------------------


def supersolution(u_profile: SpatialProfile, params: Model2Params,
                  c: float) -> TriplePath:
    """Upper barrier (U, min{U, V*}, Theta_bar) for the last two equations.

    Theta_bar is the Model-1 tree infection along U (`theta_model1`, which
    closes the left tail of U in exponential form), on U's own grid.
    Residual signs are verified semi-analytically: the third equation gives
    kappa1 (1 - Theta_bar)(v+ - U) <= 0 by construction, and the second is
    -f(U) - d U where v+ = U (needs f sampled on the profile) and
    kappa2 (U - V*) Theta_bar - d V* where v+ = V*; the alpha term only
    makes both more negative.  The death-rate hypothesis f(U) >= -d U is
    checked on the same f samples first (InvalidParameterError).
    """
    if c >= 0.0:
        raise RegimeError(f"supersolution requires c < 0, got {c:g}")
    if u_profile.f_values is None:
        raise InvalidParameterError(
            "u_profile must carry f samples (build it with reconstruct_x)")
    x = u_profile.x_nodes
    u = u_profile.u_values
    _check_drate_on(u, u_profile.f_values, params.d)
    vstar = params.v_star
    vplus = np.minimum(u, vstar)
    theta_bar = theta_model1(u_profile, params.kappa1, c).theta_values[:len(x)]

    r3 = params.kappa1 * (1.0 - theta_bar) * (vplus - u)
    on_u = u <= vstar
    r2 = np.where(on_u,
                  -u_profile.f_values - params.d * u,
                  params.kappa2 * (u - vstar) * theta_bar - params.d * vstar)

    path = TriplePath(x, u, vplus, theta_bar, "supersolution",
                      residuals={"second": r2, "third": r3},
                      meta={"v_star": vstar})
    tol = 1e-6
    ok = np.all(r2 <= tol) and np.all(r3 <= tol)
    if not ok:
        raise ConstructionFailureError(
            f"supersolution residual sign violated (max r2={np.max(r2):.3g}, "
            f"max r3={np.max(r3):.3g})")
    return path


def _ode8_rhs(c: float, params: Model2Params, u_of_x):
    """(V, W, Theta)' of the last two equations with alpha = 0."""
    k1, k2, d = params.kappa1, params.kappa2, params.d

    def rhs(x, y):
        V, W, Th = y
        U = float(u_of_x(x))
        return [W,
                -c * W - k2 * (U - V) * Th + d * V,
                -(k1 / c) * V * (1.0 - Th)]
    return rhs


def _v_stencil(c: float, h: float) -> tuple[float, float, float]:
    """Weights on (v[i-1], v[i], v[i+1]) of the V-equation's operator
    v'' + c v' by central differences at spacing h: the banded solves use
    them, `_v_operator` applies the same stencil for the residuals."""
    return 1.0 / h**2 - c / (2.0 * h), -2.0 / h**2, 1.0 / h**2 + c / (2.0 * h)


def _v_operator(v: np.ndarray, c: float, h: float) -> np.ndarray:
    """v'' + c v' at the interior nodes of v."""
    lap = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    grad = (v[2:] - v[:-2]) / (2.0 * h)
    return lap + c * grad


def _solve_linear_v(x: np.ndarray, c: float, coeff: np.ndarray,
                    source: np.ndarray, v_left: float, v_right: float) -> np.ndarray:
    """Tridiagonal solve of v'' + c v' - coeff(x) v = -source(x) with
    Dirichlet data on a uniform grid."""
    lo, mid, up = _v_stencil(c, x[1] - x[0])
    rhs = -source[1:-1]
    rhs[0] -= lo * v_left
    rhs[-1] -= up * v_right
    ab = np.zeros((3, len(x) - 2))
    ab[0, 1:] = up
    ab[1, :] = mid - coeff[1:-1]
    ab[2, :-1] = lo
    inner = solve_banded((1, 1), ab, rhs)
    return np.concatenate(([v_left], inner, [v_right]))


def subsolution(u_profile: SpatialProfile, alpha, params: Model2Params,
                c: float) -> TriplePath:
    """Lower barrier built from the spiral of the healthy-state linearization.

    A small-amplitude arc of the rotating solution is launched at x0 (where
    the control alpha has died out and U >= 1 - EPS0), cut at its first
    descending V-zero x1, and continued on [x1, inf) by the explicit
    exponential relaxation toward V* with the matching Theta integral.  The
    launch amplitude eps = 1e-3 is halved, down to 1e3 ARC_ATOL, until the
    window conditions and the domain bounds 0 <= v <= min(U, V*), theta <= 1
    hold.  Arc and right piece are sampled at spacing GRID_H.
    """
    cs = c_sharp(params)
    if not (cs < c < 0.0):
        raise RegimeError(f"subsolution requires c_sharp < c < 0 "
                          f"(c_sharp={cs:.6g}, c={c:g})")
    spec2 = spectrum(c, params)
    if spec2.classification != "lemma71_regime":
        raise RegimeError(f"spectral classification is {spec2.classification}, "
                          "need the complex-pair regime")
    a, b = spec2.a, spec2.b
    k1, k2, d = params.kappa1, params.kappa2, params.d

    xs = u_profile.x_nodes
    pos = _sample_control(alpha, xs) > 1e-12
    x_ctrl = float(xs[np.nonzero(pos)[0][-1]]) if np.any(pos) else float(xs[0])
    iu = np.nonzero(u_profile.u_values >= 1.0 - EPS0)[0]
    if len(iu) == 0:
        raise ConstructionFailureError(
            f"profile never reaches U >= 1 - eps0 = {1.0 - EPS0:g}")
    x_u = float(xs[iu[0]])
    x0 = max(x_ctrl, x_u) + 1.0

    # seed along the rotating particular solution: V=0, W=eps*b,
    # Theta = eps * kappa1 b / (c (a^2+b^2)) < 0
    theta_hat0 = k1 * b / (c * (a * a + b * b))
    u_of_x = u_profile.u_at
    rhs = _ode8_rhs(c, params, u_of_x)

    def ev_vzero(x, y):
        return y[0]
    ev_vzero.terminal = True
    ev_vzero.direction = -1

    # amplitude guards: a failed (too large) launch blows up nonlinearly,
    # so cut the arc as soon as it leaves the admissible box and retry
    u_floor = float(np.min(u_of_x(np.linspace(x0, x0 + 4.2 * np.pi / b, 64))))
    v_cap = 0.98 * min(params.v_star, u_floor)

    def ev_vcap(x, y):
        return y[0] - v_cap
    ev_vcap.terminal = True
    ev_vcap.direction = 1

    def ev_thcap(x, y):
        return y[2] - 0.98
    ev_thcap.terminal = True
    ev_thcap.direction = 1

    window = 4.0 * np.pi / b
    attempt = 1e-3
    last_reason = ""
    while attempt >= 1e3 * ARC_ATOL:
        sol = solve_ivp(rhs, (x0, x0 + window * 1.05),
                        [0.0, attempt * b, attempt * theta_hat0],
                        method="DOP853", rtol=1e-11, atol=ARC_ATOL,
                        dense_output=True, events=[ev_vzero, ev_vcap, ev_thcap])
        if sol.status != 1 or len(sol.t_events[0]) == 0:
            last_reason = ("arc left the admissible box before its V-zero"
                           if sol.status == 1 else
                           "no descending V-zero inside the window")
            attempt *= 0.5
            continue
        x1 = float(sol.t_events[0][0])
        V1, W1, Th1 = sol.sol(x1)
        xs_arc = np.linspace(x0, x1, max(400, int((x1 - x0) / GRID_H) + 1))
        Varc, Warc, Tharc = sol.sol(xs_arc)
        ok = (Th1 > 0.0 and W1 < 0.0 and x1 - x0 <= window
              and np.all(Varc >= -1e-12)
              and np.max(Varc) < 0.98 * min(params.v_star,
                                            float(np.min(u_of_x(xs_arc))))
              and np.max(Tharc) < 0.98)
        if ok:
            break
        last_reason = (f"window checks failed at eps={attempt:g} "
                       f"(Theta(x1)={Th1:.3g}, W(x1)={W1:.3g}, "
                       f"maxV={np.max(Varc):.3g}, maxTheta={np.max(Tharc):.3g})")
        attempt *= 0.5
    else:
        raise ConstructionFailureError(
            f"subsolution window not found above eps = {1e3 * ARC_ATOL:g}: "
            + last_reason)

    theta_tilde = float(Th1)
    v_dagger = k2 * (1.0 - EPS0) * theta_tilde / (k2 * theta_tilde + d)
    lam0 = (-c - np.sqrt(c * c + 4.0 * (k2 * theta_tilde + d))) / 2.0

    # right piece grid: extend well past the relaxation scales
    span_r = max(40.0, 25.0 / min(abs(lam0), abs(spec2.lambda1), a))
    n_r = int(span_r / GRID_H) + 1
    xr = np.linspace(x1, x1 + span_r, n_r)
    v_tilde = v_dagger * (1.0 - np.exp(lam0 * (xr - x1)))
    # theta^- from the explicit integral of theta' = -(k1/c) v_tilde (1-theta)
    int_vt = v_dagger * ((xr - x1) - (np.exp(lam0 * (xr - x1)) - 1.0) / lam0)
    theta_right = 1.0 - (1.0 - theta_tilde) * np.exp((k1 / c) * int_vt)

    u_right = np.asarray(u_of_x(xr), dtype=float)
    coeff = k2 * theta_right + d
    source = k2 * u_right * theta_right
    v_right = _solve_linear_v(xr, c, coeff, source, 0.0, params.v_star)
    if np.any(v_right < v_tilde - 1e-8):
        raise ConstructionFailureError(
            "comparison failure: v^- dropped below its exponential minorant")

    # assemble on (-inf, x1] U [x1, inf): zeros left of x0, arc, right piece
    n_l = 200
    xl = np.linspace(x0 - 30.0, x0, n_l, endpoint=False)
    x_all = np.concatenate((xl, xs_arc, xr[1:]))
    v_all = np.concatenate((np.zeros(n_l), np.maximum(Varc, 0.0), v_right[1:]))
    th_all = np.concatenate((np.zeros(n_l), np.maximum(Tharc, 0.0),
                             theta_right[1:]))
    u_all = np.asarray(u_of_x(x_all), dtype=float)

    # residual audit, piecewise semi-analytic (see module docstring)
    res = _subsolution_residuals(x_all, Varc, Tharc, xr, v_right, theta_right,
                                 v_tilde, u_right, params, c, n_l)
    path = TriplePath(x_all, u_all, v_all, th_all, "subsolution",
                      residuals=res,
                      meta={"x0": x0, "x1": x1, "eps": attempt, "eps0": EPS0,
                            "v_dagger": v_dagger, "lambda0": lam0,
                            "theta_tilde": theta_tilde,
                            "dv_left": float(W1), "dv_right": float(
                                (v_right[1] - v_right[0]) / (xr[1] - xr[0])),
                            "alpha_support_edge": x_ctrl})
    return path


def _subsolution_residuals(x_all, Varc, Tharc, xr, v_right, theta_right,
                           v_tilde, u_right, params, c, n_l):
    """Operator signs for the lower barrier, evaluated piece by piece.

    Left piece (v, theta) = (0, 0): both operators vanish identically.
    Arc piece (samples Varc, Tharc): exact ODE solution, residual at
    integrator tolerance.
    Right piece: the v-equation is solved with its own stencil (residual is
    the banded-solve defect) and the theta-equation residual is
    kappa1 (1 - theta)(v^- - v_tilde) >= 0 by the comparison bound.
    """
    k1, k2, d = params.kappa1, params.kappa2, params.d
    r2 = np.zeros_like(x_all)
    r3 = np.zeros_like(x_all)
    n_arc = len(Varc)
    # third equation on the arc where theta^- = max(Theta_eps, 0) != Theta_eps:
    # residual = kappa1 v (1 - 0) >= 0; where equal, residual = 0.
    clipped = Tharc < 0.0
    r3[n_l:n_l + n_arc] = np.where(clipped, k1 * np.maximum(Varc, 0.0), 0.0)
    # right piece residuals, from x_all[j] = x1 on
    v, j = v_right, n_l + n_arc - 1
    r2[j + 1:-1] = (_v_operator(v, c, xr[1] - xr[0])
                    + k2 * (u_right[1:-1] - v[1:-1]) * theta_right[1:-1]
                    - d * v[1:-1])
    r3[j:] = k1 * (1.0 - theta_right) * (v - v_tilde)
    return {"second": r2, "third": r3}


def _newton_solve(dg: np.ndarray, up: float, lo: float, fac: np.ndarray,
                  h: float, F: np.ndarray) -> np.ndarray:
    """Newton update dv of solve_vtheta: J dv = -F with
    J = T + diag(fac) h (S - I/2).

    T is the V-stencil (diagonal dg, constant super-/sub-diagonals up/lo)
    and S the inclusive lower-triangular ones matrix (Theta's trapezoid
    sensitivity to upstream V).  J itself is dense, but in the running
    sum z = cumsum(dv), dv = D z with D = S^-1 (1 on the diagonal, -1
    below it), J D = T D + diag(fac) h (I - D/2) is banded with (2, 1)
    diagonals: O(N) work and memory in place of O(N^3) and O(N^2).
    """
    n = len(dg)
    half = 0.5 * h * fac
    ab = np.zeros((4, n))
    ab[0, 1:] = up
    ab[1, :-1] = dg[:-1] - up
    ab[1, -1] = dg[-1]
    ab[1] += half
    ab[2, :-1] = lo - dg[1:] + half[1:]
    ab[3, :-2] = -lo

    def solve(r):
        return np.diff(solve_banded((2, 1), ab, r), prepend=0.0)

    # The change of variables costs up to a factor N in conditioning
    # (|S| = N); one refinement step against the O(N) product J dv brings
    # the update back to full accuracy.  The residual is formed in extended
    # precision: in doubles its rounding (eps |T| |dv|, T ~ 1/h^2) would cap
    # the refined update at the accuracy of a dense LU solve of J, which
    # reaches only ~1e-12 relative error at N ~ 200.
    dv = solve(-F)
    d = dv.astype(np.longdouble)
    r = -F - dg * d - (h * fac) * (np.cumsum(d) - 0.5 * d)
    r[:-1] -= up * d[1:]
    r[1:] -= lo * d[:-1]
    return dv + solve(r.astype(float))


def solve_vtheta(u_profile: SpatialProfile, alpha, params: Model2Params,
                 c: float, sub: TriplePath | None = None,
                 sup: TriplePath | None = None) -> TriplePath:
    """Exact (V, Theta) by pseudo-transient Newton steps inside the
    barrier sandwich.

    Theta is eliminated through its integrating factor, leaving the
    V-equation's discrete defect F(V).  From the subsolution (V's right
    end set to V*), each trial solves (J - I/delta) dv = -F with the banded
    `_newton_solve`, an implicit Euler step of dV/dt = F (Kelley & Keyes,
    SIAM J. Numer. Anal. 35(2), 1998).  A trial that keeps (V, Theta)
    inside the sandwich (to 1e-6) is accepted and doubles delta; any other
    halves it.  delta starts at DELTA0; the loop stops at defect
    DEFECT_TOL or raises NonconvergenceError after TRIALS trials.  The
    grid spans [-L, L], with L the larger of 35, |x1| + 20 (x1 the
    subsolution's junction) and 20 / min(|lambda1|, a), snapped to SOLVE_H.

    meta records "iterations" (accepted steps; all are Newton steps, so
    "newton_iterations" is equal), "rejected", the "deltas" of every trial
    and the defect "history" after every accepted step; a DEBUG record
    on the `travwave` logger carries the counts as `vtheta_work`.
    """
    if sub is None:
        sub = subsolution(u_profile, alpha, params, c)
    if sup is None:
        sup = supersolution(u_profile, params, c)
    spec2 = spectrum(c, params)
    halfwidth = max(20.0 / min(abs(spec2.lambda1), spec2.a),
                    abs(sub.meta["x1"]) + 20.0, 35.0)
    # snap the halfwidth to the mesh so the realized spacing is SOLVE_H
    L = SOLVE_H * np.ceil(halfwidth / SOLVE_H)
    n = int(round(2.0 * L / SOLVE_H)) + 1
    x = np.linspace(-L, L, n)
    h = float(x[1] - x[0])
    k1, k2, d = params.kappa1, params.kappa2, params.d
    vstar = params.v_star

    u = np.asarray(u_profile.u_at(x), dtype=float)
    al = _sample_control(alpha, x)
    v_lo, th_lo = sub.v_at(x), sub.theta_at(x)
    v_hi, th_hi = np.minimum(u, vstar), sup.theta_at(x)

    ordered = np.all(v_lo <= v_hi + 1e-9) and np.all(th_lo <= th_hi + 1e-9)
    if not ordered:
        raise OrderingError("barriers are not ordered on the working grid")

    def v_residual(Vc: np.ndarray, Thc: np.ndarray) -> np.ndarray:
        return _v_operator(Vc, c, h) \
            + k2 * (u[1:-1] - Vc[1:-1]) * Thc[1:-1] \
            - (d + al[1:-1]) * Vc[1:-1]

    # The sandwich, not the defect, guards the steps: the defect has to
    # rise while the weakly pinned front travels.
    lo, mid, up = _v_stencil(c, h)
    slack = 1e-6
    V = v_lo.copy()
    V[-1] = vstar
    Th = _theta_closed_form(x, V, k1, c)
    F = v_residual(V, Th)
    nrm = float(np.max(np.abs(F)))
    history: list[float] = []
    deltas: list[float] = []
    delta = DELTA0
    while nrm > DEFECT_TOL:
        if len(deltas) == TRIALS:
            raise NonconvergenceError(
                f"fixed point not reached ({len(deltas)} trials, "
                f"{len(deltas) - len(history)} rejected, last defect "
                f"{nrm:.3g})", history=history)
        fac = k2 * (u[1:-1] - V[1:-1]) * (1.0 - Th[1:-1]) * (-k1 / c)
        dg = mid - (k2 * Th[1:-1] + d + al[1:-1])
        deltas.append(delta)
        V_try = V.copy()
        V_try[1:-1] += _newton_solve(dg - 1.0 / delta, up, lo, fac, h, F)
        Th_try = _theta_closed_form(x, V_try, k1, c)
        # written so that a NaN trial is rejected as well
        inside = np.all((V_try >= v_lo - slack) & (V_try <= v_hi + slack)
                        & (Th_try >= th_lo - slack)
                        & (Th_try <= th_hi + slack))
        if not inside:
            delta *= 0.5
            continue
        V, Th = V_try, Th_try
        F = v_residual(V, Th)
        nrm = float(np.max(np.abs(F)))
        history.append(nrm)
        delta *= 2.0
    work = {"trials": len(deltas), "iterations": len(history),
            "rejected": len(deltas) - len(history), "defect": nrm}
    log.debug("solve_vtheta at c=%g: trials=%d rejected=%d defect=%.3g", c,
              work["trials"], work["rejected"], nrm,
              extra={"vtheta_work": work})

    r2 = np.zeros_like(V)
    r2[1:-1] = F
    # Theta residual in the scheme's own (integrating-factor/trapezoid)
    # discretization: c D[ln(1-Theta)] = kappa1 V at cell midpoints,
    # multiplied back by (1-Theta); exact where Theta has saturated.
    one_m = 1.0 - Th
    r3 = np.zeros_like(Th)
    ok_cell = (one_m[:-1] > 1e-300) & (one_m[1:] > 1e-300)
    dlog = np.zeros(n - 1)
    dlog[ok_cell] = (np.log(one_m[1:][ok_cell])
                     - np.log(one_m[:-1][ok_cell])) / h
    mid_v = 0.5 * (V[:-1] + V[1:])
    mid_om = 0.5 * (one_m[:-1] + one_m[1:])
    r3[:-1] = np.where(ok_cell, mid_om * (k1 * mid_v - c * dlog), 0.0)

    path = TriplePath(x, u, V, Th, "solution",
                      residuals={"second": r2, "third": r3},
                      meta={"iterations": len(history), "defect": nrm,
                            "newton_iterations": len(history),
                            "rejected": work["rejected"], "deltas": deltas,
                            "history": history, "halfwidth": L, "h": h,
                            "v_right_end": float(V[-1]),
                            "theta_right_end": float(Th[-1])})
    return path


@dataclass
class Case2Report:
    """Outcome of the backward spiral integration (buffer-zone obstruction)."""

    x_violation: float
    component: str
    winding: float
    rotation_rate: float
    b: float
    periods_to_violation: float
    within_three_periods: bool
    seed_amplitude: float


def case2_demo(params: Model2Params, c: float,
               seed_amplitude: float = 1e-3) -> Case2Report:
    """Backward integration exhibiting the spiral sign obstruction.

    With U = 1 and alpha = 0, the state seed_amplitude * w2 on the rotating
    plane of the linearization is integrated backward in x.  The angular
    coordinate on that plane advances at rate ~ b, so V or Theta must
    change sign within a fraction of a rotation; the report records where,
    and the winding accumulated up to the violation.  A negative
    seed_amplitude starts with V < 0, a violation at x = 0; a zero or
    non-finite one raises InvalidParameterError.
    """
    if not 0.0 < abs(seed_amplitude) < np.inf:
        raise InvalidParameterError(
            f"seed_amplitude must be finite and nonzero, got {seed_amplitude}")
    spec2 = spectrum(c, params)
    if spec2.classification != "lemma71_regime":
        raise RegimeError(f"demonstration requires the complex-pair regime, "
                          f"got {spec2.classification}")
    a, b = spec2.a, spec2.b
    y0 = seed_amplitude * spec2.w2
    if y0[0] < 0.0 or y0[2] < 0.0:
        return Case2Report(0.0, "V" if y0[0] < 0 else "Theta", 0.0,
                           float("nan"), b, 0.0, True, seed_amplitude)

    rhs = _ode8_rhs(c, params, lambda x: 1.0)
    period = 2.0 * np.pi / b
    x_span = (0.0, -3.5 * period)

    def ev_v(x, y):
        return y[0]
    ev_v.terminal = True

    def ev_th(x, y):
        return y[2]
    ev_th.terminal = True

    sol = solve_ivp(rhs, x_span, y0, method="DOP853", rtol=1e-11, atol=1e-14,
                    dense_output=True, events=[ev_v, ev_th])
    hit_v = len(sol.t_events[0]) > 0
    hit_th = len(sol.t_events[1]) > 0
    if not (hit_v or hit_th):
        raise ConstructionFailureError(
            "no sign change of V or Theta within 3.5 rotation periods")
    x_v = sol.t_events[0][0] if hit_v else -np.inf
    x_t = sol.t_events[1][0] if hit_th else -np.inf
    x_violation = float(max(x_v, x_t))
    component = "V" if x_v >= x_t else "Theta"

    # winding of the (w2, w3)-plane coordinates up to the violation
    basis = np.column_stack([spec2.eigvec1, spec2.w2, spec2.w3])
    xs = np.linspace(0.0, x_violation, 400)
    ys = sol.sol(xs)
    coords = np.linalg.solve(basis, ys)
    ang = np.unwrap(np.arctan2(coords[2], coords[1]))
    winding = float(abs(ang[-1] - ang[0]) / (2.0 * np.pi))
    rate = float(abs(np.polyfit(xs, ang, 1)[0])) if len(xs) > 2 else float("nan")
    periods = abs(x_violation) / period
    return Case2Report(x_violation, component, winding, rate, b, periods,
                       periods <= 3.0, seed_amplitude)
