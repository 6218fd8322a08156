"""Command-line front end: speeds, controls, profiles, PDE runs, verify.

Configuration is a flat key=value text file (one pair per line, '#'
comments); command-line flags override config values.  All numeric output
is formatted with '%.17g' so identical configurations produce
byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance
from ._columns import write_columns
from .control_construct import finite_cost_control
from .errors import NoSolutionError, TravwaveError
from .model import Model2Params, make_cubic_model, make_logistic_model, \
    make_weed_model
from .model2 import c_sharp, case2_demo, solve_vtheta, spectrum, subsolution, \
    supersolution
from .pde import evolve_model1, evolve_model2, evolve_scalar
from .pmp import effort_curve, optimal_profile
from .profile import alpha_multiplicative, reconstruct_x, theta_model1
from .speed import natural_speed

__all__ = ["main"]


def read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


class Opts:
    """Flag > config > default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = read_config(args.config) if getattr(args, "config", None) \
            else {}
        self.echo: dict = {}

    def get(self, name: str, default, cast=float):
        val = getattr(self.args, name, None)
        if val is None:
            raw = self.cfg.get(name)
            val = cast(raw) if raw is not None else default
        self.echo[name] = val
        return val


def build_model(o: Opts):
    kind = o.get("model", "weed", str)
    if kind == "weed":
        return make_weed_model(o.get("ustar", 1.0 / 3.0))
    if kind == "cubic":
        return make_cubic_model(o.get("ustar", 1.0 / 3.0),
                                o.get("rate", 1.0))
    if kind == "logistic":
        return make_logistic_model(o.get("kappa3", 1.0))
    raise TravwaveError(f"unknown model {kind!r} (weed, cubic, logistic)")


def model2_params(o: Opts) -> Model2Params:
    return Model2Params(o.get("k1", 1.0), o.get("k2", 1.0), o.get("d", 1.0))


def write_json(path, o: Opts, results: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump({"config": o.echo, "results": results}, fh, indent=2,
                      default=float)
            fh.write("\n")


def _scalar_profile(spec, c):
    c_star = natural_speed(spec)
    prof = optimal_profile(spec, c, c_star=c_star)
    return c_star, prof, reconstruct_x(prof.trajectory, spec)


def cmd_speed(o: Opts) -> int:
    spec = build_model(o)
    tol = o.get("tol", 1e-8)
    c_star = natural_speed(spec, tol=tol)
    print(f"c_star = {c_star:.8g}  ({spec.label})")
    out = o.get("out", None, str)
    if out:
        from .control_construct import natural_heteroclinic
        natural_heteroclinic(spec, c_star).to_csv(out)
        print(f"wrote heteroclinic trajectory to {out}")
    write_json(o.get("json", None, str), o, {"c_star": c_star})
    return 0


def cmd_construct(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    cprime = o.get("cprime", None)
    prof = finite_cost_control(spec, c, c_prime=cprime)
    print(f"u1 = {prof.u1:.8g}  u2_tilde = {prof.u2_tilde:.8g}  "
          f"c' = {prof.c_prime:.8g}  cost = {prof.cost:.8g}")
    out = o.get("out", None, str)
    if out:
        prof.trajectory.to_csv(out)
        print(f"wrote concatenated trajectory to {out}")
    write_json(o.get("json", None, str), o,
               {"u1": prof.u1, "u2_tilde": prof.u2_tilde,
                "c_prime": prof.c_prime, "cost": prof.cost})
    return 0


def cmd_optimal(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    prof = optimal_profile(spec, c)
    print(f"u1 = {prof.u1:.8g}  u2 = {prof.u2:.8g}  cost = {prof.cost:.8g}")
    out = o.get("out", None, str)
    if out:
        t = prof.trajectory
        ys = t.y_values if t.y_values is not None else np.full_like(t.u_nodes,
                                                                    np.nan)
        write_columns(out, {"u": t.u_nodes, "p": t.p_values,
                            "beta": t.beta_values, "y": ys})
        print(f"wrote optimal trajectory to {out}")
    write_json(o.get("json", None, str), o,
               {"u1": prof.u1, "u2": prof.u2, "cost": prof.cost})
    return 0


def cmd_effort(o: Opts) -> int:
    spec = build_model(o)
    cmin = o.get("cmin", None)
    cmax = o.get("cmax", 0.0)
    n = int(o.get("n", 6))
    c_star = natural_speed(spec)
    if cmin is None:
        cmin = c_star
    grid = np.linspace(max(cmin, c_star), cmax, n)
    rows = effort_curve(spec, grid, c_star=c_star)
    for r in rows:
        flag = "" if r.ok else f"  FAILED: {r.message}"
        print(f"c = {r.c:+.6f}   E = {r.effort:.8g}{flag}")
    out = o.get("out", None, str)
    if out:
        write_columns(out, {"c": [r.c for r in rows],
                            "E": [r.effort for r in rows]})
        print(f"wrote effort table to {out}")
    write_json(o.get("json", None, str), o,
               {"rows": [(r.c, r.effort, r.ok) for r in rows]})
    return 0 if all(r.ok for r in rows) else 1


def cmd_profile(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    c_star, prof, sp = _scalar_profile(spec, c)
    print(f"c = {c:g} (c* = {c_star:.6g})  cost = {prof.cost:.8g}  "
          f"x-range [{sp.x_nodes[0]:.2f}, {sp.x_nodes[-1]:.2f}]")
    out = o.get("out", None, str)
    if out:
        sp.to_csv(out)
        print(f"wrote spatial profile to {out}")
    write_json(o.get("json", None, str), o,
               {"c_star": c_star, "cost": prof.cost})
    return 0


def cmd_model1(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    kappa1 = o.get("kappa1", 1.0)
    c_star, prof, sp = _scalar_profile(spec, c)
    thp = theta_model1(sp, kappa1, c)
    print(f"theta ends: {thp.theta_values[0]:.3g} .. "
          f"{thp.theta_values[-1]:.8g}  (kappa1 = {kappa1:g}, c = {c:g})")
    out = o.get("out", None, str)
    if out:
        thp.to_csv(out)
        print(f"wrote tree-infection profile to {out}")
    write_json(o.get("json", None, str), o,
               {"theta_left": float(thp.theta_values[0]),
                "theta_right": float(thp.theta_values[-1])})
    return 0


def cmd_model2(o: Opts) -> int:
    sub = o.args.m2command
    params = model2_params(o)
    if sub == "csharp":
        cs = c_sharp(params)
        print(str(float(cs)))
        write_json(o.get("json", None, str), o, {"c_sharp": cs})
        return 0
    if sub == "spectrum":
        c = o.get("c", -0.9)
        s = spectrum(c, params)
        print(f"classification: {s.classification}")
        print(f"lambda1 = {s.lambda1:.10g}")
        print(f"pair    = {s.a:.10g} +- {s.b:.10g} i")
        print(f"lambda_min = {s.lambda_min:.10g}  c_sharp = {s.c_sharp:.10g}")
        out = o.get("out", None, str)
        if out:
            roots = np.sort_complex(s.roots)
            write_columns(out, {"index": np.arange(len(roots)),
                                "re": roots.real, "im": roots.imag})
            print(f"wrote eigenvalue table to {out}")
        write_json(o.get("json", None, str), o,
                   {"classification": s.classification, "lambda1": s.lambda1,
                    "a": s.a, "b": s.b, "c_sharp": s.c_sharp})
        return 0
    if sub == "demo":
        c = o.get("c", -0.9)
        amp = o.get("amplitude", 1e-3)
        rep = case2_demo(params, c, seed_amplitude=amp)
        print(f"sign violation of {rep.component} at x = {rep.x_violation:.6g}"
              f"  ({rep.periods_to_violation:.3f} rotation periods, "
              f"winding {rep.winding:.3f})")
        print(f"rotation rate {rep.rotation_rate:.6g} vs b = {rep.b:.6g}; "
              f"within 3 periods: {rep.within_three_periods}")
        write_json(o.get("json", None, str), o, vars(rep))
        return 0
    if sub == "profile":
        c = o.get("c", -0.9)
        spec = build_model(o)
        c_star, prof, sp = _scalar_profile(spec, c)
        alpha = alpha_multiplicative(sp)
        sup = supersolution(sp, params, c)
        subp = subsolution(sp, alpha, params, c)
        sol = solve_vtheta(sp, alpha, params, c, sub=subp, sup=sup)
        print(f"V(+inf) = {sol.meta['v_right_end']:.6f} "
              f"(V* = {params.v_star:.6f}); "
              f"iterations = {sol.meta['iterations']}, "
              f"defect = {sol.meta['defect']:.3g}")
        out = o.get("out", None, str)
        if out:
            sol.to_csv(out)
            print(f"wrote (x,u,v,theta) profile to {out}")
        write_json(o.get("json", None, str), o,
                   {"v_right_end": sol.meta["v_right_end"],
                    "defect": sol.meta["defect"]})
        return 0
    raise TravwaveError(f"unknown model2 subcommand {sub!r}")


def cmd_pde(o: Opts) -> int:
    sub = o.args.pdecommand
    spec = build_model(o)
    c = o.get("c", -0.1)
    T = o.get("T", 50.0)
    dx = o.get("dx", 0.05)
    span = (o.get("xmin", -60.0), o.get("xmax", 60.0))
    c_star, prof, sp = _scalar_profile(spec, c)
    results: dict = {"c_star": c_star}
    if sub == "scalar":
        rec = evolve_scalar(spec, sp, alpha_of_x=sp.alpha_at, c_frame=c, T=T,
                            x_span=span, dx=dx)
        print(f"comoving drift over T={T:g}: {rec.summary['max_drift']:.4g}")
        results.update(rec.summary)
    elif sub == "model1":
        kappa1 = o.get("kappa1", 0.02)
        thp = theta_model1(sp, kappa1, c)
        theta0 = lambda x: float(np.interp(x, thp.x_nodes, thp.theta_values,
                                           left=0.0, right=1.0))
        rec = evolve_model1(spec, thp, theta0, alpha_of_moving_frame=sp.alpha_at,
                            kappa1=kappa1, c_frame=c, T=T, x_span=span, dx=dx)
        print(f"joint drift over T={T:g}: {rec.summary['joint_drift']:.4g}")
        results.update(rec.summary)
    elif sub == "model2":
        params = model2_params(o)
        alpha = alpha_multiplicative(sp)
        sol = solve_vtheta(sp, alpha, params, c)
        u0 = lambda x: float(sp.u_at(x))
        v0 = lambda x: float(np.interp(x, sol.x_nodes, sol.v_values,
                                       left=0.0, right=params.v_star))
        th0 = lambda x: float(np.interp(x, sol.x_nodes, sol.theta_values,
                                        left=0.0, right=1.0))
        rec = evolve_model2(spec, u0, v0, th0, alpha_of_x=alpha, params=params,
                            c_frame=c, T=T, x_span=span, dx=dx)
        print(f"joint drift over T={T:g}: {rec.summary['joint_drift']:.4g}  "
              f"D-invariance excursion: {rec.summary['d_invariance']:.3g}")
        results.update(rec.summary)
    else:
        raise TravwaveError(f"unknown pde subcommand {sub!r}")
    out = o.get("out", None, str)
    if out:
        rec.to_csv(out)
        print(f"wrote snapshots to {out}")
    write_json(o.get("json", None, str), o, results)
    return 0


def cmd_verify(o: Opts) -> int:
    only = o.get("only", None, str)
    selected = [int(s) for s in only.split(",")] if only else None
    results = acceptance.run_all(selected)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  criterion {r.number:2d} [{r.elapsed:6.1f}s]  "
              f"{r.name}: {r.details}")
        all_ok &= r.passed
    return 0 if all_ok else 1


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", type=str, help="weed | cubic | logistic")
    p.add_argument("--ustar", type=float, help="interior zero of f")
    p.add_argument("--rate", type=float, help="amplitude of the cubic f")
    p.add_argument("--kappa3", type=float, help="logistic growth rate")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="key=value config file")
    p.add_argument("--out", type=str, help="CSV output path")
    p.add_argument("--json", type=str, help="JSON summary path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="travwave",
        description="Controlled traveling-wave profiles for invasion fronts")
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("speed", help="natural front speed c*")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--tol", type=float)

    p = sp.add_parser("construct", help="finite-cost constructed control")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--cprime", type=float)

    p = sp.add_parser("optimal", help="minimum-effort profile at speed c")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--c", type=float)

    p = sp.add_parser("effort", help="effort table E(c) over a speed grid")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--cmin", type=float)
    p.add_argument("--cmax", type=float)
    p.add_argument("--n", type=float)

    p = sp.add_parser("profile", help="spatial profile of the optimal wave")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--c", type=float)

    p = sp.add_parser("model1", help="tree-infection profile Theta(x)")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--kappa1", type=float)

    p = sp.add_parser("model2", help="insect/tree system analysis")
    p.add_argument("m2command", choices=["spectrum", "csharp", "profile",
                                         "demo"])
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--amplitude", type=float)

    p = sp.add_parser("pde", help="method-of-lines cross validation")
    p.add_argument("pdecommand", choices=["scalar", "model1", "model2"])
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--kappa1", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--dx", type=float)
    p.add_argument("--xmin", type=float)
    p.add_argument("--xmax", type=float)

    p = sp.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--config", type=str)
    p.add_argument("--only", type=str,
                   help="comma-separated criterion numbers")
    return ap


HANDLERS = {
    "speed": cmd_speed,
    "construct": cmd_construct,
    "optimal": cmd_optimal,
    "effort": cmd_effort,
    "profile": cmd_profile,
    "model1": cmd_model1,
    "model2": cmd_model2,
    "pde": cmd_pde,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    o = Opts(args)
    try:
        return HANDLERS[args.command](o)
    except NoSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.phi_table is not None:
            print("u1, phi scan table:", file=sys.stderr)
            for u1, phi in exc.phi_table:
                print(f"  {u1:.6f}  {phi:+.6e}", file=sys.stderr)
        return 1
    except TravwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
