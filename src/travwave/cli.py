"""Command-line front end: speeds, controls, profiles, PDE runs, verify.

Configuration is a flat key=value text file (one pair per line, '#'
comments); command-line flags override config values.  All numeric output
is formatted with '%.17g' so identical configurations produce
byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import acceptance
from ._columns import write_columns
from .control_construct import finite_cost_control, natural_heteroclinic
from .errors import ConfigError, NoSolutionError, TravwaveError
from .model import Model2Params, make_cubic_model, make_logistic_model, \
    make_weed_model
from .model2 import c_sharp, case2_demo, solve_vtheta, spectrum
from .pde import evolve_model1, evolve_model2, evolve_scalar
from .pmp import effort_curve, optimal_profile
from .profile import alpha_multiplicative, reconstruct_x, theta_model1
from .speed import natural_speed

__all__ = ["main"]


def read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: "
                          f"{exc.strerror}") from exc
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


class Opts:
    """Flag > config > default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = read_config(args.config) if args.config else {}
        self.echo: dict = {}

    def get(self, name: str, default, cast=float):
        val = getattr(self.args, name, None)
        if val is None:
            raw = self.cfg.get(name)
            try:
                val = cast(raw) if raw is not None else default
            except ValueError as exc:
                raise ConfigError(f"config key {name!r}: {raw!r} is not a "
                                  f"{cast.__name__}") from exc
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
    raise ConfigError(f"unknown model {kind!r} (weed, cubic, logistic)")


def model2_params(o: Opts) -> Model2Params:
    return Model2Params(o.get("k1", 1.0), o.get("k2", 1.0), o.get("d", 1.0))


def finish(o: Opts, results: dict, what: str = "", write=None) -> int:
    """Write the CSV artifact (if `write` and --out) and the JSON summary.

    --out is read before --json, so the echoed configuration lists them in
    that order; commands without a CSV pass no `write` and never read --out.
    """
    if write is not None:
        out = o.get("out", None, str)
        if out:
            write(out)
            print(f"wrote {what} to {out}")
    path = o.get("json", None, str)
    if path:
        with open(path, "w") as fh:
            json.dump({"config": o.echo, "results": results}, fh, indent=2,
                      default=float)
            fh.write("\n")
    return 0


def _scalar_profile(spec, c):
    c_star = natural_speed(spec)
    prof = optimal_profile(spec, c, c_star=c_star)
    return c_star, prof, reconstruct_x(prof.trajectory, spec)


def cmd_speed(o: Opts) -> int:
    spec = build_model(o)
    tol = o.get("tol", 1e-8)
    c_star = natural_speed(spec, tol=tol)
    print(f"c_star = {c_star:.8g}  ({spec.label})")
    return finish(o, {"c_star": c_star}, "heteroclinic trajectory",
                  lambda out: natural_heteroclinic(spec, c_star).to_csv(out))


def cmd_construct(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    cprime = o.get("cprime", None)
    prof = finite_cost_control(spec, c, c_prime=cprime)
    print(f"u1 = {prof.u1:.8g}  u2_tilde = {prof.u2_tilde:.8g}  "
          f"c' = {prof.c_prime:.8g}  cost = {prof.cost:.8g}  "
          f"cost_error = {prof.meta['cost_error']:.2g}")
    return finish(o, {"u1": prof.u1, "u2_tilde": prof.u2_tilde,
                      "c_prime": prof.c_prime, "cost": prof.cost,
                      "cost_error": prof.meta["cost_error"]},
                  "concatenated trajectory",
                  lambda out: prof.trajectory.to_csv(out))


def cmd_optimal(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    prof = optimal_profile(spec, c)
    print(f"u1 = {prof.u1:.8g}  u2 = {prof.u2:.8g}  cost = {prof.cost:.8g}")

    def write(out):
        t = prof.trajectory
        ys = t.y_values if t.y_values is not None \
            else np.full_like(t.u_nodes, np.nan)
        write_columns(out, {"u": t.u_nodes, "p": t.p_values,
                            "beta": t.beta_values, "y": ys})

    return finish(o, {"u1": prof.u1, "u2": prof.u2, "cost": prof.cost,
                      "shooting": dataclasses.asdict(prof.converged)},
                  "optimal trajectory", write)


def cmd_effort(o: Opts) -> int:
    spec = build_model(o)
    cmin = o.get("cmin", None)
    cmax = o.get("cmax", 0.0)
    n = o.get("n", 6)
    if not (float(n).is_integer() and n >= 1):
        raise ConfigError(f"n must be a whole number >= 1, got {n:g}")
    c_star = natural_speed(spec)
    if cmin is None:
        cmin = c_star
    grid = np.linspace(max(cmin, c_star), cmax, int(n))
    rows = effort_curve(spec, grid, c_star=c_star)
    for r in rows:
        flag = "" if r.ok else f"  FAILED: {r.message}"
        print(f"c = {r.c:+.6f}   E = {r.effort:.8g}{flag}")
    finish(o, {"rows": [(r.c, r.effort, r.ok) for r in rows]}, "effort table",
           lambda out: write_columns(out, {"c": [r.c for r in rows],
                                           "E": [r.effort for r in rows]}))
    return 0 if all(r.ok for r in rows) else 1


def cmd_profile(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    c_star, prof, sp = _scalar_profile(spec, c)
    print(f"c = {c:g} (c* = {c_star:.6g})  cost = {prof.cost:.8g}  "
          f"x-range [{sp.x_nodes[0]:.2f}, {sp.x_nodes[-1]:.2f}]")
    return finish(o, {"c_star": c_star, "cost": prof.cost}, "spatial profile",
                  sp.to_csv)


def cmd_model1(o: Opts) -> int:
    spec = build_model(o)
    c = o.get("c", -0.1)
    kappa1 = o.get("kappa1", 1.0)
    c_star, prof, sp = _scalar_profile(spec, c)
    thp = theta_model1(sp, kappa1, c)
    print(f"theta ends: {thp.theta_values[0]:.3g} .. "
          f"{thp.theta_values[-1]:.8g}  (kappa1 = {kappa1:g}, c = {c:g})")
    return finish(o, {"theta_left": float(thp.theta_values[0]),
                      "theta_right": float(thp.theta_values[-1])},
                  "tree-infection profile", thp.to_csv)


def cmd_model2(o: Opts) -> int:
    sub = o.args.m2command
    params = model2_params(o)
    if sub == "csharp":
        cs = c_sharp(params)
        print(str(float(cs)))
        return finish(o, {"c_sharp": cs})
    if sub == "spectrum":
        c = o.get("c", -0.9)
        s = spectrum(c, params)
        print(f"classification: {s.classification}")
        print(f"lambda1 = {s.lambda1:.10g}")
        print(f"pair    = {s.a:.10g} +- {s.b:.10g} i")
        print(f"lambda_min = {s.lambda_min:.10g}  c_sharp = {s.c_sharp:.10g}")
        roots = np.sort_complex(s.roots)
        return finish(o, {"classification": s.classification,
                          "lambda1": s.lambda1, "a": s.a, "b": s.b,
                          "c_sharp": s.c_sharp}, "eigenvalue table",
                      lambda out: write_columns(
                          out, {"index": np.arange(len(roots)),
                                "re": roots.real, "im": roots.imag}))
    if sub == "demo":
        c = o.get("c", -0.9)
        amp = o.get("amplitude", 1e-3)
        rep = case2_demo(params, c, seed_amplitude=amp)
        print(f"sign violation of {rep.component} at x = {rep.x_violation:.6g}"
              f"  ({rep.periods_to_violation:.3f} rotation periods, "
              f"winding {rep.winding:.3f})")
        print(f"rotation rate {rep.rotation_rate:.6g} vs b = {rep.b:.6g}; "
              f"within 3 periods: {rep.within_three_periods}")
        return finish(o, vars(rep))
    # "profile"; argparse has already rejected any other choice.  The
    # default model is the weed, so c defaults above its c*, as in `pde`
    c = o.get("c", -0.1)
    spec = build_model(o)
    c_star, prof, sp = _scalar_profile(spec, c)
    alpha = alpha_multiplicative(sp)
    sol = solve_vtheta(sp, alpha, params, c)
    print(f"V(+inf) = {sol.meta['v_right_end']:.6f} "
          f"(V* = {params.v_star:.6f}); "
          f"iterations = {sol.meta['iterations']}, "
          f"rejected = {sol.meta['rejected']}, "
          f"defect = {sol.meta['defect']:.3g}")
    return finish(o, {k: sol.meta[k] for k in ("v_right_end", "defect",
                                                "iterations", "rejected")},
                  "(x,u,v,theta) profile", sol.to_csv)


def cmd_pde(o: Opts) -> int:
    sub = o.args.pdecommand
    spec = build_model(o)
    c = o.get("c", -0.1)
    T = o.get("T", 50.0)
    dx = o.get("dx", 0.05)
    span = (o.get("xmin", -60.0), o.get("xmax", 60.0))
    c_star, prof, sp = _scalar_profile(spec, c)
    if sub == "scalar":
        rec = evolve_scalar(spec, sp, alpha_of_x=sp.alpha_at, c_frame=c, T=T,
                            x_span=span, dx=dx)
        print(f"comoving drift over T={T:g}: {rec.summary['max_drift']:.4g}")
    elif sub == "model1":
        kappa1 = o.get("kappa1", 0.02)
        thp = theta_model1(sp, kappa1, c)
        rec = evolve_model1(spec, thp, thp.theta_at, alpha_of_x=sp.alpha_at,
                            kappa1=kappa1, c_frame=c, T=T, x_span=span, dx=dx)
        print(f"joint drift over T={T:g}: {rec.summary['joint_drift']:.4g}")
    else:  # "model2"
        params = model2_params(o)
        alpha = alpha_multiplicative(sp)
        sol = solve_vtheta(sp, alpha, params, c)
        rec = evolve_model2(spec, sp, sol.v_at, sol.theta_at,
                            alpha_of_x=alpha, params=params, c_frame=c, T=T,
                            x_span=span, dx=dx)
        print(f"joint drift over T={T:g}: {rec.summary['joint_drift']:.4g}  "
              f"D-invariance excursion: {rec.summary['d_invariance']:.3g}")
    return finish(o, {"c_star": c_star, **rec.summary}, "snapshots",
                  rec.to_csv)


def cmd_verify(o: Opts) -> int:
    only = o.get("only", None, str)
    try:
        selected = [int(s) for s in only.split(",")] if only else None
    except ValueError as exc:
        raise ConfigError(f"--only takes comma-separated criterion numbers, "
                          f"got {only!r}") from exc
    results = acceptance.run_all(selected)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  criterion {r.number:2d} [{r.elapsed:6.1f}s]  "
              f"{r.name}: {r.details}")
    keys = ("number", "name", "passed", "elapsed", "budget", "within_budget",
            "details")
    finish(o, {"criteria": [{k: getattr(r, k) for k in keys}
                            for r in results]})
    return 0 if all(r.passed for r in results) else 1


class Command(NamedTuple):
    """One subcommand as the parser declares it and `main` dispatches it."""

    handler: Callable[[Opts], int]
    help: str
    flags: tuple          # (name, type, help) triples, in parser order
    positional: tuple | None = None   # (dest, choices) of a sub-subcommand


def _solver_flags(*floats: str) -> tuple:
    """Model flags, the common flags, then the command's own float flags."""
    return (("model", str, "weed | cubic | logistic"),
            ("ustar", float, "interior zero of f"),
            ("rate", float, "amplitude of the cubic f"),
            ("kappa3", float, "logistic growth rate"),
            ("config", str, "key=value config file"),
            ("out", str, "CSV output path"),
            ("json", str, "JSON summary path"),
            *((name, float, None) for name in floats))


COMMANDS = {
    "speed": Command(cmd_speed, "natural front speed c*", _solver_flags("tol")),
    "construct": Command(cmd_construct, "finite-cost constructed control",
                         _solver_flags("c", "cprime")),
    "optimal": Command(cmd_optimal, "minimum-effort profile at speed c",
                       _solver_flags("c")),
    "effort": Command(cmd_effort, "effort table E(c) over a speed grid",
                      _solver_flags("cmin", "cmax", "n")),
    "profile": Command(cmd_profile, "spatial profile of the optimal wave",
                       _solver_flags("c")),
    "model1": Command(cmd_model1, "tree-infection profile Theta(x)",
                      _solver_flags("c", "kappa1")),
    "model2": Command(cmd_model2, "insect/tree system analysis",
                      _solver_flags("c", "k1", "k2", "d", "amplitude"),
                      ("m2command", ("spectrum", "csharp", "profile", "demo"))),
    "pde": Command(cmd_pde, "method-of-lines cross validation",
                   _solver_flags("c", "kappa1", "k1", "k2", "d", "T", "dx",
                                 "xmin", "xmax"),
                   ("pdecommand", ("scalar", "model1", "model2"))),
    "verify": Command(cmd_verify, "run the acceptance suite",
                      (("config", str, None),
                       ("only", str, "comma-separated criterion numbers"),
                       ("json", str, "JSON report path"))),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="travwave",
        description="Controlled traveling-wave profiles for invasion fronts")
    sp = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sp.add_parser(name, help=cmd.help)
        if cmd.positional:
            dest, choices = cmd.positional
            p.add_argument(dest, choices=choices)
        for flag, kind, text in cmd.flags:
            p.add_argument(f"--{flag}", type=kind, help=text)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].handler(Opts(args))
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
