"""The benchmark's workloads: seeded inputs, set-up, timed job and checks.

Each workload calls the public travwave API the way a CLI command does:
`effort_table` like ``travwave effort``, `pde_crossval` like
``travwave pde scalar`` (plus the lab-frame and free-front runs of
acceptance criterion 9), `model2_sandwich` like ``travwave model2 profile``
followed by ``travwave pde model2``.  The seed only draws the speeds.

`setup` builds what the job starts from (the model and, where the job
needs one, the controlled profile); `job` is the timed work; `check`
returns one (name, passed, detail) triple per correctness check, at
tolerances no looser than the acceptance criteria.
"""

from __future__ import annotations

import csv
import math
import os
import random
from pathlib import Path

import numpy as np

import travwave as tw

C_STAR_WEED = -1.0 / (3.0 * math.sqrt(2.0))   # exact c* of the weed model
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _free_front(x: float) -> float:
    return 1.0 if x > 20.0 else 0.0


class Workload:
    """Seeded inputs and output directory shared by the workloads.

    Subclasses define ``inputs()``, ``setup(tr)``, ``job(state, tr)`` and
    ``check(state, out)``; ``tr`` is the tracer or a `NullTracer`.
    """

    name = ""

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.rng = random.Random(seed)

    def _jitter(self, centre: float, width: float) -> float:
        """A speed drawn uniformly from [centre - width/2, centre + width/2]."""
        return centre + width * (self.rng.random() - 0.5)


class EffortTable(Workload):
    """Weed model (u* = 1/3): c*, E(c) by PMP shooting, constructed costs."""

    name = "effort_table"

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        centres = (-0.025,) if smoke else (-0.175, -0.1, -0.025)
        self.speeds = [self._jitter(c, 0.02) for c in centres]

    def inputs(self):
        return {"u_star": 1.0 / 3.0, "speeds": self.speeds}

    def setup(self, tr):
        return {"spec": tw.make_weed_model(1.0 / 3.0)}

    def job(self, state, tr):
        spec = tr.model(state["spec"])
        c_star = tw.natural_speed(spec)
        rows = tw.effort_curve(spec, [c_star] + self.speeds, c_star=c_star,
                               keep_profiles=True)
        constructed = []
        c_hat = None
        for r in rows:
            con = tw.finite_cost_control(spec, r.c, c_star=c_star, c_hat=c_hat)
            c_hat = con.meta.get("c_hat", c_hat)
            constructed.append(con.cost)
        path = self.out_dir / "effort_table.csv"
        with open(path, "w") as fh:
            fh.write("c,E\n")
            for r in rows:
                fh.write(f"{r.c:.17g},{r.effort:.17g}\n")
        return {"c_star": c_star, "rows": rows, "constructed": constructed}

    def check(self, state, out):
        rows, spec = out["rows"], state["spec"]
        err = abs(out["c_star"] - C_STAR_WEED)
        checks = [("c* within 1e-6 of -1/(3 sqrt 2)", err <= 1e-6,
                   f"|err| = {err:.2e}")]
        E = [r.effort for r in rows]
        checks.append(("E(c*) <= 1e-6", E[0] <= 1e-6, f"E(c*) = {E[0]:.2e}"))
        nondec = all(E[i] <= E[i + 1] + 1e-12 for i in range(len(E) - 1))
        checks.append(("E nondecreasing", nondec, str(E)))
        for r, con in zip(rows, out["constructed"]):
            checks.append((f"row ok at c={r.c:.6f}", r.ok, r.message))
            if not r.ok:
                continue
            prof = r.profile
            if prof.arc is not None:
                b1 = float(prof.arc.beta_values[0])
                b2 = float(prof.arc.beta_values[-1])
                checks.append((
                    f"u* < u1 < u2 < 1 at c={r.c:.6f}",
                    spec.u_star < prof.u1 < prof.u2 < 1.0,
                    f"u1 = {prof.u1:.8f}, u2 = {prof.u2:.8f}"))
                checks.append((
                    f"beta ends <= 1e-6 at c={r.c:.6f}",
                    b1 <= 1e-6 and b2 <= 1e-6, f"({b1:.1e}, {b2:.1e})"))
            checks.append((f"E <= constructed + 1e-9 at c={r.c:.6f}",
                           r.effort <= con + 1e-9,
                           f"E = {r.effort:.10g}, constructed = {con:.10g}"))
        if self.seed == DEFAULT_SEED and not self.smoke:
            checks.append(self._check_reference(rows))
        return checks

    def _check_reference(self, rows):
        with open(REFERENCE_DIR / f"{self.name}_seed{DEFAULT_SEED}.csv") as fh:
            ref = [(float(r["c"]), float(r["E"])) for r in csv.DictReader(fh)]
        ok = len(ref) == len(rows) and all(
            abs(r.c - c) <= 1e-12 and abs(r.effort - e) <= 1e-9 * abs(e)
            for r, (c, e) in zip(rows, ref))
        worst = max((abs(r.effort - e) / abs(e) for r, (_, e) in
                     zip(rows, ref) if e), default=0.0)
        return ("E matches the reference table to 1e-9 relative", ok,
                f"worst relative difference {worst:.1e}")


class PdeCrossval(Workload):
    """Controlled weed wave evolved comoving, in the lab frame and free."""

    name = "pde_crossval"

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.c = self._jitter(-0.1, 0.02)
        self.T = 20.0 if smoke else 50.0

    def inputs(self):
        return {"u_star": 1.0 / 3.0, "c": self.c, "T": self.T, "dx": 0.05}

    def setup(self, tr):
        raw = tw.make_weed_model(1.0 / 3.0)
        spec = tr.model(raw)
        c_star = tw.natural_speed(spec)
        scan = {"scan_resolution": 1e-2} if self.smoke else {}
        prof = tw.optimal_profile(spec, self.c, c_star=c_star, **scan)
        return {"spec": raw, "c_star": c_star, "profile": prof,
                "spatial": tw.reconstruct_x(prof.trajectory, spec)}

    def job(self, state, tr):
        spec, sp, c = tr.model(state["spec"]), state["spatial"], self.c
        rec = tw.evolve_scalar(spec, sp, alpha_of_x=sp.alpha_at, c_frame=c,
                               T=self.T)
        rec_lab = tw.evolve_scalar(spec, sp, alpha_of_x=sp.alpha_at, T=self.T,
                                   control_speed=c)
        fit_c = tw.front_speed(rec_lab)
        rec_free = tw.evolve_scalar(spec, _free_front, T=self.T)
        fit_f = tw.front_speed(rec_free)
        path = self.out_dir / "pde_snapshots.csv"
        with tr.span("pde.to_csv") as attrs:
            rec.to_csv(path)
        size = os.path.getsize(path)
        attrs["bytes"] = size
        return {"drift": rec.summary["max_drift"], "speed": fit_c.speed,
                "free_speed": fit_f.speed, "csv_rows": len(rec.times) * len(rec.x), "csv": path}

    def check(self, state, out):
        err_c = abs(out["speed"] - self.c) / abs(self.c)
        err_f = abs(out["free_speed"] - C_STAR_WEED) / abs(C_STAR_WEED)
        with open(out["csv"]) as fh:
            lines = sum(1 for _ in fh)
        return [
            ("comoving drift <= 1e-2", out["drift"] <= 1e-2,
             f"{out['drift']:.2e}"),
            ("controlled front speed within 5%", err_c <= 0.05,
             f"{out['speed']:.6f} vs {self.c:.6f} ({100 * err_c:.2f}%)"),
            ("free front speed within 2% of -1/(3 sqrt 2)", err_f <= 0.02,
             f"{out['free_speed']:.6f} ({100 * err_f:.2f}%)"),
            ("snapshot CSV has one row per snapshot and cell",
             lines == out["csv_rows"] + 1, f"{lines} lines"),
        ]


class Model2Sandwich(Workload):
    """Cubic model (0.15, 4.5): barriers, exact (V, Theta), Model-2 PDE."""

    name = "model2_sandwich"

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.c = self._jitter(-0.9, 0.01)
        self.T = 2.0 if smoke else 50.0
        self.params = tw.Model2Params(1.0, 1.0, 1.0)

    def inputs(self):
        return {"u_star": 0.15, "rate": 4.5, "c": self.c, "T": self.T,
                "dx": 0.05, "kappa1": 1.0, "kappa2": 1.0, "d": 1.0}

    def setup(self, tr):
        raw = tw.make_cubic_model(0.15, 4.5)
        spec = tr.model(raw)
        c_star = tw.natural_speed(spec)
        scan = {"scan_resolution": 1e-2} if self.smoke else {}
        prof = tw.optimal_profile(spec, self.c, c_star=c_star, **scan)
        sp = tw.reconstruct_x(prof.trajectory, spec)
        return {"spec": raw, "c_star": c_star, "profile": prof, "spatial": sp,
                "alpha": tw.alpha_multiplicative(sp)}

    def job(self, state, tr):
        spec, sp, alpha = tr.model(state["spec"]), state["spatial"], \
            state["alpha"]
        c, params = self.c, self.params
        sup = tw.supersolution(sp, params, c)
        sub = tw.subsolution(sp, alpha, params, c)
        sol = tw.solve_vtheta(sp, alpha, params, c, sub=sub, sup=sup)
        path = self.out_dir / "model2_vtheta.csv"
        with tr.span("model2.to_csv"):
            sol.to_csv(path)
        vstar = params.v_star

        def v0(x):
            return float(np.interp(x, sol.x_nodes, sol.v_values, left=0.0,
                                   right=vstar))

        def th0(x):
            return float(np.interp(x, sol.x_nodes, sol.theta_values,
                                   left=0.0, right=1.0))
        rec = tw.evolve_model2(spec, lambda x: float(sp.u_at(x)), v0, th0,
                               alpha_of_x=alpha, params=params, c_frame=c,
                               T=self.T, x_span=(-60.0, 60.0), dx=0.05)
        return {"sup": sup, "sub": sub, "sol": sol,
                "d_invariance": rec.summary["d_invariance"]}

    def check(self, state, out):
        sup, sub, sol = out["sup"], out["sub"], out["sol"]
        tol = 1e-6
        sup_ok = (float(np.max(sup.residuals["second"])) <= tol
                  and float(np.max(sup.residuals["third"])) <= tol)
        sub_ok = (float(np.min(sub.residuals["second"])) >= -tol
                  and float(np.min(sub.residuals["third"])) >= -tol)
        x, vstar = sol.x_nodes, self.params.v_star
        v_lo = np.interp(x, sub.x_nodes, sub.v_values, left=0.0, right=vstar)
        th_lo = np.interp(x, sub.x_nodes, sub.theta_values, left=0.0,
                          right=1.0)
        v_hi = np.minimum(sol.u_values, vstar)
        th_hi = np.interp(x, sup.x_nodes, sup.theta_values, left=0.0,
                          right=1.0)
        sandwich = (bool(np.all(sol.v_values >= v_lo - tol))
                    and bool(np.all(sol.v_values <= v_hi + tol))
                    and bool(np.all(sol.theta_values >= th_lo - tol))
                    and bool(np.all(sol.theta_values <= th_hi + tol)))
        v_end = abs(sol.meta["v_right_end"] - vstar)
        d_inv = out["d_invariance"]
        return [
            ("supersolution residuals <= 1e-6", sup_ok, ""),
            ("subsolution residuals >= -1e-6", sub_ok, ""),
            ("sandwich holds within 1e-6", sandwich, ""),
            ("|V(+inf) - V*| <= 1e-3", v_end <= 1e-3, f"{v_end:.2e}"),
            ("d_invariance <= 1e-6", d_inv <= 1e-6, f"{d_inv:.2e}"),
        ]


WORKLOADS = {w.name: w for w in (EffortTable, PdeCrossval, Model2Sandwich)}
