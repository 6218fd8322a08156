"""In-memory span tracer for the travwave benchmark.

The tracer wraps the library from the outside: while `installed()` is
active, every public function of the seven module layers is replaced, in
every loaded ``travwave`` namespace that holds it, by a wrapper that
records a span (name, start, end, parent, run id).  ``solve_ivp`` is
wrapped as ``phaseplane`` and ``pmp`` import it, to read ``nfev``.  The
``ModelSpec`` callables are wrapped through ``dataclasses.replace`` by
`model()`; they are too many for spans, so they only add to a call count
and a time, which is charged to the innermost open span so that layer
self times exclude it.

A span's self time is its duration minus its child spans and the model
time charged to it.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("speed", "phaseplane", "pmp", "control_construct", "profile",
          "model2", "pde")
ODE_LAYERS = ("phaseplane", "pmp")
MODEL_FIELDS = ("f", "df", "L", "L_beta", "L_betabeta", "L_ubeta",
                "beta_max", "beta_from_alpha")
PDE_PATHS = ("scalar_comoving", "scalar_lab_moving", "scalar_free", "model2")
SHOT_STATUSES = ("met_psharp", "beta_zero", "p_zero", "left_domain")
# counts that must repeat exactly between runs of the same code and seed
EXACT_COUNTS = (
    "pmp.shots", "pmp.scan_shots", "pmp.rhs_evals",
    *(f"pmp.shot_status.{s}" for s in SHOT_STATUSES),
    "model.calls", "speed.gap_evals", "phaseplane.manifold_calls",
    "phaseplane.rhs_evals", "control_construct.cost_of_calls", "pde.steps",
    *(f"pde.{p}.steps" for p in PDE_PATHS),
    "model2.sweeps", "model2.newton_iters",
    *(f"{layer}.calls" for layer in LAYERS), "trace.spans")


class NullTracer:
    """Tracing off: no spans, the model spec is passed through."""

    def span(self, name, **attrs):
        return nullcontext({})

    def model(self, spec):
        return spec


def _probe_optimal_profile(attrs, args, kwargs, out):
    attrs["n_scanned"] = out.converged.n_scanned
    attrs["n_roots"] = len(out.converged.roots)


def _probe_shot(attrs, args, kwargs, out):
    attrs["status"] = out.status


def _probe_evolve_scalar(attrs, args, kwargs, out):
    if kwargs.get("c_frame") is not None:
        attrs["path"] = "scalar_comoving"
    elif kwargs.get("control_speed") not in (None, 0.0):
        attrs["path"] = "scalar_lab_moving"
    else:
        attrs["path"] = "scalar_free"
    attrs["steps"] = out.summary["n_steps"]
    attrs["cells"] = len(out.x)


def _probe_evolve_model2(attrs, args, kwargs, out):
    attrs["path"] = "model2"
    attrs["steps"] = out.summary["n_steps"]
    attrs["cells"] = len(out.x)


def _probe_solve_vtheta(attrs, args, kwargs, out):
    attrs["newton_iters"] = out.meta["newton_iterations"]
    attrs["sweeps"] = out.meta["iterations"] - out.meta["newton_iterations"]
    attrs["defect"] = out.meta["defect"]


PROBES = {
    "pmp.optimal_profile": _probe_optimal_profile,
    "pmp.shoot_from": _probe_shot,
    "pde.evolve_scalar": _probe_evolve_scalar,
    "pde.evolve_model2": _probe_evolve_model2,
    "model2.solve_vtheta": _probe_solve_vtheta,
}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self.model_calls = 0
        self.model_s = 0.0
        self.rhs_evals: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> dict:
        self._next_id += 1
        rec = {"id": self._next_id, "name": name, "run": self.run_id,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "attrs": attrs, "child_s": 0.0, "model_s": 0.0,
               "start": perf_counter()}
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += rec["end"] - rec["start"]
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, **attrs):
        """Span around a call the benchmark itself makes into a layer."""
        rec = self._open(name, attrs)
        try:
            yield rec["attrs"]
        finally:
            self._close(rec)

    def _wrap_function(self, fn, name: str):
        probe = PROBES.get(name)

        def wrapper(*args, **kwargs):
            rec = self._open(name, {})
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if probe is not None:
                probe(rec["attrs"], args, kwargs, out)
            return out
        return wrapper

    def _wrap_ode(self, solve_ivp, layer: str):
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.rhs_evals[layer] += sol.nfev
            return sol
        return wrapper

    def _wrap_model(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.model_calls += 1
                self.model_s += dt
                if self._stack:
                    self._stack[-1]["model_s"] += dt
        return wrapper

    def model(self, spec):
        """Copy of a ModelSpec whose callables count calls and time."""
        return dataclasses.replace(spec, **{
            name: self._wrap_model(getattr(spec, name))
            for name in MODEL_FIELDS if getattr(spec, name) is not None})

    @contextmanager
    def installed(self):
        """Patch the layers' public functions for the duration of a block."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "travwave" or n.startswith("travwave.")]
        patches = []
        for layer in LAYERS:
            mod = sys.modules[f"travwave.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap_function(fn, f"{layer}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            patches.append((ns, attr, fn, wrapper))
        for layer in ODE_LAYERS:
            mod = sys.modules[f"travwave.{layer}"]
            patches.append((mod, "solve_ivp", mod.solve_ivp,
                            self._wrap_ode(mod.solve_ivp, layer)))
        for ns, attr, _, wrapper in patches:
            setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for ns, attr, original, _ in reversed(patches):
                setattr(ns, attr, original)

    # -- analysis ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({k: rec[k] for k in (
                    "id", "name", "start", "end", "parent", "run", "attrs")})
                    + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics derived from the recorded spans and counters."""
        dur, self_s, pde_time = (defaultdict(float) for _ in range(3))
        n, calls, shot_status, pde_steps, pde_cells = (
            Counter() for _ in range(5))
        scan_shots = roots = profiles = csv_bytes = sweeps = newton = 0
        defect = 0.0
        for rec in self.spans:
            name, attrs = rec["name"], rec["attrs"]
            d = rec["end"] - rec["start"]
            layer = name.split(".", 1)[0]
            dur[name] += d
            n[name] += 1
            calls[layer] += 1
            self_s[layer] += d - rec["child_s"] - rec["model_s"]
            if name == "pmp.shoot_from" and "status" in attrs:
                shot_status[attrs["status"]] += 1
            elif name == "pmp.optimal_profile" and attrs.get("n_scanned"):
                scan_shots += attrs["n_scanned"]
                roots += attrs["n_roots"]
                profiles += 1
            elif "path" in attrs:
                pde_steps[attrs["path"]] += attrs["steps"]
                pde_cells[attrs["path"]] = attrs["cells"]
                pde_time[attrs["path"]] += d
            elif name == "pde.to_csv":
                csv_bytes += attrs["bytes"]
            elif name == "model2.solve_vtheta" and "sweeps" in attrs:
                sweeps += attrs["sweeps"]
                newton += attrs["newton_iters"]
                defect = attrs["defect"]

        def ratio(a, b):
            return a / b if b else 0.0

        shots, shot_s = n["pmp.shoot_from"], dur["pmp.shoot_from"]
        manifolds = (n["phaseplane.unstable_manifold"]
                     + n["phaseplane.stable_manifold"])
        manifold_s = (dur["phaseplane.unstable_manifold"]
                      + dur["phaseplane.stable_manifold"])
        csv_mb = csv_bytes / 1e6
        m = {
            "pmp.optimal_profile_s": (dur["pmp.optimal_profile"], "s"),
            "pmp.shot_ms": (1e3 * ratio(shot_s, shots), "ms"),
            "pmp.rhs_us": (1e6 * ratio(shot_s, self.rhs_evals["pmp"]), "us"),
            "pmp.shots": (shots, "count"),
            "pmp.scan_shots": (scan_shots, "count"),
            "pmp.rhs_evals": (self.rhs_evals["pmp"], "count"),
            "pmp.shots_per_profile": (ratio(shots, profiles), "count"),
            "pmp.rhs_evals_per_profile": (
                ratio(self.rhs_evals["pmp"], profiles), "count"),
            "pmp.shot_yield": (
                ratio(2 * roots + shots - scan_shots, shots), "ratio"),
        }
        for status in SHOT_STATUSES:
            m[f"pmp.shot_status.{status}"] = (shot_status[status], "count")
        m.update({
            "model.calls": (self.model_calls, "count"),
            "model.self_s": (self.model_s, "s"),
            "speed.natural_speed_s": (dur["speed.natural_speed"], "s"),
            "speed.gap_evals": (n["speed.manifold_gap"], "count"),
            "phaseplane.manifold_calls": (manifolds, "count"),
            "phaseplane.manifold_ms": (
                1e3 * ratio(manifold_s, manifolds), "ms"),
            "phaseplane.rhs_evals": (self.rhs_evals["phaseplane"], "count"),
            "control_construct.finite_cost_control_s": (
                dur["control_construct.finite_cost_control"], "s"),
            "control_construct.cost_of_s": (
                dur["control_construct.cost_of"], "s"),
            "control_construct.cost_of_calls": (
                n["control_construct.cost_of"], "count"),
            "profile.reconstruct_x_s": (dur["profile.reconstruct_x"], "s"),
            "pde.steps": (sum(pde_steps.values()), "count"),
        })
        for path in PDE_PATHS:
            steps = pde_steps[path]
            m[f"pde.{path}.steps"] = (steps, "count")
            m[f"pde.{path}.step_us"] = (
                1e6 * ratio(pde_time[path], steps), "us")
            m[f"pde.{path}.cell_step_ns"] = (
                1e9 * ratio(pde_time[path], steps * pde_cells[path]), "ns")
        m.update({
            "pde.front_speed_s": (dur["pde.front_speed"], "s"),
            "pde.csv_s": (dur["pde.to_csv"], "s"),
            "pde.csv_mb": (csv_mb, "MB"),
            "pde.csv_mb_per_s": (ratio(csv_mb, dur["pde.to_csv"]), "MB/s"),
            "model2.barriers_s": (dur["model2.supersolution"]
                                  + dur["model2.subsolution"], "s"),
            "model2.solve_vtheta_s": (dur["model2.solve_vtheta"], "s"),
            "model2.sweeps": (sweeps, "count"),
            "model2.newton_iters": (newton, "count"),
            "model2.vtheta_defect": (defect, "1"),
        })
        for layer in LAYERS:
            m[f"{layer}.calls"] = (calls[layer], "count")
            m[f"{layer}.self_s"] = (self_s[layer], "s")
        return m
