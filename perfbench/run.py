"""Run one travwave benchmark workload and print its metrics.

    python3 perfbench/run.py --workload effort_table --seed 0 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.
One process is one closed-loop client: it sets up ``SETUP_REPEATS`` times,
then runs the workload's timed job back to back until ``--seconds`` have
passed (at least once), single-threaded.  Every job's outputs are checked.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb).  ``--trace 1`` sets up once under the tracer, runs one
untraced and one traced job, and reports the per-layer metrics derived
from the spans.  The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics; the full record, and the spans
of a traced run, are written to ``perfbench/out/``.  See
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
CALIB_REPEATS = 5
# one client, one thread: the library's pool and BLAS both stay serial
# the ROADMAP item-1 layer table, rebuilt from a traced run
LAYER_TABLE = (
    ("PMP RHS evaluation", "pmp.rhs_us"),
    ("one PMP shot", "pmp.shot_ms"),
    ("shots per optimal_profile", "pmp.shots_per_profile"),
    ("RHS evaluations per optimal_profile", "pmp.rhs_evals_per_profile"),
    ("optimal_profile, all calls", "pmp.optimal_profile_s"),
    ("natural_speed, all calls", "speed.natural_speed_s"),
    ("PDE step, scalar comoving", "pde.scalar_comoving.step_us"),
    ("PDE step, scalar lab frame, moving control",
     "pde.scalar_lab_moving.step_us"),
    ("PDE step, scalar free front", "pde.scalar_free.step_us"),
    ("PDE step, Model 2", "pde.model2.step_us"),
    ("solve_vtheta, all calls", "model2.solve_vtheta_s"),
)
THREAD_ENV = {"TRAVWAVE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["effort_table", "pde_crossval", "model2_sandwich"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: the smallest inputs that still run every "
                         "code path (for the exact-count tests)")
    return ap.parse_args(argv)


def calibrate() -> float:
    """Median time of a fixed pure-Python plus numpy loop (host speed)."""
    import numpy as np
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += (i % 7) * 0.5
        a = np.linspace(0.0, 1.0, 50_000)
        for _ in range(20):
            a = np.sqrt(a * a + 1.0) - 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(calib_before: float, calib_after: float) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "git_commit": git_commit(),
            "calib_before_s": calib_before, "calib_after_s": calib_after}


def _failure(checks: list, what: str, exc: Exception) -> None:
    traceback.print_exc()
    checks.append({"check": what, "passed": False,
                   "detail": f"{type(exc).__name__}: {exc}"})


def timed_job(wl, state, tr, checks: list) -> float:
    """One job, checked; an exception is a failed operation, not a crash."""
    t0 = time.perf_counter()
    try:
        out = wl.job(state, tr)
    except Exception as exc:
        elapsed = time.perf_counter() - t0
        _failure(checks, "job completed", exc)
        return elapsed
    elapsed = time.perf_counter() - t0
    try:
        for name, ok, detail in wl.check(state, out):
            checks.append({"check": name, "passed": bool(ok),
                           "detail": detail})
    except Exception as exc:
        _failure(checks, "checks completed", exc)
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "travwave" / "__init__.py").is_file():
        print(f"error: no travwave sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import travwave  # noqa: F401  (import time is part of setup_s)
    import_s = time.perf_counter() - t0
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, args.size == "smoke", OUT)
    null = NullTracer()
    checks: list[dict] = []
    calib_before = calibrate()

    if args.trace:
        tr = Tracer(run_id)
        with tr.installed():
            state = wl.setup(tr)
        untraced_s = timed_job(wl, state, null, checks)
        cpu0, t0 = time.process_time(), time.perf_counter()
        with tr.installed():
            traced_s = timed_job(wl, state, tr, checks)
        cpu_s = time.process_time() - cpu0
        wall = time.perf_counter() - t0
        calib_after = calibrate()
        metrics = tr.layer_metrics()
        metrics.update({
            "proc.cpu_s": (cpu_s, "s"),
            "proc.cpu_util": (cpu_s / wall, "ratio"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.spans": (len(tr.spans), "count"),
            "host.calib_s": (0.5 * (calib_before + calib_after), "s"),
        })
        tr.write(OUT / f"{run_id}.spans.jsonl")
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(null)
            setup_times.append(time.perf_counter() - t0)
        job_times = []
        t_start = time.perf_counter()
        while not job_times or time.perf_counter() - t_start < args.seconds:
            job_times.append(timed_job(wl, state, null, checks))
        calib_after = calibrate()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(job_times), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }

    host = host_record(calib_before, calib_after)
    failed = sum(not c["passed"] for c in checks)
    result = {"correct": failed == 0, "attempted": len(checks),
              "failed": failed,
              "metrics": {k: {"value": v if type(v) is int else float(v),
                              "unit": u} for k, (v, u) in metrics.items()}}
    record = {"run": run_id, "size": args.size, "inputs": wl.inputs(),
              "host": host, "checks": checks, **result}
    if not args.trace:
        record.update(import_s=import_s, setup_times=setup_times,
                      job_times=job_times)
    with open(OUT / f"{run_id}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for c in checks:
        if not c["passed"]:
            print(f"FAILED check: {c['check']} ({c['detail']})")
    print("host " + json.dumps(host))
    if args.trace:
        print("layer table:")
        for label, key in LAYER_TABLE:
            v, u = metrics[key]
            print(f"  {label:45s} {v:>12.4g} {u}")
    for k, (v, u) in metrics.items():
        print(f"{k:45s} {v:>16.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
