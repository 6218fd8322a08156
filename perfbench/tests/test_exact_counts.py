"""The benchmark's own tests.

Each workload runs twice, in separate processes, on the same code and seed
at ``--size smoke`` (the smallest inputs that still run every code path)
with ``--trace 1``.  Every count listed as exact in perfbench/README.md must
repeat exactly, and both runs must pass their correctness checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, Tracer  # noqa: E402

# counts that must be positive on each workload, so equality is not vacuous
WORKS = {
    "effort_table": ["pmp.shots", "pmp.rhs_evals", "model.calls",
                     "speed.gap_evals", "control_construct.cost_of_calls"],
    "pde_crossval": ["pmp.shots", "pde.scalar_comoving.steps",
                     "pde.scalar_lab_moving.steps", "pde.scalar_free.steps"],
    "model2_sandwich": ["pmp.shots", "pde.model2.steps", "model2.sweeps",
                        "model2.calls"],
}


def smoke_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKS))
def test_exact_counts_repeat(workload):
    first, second = smoke_run(workload), smoke_run(workload)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0, run
    for name in WORKS[workload]:
        assert first["metrics"][name]["value"] > 0, name
    differ = {name: (first["metrics"][name]["value"],
                     second["metrics"][name]["value"])
              for name in EXACT_COUNTS
              if first["metrics"][name]["value"]
              != second["metrics"][name]["value"]}
    assert not differ


def test_self_time_excludes_children_and_model_calls():
    tr = Tracer("unit")
    spin = tr._wrap_model(lambda: time.sleep(0.02))
    with tr.span("pmp.outer"):
        time.sleep(0.02)
        spin()
        with tr.span("pde.inner"):
            time.sleep(0.02)
    m = tr.layer_metrics()
    assert m["pmp.calls"][0] == 1 and m["pde.calls"][0] == 1
    assert m["model.calls"][0] == 1
    assert 0.02 <= m["pmp.self_s"][0] < 0.035
    assert 0.02 <= m["pde.self_s"][0] < 0.035
    assert 0.02 <= m["model.self_s"][0] < 0.035
