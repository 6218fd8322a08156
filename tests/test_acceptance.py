"""Acceptance gate: one test per criterion, in order.

Each test delegates to travwave.acceptance so that `travwave verify`
and pytest run the identical checks; the stated runtime budgets are part
of the criteria and asserted too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from travwave.acceptance import run_criterion

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("number", range(1, 12))
def test_criterion(number):
    result = run_criterion(number)
    assert result.passed, f"criterion {number} ({result.name}): {result.details}"
    assert result.within_budget, (
        f"criterion {number} exceeded its runtime budget: "
        f"{result.elapsed:.1f}s > {result.budget:.0f}s")
    print(f"criterion {number}: {result.details} [{result.elapsed:.1f}s]")


def test_run_all_times_no_import():
    # a fresh interpreter, as `travwave verify` starts: scipy.linalg is
    # loaded before the first timer of a selection with a banded solve
    # starts, so no criterion is charged its import, and a selection
    # without one does not load it; each probe reads whether it is loaded
    code = ("import sys\n"
            "import travwave.acceptance as acc\n"
            "probe = lambda: ('scipy.linalg' in sys.modules, '')\n"
            "acc.CRITERIA[0] = (1, 'probe', probe, 1.0)\n"
            "acc.CRITERIA[7] = (8, 'probe', probe, 1.0)\n"
            "print([acc.run_all([n])[0].passed for n in (1, 8)])\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "[False, True]\n"
