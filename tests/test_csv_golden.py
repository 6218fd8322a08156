"""Exact text of every CSV format, from tiny hand-built inputs.

Values include 1/3 (all 17 significant digits), NaN (written `nan`) and
an absent theta (an empty field); the eigenvalue index prints as 0,1,2.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from travwave import cli
from travwave.model2 import TriplePath
from travwave.pde import EvolutionRecord
from travwave.phaseplane import PhaseTrajectory
from travwave.pmp import EffortRow, ShootingDiagnostics
from travwave.profile import SpatialProfile

THIRD = 1.0 / 3.0
NAN = float("nan")


def _trajectory(path, monkeypatch):
    PhaseTrajectory(np.array([0.0, THIRD, 1.0]), np.array([0.5, NAN, -2.0]),
                    -0.1, "test").to_csv(path)


def _spatial_no_theta(path, monkeypatch):
    SpatialProfile(np.array([-1.0, THIRD]), np.array([1e-300, 0.5]),
                   np.array([2.0, NAN]), np.array([0.0, 3.0]),
                   -0.1).to_csv(path)


def _spatial_theta(path, monkeypatch):
    SpatialProfile(np.array([-1.0, THIRD]), np.array([1e-300, 0.5]),
                   np.array([2.0, NAN]), np.array([0.0, 3.0]), -0.1,
                   theta_values=np.array([THIRD, 1.0])).to_csv(path)


def _triple(path, monkeypatch):
    TriplePath(np.array([-0.5, THIRD]), np.array([0.25, 1.0]),
               np.array([0.0, 0.5]), np.array([NAN, 2.0 / 3.0]),
               "solution").to_csv(path)


def _snapshots(path, monkeypatch):
    EvolutionRecord(np.array([0.0, THIRD]), np.array([0.0, 0.5]),
                    [np.array([0.1, 0.2]), np.array([THIRD, NAN])],
                    THIRD, 0.01, "lab", None).to_csv(path)


def _snapshots_model2(path, monkeypatch):
    EvolutionRecord(np.array([-1.0, THIRD]), np.array([0.0, 1.0]),
                    [np.array([0.1, 0.2]), np.array([THIRD, 1.0])],
                    THIRD, 0.01, "comoving", -0.9,
                    v_snapshots=[np.array([0.0, 0.1]), np.array([0.2, NAN])],
                    theta_snapshots=[np.array([0.0, 1.0]),
                                     np.array([THIRD, 0.5])]).to_csv(path)


def _optimal(path, monkeypatch):
    traj = PhaseTrajectory(np.array([THIRD, 0.5]), np.array([0.125, 0.25]),
                           -0.1, "optimal", beta_values=np.array([0.0, THIRD]),
                           y_values=np.array([NAN, -1.5]))
    monkeypatch.setattr(cli, "optimal_profile", lambda spec, c: SimpleNamespace(
        u1=THIRD, u2=0.5, cost=1.0, trajectory=traj,
        converged=ShootingDiagnostics(True, THIRD, 0.0, [THIRD], THIRD, 0.5,
                                      2)))
    cli.main(["optimal", "--out", str(path)])


def _effort(path, monkeypatch):
    rows = [EffortRow(-0.2, 0.0, True), EffortRow(-0.1, THIRD, True),
            EffortRow(0.0, NAN, False, message="failed")]
    monkeypatch.setattr(cli, "natural_speed", lambda spec: -0.25)
    monkeypatch.setattr(cli, "effort_curve", lambda spec, grid, c_star: rows)
    cli.main(["effort", "--out", str(path)])


def _spectrum(path, monkeypatch):
    roots = np.array([THIRD + 0.5j, THIRD - 0.5j, -2.0 / 3.0])
    monkeypatch.setattr(cli, "spectrum", lambda c, params: SimpleNamespace(
        classification="lemma71_regime", lambda1=-2.0 / 3.0, a=THIRD, b=0.5,
        lambda_min=0.5, c_sharp=-1.0, roots=roots))
    cli.main(["model2", "spectrum", "--out", str(path)])


GOLDEN = {
    "trajectory": (_trajectory, (
        "u,p,beta\n"
        "0,0.5,0\n"
        "0.33333333333333331,nan,0\n"
        "1,-2,0\n")),
    "spatial_no_theta": (_spatial_no_theta, (
        "x,u,p,alpha,theta\n"
        "-1,1e-300,2,0,\n"
        "0.33333333333333331,0.5,nan,3,\n")),
    "spatial_theta": (_spatial_theta, (
        "x,u,p,alpha,theta\n"
        "-1,1e-300,2,0,0.33333333333333331\n"
        "0.33333333333333331,0.5,nan,3,1\n")),
    "triple": (_triple, (
        "x,u,v,theta\n"
        "-0.5,0.25,0,nan\n"
        "0.33333333333333331,1,0.5,0.66666666666666663\n")),
    "snapshots": (_snapshots, (
        "t,x,u\n"
        "0,0,0.10000000000000001\n"
        "0,0.33333333333333331,0.20000000000000001\n"
        "0.5,0,0.33333333333333331\n"
        "0.5,0.33333333333333331,nan\n")),
    "snapshots_model2": (_snapshots_model2, (
        "t,x,u,v,theta\n"
        "0,-1,0.10000000000000001,0,0\n"
        "0,0.33333333333333331,0.20000000000000001,0.10000000000000001,1\n"
        "1,-1,0.33333333333333331,0.20000000000000001,0.33333333333333331\n"
        "1,0.33333333333333331,1,nan,0.5\n")),
    "optimal": (_optimal, (
        "u,p,beta,y\n"
        "0.33333333333333331,0.125,0,nan\n"
        "0.5,0.25,0.33333333333333331,-1.5\n")),
    "effort": (_effort, (
        "c,E\n"
        "-0.20000000000000001,0\n"
        "-0.10000000000000001,0.33333333333333331\n"
        "0,nan\n")),
    "spectrum": (_spectrum, (
        "index,re,im\n"
        "0,-0.66666666666666663,0\n"
        "1,0.33333333333333331,-0.5\n"
        "2,0.33333333333333331,0.5\n")),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_csv_golden_text(case, tmp_path, monkeypatch):
    write, expected = GOLDEN[case]
    path = tmp_path / f"{case}.csv"
    write(path, monkeypatch)
    assert path.read_text() == expected
