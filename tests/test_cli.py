"""Command-line interface: outputs, config precedence, failure paths."""

from __future__ import annotations

import json

import numpy as np
import pytest

import travwave.acceptance as acc
import travwave.cli as cli
from travwave.cli import main
from travwave.control_construct import finite_cost_control
from travwave.errors import ConfigError

M2_ARGS = ["--model", "cubic", "--ustar", "0.15", "--rate", "4.5",
           "--c", "-0.9"]


def test_speed_prints_cstar(capsys):
    rc = main(["speed", "--model", "weed", "--ustar", "0.3333333"])
    out = capsys.readouterr().out
    assert rc == 0
    c = float(out.split("=")[1].split()[0])
    assert abs(c - (-0.2357)) < 1e-3


def test_speed_csv_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["speed", "--out", str(a)]) == 0
    assert main(["speed", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "u,p,beta"


def test_csharp_prints_minus_one(capsys):
    rc = main(["model2", "csharp", "--k1", "1", "--k2", "1", "--d", "1"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "-1.0"


def test_spectrum_and_demo(capsys, tmp_path):
    rc = main(["model2", "spectrum", "--c", "-0.9",
               "--out", str(tmp_path / "eig.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lemma71_regime" in out
    assert (tmp_path / "eig.csv").read_text().splitlines()[0] == "index,re,im"

    rc = main(["model2", "demo", "--c", "-0.9",
               "--json", str(tmp_path / "demo.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "within 3 periods: True" in out
    import json
    payload = json.loads((tmp_path / "demo.json").read_text())
    assert payload["results"]["within_three_periods"] is True


@pytest.mark.parametrize("sub", ["spectrum", "demo"])
def test_model2_at_zero_speed_is_an_error(capsys, sub):
    rc = main(["model2", sub, "--c", "0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "c < 0, got 0" in err


@pytest.mark.parametrize("sub", ["spectrum", "demo"])
def test_model2_at_an_infinite_speed_is_an_error(capsys, sub):
    # refused before the companion-matrix eigensolve, which would fail
    rc = main(["model2", sub, "--c=-inf"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "finite c < 0, got -inf" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample config\nmodel = weed\nustar = 0.5\n")
    rc = main(["speed", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert abs(float(out.split("=")[1].split()[0])) < 1e-5  # balanced case

    rc = main(["speed", "--config", str(cfg), "--ustar", "0.3333333"])
    out = capsys.readouterr().out
    assert rc == 0
    assert abs(float(out.split("=")[1].split()[0]) + 0.2357) < 1e-3


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_solver_failure_exit_code(capsys):
    # far above the reachable speed range: no shooting root
    rc = main(["optimal", "--c", "0.75"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_invalid_model_parameter(capsys):
    rc = main(["speed", "--model", "weed", "--ustar", "0.9"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["effort", "--n", "-1"], "n must be a whole number >= 1, got -1"),
    (["effort", "--n", "0"], "got 0"),
    (["effort", "--n", "2.5"], "got 2.5"),
    (["optimal", "--c", "nan"], "speed must be finite"),
    (["speed", "--tol", "nan"], "tol must be finite and positive"),
    (["model1", "--c", "-0.1", "--kappa1", "-1"],
     "kappa1 must be finite and positive"),
    (["model2", "csharp", "--k1", "inf"], "kappa1 must be finite and positive"),
    (["model2", "demo", "--amplitude", "nan"], "seed_amplitude must be finite"),
    (["model2", "demo", "--amplitude", "0"], "seed_amplitude must be finite"),
    (["speed", "--model", "cubic", "--ustar", "0.3", "--rate", "inf"],
     "rate must be finite and positive"),
    # below c* both printed the natural heteroclinic's cost 0 and exited 0
    (["optimal", "--c", "-0.5"], "speed ordering violated"),
    (["profile", "--c", "-0.5"], "speed ordering violated"),
    (["speed", "--model", "logistic"], "natural_speed requires bistable f"),
])
@pytest.mark.filterwarnings("error")  # refused before any numpy warning
def test_invalid_numeric_flags_are_errors(capsys, argv, needle):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and needle in err


def test_model2_profile_runs_on_its_defaults(capsys):
    # its default c lies above the default weed model's c*
    assert main(["model2", "profile"]) == 0
    assert capsys.readouterr().out.startswith("V(+inf) = ")


def test_effort_csv(tmp_path, capsys, c_star_weed):
    out = tmp_path / "effort.csv"
    rc = main(["effort", "--cmin", "-0.2", "--cmax", "-0.15", "--n", "2",
               "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,E"
    assert len(lines) == 3
    values = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert values[0, 1] <= values[1, 1]


def test_optimal_csv_surface(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    rc = main(["optimal", "--c", "-0.2", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,p,beta,y"
    body = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    active = body[:, 2] > 0.0
    assert np.any(active)
    # stationarity on the active arc: y = -L_beta(u, beta)
    from travwave.model import make_weed_model
    weed = make_weed_model(1.0 / 3.0)
    lb = np.asarray(weed.L_beta(body[active, 0], body[active, 2]))
    assert np.max(np.abs(body[active, 3] + lb)) < 1e-6


def test_verify_single_criterion(capsys):
    rc = main(["verify", "--only", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS")


@pytest.mark.parametrize("only, needle", [
    ("0", "no acceptance criterion 0"),
    ("12", "no acceptance criterion 12"),
    ("7,x", "'7,x'"),
])
def test_verify_rejects_unknown_criteria(capsys, only, needle):
    rc = main(["verify", "--only", only])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""  # no criterion ran
    assert err.startswith("error: ") and needle in err


def test_verify_json_report(tmp_path, capsys):
    js = tmp_path / "verify.json"
    rc = main(["verify", "--only", "7", "--json", str(js)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(js.read_text())
    assert payload["config"] == {"only": "7", "json": str(js)}
    [row] = payload["results"]["criteria"]
    assert list(row) == ["number", "name", "passed", "elapsed", "budget",
                         "within_budget", "details"]
    assert row["number"] == 7 and row["passed"] is True
    assert row["within_budget"] is (row["elapsed"] <= row["budget"])
    assert "c_sharp" in row["details"]


def test_unknown_model_is_a_config_error(tmp_path):
    # a config file can name the model, so argparse cannot reject it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = bogus\n")
    opts = cli.Opts(cli.build_parser().parse_args(
        ["speed", "--config", str(cfg)]))
    with pytest.raises(ConfigError, match="unknown model 'bogus'"):
        cli.build_model(opts)


@pytest.mark.parametrize("content, needle", [
    ("model = weed\nustar\n", "'ustar'"),      # line without '='
    ("ustar = abc\n", "'abc'"),                 # non-numeric value
    (None, "run.cfg"),                          # missing file
])
def test_config_errors_exit_one(tmp_path, capsys, content, needle):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_text(content)
    rc = main(["speed", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and needle in err


@pytest.fixture
def cached_profiles(monkeypatch):
    """Serve c*, c_hat and the optimal profiles from the session cache."""
    def speed(spec, **kwargs):
        return acc._m2_pipeline()["c_star"] if spec.u_star == 0.15 \
            else acc._c_star()

    def construct(spec, c, c_prime=None):
        return finite_cost_control(spec, c, c_prime=c_prime,
                                   c_star=acc._c_star(), c_hat=acc._c_hat())

    def optimal(spec, c, c_star=None):
        prof = acc._m2_pipeline()["profile"] if c == -0.9 \
            else acc._optimal_01()
        assert prof.c == c
        return prof

    monkeypatch.setattr(cli, "natural_speed", speed)
    monkeypatch.setattr(cli, "optimal_profile", optimal)
    monkeypatch.setattr(cli, "finite_cost_control", construct)


PDE_GRID = ["--T", "1", "--dx", "0.2"]


def test_bad_pde_grid_is_a_config_error(capsys, cached_profiles):
    # an infinite T, a grid of one node and a reversed span each exit 1
    # with an error line, not a traceback
    for grid in (["--T", "inf"], ["--dx", "1000"],
                 ["--xmin", "10", "--xmax", "-10"]):
        rc = main(["pde", "scalar", "--c", "-0.1", *grid])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "x_span" in err


@pytest.mark.parametrize("argv, header, keys", [
    (["construct", "--c", "-0.1"], "u,p,beta",
     ["u1", "u2_tilde", "c_prime", "cost", "cost_error"]),
    (["profile", "--c", "-0.1"], "x,u,p,alpha,theta", ["c_star", "cost"]),
    (["model1", "--c", "-0.1"], "x,u,p,alpha,theta",
     ["theta_left", "theta_right"]),
    (["model2", "profile", *M2_ARGS], "x,u,v,theta",
     ["v_right_end", "v_tail", "defect", "iterations", "rejected"]),
    (["pde", "scalar", "--c", "-0.1", *PDE_GRID], "t,x,u",
     ["c_star", "max_drift", "max_excursion", "T", "n_steps", "rate_bound",
      "dt_rate", "time_error"]),
    (["pde", "model1", "--c", "-0.1", *PDE_GRID], "t,x,u,theta",
     ["c_star", "max_drift", "theta_drift", "joint_drift", "cost_integral",
      "theta_monotone_in_t", "T", "n_steps", "rate_bound", "dt_rate",
      "time_error"]),
    (["pde", "model2", *M2_ARGS, *PDE_GRID], "t,x,u,v,theta",
     ["c_star", "max_drift", "v_drift", "theta_drift", "joint_drift",
      "d_invariance", "T", "n_steps", "rate_bound", "dt_rate",
      "time_error"]),
])
def test_csv_and_json_artifacts(tmp_path, capsys, cached_profiles, argv,
                                header, keys):
    csv, js = tmp_path / "out.csv", tmp_path / "out.json"
    rc = main([*argv, "--out", str(csv), "--json", str(js)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"to {csv}" in out
    assert csv.read_text().splitlines()[0] == header
    payload = json.loads(js.read_text())
    assert payload["config"]["out"] == str(csv)
    assert payload["config"]["json"] == str(js)
    assert list(payload["config"])[-2:] == ["out", "json"]
    assert list(payload["results"]) == keys
    if "rejected" in keys:
        res = payload["results"]
        assert (f"iterations = {res['iterations']}, "
                f"rejected = {res['rejected']}") in out


@pytest.mark.parametrize("with_out", [False, True])
def test_construct_at_natural_speed(tmp_path, capsys, with_out):
    # u* = 1/2 gives c* = 0 exactly: the trivial zero-cost construction
    csv = tmp_path / "het.csv"
    rc = main(["construct", "--ustar", "0.5", "--c", "0",
               *(["--out", str(csv)] if with_out else [])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cost = 0" in out
    if with_out:
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.all(np.diff(rows[:, 0]) > 0.0)
        assert np.all(rows[:, 2] == 0.0)


def test_optimal_json_reports_shooting(tmp_path, capsys, cached_profiles):
    js = tmp_path / "opt.json"
    assert main(["optimal", "--c", "-0.1", "--json", str(js)]) == 0
    capsys.readouterr()
    results = json.loads(js.read_text())["results"]
    assert list(results) == ["u1", "u2", "cost", "shooting"]
    shooting = results["shooting"]
    assert list(shooting) == ["u1_root", "phi_at_root", "roots", "scan_lo",
                              "scan_hi", "n_scanned", "shots", "cost_error"]
    assert 0 < shooting["n_scanned"] < shooting["shots"]
    assert 0.0 < shooting["cost_error"] <= 1e-9 * results["cost"]
