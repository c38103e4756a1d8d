import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msfnet
from msfnet.cli import main

MODEL_TEXT = """\
D = 3 5; -1 0
R = 1; 0
H = 1 0; 0 0
K = -5 0
L = -1 0
"""


@pytest.fixture()
def model_cfg(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(MODEL_TEXT)
    return path


def run_cli(*args) -> int:
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli() == 2
    assert run_cli("msf") == 2


def test_unknown_flag_is_usage_error(model_cfg):
    assert run_cli("verify", "--model", model_cfg, "--plant", "complete:4",
                   "--feedback", "zero", "--bogus") == 2


def test_missing_model_file(tmp_path):
    assert run_cli("design", "matching", "--model", tmp_path / "nope.cfg",
                   "--network", "complete:4") == 2


def test_directory_or_empty_path_input(model_cfg, tmp_path, capsys):
    assert run_cli("design", "matching", "--model", tmp_path,
                   "--network", "complete:4") == 2
    assert run_cli("design", "matching", "--model", model_cfg,
                   "--network", "file:") == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_bad_model_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(MODEL_TEXT + "Z = 1\n")
    assert run_cli("design", "matching", "--model", path,
                   "--network", "complete:4") == 2


def test_bad_network_spec(model_cfg):
    assert run_cli("design", "weighted", "--model", model_cfg,
                   "--network", "blob:9") == 2


def test_grid_csv_matches_library(model_cfg, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = run_cli("msf", "grid", "--model", model_cfg, "--lambda", "-10:10",
                   "--mu", "-10:10", "--steps", "11", "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,mu,sigma"
    assert len(lines) == 1 + 11 * 11
    model = msfnet.load_model_config(model_cfg)
    lams, mus, values = msfnet.sigma_grid(model, (-10.0, 10.0), (-10.0, 10.0), 11)
    for index, line in enumerate(lines[1:]):
        lam, mu, sig = (float(v) for v in line.split(","))
        i, j = divmod(index, 11)
        assert (lam, mu) == (lams[i], mus[j])
        assert sig == values[i, j]  # str(float) round-trips exactly


def test_interval_csv(model_cfg, tmp_path):
    out = tmp_path / "iv.csv"
    code = run_cli("msf", "interval", "--model", model_cfg,
                   "--lambda", "7", "--lambda", "-1", "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda_re,lambda_im,f_l,f_u,bounded_l,bounded_u"
    row7 = lines[1].split(",")
    assert float(row7[2]) == pytest.approx(5.0, abs=1e-6)
    assert (row7[4], row7[5]) == ("1", "0")


def test_interval_without_stable_region(model_cfg, tmp_path, capsys):
    code = run_cli("msf", "interval", "--model", model_cfg, "--lambda", "60")
    assert code == 1
    assert "no stable interval" in capsys.readouterr().out


def test_design_weighted_outputs(model_cfg, tmp_path, capsys):
    out = tmp_path / "A.csv"
    report_path = tmp_path / "report.json"
    code = run_cli("design", "weighted", "--model", model_cfg,
                   "--network", "complete:8", "--margin", "0.01",
                   "--range", "-50:50", "--out", out, "--report", report_path)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius_norm"] == pytest.approx(5.01, abs=1e-6)
    assert report["verified"] is True
    assert report["mode_gains"][0] == pytest.approx(5.01, abs=1e-6)
    assert "trace" in report
    assert json.loads(report_path.read_text()) == report
    adjacency = msfnet.read_adjacency_csv(out).adjacency
    assert np.linalg.norm(adjacency, "fro") == pytest.approx(5.01, abs=1e-6)
    assert (tmp_path / "run-manifest.txt").exists()


def test_design_matching_reports_norm(model_cfg, capsys):
    code = run_cli("design", "matching", "--model", model_cfg,
                   "--network", "complete:8")
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius_norm"] == pytest.approx(np.sqrt(56.0), abs=1e-9)
    assert report["matching_exact"] is True
    # replication with the refit gain doubles the coupling: unstable verdict
    assert report["verified"] is False
    assert code == 1


def test_design_infeasible_exit(model_cfg, capsys):
    code = run_cli("design", "weighted", "--model", model_cfg,
                   "--network", "complete:8", "--range", "-1:1")
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_design_binary_symmetric(model_cfg, tmp_path, capsys):
    out = tmp_path / "A.csv"
    code = run_cli("design", "binary", "--model", model_cfg,
                   "--network", "ring:4:2", "--symmetric",
                   "--time-limit", "30", "--out", out)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["optimal"] is True
    adjacency = msfnet.read_adjacency_csv(out).adjacency
    assert set(np.unique(adjacency)) <= {0.0, 1.0}


def test_sweep_norm_csv(model_cfg, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "norm", "--model", model_cfg, "--family", "ring:4",
                   "--n", "5:8", "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,weighted_norm,matching_norm,status"
    assert len(lines) == 5
    n8 = lines[-1].split(",")
    assert float(n8[1]) == pytest.approx(2.01, abs=1e-6)
    assert float(n8[2]) == pytest.approx(2.0 * np.sqrt(8.0), abs=1e-9)


def test_verify_zero_feedback_unstable(model_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "--model", model_cfg, "--plant", "complete:8",
                   "--feedback", "zero")
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["stable"] is False
    assert report["max_real_part"] == pytest.approx((5 + np.sqrt(5)) / 2, abs=1e-9)
    assert not (tmp_path / "run-manifest.txt").exists()  # no --out, no manifest


def test_verify_with_simulation(model_cfg, tmp_path, capsys):
    adjacency = tmp_path / "A.csv"
    run_cli("design", "weighted", "--model", model_cfg,
            "--network", "complete:8", "--out", adjacency)
    capsys.readouterr()
    traj = tmp_path / "traj.csv"
    code = run_cli("verify", "--model", model_cfg, "--plant", "complete:8",
                   "--feedback", adjacency, "--simulate", "--t-end", "2",
                   "--dt", "0.01", "--x0", "random:5", "--out", traj)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stable"] is True
    assert report["diverged"] is False
    lines = traj.read_text().splitlines()
    assert lines[0] == "t," + ",".join(f"x_{i}" for i in range(1, 17))
    assert len(lines) == 1 + 201  # initial state plus 200 steps


def test_prob_stability_csv(model_cfg, tmp_path, capsys):
    out = tmp_path / "prob.csv"
    code = run_cli("prob", "stability", "--model", model_cfg, "--family",
                   "er:5:0.5", "--trials", "6", "--seed", "11", "--out", out)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    lines = out.read_text().splitlines()
    assert lines[0] == "p,trials,stable_fraction,ci_low,ci_high"
    fields = lines[1].split(",")
    assert fields[0] == "0.5"
    assert int(fields[1]) == 6
    assert float(fields[2]) == report["stable_fraction"]


def test_prob_stability_requires_seed(model_cfg):
    assert run_cli("prob", "stability", "--model", model_cfg,
                   "--family", "er:5:0.5", "--trials", "2") == 2


def test_manifest_records_flags_and_versions(model_cfg, tmp_path):
    out = tmp_path / "grid.csv"
    run_cli("msf", "grid", "--model", model_cfg, "--lambda", "-2:2",
            "--mu", "-2:2", "--steps", "3", "--out", out)
    manifest = (tmp_path / "run-manifest.txt").read_text()
    assert "command = msf grid" in manifest
    assert "flag.steps = 3" in manifest
    assert f"version.msfnet = {msfnet.__version__}" in manifest
    assert f"version.numpy = {np.__version__}" in manifest


def test_repeated_runs_are_byte_identical(model_cfg, tmp_path):
    out = tmp_path / "prob.csv"
    args = ("prob", "stability", "--model", model_cfg, "--family", "er:5:0.4",
            "--trials", "5", "--seed", "7", "--out", out)
    assert run_cli(*args) == 0
    first = out.read_bytes()
    manifest_first = (tmp_path / "run-manifest.txt").read_bytes()
    assert run_cli(*args) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "run-manifest.txt").read_bytes() == manifest_first


def test_console_entry_point_subprocess():
    # the child imports the same msfnet as this process, installed or not
    src = str(Path(msfnet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "msfnet", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert msfnet.__version__ in proc.stdout
