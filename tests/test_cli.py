import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import msfnet
from msfnet import cli
from msfnet.cli import main
from msfnet.errors import NumericalFailure

MODEL_TEXT = """\
D = 3 5; -1 0
R = 1; 0
H = 1 0; 0 0
K = -5 0
L = -1 0
"""


# the first state never sees the feedback and grows at 0.22*lam - 1
UNSTABILIZABLE_TEXT = """\
D = -1 0; 0 -3
R = 0; 1
H = 0.22 0; 0 0
K = 0 0
L = 0 -1
"""


@pytest.fixture()
def model_cfg(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(MODEL_TEXT)
    return path


@pytest.fixture()
def unstabilizable_cfg(tmp_path):
    path = tmp_path / "unstabilizable.cfg"
    path.write_text(UNSTABILIZABLE_TEXT)
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


def test_non_finite_values_are_usage_errors(model_cfg, tmp_path, capsys):
    k2 = tmp_path / "k2.csv"
    k2.write_text("0,1\n1,0\n")
    sweep = ("sweep", "norm", "--family", "ring:2", "--n", "3:4",
             "--out", tmp_path / "sweep.csv")
    simulate = ("verify", "--plant", "complete:2", "--feedback", "zero", "--simulate")
    cases = [
        (("design", "weighted", "--network", "complete:4"), "--coupling"),
        (("design", "binary", "--network", "complete:3"), "--coupling"),
        (("design", "matching", "--network", "complete:4"), "--coupling"),
        (("design", "matching", "--network", k2), "--coupling"),
        (sweep, "--coupling"),
        (simulate, "--t-end"),
        (simulate, "--dt"),
        (("msf", "interval"), "--lambda"),
        (("design", "weighted", "--network", "complete:4"), "--margin"),
        (sweep, "--margin"),
        (("prob", "stability", "--family", "er:4:0.5", "--trials", "2", "--seed", "1"),
         "--margin"),
        (("design", "binary", "--network", "complete:3"), "--time-limit"),
    ]
    for prefix, flag in cases:
        for value in ("nan", "inf", "-inf"):
            code = run_cli(*prefix, "--model", model_cfg, f"{flag}={value}")
            err = capsys.readouterr().err
            assert code == 2, (prefix, flag, value)
            assert "error:" in err and "Traceback" not in err, (prefix, flag, value, err)
    assert not (tmp_path / "sweep.csv").exists()
    # a step count too large to preallocate (1e13 steps, 291 TiB), a grid of
    # 10^12 blocks of 2x2 (29 TiB), both failing to allocate at once, and
    # seeds that numpy refuses
    grid = ("msf", "grid", "--lambda", "-1:1", "--mu", "-1:1", "--steps", "1000000",
            "--out", tmp_path / "grid.csv")
    seeds = [("prob", "stability", "--family", "er:5:0.5", "--trials", "2", "--seed", "-3"),
             ("design", "weighted", "--network", "er:5:0.5:-1"),
             ("verify", "--plant", "complete:3", "--feedback", "zero", "--simulate",
              "--x0", "random:-1")]
    for args in ((*simulate, "--dt=1e-12"), grid, *seeds):
        assert run_cli(*args, "--model", model_cfg) == 2, args
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, err
    assert not (tmp_path / "grid.csv").exists()


def test_malformed_ranges_are_usage_errors(model_cfg, tmp_path, capsys):
    grid = ("msf", "grid", "--model", model_cfg, "--mu", "-1:1", "--out", tmp_path / "g.csv")
    sweep = ("sweep", "norm", "--model", model_cfg, "--family", "complete",
             "--out", tmp_path / "s.csv")
    for args, message in (((*grid, "--lambda", "-1:0:1"), "must be 'low:high'"),
                          ((*grid, "--lambda", "low:1"), "must be float 'low:high'"),
                          ((*sweep, "--n", "5:6.5"), "must be int 'low:high'")):
        assert run_cli(*args) == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_numerical_failure_is_a_verdict(model_cfg, monkeypatch, capsys):
    def failing(model, lam):
        raise NumericalFailure("eigenvalue computation failed")

    monkeypatch.setattr(cli, "stable_interval", failing)
    assert run_cli("msf", "interval", "--model", model_cfg, "--lambda", "3") == 1
    assert "error: eigenvalue computation failed" in capsys.readouterr().err


def test_range_flag_is_gone(model_cfg, tmp_path):
    for prefix in (("msf", "interval", "--lambda", "7"),
                   ("design", "weighted", "--network", "complete:4"),
                   ("sweep", "norm", "--family", "ring:4", "--n", "5:6",
                    "--out", tmp_path / "sweep.csv"),
                   ("prob", "stability", "--family", "er:4:0.5", "--trials", "2",
                    "--seed", "1")):
        assert run_cli(*prefix, "--model", model_cfg, "--range", "-50:50") == 2, prefix
    assert not (tmp_path / "sweep.csv").exists()


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
                   "--lambda", "7", "--lambda", "-1", "--lambda", "60", "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda_re,lambda_im,f_l,f_u"
    row7 = lines[1].split(",")
    assert float(row7[2]) == pytest.approx(5.0, abs=1e-6)
    assert row7[3] == "inf"
    assert lines[3] == "60.0,0.0,58.0,inf"  # no window caps the mu axis


def test_interval_of_complex_lambda(model_cfg, tmp_path, capsys):
    out = tmp_path / "iv.csv"
    code = run_cli("msf", "interval", "--model", model_cfg,
                   "--lambda", "3+1j", "--lambda", "-1-0.5j", "--out", out)
    assert code == 0
    model = msfnet.load_model_config(model_cfg)
    rows = out.read_text().splitlines()[1:]
    for row, lam in zip(rows, (3 + 1j, -1 - 0.5j)):
        iv = msfnet.stable_interval(model, lam)
        assert row == f"{lam.real},{lam.imag},{iv.lower},{iv.upper}"
    for bad in ("1+nanj", "3+1i"):
        assert run_cli("msf", "interval", "--model", model_cfg, "--lambda", bad) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_interval_without_stable_region(unstabilizable_cfg, tmp_path, capsys):
    code = run_cli("msf", "interval", "--model", unstabilizable_cfg, "--lambda", "60")
    assert code == 1
    assert "no stable interval" in capsys.readouterr().out


def test_interval_at_huge_lambda_does_not_overflow(model_cfg, capsys):
    # blocks with entries ~1e200: a Frobenius norm of the raw entries overflows
    code = run_cli("msf", "interval", "--model", model_cfg, "--lambda", "1e200")
    assert code == 1
    captured = capsys.readouterr()
    assert "no stable interval" in captured.out
    assert captured.err == ""


def test_extreme_lambda_and_coupling_end_without_overflow(model_cfg, capsys):
    # pytest turns numpy's overflow warnings into errors.  At |lam| = 1e306
    # the retry limit passes the largest float; at 8e307 so does the term
    # scale at the classifying point mu = 2 lam, and at 1e308 that point
    # itself; such a point counts as unstable
    for lam in ("1e306", "-1e306", "8e307", "-8e307", "1e308", "-1e308"):
        assert run_cli("msf", "interval", "--model", model_cfg, "--lambda", lam) == 1
        assert "no stable interval" in capsys.readouterr().out
    # squares of the adjacency and 9-decimal rounding of the modes overflow
    code = run_cli("design", "weighted", "--model", model_cfg,
                   "--network", "complete:3", "--coupling", "1e300")
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible"
    # the two modes near -1e300 differ in their last bits: each is listed
    assert report["detail"].count("lambda_") == 3


def test_design_weighted_outputs(model_cfg, tmp_path, capsys):
    out = tmp_path / "A.csv"
    report_path = tmp_path / "report.json"
    code = run_cli("design", "weighted", "--model", model_cfg,
                   "--network", "complete:8", "--margin", "0.01",
                   "--out", out, "--report", report_path)
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


def test_design_weighted_on_directed_network(model_cfg, tmp_path, capsys):
    # a one-way ring plus a chord: not normal, designed in its Schur basis;
    # its leading mode (lam = 3.395) needs a gain, its pair +-2.65i none
    plant = tmp_path / "directed.csv"
    plant.write_text("0,0,0,3\n3,0,0,0\n0,3,0,1.5\n0,0,3,0\n")
    out = tmp_path / "A.csv"
    code = run_cli("design", "weighted", "--model", model_cfg,
                   "--network", plant, "--out", out)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["verified"] is True
    assert report["mode_gains"][0] == pytest.approx(1.40514177, abs=1e-8)
    assert report["mode_gains"][1:] == [0.0, 0.0, 0.0]
    adjacency = msfnet.read_adjacency_csv(out).adjacency
    assert np.linalg.norm(adjacency, "fro") == pytest.approx(report["frobenius_norm"],
                                                              abs=1e-12)
    assert np.linalg.norm(report["mode_gains"]) == pytest.approx(report["frobenius_norm"],
                                                                 abs=1e-9)
    # a similarity of a Jordan block of 2 +- 3i (the first draw of
    # default_rng(5)): its double pair splits into two nearby pairs, each a
    # 2x2 real Schur block with one gain, so the feedback is real
    plant.write_text(
        "6.776512233747472,2.8732525444958332,3.8767176351160946,-1.707969481916371\n"
        "7.171626056215562,-3.124453442863422,11.175761144954356,-3.001096943738648\n"
        "2.701848487477958,-7.111223270834654,7.3804909356166135,-1.369567399644548\n"
        "14.690697219310323,-8.402880613848435,15.632035647189495,-3.032549726500671\n")
    code = run_cli("design", "weighted", "--model", model_cfg,
                   "--network", plant, "--out", out)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True
    gains = report["mode_gains"]
    assert gains[0] == gains[1] and gains[2] == gains[3]
    assert np.linalg.norm(gains) == pytest.approx(report["frobenius_norm"], abs=1e-12)


def test_design_matching_reports_norm(model_cfg, capsys):
    code = run_cli("design", "matching", "--model", model_cfg,
                   "--network", "complete:8")
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius_norm"] == pytest.approx(np.sqrt(56.0), abs=1e-9)
    assert report["matching_exact"] is True
    # replication with the refit gain doubles the coupling: unstable verdict
    assert report["verified"] is False
    assert code == 1


def test_design_matching_marginal_two_node_network(model_cfg, tmp_path, capsys):
    # the exact closed-loop spectrum contains +-i*sqrt(5): not verified
    path = tmp_path / "k2.csv"
    path.write_text("0,1\n1,0\n")
    code = run_cli("design", "matching", "--model", model_cfg, "--network", path)
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is False
    assert code == 1
    # --coupling scales a bare CSV path exactly as it scales file:PATH
    reports = []
    for network in (path, f"file:{path}"):
        run_cli("design", "weighted", "--model", model_cfg, "--network", network,
                "--coupling", "2")
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["mode_gains"] == reports[1]["mode_gains"] == [0.01, 0.0]


def test_design_matching_reports_complex_gains_as_pairs(model_cfg, tmp_path, capsys):
    # a directed 3-cycle has the modes 1 and -1/2 +- i sqrt(3)/2, and the
    # matching gains replicate them
    path = tmp_path / "cycle.csv"
    path.write_text("0,1,0\n0,0,1\n1,0,0\n")
    run_cli("design", "matching", "--model", model_cfg, "--network", path)
    gains = json.loads(capsys.readouterr().out)["mode_gains"]
    assert all(len(g) == 2 for g in gains)
    npt.assert_allclose(sorted(gains), [[-0.5, -np.sqrt(0.75)], [-0.5, np.sqrt(0.75)],
                                        [1.0, 0.0]], atol=1e-12)


def test_design_infeasible_exit(unstabilizable_cfg, capsys):
    code = run_cli("design", "weighted", "--model", unstabilizable_cfg,
                   "--network", "complete:8")
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


def test_verify_simulation_of_overflowing_loop_is_a_verdict(model_cfg, tmp_path, capsys):
    # the default sampling puts expm(dt * Ftilde) beyond the largest float
    # here: the trajectory ends diverged, an unstable verdict, not a usage error
    plant = tmp_path / "B.csv"
    plant.write_text(msfnet.adjacency_csv_text(msfnet.make_network("complete", 4).adjacency * 1e6))
    traj = tmp_path / "traj.csv"
    code = run_cli("verify", "--model", model_cfg, "--plant", plant, "--feedback", "zero",
                   "--simulate", "--out", traj)
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["diverged"] is True and report["final_time"] == 0.0
    assert len(traj.read_text().splitlines()) == 2


def test_prob_stability_csv(model_cfg, tmp_path, capsys):
    out = tmp_path / "prob.csv"
    for family in ("er:5:0.5", "er:5:.5"):
        code = run_cli("prob", "stability", "--model", model_cfg, "--family",
                       family, "--trials", "6", "--seed", "11", "--out", out)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        lines = out.read_text().splitlines()
        assert lines[0] == "p,trials,stable_fraction,ci_low,ci_high"
        fields = lines[1].split(",")
        assert fields[0] == "0.5", family  # str(float(p)), not the text as typed
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


def test_manifest_beside_out_else_report(model_cfg, unstabilizable_cfg, tmp_path,
                                         monkeypatch, capsys):
    model = ("--model", model_cfg)
    cases = [  # (argv, exit code, manifest directory or None for no manifest)
        (("msf", "grid", *model, "--lambda", "-1:1", "--mu", "-1:1", "--steps", "2",
          "--out", "g/grid.csv"), 0, "g"),
        (("msf", "interval", *model, "--lambda", "7", "--out", "iv.csv"), 0, "."),
        (("msf", "interval", *model, "--lambda", "7"), 0, None),
        (("design", "weighted", *model, "--network", "complete:4",
          "--out", "a/A.csv", "--report", "r/r.json"), 0, "a"),
        (("design", "matching", *model, "--network", "complete:4",
          "--report", "r/r.json"), 1, "r"),
        (("design", "weighted", "--model", unstabilizable_cfg, "--network", "complete:8",
          "--report", "r/r.json"), 1, "r"),
        (("design", "binary", *model, "--network", "ring:4:2", "--symmetric",
          "--out", "b/B.csv"), 0, "b"),
        (("design", "weighted", *model, "--network", "complete:4"), 0, None),
        (("design", "weighted", *model, "--network", "blob:9",
          "--out", "a/A.csv", "--report", "r/r.json"), 2, None),
        (("sweep", "norm", *model, "--family", "ring:4", "--n", "5:6",
          "--out", "s/sweep.csv"), 0, "s"),
        (("sweep", "norm", *model, "--family", "ring:4", "--n", "5:6", "--margin", "nan",
          "--out", "s/sweep.csv"), 2, None),
        (("verify", *model, "--plant", "complete:4", "--feedback", "zero",
          "--out", "v/traj.csv"), 1, "v"),
        (("prob", "stability", *model, "--family", "er:4:0.5", "--trials", "2",
          "--seed", "1", "--out", "p/prob.csv"), 0, "p"),
        (("prob", "stability", *model, "--family", "er:4:0.5", "--trials", "2",
          "--seed", "1"), 0, None),
    ]
    for index, (argv, code, where) in enumerate(cases):
        case = tmp_path / f"case{index}"
        case.mkdir()
        monkeypatch.chdir(case)
        assert run_cli(*argv) == code, argv
        capsys.readouterr()
        manifests = sorted(case.rglob("run-manifest.txt"))
        if where is None:
            assert manifests == [], argv
            continue
        assert manifests == [case / where / "run-manifest.txt"], argv
        command = "verify" if argv[0] == "verify" else " ".join(argv[:2])
        assert manifests[0].read_text().splitlines()[0] == f"command = {command}"


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


def _child(*args, cwd=None) -> str:
    """Stdout of a fresh Python process that imports the same msfnet as this
    one, installed or not."""
    src = str(Path(msfnet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_console_entry_point_subprocess():
    assert msfnet.__version__ in _child("-m", "msfnet", "--version")


def test_scipy_linalg_loads_only_where_it_is_called(model_cfg, tmp_path, monkeypatch):
    # importing scipy.linalg costs a process about 0.2 s, so a command that
    # calls no routine of it must not load it
    loaded = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _child("-c", f"import sys, msfnet, msfnet.cli; {loaded}") == "[]\n"
    model = str(model_cfg)
    linalg = [["design", "weighted", "--model", model, "--network", "complete:8",
               "--out", "A.csv", "--report", "report.json"]]
    numeric = [["msf", "grid", "--model", model, "--lambda", "-5:5", "--mu", "-5:5",
                "--steps", "11", "--out", "grid.csv"],
               ["verify", "--model", model, "--plant", "complete:4", "--feedback", "zero"],
               ["verify", "--model", model, "--plant", "complete:8", "--feedback", "A.csv",
                "--simulate", "--t-end", "1", "--dt", "0.01", "--out", "traj.csv"]]
    for commands, expected in ((linalg, True), (numeric, False)):  # design writes A.csv
        run = f"for argv in {commands!r}: main(argv)"
        out = _child("-c", f"import sys; from msfnet.cli import main\n{run}\n"
                           "print('scipy.linalg' in sys.modules)", cwd=tmp_path)
        assert out.splitlines()[-1] == str(expected)
    # the fresh processes write what this one, which has scipy loaded, writes
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    for argv in (*linalg, numeric[-1]):
        run_cli(*argv)
    for name in ("A.csv", "report.json", "traj.csv", "run-manifest.txt"):
        assert (here / name).read_bytes() == (tmp_path / name).read_bytes(), name
