"""Tests of the benchmark itself (a few minutes; not part of the library suite).

    python3 -m pytest -q bench/selftest.py

They check that BENCHMARK.json keeps to its format, that every workload
prints every metric it names with its unit and passes its own checks, that
the work counters repeat exactly between two runs on one seed, that a run
leaves ``git status`` unchanged, that the stored binary optima match an
exhaustive enumeration, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Counters that must repeat exactly between two runs on one seed.
EXACT = re.compile(r"(\.calls(\..*)?|design\.binary\.leaves)$")

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")


def test_stored_binary_optima_match_exhaustive_enumeration():
    import exhaustive
    import msfnet

    model = msfnet.load_model_config(ROOT / "paper.cfg")
    for name in ("F", "H", "G"):
        np.testing.assert_array_equal(getattr(exhaustive, name), getattr(model, name))
    assert exhaustive.main() == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_repeats_counters(workload):
    before = git_status()
    plain = result_of(run_bench(workload, 5, trace=0))
    first = result_of(run_bench(workload, 5, trace=1))
    second = result_of(run_bench(workload, 5, trace=1))
    assert git_status() == before

    for result, spec in ((plain, SPEC["end_to_end"]), (first, SPEC["per_layer"]),
                         (second, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
    for value in plain["metrics"].values():
        assert value["value"] > 0
    counters = {name for name in first["metrics"] if EXACT.search(name)}
    assert counters
    assert {n: first["metrics"][n] for n in counters} == \
        {n: second["metrics"][n] for n in counters}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(WORKLOADS[0], 1, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
