"""Smoke runs of the demo scripts against the current library API.

Each demo resolves ``paper.cfg`` and its ``output/`` directory from its own
``__file__``, so a copy under ``tmp_path`` keeps every write there.  Demo 02
is left out: its binary search alone takes several seconds.
"""

import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo,outputs", [
    ("01_stability_surface.py", ["stability_surface.csv"]),
    ("04_mode_decomposition.py", []),
    ("05_time_domain.py", ["trajectory_weighted.csv"]),
    ("03_ring_norm_sweep.py", ["ring_norm_sweep.csv"]),
    ("06_random_network_probability.py", ["matching_probability.csv"]),
])
def test_demo_runs(tmp_path, demo, outputs):
    shutil.copy(ROOT / "paper.cfg", tmp_path / "paper.cfg")
    (tmp_path / "demos").mkdir()
    script = shutil.copy(ROOT / "demos" / demo, tmp_path / "demos" / demo)
    runpy.run_path(str(script), run_name="__main__")
    for name in outputs:
        assert (tmp_path / "demos" / "output" / name).stat().st_size > 0
