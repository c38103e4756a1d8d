import numpy as np
import numpy.testing as npt
import pytest

import msfnet
import oracles
from msfnet.errors import BadParameter, DimensionMismatch


def test_reference_closed_loop_matrices(paper_model):
    npt.assert_array_equal(paper_model.F, [[-2.0, 5.0], [-1.0, 0.0]])
    npt.assert_array_equal(paper_model.G, [[-1.0, 0.0], [0.0, 0.0]])
    assert paper_model.n == 2
    assert paper_model.m == 1


def test_zero_gain_leaves_plant_dynamics():
    m = msfnet.build_plant_model(oracles.D, oracles.R, oracles.H,
                                 np.zeros((1, 2)), oracles.L)
    npt.assert_array_equal(m.F, oracles.D)


def test_derived_matrices_use_same_arithmetic(paper_model):
    # recomputing with the same expressions must agree bit for bit
    assert np.linalg.norm(paper_model.F - (paper_model.D + paper_model.R @ paper_model.K)) == 0.0
    assert np.linalg.norm(paper_model.G - paper_model.R @ paper_model.L) == 0.0


def test_build_is_pure():
    a = msfnet.build_plant_model(oracles.D, oracles.R, oracles.H, oracles.K, oracles.L)
    b = msfnet.build_plant_model(oracles.D, oracles.R, oracles.H, oracles.K, oracles.L)
    npt.assert_array_equal(a.F, b.F)
    npt.assert_array_equal(a.G, b.G)


def test_arrays_are_read_only(paper_model):
    with pytest.raises(ValueError):
        paper_model.F[0, 0] = 1.0


@pytest.mark.parametrize("field,bad_shape", [
    ("D", (2, 3)),
    ("H", (3, 3)),
    ("R", (3, 1)),
    ("K", (1, 3)),
    ("L", (2, 2)),
])
def test_dimension_mismatches(field, bad_shape):
    parts = {"D": oracles.D, "R": oracles.R, "H": oracles.H,
             "K": oracles.K, "L": oracles.L}
    parts[field] = np.zeros(bad_shape)
    with pytest.raises(DimensionMismatch):
        msfnet.build_plant_model(**parts)


def test_non_finite_entries_rejected():
    D = oracles.D.copy()
    D[0, 0] = np.nan
    with pytest.raises(BadParameter):
        msfnet.build_plant_model(D, oracles.R, oracles.H, oracles.K, oracles.L)


def test_matching_gain_least_squares(paper_model):
    L, residual = msfnet.matching_gain(paper_model)
    npt.assert_allclose(L, [[1.0, 0.0]], atol=1e-12)
    assert residual <= 1e-12


def test_with_loop_gain_recomputes_G(paper_model):
    flipped = paper_model.with_loop_gain(np.array([[1.0, 0.0]]))
    npt.assert_array_equal(flipped.G, paper_model.H)
    npt.assert_array_equal(flipped.F, paper_model.F)


CONFIG_TEXT = """\
# reference plant
D = 3 5; -1 0
R = 1; 0
H = 1 0; 0 0
K = -5 0
L = -1 0
"""


def test_config_round_trip(tmp_path, paper_model):
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG_TEXT)
    loaded = msfnet.load_model_config(path)
    npt.assert_array_equal(loaded.F, paper_model.F)
    npt.assert_array_equal(loaded.G, paper_model.G)


def test_shipped_reference_config(paper_model):
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "paper.cfg"
    loaded = msfnet.load_model_config(shipped)
    npt.assert_array_equal(loaded.F, paper_model.F)
    npt.assert_array_equal(loaded.G, paper_model.G)


@pytest.mark.parametrize("mutation", [
    ("K = -5 0", "Q = -5 0"),          # unknown key
    ("K = -5 0", ""),                  # missing key
    ("K = -5 0", "K = -5 0\nK = 0 0"),  # duplicate key
    ("D = 3 5; -1 0", "D = 3 5; -1"),  # ragged rows
    ("L = -1 0", "L = -1 zero"),       # non-numeric entry
    ("R = 1; 0", "R 1; 0"),            # missing '='
])
def test_config_rejects_bad_input(tmp_path, mutation):
    old, new = mutation
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG_TEXT.replace(old, new))
    with pytest.raises(BadParameter):
        msfnet.load_model_config(path)
