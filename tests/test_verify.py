import numpy as np
import numpy.testing as npt
import pytest

import msfnet
import oracles
from msfnet.errors import BadParameter, DimensionMismatch


def _decoupled_model(value: float):
    """Plant with F = value * I and no coupling channels."""
    n = 2
    return msfnet.build_plant_model(value * np.eye(n), np.zeros((n, 1)),
                                    np.zeros((n, n)), np.zeros((1, n)),
                                    np.zeros((1, n)))


# ---------------------------------------------------------------------------
# closed-loop assembly
# ---------------------------------------------------------------------------

def test_single_node_closed_loop(paper_model):
    system = msfnet.build_closed_loop(paper_model, np.zeros((1, 1)), np.zeros((1, 1)))
    npt.assert_array_equal(system.Ftilde, paper_model.F)
    assert (system.N, system.n) == (1, 2)


def test_two_node_block_structure(paper_model):
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    system = msfnet.build_closed_loop(paper_model, B, np.zeros((2, 2)))
    F, H = paper_model.F, paper_model.H
    expected = np.block([[F, H], [H, F]])
    npt.assert_array_equal(system.Ftilde, expected)


def test_kronecker_blocks_exact(paper_model):
    rng = np.random.default_rng(31)
    B = oracles.random_symmetric_adjacency(rng, 5)
    A = oracles.random_symmetric_adjacency(rng, 5)
    system = msfnet.build_closed_loop(paper_model, B, A)
    n = paper_model.n
    for i, j in [(0, 0), (1, 3), (4, 2), (3, 3)]:
        block = system.Ftilde[i * n:(i + 1) * n, j * n:(j + 1) * n]
        expected = (1.0 if i == j else 0.0) * paper_model.F \
            + B[i, j] * paper_model.H + A[i, j] * paper_model.G
        npt.assert_array_equal(block, expected)


def test_closed_loop_dimension_mismatch(paper_model):
    with pytest.raises(DimensionMismatch):
        msfnet.build_closed_loop(paper_model, np.zeros((3, 3)), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# spectral verdict
# ---------------------------------------------------------------------------

def test_verdict_identity_decay():
    system = msfnet.build_closed_loop(_decoupled_model(-1.0),
                                      np.zeros((1, 1)), np.zeros((1, 1)))
    verdict = msfnet.spectral_verdict(system)
    assert verdict.max_real_part == pytest.approx(-1.0, abs=1e-12)
    assert verdict.stable


def test_verdict_open_loop_complete8(paper_model, complete8):
    system = msfnet.build_closed_loop(paper_model, complete8,
                                      np.zeros((8, 8)))
    verdict = msfnet.spectral_verdict(system)
    # dominant mode lam = 7 at mu = 0: max real root of s^2 - 5s + 5
    assert verdict.max_real_part == pytest.approx((5.0 + np.sqrt(5.0)) / 2.0, abs=1e-9)
    assert not verdict.stable


def test_verdict_replicated_network_both_gain_signs(paper_model, complete8):
    # with the plant's own gain (R L = -H) replication cancels the coupling
    system = msfnet.build_closed_loop(paper_model, complete8, complete8)
    verdict = msfnet.spectral_verdict(system)
    assert verdict.stable
    assert verdict.max_real_part == pytest.approx(-1.0, abs=1e-9)
    # refit to R L = +H the same replication doubles it and goes unstable
    flipped = paper_model.with_loop_gain(np.array([[1.0, 0.0]]))
    system = msfnet.build_closed_loop(flipped, complete8, complete8)
    verdict = msfnet.spectral_verdict(system)
    assert not verdict.stable
    assert verdict.max_real_part == pytest.approx(oracles.sigma_closed(14.0), abs=1e-9)


# ---------------------------------------------------------------------------
# spectrum-union identity
# ---------------------------------------------------------------------------

def test_union_single_node(paper_model):
    deviation = msfnet.spectrum_union_check(paper_model, np.zeros((1, 1)), [0.0])
    assert deviation <= 1e-10


def test_union_weighted_design(paper_model, complete8):
    result = msfnet.design_weighted(paper_model, complete8)
    deviation = msfnet.spectrum_union_check(paper_model, complete8, result.mode_gains)
    assert deviation <= 1e-7


def test_union_random_instance(paper_model):
    rng = np.random.default_rng(6)
    B = msfnet.custom_network(oracles.random_symmetric_adjacency(rng, 6))
    mu = rng.uniform(-1.0, 1.0, 6)
    assert msfnet.spectrum_union_check(paper_model, B, mu) <= 1e-7


def test_union_rejects_wrong_gain_count(paper_model, complete8):
    with pytest.raises(DimensionMismatch):
        msfnet.spectrum_union_check(paper_model, complete8, [1.0, 2.0])


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_identity_decay():
    system = msfnet.build_closed_loop(_decoupled_model(-1.0),
                                      np.zeros((1, 1)), np.zeros((1, 1)))
    result = msfnet.simulate(system, np.ones(2), t_end=1.0)  # default dt
    assert not result.diverged
    assert result.t[-1] == pytest.approx(1.0, abs=1e-9)
    expected = np.sqrt(2.0) * np.exp(-result.t[-1])
    assert np.linalg.norm(result.x[-1]) == pytest.approx(expected, abs=1e-6)


def test_simulate_stable_design_decays(paper_model, complete8):
    design = msfnet.design_weighted(paper_model, complete8)
    system = msfnet.build_closed_loop(paper_model, complete8, design.feedback)
    verdict = msfnet.spectral_verdict(system)
    assert verdict.stable
    t_end = 10.0 / abs(verdict.max_real_part)
    result = msfnet.simulate(system, np.ones(16), t_end=t_end, dt=0.05)
    assert not result.diverged
    assert np.linalg.norm(result.x[-1]) < 1e-2 * np.linalg.norm(np.ones(16))


def test_simulate_unstable_system_diverges():
    system = msfnet.build_closed_loop(_decoupled_model(5.0),
                                      np.zeros((1, 1)), np.zeros((1, 1)))
    dt = 0.01
    result = msfnet.simulate(system, np.ones(2), t_end=10.0, dt=dt)
    assert result.diverged
    assert np.linalg.norm(result.x[-1]) > msfnet.verify.DIVERGENCE_LIMIT
    # the trajectory stops at the diverging step: no unwritten rows remain
    assert len(result.t) == len(result.x)
    assert np.isfinite(result.x).all()
    assert result.t[-1] == (len(result.t) - 1) * dt


def test_simulate_validates_inputs(paper_model):
    system = msfnet.build_closed_loop(paper_model, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        msfnet.simulate(system, np.ones(3), t_end=1.0, dt=0.1)
    with pytest.raises(BadParameter):
        msfnet.simulate(system, np.ones(2), t_end=0.05, dt=0.1)


# ---------------------------------------------------------------------------
# stability probability
# ---------------------------------------------------------------------------

def test_probability_empty_networks(paper_model):
    estimate = msfnet.stability_probability(paper_model, "er:4:0.0", trials=3, seed=0)
    assert estimate.fraction == 1.0
    assert estimate.stable_count == 3
    # Wilson score interval: at a fraction of 1 the upper end is exactly 1
    # and the lower end is n / (n + z^2), not a degenerate [1, 1]
    assert estimate.ci_high == 1.0
    assert estimate.ci_low == pytest.approx(3 / (3 + 1.96**2), rel=1e-12)


def test_probability_single_trial_is_binary(paper_model):
    estimate = msfnet.stability_probability(paper_model, "er:5:0.5", trials=1, seed=2)
    assert estimate.fraction in (0.0, 1.0)


def test_probability_weighted_designer_always_feasible(paper_model):
    # every real plant eigenvalue admits mu > lam - 2 within the range
    estimate = msfnet.stability_probability(paper_model, "er:8:0.5", trials=40,
                                            seed=1234)
    assert estimate.fraction == 1.0
    assert estimate.trials == 40


def test_probability_matching_designer(paper_model):
    a = msfnet.stability_probability(paper_model, "er:5:0.4", trials=10, seed=21,
                                     design_method="matching")
    b = msfnet.stability_probability(paper_model, "er:5:0.4", trials=10, seed=21,
                                     design_method="matching")
    assert a == b
    assert 0.0 <= a.fraction <= 1.0


def test_probability_accepts_callable_designer(paper_model):
    calls = []

    def designer(model, network):
        calls.append(network.size)
        return msfnet.design_weighted(model, network)

    estimate = msfnet.stability_probability(paper_model, "er:4:0.5", trials=5,
                                            seed=3, design_method=designer)
    assert len(calls) == 5
    assert estimate.fraction == 1.0


@pytest.mark.parametrize("family", ["er:4", "ring:4:2", "er:4:2.0", "er:x:0.5"])
def test_probability_rejects_bad_family(paper_model, family):
    with pytest.raises(BadParameter):
        msfnet.stability_probability(paper_model, family, trials=2, seed=0)


def test_probability_rejects_bad_trials(paper_model):
    with pytest.raises(BadParameter):
        msfnet.stability_probability(paper_model, "er:4:0.5", trials=0, seed=0)
