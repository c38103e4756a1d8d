import os

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import msfnet
import oracles
from msfnet.errors import BadParameter, DimensionMismatch, TimedOut
from msfnet.verify import _THETA, _expm, _verdicts


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
    with pytest.raises(DimensionMismatch):
        msfnet.build_closed_loop(paper_model, np.zeros((3, 3)), np.zeros((2, 4, 4)))
    with pytest.raises(DimensionMismatch):  # only the feedback may be a stack
        msfnet.build_closed_loop(paper_model, np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))


def test_closed_loop_of_feedback_stack(paper_model):
    rng = np.random.default_rng(32)
    B = oracles.random_symmetric_adjacency(rng, 4)
    stack = np.array([oracles.random_symmetric_adjacency(rng, 4) for _ in range(6)])
    system = msfnet.build_closed_loop(paper_model, B, stack.reshape(2, 3, 4, 4))
    assert system.Ftilde.shape == (2, 3, 8, 8)
    for k, A in enumerate(stack):
        npt.assert_array_equal(system.Ftilde.reshape(6, 8, 8)[k],
                               msfnet.build_closed_loop(paper_model, B, A).Ftilde)


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


def test_stacked_verdicts_equal_single_verdicts(paper_model):
    # every symmetric binary feedback on complete:4, then the K2 matching
    # loop, whose max real part of -1.7e-16 is negative but inside its floor
    net = msfnet.make_network("complete", 4)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    stack = np.zeros((64, 4, 4))
    for k in range(64):
        for e, (i, j) in enumerate(pairs):
            stack[k, i, j] = stack[k, j, i] = (k >> e) & 1
    k2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    matched = paper_model.with_loop_gain(msfnet.matching_gain(paper_model)[0])
    marginal = msfnet.build_closed_loop(matched, k2, k2)
    decaying = msfnet.build_closed_loop(paper_model, k2, k2)
    growing = msfnet.ClosedLoopSystem(-decaying.Ftilde, 2, 2)
    cases = [(msfnet.build_closed_loop(paper_model, net, stack).Ftilde,
              [msfnet.build_closed_loop(paper_model, net, A) for A in stack]),
             (np.array([decaying.Ftilde, marginal.Ftilde, growing.Ftilde]),
              [decaying, marginal, growing])]
    for Ftilde, systems in cases:
        max_real, stable = _verdicts(Ftilde)
        singles = [msfnet.spectral_verdict(system) for system in systems]
        assert max_real.tolist() == [v.max_real_part for v in singles]
        assert stable.tolist() == [v.stable for v in singles]
        assert 0 < sum(stable) < len(stable)
    assert stable.tolist() == [True, False, False]
    assert -1e-15 < max_real[1] < 0.0


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


def test_union_rejects_gains_the_real_basis_cannot_hold(paper_model):
    # the directed 4-cycle's modes 1, i, -i, -1: i and -i share one 2x2
    # real Schur block, so A = Q diag(mu) Q^T is block triangular with B only
    # when their gains are equal and real
    cycle = np.roll(np.eye(4), 1, axis=0)
    assert msfnet.spectrum_union_check(paper_model, cycle, [0.5, 1.0, 1.0, 0.1]) <= 1e-7
    for gains in ([0.5, 1.0, 2.0, 0.1], [0.5, 1.0 + 0.5j, 1.0 - 0.5j, 0.1],
                  np.array([0.5, 1.0, 1.0, 0.1], dtype=complex)):
        with pytest.raises(BadParameter):
            msfnet.spectrum_union_check(paper_model, cycle, gains)


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


def test_simulate_samples_the_exact_flow(paper_model, complete8):
    # each sample is the last one times expm(dt * Ftilde), so even a coarse
    # step lands on expm(t * Ftilde) x0 to rounding (RK4 at dt = 0.25 is
    # 8e-3 off here)
    design = msfnet.design_weighted(paper_model, complete8)
    system = msfnet.build_closed_loop(paper_model, complete8, design.feedback)
    x0 = np.random.default_rng(3).standard_normal(16)
    for dt in (0.1, 0.25):
        result = msfnet.simulate(system, x0, t_end=6.0, dt=dt)
        exact = scipy.linalg.expm(result.t[-1] * system.Ftilde) @ x0
        assert np.linalg.norm(result.x[-1] - exact) <= 1e-13 * np.linalg.norm(exact)


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


def test_simulate_default_samples_without_an_eigensolve(paper_model, monkeypatch):
    # dt only sets the sampling density: the default is t_end / 1000, and
    # no spectrum of Ftilde is computed for it
    network = msfnet.make_network("complete", 16)
    system = msfnet.build_closed_loop(paper_model, network,
                                      msfnet.design_weighted(paper_model, network).feedback)
    x0 = np.random.default_rng(3).standard_normal(32)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("simulate computed eigenvalues")

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, no_eigensolve)
        monkeypatch.setattr(scipy.linalg, name, no_eigensolve)
    for t_end in (1e-3, 0.3, 1.0, 7.7, 10.0, 1e6):
        result = msfnet.simulate(system, x0, t_end)
        assert len(result.t) == len(result.x) == 1001 and not result.diverged
        assert result.t[0] == 0.0
        assert 0.0 <= t_end - result.t[-1] <= np.spacing(t_end)
    monkeypatch.undo()
    result = msfnet.simulate(system, x0, 10.0)
    exact = scipy.linalg.expm(result.t[-1] * system.Ftilde) @ x0
    assert np.linalg.norm(result.x[-1] - exact) <= 1e-12 * np.linalg.norm(exact)
    # k * (t_end / 1000) rounds past t_end at k = 1000 here; the last sample does not
    assert 1000 * (0.0077 / 1000) > 0.0077
    assert msfnet.simulate(system, x0, 0.0077).t[-1] == 0.0077


def test_simulate_stiff_loops_end_cleanly(paper_model):
    # a stiff stable loop gets 1001 samples whatever its spectral radius; an
    # unstable one whose propagator overflows ends at x0, diverged, with no
    # numpy warning
    for coupling, stable in ((1e4, True), (1e6, True), (1e6, False)):
        network = msfnet.make_network("complete", 4, coupling=coupling)
        feedback = (msfnet.design_weighted(paper_model, network).feedback if stable
                    else np.zeros((4, 4)))
        system = msfnet.build_closed_loop(paper_model, network, feedback)
        result = msfnet.simulate(system, np.ones(8), t_end=10.0)
        assert np.isfinite(result.x).all()
        assert result.diverged is not stable
        assert len(result.x) == (1001 if stable else 1)
    # a finite propagator whose step overflows: that step is dropped
    system = msfnet.build_closed_loop(_decoupled_model(100.0),
                                      np.zeros((1, 1)), np.zeros((1, 1)))
    result = msfnet.simulate(system, np.full(2, 1e300), t_end=2.0, dt=1.0)
    assert result.diverged and len(result.x) == 1 and np.isfinite(result.x).all()


def test_propagator_matches_scipy_expm(paper_model):
    # every Pade degree just below and just above its theta_m, the squaring
    # branch at norms 1e2 and 1e4, a Jordan block and the strongly non-normal
    # loop of the directed path B = 3 * subdiagonal (weighted design A = 0)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    S = M - M.T  # expm(S) is orthogonal, so no norm overflows it
    cases = [theta * f * M / np.linalg.norm(M, 1)
             for theta in _THETA.values() for f in (1 - 1e-9, 1 + 1e-9)]
    cases += [1e2 * M / np.linalg.norm(M, 1)]
    cases += [norm * S / np.linalg.norm(S, 1) for norm in (1e2, 1e4)]
    cases += [t * (np.eye(4, k=1) - np.eye(4)) for t in (0.01, 3.0, 30.0)]
    path = msfnet.custom_network(3.0 * np.eye(10, k=-1))
    loop = msfnet.build_closed_loop(paper_model, path,
                                    msfnet.design_weighted(paper_model, path).feedback)
    cases += [dt * loop.Ftilde for dt in (0.01, 1.0)]
    for a in cases:
        expected = scipy.linalg.expm(a)
        error = np.linalg.norm(_expm(a) - expected, 1) / np.linalg.norm(expected, 1)
        assert error <= 1e-14 * max(1.0, np.linalg.norm(a, 1)), np.linalg.norm(a, 1)
    npt.assert_array_equal(_expm(np.zeros((5, 5))), np.eye(5))
    # 3,333 short steps stay on the flow; solving (V - U) r = V + U for the
    # whole propagator, not for r - I, drifts 4e-13 to 6e-13 here
    ring = msfnet.network_from_spec("ring:12:4")
    system = msfnet.build_closed_loop(paper_model, ring,
                                      msfnet.design_weighted(paper_model, ring).feedback)
    x0 = np.random.default_rng(0).standard_normal(24)
    result = msfnet.simulate(system, x0, t_end=10.0, dt=0.003)
    exact = scipy.linalg.expm(result.t[-1] * system.Ftilde) @ x0
    assert np.linalg.norm(result.x[-1] - exact) <= 1e-13 * np.linalg.norm(exact)
    # dt * Ftilde beyond the largest float ends the trajectory at x0, with no warning
    system = msfnet.build_closed_loop(_decoupled_model(1e308),
                                      np.zeros((1, 1)), np.zeros((1, 1)))
    result = msfnet.simulate(system, np.ones(2), t_end=3.0, dt=2.0)
    assert result.diverged and len(result.x) == 1 and np.isfinite(result.x).all()


def test_simulate_refuses_more_than_free_memory(monkeypatch):
    # Linux overcommit lets np.empty reserve far more than memory holds, so
    # simulate compares the trajectory with the free physical memory first
    system = msfnet.build_closed_loop(_decoupled_model(-1.0),
                                      np.zeros((1, 1)), np.zeros((1, 1)))
    pages = {"SC_AVPHYS_PAGES": 16, "SC_PAGE_SIZE": 4096}  # 64 KiB free
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(BadParameter, match="larger dt"):  # 10,001 x 2 samples: 160 kB
        msfnet.simulate(system, np.ones(2), t_end=1e4, dt=1.0)
    assert len(msfnet.simulate(system, np.ones(2), t_end=1.0, dt=0.1).x) == 11

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(os, "sysconf", unknown)
    assert len(msfnet.simulate(system, np.ones(2), t_end=1e4, dt=1.0).x) == 10001


def test_simulate_validates_inputs(paper_model):
    system = msfnet.build_closed_loop(paper_model, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        msfnet.simulate(system, np.ones(3), t_end=1.0, dt=0.1)
    with pytest.raises(BadParameter):
        msfnet.simulate(system, np.ones(2), t_end=0.05, dt=0.1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadParameter, match="x0 must be finite"):
            msfnet.simulate(system, [1.0, bad], t_end=1.0, dt=0.1)
    for t_end, dt in ((np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, -np.inf),
                      (np.nan, None), (np.inf, None)):
        with pytest.raises(BadParameter):
            msfnet.simulate(system, np.ones(2), t_end=t_end, dt=dt)
    # 1e13 steps of 2 states (160 TB) fail to allocate at once; 1e19 steps
    # pass numpy's dimension limit and 1e320 overflow to inf
    for dt in (1e-13, 1e-19, 1e-320):
        with pytest.raises(BadParameter, match="larger dt"):
            msfnet.simulate(system, np.ones(2), t_end=1.0, dt=dt)


def test_verdict_agrees_with_lyapunov_oracle():
    # random closed loops, half from plants with a large upper-triangular
    # part (strongly non-normal), each plant shifted so that the largest
    # real part lands at +-10^U(-5, 0.5); exact marginality is kept out
    rng = np.random.default_rng(4242)
    checked = stable = 0
    while checked < 400:
        n = int(rng.integers(1, 4))
        D, R, H, K, L = oracles.random_plant(rng, n)
        if checked % 2:
            D = D + rng.uniform(5.0, 40.0) * np.triu(np.ones((n, n)), 1)
        N = int(rng.integers(2, 6))
        B = oracles.random_symmetric_adjacency(rng, N)
        A = rng.uniform(-1.0, 1.0, (N, N))
        model = msfnet.build_plant_model(D, R, H, K, L)
        top = np.linalg.eigvals(msfnet.build_closed_loop(model, B, A).Ftilde).real.max()
        target = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 0.5)
        model = msfnet.build_plant_model(D - (top - target) * np.eye(n), R, H, K, L)
        system = msfnet.build_closed_loop(model, B, A)
        verdict = msfnet.spectral_verdict(system)
        if abs(verdict.max_real_part) < 1e-6:
            continue
        assert verdict.stable == oracles.lyapunov_stable(system.Ftilde), verdict
        checked += 1
        stable += verdict.stable
    assert 100 <= stable <= 300  # both verdicts well represented


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


def test_probability_counts_timed_out_trial_as_failure(paper_model):
    # a search that times out without a design fails its trial, not the estimate
    calls = []

    def designer(model, network):
        calls.append(network.size)
        if len(calls) % 2:
            raise TimedOut("no feasible binary feedback found within 1.0s")
        return msfnet.design_weighted(model, network)

    estimate = msfnet.stability_probability(paper_model, "er:4:0.5", trials=6,
                                            seed=3, design_method=designer)
    assert len(calls) == 6
    assert estimate.stable_count == 3 and estimate.fraction == 0.5


@pytest.mark.parametrize("family", ["er:4", "ring:4:2", "er:4:2.0", "er:x:0.5",
                                    "complete:4"])
def test_probability_rejects_bad_family(paper_model, family):
    with pytest.raises(BadParameter):
        msfnet.stability_probability(paper_model, family, trials=2, seed=0)


def test_probability_rejects_bad_trials(paper_model):
    with pytest.raises(BadParameter):
        msfnet.stability_probability(paper_model, "er:4:0.5", trials=0, seed=0)
