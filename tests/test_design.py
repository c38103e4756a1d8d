import numpy as np
import numpy.testing as npt
import pytest

import msfnet
import oracles
from msfnet.errors import BadParameter, Infeasible, NonNormalNetwork


# ---------------------------------------------------------------------------
# weighted designer
# ---------------------------------------------------------------------------

def test_weighted_complete8(paper_model, complete8):
    result = msfnet.design_weighted(paper_model, complete8, (-50.0, 50.0), 0.01)
    gains = result.mode_gains
    # only the lam = 7 mode needs feedback: mu > 5, placed at 5 + margin
    assert np.count_nonzero(gains) == 1
    assert gains[0] == pytest.approx(5.01, abs=1e-6)
    assert result.frobenius_norm == pytest.approx(5.01, abs=1e-6)
    assert result.verified
    assert result.max_real_part < 0.0


def test_weighted_ring8(paper_model, ring8):
    # circulant spectrum {4, sqrt2 x2, 0, -sqrt2 x2, -2 x2}: only lam = 4
    # exceeds the mu > lam - 2 threshold
    result = msfnet.design_weighted(paper_model, ring8, (-50.0, 50.0), 0.01)
    assert np.count_nonzero(result.mode_gains) == 1
    assert result.mode_gains[0] == pytest.approx(2.01, abs=1e-6)
    assert result.frobenius_norm == pytest.approx(2.01, abs=1e-6)
    assert result.verified


def test_weighted_zero_network(paper_model):
    net = msfnet.custom_network(np.zeros((4, 4)))
    result = msfnet.design_weighted(paper_model, net)
    npt.assert_array_equal(result.feedback, np.zeros((4, 4)))
    npt.assert_array_equal(result.mode_gains, np.zeros(4))
    assert result.frobenius_norm == 0.0
    assert result.verified


def test_weighted_norm_equals_gain_norm(paper_model):
    for net in (msfnet.make_network("complete", 8),
                msfnet.make_network("ring", 12, k=4),
                msfnet.make_network("er", 9, p=0.6, seed=13)):
        result = msfnet.design_weighted(paper_model, net)
        gain_sq = float(np.sum(result.mode_gains ** 2))
        assert abs(result.frobenius_norm ** 2 - gain_sq) <= 1e-8 * max(1.0, gain_sq)


def test_weighted_feedback_is_symmetric(paper_model, complete8):
    result = msfnet.design_weighted(paper_model, complete8)
    a = result.feedback
    assert np.linalg.norm(a - a.T, "fro") <= 1e-8 * max(np.linalg.norm(a, "fro"), 1e-30)


def test_weighted_gains_are_minimal(paper_model, ring8):
    result = msfnet.design_weighted(paper_model, ring8, margin=0.01)
    for gain, interval in zip(result.mode_gains, result.intervals):
        if gain == 0.0:
            assert interval.strictly_contains_zero()
            continue
        # nothing closer to the origin (by more than the margin) is stable
        probe = np.sign(gain) * (abs(gain) - result.margin) * (1.0 - 1e-3)
        assert not (interval.lower < probe < interval.upper)
        assert not (interval.lower < 0.0 < interval.upper)


def test_weighted_margin_kept_at_boundary_near_zero(paper_model):
    # this network has plant eigenvalue 2 up to rounding, so that mode's
    # stable interval (lambda - 2, 50] starts a rounding error from zero;
    # a zero gain would sit on the boundary
    network = msfnet.make_network("er", 8, p=0.5, seed=2066)
    assert msfnet.spectrum(network).eigenvalues[1] == pytest.approx(2.0, abs=1e-12)
    result = msfnet.design_weighted(paper_model, network, margin=0.01)
    assert abs(result.intervals[1].lower) <= 1e-12
    assert result.mode_gains[1] == pytest.approx(0.01, abs=1e-12)
    assert result.verified


def test_weighted_margin_is_respected(paper_model, complete8):
    result = msfnet.design_weighted(paper_model, complete8, margin=0.5)
    assert result.mode_gains[0] == pytest.approx(5.5, abs=1e-6)


def test_weighted_gain_pairing_follows_spectrum_order(paper_model, ring8):
    result = msfnet.design_weighted(paper_model, ring8)
    eigenvalues = msfnet.spectrum(ring8).eigenvalues
    assert eigenvalues[0] == pytest.approx(4.0, abs=1e-9)
    assert result.mode_gains[0] != 0.0


def test_weighted_infeasible_reports_modes(paper_model, complete8):
    with pytest.raises(Infeasible) as info:
        msfnet.design_weighted(paper_model, complete8, (-1.0, 1.0))
    assert info.value.failed_modes
    index, lam = info.value.failed_modes[0]
    assert index == 0
    assert lam.real == pytest.approx(7.0, abs=1e-9)


def test_weighted_rejects_non_normal_network(paper_model):
    net = msfnet.custom_network(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonNormalNetwork):
        msfnet.design_weighted(paper_model, net)


def test_weighted_rejects_nonpositive_margin(paper_model, complete8):
    for margin in (0.0, float("nan"), float("inf")):
        with pytest.raises(BadParameter):
            msfnet.design_weighted(paper_model, complete8, margin=margin)


# ---------------------------------------------------------------------------
# matching baseline
# ---------------------------------------------------------------------------

def test_matching_complete8(paper_model, complete8):
    result = msfnet.design_matching(paper_model, complete8)
    npt.assert_array_equal(result.feedback, complete8.adjacency)
    assert result.frobenius_norm == pytest.approx(np.sqrt(56.0), abs=1e-9)
    assert result.matching_residual <= 1e-9
    # with the least-squares gain (R L = +H) the replicated network doubles
    # the coupling, which this plant cannot tolerate at lam_max = 7
    assert not result.verified
    assert result.max_real_part > 0.0


def test_matching_ring_norm(paper_model):
    for N in (6, 10, 16):
        net = msfnet.make_network("ring", N, k=4)
        result = msfnet.design_matching(paper_model, net)
        assert result.frobenius_norm == pytest.approx(2.0 * np.sqrt(N), abs=1e-9)


def test_matching_zero_network(paper_model):
    result = msfnet.design_matching(paper_model, msfnet.custom_network(np.zeros((3, 3))))
    assert result.frobenius_norm == 0.0
    assert result.verified  # F is stable, nothing to couple


def test_matching_mode_gains_are_plant_eigenvalues(paper_model, complete8):
    result = msfnet.design_matching(paper_model, complete8)
    npt.assert_allclose(np.sort(result.mode_gains), np.sort([7.0] + [-1.0] * 7),
                        atol=1e-9)


def test_matching_stable_under_weak_coupling(paper_model):
    # exact matching doubles coupling per mode; with lam_max < 1 that stays
    # inside the stable region nu < 2
    net = msfnet.make_network("complete", 4, coupling=0.3)
    result = msfnet.design_matching(paper_model, net)
    assert result.verified
    assert result.max_real_part < 0.0


# ---------------------------------------------------------------------------
# binary branch and bound
# ---------------------------------------------------------------------------

def test_binary_trivial_when_uncoupled():
    m = msfnet.build_plant_model(oracles.D, oracles.R, np.zeros((2, 2)),
                                 oracles.K, oracles.L)
    result = msfnet.design_binary(m, msfnet.make_network("complete", 3))
    assert result.links == 0
    npt.assert_array_equal(result.feedback, np.zeros((3, 3)))
    assert result.optimal


def test_binary_matches_exhaustive_enumeration(paper_model):
    rng = np.random.default_rng(77)
    for _ in range(4):
        coupling = float(rng.uniform(0.4, 1.4))
        net = msfnet.make_network("er", 4, p=float(rng.uniform(0.4, 0.9)),
                                  seed=int(rng.integers(0, 1000)), coupling=coupling)
        expected = oracles.exhaustive_binary_optimum(
            paper_model.F, paper_model.H, paper_model.G, net.adjacency)
        result = msfnet.design_binary(paper_model, net, symmetric=True)
        assert expected is not None
        assert int(result.feedback.sum()) == expected
        assert result.max_real_part < 0.0


def test_binary_entries_are_binary_with_zero_diagonal(paper_model):
    net = msfnet.make_network("complete", 4)
    result = msfnet.design_binary(paper_model, net)
    assert set(np.unique(result.feedback)) <= {0.0, 1.0}
    assert np.all(np.diag(result.feedback) == 0.0)
    npt.assert_array_equal(result.feedback, result.feedback.T)
    assert result.mode_gains is None


def test_binary_asymmetric_search(paper_model):
    # coupling 1.2 pushes lam_max to 2.4, so the empty feedback fails and
    # links are genuinely needed
    net = msfnet.make_network("complete", 3, coupling=1.2)
    result = msfnet.design_binary(paper_model, net, symmetric=False)
    assert set(np.unique(result.feedback)) <= {0.0, 1.0}
    assert np.all(np.diag(result.feedback) == 0.0)
    assert result.max_real_part < 0.0
    # exhaustive directed oracle over all 2^6 off-diagonal patterns
    import itertools

    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    best = None
    for bits in itertools.product((0, 1), repeat=6):
        A = np.zeros((3, 3))
        for (i, j), bit in zip(pairs, bits):
            A[i, j] = float(bit)
        big = (np.kron(np.eye(3), paper_model.F)
               + np.kron(net.adjacency, paper_model.H)
               + np.kron(A, paper_model.G))
        if np.max(np.linalg.eigvals(big).real) < -1e-9:
            cost = int(A.sum())
            best = cost if best is None else min(best, cost)
    assert result.links == best == 2
    # the symmetric optimum is an upper bound for the directed search
    symmetric = msfnet.design_binary(paper_model, net, symmetric=True)
    assert result.links <= symmetric.links


def test_binary_timeout_returns_incumbent(paper_model):
    net = msfnet.make_network("complete", 4)
    result = msfnet.design_binary(paper_model, net, time_limit=1e-9)
    assert not result.optimal
    assert result.max_real_part < 0.0  # the seeded incumbent is feasible


def test_binary_infeasible_when_feedback_cannot_act():
    # G = 0 removes the feedback channel entirely; an unstable F dooms
    # every assignment including the complete graph
    m = msfnet.build_plant_model(np.eye(2), oracles.R, np.zeros((2, 2)),
                                 np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(Infeasible):
        msfnet.design_binary(m, msfnet.make_network("complete", 3))


def test_binary_is_deterministic(paper_model):
    net = msfnet.make_network("er", 4, p=0.7, seed=5)
    a = msfnet.design_binary(paper_model, net)
    b = msfnet.design_binary(paper_model, net)
    npt.assert_array_equal(a.feedback, b.feedback)


def test_binary_rejects_bad_time_limit(paper_model):
    net = msfnet.make_network("complete", 3)
    for time_limit in (0.0, float("nan"), float("inf")):
        with pytest.raises(BadParameter):
            msfnet.design_binary(paper_model, net, time_limit=time_limit)


def test_binary_rejects_oversized_problem(paper_model):
    with pytest.raises(BadParameter):
        msfnet.design_binary(paper_model, msfnet.make_network("complete", 200))


# ---------------------------------------------------------------------------
# norm sweep
# ---------------------------------------------------------------------------

def test_sweep_ring_matches_individual_designs(paper_model):
    rows = msfnet.norm_sweep(paper_model, "ring:4", (5, 10))
    assert [r.N for r in rows] == list(range(5, 11))
    for row in rows:
        assert row.status == "ok"
        assert row.matching_norm == pytest.approx(2.0 * np.sqrt(row.N), abs=1e-9)
        assert row.weighted_norm < row.matching_norm


def test_sweep_complete8_row(paper_model):
    row = msfnet.norm_sweep(paper_model, "complete", (8, 8))[0]
    assert row.weighted_norm == pytest.approx(5.01, abs=1e-6)
    assert row.matching_norm == pytest.approx(np.sqrt(56.0), abs=1e-9)


def test_sweep_complete_family_dominance(paper_model):
    for row in msfnet.norm_sweep(paper_model, "complete", (4, 10)):
        assert row.status == "ok"
        assert row.weighted_norm < row.matching_norm


def test_sweep_ring5_equals_complete5(paper_model):
    ring_row = msfnet.norm_sweep(paper_model, "ring:4", (5, 5))[0]
    complete_row = msfnet.norm_sweep(paper_model, "complete", (5, 5))[0]
    assert ring_row.weighted_norm == complete_row.weighted_norm
    assert ring_row.matching_norm == complete_row.matching_norm


def test_sweep_marks_infeasible_rows(paper_model):
    # complete graphs need mu > N - 3; a cap at 3 cuts off N >= 6
    rows = msfnet.norm_sweep(paper_model, "complete", (4, 7),
                             search_range=(-50.0, 3.0))
    status = {r.N: r.status for r in rows}
    assert status[4] == status[5] == "ok"
    assert status[6] == status[7] == "infeasible"
    assert np.isnan([r.weighted_norm for r in rows if r.status == "infeasible"]).all()


@pytest.mark.parametrize("family", ["lattice:2", "ring:x", "ring", "ring:4:99"])
def test_sweep_rejects_unknown_family(paper_model, family):
    with pytest.raises(BadParameter):
        msfnet.norm_sweep(paper_model, family, (4, 6))
