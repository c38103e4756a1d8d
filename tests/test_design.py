import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import msfnet
import oracles
from msfnet import design as design_module
from msfnet import msf as msf_module
from msfnet.design import _branch_entries
from msfnet.errors import BadParameter, Infeasible
from msfnet.model import matching_gain
from msfnet.verify import _verdicts, build_closed_loop, spectral_verdict


# ---------------------------------------------------------------------------
# weighted designer
# ---------------------------------------------------------------------------

def test_weighted_complete8(paper_model, complete8):
    result = msfnet.design_weighted(paper_model, complete8, 0.01)
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
    result = msfnet.design_weighted(paper_model, ring8, 0.01)
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
            assert interval.lower < 0.0 < interval.upper
            continue
        # nothing closer to the origin (by more than the margin) is stable
        probe = np.sign(gain) * (abs(gain) - result.margin) * (1.0 - 1e-3)
        assert not (interval.lower < probe < interval.upper)
        assert not (interval.lower < 0.0 < interval.upper)


def test_weighted_loop_is_the_eigenvalue_clip(paper_model):
    # G = -H, so a symmetric loop coupling C = B - A is stable iff
    # lambda_max(C) < 2, and the Frobenius-nearest such C with lambda_max at
    # most 2 - margin is B with its eigenvalues clipped there: the weighted
    # design is the norm minimum over all symmetric feedbacks, not only those
    # sharing B's eigenbasis
    margin = 0.01
    for spec in ("complete:8", "ring:12:4", "er:20:0.3:4", "ring:30:4"):
        B = msfnet.network_from_spec(spec).adjacency
        w, V = np.linalg.eigh(B)
        clip = V @ np.diag(np.minimum(w, 2.0 - margin)) @ V.T
        A = msfnet.design_weighted(paper_model, msfnet.network_from_spec(spec), margin).feedback
        assert np.max(np.abs((B - A) - clip)) <= 1e-12, spec


# a non-normal feedback on er:6:0.5:3, found by SLSQP over all 36 entries
# (min ||A||_F subject to max Re <= -0.005) and rounded to 9 digits
CHEAPER_NON_NORMAL_FEEDBACK = [
    [-0.073685867, 0.322047151, 0.319320373, 0.417486395, 0.411387018, -0.21727575],
    [-0.0604537743, 0.199431934, 0.19589239, 0.26278727, 0.25941591, -0.149291464],
    [-0.0602691362, 0.200457213, 0.197337903, 0.265169763, 0.262381541, -0.151283594],
    [-0.0319752939, 0.0725385805, 0.0727217094, 0.100874523, 0.0999940144, -0.0639368321],
    [-0.0307856053, 0.0727326159, 0.0710451412, 0.102710329, 0.10231061, -0.0637703639],
    [-0.0487178986, 0.225817488, 0.225058961, 0.294219772, 0.287666756, -0.150251456],
]


def test_non_normal_feedback_can_be_cheaper_than_weighted(paper_model):
    # the weighted design is norm-minimal among feedbacks in B's basis, not
    # among all real ones: this loop decays faster than 0.004, exactly, at
    # norm 1.2063 against the design's 1.3639 (margin 0.01, decay 0.005)
    network = msfnet.network_from_spec("er:6:0.5:3")
    A = np.array(CHEAPER_NON_NORMAL_FEEDBACK)
    assert oracles.exact_hurwitz(paper_model.F + 0.004 * np.eye(2), paper_model.H,
                                 paper_model.G, network.adjacency, A)
    assert np.linalg.norm(A) < 1.3
    weighted = msfnet.design_weighted(paper_model, network, margin=0.01)
    assert weighted.frobenius_norm == pytest.approx(1.3639, abs=1e-4)


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


def test_weighted_infeasible_reports_modes(unstabilizable_model, complete8):
    with pytest.raises(Infeasible) as info:
        msfnet.design_weighted(unstabilizable_model, complete8)
    assert info.value.failed_modes
    index, lam = info.value.failed_modes[0]
    assert index == 0
    assert lam.real == pytest.approx(7.0, abs=1e-9)


def test_weighted_on_non_normal_network(paper_model):
    # a nilpotent one-way link: both modes are lam = 0, where mu = 0 is
    # stable, so the plant's own poles -1 +- 2i are left alone
    net = msfnet.custom_network(np.array([[0.0, 1.0], [0.0, 0.0]]))
    result = msfnet.design_weighted(paper_model, net)
    assert result.verified
    npt.assert_array_equal(result.feedback, np.zeros((2, 2)))
    npt.assert_array_equal(result.mode_gains, np.zeros(2))
    assert result.max_real_part == pytest.approx(-1.0, abs=1e-12)


def test_weighted_on_random_directed_networks(paper_model):
    # directed weighted graphs are non-normal: the feedback is diagonal in
    # the ordered Schur basis, the closed loop block triangular
    rng = np.random.default_rng(2026)
    complex_modes = 0
    for _ in range(40):
        N = int(rng.integers(3, 12))
        a = (rng.random((N, N)) < 0.4) * rng.uniform(0.2, 1.0, (N, N))
        np.fill_diagonal(a, 0.0)
        net = msfnet.custom_network(a)
        assert not net.symmetric
        result = msfnet.design_weighted(paper_model, net)
        assert result.verified
        assert abs(result.frobenius_norm - np.linalg.norm(result.mode_gains)) <= 1e-9
        system = msfnet.build_closed_loop(paper_model, net, result.feedback)
        assert oracles.lyapunov_stable(system.Ftilde)
        assert msfnet.spectrum_union_check(paper_model, net, result.mode_gains) <= 1e-5
        complex_modes += bool(np.any(msfnet.spectrum(net).eigenvalues.imag != 0.0))
    assert complex_modes >= 20


def test_weighted_keeps_tied_conjugate_pairs_together():
    # two conjugate pairs with equal real part, coupled by an off-diagonal
    # block: ordering ties by imaginary part alone would put 0.5+2i, 0.5+i
    # first and split both pairs.  On a generic plant (unlike the paper
    # plant, where H = -G) the two pairs get different gains, and a split
    # pair leaves the feedback complex
    M = np.zeros((4, 4))
    M[:2, :2] = [[0.5, 2.0], [-2.0, 0.5]]
    M[2:, 2:] = [[0.5, 1.0], [-1.0, 0.5]]
    M[:2, 2:] = [[1.0, -0.5], [0.3, 0.8]]
    S = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 4)) + 2.0 * np.eye(4)
    net = msfnet.custom_network(S @ M @ np.linalg.inv(S))
    npt.assert_allclose(msfnet.spectrum(net).eigenvalues,
                        [0.5 + 2j, 0.5 - 2j, 0.5 + 1j, 0.5 - 1j], atol=1e-9)
    rng = np.random.default_rng(1)
    designed = distinct = 0
    for _ in range(40):
        model = msfnet.build_plant_model(*oracles.random_plant(rng, 2))
        try:
            result = msfnet.design_weighted(model, net)
        except Infeasible:
            continue
        assert result.verified
        gains = result.mode_gains
        npt.assert_array_equal(gains[[1, 3]], gains[[0, 2]])
        assert abs(result.frobenius_norm - np.linalg.norm(gains)) <= 1e-9
        designed += 1
        distinct += bool(abs(gains[0] - gains[2]) > 1e-6)
    assert designed >= 20 and distinct >= 10


def test_weighted_solves_one_interval_per_conjugate_class(unstabilizable_model,
                                                         monkeypatch):
    # k = 3 conjugate pairs and r = 3 distinct real modes, two of them
    # repeated, under a random similarity: one interval per class, and the
    # repeated infeasible class (lam = 6 > 1/0.22) is solved once
    rotation = lambda re, im: [[re, im], [-im, re]]
    M = scipy.linalg.block_diag(rotation(7.0, 1.0), 6.0, 6.0, 1.0, 1.0,
                                rotation(0.5, 2.0), rotation(0.5, 1.0), -1.0)
    S = np.random.default_rng(3).uniform(-1.0, 1.0, (11, 11)) + 3.0 * np.eye(11)
    net = msfnet.custom_network(S @ M @ np.linalg.inv(S))
    npt.assert_allclose(msfnet.spectrum(net).eigenvalues,
                        [7 + 1j, 7 - 1j, 6, 6, 1, 1, 0.5 + 2j, 0.5 - 2j,
                         0.5 + 1j, 0.5 - 1j, -1], atol=1e-9)
    calls = []

    def counting(model, lam):
        calls.append(lam)
        return msf_module.stable_interval(model, lam)

    monkeypatch.setattr(design_module, "stable_interval", counting)
    with pytest.raises(Infeasible) as info:
        msfnet.design_weighted(unstabilizable_model, net)
    assert len(calls) == 3 + 3
    assert [index for index, _ in info.value.failed_modes] == [0, 1, 2, 3]


def test_weighted_real_mode_keeps_real_lambda(paper_model):
    # a seeded directed 0/1 network (draw 919 of default_rng(2)) with a
    # defective mode near 0: given an imaginary part (9.1e-9 - 8.9e-11i in
    # a complex Schur form), its 2n complex embedding makes LAPACK ggev
    # fail.  Its real Schur block is 1x1, so the mode is exactly real
    rows = ["010000101", "000000010", "000000001", "000011010", "111001000",
            "111100001", "010000000", "000000001", "100100000"]
    net = msfnet.custom_network([[float(c) for c in row] for row in rows])
    lam = msfnet.spectrum(net).eigenvalues[1]
    assert lam.imag == 0.0 and abs(lam.real - 1.28e-8) < 1e-10
    result = msfnet.design_weighted(paper_model, net)
    assert result.verified
    assert result.max_real_part == pytest.approx(-0.005, abs=1e-9)
    assert result.intervals[1].lam == lam.real
    system = build_closed_loop(paper_model, net, result.feedback)
    assert oracles.lyapunov_stable(system.Ftilde)


def _jordan_networks(count):
    # similarities of a Jordan block of 2 +- 3i: rounding splits the double
    # pair by ~1e-7 into two pairs of nearby modes
    C = np.array([[2.0, 3.0], [-3.0, 2.0]])
    J = np.block([[C, np.eye(2)], [np.zeros((2, 2)), C]])
    rng = np.random.default_rng(5)
    for _ in range(count):
        S = rng.standard_normal((4, 4))
        yield msfnet.custom_network(S @ J @ np.linalg.inv(S))


#: Draw 523 of the directed 0/1 networks of default_rng(2): a defective
#: eigenvalue -1 that made LAPACK ggev fail on the complex Schur basis.
_GGEV_523 = ["01000011", "10001000", "00000100", "01000110", "01000010",
             "00100000", "11110001", "10100000"]


def test_weighted_designs_defective_complex_modes(paper_model):
    # each 2x2 real Schur block is one conjugate pair with one gain, so the
    # feedback is real by construction, however the double pair splits
    for net in _jordan_networks(20):
        result = msfnet.design_weighted(paper_model, net)
        assert result.verified
        assert result.feedback.dtype == np.float64
        assert abs(result.frobenius_norm - np.linalg.norm(result.mode_gains)) <= 1e-12
        system = build_closed_loop(paper_model, net, result.feedback)
        assert oracles.lyapunov_stable(system.Ftilde)


def test_weighted_designs_defective_real_mode(paper_model):
    net = msfnet.custom_network([[float(c) for c in row] for row in _GGEV_523])
    result = msfnet.design_weighted(paper_model, net)
    assert result.verified
    assert abs(result.frobenius_norm - np.linalg.norm(result.mode_gains)) <= 1e-12
    system = build_closed_loop(paper_model, net, result.feedback)
    assert oracles.lyapunov_stable(system.Ftilde)


def _ggev_networks():
    # draws 258, 523, 811 and 865 of the directed 0/1 networks of
    # default_rng(2): defective modes whose complex embedding made ggev fail
    rng = np.random.default_rng(2)
    for draw in range(866):
        N = int(rng.integers(3, 12))
        a = (rng.random((N, N)) < 0.3).astype(float)
        np.fill_diagonal(a, 0.0)
        if draw in (258, 523, 811, 865):
            yield msfnet.custom_network(a)


def test_no_design_is_stable_by_float_yet_exactly_unstable(paper_model):
    # the exact verdict on the stored loop (every float a dyadic rational)
    # against the floored float verdict: pinned on loops at or near the
    # stability boundary, and Hurwitz on the directed designs of the real
    # Schur basis.  At margin 1e-300, complete:3's gain 1e-300 is lost when
    # Ftilde is rounded but not in the exact loop; ring:6:2 gets no gain,
    # leaving its lam = 2 mode at +-i sqrt(5), as is the K2 matching loop
    k2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    matched = paper_model.with_loop_gain(matching_gain(paper_model)[0])
    loops = [(matched, k2, k2, False)]
    # one node: F + lam H + mu G is Hurwitz exactly when mu > lam - 2
    # (oracles.sigma_closed); dyadic gains 2^-40 either side of it, and on it
    for mu, exact in ((1.0 + 2.0 ** -40, True), (1.0, False), (1.0 - 2.0 ** -40, False)):
        loops.append((paper_model, [[3.0]], [[mu]], exact))
    for spec, exact in (("complete:3", True), ("ring:6:2", False), ("complete:4", True)):
        net = msfnet.network_from_spec(spec)
        result = msfnet.design_weighted(paper_model, net, margin=1e-300)
        loops.append((paper_model, net.adjacency, result.feedback, exact))
    # modes decaying at ~5e-9, below the float loop's rounding floor
    net = msfnet.network_from_spec("complete:3", coupling=1e9)
    loops.append((paper_model, net.adjacency, msfnet.design_weighted(paper_model, net).feedback, True))
    for net in [*_jordan_networks(20), *_ggev_networks()]:
        result = msfnet.design_weighted(paper_model, net)
        assert result.verified
        loops.append((paper_model, net.adjacency, result.feedback, True))
    for model, B, A, exact in loops:
        assert oracles.exact_hurwitz(model.F, model.H, model.G, B, A) is exact
        if spectral_verdict(build_closed_loop(model, B, A)).stable:
            assert exact


def test_weighted_rejects_nonpositive_margin(paper_model, complete8):
    for margin in (0.0, float("nan"), float("inf")):
        with pytest.raises(BadParameter):
            msfnet.design_weighted(paper_model, complete8, margin=margin)


def test_weighted_margin_below_rounding_is_not_verified(paper_model):
    # a margin of 1e-300 leaves every gain within rounding of the exact
    # boundary mu = lam - 2, so no verdict may come out stable whichever way
    # the eigensolve rounds (max real parts from -3.6e-15 to +2.3e-15)
    for spec in ("complete:8", "ring:12:4", "ring:30:4", "complete:5"):
        result = msfnet.design_weighted(paper_model, msfnet.network_from_spec(spec),
                                        margin=1e-300)
        assert result.verified is False, (spec, result.max_real_part)
        assert abs(result.max_real_part) <= 1e-13


def test_weighted_complete53_gain_past_fifty(paper_model):
    # lam = 52 needs mu > 50; the gain sits one margin past that boundary
    result = msfnet.design_weighted(paper_model, msfnet.make_network("complete", 53))
    assert result.verified
    assert result.mode_gains[0] == pytest.approx(50.01, abs=1e-9)


def test_weighted_at_huge_coupling_is_feasible_but_unverified(paper_model):
    # lam = 2e9, -1e9, -1e9: each mode is stable on [lam - 2, inf), but at
    # zero gain the -1e9 modes decay at ~5e-9, inside the rounding floor of
    # the assembled closed loop (~2e-6), so the dense check cannot confirm it
    net = msfnet.make_network("complete", 3, coupling=1e9)
    result = msfnet.design_weighted(paper_model, net)
    for interval in result.intervals:
        assert interval.lower == pytest.approx(interval.lam.real - 2.0, rel=1e-15)
        assert interval.upper == np.inf
    assert not result.verified
    assert result.max_real_part < 0.0


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


def test_matching_on_two_node_network_is_marginal(paper_model):
    # refit gain doubles the coupling: the modes lam = +-1 give blocks with
    # nu = 2 and -2, and nu = 2 puts +-i*sqrt(5) on the imaginary axis
    net = msfnet.custom_network([[0.0, 1.0], [1.0, 0.0]])
    result = msfnet.design_matching(paper_model, net)
    assert result.verified is False
    assert abs(result.max_real_part) <= 1e-14


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
    best = oracles.exhaustive_binary_optimum(paper_model.F, paper_model.H, paper_model.G,
                                             net.adjacency, symmetric=False)
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
    with pytest.raises(Infeasible, match="even the complete feedback graph fails"):
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


@pytest.mark.parametrize("spec,links", [("ring:6:4", 14), ("complete:6", 20)])
def test_binary_prefix_search_optima(paper_model, monkeypatch, spec, links):
    # 15 entries on 12x12 closed loops: a depth-first prefix over the first
    # entries, the last ones checked in batches.  The optima are
    # bench/exhaustive.py's enumerations of all 2^15 patterns.
    built, judged = [], []

    def build_spy(model, plant, feedback):
        built.append(np.array(feedback))
        return build_closed_loop(model, plant, feedback)

    def verdicts_spy(Ftilde):
        max_real, stable = _verdicts(Ftilde)
        judged.append(stable)
        return max_real, stable

    monkeypatch.setattr(design_module, "build_closed_loop", build_spy)
    monkeypatch.setattr(design_module, "_verdicts", verdicts_spy)
    net = msfnet.network_from_spec(spec)
    result = msfnet.design_binary(paper_model, net, symmetric=True)
    assert result.optimal
    assert result.links == links
    # replaying the batches leaf by leaf in their order: no batch holds a
    # leaf at or above the incumbent, and the incumbent ends at the result
    incumbent = np.inf
    for feedback, stable in zip(built, judged):
        costs = feedback.sum(axis=(1, 2))
        assert np.all(costs < incumbent)
        for cost, ok in zip(costs, stable):
            if ok and cost < incumbent:
                incumbent = cost
    assert incumbent == links
    assert len(built) > 2  # the search took more than one batch


def test_binary_directed_prefix_search(paper_model):
    # 12 directed entries: more than one batch at N*n = 8
    net = msfnet.make_network("complete", 4, coupling=1.2)
    result = msfnet.design_binary(paper_model, net, symmetric=False)
    F, H, G, B = paper_model.F, paper_model.H, paper_model.G, net.adjacency
    assert result.optimal
    assert result.links == oracles.exhaustive_binary_optimum(F, H, G, B, symmetric=False)
    # of the cheapest feedbacks, the first in the search's visiting order
    first = oracles.first_cheapest_binary(
        F, H, G, B, _branch_entries(net, symmetric=False), symmetric=False)
    npt.assert_array_equal(result.feedback, first)


def test_binary_memory_stays_flat_on_large_networks(paper_model):
    # 8,128 entries at N*n = 256: the search state must not grow with the
    # square of the depth, and batches hold a few closed loops at a time
    net = msfnet.make_network("complete", 128)
    tracemalloc.start()
    try:
        result = msfnet.design_binary(paper_model, net, time_limit=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.optimal
    assert peak < 32 * 2 ** 20


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


def test_sweep_marks_infeasible_rows(paper_model, unstabilizable_model):
    # complete:N has the mode lam = N - 1, past 1/0.22 from N = 6 on
    rows = msfnet.norm_sweep(unstabilizable_model, "complete", (4, 7))
    status = {r.N: r.status for r in rows}
    assert status[4] == status[5] == "ok"
    assert status[6] == status[7] == "infeasible"
    assert np.isnan([r.weighted_norm for r in rows if r.status == "infeasible"]).all()
    # a margin below the rounding floor gives designs that fail their own
    # spectral check: kept with their norms, but not ok
    rows = msfnet.norm_sweep(paper_model, "complete", (5, 8), margin=1e-300)
    assert [r.status for r in rows] == ["unverified"] * 4
    assert np.isfinite([r.weighted_norm for r in rows]).all()


def test_sweep_complete_past_fifty(paper_model):
    # complete:N needs mu > N - 3, beyond 50 from N = 54 on
    rows = msfnet.norm_sweep(paper_model, "complete", (50, 60))
    assert [r.status for r in rows] == ["ok"] * 11
    assert all(r.weighted_norm < r.matching_norm for r in rows)


def test_sweep_er_family_matches_individual_designs(paper_model):
    # a family is a spec without its size: er:p:seed sweeps er:N:p:seed
    rows = msfnet.norm_sweep(paper_model, "er:0.4:3", (5, 8))
    assert [r.N for r in rows] == [5, 6, 7, 8]
    for row in rows:
        net = msfnet.network_from_spec(f"er:{row.N}:0.4:3")
        design = msfnet.design_weighted(paper_model, net)
        assert row.weighted_norm == design.frobenius_norm
        assert row.matching_norm == np.linalg.norm(net.adjacency, "fro")
        assert row.status == ("ok" if design.verified else "unverified")


@pytest.mark.parametrize("family", ["lattice:2", "ring:x", "ring", "ring:4:99"])
def test_sweep_rejects_unknown_family(paper_model, family):
    with pytest.raises(BadParameter):
        msfnet.norm_sweep(paper_model, family, (4, 6))
