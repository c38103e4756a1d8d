import inspect

import numpy as np
import numpy.testing as npt
import pytest

import msfnet
import oracles
from msfnet import graphs
from msfnet.errors import BadParameter


def test_complete_adjacency(complete8):
    expected = np.ones((8, 8)) - np.eye(8)
    npt.assert_array_equal(complete8.adjacency, expected)
    assert complete8.symmetric
    assert complete8.kind == "complete"


def test_ring_on_five_nodes_with_k4_is_complete():
    ring = msfnet.make_network("ring", 5, k=4)
    complete = msfnet.make_network("complete", 5)
    npt.assert_array_equal(ring.adjacency, complete.adjacency)


def test_er_p_zero_is_empty():
    net = msfnet.make_network("er", 4, p=0.0, seed=1)
    npt.assert_array_equal(net.adjacency, np.zeros((4, 4)))


def test_er_p_one_is_complete():
    net = msfnet.make_network("er", 6, p=1.0, seed=9)
    npt.assert_array_equal(net.adjacency, msfnet.make_network("complete", 6).adjacency)


def test_er_sampling_is_seeded_and_symmetric():
    a = msfnet.make_network("er", 10, p=0.5, seed=42)
    b = msfnet.make_network("er", 10, p=0.5, seed=42)
    npt.assert_array_equal(a.adjacency, b.adjacency)
    assert a.symmetric
    assert np.all(np.diag(a.adjacency) == 0.0)


def test_coupling_scales_adjacency():
    net = msfnet.make_network("complete", 4, coupling=0.3)
    npt.assert_allclose(net.adjacency, 0.3 * (np.ones((4, 4)) - np.eye(4)))


@pytest.mark.parametrize("kwargs", [
    dict(kind="ring", N=8, k=3),            # odd degree
    dict(kind="ring", N=4, k=4),            # k >= N
    dict(kind="er", N=4, p=1.5, seed=0),    # p out of range
    dict(kind="er", N=4, p=0.5),            # missing seed
    dict(kind="er", N=5, p=0.5, seed=-1),   # negative seed
    dict(kind="er", N=5, p=0.5, seed=1.5),  # non-integer seed
    dict(kind="complete", N=1),             # too small
    dict(kind="torus", N=4),                # unknown kind
])
def test_make_network_rejects_bad_parameters(kwargs):
    with pytest.raises(BadParameter):
        msfnet.make_network(**kwargs)


def test_non_finite_adjacency_or_coupling_rejected(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1\n1,0\n")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadParameter):
            msfnet.custom_network([[0.0, bad], [1.0, 0.0]])
        with pytest.raises(BadParameter):
            msfnet.make_network("ring", 6, k=2, coupling=bad)
        for spec in ("complete:4", "er:5:0.5:1", f"file:{path}"):
            with pytest.raises(BadParameter):
                msfnet.network_from_spec(spec, coupling=bad)


def test_spec_strings():
    npt.assert_array_equal(msfnet.network_from_spec("complete:5").adjacency,
                           msfnet.make_network("complete", 5).adjacency)
    npt.assert_array_equal(msfnet.network_from_spec("ring:8:4").adjacency,
                           msfnet.make_network("ring", 8, k=4).adjacency)
    npt.assert_array_equal(msfnet.network_from_spec("er:6:0.5:3").adjacency,
                           msfnet.make_network("er", 6, p=0.5, seed=3).adjacency)
    for bad in ("complete", "ring:8", "er:6:0.5", "blob:3", "complete:x"):
        with pytest.raises(BadParameter):
            msfnet.network_from_spec(bad)


def test_spec_fields_are_make_network_keywords():
    # every spec field is a keyword of make_network and has a cast, and
    # every keyword but coupling is some kind's field
    fields = {name for names in graphs._SPEC_FIELDS.values() for name in names}
    keywords = set(inspect.signature(msfnet.make_network).parameters) - {"kind", "coupling"}
    assert fields == keywords == set(graphs._FIELD_CASTS)
    for kind in graphs._SPEC_FIELDS:
        msfnet.make_network(kind, 6, k=2, p=0.5, seed=0)


def test_adjacency_csv_rejects_non_text(tmp_path):
    path = tmp_path / "net.csv"
    path.write_bytes(b"\xff\xfe0,1\n1,0\n")
    with pytest.raises(BadParameter, match="net.csv:1: bad CSV entry"):
        msfnet.read_adjacency_csv(path)


def test_adjacency_csv_round_trip(tmp_path):
    net = msfnet.make_network("er", 5, p=0.6, seed=7, coupling=0.25)
    path = tmp_path / "net.csv"
    path.write_text(msfnet.adjacency_csv_text(net.adjacency))
    loaded = msfnet.read_adjacency_csv(path)
    npt.assert_array_equal(loaded.adjacency, net.adjacency)
    assert loaded.kind == "custom"
    npt.assert_array_equal(msfnet.network_from_spec(f"file:{path}").adjacency,
                           net.adjacency)
    npt.assert_allclose(
        msfnet.network_from_spec(f"file:{path}", coupling=2.0).adjacency,
        2.0 * net.adjacency)


def test_adjacency_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,0,1\n")
    with pytest.raises(BadParameter):
        msfnet.read_adjacency_csv(path)


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------

def test_complete_spectrum(complete8):
    dec = msfnet.spectrum(complete8)
    npt.assert_allclose(dec.eigenvalues[0], 7.0, atol=1e-9)
    npt.assert_allclose(dec.eigenvalues[1:], -np.ones(7), atol=1e-9)
    assert np.all(dec.eigenvalues.imag == 0.0)


def test_ring_spectrum_matches_circulant_formula(ring8):
    dec = msfnet.spectrum(ring8)
    npt.assert_allclose(dec.eigenvalues.real, oracles.ring_eigenvalues(8, 4),
                        atol=1e-9)


def test_zero_matrix_spectrum():
    net = msfnet.custom_network(np.zeros((3, 3)))
    dec = msfnet.spectrum(net)
    npt.assert_array_equal(dec.eigenvalues, np.zeros(3))
    npt.assert_allclose(dec.Q @ dec.Q.conj().T, np.eye(3), atol=1e-12)


def _order_key(z):
    # the documented ordering: descending real part, then descending
    # |imaginary part|, with 9-decimal rounding so rounding noise cannot
    # hide ties
    return (-round(float(np.real(z)), 9), -round(abs(float(np.imag(z))), 9))


def _check_decomposition(a, dec, n):
    # a = Q T Q^T with Q real orthogonal and T quasi-triangular: zero below
    # the first subdiagonal, whose nonzeros start 2x2 blocks that never
    # overlap.  A 1x1 block holds a real eigenvalue; a standardized 2x2
    # block [[x, b], [c, x]] holds x + i sqrt(-bc) and then its conjugate
    scale = max(np.linalg.norm(a, "fro"), 1e-30)
    assert dec.Q.dtype == np.float64 and dec.T.dtype == np.float64
    assert np.linalg.norm(dec.Q.T @ dec.Q - np.eye(n), "fro") <= 1e-10 * n
    assert np.linalg.norm(dec.Q @ dec.T @ dec.Q.T - a, "fro") <= 1e-8 * scale
    assert np.all(np.tril(dec.T, -2) == 0.0)
    sub = np.diag(dec.T, -1) != 0.0
    assert not np.any(sub[:-1] & sub[1:])
    w = dec.eigenvalues
    i = 0
    while i < n:
        if i + 1 < n and sub[i]:
            block = dec.T[i:i + 2, i:i + 2]
            assert block[0, 0] == block[1, 1] and block[0, 1] * block[1, 0] < 0.0
            assert w[i].real == w[i + 1].real == block[0, 0]
            assert w[i].imag > 0.0 and w[i + 1] == np.conj(w[i])
            npt.assert_allclose(w[i].imag ** 2, -block[0, 1] * block[1, 0], rtol=1e-12)
            i += 2
        else:
            assert w[i] == dec.T[i, i]
            i += 1
    assert list(w) == sorted(w, key=_order_key)


def test_reconstruction_on_random_symmetric_networks():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a = oracles.random_symmetric_adjacency(rng, n)
        dec = msfnet.spectrum(msfnet.custom_network(a))
        _check_decomposition(a, dec, n)
        assert np.max(np.abs(dec.eigenvalues.imag)) <= 1e-10
        assert np.max(np.abs(dec.T - np.diag(np.diag(dec.T)))) <= 1e-10


def test_frobenius_spectrum_identity_for_symmetric_networks():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        a = oracles.random_symmetric_adjacency(rng, n)
        dec = msfnet.spectrum(msfnet.custom_network(a))
        lhs = np.linalg.norm(a, "fro") ** 2
        rhs = float(np.sum(np.abs(dec.eigenvalues) ** 2))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, lhs)


def test_schur_path_on_random_nonsymmetric_matrices():
    rng = np.random.default_rng(11)
    cycles = [np.roll(np.eye(n), 1, axis=0) for n in range(3, 61)]
    matrices = []
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(a, 0.0)
        matrices.append(a)
    for _ in range(20):
        # sparse directed 0/1 networks: repeated eigenvalues and conjugate
        # pairs, so the reordering makes many long moves; in one, a move
        # splits a 0 +- 1.1e-8i block into two real ones
        n = int(rng.integers(10, 61))
        a = (rng.random((n, n)) < rng.uniform(0.03, 0.2)).astype(float)
        np.fill_diagonal(a, 0.0)
        a[0, 1], a[1, 0] = 1.0, 0.0  # one one-way link: never symmetric
        matrices.append(a)
    for _ in range(10):
        # integer multiples of the directed cycle: scaled roots of unity
        matrices.append(float(rng.integers(1, 6)) * cycles[int(rng.integers(0, 58))])
    for a in matrices:
        n = a.shape[0]
        net = msfnet.custom_network(a)
        assert not net.symmetric
        dec = msfnet.spectrum(net)
        _check_decomposition(a, dec, n)


def test_near_symmetric_network_takes_the_symmetric_path():
    rng = np.random.default_rng(3)
    a = oracles.random_symmetric_adjacency(rng, 6)
    a[0, 1] += 1e-14
    net = msfnet.custom_network(a)
    assert net.symmetric
    dec = msfnet.spectrum(net)
    assert not np.iscomplexobj(dec.Q)
    npt.assert_array_equal(dec.T, np.diag(np.diag(dec.T)))


def test_huge_directed_cycle_stays_directed():
    # squares of entries above ~1.3e154 overflow a plain Frobenius norm, which
    # once called this cycle symmetric and gave it real eigenvalues
    cycle = np.roll(np.eye(3), 1, axis=0)
    for scale in (1e155, 1e300):
        net = msfnet.custom_network(cycle * scale)
        assert not net.symmetric
        dec = msfnet.spectrum(net)
        npt.assert_allclose(dec.eigenvalues / scale,
                            [1.0, -0.5 + 0.75 ** 0.5 * 1j, -0.5 - 0.75 ** 0.5 * 1j], atol=1e-12)


def test_directed_cycle_spectrum_ordering():
    # eigenvalues are the 4th roots of unity; conjugates orderd +i before -i
    shift = np.roll(np.eye(4), 1, axis=0)
    dec = msfnet.spectrum(msfnet.custom_network(shift))
    npt.assert_allclose(dec.eigenvalues, [1.0, 1j, -1j, -1.0], atol=1e-9)
