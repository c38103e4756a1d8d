"""Network adjacency construction and spectral decompositions.

Adjacency convention: entry (i, j) is the coupling from node j into node i
(row = receiving node).  For the symmetric generators below the orientation
is irrelevant; it only matters for custom directed matrices loaded from CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import BadParameter, NumericalFailure
from .model import _frozen

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class Network:
    """Square adjacency matrix with structural metadata.

    ``kind`` is one of ``complete``, ``ring-regular(k)``,
    ``erdos-renyi(p, seed)`` or ``custom``.  ``symmetric`` holds when
    ``||a - a^T||_F <= 1e-12 * max(1, ||a||_F)``; ``spectrum`` then uses a
    real orthogonal eigenbasis.
    """

    adjacency: np.ndarray
    size: int
    kind: str
    symmetric: bool


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with a unitary basis Q and triangular factor T.

    adjacency = Q T Q*; diag(T) equals ``eigenvalues``, which are sorted by
    descending real part, ties by descending imaginary part.
    """

    eigenvalues: np.ndarray
    Q: np.ndarray
    T: np.ndarray


def _wrap(adjacency: np.ndarray, kind: str) -> Network:
    a = np.asarray(adjacency, dtype=np.float64)
    scale = max(1.0, float(np.linalg.norm(a, "fro")))
    symmetric = bool(np.linalg.norm(a - a.T, "fro") <= _SYM_TOL * scale)
    return Network(adjacency=_frozen(a), size=a.shape[0], kind=kind, symmetric=symmetric)


def make_network(kind: str, N: int, *, k: int | None = None, p: float | None = None,
                 seed: int | None = None, coupling: float = 1.0) -> Network:
    """Build a plant/feedback network of the requested kind, scaled by
    ``coupling``.

    kinds: ``complete``; ``ring`` (k-regular ring, k even, k < N, requires
    ``k``); ``er`` (undirected Erdos-Renyi, requires ``p`` in [0, 1] and an
    explicit ``seed``).  Diagonals are zero and all generators are symmetric.
    """
    if N < 2:
        raise BadParameter(f"N must be >= 2, got {N}")
    if kind == "complete":
        a = np.ones((N, N)) - np.eye(N)
        tag = "complete"
    elif kind == "ring":
        if k is None:
            raise BadParameter("ring network requires k")
        if k % 2 != 0:
            raise BadParameter(f"ring degree k must be even, got {k}")
        if not 0 < k < N:
            raise BadParameter(f"ring degree k must satisfy 0 < k < N, got k={k}, N={N}")
        nodes = np.arange(N)[:, None]
        offsets = np.arange(1, k // 2 + 1)
        a = np.zeros((N, N))
        a[nodes, (nodes + np.concatenate((offsets, -offsets))) % N] = 1.0
        tag = f"ring-regular({k})"
    elif kind == "er":
        if p is None or not 0.0 <= p <= 1.0:
            raise BadParameter(f"er network requires p in [0, 1], got {p}")
        if seed is None:
            raise BadParameter("er network requires an explicit seed")
        # one uniform draw per pair i < j, pairs in row-major order: a seed
        # names the same network as long as this draw order is kept
        rows, cols = np.triu_indices(N, 1)
        keep = np.random.default_rng(seed).random(rows.size) < p
        a = np.zeros((N, N))
        a[rows[keep], cols[keep]] = a[cols[keep], rows[keep]] = 1.0
        tag = f"erdos-renyi({p}, {seed})"
    else:
        raise BadParameter(f"unknown network kind {kind!r}")
    return _wrap(coupling * a, tag)


def custom_network(adjacency) -> Network:
    """Wrap an explicit square adjacency matrix."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadParameter(f"adjacency must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise BadParameter("adjacency contains non-finite entries")
    return _wrap(a, "custom")


def read_adjacency_csv(path) -> Network:
    """Load an adjacency matrix from CSV: N rows of N comma-separated
    decimals, no header."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError as exc:
            raise BadParameter(f"{path}:{lineno}: bad CSV entry") from exc
    if not rows:
        raise BadParameter(f"{path}: empty adjacency file")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise BadParameter(f"{path}: adjacency must be square ({n} rows)")
    return custom_network(np.array(rows))


def adjacency_csv_text(adjacency: np.ndarray) -> str:
    """Render an adjacency matrix in the CSV interchange format."""
    return "\n".join(",".join(str(float(v)) for v in row) for row in adjacency) + "\n"


def network_from_spec(spec: str, *, coupling: float = 1.0) -> Network:
    """Parse a network spec string: ``complete:N``, ``ring:N:k``,
    ``er:N:p:seed`` or ``file:PATH``."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "complete" and len(parts) == 2:
            return make_network("complete", int(parts[1]), coupling=coupling)
        if kind == "ring" and len(parts) == 3:
            return make_network("ring", int(parts[1]), k=int(parts[2]), coupling=coupling)
        if kind == "er" and len(parts) == 4:
            return make_network("er", int(parts[1]), p=float(parts[2]),
                                seed=int(parts[3]), coupling=coupling)
        if kind == "file" and len(parts) >= 2:
            network = read_adjacency_csv(spec.partition(":")[2])
            if coupling != 1.0:
                network = _wrap(coupling * network.adjacency, "custom")
            return network
    except ValueError as exc:
        raise BadParameter(f"bad network spec {spec!r}: {exc}") from exc
    raise BadParameter(f"bad network spec {spec!r} "
                       "(expected complete:N | ring:N:k | er:N:p:seed | file:PATH)")


def _ordered_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form with the diagonal sorted by descending real part,
    ties by descending imaginary part.  Both are rounded to 9 decimals so
    rounding noise cannot hide a genuine tie (conjugate pairs in
    particular); equal keys keep their Schur order.  LAPACK's ztrexc moves
    each next eigenvalue into place with unitary swaps."""
    try:
        T, Q = scipy.linalg.schur(a.astype(np.complex128), output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Schur decomposition failed: {exc}") from exc
    for p in range(T.shape[0] - 1):
        rest = np.diag(T)[p:]
        j = p + np.lexsort((-rest.imag.round(9), -rest.real.round(9)))[0]
        if j != p:
            T, Q, info = scipy.linalg.lapack.ztrexc(T, Q, j + 1, p + 1)
            if info != 0:
                raise NumericalFailure(f"Schur reordering failed (ztrexc info={info})")
    return T, Q


def spectrum(network: Network) -> SpectralDecomposition:
    """Spectral decomposition of a network's adjacency matrix.

    A network flagged ``symmetric`` gets a real orthogonal eigenbasis with
    diagonal T; anything else gets an ordered complex Schur form.  Eigenvalues are
    sorted by descending real part, ties by descending imaginary part, so
    mode pairing is deterministic.
    """
    a = network.adjacency
    if network.symmetric:
        try:
            w, v = np.linalg.eigh((a + a.T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
        order = np.argsort(-w)
        w, v = w[order], v[:, order]
        return SpectralDecomposition(
            eigenvalues=_frozen(w.astype(np.complex128)),
            Q=_frozen(v), T=_frozen(np.diag(w)),
        )
    T, Q = _ordered_schur(a)
    return SpectralDecomposition(eigenvalues=_frozen(np.diag(T).copy()),
                                 Q=_frozen(Q), T=_frozen(T))
