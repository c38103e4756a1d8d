"""Network adjacency construction and spectral decompositions.

Adjacency convention: entry (i, j) is the coupling from node j into node i
(row = receiving node).  For the symmetric generators below the orientation
is irrelevant; it only matters for custom directed matrices loaded from CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    """Eigenvalues with a real orthogonal basis Q and factor T, adjacency =
    Q T Q^T.  T is diagonal for a symmetric network, else quasi-triangular
    (real Schur form): a 1x1 block holds a real eigenvalue and a 2x2 block
    one conjugate pair, + first.  ``eigenvalues`` follow the blocks, sorted
    by descending real part, then descending |imaginary part|."""

    eigenvalues: np.ndarray
    Q: np.ndarray
    T: np.ndarray


def _wrap(adjacency: np.ndarray, kind: str, coupling: float = 1.0) -> Network:
    with np.errstate(all="ignore"):  # a non-finite product is rejected below
        a = coupling * np.asarray(adjacency, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise BadParameter("adjacency contains non-finite entries (check the coupling)")
    # both norms are taken of a divided by its largest entry, so no square overflows
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    b = a / scale
    symmetric = bool(np.linalg.norm(b - b.T, "fro")
                     <= _SYM_TOL * max(1.0 / scale, float(np.linalg.norm(b, "fro"))))
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
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise BadParameter(f"er network requires a non-negative integer seed, got {seed!r}")
        # one uniform draw per pair i < j, pairs in row-major order: a seed
        # names the same network as long as this draw order is kept
        rows, cols = np.triu_indices(N, 1)
        keep = np.random.default_rng(seed).random(rows.size) < p
        a = np.zeros((N, N))
        a[rows[keep], cols[keep]] = a[cols[keep], rows[keep]] = 1.0
        tag = f"erdos-renyi({p}, {seed})"
    else:
        raise BadParameter(f"unknown network kind {kind!r}")
    return _wrap(a, tag, coupling)


def custom_network(adjacency) -> Network:
    """Wrap an explicit square adjacency matrix."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadParameter(f"adjacency must be square, got shape {a.shape}")
    return _wrap(a, "custom")


def read_adjacency_csv(path) -> Network:
    """Load an adjacency matrix from CSV: N rows of N comma-separated
    decimals, no header."""
    rows = []
    # a byte that is not UTF-8 decodes to U+FFFD, which no float parses
    for lineno, line in enumerate(Path(path).read_text(errors="replace").splitlines(), start=1):
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


#: Each generated kind's ``make_network`` fields in spec order, and their casts.
_SPEC_FIELDS = {"complete": ("N",), "ring": ("N", "k"), "er": ("N", "p", "seed")}
_FIELD_CASTS = {"N": int, "k": int, "p": float, "seed": int}


def _parse_spec(spec: str, omit: str | None = None) -> tuple[str, dict]:
    """Split ``kind:field:...`` into the kind and its ``make_network`` keywords,
    checking only the casts.  A family (``ring:4`` with ``omit="N"``) leaves
    out the field ``omit``, which its kind must have."""
    kind, *values = spec.split(":")
    names = _SPEC_FIELDS.get(kind, ())
    fields = [name for name in names if name != omit]
    what = "spec" if omit is None else "family"
    if not names or omit not in (None, *names) or len(values) != len(fields):
        expected = " | ".join(":".join((k, *(f for f in fs if f != omit)))
                              for k, fs in _SPEC_FIELDS.items() if omit in (None, *fs))
        raise BadParameter(f"bad network {what} {spec!r} (expected {expected}"
                           f"{' | file:PATH' if omit is None else ''})")
    try:
        return kind, {name: _FIELD_CASTS[name](value) for name, value in zip(fields, values)}
    except ValueError as exc:
        raise BadParameter(f"bad network {what} {spec!r}: {exc}") from exc


def network_from_spec(spec: str, *, coupling: float = 1.0) -> Network:
    """Parse a network spec string: ``complete:N``, ``ring:N:k``,
    ``er:N:p:seed`` or ``file:PATH``."""
    if spec.startswith("file:"):
        return _wrap(read_adjacency_csv(spec.partition(":")[2]).adjacency, "custom", coupling)
    kind, fields = _parse_spec(spec)
    return make_network(kind, coupling=coupling, **fields)


def _mode_key(eigenvalues: np.ndarray) -> np.ndarray:
    """Rows (Re, |Im|), each rounded to 9 decimals so rounding noise cannot
    hide a tie: the spectrum is sorted by it, descending, and modes with
    equal keys are the same up to conjugation, so they share one interval.
    A part beyond about 1.8e299, whose rounding would overflow, is kept as is."""
    parts = np.stack((eigenvalues.real, np.abs(eigenvalues.imag)))
    with np.errstate(over="ignore"):
        rounded = parts.round(9)
    return np.where(np.isfinite(rounded), rounded, parts)


def _schur_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a standardized real Schur factor in diagonal order: a
    1x1 block is real, and a 2x2 block [[a, b], [c, a]] gives a + i*sqrt(-bc)
    first, then its conjugate."""
    w = np.diag(T).astype(np.complex128)
    i = np.flatnonzero(np.diag(T, -1))
    w[i] += 1j * np.sqrt(np.abs(T[i, i + 1])) * np.sqrt(np.abs(T[i + 1, i]))
    w[i + 1] = w[i].conj()
    return w


def _ordered_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form a = Q T Q^T, its 1x1 and 2x2 diagonal blocks (a 2x2
    block holds one conjugate pair) sorted by descending ``_mode_key``, ties
    in Schur order.  LAPACK's dtrexc moves each block into place.  A move
    can split a nearby 2x2 block of a defective cluster into two real ones
    with other keys; the selection then starts over.  Splits only remove
    2x2 blocks, so the last pass has none and leaves the order exact."""
    # scipy.linalg is imported where it is called: loading it costs about 0.2 s,
    # which every process that never calls it (msf grid, verify, --version) would pay
    import scipy.linalg
    try:
        T, Q = scipy.linalg.schur(a, output="real")
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Schur decomposition failed: {exc}") from exc
    p, pairs = 0, np.count_nonzero(np.diag(T, -1))
    while p < len(T):
        starts = p + np.flatnonzero(np.r_[True, np.diag(T, -1)[p:] == 0.0])
        j = starts[np.lexsort(-_mode_key(_schur_eigenvalues(T)[starts])[::-1])[0]]
        if j != p:
            T, Q, info = scipy.linalg.lapack.dtrexc(T, Q, j + 1, p + 1)
            if info != 0:
                raise NumericalFailure(f"Schur reordering failed (dtrexc info={info})")
            if np.count_nonzero(np.diag(T, -1)) < pairs:
                p, pairs = 0, np.count_nonzero(np.diag(T, -1))
                continue
        p += 1 if p + 1 == len(T) or T[p + 1, p] == 0.0 else 2
    return T, Q


def spectrum(network: Network) -> SpectralDecomposition:
    """Spectral decomposition of a network's adjacency matrix.

    A network flagged ``symmetric`` gets a real orthogonal eigenbasis with
    diagonal T; anything else gets an ordered real Schur form.  Eigenvalues
    are sorted as ``SpectralDecomposition`` states, so mode pairing is
    deterministic and each conjugate pair is adjacent.
    """
    a = network.adjacency
    if network.symmetric:
        try:
            w, v = np.linalg.eigh(a / 2.0 + a.T / 2.0)  # no sum can overflow
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
        order = np.argsort(-w)
        w, v = w[order], v[:, order]
        return SpectralDecomposition(
            eigenvalues=_frozen(w.astype(np.complex128)),
            Q=_frozen(v), T=_frozen(np.diag(w)),
        )
    T, Q = _ordered_schur(a)
    return SpectralDecomposition(eigenvalues=_frozen(_schur_eigenvalues(T)),
                                 Q=_frozen(Q), T=_frozen(T))
