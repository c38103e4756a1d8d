"""Plant-level matrices and the closed-loop local matrices derived from them.

A node's dynamics are ``dx/dt = D x + R u`` with inter-plant coupling ``H``;
the local gain ``K`` and the inter-node loop gain ``L`` close the loop via
``F = D + R K`` and ``G = R L``.  Every other module works with ``F``, ``H``
and ``G`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadParameter, DimensionMismatch

MODEL_KEYS = ("D", "R", "H", "K", "L")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PlantModel:
    """Local matrices of one plant plus the derived closed-loop pair.

    D : (n, n) open-loop dynamics
    R : (n, m) input matrix
    H : (n, n) inter-plant coupling
    K : (m, n) local feedback gain
    L : (m, n) inter-node feedback loop gain
    F : (n, n) derived, D + R K
    G : (n, n) derived, R L

    Instances are immutable (arrays are marked read-only).
    """

    D: np.ndarray
    R: np.ndarray
    H: np.ndarray
    K: np.ndarray
    L: np.ndarray
    F: np.ndarray
    G: np.ndarray

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[1]

    def with_loop_gain(self, L: np.ndarray) -> "PlantModel":
        """Same plant with a different inter-node loop gain (G recomputed)."""
        return build_plant_model(self.D, self.R, self.H, self.K, L)


def _as_matrix(name: str, value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim != 2:
        raise BadParameter(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise BadParameter(f"{name} contains non-finite entries")
    return a


def build_plant_model(D, R, H, K, L) -> PlantModel:
    """Validate dimensions and return the model with F = D + RK, G = RL.

    Pure function: identical inputs give bit-identical outputs.  Raises
    DimensionMismatch naming the first conflicting pair of matrices.
    """
    D = _as_matrix("D", D)
    R = _as_matrix("R", R)
    H = _as_matrix("H", H)
    K = _as_matrix("K", K)
    L = _as_matrix("L", L)

    n = D.shape[0]
    if D.shape != (n, n):
        raise DimensionMismatch(f"D must be square, got {D.shape}")
    if H.shape != (n, n):
        raise DimensionMismatch(f"H {H.shape} does not match D {D.shape}")
    if R.shape[0] != n:
        raise DimensionMismatch(f"R has {R.shape[0]} rows but D is {n}x{n}")
    m = R.shape[1]
    if K.shape != (m, n):
        raise DimensionMismatch(f"K {K.shape} does not match R {R.shape} (need {(m, n)})")
    if L.shape != (m, n):
        raise DimensionMismatch(f"L {L.shape} does not match R {R.shape} (need {(m, n)})")

    F = D + R @ K
    G = R @ L
    return PlantModel(
        D=_frozen(D), R=_frozen(R), H=_frozen(H), K=_frozen(K), L=_frozen(L),
        F=_frozen(F), G=_frozen(G),
    )


def matching_defect(model: PlantModel) -> float:
    """Induced 2-norm of R L - H.

    Zero means the loop gain reproduces the plant coupling exactly, so
    replicating the plant network (A = B) is the classical baseline design.
    """
    return float(np.linalg.norm(model.R @ model.L - model.H, 2))


def matching_gain(model: PlantModel) -> tuple[np.ndarray, float]:
    """Least-squares loop gain minimizing ||R L - H||_F, with its residual."""
    L, *_ = np.linalg.lstsq(model.R, model.H, rcond=None)
    residual = float(np.linalg.norm(model.R @ L - model.H, "fro"))
    return L, residual


def _parse_matrix_text(name: str, text: str) -> np.ndarray:
    rows = []
    for row_text in text.split(";"):
        entries = row_text.split()
        if not entries:
            raise BadParameter(f"{name}: empty row in {text!r}")
        try:
            rows.append([float(e) for e in entries])
        except ValueError as exc:
            raise BadParameter(f"{name}: bad matrix entry in {text!r}") from exc
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise BadParameter(f"{name}: ragged rows in {text!r}")
    return np.array(rows, dtype=np.float64)


def load_model_config(path) -> PlantModel:
    """Read a plain-text model file: one ``key = value`` per line.

    Matrix rows are separated by ``;`` and entries by whitespace, e.g.
    ``D = 3 5; -1 0``.  Keys are D, R, H, K, L; blank lines and lines
    starting with ``#`` are ignored; anything else is rejected.
    """
    seen: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadParameter(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in MODEL_KEYS:
            raise BadParameter(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise BadParameter(f"{path}:{lineno}: duplicate key {key!r}")
        seen[key] = _parse_matrix_text(key, value.strip())
    missing = [k for k in MODEL_KEYS if k not in seen]
    if missing:
        raise BadParameter(f"{path}: missing keys {missing}")
    return build_plant_model(*(seen[k] for k in MODEL_KEYS))
