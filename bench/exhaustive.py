"""Exhaustive optimum for the binary-design instances of the benchmark.

Enumerates every symmetric binary feedback pattern on the off-diagonal
entries (2**15 patterns for N = 6), builds each closed loop
``I (x) F + B (x) H + A (x) G`` with numpy alone and keeps the smallest
directed link count whose spectrum lies left of -1e-9, the strictness
guard the binary designer uses.  The benchmark stores the results in
``BINARY_OPTIMA`` and checks every binary design against them; this
script re-derives them:

    python3 bench/exhaustive.py
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

#: Reference plant from paper.cfg as closed-loop matrices F = D + R K, H, G = R L.
F = np.array([[-2.0, 5.0], [-1.0, 0.0]])
H = np.array([[1.0, 0.0], [0.0, 0.0]])
G = np.array([[-1.0, 0.0], [0.0, 0.0]])

#: Minimal directed link counts of the benchmark's binary instances.
BINARY_OPTIMA = {"ring:6:4": 14, "complete:6": 20}

_THRESHOLD = -1e-9


def adjacency(spec: str) -> np.ndarray:
    """Plant adjacency for ``ring:N:k`` or ``complete:N``."""
    parts = spec.split(":")
    N = int(parts[1])
    if parts[0] == "complete":
        return np.ones((N, N)) - np.eye(N)
    k = int(parts[2])
    B = np.zeros((N, N))
    for i in range(N):
        for d in range(1, k // 2 + 1):
            B[i, (i + d) % N] = B[i, (i - d) % N] = 1.0
    return B


def closed_loop(B: np.ndarray, A: np.ndarray, F=F, H=H, G=G) -> np.ndarray:
    """Stacked closed-loop matrix, written independently of the library."""
    N = B.shape[0]
    return np.kron(np.eye(N), F) + np.kron(B, H) + np.kron(A, G)


def optimal_links(B: np.ndarray) -> int | None:
    """Smallest directed link count of a stabilizing symmetric binary feedback."""
    N, n = B.shape[0], F.shape[0]
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    base = closed_loop(B, np.zeros((N, N)))
    patterns = np.array(list(itertools.product((0.0, 1.0), repeat=len(pairs))))
    best = None
    for chunk in np.array_split(patterns, max(1, len(patterns) // 4096)):
        stack = np.repeat(base[None], len(chunk), axis=0)
        for bit, (i, j) in enumerate(pairs):
            for a, b in ((i, j), (j, i)):
                stack[:, a * n:a * n + n, b * n:b * n + n] += chunk[:, bit, None, None] * G
        feasible = np.max(np.linalg.eigvals(stack).real, axis=1) < _THRESHOLD
        if feasible.any():
            cost = int(2 * chunk[feasible].sum(axis=1).min())
            best = cost if best is None else min(best, cost)
    return best


def main() -> int:
    mismatched = 0
    for spec, stored in BINARY_OPTIMA.items():
        found = optimal_links(adjacency(spec))
        print(f"{spec}: exhaustive optimum {found} links, stored {stored}")
        mismatched += found != stored
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
