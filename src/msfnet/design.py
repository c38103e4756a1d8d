"""Feedback network synthesis.

Three designers share one result type:

* ``design_weighted`` — per-mode minimal gains in the plant network's
  ordered real Schur basis B = Q T Q^T.  The feedback A = Q diag(mu) Q^T is
  block triangular there with B, so the closed-loop spectrum splits into
  per-mode blocks and ||A||_F = ||mu||_2: minimizing each ``|mu_i|`` inside
  its stable interval minimizes the norm among real-gain feedbacks diagonal
  in that basis, the paper's class when B is symmetric.
* ``design_binary`` — exact branch and bound over binary link variables,
  minimizing the link count with a direct full-spectrum feasibility test.
* ``design_matching`` — the classical baseline that replicates the plant
  network (A = B) with the loop gain refit by least squares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, Infeasible, NoStableInterval, TimedOut
from .graphs import Network, _mode_key, _parse_spec, make_network, spectrum
from .model import PlantModel, _frozen, matching_gain
from .msf import StableInterval, stable_interval
from .verify import _verdicts, build_closed_loop, spectral_verdict

#: Memory budget of one batch of binary-search leaves.
_BATCH_BYTES = 2 ** 20


@dataclass(frozen=True)
class DesignResult:
    """A synthesized feedback network plus its verification record.

    ``mode_gains`` pairs with the plant eigenvalues in spectrum order for
    the weighted and matching designers; it is None for binary designs,
    which are generally not jointly triangularizable with the plant
    network.  ``optimal`` is False only when a binary search returned its
    incumbent at the time limit.
    """

    feedback: np.ndarray
    mode_gains: np.ndarray | None
    frobenius_norm: float
    method: str
    margin: float
    verified: bool
    max_real_part: float
    optimal: bool = True
    intervals: tuple[StableInterval, ...] | None = None
    matching_residual: float | None = None

    @property
    def links(self) -> int:
        """Number of nonzero feedback entries (directed count)."""
        return int(np.count_nonzero(self.feedback))


@dataclass(frozen=True)
class SweepRow:
    N: int
    weighted_norm: float
    matching_norm: float
    status: str


def _pick_mode_gain(interval: StableInterval, margin: float) -> float:
    """Smallest-magnitude gain safely inside the interval.

    The point nearest the origin of the interval shrunk by ``margin`` at
    both ends (to its midpoint when narrower than two margins): zero when
    zero is at least ``margin`` from both ends, else the nearest end moved
    ``margin`` into the interior.  A boundary a rounding error away from
    zero therefore still gets its margin.
    """
    step = min(margin, 0.5 * (interval.upper - interval.lower))
    return min(max(0.0, interval.lower + step), interval.upper - step)


def design_weighted(model: PlantModel, plant_network: Network,
                    margin: float = 0.01) -> DesignResult:
    """Frobenius-minimal weighted feedback network.

    Decomposes the plant network in its ordered real Schur basis
    B = Q T Q^T, finds each mode's stable interval, picks the
    minimal-magnitude gain ``margin`` inside it, and assembles the feedback
    as A = Q diag(mu) Q^T: norm-minimal among real-gain feedbacks diagonal
    in that basis, exactly the paper's class when B is symmetric.  Modes
    with equal ``_mode_key`` (a 2x2 Schur block's conjugate pair, or modes
    the order ties) share one ``stable_interval`` call and one gain, so each
    2x2 block gets x*I_2 and A is real by construction.  Raises Infeasible
    listing every mode that has no stable interval.
    """
    if not 0.0 < margin < np.inf:
        raise BadParameter(f"margin must be positive and finite, got {margin}")

    decomposition = spectrum(plant_network)
    eigenvalues = decomposition.eigenvalues

    key = _mode_key(eigenvalues)
    _, first, label = np.unique(key, axis=1, return_index=True, return_inverse=True)
    solved: list[StableInterval | None] = []
    for index in first:
        # a mode the key calls real gets a real lambda, not the complex path
        lam = eigenvalues[index].real if key[1, index] == 0 else complex(eigenvalues[index])
        try:
            solved.append(stable_interval(model, lam))
        except NoStableInterval:
            solved.append(None)
    intervals = [solved[c] for c in label]
    failed = [(i, complex(eigenvalues[i])) for i, iv in enumerate(intervals) if iv is None]
    if failed:
        described = ", ".join(f"lambda_{i + 1}={lam}" for i, lam in failed)
        raise Infeasible(f"no stable interval for mode(s) {described}", failed_modes=failed)

    mode_gains = np.array([_pick_mode_gain(iv, margin) for iv in intervals])

    Q = decomposition.Q
    feedback = Q @ np.diag(mode_gains) @ Q.T

    verdict = spectral_verdict(build_closed_loop(model, plant_network, feedback))
    return DesignResult(
        feedback=_frozen(feedback),
        mode_gains=_frozen(mode_gains),
        frobenius_norm=float(np.linalg.norm(feedback, "fro")),
        method="weighted",
        margin=margin,
        verified=verdict.stable,
        max_real_part=verdict.max_real_part,
        intervals=tuple(intervals),
    )


def design_matching(model: PlantModel, plant_network: Network) -> DesignResult:
    """Baseline design replicating the plant network (A = B).

    The loop gain is refit internally by least squares to bring R L as
    close to H as possible; a residual above 1e-9 marks the matching as
    inexact (reported through ``matching_residual``, never rejected).  The
    verification verdict uses the refit gain.
    """
    L_match, residual = matching_gain(model)
    matched = model.with_loop_gain(L_match)
    feedback = plant_network.adjacency.copy()

    eigenvalues = spectrum(plant_network).eigenvalues
    mode_gains = eigenvalues if _mode_key(eigenvalues)[1].any() else eigenvalues.real

    verdict = spectral_verdict(build_closed_loop(matched, plant_network, feedback))
    return DesignResult(
        feedback=_frozen(feedback),
        mode_gains=_frozen(mode_gains),
        frobenius_norm=float(np.linalg.norm(feedback, "fro")),
        method="matching",
        margin=0.0,
        verified=verdict.stable,
        max_real_part=verdict.max_real_part,
        matching_residual=residual,
    )


def _branch_entries(plant_network: Network, symmetric: bool) -> list[tuple[int, int]]:
    # likely-useful links first: descending eigenvector-centrality product
    N = plant_network.size
    centrality = np.abs(spectrum(plant_network).Q[:, 0])
    if symmetric:
        entries = [(i, j) for i in range(N) for j in range(i + 1, N)]
    else:
        entries = [(i, j) for i in range(N) for j in range(N) if i != j]
    entries.sort(key=lambda e: (-float(centrality[e[0]] * centrality[e[1]]), e))
    return entries


def _link_stack(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray, N: int,
                symmetric: bool) -> np.ndarray:
    """Binary feedback stack (k, N, N) putting bits[:, e] at (rows[e], cols[e]),
    mirrored when ``symmetric``."""
    A = np.zeros((len(bits), N, N))
    A[:, rows, cols] = bits
    if symmetric:
        A[:, cols, rows] = bits
    return A


def design_binary(model: PlantModel, plant_network: Network,
                  symmetric: bool = True,
                  time_limit: float = 60.0) -> DesignResult:
    """Minimal-link binary feedback network by branch and bound.

    Searches the off-diagonal binary entries (upper triangle mirrored when
    ``symmetric``), minimizing the number of ones.  A complete assignment
    is feasible iff ``spectral_verdict``'s rule finds it stable.  The search
    is depth first with the 1-branch first, so of the cheapest feasible
    assignments it returns the first in that order; a prefix is pruned once
    its committed link count reaches the incumbent.  The last levels are
    checked in batches: a prefix's completions cheaper than the incumbent
    are built as one stack and solved with one stacked eigensolve.  The
    time limit is checked between batches; when it expires first, the
    incumbent comes back with ``optimal=False``.
    """
    if not 0.0 < time_limit < np.inf:
        raise BadParameter(f"time_limit must be positive and finite, got {time_limit}")
    N = plant_network.size
    if N * model.n > 256:
        raise BadParameter(
            f"full-spectrum feasibility needs N*n <= 256, got {N * model.n}")
    deadline = time.monotonic() + time_limit

    entries = _branch_entries(plant_network, symmetric)
    E = len(entries)
    rows, cols = np.array(entries, dtype=np.intp).reshape(E, 2).T
    per_entry = 2 if symmetric else 1  # objective counts directed entries

    # the last t entries are enumerated per batch, 2^t closed loops of
    # (N*n)^2 doubles each in about _BATCH_BYTES
    t = min(E, (_BATCH_BYTES // (8 * (N * model.n) ** 2)).bit_length() - 1)
    # completions in visiting order: all ones first, the last entry flipping first
    tails = (np.arange(2 ** t - 1, -1, -1)[:, None] >> np.arange(t - 1, -1, -1)) & 1
    tail_costs = per_entry * tails.sum(axis=1)
    tails = tails.astype(float)

    best_bits, best_cost, best_max_real = None, np.inf, np.inf

    # seed the incumbent with the complete feedback graph when it works
    complete = _link_stack(np.ones((1, E)), rows, cols, N, symmetric)
    max_real, stable = _verdicts(build_closed_loop(model, plant_network, complete).Ftilde)
    if stable[0]:
        best_bits, best_cost, best_max_real = np.ones(E), E * per_entry, float(max_real[0])

    timed_out = False
    # prefix[:depth - 1] holds a popped node's ancestors: the stack is LIFO
    prefix = np.zeros(E - t)
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]  # (depth, bit, committed)
    while stack:
        if time.monotonic() > deadline:
            timed_out = True
            break
        depth, bit, committed = stack.pop()
        if depth:
            prefix[depth - 1] = bit
        if committed >= best_cost:
            continue
        if depth < E - t:
            # the 1-branch pops first, so the search walks down from
            # link-rich (likely feasible) assignments and the incumbent keeps
            # improving even when the time limit cuts the search short
            stack.append((depth + 1, 0, committed))
            stack.append((depth + 1, 1, committed + per_entry))
            continue
        costs = committed + tail_costs
        keep = costs < best_cost
        costs = costs[keep]
        bits = np.concatenate((np.broadcast_to(prefix, (len(costs), E - t)), tails[keep]), axis=1)
        feedback = _link_stack(bits, rows, cols, N, symmetric)
        max_real, stable = _verdicts(build_closed_loop(model, plant_network, feedback).Ftilde)
        # accept in visiting order, exactly as leaf-by-leaf search would
        for k in np.flatnonzero(stable):
            if costs[k] < best_cost:
                best_bits, best_cost, best_max_real = bits[k], int(costs[k]), float(max_real[k])

    # a feasible complete graph seeds the incumbent, so none means it failed
    if best_bits is None:
        if timed_out:
            raise TimedOut(
                f"no feasible binary feedback found within {time_limit}s")
        raise Infeasible("no binary feedback network stabilizes the plant "
                         "network (even the complete feedback graph fails)")

    feedback = _link_stack(best_bits[None], rows, cols, N, symmetric)[0]
    return DesignResult(
        feedback=_frozen(feedback),
        mode_gains=None,
        frobenius_norm=float(np.linalg.norm(feedback, "fro")),
        method="binary",
        margin=0.0,
        verified=True,
        max_real_part=best_max_real,
        optimal=not timed_out,
    )


def norm_sweep(model: PlantModel, family: str, n_range,
               *, margin: float = 0.01, coupling: float = 1.0) -> list[SweepRow]:
    """Weighted vs matching feedback norms across network sizes.

    ``family`` is a network spec without its size: ``complete``,
    ``ring:k`` or ``er:p:seed``; ``n_range`` is an inclusive (low, high)
    pair.  A size whose weighted design is infeasible yields a NaN weighted
    norm and status ``infeasible`` instead of aborting; one whose design
    fails its spectral check keeps its norm with status ``unverified``.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo > hi:
        raise BadParameter(f"n_range must be (low, high) with low <= high, got {n_range}")
    kind, fields = _parse_spec(family, omit="N")

    rows = []
    for N in range(lo, hi + 1):
        network = make_network(kind, N, coupling=coupling, **fields)
        matching_norm = float(np.linalg.norm(network.adjacency, "fro"))  # A = B
        try:
            weighted = design_weighted(model, network, margin)
            rows.append(SweepRow(N, weighted.frobenius_norm, matching_norm,
                                 "ok" if weighted.verified else "unverified"))
        except Infeasible:
            rows.append(SweepRow(N, float("nan"), matching_norm, "infeasible"))
    return rows
