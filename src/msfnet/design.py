"""Feedback network synthesis.

Three designers share one result type:

* ``design_weighted`` — per-mode minimal gains in the plant network's own
  eigenbasis.  Because the feedback shares that basis, the closed-loop
  spectrum splits into per-mode blocks and the squared Frobenius norm of
  the feedback equals the sum of squared mode gains, so minimizing each
  ``|mu_i|`` inside its stable interval minimizes the network norm.
* ``design_binary`` — exact branch and bound over binary link variables,
  minimizing the link count with a direct full-spectrum feasibility test.
* ``design_matching`` — the classical baseline that replicates the plant
  network (A = B) with the loop gain refit by least squares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, Infeasible, NoStableInterval, NonNormalNetwork, NumericalFailure, TimedOut
from .graphs import Network, make_network, spectrum
from .model import PlantModel, _frozen, matching_gain
from .msf import StableInterval, stable_interval
from .verify import build_closed_loop, spectral_verdict

_NORMALITY_TOL = 1e-8

#: Strictness guard for the binary feasibility test: spectra this close to
#: the imaginary axis are rounding away from a boundary case and rejected.
_FEASIBILITY_MARGIN = 1e-9


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


def _require_normal(network: Network) -> None:
    a = network.adjacency
    scale = max(1.0, float(np.linalg.norm(a, "fro")))
    if np.linalg.norm(a - a.T, "fro") <= _NORMALITY_TOL * scale:
        return
    gram_gap = np.linalg.norm(a @ a.T - a.T @ a, "fro")
    if gram_gap > _NORMALITY_TOL * scale * scale:
        raise NonNormalNetwork(
            "plant network is neither symmetric nor normal "
            f"(||AA^T - A^TA||_F = {gram_gap:.3e}); the joint-eigenbasis "
            "construction does not apply")


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
                    search_range=(-50.0, 50.0), margin: float = 0.01) -> DesignResult:
    """Frobenius-minimal weighted feedback network.

    Decomposes the plant network as Q diag(lambda) Q*, finds each mode's
    stable interval, picks the minimal-magnitude gain ``margin`` inside it,
    and assembles the feedback as Q diag(mu) Q*.  Requires a symmetric (or
    normal) plant network; raises Infeasible listing the modes that have no
    stable interval in range.
    """
    if not 0.0 < margin < np.inf:
        raise BadParameter(f"margin must be positive and finite, got {margin}")
    _require_normal(plant_network)

    decomposition = spectrum(plant_network)
    eigenvalues = decomposition.eigenvalues

    intervals: list[StableInterval | None] = []
    failed: list[tuple[int, complex]] = []
    cache: dict[tuple[float, float], StableInterval] = {}
    for index, lam in enumerate(eigenvalues):
        key = (round(float(lam.real), 12), round(float(lam.imag), 12))
        try:
            if key not in cache:
                cache[key] = stable_interval(model, complex(lam), search_range)
            intervals.append(cache[key])
        except NoStableInterval:
            intervals.append(None)
            failed.append((index, complex(lam)))
    if failed:
        described = ", ".join(f"lambda_{i + 1}={lam}" for i, lam in failed)
        raise Infeasible(
            f"no stable interval in {search_range} for mode(s) {described}",
            failed_modes=failed)

    mode_gains = np.array([_pick_mode_gain(iv, margin) for iv in intervals])

    Q = decomposition.Q
    feedback = Q @ np.diag(mode_gains.astype(Q.dtype)) @ Q.conj().T
    if np.iscomplexobj(feedback):
        residue = float(np.linalg.norm(feedback.imag, "fro"))
        if residue > 1e-8 * max(1.0, np.linalg.norm(feedback, "fro")):
            raise NumericalFailure(
                f"feedback has imaginary residue {residue:.3e}; plant "
                "network modes are not conjugate-paired")
        feedback = feedback.real

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

    mode_gains = spectrum(plant_network).eigenvalues
    if np.max(np.abs(mode_gains.imag)) <= 1e-12:
        mode_gains = mode_gains.real

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


def design_binary(model: PlantModel, plant_network: Network,
                  symmetric: bool = True,
                  time_limit: float = 60.0) -> DesignResult:
    """Minimal-link binary feedback network by branch and bound.

    Searches the off-diagonal binary entries (upper triangle mirrored when
    ``symmetric``), minimizing the number of ones.  A complete assignment
    is feasible iff the full closed-loop spectrum lies strictly in the left
    half plane (with a 1e-9 guard so boundary spectra rounded across zero
    are not accepted); partial assignments are pruned once their committed
    link count reaches the incumbent.  Returns the incumbent with
    ``optimal=False`` if the time limit expires first.
    """
    if not 0.0 < time_limit < np.inf:
        raise BadParameter(f"time_limit must be positive and finite, got {time_limit}")
    N = plant_network.size
    if N * model.n > 256:
        raise BadParameter(
            f"full-spectrum feasibility needs N*n <= 256, got {N * model.n}")
    deadline = time.monotonic() + time_limit

    entries = _branch_entries(plant_network, symmetric)
    per_entry = 2 if symmetric else 1  # objective counts directed entries

    def assemble(values: list[int]) -> np.ndarray:
        A = np.zeros((N, N))
        for (i, j), v in zip(entries, values):
            if v:
                A[i, j] = 1.0
                if symmetric:
                    A[j, i] = 1.0
        return A

    def feasible(A: np.ndarray) -> tuple[bool, float]:
        verdict = spectral_verdict(build_closed_loop(model, plant_network, A))
        return verdict.max_real_part < -_FEASIBILITY_MARGIN, verdict.max_real_part

    best_values: list[int] | None = None
    best_cost = np.inf
    best_max_real = np.inf

    # seed the incumbent with the complete feedback graph when it works
    complete = [1] * len(entries)
    ok, max_real = feasible(assemble(complete))
    complete_feasible = ok
    if ok:
        best_values, best_cost, best_max_real = complete, len(entries) * per_entry, max_real

    timed_out = False
    stack: list[tuple[int, list[int], int]] = [(0, [], 0)]
    while stack:
        if time.monotonic() > deadline:
            timed_out = True
            break
        depth, values, committed = stack.pop()
        if committed >= best_cost:
            continue
        if depth == len(entries):
            ok, max_real = feasible(assemble(values))
            if ok and committed < best_cost:
                best_values, best_cost, best_max_real = values, committed, max_real
            continue
        # LIFO stack: the 1-branch pops first, so the search walks down from
        # link-rich (likely feasible) assignments and the incumbent keeps
        # improving even when the time limit cuts the search short
        stack.append((depth + 1, values + [0], committed))
        stack.append((depth + 1, values + [1], committed + per_entry))

    if best_values is None:
        if timed_out:
            raise TimedOut(
                f"no feasible binary feedback found within {time_limit}s")
        detail = ("even the complete feedback graph fails"
                  if not complete_feasible else "search exhausted")
        raise Infeasible(f"no binary feedback network stabilizes the plant "
                         f"network ({detail})")

    feedback = assemble(best_values)
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
               *, margin: float = 0.01, search_range=(-50.0, 50.0),
               coupling: float = 1.0) -> list[SweepRow]:
    """Weighted vs matching feedback norms across network sizes.

    ``family`` is ``complete`` or ``ring:k``; ``n_range`` is an inclusive
    (low, high) pair.  A size whose weighted design is infeasible yields a
    NaN weighted norm and status ``infeasible`` instead of aborting.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo > hi:
        raise BadParameter(f"n_range must be (low, high) with low <= high, got {n_range}")
    if family == "complete":
        build = lambda N: make_network("complete", N, coupling=coupling)
    elif family.startswith("ring:") and family.count(":") == 1:
        try:
            k = int(family.split(":")[1])
        except ValueError as exc:
            raise BadParameter(f"family must be 'complete' or 'ring:k', "
                               f"got {family!r}") from exc
        build = lambda N: make_network("ring", N, k=k, coupling=coupling)
    else:
        raise BadParameter(f"family must be 'complete' or 'ring:k', got {family!r}")

    rows = []
    for N in range(lo, hi + 1):
        network = build(N)
        matching_norm = design_matching(model, network).frobenius_norm
        try:
            weighted = design_weighted(model, network, search_range, margin)
            rows.append(SweepRow(N, weighted.frobenius_norm, matching_norm, "ok"))
        except Infeasible:
            rows.append(SweepRow(N, float("nan"), matching_norm, "infeasible"))
    return rows
