"""Independent checks of closed-loop network stability.

The full network dynamics are ``dx/dt = Ftilde x`` with
``Ftilde = I_N (x) F + B (x) H + A (x) G`` ((x) is the Kronecker product;
adjacency entry (i, j) couples node j into node i).  This module builds
that matrix directly and checks designs three independent ways: the full
eigenvalue spectrum, the block spectrum-union identity available when A and
B share a triangularizing basis, and time-domain simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, DimensionMismatch, Infeasible, NoStableInterval, NumericalFailure, TimedOut
from .graphs import Network, _parse_spec, custom_network, make_network, spectrum
from .model import PlantModel
from .msf import _blocks, _rounding_floor

#: Trajectory norm beyond which simulation stops and reports divergence.
DIVERGENCE_LIMIT = 1e12


def _adjacency(network) -> np.ndarray:
    if isinstance(network, Network):
        return network.adjacency
    a = np.asarray(network, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"adjacency must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Stacked closed-loop matrix for N coupled plants of state size n."""

    Ftilde: np.ndarray
    N: int
    n: int


@dataclass(frozen=True)
class SimulationResult:
    """Sample times ``t`` (steps,) and states ``x`` (steps, N*n); x[k] is at t[k]."""

    t: np.ndarray
    x: np.ndarray
    diverged: bool


class Verdict(NamedTuple):
    max_real_part: float
    stable: bool


@dataclass(frozen=True)
class StabilityProbability:
    """Monte Carlo estimate with a 95% Wilson score interval."""

    fraction: float
    ci_low: float
    ci_high: float
    trials: int
    stable_count: int


def build_closed_loop(model: PlantModel, plant_network, feedback_network) -> ClosedLoopSystem:
    """Assemble Ftilde = I (x) F + B (x) H + A (x) G.

    The feedback may be a stack (..., N, N); Ftilde is then the matching
    stack (..., N*n, N*n).  The plant network is one N x N matrix."""
    B = _adjacency(plant_network)
    A = _adjacency(feedback_network)
    N = B.shape[0]
    if B.ndim != 2 or A.shape[-2:] != B.shape:
        raise DimensionMismatch(
            f"feedback network {A.shape} does not match plant network {B.shape}")
    Ftilde = (np.kron(np.eye(N), model.F)
              + np.kron(B, model.H)
              + np.kron(A, model.G))
    Ftilde.flags.writeable = False
    return ClosedLoopSystem(Ftilde=Ftilde, N=N, n=model.n)


def spectral_verdict(system: ClosedLoopSystem) -> Verdict:
    """Maximum real part over the full spectrum; stable iff below minus its rounding floor."""
    max_real, stable = _verdicts(system.Ftilde[None])
    return Verdict(float(max_real[0]), bool(stable[0]))


def _verdicts(Ftilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_verdict``'s rule over a stack (k, m, m): one eigensolve,
    then each matrix's maximum real part and whether it is stable."""
    try:
        eigenvalues = np.linalg.eigvals(Ftilde)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"closed-loop eigenvalues failed: {exc}") from exc
    max_real = eigenvalues.real.max(axis=-1)
    stable = max_real < 0.0
    # the norm is needed only when some maximum real part is negative
    if stable.any():
        stable &= max_real < -_rounding_floor(Ftilde)
    return max_real, stable


def spectrum_union_check(model: PlantModel, plant_network, mode_gains) -> float:
    """Deviation between the closed-loop spectrum and the union of per-mode
    block spectra, for a feedback built in the plant network's own basis.

    Builds A = Q diag(mode_gains) Q^T in the plant network's real Schur
    basis, then greedily pairs the N*n closed-loop eigenvalues with the
    union over i of the eigenvalues of F + lambda_i H + mu_i G and returns
    the largest pair distance.  Gains that are complex or differ within a
    2x2 Schur block (one conjugate pair) raise BadParameter: that A would
    not be block triangular with B.
    """
    B = _adjacency(plant_network)
    decomposition = spectrum(plant_network if isinstance(plant_network, Network)
                             else custom_network(B))
    mu = np.asarray(mode_gains).ravel()
    if mu.shape[0] != B.shape[0]:
        raise DimensionMismatch(
            f"mode_gains has length {mu.shape[0]}, expected {B.shape[0]}")
    pairs = np.flatnonzero(np.diag(decomposition.T, -1))
    if np.iscomplexobj(mu) or np.any(mu[pairs] != mu[pairs + 1]):
        raise BadParameter("mode_gains must be real and equal on each conjugate pair")

    Q = decomposition.Q
    system = build_closed_loop(model, B, Q @ np.diag(mu) @ Q.T)
    try:
        full = np.linalg.eigvals(system.Ftilde)
        blocks = np.linalg.eigvals(_blocks(model, decomposition.eigenvalues, mu)).ravel()
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"spectrum union eigenvalues failed: {exc}") from exc
    return _greedy_match_distance(full, blocks)


def _greedy_match_distance(left: np.ndarray, right: np.ndarray) -> float:
    # deterministic greedy pairing: largest (re, im) first, nearest remaining
    order = np.lexsort((-left.imag, -left.real))
    remaining = right.copy()
    alive = np.ones(len(remaining), dtype=bool)
    worst = 0.0
    for idx in order:
        distances = np.abs(remaining - left[idx])
        distances[~alive] = np.inf
        k = int(np.argmin(distances))
        worst = max(worst, float(distances[k]))
        alive[k] = False
    return worst


def default_time_step(system: ClosedLoopSystem) -> float:
    """1e-3 over the spectral radius (floored at 1)."""
    radius = float(np.max(np.abs(np.linalg.eigvals(system.Ftilde))))
    return 1e-3 / max(1.0, radius)


def simulate(system: ClosedLoopSystem, x0, t_end: float,
             dt: float | None = None) -> SimulationResult:
    """Trajectory of dx/dt = Ftilde x sampled every ``dt`` by expm(dt * Ftilde).

    The trajectory stops early, with ``diverged`` set, once the state norm
    exceeds 1e12; that is evidence of instability, not an error.  A non-finite
    ``x0`` or a step count too large to preallocate raises BadParameter.
    """
    x = np.asarray(x0, dtype=np.float64).ravel()
    size = system.N * system.n
    if x.shape[0] != size:
        raise DimensionMismatch(f"x0 has length {x.shape[0]}, expected {size}")
    if not np.all(np.isfinite(x)):
        raise BadParameter("x0 must be finite")
    if dt is None:
        dt = default_time_step(system)
    if not 0.0 < dt < t_end < np.inf:
        raise BadParameter(f"need finite 0 < dt < t_end, got dt={dt}, t_end={t_end}")

    import scipy.linalg
    propagator = scipy.linalg.expm(dt * system.Ftilde)
    try:
        n_steps = int(math.floor(t_end / dt + 1e-9))
        trajectory = np.empty((n_steps + 1, size))
    except (MemoryError, ValueError, OverflowError) as exc:
        raise BadParameter(f"cannot store {t_end / dt:.3g} steps of {size} states; "
                           f"use a larger dt or a shorter t_end") from exc
    trajectory[0] = x
    diverged = False
    for k in range(1, n_steps + 1):
        trajectory[k] = x = propagator @ x
        if float(np.linalg.norm(x)) > DIVERGENCE_LIMIT:
            diverged = True
            break
    return SimulationResult(t=np.arange(k + 1) * dt, x=trajectory[:k + 1], diverged=diverged)


def stability_probability(model: PlantModel, family: str, trials: int,
                          design_method="weighted", *, seed: int,
                          margin: float = 0.01) -> StabilityProbability:
    """Fraction of random plant networks the designer stabilizes.

    Samples ``trials`` random networks from ``family``, a network spec
    without its seed (``er:N:p``), with per-trial seeds ``seed + trial``
    (``seed`` >= 0), runs the designer and counts the trials whose design
    exists and verifies stable.  A trial whose designer raises Infeasible,
    NoStableInterval, NumericalFailure or TimedOut (a search that found
    nothing in time) counts against the fraction.
    ``design_method`` is ``weighted``/``binary``/``matching`` or a callable
    ``(model, network) -> DesignResult``.
    """
    if trials < 1:
        raise BadParameter(f"trials must be >= 1, got {trials}")
    kind, fields = _parse_spec(family, omit="seed")
    designer = _resolve_designer(design_method, margin)

    stable_count = 0
    for trial in range(trials):
        network = make_network(kind, seed=seed + trial, **fields)
        try:
            stable_count += bool(designer(model, network).verified)
        except (Infeasible, NoStableInterval, NumericalFailure, TimedOut):
            pass
    return StabilityProbability(
        fraction=stable_count / trials,
        # the upper end mirrors the lower end of the failure count, so a
        # fraction of 0 or 1 gets an end of exactly 0 or 1
        ci_low=_wilson_lower(stable_count, trials),
        ci_high=1.0 - _wilson_lower(trials - stable_count, trials),
        trials=trials,
        stable_count=stable_count,
    )


def _wilson_lower(successes: int, trials: int) -> float:
    """Lower end of the 95% Wilson score interval (Wilson 1927), clipped at 0."""
    z2 = 1.96 ** 2
    spread = math.sqrt(z2 * successes * (trials - successes) / trials + z2 * z2 / 4.0)
    return max(0.0, (successes + z2 / 2.0 - spread) / (trials + z2))


def _resolve_designer(design_method, margin: float):
    if callable(design_method):
        return design_method
    from . import design as design_module

    if design_method == "weighted":
        return lambda model, network: design_module.design_weighted(model, network, margin)
    if design_method == "binary":
        return lambda model, network: design_module.design_binary(model, network)
    if design_method == "matching":
        return lambda model, network: design_module.design_matching(model, network)
    raise BadParameter(f"unknown design method {design_method!r}")
