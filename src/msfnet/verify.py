"""Independent checks of closed-loop network stability.

The full network dynamics are ``dx/dt = Ftilde x`` with
``Ftilde = I_N (x) F + B (x) H + A (x) G`` ((x) is the Kronecker product;
adjacency entry (i, j) couples node j into node i).  This module builds
that matrix directly and checks designs three independent ways: the full
eigenvalue spectrum, the block spectrum-union identity available when A and
B share a triangularizing basis, and time-domain integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, DimensionMismatch, Infeasible, NoStableInterval, NumericalFailure
from .graphs import Network, custom_network, make_network, spectrum
from .model import PlantModel
from .msf import _blocks

#: Trajectory norm beyond which integration stops and reports divergence.
DIVERGENCE_LIMIT = 1e12


def _adjacency(network) -> np.ndarray:
    if isinstance(network, Network):
        return network.adjacency
    a = np.asarray(network)
    if not np.iscomplexobj(a):
        a = a.astype(np.float64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
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
    """Assemble Ftilde = I (x) F + B (x) H + A (x) G."""
    B = _adjacency(plant_network)
    A = _adjacency(feedback_network)
    N = B.shape[0]
    if A.shape != (N, N):
        raise DimensionMismatch(
            f"feedback network {A.shape} does not match plant network {B.shape}")
    Ftilde = (np.kron(np.eye(N), model.F)
              + np.kron(B, model.H)
              + np.kron(A, model.G))
    Ftilde.flags.writeable = False
    return ClosedLoopSystem(Ftilde=Ftilde, N=N, n=model.n)


def spectral_verdict(system: ClosedLoopSystem) -> Verdict:
    """Maximum real part over the full spectrum; stable iff strictly negative."""
    try:
        eigenvalues = np.linalg.eigvals(system.Ftilde)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"closed-loop eigenvalues failed: {exc}") from exc
    max_real = float(np.max(eigenvalues.real))
    return Verdict(max_real_part=max_real, stable=max_real < 0.0)


def spectrum_union_check(model: PlantModel, plant_network, mode_gains) -> float:
    """Deviation between the closed-loop spectrum and the union of per-mode
    block spectra, for a feedback built in the plant network's own basis.

    Builds A = Q diag(mode_gains) Q* from the plant network's decomposition
    (so joint triangularizability holds by construction), then greedily
    pairs the N*n closed-loop eigenvalues with the union over i of the
    eigenvalues of F + lambda_i H + mu_i G and returns the largest pair
    distance.
    """
    B = _adjacency(plant_network)
    decomposition = spectrum(plant_network if isinstance(plant_network, Network)
                             else custom_network(B))
    mu = np.asarray(mode_gains, dtype=np.complex128).ravel()
    if mu.shape[0] != B.shape[0]:
        raise DimensionMismatch(
            f"mode_gains has length {mu.shape[0]}, expected {B.shape[0]}")

    Q = decomposition.Q.astype(np.complex128)
    system = build_closed_loop(model, B, Q @ np.diag(mu) @ Q.conj().T)
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


def _rk4_propagator(M: np.ndarray, h: float) -> np.ndarray:
    # one classical RK4 step of dx/dt = M x collapses to a constant matrix
    eye = np.eye(M.shape[0])
    M2 = M @ M
    M3 = M2 @ M
    M4 = M3 @ M
    return eye + h * M + (h * h / 2.0) * M2 + (h ** 3 / 6.0) * M3 + (h ** 4 / 24.0) * M4


def default_time_step(system: ClosedLoopSystem) -> float:
    """1e-3 over the spectral radius (floored at 1)."""
    radius = float(np.max(np.abs(np.linalg.eigvals(system.Ftilde))))
    return 1e-3 / max(1.0, radius)


def simulate(system: ClosedLoopSystem, x0, t_end: float,
             dt: float | None = None) -> SimulationResult:
    """Fixed-step classical RK4 trajectory of dx/dt = Ftilde x.

    Integration stops early, with ``diverged`` set, once the state norm
    exceeds 1e12; that is evidence of instability, not an error.
    """
    x = np.asarray(x0, dtype=np.float64).ravel()
    size = system.N * system.n
    if x.shape[0] != size:
        raise DimensionMismatch(f"x0 has length {x.shape[0]}, expected {size}")
    if dt is None:
        dt = default_time_step(system)
    if dt <= 0.0 or t_end <= dt:
        raise BadParameter(f"need 0 < dt < t_end, got dt={dt}, t_end={t_end}")

    propagator = _rk4_propagator(system.Ftilde, dt)
    n_steps = int(math.floor(t_end / dt + 1e-9))
    trajectory = np.empty((n_steps + 1, size), dtype=np.result_type(propagator, x))
    trajectory[0] = x
    diverged = False
    for k in range(1, n_steps + 1):
        trajectory[k] = x = propagator @ x
        if float(np.linalg.norm(x)) > DIVERGENCE_LIMIT:
            diverged = True
            break
    return SimulationResult(t=np.arange(k + 1) * dt, x=trajectory[:k + 1], diverged=diverged)


def _parse_er_family(family: str) -> tuple[int, float]:
    parts = family.split(":")
    if len(parts) != 3 or parts[0] != "er":
        raise BadParameter(f"family must be 'er:N:p', got {family!r}")
    try:
        N, p = int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise BadParameter(f"family must be 'er:N:p', got {family!r}") from exc
    if N < 2 or not 0.0 <= p <= 1.0:
        raise BadParameter(f"family needs N >= 2 and p in [0, 1], got {family!r}")
    return N, p


def stability_probability(model: PlantModel, family: str, trials: int,
                          design_method="weighted", *, seed: int,
                          search_range=(-50.0, 50.0),
                          margin: float = 0.01) -> StabilityProbability:
    """Fraction of random plant networks the designer stabilizes.

    Samples ``trials`` Erdos-Renyi networks (``family`` = ``er:N:p``) with
    per-trial seeds ``seed + trial``, runs the designer and counts the
    trials whose design exists and verifies stable.  Per-trial failures
    (infeasible, no stable interval) count against the fraction.
    ``design_method`` is ``weighted``/``binary``/``matching`` or a callable
    ``(model, network) -> DesignResult``.
    """
    if trials < 1:
        raise BadParameter(f"trials must be >= 1, got {trials}")
    N, p = _parse_er_family(family)
    designer = _resolve_designer(design_method, search_range=search_range,
                                 margin=margin)

    stable_count = 0
    for trial in range(trials):
        network = make_network("er", N, p=p, seed=seed + trial)
        try:
            stable_count += bool(designer(model, network).verified)
        except (Infeasible, NoStableInterval, NumericalFailure):
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


def _resolve_designer(design_method, **kwargs):
    if callable(design_method):
        return design_method
    from . import design as design_module

    if design_method == "weighted":
        return lambda model, network: design_module.design_weighted(
            model, network, search_range=kwargs["search_range"],
            margin=kwargs["margin"])
    if design_method == "binary":
        return lambda model, network: design_module.design_binary(model, network)
    if design_method == "matching":
        return lambda model, network: design_module.design_matching(model, network)
    raise BadParameter(f"unknown design method {design_method!r}")
