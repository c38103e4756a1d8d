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
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, DimensionMismatch, Infeasible, NoStableInterval, NumericalFailure, TimedOut
from .graphs import Network, _parse_spec, custom_network, make_network, spectrum
from .model import PlantModel
from .msf import _blocks, _rounding_floor

#: Trajectory norm beyond which simulation stops and reports divergence.
DIVERGENCE_LIMIT = 1e12
_SAMPLE_INTERVALS = 1000  # simulate's default: equal intervals over [0, t_end]
# Higham 2005, Table 2.3: the [m/m] Pade approximant of exp is accurate to
# double precision while ||A||_1 <= theta_m
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 5.371920351148152e0}


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


def _expm(a: np.ndarray) -> np.ndarray:
    """expm(a) by scaling and squaring with the lowest Pade degree that is
    accurate at ||a||_1 (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
    A non-finite norm gives a non-finite result; callers treat it as overflow."""
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        return np.full_like(a, np.nan)
    for m, theta in _THETA.items():
        if norm <= theta:
            break
    squarings = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    a = np.ldexp(a, -squarings)
    b = [math.factorial(2 * m - k) // (math.factorial(k) * math.factorial(m - k))
         for k in range(m + 1)]  # b_k = (2m - k)! / (k! (m - k)!), so b_m = 1
    powers = [np.eye(len(a)), a @ a]  # I, a^2, a^4, ...: to a^(m-1), or a^6 for m = 13
    while len(powers) < (4 if m == 13 else (m + 1) // 2):
        powers.append(powers[-1] @ powers[1])
    odd, even = (sum(c * p for c, p in zip(half, powers)) for half in (b[1::2], b[::2]))
    if m == 13:  # the terms beyond a^6, by Horner in a^6
        odd = odd + powers[3] @ sum(c * p for c, p in zip(b[9::2], powers[1:]))
        even = even + powers[3] @ sum(c * p for c, p in zip(b[8::2], powers[1:]))
    odd = a @ odd
    # I + 2 (V - U)^-1 U equals (V - U)^-1 (V + U), but solving for the part
    # beside I alone keeps a product of many short steps as accurate as scipy's
    result = powers[0] + np.linalg.solve(even - odd, 2.0 * odd)
    for _ in range(squarings):
        result = result @ result
    return result


def _free_memory() -> float:
    """Free physical memory in bytes, or inf where the system does not say."""
    try:
        pages, page_size = os.sysconf("SC_AVPHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return math.inf
    return pages * page_size if pages > 0 and page_size > 0 else math.inf


def simulate(system: ClosedLoopSystem, x0, t_end: float,
             dt: float | None = None) -> SimulationResult:
    """Trajectory of dx/dt = Ftilde x sampled every ``dt`` (default t_end / 1000)
    by expm(dt * Ftilde), which numpy scaling and squaring computes once: each
    sample is the exact flow of the last, to rounding.

    The trajectory stops early, with ``diverged`` set, once the state norm
    exceeds 1e12 or the propagator or a step overflows (that step is dropped);
    that is evidence of instability, not an error.  A non-finite ``x0``, or a
    trajectory larger than the free physical memory, raises BadParameter.
    """
    x = np.asarray(x0, dtype=np.float64).ravel()
    size = system.N * system.n
    if x.shape[0] != size:
        raise DimensionMismatch(f"x0 has length {x.shape[0]}, expected {size}")
    if not np.all(np.isfinite(x)):
        raise BadParameter("x0 must be finite")
    t_max = t_end if dt is None else np.inf  # 1000 * (t_end / 1000) can pass t_end
    dt = t_end / _SAMPLE_INTERVALS if dt is None else dt
    if not 0.0 < dt < t_end < np.inf:
        raise BadParameter(f"need finite 0 < dt < t_end, got dt={dt}, t_end={t_end}")

    try:
        n_steps = int(math.floor(t_end / dt + 1e-9))
        if (n_steps + 1) * size * 8 > _free_memory():  # overcommit would not fail here
            raise MemoryError("more than the free physical memory")
        trajectory = np.empty((n_steps + 1, size))
    except (MemoryError, ValueError, OverflowError) as exc:
        raise BadParameter(f"cannot store {t_end / dt:.3g} steps of {size} states; "
                           f"use a larger dt or a shorter t_end") from exc
    trajectory[0] = x
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is divergence
        propagator = _expm(dt * system.Ftilde)
        k, diverged = 0, not np.isfinite(propagator).all()
        while k < n_steps and not diverged:
            k += 1
            trajectory[k] = x = propagator @ x
            diverged = not np.linalg.norm(x) <= DIVERGENCE_LIMIT
    k -= not np.isfinite(x).all()  # drop a step that overflowed
    return SimulationResult(t=np.minimum(np.arange(k + 1) * dt, t_max),
                            x=trajectory[:k + 1], diverged=diverged)


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
