"""Master stability function: per-mode growth rate and stable intervals.

For a plant with closed-loop matrices (F, H, G), the function
``sigma(lam, mu)`` is the largest real part among the eigenvalues of
``F + lam*H + mu*G``.  A network mode with plant eigenvalue ``lam`` is
stabilized by any feedback eigenvalue ``mu`` with ``sigma(lam, mu) < 0``;
``stable_interval`` locates the negative-sigma interval on the real mu axis
nearest the origin, which is what the norm-minimal designer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadParameter, NoStableInterval, NumericalFailure
from .model import PlantModel

#: A pencil root counts as real when its imaginary part is at most this
#: fraction of max(1, |real part|).  Rounding splits a multiple real root
#: into a complex pair with imaginary part ~ sqrt(eps * cond); an extra cut
#: costs one sigma evaluation, a lost one can lose a boundary.
_NEAR_REAL = 1e-4


@dataclass(frozen=True)
class StableInterval:
    """Maximal interval of the real mu axis with sigma(lam, mu) < 0.

    A bounded side is a pencil root where sigma changes sign.  A side flagged
    unbounded reaches the search-range end with no pencil root before it;
    the range end is recorded as the bound, so unboundedness is relative to
    the searched range, not proven.
    """

    lam: complex
    lower: float
    upper: float
    bounded_lower: bool
    bounded_upper: bool

    def strictly_contains_zero(self) -> bool:
        return self.lower < 0.0 < self.upper


def sigma(model: PlantModel, lam: complex, mu: complex) -> float | np.ndarray:
    """Largest real part among the eigenvalues of F + lam*H + mu*G.

    Broadcasts over array ``lam`` and ``mu`` with one stacked eigensolve;
    scalars give a float."""
    try:
        eigenvalues = np.linalg.eigvals(_blocks(model, lam, mu))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue computation failed at "
                               f"lambda={lam}, mu={mu}: {exc}") from exc
    values = eigenvalues.real.max(axis=-1)
    return float(values) if values.ndim == 0 else values


def _blocks(model: PlantModel, lam, mu) -> np.ndarray:
    """F + lam*H + mu*G, stacked over the broadcast shape of lam and mu."""
    lam, mu = np.asarray(lam), np.asarray(mu)
    return model.F + lam[..., None, None] * model.H + mu[..., None, None] * model.G


def sigma_grid(model: PlantModel, lambda_range, mu_range, steps):
    """Evaluate sigma over a real (lambda, mu) rectangle.

    ``steps`` is an int applied to both axes or a (lambda_steps, mu_steps)
    pair; at least 2 per axis.  Returns ``(lams, mus, values)`` with
    ``values[i, j] = sigma(model, lams[i], mus[j])``.
    """
    lam_lo, lam_hi = _finite_range("lambda_range", lambda_range)
    mu_lo, mu_hi = _finite_range("mu_range", mu_range)
    if isinstance(steps, (tuple, list)):
        lam_steps, mu_steps = int(steps[0]), int(steps[1])
    else:
        lam_steps = mu_steps = int(steps)
    if lam_steps < 2 or mu_steps < 2:
        raise BadParameter(f"steps must be >= 2 per axis, got {steps}")

    lams = np.linspace(lam_lo, lam_hi, lam_steps)
    mus = np.linspace(mu_lo, mu_hi, mu_steps)
    return lams, mus, sigma(model, lams[:, None], mus[None, :])


def stable_interval(model: PlantModel, lam: complex,
                    search_range=(-50.0, 50.0)) -> StableInterval:
    """Negative-sigma interval on the real mu axis nearest the origin.

    sigma(lam, .) can change sign only where M(mu) = F + lam*H + mu*G has
    an eigenvalue at 0 or two eigenvalues summing to 0, i.e. at the real
    roots of the pencils (M0, -G) and (bialt(M0), -bialt(G)) with
    M0 = F + lam*H.  Those roots cut ``search_range`` into segments of
    constant sign; one sigma evaluation at each midpoint classifies a
    segment, adjacent stable segments merge, and the merged interval
    minimizing distance to mu = 0 is returned (ties resolved toward the
    negative side, then by lower endpoint).  Raises NoStableInterval when
    no segment is stable.
    """
    mu_lo, mu_hi = _finite_range("search_range", search_range)
    if not mu_lo < 0.0 < mu_hi:
        raise BadParameter(f"search_range must straddle 0, got {search_range}")

    roots = _sign_change_candidates(model, complex(lam))
    inside = roots[(roots > mu_lo) & (roots < mu_hi)]
    cuts = np.unique(np.concatenate(([mu_lo], inside, [mu_hi])))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    # sigma must clear the rounding error of its own eigensolve, so a
    # boundary grazing a range end cannot leave a stable sliver behind
    norms = np.linalg.norm(_blocks(model, lam, mids), 2, axis=(-2, -1))
    floor = model.n * np.finfo(float).eps * np.maximum(1.0, norms)
    stable = sigma(model, lam, mids) < -floor
    # a run of stable segments a..b-1 merges into [cuts[a], cuts[b]]
    edges = np.flatnonzero(np.diff(np.concatenate(([0], stable, [0])))).tolist()
    candidates = [StableInterval(lam, float(cuts[a]), float(cuts[b]),
                                 bounded_lower=a > 0, bounded_upper=b < len(stable))
                  for a, b in zip(edges[::2], edges[1::2])]
    if not candidates:
        raise NoStableInterval(
            f"sigma(lambda={lam}, mu) >= 0 over [{mu_lo}, {mu_hi}]; "
            f"consider enlarging the range")
    return min(candidates, key=_selection_key)


def _sign_change_candidates(model: PlantModel, lam: complex) -> np.ndarray:
    """Real parts of the real and near-real finite roots of both pencils."""
    M0 = model.F + lam.real * model.H
    G = model.G
    if lam.imag:
        # real embedding [[Re, -Im], [Im, Re]]: spectrum of M plus its
        # conjugate, so a lone eigenvalue on the imaginary axis shows up
        # as the pair sum lam_i + conj(lam_i) = 0
        shift = lam.imag * model.H
        M0 = np.block([[M0, -shift], [shift, M0]])
        G = np.kron(np.eye(2), G)
    try:
        roots = np.concatenate([
            scipy.linalg.eigvals(M0, -G),
            scipy.linalg.eigvals(_bialternate(M0), -_bialternate(G)),
        ])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"pencil eigenvalues failed at lambda={lam}: {exc}") from exc
    roots = roots[np.isfinite(roots)]
    near_real = np.abs(roots.imag) <= _NEAR_REAL * np.maximum(1.0, np.abs(roots.real))
    return roots.real[near_real]


def _bialternate(M: np.ndarray) -> np.ndarray:
    """M acting on antisymmetric tensors e_r ^ e_s (r < s).

    The projection of M (x) I + I (x) M onto the n(n-1)/2 antisymmetric
    pairs; its eigenvalues are lam_i + lam_j for i < j, and it is linear
    in M.
    """
    r, s = np.triu_indices(M.shape[0], 1)
    eye = np.eye(M.shape[0])
    return (M[np.ix_(r, r)] * eye[np.ix_(s, s)] + eye[np.ix_(r, r)] * M[np.ix_(s, s)]
            - M[np.ix_(r, s)] * eye[np.ix_(s, r)] - eye[np.ix_(r, s)] * M[np.ix_(s, r)])


def _finite_range(name: str, value) -> tuple[float, float]:
    try:
        lo, hi = float(value[0]), float(value[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise BadParameter(f"{name} must be a (low, high) pair, got {value!r}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise BadParameter(f"{name} must be finite with low < high, got {value!r}")
    return lo, hi


def _selection_key(interval: StableInterval):
    if interval.lower <= 0.0 <= interval.upper:
        return (0.0, 0, interval.lower)
    if interval.lower > 0.0:
        return (interval.lower, 1, interval.lower)
    return (-interval.upper, 0, interval.lower)

