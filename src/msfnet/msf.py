"""Master stability function: per-mode growth rate and stable intervals.

For a plant with closed-loop matrices (F, H, G), the function
``sigma(lam, mu)`` is the largest real part among the eigenvalues of
``F + lam*H + mu*G``.  A network mode with plant eigenvalue ``lam`` is
stabilized by any feedback eigenvalue ``mu`` with ``sigma(lam, mu) < 0``;
``stable_interval`` locates the negative-sigma interval on the real mu axis
nearest the origin, which is what the norm-minimal designer consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    A finite end is a pencil root where sigma changes sign; an infinite end
    means sigma stays negative all the way.  Beyond about 1/eps times the
    matrices' scale an end can be wrong either way: an infinite pencil
    eigenvalue can surface as a finite root that large (a subset of the
    true interval), and a true root that large can be lost (a superset).
    Design gains sit near the origin and are not affected.
    """

    lam: complex
    lower: float
    upper: float


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


def _term_floor(model: PlantModel, lam: complex, mu: np.ndarray) -> np.ndarray:
    """n*eps*max(1, ||F||_F + |lam| ||H||_F + |mu| ||G||_F): the rounding
    error of F + lam*H + mu*G taken from its terms, so it stays large when
    lam*H and mu*G cancel to a small block."""
    scale = (np.linalg.norm(model.F) + abs(lam) * np.linalg.norm(model.H)
             + np.abs(mu) * np.linalg.norm(model.G))
    return model.n * np.finfo(float).eps * np.maximum(1.0, scale)


def _rounding_floor(M: np.ndarray):
    """size*eps*max(1, ||M||_F) over the last two axes: M counts as stable only
    when its largest real part is below minus this.  ||M||_F >= ||M||_2, no SVD.
    Moduli are divided by max(1, largest |entry|) first, so squares cannot overflow,
    and worked on in place: a stack of closed loops gets one temporary copy."""
    magnitude = np.abs(M)
    scale = np.maximum(1.0, magnitude.max(axis=(-2, -1)))
    magnitude /= scale[..., None, None]
    magnitude *= magnitude
    norm = scale * np.sqrt(np.add.reduce(magnitude, axis=(-2, -1)))
    return M.shape[-1] * np.finfo(float).eps * np.maximum(1.0, norm)


def sigma_grid(model: PlantModel, lambda_range, mu_range, steps):
    """Evaluate sigma over a real (lambda, mu) rectangle.

    ``steps`` is the number of points per axis, at least 2.  Returns
    ``(lams, mus, values)`` with ``values[i, j] = sigma(model, lams[i], mus[j])``.
    A grid too large to store, or one whose range width or blocks overflow,
    raises BadParameter.
    """
    lam_lo, lam_hi = _finite_range("lambda_range", lambda_range)
    mu_lo, mu_hi = _finite_range("mu_range", mu_range)
    steps = int(steps)
    if steps < 2:
        raise BadParameter(f"steps must be >= 2 per axis, got {steps}")
    # each entry of F + lam*H + mu*G is monotone in lam and in mu, rounding
    # included, so the grid's largest entries sit at its corners
    with np.errstate(over="ignore", invalid="ignore"):
        corners = _blocks(model, np.array([[lam_lo], [lam_hi]]), np.array([mu_lo, mu_hi]))
    if not np.isfinite(corners).all():
        raise BadParameter("F + lambda*H + mu*G overflows at a corner of the grid")

    try:
        lams = np.linspace(lam_lo, lam_hi, steps)
        mus = np.linspace(mu_lo, mu_hi, steps)
        return lams, mus, sigma(model, lams[:, None], mus[None, :])
    except (MemoryError, ValueError) as exc:
        raise BadParameter(f"cannot store {steps}x{steps} blocks of {model.n} states; "
                           f"use fewer steps") from exc


# a term beyond the largest float becomes inf with no numpy warning (and nan
# where the bialternate multiplies it by 0): a pencil entry that overflows
# fails eigvals' finiteness check, and a point whose terms overflow is never stable
@np.errstate(over="ignore", invalid="ignore")
def stable_interval(model: PlantModel, lam: complex) -> StableInterval:
    """Negative-sigma interval on the real mu axis nearest the origin.

    sigma(lam, .) can change sign only where M(mu) = F + lam*H + mu*G has
    an eigenvalue at 0 or two eigenvalues summing to 0, i.e. at the real
    roots of the pencils (M0, -G) and (bialt(M0), -bialt(G)) with
    M0 = F + lam*H.  Those roots cut the whole real line into segments of
    constant sign, the outer two running to -inf and +inf.  One sigma
    evaluation per segment classifies it against the rounding floor of the
    terms of M(mu); one within that floor of zero decides nothing, and the
    segment gets a second evaluation a unit inside its finite end nearest
    the origin (or counts as unstable).  Adjacent stable segments merge,
    and the merged interval minimizing distance to mu = 0 is returned (ties
    resolved toward the negative side, then by lower endpoint).  A segment
    whose classifying point has terms beyond the largest float counts as
    unstable.  Raises NoStableInterval when no segment is stable, and
    BadParameter when |lam| or an entry of a pencil overflows.
    """
    if not np.isfinite(lam):
        raise BadParameter(f"lambda must be finite, got {lam}")
    z = complex(lam)
    if not math.isfinite(abs(z.real) + abs(z.imag)):  # abs(lam) would raise OverflowError
        raise BadParameter(f"lambda={lam} overflows: |Re| + |Im| exceeds the largest float")

    cuts = np.concatenate(([-np.inf], np.unique(_sign_change_candidates(model, z)), [np.inf]))
    lo, hi = cuts[:-1], cuts[1:]
    # classify at the interior point nearest the origin, kept well inside:
    # an infinite pencil eigenvalue can surface as a finite root near 1/eps,
    # and a midpoint out there would drown sigma in rounding error
    near = np.minimum(np.maximum(0.0, lo), hi)
    half = 0.5 * (hi - lo)
    step = np.minimum(half, np.maximum(1.0, np.abs(near)))
    points = np.minimum(np.maximum(near, lo + step), hi - step)
    # sigma must clear the rounding error of its own eigensolve, so a
    # boundary grazing a classifying point cannot leave a stable sliver behind
    floors = _term_floor(model, lam, points)
    values = _sigma_where_finite(model, lam, points, floors)
    stable = values < -floors
    # far from its finite ends sigma can shrink into the rounding error (at
    # |lam| ~ 1e9 it is ~ 5/(lam - mu) near the origin); such a segment gets
    # one more point, a unit inside its finite end nearest the origin, when
    # that end lies within the mode's own scale: an end near 1/eps may be a
    # spurious root, and noise beside it can look stable
    redo = np.abs(values) <= floors
    if redo.any():
        from_lo = np.abs(lo) <= np.abs(hi)
        end = np.where(from_lo, lo, hi)
        norm_G = np.linalg.norm(model.G)
        limit = (1e3 * (np.linalg.norm(model.F) + abs(lam) * np.linalg.norm(model.H)) / norm_G
                 if norm_G else np.inf)
        redo &= np.isfinite(end) & (np.abs(end) <= limit)
        retry = (end + np.where(from_lo, 1.0, -1.0) * np.minimum(1.0, half))[redo]
        retry_floors = _term_floor(model, lam, retry)
        stable[redo] = _sigma_where_finite(model, lam, retry, retry_floors) < -retry_floors
    # a run of stable segments a..b-1 merges into [cuts[a], cuts[b]]
    edges = np.flatnonzero(np.diff(np.concatenate(([0], stable, [0])))).tolist()
    candidates = [StableInterval(lam, float(cuts[a]), float(cuts[b]))
                  for a, b in zip(edges[::2], edges[1::2])]
    if not candidates:
        raise NoStableInterval(f"sigma(lambda={lam}, mu) >= 0 for every real mu")
    return min(candidates, key=_selection_key)


def _sigma_where_finite(model: PlantModel, lam: complex, points: np.ndarray,
                        floors: np.ndarray) -> np.ndarray:
    """sigma at the points whose term floor is finite, nan at the others: a
    point whose terms overflow cannot be classified, so it is never stable."""
    values = np.full(points.shape, np.nan)
    finite = np.isfinite(floors)
    values[finite] = sigma(model, lam, points[finite])
    return values


def _sign_change_candidates(model: PlantModel, lam: complex) -> np.ndarray:
    """Real parts of the real and near-real finite roots of both pencils.
    Raises BadParameter when an entry of a pencil overflows."""
    import scipy.linalg
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
    except ValueError as exc:
        raise BadParameter(f"lambda={lam} overflows the pencil F + lambda*H") from exc
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
    if not math.isfinite(hi - lo) or lo >= hi:  # hi - lo is inf when the width overflows
        raise BadParameter(f"{name} must be finite with low < high and a width high - low "
                           f"that does not overflow, got {value!r}")
    return lo, hi


def _selection_key(interval: StableInterval):
    if interval.lower <= 0.0 <= interval.upper:
        return (0.0, 0, interval.lower)
    if interval.lower > 0.0:
        return (interval.lower, 1, interval.lower)
    return (-interval.upper, 0, interval.lower)

