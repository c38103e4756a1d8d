"""Map the stability function over the (lambda, mu) plane.

For the reference plant, a network mode with plant eigenvalue lambda and
feedback eigenvalue mu contributes the block F + lambda*H + mu*G to the
closed loop.  The surface sigma(lambda, mu) is the largest real part of
that block's spectrum: the closed loop is stable exactly when every mode
lands in the sigma < 0 region.  For this plant the boundary is the line
mu = lambda - 2, which the grid recovers numerically.
"""

from pathlib import Path

import numpy as np

import msfnet

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

model = msfnet.load_model_config(ROOT / "paper.cfg")
print("plant: F =", model.F.tolist(), " G =", model.G.tolist())

# sigma at a few landmark points: stable at the origin, marginal when the
# effective coupling lambda - mu reaches 2
for lam, mu in [(0.0, 0.0), (2.0, 0.0), (7.0, 5.0), (7.0, 0.0)]:
    print(f"  sigma({lam:4.1f}, {mu:4.1f}) = {msfnet.sigma(model, lam, mu):+.6f}")

steps = 101
lams, mus, grid = msfnet.sigma_grid(model, (-10.0, 10.0), (-10.0, 10.0), steps)

csv_path = OUT / "stability_surface.csv"
lines = ["lambda,mu,sigma"]
lines += [f"{lam},{mu},{value}" for lam, row in zip(lams.tolist(), grid.tolist())
          for mu, value in zip(mus.tolist(), row)]
csv_path.write_text("\n".join(lines) + "\n")
print(f"\nwrote {grid.size} samples to {csv_path}")

# locate the numerical zero crossing per row and compare with mu = lambda - 2
worst = 0.0
for lam, row in zip(lams, grid):
    nonneg = row >= 0.0
    if not nonneg.any() or nonneg.all():
        continue
    k = int(np.flatnonzero(nonneg[:-1] & ~nonneg[1:])[0])
    crossing = 0.5 * (mus[k] + mus[k + 1])
    worst = max(worst, abs(crossing - (lam - 2.0)))
print(f"zero crossing stays within {worst:.3f} of the line mu = lambda - 2 "
      f"(grid cell is {mus[1] - mus[0]:.1f})")

# the per-mode designer consumes the 1-D slices of this surface
for lam in (7.0, 4.0, -1.0):
    iv = msfnet.stable_interval(model, lam, (-50.0, 50.0))
    lo = f"{iv.lower:.6g}" + ("" if iv.bounded_lower else " (range end)")
    hi = f"{iv.upper:.6g}" + ("" if iv.bounded_upper else " (range end)")
    print(f"stable interval at lambda = {lam:4.1f}: [{lo}, {hi}]")
