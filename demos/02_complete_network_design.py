"""Design feedback for eight all-to-all coupled plants, three ways.

The complete plant network has eigenvalues {7, -1 x7}; only the lambda = 7
mode is destabilizing (it needs mu > 5).  The weighted designer therefore
spends all of its Frobenius budget on that single mode and lands at norm
5.01, against sqrt(56) = 7.483 for the replicate-the-plant-network
baseline and a sparse binary alternative.
"""

from pathlib import Path

import numpy as np

import msfnet

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

model = msfnet.load_model_config(ROOT / "paper.cfg")
network = msfnet.make_network("complete", 8)
print("plant network: complete, N = 8, ||B||_F =", f"{np.linalg.norm(network.adjacency):.4f}")

# --- weighted: one gain per plant-network mode --------------------------
weighted = msfnet.design_weighted(model, network, (-50.0, 50.0), margin=0.01)
print("\nweighted design")
print("  mode gains:", np.round(weighted.mode_gains, 6).tolist())
print(f"  ||A||_F = {weighted.frobenius_norm:.6f}")
print(f"  verified stable, max Re = {weighted.max_real_part:.6f}")
print("  A is rank-one on the dominant mode; its diagonal entries "
      f"(trace {np.trace(weighted.feedback):.4f}) act as per-node local gain trims")
(OUT / "complete8_weighted.csv").write_text(
    msfnet.adjacency_csv_text(weighted.feedback))

# --- matching baseline: replicate the plant network ---------------------
matching = msfnet.design_matching(model, network)
print("\nmatching baseline (A = B)")
print(f"  ||A||_F = {matching.frobenius_norm:.6f}  (= sqrt(56))")
print(f"  loop gain refit residual ||R L - H||_F = {matching.matching_residual:.1e}")
print(f"  verdict with the refit gain: stable = {matching.verified} "
      f"(max Re = {matching.max_real_part:.3f})")
# The refit gain solves R L = +H, so replication doubles the coupling and
# fails here.  The configured model instead carries L = -[1 0], i.e.
# R L = -H: with that sign the replicated network cancels the coupling
# entirely, which is the classical reason to replicate in the first place.
cancel = msfnet.spectral_verdict(
    msfnet.build_closed_loop(model, network, network.adjacency))
print(f"  verdict with the configured gain (R L = -H): stable = {cancel.stable} "
      f"(max Re = {cancel.max_real_part:.3f})")

# --- binary: fewest links that stabilize --------------------------------
# exact optimum on five nodes (2^10 candidates, proven in milliseconds)
small = msfnet.make_network("complete", 5)
binary5 = msfnet.design_binary(model, small, symmetric=True, time_limit=60.0)
print("\nbinary design, complete N = 5 (branch and bound)")
print(f"  links (directed count) = {binary5.links}, proven optimal = {binary5.optimal}")
print(f"  verified stable, max Re = {binary5.max_real_part:.6f}")
(OUT / "complete5_binary.csv").write_text(msfnet.adjacency_csv_text(binary5.feedback))

# at N = 8 the 2^28 search space is genuinely hard; a short budget returns
# the best incumbent found so far with the optimality flag cleared
binary8 = msfnet.design_binary(model, network, symmetric=True, time_limit=5.0)
print("\nbinary design, complete N = 8, 5 s budget (any-time behavior)")
print(f"  incumbent links = {binary8.links}, proven optimal = {binary8.optimal}, "
      f"max Re = {binary8.max_real_part:.4f}")

print("\nsummary (Frobenius norms): "
      f"weighted {weighted.frobenius_norm:.4f} < "
      f"matching {matching.frobenius_norm:.4f}; "
      f"5-node binary optimum uses {binary5.links} of {5 * 4} possible links")
