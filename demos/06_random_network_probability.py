"""How often can random plant networks be stabilized?

Samples Erdos-Renyi plant networks and asks the weighted designer to
stabilize each one.  For the reference plant every real mode admits a
stable gain interval (mu > lambda - 2), so the design succeeds on every
draw.  The matching baseline, run on the same draws, never verifies: its
refit gain doubles the coupling, so a mode needs lambda < 1, and any draw
with an edge has lambda_max >= 1 (equality is marginal, not stable).
"""

from pathlib import Path

import msfnet

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

model = msfnet.load_model_config(ROOT / "paper.cfg")

print("weighted designer, er:8:0.5, 200 trials (seed 2026)")
weighted = msfnet.stability_probability(model, "er:8:0.5", trials=200,
                                        seed=2026)
print(f"  stable fraction = {weighted.fraction:.3f} "
      f"(95% CI [{weighted.ci_low:.3f}, {weighted.ci_high:.3f}], "
      f"{weighted.stable_count}/{weighted.trials})")

rows = ["p,trials,stable_fraction,ci_low,ci_high"]
print("\nmatching baseline across edge densities (60 trials each):")
for p in (0.1, 0.3, 0.5, 0.7):
    estimate = msfnet.stability_probability(model, f"er:8:{p}", trials=60,
                                            seed=2026, design_method="matching")
    rows.append(f"{p},{estimate.trials},{estimate.fraction},"
                f"{estimate.ci_low},{estimate.ci_high}")
    print(f"  p = {p:.1f}: stable fraction = {estimate.fraction:.3f} "
          f"(95% CI [{estimate.ci_low:.3f}, {estimate.ci_high:.3f}])")

csv_path = OUT / "matching_probability.csv"
csv_path.write_text("\n".join(rows) + "\n")
print(f"\nwrote {csv_path}")
