"""Time-domain corroboration of the spectral verdicts.

Integrates dx/dt = Ftilde x with fixed-step classical RK4 for the complete
8-node plant network, once without feedback (unstable: the lambda = 7 mode
grows) and once with the weighted design (all modes decay).
"""

from pathlib import Path

import numpy as np

import msfnet

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

model = msfnet.load_model_config(ROOT / "paper.cfg")
network = msfnet.make_network("complete", 8)
design = msfnet.design_weighted(model, network, (-50.0, 50.0), margin=0.01)

x0 = np.random.default_rng(7).standard_normal(8 * model.n)

for label, feedback in [("no feedback", np.zeros((8, 8))),
                        ("weighted design", design.feedback)]:
    system = msfnet.build_closed_loop(model, network, feedback)
    verdict = msfnet.spectral_verdict(system)
    result = msfnet.simulate(system, x0, t_end=6.0, dt=0.002)
    print(f"{label}: max Re = {verdict.max_real_part:+.4f} "
          f"({'stable' if verdict.stable else 'unstable'})")
    for t_mark in (0.0, 1.5, 3.0, 6.0):
        k = int(np.argmin(np.abs(result.t - t_mark)))
        print(f"   ||x({result.t[k]:4.1f})|| = {np.linalg.norm(result.x[k]):12.6g}")
    if result.diverged:
        print("   integration stopped early: state norm passed 1e12")

traj_path = OUT / "trajectory_weighted.csv"
system = msfnet.build_closed_loop(model, network, design.feedback)
result = msfnet.simulate(system, x0, t_end=6.0, dt=0.002)
header = "t," + ",".join(f"x_{i + 1}" for i in range(8 * model.n))
lines = [header] + [f"{t}," + ",".join(map(str, x.tolist()))
                    for t, x in zip(result.t.tolist(), result.x)]
traj_path.write_text("\n".join(lines) + "\n")
print(f"\nwrote {len(result.t)} samples to {traj_path}")
