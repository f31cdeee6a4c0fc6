"""Peeling chains for finite pointed maps and for the infinite map.

Finite-map mode conditions the perimeter walk to be absorbed at zero;
infinite-map mode conditions it to stay positive.  Volume increments on
pruning jumps come from exact enumeration tables for small holes and from
the universal xi law above.
"""

import tempfile
from pathlib import Path

import numpy as np

from peelkit import (
    complete_nu,
    nu_from_q,
    preset,
    simulate,
    solve_boltzmann,
    step_finite,
    step_ibpm,
)

res = preset("two_p_angulation", p=2)
cd = solve_boltzmann(res.weights)
law = complete_nu(nu_from_q(res.weights, cd.c_plus, cd.r))

# --- one-step laws -------------------------------------------------------------

d = step_finite(2, law)
print("finite-map jumps from perimeter 2:",
      {int(k): round(float(p), 6) for k, p in zip(d.ks, d.probs) if p > 0})
d = step_ibpm(2, law)
print("infinite-map jumps from perimeter 2:",
      {int(k): round(float(p), 6) for k, p in zip(d.ks, d.probs) if p > 0})

# --- a finite exploration dies, an infinite one does not -----------------------

tr = simulate("finite", law, l0=6, n_steps=3000, seed=11)
absorbed = int(np.argmax(tr.perimeters == 0))
print(f"\nfinite run absorbed after {absorbed} steps, "
      f"total volume {tr.volumes[-1]}")

tr = simulate("ibpm", law, l0=2, n_steps=20_000, seed=11)
print(f"infinite run after 2e4 steps: perimeter {tr.perimeters[-1]}, "
      f"volume {tr.volumes[-1]}")
print("perimeter should be of order n^(2/3) ~",
      round((2 ** 0.5 * law.L_nu * 20_000) ** (2 / 3)))

# --- the three volume regimes ---------------------------------------------------

for mode in ("exact_small", "asymptotic_xi", "expectation"):
    tr = simulate("ibpm", law, l0=2, n_steps=5000, seed=4, volume_mode=mode)
    print(f"volume_mode={mode:14s} final V = {tr.volumes[-1]:7d} "
          f"flags = {tr.flags}")

# --- reproducible export ---------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    tr.to_csv(out / "peel_trace.csv")
    tr.to_binary(out / "peel_trace.bin")
    rerun = simulate("ibpm", law, l0=2, n_steps=5000, seed=4, volume_mode=mode)
    rerun.to_binary(out / "rerun.bin")
    same = (out / "peel_trace.bin").read_bytes() == (out / "rerun.bin").read_bytes()
print("\nwrote the trace as csv and binary; a rerun with the same seed gives "
      f"{'byte-identical' if same else 'DIFFERENT'} files")
