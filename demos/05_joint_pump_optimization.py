"""One laser, three mode families: picking the shared pump point.

A single frequency must serve every family, so the only per-family
knob is the drive amplitude (set in practice by shaping the pump's
spatial profile; the per-family weights just normalize in quadrature).
The optimizer scans shared detunings, picks each family's amplitude to
minimize its worst witness across several comb pairs, stays clear of
the MI region, and returns the detuning with the best worst case.

Run:  python demos/05_joint_pump_optimization.py  (under a second)
"""

import numpy as np

from kerrcomb.config import load_config
from kerrcomb.dispersion import composite_pump_weights
from kerrcomb.phases import best_joint_pump

cfg = load_config()
families = [cfg.resonator.family(l) for l in ("TE00", "TE10", "TM10")]

deltas = np.linspace(0.0, 0.8e9, 33)
amps = np.linspace(2e6, 4.0e7, 40)

result, sweeps = best_joint_pump(families, Ls=[1, 3, 6],
                                 delta_axis=deltas, amplitude_axis=amps)

print(f"shared pump detuning: {result.delta_p0 / 1e9:.3f} GHz")
print("per-family drive amplitudes and worst witness over L in {1,3,6}:")
for label in ("TE00", "TE10", "TM10"):
    print(f"  {label}: {result.amplitudes[label] / 1e6:7.2f} MV/m, "
          f"worst C_min = {result.per_family_c_min[label]:+.4f}")
print(f"cross-family worst case: {result.worst_c_min:+.4f}")

# relative amplitudes translate into pump-profile weights
weights = composite_pump_weights(result.amplitudes)
print("\nnormalized pump-profile weights (squares sum to 1):")
for label, w in sorted(weights.items()):
    print(f"  {label}: {w:.4f}")

# how tight is the optimum? show the witness along the winning column
grid = sweeps["TE00"][0]
i = int(np.argmin(np.abs(grid.delta_axis - result.delta_p0)))
row = grid.c_min_array()[i]
print("\nTE00 witness along the amplitude axis at the shared detuning:")
for j in range(0, len(amps), 5):
    marker = " <- chosen" if np.isclose(
        amps[j], result.amplitudes["TE00"]) else ""
    print(f"  {amps[j] / 1e6:7.2f} MV/m: {row[j]:+.4f}{marker}")
