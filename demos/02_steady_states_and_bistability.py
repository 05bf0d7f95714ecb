"""Steady states of the driven ring: single branch, folds, oscillation.

In normalized units the intracavity pump obeys a cubic, which folds
into bistability once the pump detuning exceeds √3 linewidths. Past a
second boundary the signal/idler pair acquires its own steady
amplitude. This script walks both transitions and closes the loop by
relaxing the time-domain equations onto the algebraic roots.

Run:  python demos/02_steady_states_and_bistability.py
"""

import math

import numpy as np

from kerrcomb import oracle
from kerrcomb.steady import (
    bistability_turning_points,
    parametric_branch,
    pump_only_branches,
    threshold,
)

# one root below the onset, three above
for dtp in (1.0, 1.7, 2.0, 2.5):
    f = 1.45
    roots = pump_only_branches(f, dtp)
    desc = ", ".join(f"{s.ap2:.4f}{'' if s.stable else ' (unstable)'}"
                     for s in roots)
    print(f"dtp = {dtp:4.2f}: pump roots at F={f}: {desc}")

print(f"\nbistability onset: dtp = √3 = {math.sqrt(3):.6f}")
(x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(2.5)
print(f"fold points at dtp = 2.5: x = {x_lo:.4f} (F² = {f2_lo:.4f}) "
      f"and x = {x_hi:.4f} (F² = {f2_hi:.4f})")

# the pair branch needs dtl > √3 and a minimum drive
rep = threshold(2.4, 2.4)
print(f"\noscillation threshold at dtp = dtl = 2.4: F = {rep.f_threshold:.6f}")
for f in (0.95 * rep.f_threshold, 1.05 * rep.f_threshold):
    sols = parametric_branch(f, 2.4, 2.4)
    print(f"  F = {f:.4f}: {len(sols)} pair solutions "
          + str([f"(x={s.ap2:.3f}, y={s.a2:.3f})" for s in sols]))

# time-domain check: perturb a stable root and watch it come back
f, dtp = 1.6, 2.4
state = [s for s in parametric_branch(f, dtp, dtp) if s.stable][0]
theta_p = -state.psi
pair = 0.5 * (state.phi + 2 * theta_p)
init = np.array([math.sqrt(state.ap2) * np.exp(1j * theta_p) * 1.001,
                 math.sqrt(state.a2) * np.exp(1j * pair) * 0.999,
                 math.sqrt(state.a2) * np.exp(1j * pair)])
# relax_batch integrates a batch of drives, one column each
final = oracle.relax_batch(init[:, None], f, dtp, dtp, 300.0)[:, 0]
print(f"\nrelaxed pump power {abs(final[0])**2:.9f} "
      f"vs algebraic {state.ap2:.9f}")
print(f"relaxed pair power {abs(final[1])**2:.9f} "
      f"vs algebraic {state.a2:.9f}")
