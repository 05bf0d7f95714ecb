"""Mapping the NE/ET/MI phases over pump frequency and amplitude.

Every cell of the (detuning, amplitude) plane is classified: NE where
the witness sits at zero, ET where entanglement is present and tunable,
MI where multiple branches or growing fluctuations disqualify the
below-threshold analysis. The text rendering below mirrors what the
CLI's SVG heat map shows. The pump-only part of the grid (F, Δ̃_p and
the pump-only roots) does not depend on the pair index L, so it is
solved once and every L is classified against it.

Run:  python demos/04_phase_diagram.py
"""

import numpy as np

from kerrcomb.config import load_config
from kerrcomb.phases import Phase, pump_grid, sweep

cfg = load_config()
te00 = cfg.resonator.family("TE00")

deltas = np.linspace(-0.1e9, 0.8e9, 36)   # Hz
amps = np.linspace(2e5, 2.8e7, 48)        # V/m

pump = pump_grid(te00, delta_axis=deltas, amplitude_axis=amps)
grid = sweep(pump, L=1)

glyph = {"NE": ".", "ET": "e", "MI": "#"}
print("TE00, L = 1.  rows: detuning (bottom -0.1 GHz, top 0.8 GHz); "
      "columns: amplitude ->")
for row in reversed(grid.phase_array()):
    print("".join(glyph[v] for v in row))

counts = {p.value: grid.count(p) for p in Phase}
print(f"\ncounts: {counts}")
far = sweep(pump, L=40)  # same pump grid, pair detuning D_int(40)/Γ further
print(f"counts at L = 40: {({p.value: far.count(p) for p in Phase})}")

cm = grid.c_min_array()
i, j = np.unravel_index(np.nanargmin(cm), cm.shape)
print(f"strongest entanglement C_min = {np.nanmin(cm):.4f} at "
      f"detuning {deltas[i] / 1e9:.3f} GHz, amplitude {amps[j]:.3g} V/m")
print(f"bistability onset for this family: "
      f"{np.sqrt(3) * te00.omega0 / te00.q_total / (2 * np.pi) / 1e9:.4f} "
      "GHz detuning")
