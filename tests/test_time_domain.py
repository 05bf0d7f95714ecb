"""Time-domain check of the one-root labels on the TE00 phase map.

The phase labels come from closed forms: the pump-only roots and
``pump_only_max_eig_re``. ``oracle.relax_batch`` integrates the
three-mode equations in time and shares no code with them, so it
checks every one-root cell of the default TE00 grid at L = 20 and
L = 40, the grids that hold the pump-unstable cells:

- a stable cell (one root, max_eig_re < 0, no parametric state) is
  labelled NE or ET, and its pump returns to the root after a kick;
- a pump-unstable cell (one root, max_eig_re >= 0) is labelled MI, and
  a small signal/idler seed grows at the closed-form rate.
"""

from typing import NamedTuple

import numpy as np
import pytest

from kerrcomb import oracle
from kerrcomb.model import pair_offset
from kerrcomb.phases import Phase, pump_grid, sweep
from kerrcomb.steady import SteadyState

from helpers import amplitudes_of

PUMP_KICK = 1e-5
PAIR_SEED = 1e-6
RETURN_TIME = 300.0
RETURN_TOL = 1e-9
# the growth rate is read from the pair power over [RATE_T0, RATE_T1]
# while the pair is still a linear perturbation (power < LINEAR_POWER)
GROWTH_SEED = 1e-9
RATE_T0, RATE_T1 = 10.0, 20.0
LINEAR_POWER = 1e-6
RATE_TOL = 1e-4


@pytest.fixture(scope="module")
def te00_pump(cfg):
    axes = cfg.sweep_defaults
    n = axes["grid"]
    return pump_grid(cfg.resonator.family("TE00"),
                     np.linspace(axes["delta_min_ghz"] * 1e9,
                                 axes["delta_max_ghz"] * 1e9, n),
                     np.linspace(axes["amp_min_v_per_m"],
                                 axes["amp_max_v_per_m"], n))


class Cell(NamedTuple):
    phase: Phase
    max_eig_re: float
    has_parametric: bool
    drive: tuple  # (F, Δ̃_p, Δ̃_L)
    root: SteadyState


def one_root_cells(pump, L) -> list[Cell]:
    """Every cell of ``sweep(pump, L)`` with one pump-only root."""
    grid = sweep(pump, L)
    offset = pair_offset(pump.family, L)
    return [Cell(p.phase, p.max_eig_re, p.has_parametric,
                 (f, dtp, dtp + offset), roots[0])
            for row, f_row, dtp, root_row in zip(grid.points, pump.f_norm,
                                                 pump.dtp, pump.roots)
            for p, f, roots in zip(row, f_row, root_row)
            if p.n_branches == 1]


def relax(cells, init, t_end):
    """relax_batch over the cells' drives, one column per cell."""
    return oracle.relax_batch(init, *np.array([c.drive for c in cells]).T,
                              t_end)


@pytest.mark.parametrize("L", [20, 40])
def test_stable_cells_return(te00_pump, L):
    cells = [c for c in one_root_cells(te00_pump, L)
             if c.max_eig_re < 0.0 and not c.has_parametric]
    assert len(cells) > 2000
    mislabelled = [c[:4] for c in cells if c.phase is Phase.MI]
    assert not mislabelled, mislabelled[:5]
    roots = np.array([amplitudes_of(c.root) for c in cells]).T
    init = roots + np.array([[PUMP_KICK], [PAIR_SEED], [PAIR_SEED]])
    final = relax(cells, init, RETURN_TIME)
    assert np.max(np.abs(final[0] - roots[0])) < RETURN_TOL


@pytest.mark.parametrize("L", [20, 40])
def test_unstable_cells_grow_at_the_closed_form_rate(te00_pump, L):
    cells = [c for c in one_root_cells(te00_pump, L) if c.max_eig_re >= 0.0]
    assert cells
    mislabelled = [c[:4] for c in cells if c.phase is not Phase.MI]
    assert not mislabelled, mislabelled[:5]
    init = np.array([amplitudes_of(c.root) for c in cells]).T
    init[1:] = GROWTH_SEED
    early = relax(cells, init, RATE_T0)
    late = relax(cells, early, RATE_T1 - RATE_T0)
    p0, p1 = (np.sum(np.abs(a[1:]) ** 2, axis=0) for a in (early, late))
    linear = p1 < LINEAR_POWER
    rate = 0.5 * np.log(p1 / p0) / (RATE_T1 - RATE_T0)
    eig = np.array([c.max_eig_re for c in cells])
    assert np.count_nonzero(linear) >= 0.5 * len(cells)
    assert np.max(np.abs(rate - eig)[linear]) < RATE_TOL
