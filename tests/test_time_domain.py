"""Time-domain check of the labels on the unstable half of the phase map.

The phase labels come from closed forms: the pump-only roots,
``pump_only_max_eig_re`` and the parametric roots with their stability
flag. ``oracle.relax_batch`` integrates the three-mode equations in
time and shares no code with them, so it checks the default-axis grids
of test_unstable_half.py, the ones that hold the pump-unstable and
parametric cells (TE00 at L = 20 and L = 40, TE10 and TM10 at L = 6):

- a stable TE00 cell (one root, max_eig_re < 0, no parametric state) is
  labelled NE or ET, and its pump returns to the root after a kick;
- a pump-unstable TE00 cell (one root, max_eig_re >= 0) is labelled MI,
  and a small signal/idler seed grows at the closed-form rate;
- every parametric root of a cell with a parametric state is a fixed
  point of the vector field, and one flagged stable relaxes back to its
  three powers after a kick.
"""

from typing import NamedTuple

import numpy as np
import pytest

from kerrcomb import oracle
from kerrcomb.model import pair_offset
from kerrcomb.phases import Phase, pump_grid, sweep
from kerrcomb.steady import SteadyState, parametric_branch

from helpers import amplitudes_of, drive_of

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
# parametric roots: the residual bound of test_steady.py's fixed-point
# test; a root flagged stable is kicked by PARAMETRIC_KICK (complex,
# every mode) and its three powers compared after PARAMETRIC_RETURN_TIME.
# Measured: worst residual 2.7e-15 over all 142 roots, worst power error
# 1.8e-11 over the 17 stable ones, so the power bound is about 10× that.
# The 71 roots whose symmetric block is not Hurwitz end up to 1.3 away.
FIXED_POINT_TOL = 1e-10
PARAMETRIC_KICK = 1e-6
PARAMETRIC_RETURN_TIME = 300.0
PARAMETRIC_POWER_TOL = 2e-10
GRIDS = (("TE00", 20), ("TE00", 40), ("TE10", 6), ("TM10", 6))


@pytest.fixture(scope="module")
def swept(cfg):
    """(pump grid, sweep) of each of GRIDS on the default axes."""
    axes = cfg.sweep_defaults
    n = axes["grid"]
    deltas = np.linspace(axes["delta_min_ghz"] * 1e9,
                         axes["delta_max_ghz"] * 1e9, n)
    amps = np.linspace(axes["amp_min_v_per_m"], axes["amp_max_v_per_m"], n)
    pumps = {label: pump_grid(cfg.resonator.family(label), deltas, amps)
             for label in {label for label, _ in GRIDS}}
    return {(label, L): (pumps[label], sweep(pumps[label], L))
            for label, L in GRIDS}


class Cell(NamedTuple):
    phase: Phase
    max_eig_re: float
    has_parametric: bool
    drive: tuple  # (F, Δ̃_p, Δ̃_L)
    root: SteadyState


def cells(pump, grid) -> list[tuple]:
    """(point, (F, Δ̃_p, Δ̃_L), pump-only roots) of every grid cell."""
    offset = pair_offset(pump.family, grid.L)
    return [(p, (f, dtp, dtp + offset), roots)
            for row, f_row, dtp, root_row in zip(grid.points, pump.f_norm,
                                                 pump.dtp, pump.roots)
            for p, f, roots in zip(row, f_row, root_row)]


def one_root_cells(pump, grid) -> list[Cell]:
    """Every cell of ``grid`` with one pump-only root."""
    return [Cell(p.phase, p.max_eig_re, p.has_parametric, drive, roots[0])
            for p, drive, roots in cells(pump, grid) if p.n_branches == 1]


def relax(cells, init, t_end):
    """relax_batch over the cells' drives, one column per cell."""
    return oracle.relax_batch(init, *np.array([c.drive for c in cells]).T,
                              t_end)


@pytest.mark.parametrize("L", [20, 40])
def test_stable_cells_return(swept, L):
    cells = [c for c in one_root_cells(*swept["TE00", L])
             if c.max_eig_re < 0.0 and not c.has_parametric]
    assert len(cells) > 2000
    mislabelled = [c[:4] for c in cells if c.phase is Phase.MI]
    assert not mislabelled, mislabelled[:5]
    roots = np.array([amplitudes_of(c.root) for c in cells]).T
    init = roots + np.array([[PUMP_KICK], [PAIR_SEED], [PAIR_SEED]])
    final = relax(cells, init, RETURN_TIME)
    assert np.max(np.abs(final[0] - roots[0])) < RETURN_TOL


@pytest.mark.parametrize("L", [20, 40])
def test_unstable_cells_grow_at_the_closed_form_rate(swept, L):
    cells = [c for c in one_root_cells(*swept["TE00", L])
             if c.max_eig_re >= 0.0]
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


def test_parametric_roots_are_fixed_points_and_stable_ones_return(swept):
    roots = [(drive, s) for key in GRIDS
             for p, drive, _ in cells(*swept[key]) if p.has_parametric
             for s in parametric_branch(*drive)]
    assert len(roots) == 142
    residual = [np.max(np.abs(oracle.mean_field_rhs(amplitudes_of(s),
                                                    drive_of(*drive))))
                for drive, s in roots]
    assert max(residual) < FIXED_POINT_TOL
    stable = [(drive, s) for drive, s in roots if s.stable]
    assert len(stable) == 17
    amps = np.array([amplitudes_of(s) for _, s in stable]).T
    rng = np.random.default_rng(7)
    kick = PARAMETRIC_KICK * (rng.standard_normal(amps.shape)
                              + 1j * rng.standard_normal(amps.shape))
    final = oracle.relax_batch(amps + kick,
                               *np.array([d for d, _ in stable]).T,
                               PARAMETRIC_RETURN_TIME)
    # powers, not phases: the signal/idler phase split is a neutral mode
    power_error = np.abs(np.abs(final) ** 2 - np.abs(amps) ** 2)
    assert np.max(power_error) < PARAMETRIC_POWER_TOL
