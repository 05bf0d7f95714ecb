import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcomb import fluct, phases, steady
from kerrcomb.duan import pump_only_witness
from kerrcomb.fluct import build_m, max_eigenvalue_real
from kerrcomb.model import OperatingPoint, normalize
from kerrcomb.phases import (
    JointPumpResult,
    NoFeasiblePointError,
    Phase,
    PhasePoint,
    SweepGrid,
    best_joint_pump,
    classify_drive,
    pump_grid,
    pump_only_max_eig_re,
    sweep,
)

from helpers import drive_of

SQRT3 = math.sqrt(3.0)
# one stable pump-only root (max_eig_re = -1) with two parametric roots:
# the one kind of MI cell where the parametric search decides
PARAMETRIC_ONLY_MI = (1.2957, 1.9306, 3.5463)


class TestClassify:
    def test_dark_point_is_ne(self, te00):
        op = OperatingPoint(family=te00, L=1, delta_p0=0.2e9, a_pin=0.0)
        point = classify_drive(normalize(op),
                               intrinsic_fraction=te00.intrinsic_fraction)
        assert point.phase is Phase.NE
        assert point.c_min == pytest.approx(0.0, abs=1e-9)

    def test_bistable_window_is_mi(self):
        from kerrcomb.steady import bistability_turning_points

        (x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(2.3)
        f = math.sqrt(0.5 * (f2_lo + f2_hi))
        point = classify_drive(drive_of(f, 2.3, 2.3))
        assert point.phase is Phase.MI
        assert point.n_branches == 3

    def test_parametric_existence_is_mi(self):
        point = classify_drive(drive_of(*PARAMETRIC_ONLY_MI))
        assert point.phase is Phase.MI
        assert point.has_parametric
        assert point.n_branches == 1 and point.max_eig_re < 0.0

    def test_multi_root_cell_runs_no_parametric_search(self, monkeypatch):
        def boom(*args):
            raise AssertionError("parametric search on a multi-root cell")

        monkeypatch.setattr(phases, "parametric_branch", boom)
        point = classify_drive(drive_of(1.6, 2.4, 2.4))
        assert point.n_branches > 1
        assert point.phase is Phase.MI
        assert point.error == ""
        assert not point.has_parametric

    def test_near_threshold_is_et(self):
        point = classify_drive(drive_of(1.2, 1.6, 1.55))
        assert point.phase is Phase.ET
        assert point.c_min < -0.5

    def test_mi_disjunction_is_recorded(self, rng):
        for _ in range(80):
            f = float(rng.uniform(0.0, 2.5))
            dtp = float(rng.uniform(-1.0, 2.8))
            point = classify_drive(drive_of(f, dtp, dtp - 0.001))
            if point.phase is Phase.MI:
                assert (point.n_branches > 1 or point.has_parametric
                        or point.max_eig_re >= 0.0 or point.error)
            else:
                assert point.n_branches == 1
                assert point.max_eig_re < 0.0
                assert math.isfinite(point.c_min)

    def test_failed_polish_is_an_error_cell(self, monkeypatch):
        def stall(*args):
            raise steady.NoConvergenceError("stalled")

        monkeypatch.setattr(steady, "_polish_pair", stall)
        with pytest.raises(steady.NoConvergenceError):
            steady.parametric_branch(*PARAMETRIC_ONLY_MI)
        point = classify_drive(drive_of(*PARAMETRIC_ONLY_MI))
        assert point.phase is Phase.MI
        assert point.error.startswith("NoConvergenceError")

    def test_singular_resolvent_is_an_error_cell(self, monkeypatch):
        def singular(*args):
            raise fluct.SingularResolventError("marginal")

        monkeypatch.setattr(phases, "pump_only_branches", singular)
        point = classify_drive(drive_of(1.2, 1.6, 1.55))
        assert point.phase is Phase.MI
        assert point.error.startswith("SingularResolventError")

    def test_programming_error_propagates(self, monkeypatch):
        # only solver failures mark a cell; a bug must not become MI
        def broken(*args):
            raise TypeError("broken")

        monkeypatch.setattr(phases, "pump_only_branches", broken)
        with pytest.raises(TypeError, match="broken"):
            classify_drive(drive_of(1.2, 1.6, 1.55))


class TestSweep:
    def test_single_cell_equals_classify(self, te00):
        grid = sweep(pump_grid(te00, np.array([0.3e9]), np.array([9e6])), 1)
        op = OperatingPoint(family=te00, L=1, delta_p0=0.3e9, a_pin=9e6)
        point = classify_drive(normalize(op),
                               intrinsic_fraction=te00.intrinsic_fraction)
        cell = grid.points[0][0]
        assert cell.phase == point.phase
        assert cell.c_min == point.c_min

    def test_all_three_phases_in_reference_region(self, te00):
        deltas = np.linspace(-0.1e9, 0.8e9, 16)
        amps = np.linspace(2e5, 2.8e7, 16)
        grid = sweep(pump_grid(te00, deltas, amps), 1)
        counts = {p: grid.count(p) for p in Phase}
        assert all(counts[p] > 0 for p in Phase)

    def test_non_finite_omega_stops_the_sweep(self, te00):
        # a NaN witness would read as NE; the sweep raises instead
        with pytest.raises(ValueError, match="omega must be finite"):
            sweep(pump_grid(te00, np.array([0.3e9]), np.array([9e6])), 1,
                  omega=math.nan)

    def test_axis_validation(self, te00):
        with pytest.raises(ValueError, match="delta_axis must be non-empty"):
            pump_grid(te00, np.array([2.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="amplitude_axis must be non"):
            pump_grid(te00, np.array([1.0]), np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_is_refused_by_name(self, te00, bad):
        # np.diff(axis) <= 0 is False for NaN, so an order test alone
        # lets a NaN axis through to the cells
        with pytest.raises(ValueError, match="^delta_axis must be finite$"):
            pump_grid(te00, [0.1e9, bad], [9e6])
        with pytest.raises(ValueError,
                           match="^amplitude_axis must be finite$"):
            pump_grid(te00, [0.1e9], [9e6, bad])
        point = PhasePoint(phase=Phase.NE, c_min=0.0, n_branches=1,
                           max_eig_re=-1.0)
        for name, axes in (("delta_axis", ([0.0, bad], [1.0])),
                           ("amplitude_axis", ([0.0], [1.0, bad]))):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                SweepGrid(family="TE00", L=1, delta_axis=np.array(axes[0]),
                          amplitude_axis=np.array(axes[1]),
                          points=((point,) * len(axes[1]),) * len(axes[0]))


class TestSharedPumpGrid:
    """One ``pump_grid`` per family serves every L, bit for bit."""

    @pytest.mark.parametrize("label, Ls", [
        ("TE00", (1, 6, 20, 40)), ("TE10", (6,)), ("TM10", (6,))])
    def test_cells_equal_classify_drive(self, cfg, resonator, label, Ls):
        axes = cfg.sweep_defaults
        deltas = np.linspace(axes["delta_min_ghz"] * 1e9,
                             axes["delta_max_ghz"] * 1e9, 16)
        amps = np.linspace(axes["amp_min_v_per_m"], axes["amp_max_v_per_m"],
                           16)
        fam = resonator.family(label)
        pump = pump_grid(fam, deltas, amps)
        unstable = parametric = 0
        for L in Ls:
            grid = sweep(pump, L)
            for i, delta in enumerate(deltas):
                for j, amp in enumerate(amps):
                    ref = classify_drive(
                        normalize(OperatingPoint(family=fam, L=L,
                                                 delta_p0=float(delta),
                                                 a_pin=float(amp))),
                        intrinsic_fraction=fam.intrinsic_fraction)
                    cell = grid.points[i][j]
                    for f in dataclasses.fields(PhasePoint):
                        # repr: NaN equals NaN, and -0.0 differs from 0.0
                        assert repr(getattr(cell, f.name)) \
                            == repr(getattr(ref, f.name)), (L, i, j, f.name)
                    unstable += (cell.n_branches == 1
                                 and cell.max_eig_re >= 0.0)
                    parametric += cell.has_parametric
        if label == "TE00":  # L = 20 and 40 reach the unstable half
            assert unstable > 0 and parametric > 0

    def test_best_joint_pump_solves_each_cell_once(self, resonator,
                                                    monkeypatch):
        calls = []
        real = phases.pump_only_branches

        def counted(f_norm, dtp):
            calls.append((f_norm, dtp))
            return real(f_norm, dtp)

        monkeypatch.setattr(phases, "pump_only_branches", counted)
        families = [resonator.family(n) for n in ("TE00", "TE10", "TM10")]
        deltas = np.linspace(-0.1e9, 0.8e9, 6)
        amps = np.linspace(2e5, 2.8e7, 5)
        _, sweeps = best_joint_pump(families, [1, 3, 6], deltas, amps,
                                    margin=0)
        assert len(calls) == len(families) * len(deltas) * len(amps)
        assert all(len(grids) == 3 for grids in sweeps.values())


def pump_only_state(x):
    return steady.SteadyState(ap2=x, a2=0.0, phi=0.0, psi=0.0,
                              branch=steady.Branch.PUMP_ONLY, stable=True)


def per_cell_point(drive, intrinsic, eig_of=None):
    """A cell classified with the parametric search run on every cell,
    as sweeps did before the cheapest-first MI test. ``eig_of(root)``
    replaces the closed-form stability of the lowest root."""
    roots = steady.pump_only_branches(drive.f_norm, drive.dtp)
    parametric = steady.parametric_branch(drive.f_norm, drive.dtp, drive.dtl)
    eig = (eig_of(roots[0]) if eig_of else
           pump_only_max_eig_re(roots[0].ap2, drive.dtl))
    if len(roots) > 1 or parametric or eig >= 0.0:
        phase, c_min = Phase.MI, math.nan
    else:
        c_min = pump_only_witness(roots[0].ap2, drive.dtl, 0.0,
                                  intrinsic).c_min
        phase = Phase.ET if c_min < -phases.EPSILON_NE else Phase.NE
    return PhasePoint(phase=phase, c_min=c_min, n_branches=len(roots),
                      max_eig_re=eig)


def matrix_path_point(drive, intrinsic):
    """A cell classified with M and its eigen-solve on ``roots[0]``."""
    return per_cell_point(drive, intrinsic, lambda root: max_eigenvalue_real(
        build_m(root, drive.dtl, intrinsic_fraction=intrinsic)))


class TestPumpOnlyStability:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(x=st.floats(0.0, 10.0), dtl=st.floats(-5.0, 10.0))
    @example(x=1.0, dtl=1.0)   # d = 0: B is a Jordan block
    @example(x=2.5, dtl=7.5)
    @example(x=3.0, dtl=-5.0)  # d < 0
    def test_matches_eigen_solve(self, x, dtl):
        closed = pump_only_max_eig_re(x, dtl)
        d = (dtl - x) * (3.0 * x - dtl)
        if d < 0.0:
            assert closed == -1.0
        # The reference, not the closed form, loses digits as d → 0:
        # there B turns defective and an eigen-solve is good only to
        # ~ε s²/√(|d| + ε s²), s the size of B. For |d| above ~1e-5 the
        # first bound is the tighter one.
        s2 = max(1.0, x, abs(2.0 * x - dtl)) ** 2
        eps = np.finfo(float).eps
        tol = max(1e-12 * max(1.0, x),
                  16.0 * eps * s2 / math.sqrt(abs(d) + eps * s2))
        reference = max_eigenvalue_real(build_m(pump_only_state(x), dtl))
        assert abs(closed - reference) <= tol

    @pytest.mark.parametrize("x, dtl", [
        (1.0, 2.0), (1.25, 3.25), (1.25, 1.75), (17 / 8, 49 / 8),
        (17 / 8, 19 / 8)])
    def test_marginal_on_the_d_equals_one_boundary(self, x, dtl):
        # x² − δ² = 1 exactly at these binary fractions
        assert (dtl - x) * (3.0 * x - dtl) == 1.0
        assert abs(pump_only_max_eig_re(x, dtl)) <= 1e-15

    @pytest.mark.parametrize("x, dtl", [(3.0, -5.0), (0.5, 0.2),
                                        (0.1, 9.0), (4.0, 12.5)])
    def test_complex_pair_is_exactly_minus_one(self, x, dtl):
        assert pump_only_max_eig_re(x, dtl) == -1.0

    def test_cell_path_builds_no_matrix(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a 4x4 matrix on the cell path")

        monkeypatch.setattr(fluct, "build_m", boom)
        monkeypatch.setattr(fluct.FluctuationSystem, "__post_init__", boom)
        monkeypatch.setattr(np.linalg, "eigvals", boom)
        # Δ̃_L ≤ √3: no parametric bracket, so steady solves nothing either
        point = classify_drive(drive_of(1.2, 1.6, 1.55))
        assert isinstance(point, PhasePoint)
        assert point.error == ""
        assert point.phase is Phase.ET

    def test_grid_equals_matrix_path(self, te00):
        deltas = np.linspace(-0.1e9, 0.8e9, 16)
        amps = np.linspace(2e5, 2.8e7, 16)
        pump = pump_grid(te00, deltas, amps)
        for L in (1, 2, 3):
            grid = sweep(pump, L)
            for i, delta in enumerate(deltas):
                for j, amp in enumerate(amps):
                    drive = normalize(OperatingPoint(
                        family=te00, L=L, delta_p0=float(delta),
                        a_pin=float(amp)))
                    ref = matrix_path_point(drive, te00.intrinsic_fraction)
                    cell = grid.points[i][j]
                    assert cell.phase is ref.phase
                    assert repr(cell.c_min) == repr(ref.c_min)
                    assert abs(cell.max_eig_re - ref.max_eig_re) <= 1e-12


class TestSweepEqualsPerCellPath:
    @pytest.mark.parametrize("labels, Ls", [
        (("TE00",), (1, 2, 3)),             # fig4 geometry
        (("TE00", "TE10", "TM10"), (6,)),   # fig7 families
    ], ids=["fig4-L1-3", "fig7-L6"])
    def test_grid_bits_match(self, cfg, resonator, labels, Ls):
        axes = cfg.sweep_defaults
        deltas = np.linspace(axes["delta_min_ghz"] * 1e9,
                             axes["delta_max_ghz"] * 1e9, 16)
        amps = np.linspace(axes["amp_min_v_per_m"], axes["amp_max_v_per_m"],
                           16)
        for fam in map(resonator.family, labels):
            pump = pump_grid(fam, deltas, amps)
            for L in Ls:
                grid = sweep(pump, L)
                for i, delta in enumerate(deltas):
                    for j, amp in enumerate(amps):
                        drive = normalize(OperatingPoint(
                            family=fam, L=L, delta_p0=float(delta),
                            a_pin=amp))
                        ref = per_cell_point(drive, fam.intrinsic_fraction)
                        cell = grid.points[i][j]
                        for name in ("phase", "c_min", "n_branches",
                                     "max_eig_re"):
                            assert repr(getattr(cell, name)) \
                                == repr(getattr(ref, name)), (fam.label, L,
                                                              i, j, name)


class TestBestJointPump:
    def test_single_family_reduces_to_argmin(self, te00):
        deltas = np.linspace(0.25e9, 0.45e9, 9)
        amps = np.linspace(2e6, 1.6e7, 9)
        result, sweeps = best_joint_pump([te00], [1], deltas,
                                         amps, margin=0)
        grid = sweeps["TE00"][0]
        cm = grid.c_min_array()
        i, j = np.unravel_index(np.nanargmin(cm), cm.shape)
        assert result.delta_p0 == pytest.approx(float(deltas[i]))
        assert result.amplitudes["TE00"] == pytest.approx(float(amps[j]))
        assert result.worst_c_min == pytest.approx(float(cm[i, j]))

    def test_margin_keeps_distance_from_mi(self, te00):
        deltas = np.linspace(0.2e9, 0.55e9, 12)
        amps = np.linspace(2e6, 2.4e7, 12)
        result, sweeps = best_joint_pump([te00], [1], deltas,
                                         amps, margin=2)
        grid = sweeps["TE00"][0]
        mi = grid.phase_array() == "MI"
        i = int(np.argmin(np.abs(grid.delta_axis - result.delta_p0)))
        j = int(np.argmin(np.abs(grid.amplitude_axis
                                 - result.amplitudes["TE00"])))
        window = mi[max(0, i - 2):i + 3, max(0, j - 2):j + 3]
        assert not window.any()

    def test_negative_margin_rejected(self, te00):
        axis = np.linspace(1e6, 2e6, 2)
        with pytest.raises(ValueError, match="margin must be >= 0"):
            best_joint_pump([te00], [1], axis, axis, margin=-1)

    def test_no_feasible_point_raises(self, te00):
        # amplitudes far too weak for any entanglement beyond epsilon
        deltas = np.linspace(0.1e9, 0.3e9, 4)
        amps = np.linspace(1e2, 1e3, 4)
        with pytest.raises(NoFeasiblePointError):
            best_joint_pump([te00], [1], deltas, amps)


def synthetic_grid(rng, label, L, deltas, amps):
    """Random c_min on every cell; a few NaN cells marked MI."""
    c_min = rng.uniform(-0.6, 0.2, (len(deltas), len(amps)))
    c_min[rng.random(c_min.shape) < 0.04] = math.nan
    points = tuple(tuple(
        PhasePoint(phase=Phase.MI if math.isnan(c) else
                   Phase.ET if c < -1e-3 else Phase.NE,
                   c_min=float(c), n_branches=1, max_eig_re=-1.0)
        for c in row) for row in c_min)
    return SweepGrid(family=label, L=L, delta_axis=deltas,
                     amplitude_axis=amps, points=points)


def reference_joint_pump(grids_by_family, deltas, amps, epsilon_ne, margin):
    """Detuning rows one at a time; None when no row is feasible."""
    best = None
    for i, delta in enumerate(deltas):
        amplitudes, per_family = {}, {}
        for label, grids in grids_by_family.items():
            mi = np.any([g.phase_array() == "MI" for g in grids], axis=0)
            cands = [(max(g.points[i][j].c_min for g in grids), j)
                     for j in range(len(amps))
                     if not mi[max(0, i - margin):i + margin + 1,
                               max(0, j - margin):j + margin + 1].any()]
            if not cands:
                break
            val, j = min(cands)
            if val >= -epsilon_ne:
                break
            amplitudes[label] = float(amps[j])
            per_family[label] = val
        else:
            worst = max(per_family.values())
            if best is None or worst < best.worst_c_min:
                best = JointPumpResult(delta_p0=float(delta),
                                       amplitudes=amplitudes,
                                       worst_c_min=worst,
                                       per_family_c_min=per_family)
    return best


class TestJointPumpDecision:
    def test_matches_row_by_row_reference(self, resonator, monkeypatch):
        families = [resonator.family(n) for n in ("TE00", "TE10", "TM10")]
        deltas, amps = np.linspace(0.0, 1.0, 8), np.linspace(1.0, 2.0, 8)
        outcomes = set()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            grids = {(f.label, L): synthetic_grid(rng, f.label, L, deltas,
                                                  amps)
                     for f in families for L in (1, 2)}
            monkeypatch.setattr(phases, "sweep",
                                lambda pump, L, *a, **k:
                                grids[(pump.family.label, L)])
            by_family = {f.label: [grids[(f.label, L)] for L in (1, 2)]
                         for f in families}
            for margin in range(4):
                for eps in (1e-3, 0.3, 5.0):
                    ref = reference_joint_pump(by_family, deltas, amps, eps,
                                               margin)
                    if eps == 5.0:
                        assert ref is None
                    if ref is None:
                        with pytest.raises(NoFeasiblePointError):
                            best_joint_pump(families, [1, 2],
                                            deltas, amps, epsilon_ne=eps,
                                            margin=margin)
                        outcomes.add("infeasible")
                        continue
                    got, _ = best_joint_pump(families, [1, 2],
                                             deltas, amps, epsilon_ne=eps,
                                             margin=margin)
                    assert repr(got) == repr(ref)
                    outcomes.add("feasible")
        assert outcomes == {"feasible", "infeasible"}
