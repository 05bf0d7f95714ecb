import math

import numpy as np
import pytest

from kerrcomb import phases, steady
from kerrcomb.model import NormalizedDrive, OperatingPoint, normalize
from kerrcomb.phases import (
    JointPumpResult,
    NoFeasiblePointError,
    Phase,
    PhasePoint,
    SweepGrid,
    best_joint_pump,
    classify_drive,
    classify_point,
    sweep,
)

SQRT3 = math.sqrt(3.0)


def drive_of(f, dtp, dtl):
    return NormalizedDrive(f_norm=f, dtp=dtp, dtl=dtl)


class TestClassify:
    def test_dark_point_is_ne(self, te00, resonator):
        op = OperatingPoint(family=te00, L=1, delta_p0=0.2e9, a_pin=0.0)
        point = classify_point(op, resonator)
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
        point = classify_drive(drive_of(1.6, 2.4, 2.4))
        assert point.phase is Phase.MI
        assert point.has_parametric

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
            steady.parametric_branch(1.6, 2.4, 2.4)
        point = classify_drive(drive_of(1.6, 2.4, 2.4))
        assert point.phase is Phase.MI
        assert point.error.startswith("NoConvergenceError")

    def test_classification_is_function_of_drive(self, te00, resonator):
        op = OperatingPoint(family=te00, L=1, delta_p0=0.3e9, a_pin=9e6)
        direct = classify_point(op, resonator)
        drive = normalize(op, resonator)
        via_drive = classify_drive(
            drive, intrinsic_fraction=te00.intrinsic_fraction)
        assert direct.phase == via_drive.phase
        assert direct.c_min == via_drive.c_min
        assert direct.max_eig_re == via_drive.max_eig_re


class TestSweep:
    def test_single_cell_equals_classify(self, te00, resonator):
        grid = sweep(te00, resonator, 1, np.array([0.3e9]), np.array([9e6]))
        op = OperatingPoint(family=te00, L=1, delta_p0=0.3e9, a_pin=9e6)
        point = classify_point(op, resonator)
        cell = grid.points[0][0]
        assert cell.phase == point.phase
        assert cell.c_min == point.c_min

    def test_worker_count_invariance(self, te00, resonator):
        deltas = np.linspace(0.1e9, 0.6e9, 6)
        amps = np.linspace(1e6, 2e7, 5)
        serial = sweep(te00, resonator, 1, deltas, amps, workers=1)
        parallel = sweep(te00, resonator, 1, deltas, amps, workers=3)
        for row_a, row_b in zip(serial.points, parallel.points):
            for a, b in zip(row_a, row_b):
                assert a.phase == b.phase
                assert a.n_branches == b.n_branches
                # bit-identical numerics (NaN marks MI cells on both sides)
                assert repr(a.c_min) == repr(b.c_min)
                assert repr(a.max_eig_re) == repr(b.max_eig_re)

    def test_all_three_phases_in_reference_region(self, te00, resonator):
        deltas = np.linspace(-0.1e9, 0.8e9, 16)
        amps = np.linspace(2e5, 2.8e7, 16)
        grid = sweep(te00, resonator, 1, deltas, amps)
        counts = {p: grid.count(p) for p in Phase}
        assert all(counts[p] > 0 for p in Phase)

    def test_axis_validation(self, te00, resonator):
        with pytest.raises(ValueError):
            sweep(te00, resonator, 1, np.array([2.0, 1.0]), np.array([1.0]))


class TestBestJointPump:
    def test_single_family_reduces_to_argmin(self, te00, resonator):
        deltas = np.linspace(0.25e9, 0.45e9, 9)
        amps = np.linspace(2e6, 1.6e7, 9)
        result, sweeps = best_joint_pump([te00], resonator, [1], deltas,
                                         amps, margin=0)
        grid = sweeps["TE00"][0]
        cm = grid.c_min_array()
        i, j = np.unravel_index(np.nanargmin(cm), cm.shape)
        assert result.delta_p0 == pytest.approx(float(deltas[i]))
        assert result.amplitudes["TE00"] == pytest.approx(float(amps[j]))
        assert result.worst_c_min == pytest.approx(float(cm[i, j]))

    def test_margin_keeps_distance_from_mi(self, te00, resonator):
        deltas = np.linspace(0.2e9, 0.55e9, 12)
        amps = np.linspace(2e6, 2.4e7, 12)
        result, sweeps = best_joint_pump([te00], resonator, [1], deltas,
                                         amps, margin=2)
        grid = sweeps["TE00"][0]
        mi = grid.phase_array() == "MI"
        i = int(np.argmin(np.abs(grid.delta_axis - result.delta_p0)))
        j = int(np.argmin(np.abs(grid.amplitude_axis
                                 - result.amplitudes["TE00"])))
        window = mi[max(0, i - 2):i + 3, max(0, j - 2):j + 3]
        assert not window.any()

    def test_no_feasible_point_raises(self, te00, resonator):
        # amplitudes far too weak for any entanglement beyond epsilon
        deltas = np.linspace(0.1e9, 0.3e9, 4)
        amps = np.linspace(1e2, 1e3, 4)
        with pytest.raises(NoFeasiblePointError):
            best_joint_pump([te00], resonator, [1], deltas, amps)


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
                                lambda fam, res, L, *a, **k:
                                grids[(fam.label, L)])
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
                            best_joint_pump(families, resonator, [1, 2],
                                            deltas, amps, epsilon_ne=eps,
                                            margin=margin)
                        outcomes.add("infeasible")
                        continue
                    got, _ = best_joint_pump(families, resonator, [1, 2],
                                             deltas, amps, epsilon_ne=eps,
                                             margin=margin)
                    assert repr(got) == repr(ref)
                    outcomes.add("feasible")
        assert outcomes == {"feasible", "infeasible"}
