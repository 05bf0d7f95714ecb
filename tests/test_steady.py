import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcomb import oracle, steady
from kerrcomb.fluct import build_m
from kerrcomb.model import NormalizedDrive
from kerrcomb.steady import (
    SteadyState,
    bistability_turning_points,
    parametric_branch,
    pump_only_branches,
    threshold,
)

SQRT3 = math.sqrt(3.0)


def drive_of(f, dtp, dtl):
    return NormalizedDrive(f_norm=f, dtp=dtp, dtl=dtl)


def amplitudes_of(state: SteadyState) -> np.ndarray:
    """Complex three-mode amplitudes in the drive-phase-zero gauge."""
    theta_p = -state.psi
    theta_pair = 0.5 * (state.phi + 2.0 * theta_p)
    a_p = math.sqrt(state.ap2) * np.exp(1j * theta_p)
    a = math.sqrt(state.a2) * np.exp(1j * theta_pair)
    return np.array([a_p, a, a])


def ode_residual(state: SteadyState, f, dtp, dtl) -> float:
    rhs = oracle.mean_field_rhs(amplitudes_of(state), drive_of(f, dtp, dtl))
    return float(np.max(np.abs(rhs)))


def _fd_full_jacobian(state, f, dtp, dtl, h=1e-6):
    """Central differences of the oracle vector field in the doubled
    six-dimensional space; independent check of the symmetric block."""
    base = amplitudes_of(state)

    def field(d):
        a_p = base[0] + d[0]
        a_p_c = np.conj(base[0]) + d[1]
        a_m = base[1] + d[2]
        a_m_c = np.conj(base[1]) + d[3]
        a_q = base[2] + d[4]
        a_q_c = np.conj(base[2]) + d[5]
        d_p, d_m, d_q = oracle._rhs_detached(a_p, a_p_c, a_m, a_m_c,
                                             a_q, a_q_c, f, dtp, dtl)
        d_m_c, d_q_c = oracle._rhs_detached_conj(a_p, a_p_c, a_m, a_m_c,
                                                 a_q, a_q_c, dtl)
        d_p_c = np.conj(oracle._rhs_detached(
            np.conj(a_p_c), np.conj(a_p), np.conj(a_m_c), np.conj(a_m),
            np.conj(a_q_c), np.conj(a_q), f, dtp, dtl)[0])
        return np.array([d_p, d_p_c, d_m, d_m_c, d_q, d_q_c])

    jac = np.zeros((6, 6), dtype=complex)
    for k in range(6):
        e_k = np.zeros(6, dtype=complex)
        e_k[k] = h
        jac[:, k] = (field(e_k) - field(-e_k)) / (2.0 * h)
    return jac


def _max_re_without_null(m: np.ndarray) -> float:
    """Largest real part once the eigenvalue nearest zero is dropped."""
    eigs = np.linalg.eigvals(m)
    return float(np.max(np.delete(eigs, np.argmin(np.abs(eigs))).real))


class TestPumpOnly:
    def test_zero_drive_dark_cavity(self):
        states = pump_only_branches(0.0, 1.3)
        assert len(states) == 1
        assert states[0].ap2 == 0.0
        assert states[0].stable

    def test_roots_satisfy_cubic(self, rng):
        for _ in range(200):
            f = float(rng.uniform(0, 3))
            dtp = float(rng.uniform(-3, 4))
            states = pump_only_branches(f, dtp)
            assert 1 <= len(states) <= 3
            xs = [s.ap2 for s in states]
            assert xs == sorted(xs)
            for x in xs:
                assert x * (1.0 + (dtp - x) ** 2) == pytest.approx(
                    f * f, abs=1e-10 * max(1.0, f * f))

    def test_middle_root_unstable(self):
        (x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(2.5)
        f = math.sqrt(0.5 * (f2_lo + f2_hi))
        states = pump_only_branches(f, 2.5)
        assert [s.stable for s in states] == [True, False, True]

    def test_single_root_below_onset(self, rng):
        # no drive admits three roots unless dtp exceeds sqrt(3)
        for _ in range(300):
            dtp = float(rng.uniform(-2.0, SQRT3))
            f = float(rng.uniform(0, 4))
            assert len(pump_only_branches(f, dtp)) == 1

    def test_onset_point_values(self):
        (x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(SQRT3)
        assert x_lo == pytest.approx(2.0 * SQRT3 / 3.0, rel=1e-12)
        assert x_hi == pytest.approx(2.0 * SQRT3 / 3.0, rel=1e-12)
        assert f2_lo == pytest.approx(8.0 * SQRT3 / 9.0, rel=1e-12)

    def test_pump_only_is_ode_fixed_point(self, rng):
        for _ in range(40):
            f = float(rng.uniform(0.05, 2.5))
            dtp = float(rng.uniform(-2, 3))
            for s in pump_only_branches(f, dtp):
                assert ode_residual(s, f, dtp, dtp) < 1e-10


class TestParametric:
    def test_below_threshold_empty(self):
        rep = threshold(2.0, 2.0)
        assert rep.exists
        assert parametric_branch(0.9 * rep.f_threshold, 2.0, 2.0) == []

    def test_small_pair_detuning_never_oscillates(self, rng):
        for _ in range(30):
            dtl = float(rng.uniform(-1.0, SQRT3))
            f = float(rng.uniform(0, 6))
            assert parametric_branch(f, float(rng.uniform(-1, 3)), dtl) == []

    def test_pump_clamped_above_unity(self, rng):
        found = 0
        for _ in range(60):
            dtl = float(rng.uniform(1.8, 3.0))
            dtp = dtl + float(rng.uniform(-0.2, 0.2))
            rep = threshold(dtp, dtl)
            if not rep.exists:
                continue
            for s in parametric_branch(1.02 * rep.f_threshold, dtp, dtl):
                found += 1
                assert s.ap2 >= 1.0
                assert s.a2 > 0.0
                gain = s.ap2 ** 2 - 1.0
                mismatch = (dtl - 2.0 * s.ap2 - 3.0 * s.a2) ** 2
                assert gain == pytest.approx(mismatch, abs=1e-8)
        assert found > 20

    def test_polish_converges_from_the_branch_fold(self):
        # a bracket ending at x = 1, where the two square-root branches
        # meet; the damped step must be allowed to stay on x = 1
        f, dtp, dtl = (1.3889550191208353, 2.0938751944795713,
                       2.2747623495239777)
        x, y = steady._polish_pair(1.0, 0.0915874498413259, f, dtp, dtl)
        assert x >= 1.0 and y > 0.0
        r1, r2, _ = steady._pair_system(x, y, f, dtp, dtl)
        assert max(abs(r1), abs(r2)) < 1e-9

    def test_phases_are_consistent(self):
        for s in parametric_branch(1.6, 2.4, 2.4):
            assert math.sin(s.phi) == pytest.approx(1.0 / s.ap2, abs=1e-9)
            assert math.sin(s.phi) ** 2 + math.cos(s.phi) ** 2 == \
                pytest.approx(1.0, abs=1e-12)

    def test_solutions_are_ode_fixed_points(self):
        sols = parametric_branch(1.6, 2.4, 2.4)
        assert len(sols) == 3
        for s in sols:
            assert ode_residual(s, 1.6, 2.4, 2.4) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(f=st.floats(0.0, 4.0, exclude_min=True),
           dtp=st.floats(-1.0, 6.0), dtl=st.floats(1.5, 7.0))
    @example(f=1.6, dtp=2.4, dtl=2.4)
    def test_every_root_is_an_ode_fixed_point(self, f, dtp, dtl):
        sols = parametric_branch(f, dtp, dtl)
        for s in sols:
            assert s.a2 > 0.0
            assert s.ap2 >= 1.0
            assert ode_residual(s, f, dtp, dtl) < 1e-10
        for a, b in zip(sols, sols[1:]):
            assert a.ap2 <= b.ap2
        for i, a in enumerate(sols):
            for b in sols[i + 1:]:
                assert max(abs(a.ap2 - b.ap2), abs(a.a2 - b.a2)) >= 1e-7

    def test_stability_split(self, rng):
        # references rebuilt from the raw vector field: the frozen-pump
        # pair gate and the full 6×6 three-mode linearization, each with
        # its eigenvalue nearest zero (the free phase split) dropped
        drives = [(1.6, 2.4, 2.4)] + [
            (float(rng.uniform(0.0, 4.0)) or 1.0, float(rng.uniform(-1, 6)),
             float(rng.uniform(1.5, 7.0))) for _ in range(400)]
        checked = skipped = stable = 0
        for f, dtp, dtl in drives:
            for s in parametric_branch(f, dtp, dtl):
                pair = _max_re_without_null(build_m(s, dtl).m)
                full = _max_re_without_null(_fd_full_jacobian(s, f, dtp, dtl))
                if pair >= 1e-5 or full >= 1e-5:
                    expected = False
                elif pair <= -1e-5 and full <= -1e-5:
                    expected = True
                else:
                    skipped += 1
                    continue
                assert s.stable == expected, (f, dtp, dtl, s)
                checked += 1
                stable += expected
        print(f"stability split: {checked} roots checked, {stable} stable, "
              f"{skipped} skipped within 1e-5 of marginal")
        assert checked > 100 and 10 < stable < checked
        assert skipped <= checked // 50

    def test_symmetric_block_matches_finite_differences(self, rng):
        # (p, p†, S, S†, A, A†) with S, A = (δa₋ ± δa₊)/√2 over the FD
        # basis (p, p†, a₋, a₋†, a₊, a₊†); psi = 0 puts a_p on the real
        # axis, the gauge of the block
        r = 1.0 / math.sqrt(2.0)
        v = np.array([[1, 0, 0, 0, 0, 0],
                      [0, 1, 0, 0, 0, 0],
                      [0, 0, r, 0, r, 0],
                      [0, 0, 0, r, 0, r],
                      [0, 0, r, 0, -r, 0],
                      [0, 0, 0, r, 0, -r]])
        checked = 0
        while checked < 15:
            dtl = float(rng.uniform(1.9, 2.6))
            dtp = dtl + float(rng.uniform(-0.1, 0.1))
            rep = threshold(dtp, dtl)
            if not rep.exists:
                continue
            f = 1.03 * rep.f_threshold
            for s in parametric_branch(f, dtp, dtl):
                split = v.T @ _fd_full_jacobian(replace(s, psi=0.0), f, dtp,
                                                dtl) @ v
                block = steady._symmetric_block(s.ap2, s.a2, s.phi, dtp, dtl)
                assert np.max(np.abs(split[:4, :4] - block)) < 1e-6
                assert np.max(np.abs(split[:4, 4:])) < 1e-6
                assert np.max(np.abs(split[4:, :4])) < 1e-6
                anti = np.sort_complex(np.linalg.eigvals(split[4:, 4:]))
                assert np.max(np.abs(anti - [-2.0, 0.0])) < 1e-6
                checked += 1

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(x=st.floats(1.001, 10.0), y=st.floats(1e-3, 10.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_pair_gate_is_sign_of_mismatch(self, x, y, sign):
        # a state on the gain-balance line, placed by choosing Δ̃_L; the
        # frozen-pump M has {0, −2} and −1 ± √(1 + 12yu) as eigenvalues
        u = sign * math.sqrt(x * x - 1.0)
        dtl = 2.0 * x + 3.0 * y + u
        s = SteadyState(ap2=x, a2=y, phi=math.atan2(1.0 / x, u / x), psi=0.0,
                        branch=steady.Branch.PARAMETRIC, stable=False)
        m = build_m(s, dtl).m
        root = cmath.sqrt(1.0 + 12.0 * y * u)
        want = np.array([0.0, -2.0, -1.0 + root, -1.0 - root])
        dist = np.abs(np.linalg.eigvals(m)[:, None] - want[None, :])
        tol = 1e-6 * max(1.0, abs(root))
        assert np.all(dist.min(axis=0) < tol)
        assert np.all(dist.min(axis=1) < tol)
        assert (_max_re_without_null(m) < 0.0) == (u < 0.0)


class TestThreshold:
    def test_bracketing(self):
        for dtp, dtl in [(1.8, 1.8), (2.0, 2.0), (2.6, 2.2), (1.5, 2.2)]:
            rep = threshold(dtp, dtl)
            assert rep.exists
            assert rep.f_threshold > 0
            assert parametric_branch(0.999 * rep.f_threshold, dtp, dtl) == []
            assert parametric_branch(1.001 * rep.f_threshold, dtp, dtl)

    def test_bisection_stops_when_it_repeats(self, rng):
        for _ in range(200):
            edge = float(rng.uniform(1.0, 2.0))
            lo, hi = 1.0, 2.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if mid < edge else (lo, mid)
            probes = []

            def below(x):
                probes.append(x)
                return x < edge

            assert steady._bisect(1.0, 2.0, 80, below) == (lo, hi)
            assert len(probes) < 60

    def test_far_detuned_pair_never_oscillates(self):
        rep = threshold(0.0, 1e6)
        assert not rep.exists

    def test_resonant_case_has_no_threshold(self):
        # dtl = 0 cannot satisfy the pair gain equation at any drive
        assert not threshold(0.0, 0.0).exists


class TestRelaxation:
    def test_perturbed_stable_roots_return(self, rng):
        cases = []
        for _ in range(12):
            f = float(rng.uniform(0.2, 1.2))
            dtp = float(rng.uniform(-1.0, 1.5))
            s = pump_only_branches(f, dtp)[0]
            cases.append((f, dtp, dtp, s))
        for f, dtp, dtl, s in cases:
            amps = amplitudes_of(s) + 1e-3 * (rng.standard_normal(3)
                                              + 1j * rng.standard_normal(3))
            final = oracle.relax_to_steady(
                oracle.MeanFieldState(*amps), drive_of(f, dtp, dtl),
                t_end=80.0, dt=0.02)
            assert abs(abs(final[0]) ** 2 - s.ap2) < 1e-6

    def test_middle_root_escapes_to_outer_branch(self, rng):
        (x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(2.5)
        f = math.sqrt(0.5 * (f2_lo + f2_hi))
        low, middle, high = pump_only_branches(f, 2.5)
        amps = amplitudes_of(middle)
        amps[0] *= 1.0 + 1e-5
        final = oracle.relax_to_steady(oracle.MeanFieldState(*amps),
                                       drive_of(f, 2.5, 2.5), t_end=400.0,
                                       dt=0.02)
        landed = abs(final[0]) ** 2
        assert (abs(landed - low.ap2) < 1e-6
                or abs(landed - high.ap2) < 1e-6)


class TestContinuity:
    def test_stable_root_continuous_without_fold(self):
        # sweeping detuning at weak drive never crosses a fold
        f = 0.6
        dtps = np.linspace(-1.0, 1.2, 400)
        xs = [pump_only_branches(f, float(d))[0].ap2 for d in dtps]
        jumps = np.abs(np.diff(xs))
        assert np.max(jumps) < 10.0 * np.median(jumps) + 1e-9
