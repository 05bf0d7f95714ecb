import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcomb import oracle, phases
from kerrcomb.duan import (
    NotSymmetricError,
    _trig_coefficients,
    duan_value,
    exact_duan,
    minimize_duan,
    quadrature_covariance,
)
from kerrcomb.fluct import (C_VAC, NoiseSpectrum, SingularResolventError,
                            build_m, noise_spectrum)
from kerrcomb.model import NormalizedDrive
from kerrcomb.steady import Branch, SteadyState, pump_only_branches

VACUUM = 0.5 * np.eye(4)


def empty_state():
    return SteadyState(ap2=0.0, a2=0.0, phi=0.0, psi=0.0,
                       branch=Branch.PUMP_ONLY, stable=True)


def squeezer_sigma(dtp=1.6, dtl=1.55, f=1.2, omega=0.0):
    state = pump_only_branches(f, dtp)[0]
    sys_ = build_m(state, dtl)
    return quadrature_covariance(noise_spectrum(sys_, omega))


def random_physical_sigma(rng) -> np.ndarray:
    """Two-mode squeezed thermal state with local rotations.

    Built by conjugating a thermal diagonal with symplectic operations,
    so the result is a legitimate quantum covariance by construction.
    """
    n1, n2 = rng.uniform(0.0, 1.5, size=2)
    base = np.diag([0.5 + n1, 0.5 + n1, 0.5 + n2, 0.5 + n2])
    r = rng.uniform(0.0, 1.2)
    ch, sh = math.cosh(r), math.sinh(r)
    tms = np.array([[ch, 0, sh, 0],
                    [0, ch, 0, -sh],
                    [sh, 0, ch, 0],
                    [0, -sh, 0, ch]])
    out = tms @ base @ tms.T
    for mode in (0, 1):
        th = rng.uniform(0, 2 * math.pi)
        rot = np.eye(4)
        sl = slice(2 * mode, 2 * mode + 2)
        rot[sl, sl] = [[math.cos(th), -math.sin(th)],
                       [math.sin(th), math.cos(th)]]
        out = rot @ out @ rot.T
    return out


def operating_sigmas(rng, n: int) -> list[np.ndarray]:
    """σ of the operating state at seeded drives that do not classify MI;
    every other drive is analysed at a random ω in [0, 3]."""
    sigmas = []
    while len(sigmas) < n:
        dtp = float(rng.uniform(-1.0, 6.0))
        drive = NormalizedDrive(f_norm=float(rng.uniform(0.05, 3.0)),
                                dtp=dtp, dtl=dtp + float(rng.uniform(0, 0.2)))
        omega = float(rng.uniform(0.0, 3.0)) if len(sigmas) % 2 else 0.0
        op = phases.operating_state(drive)
        if not op.is_mi:
            sigmas.append(op.witness(omega)[1])
    return sigmas


def smallest_pt_symplectic_eigenvalue(sigma: np.ndarray) -> float:
    """ν̃₋ of the partially transposed σ (Y₂ → −Y₂), Simon's criterion."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    return float(np.min(np.abs(np.linalg.eigvals(
        1j * omega @ flip @ sigma @ flip))))


class TestQuadratureCovariance:
    def test_vacuum_gives_half_identity(self):
        sigma = quadrature_covariance(noise_spectrum(build_m(empty_state(),
                                                             0.9), 0.0))
        assert np.allclose(sigma, VACUUM, atol=1e-12)

    def test_symmetric_positive_semidefinite(self, rng):
        for _ in range(30):
            f = float(rng.uniform(0.05, 1.3))
            dtp = float(rng.uniform(-1.5, 1.5))
            state = pump_only_branches(f, dtp)[0]
            sys_ = build_m(state, dtp + float(rng.uniform(-0.1, 0.1)))
            if np.max(np.linalg.eigvals(sys_.m).real) >= -1e-6:
                continue
            sigma = quadrature_covariance(
                noise_spectrum(sys_, float(rng.uniform(-2, 2))))
            assert np.allclose(sigma, sigma.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(sigma)) > -1e-9

    def test_two_mode_squeezer_structure(self):
        sigma = squeezer_sigma()
        assert sigma[0, 0] == pytest.approx(sigma[2, 2], rel=1e-10)
        assert sigma[1, 1] == pytest.approx(sigma[3, 3], rel=1e-10)
        # X1X2 and Y1Y2 correlations carry opposite signs
        assert sigma[0, 2] * sigma[1, 3] < 0.0

    def test_corrupted_spectrum_rejected(self):
        spec = noise_spectrum(build_m(empty_state(), 0.4), 0.0)
        bad = NoiseSpectrum(omega=0.0, s=spec.s + 0.5j, s_minus=spec.s_minus)
        with pytest.raises(NotSymmetricError):
            quadrature_covariance(bad)


class TestDuanValue:
    def test_vacuum_on_boundary(self):
        assert duan_value(VACUUM, 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_vacuum_quarter_turn(self):
        val = duan_value(VACUUM, math.pi / 2.0, 0.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_periodicity_and_joint_shift(self, rng):
        sigma = squeezer_sigma()
        for _ in range(50):
            tp = float(rng.uniform(0, 2 * math.pi))
            tm = float(rng.uniform(0, 2 * math.pi))
            base = duan_value(sigma, tp, tm)
            assert duan_value(sigma, tp + 2 * math.pi, tm) == \
                pytest.approx(base, abs=1e-10)
            assert duan_value(sigma, tp, tm + 2 * math.pi) == \
                pytest.approx(base, abs=1e-10)
            assert duan_value(sigma, tp + math.pi, tm + math.pi) == \
                pytest.approx(base, abs=1e-10)

    def test_asymmetric_sigma_rejected(self):
        bad = VACUUM.copy()
        bad[0, 1] = 0.3
        with pytest.raises(NotSymmetricError):
            duan_value(bad, 0.0, 0.0)


class TestMinimizeDuan:
    def test_reported_angles_reach_c_min(self, rng):
        sigmas = [VACUUM, squeezer_sigma()]
        sigmas += [random_physical_sigma(rng) for _ in range(40)]
        for sigma in sigmas:
            res = minimize_duan(sigma)
            value = duan_value(sigma, res.theta_plus, res.theta_minus)
            assert value == pytest.approx(res.c_min, abs=1e-12)

    def test_vacuum_not_entangled(self):
        res = minimize_duan(VACUUM)
        assert res.c_min == pytest.approx(0.0, abs=1e-9)
        assert not res.entangled

    def test_separable_diagonal_closed_form(self, rng):
        for _ in range(20):
            v = float(rng.uniform(0.5, 3.0))
            res = minimize_duan(np.diag([v, v, v, v]))
            assert res.c_min == pytest.approx(2.0 * v - 1.0, abs=1e-9)
            assert not res.entangled

    def test_driven_point_is_entangled(self):
        res = minimize_duan(squeezer_sigma())
        # frozen regression for the reference below-threshold point
        assert res.c_min == pytest.approx(-0.5449564187, abs=1e-6)
        assert res.entangled

    def test_never_above_brute_force(self, rng):
        for _ in range(40):
            sigma = random_physical_sigma(rng)
            res = minimize_duan(sigma)
            brute, _ = oracle.brute_force_duan(sigma, 256)
            assert res.c_min <= brute + 1e-6

    def test_dominates_random_angles(self, rng):
        sigma = squeezer_sigma()
        res = minimize_duan(sigma)
        angles = rng.uniform(0, 2 * math.pi, size=(2000, 2))
        for tp, tm in angles:
            assert res.c_min <= duan_value(sigma, float(tp), float(tm)) + 1e-9

    def test_subsystem_exchange_invariance(self, rng):
        perm = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                         [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        for _ in range(15):
            sigma = random_physical_sigma(rng)
            swapped = perm @ sigma @ perm.T
            a = minimize_duan(sigma).c_min
            b = minimize_duan(swapped).c_min
            assert a == pytest.approx(b, abs=1e-8)

    def test_added_noise_never_helps(self, rng):
        for _ in range(15):
            sigma = random_physical_sigma(rng)
            base = minimize_duan(sigma).c_min
            for eps in (0.01, 0.1, 0.5):
                noisy = minimize_duan(sigma + eps * np.eye(4)).c_min
                assert noisy >= base - 1e-9


class TestExactDuan:
    def test_simon_identity_on_operating_states(self, rng):
        # c_min = 2ν̃₋ − 1: the rotated witness is PPT-tight on the
        # operating path, checked through an unrelated eigen-solve
        for sigma in operating_sigmas(rng, 300):
            nu = smallest_pt_symplectic_eigenvalue(sigma)
            assert exact_duan(sigma).c_min == pytest.approx(2.0 * nu - 1.0,
                                                            abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(f=st.floats(0.0, 3.0, exclude_min=True),
           dtp=st.floats(-1.0, 6.0), dtl=st.floats(-1.0, 6.0),
           omega=st.floats(0.0, 3.0))
    def test_pump_only_harmonics_equal(self, f, dtp, dtl, omega):
        for state in pump_only_branches(f, dtp):
            try:
                spec = noise_spectrum(build_m(state, dtl), omega)
            except SingularResolventError:
                continue
            const, cm2, sm2, cp2, sp2 = _trig_coefficients(
                quadrature_covariance(spec))
            assert abs(complex(cm2, sm2) - complex(cp2, sp2)) <= \
                1e-12 * max(1.0, abs(const))

    def test_reported_angles_reach_c_min(self, rng):
        for sigma in [VACUUM, squeezer_sigma()] + operating_sigmas(rng, 60):
            res = exact_duan(sigma)
            assert res.theta_plus == res.theta_minus
            assert 0.0 <= res.theta_plus < math.pi
            value = duan_value(sigma, res.theta_plus, res.theta_minus)
            assert value == pytest.approx(res.c_min, abs=1e-12)

    def test_agrees_with_descent(self, rng):
        sigmas = [VACUUM, squeezer_sigma()] + operating_sigmas(rng, 60)
        sigmas += [random_physical_sigma(rng) for _ in range(40)]
        for sigma in sigmas:
            exact, descent = exact_duan(sigma), minimize_duan(sigma)
            assert exact.c_min == pytest.approx(descent.c_min, abs=1e-9)
            assert exact.c_min <= descent.c_min + 1e-14
            assert exact.entangled == descent.entangled

    def test_unequal_harmonics_rejected(self):
        # one locally squeezed mode: Var X₁ + Var X₂ ≠ Var Y₁ + Var Y₂
        with pytest.raises(ValueError, match="harmonics differ"):
            exact_duan(np.diag([0.25, 1.0, 0.5, 0.5]))


class TestWitnessProperties:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(f=st.floats(0.0, 3.0, exclude_min=True),
           dtp=st.floats(-1.0, 6.0), dtl=st.floats(-1.0, 6.0),
           omega=st.floats(0.0, 3.0), theta=st.floats(-math.pi, math.pi))
    def test_below_threshold_phase_is_gauge(self, f, dtp, dtl, omega,
                                            theta):
        # with no pair field φ only rotates the pair basis, and the
        # witness is minimized over rotations
        for state in pump_only_branches(f, dtp):
            try:
                c = [exact_duan(quadrature_covariance(noise_spectrum(
                    build_m(s, dtl), omega))).c_min
                     for s in (state, replace(state, phi=theta))]
            except SingularResolventError:
                continue
            assert abs(c[1] - c[0]) <= 1e-10 * max(1.0, abs(c[0]))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(omega=st.floats(-5.0, 5.0), dtl=st.floats(-6.0, 6.0),
           intrinsic=st.floats(0.0, 1.0))
    def test_vacuum_identities(self, omega, dtl, intrinsic):
        sys_ = build_m(empty_state(), dtl, intrinsic_fraction=intrinsic)
        spec = noise_spectrum(sys_, omega)
        assert np.max(np.abs(spec.s - C_VAC)) < 1e-12
        assert np.max(np.abs(spec.s_minus - C_VAC)) < 1e-12
        sigma = quadrature_covariance(spec)
        assert np.max(np.abs(sigma - VACUUM)) < 1e-12
        result = exact_duan(sigma)
        assert abs(result.c_min) < 1e-12 and not result.entangled
