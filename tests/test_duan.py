import math

import numpy as np
import pytest

from kerrcomb import oracle
from kerrcomb.duan import (
    NotSymmetricError,
    duan_value,
    minimize_duan,
    quadrature_covariance,
)
from kerrcomb.fluct import NoiseSpectrum, build_m, noise_spectrum
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
