import math

import numpy as np
import pytest

from kerrcomb import oracle
from kerrcomb.duan import quadrature_covariance
from kerrcomb.fluct import build_m, noise_spectrum
from kerrcomb.model import NormalizedDrive
from kerrcomb.steady import Branch, SteadyState, pump_only_branches


def drive_of(f, dtp, dtl):
    return NormalizedDrive(f_norm=f, dtp=dtp, dtl=dtl)


class TestMeanField:
    def test_undriven_cavity_decays(self, rng):
        drive = drive_of(0.0, 0.4, 0.4)
        init = oracle.MeanFieldState(*(rng.standard_normal(3)
                                       + 1j * rng.standard_normal(3)))
        _, traj = oracle.integrate_mean_field(init, drive, 20.0, 0.01,
                                              sample_every=2000)
        assert np.max(np.abs(traj[-1])) < 1e-8

    def test_fixed_point_stays_put(self):
        f, dtp = 0.8, 0.5
        s = pump_only_branches(f, dtp)[0]
        a_p = math.sqrt(s.ap2) * np.exp(-1j * s.psi)
        init = oracle.MeanFieldState(a_p, 0.0, 0.0)
        _, traj = oracle.integrate_mean_field(init, drive_of(f, dtp, dtp),
                                              40.0, 0.01, sample_every=4000)
        assert abs(traj[-1][0] - a_p) < 1e-8

    def test_blowup_detected(self):
        # unphysical huge drive with a coarse step overflows quickly
        drive = drive_of(1e8, 0.0, 0.0)
        init = oracle.MeanFieldState(1e3, 1e3, 1e3)
        with pytest.raises(oracle.NonFiniteError):
            oracle.integrate_mean_field(init, drive, 50.0, 0.5)

    def test_batch_matches_scalar(self, rng):
        drives = [(float(rng.uniform(0.1, 1.0)), float(rng.uniform(-1, 2)))
                  for _ in range(5)]
        init = rng.standard_normal((3, 5)) * 0.1
        f = np.array([d[0] for d in drives])
        dtp = np.array([d[1] for d in drives])
        batch = oracle.integrate_mean_field_batch(init, f, dtp, dtp,
                                                  10.0, 0.02)
        for k, (fk, dk) in enumerate(drives):
            _, traj = oracle.integrate_mean_field(
                oracle.MeanFieldState(*init[:, k]), drive_of(fk, dk, dk),
                10.0, 0.02, sample_every=10000)
            assert np.max(np.abs(traj[-1] - batch[:, k])) < 1e-12


class TestFdJacobian:
    def test_empty_cavity_exact_diagonal(self):
        state = SteadyState(ap2=0.0, a2=0.0, phi=0.0, psi=0.0,
                            branch=Branch.PUMP_ONLY, stable=True)
        for h in (1e-7, 1e-6, 1e-5):
            jac = oracle.fd_jacobian(state, drive_of(0.0, 0.0, 0.8), h=h)
            expected = np.diag([-1 - 0.8j, -1 + 0.8j, -1 - 0.8j, -1 + 0.8j])
            assert np.max(np.abs(jac - expected)) < 1e-9

    def test_conjugate_rows_mirror(self, rng):
        swap = (1, 0, 3, 2)
        for _ in range(10):
            f = float(rng.uniform(0.1, 1.0))
            dtp = float(rng.uniform(-1, 1.5))
            s = pump_only_branches(f, dtp)[0]
            jac = oracle.fd_jacobian(s, drive_of(f, dtp, dtp))
            for i in range(4):
                for j in range(4):
                    assert jac[swap[i], swap[j]] == pytest.approx(
                        np.conj(jac[i, j]), abs=1e-9)

    def test_step_outside_trust_range_rejected(self):
        state = SteadyState(ap2=0.1, a2=0.0, phi=0.0, psi=0.0,
                            branch=Branch.PUMP_ONLY, stable=True)
        with pytest.raises(ValueError):
            oracle.fd_jacobian(state, drive_of(0.3, 0.0, 0.0), h=1e-2)


class TestLangevin:
    def test_vacuum_covariance(self):
        state = SteadyState(ap2=0.0, a2=0.0, phi=0.0, psi=0.0,
                            branch=Branch.PUMP_ONLY, stable=True)
        m = build_m(state, 0.9).m
        cov, se = oracle.langevin_covariance(m, 0.45, 2000, 200.0, 0.01,
                                             seed=5)
        z = (cov - 0.5 * np.eye(4)) / np.where(se > 0, se, 1.0)
        assert np.max(np.abs(z)) < 3.0

    def test_matches_deterministic_pipeline(self):
        s = pump_only_branches(1.0, 1.2)[0]
        sys_ = build_m(s, 1.1)
        target = quadrature_covariance(noise_spectrum(sys_, 0.0))
        cov, se = oracle.langevin_covariance(sys_.m, 0.45, 3000, 400.0, 0.01,
                                             seed=7)
        z = (cov - target) / np.where(se > 0, se, 1.0)
        assert np.max(np.abs(z)) < 3.0

    def test_deterministic_given_seed(self):
        s = pump_only_branches(0.7, 0.4)[0]
        m = build_m(s, 0.4).m
        a = oracle.langevin_covariance(m, 0.45, 1000, 120.0, 0.02, seed=3)
        b = oracle.langevin_covariance(m, 0.45, 1000, 120.0, 0.02, seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_step_halving_within_noise(self):
        s = pump_only_branches(0.9, 0.8)[0]
        m = build_m(s, 0.8).m
        coarse, se_c = oracle.langevin_covariance(m, 0.45, 4000, 300.0, 0.02,
                                                  seed=11)
        fine, se_f = oracle.langevin_covariance(m, 0.45, 4000, 300.0, 0.01,
                                                seed=11)
        se = np.sqrt(se_c ** 2 + se_f ** 2)
        assert np.max(np.abs(coarse - fine) / np.where(se > 0, se, 1)) < 3.0

    def test_unstable_generator_rejected(self):
        m = np.diag([0.1 + 0j, -1.0, -1.0, -1.0])
        with pytest.raises(oracle.UnstableError):
            oracle.langevin_covariance(m, 0.45, 1000, 100.0, 0.01, seed=1)


class TestBruteForceDuan:
    def test_vacuum_equal_angles(self):
        c_min, (tp, tm) = oracle.brute_force_duan(0.5 * np.eye(4), 128)
        assert c_min == pytest.approx(0.0, abs=1e-10)
        assert math.cos(tp - tm) == pytest.approx(1.0, abs=1e-3)

    def test_grid_refinement_converges(self):
        s = pump_only_branches(1.2, 1.6)[0]
        sigma = quadrature_covariance(noise_spectrum(build_m(s, 1.55), 0.0))
        c1, _ = oracle.brute_force_duan(sigma, 1024)
        c2, _ = oracle.brute_force_duan(sigma, 2048)
        # doubling keeps every coarse angle, so refinement never loses
        assert c2 <= c1 + 1e-15
        # and the gain is bounded by the grid's quadratic resolution
        # limit, whose scale is set by the largest variance present
        step = 2.0 * math.pi / 1024.0
        bound = 8.0 * step ** 2 * float(np.max(np.linalg.eigvalsh(sigma)))
        assert c1 - c2 < bound + 1e-9

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            oracle.brute_force_duan(0.5 * np.eye(4), 32)
