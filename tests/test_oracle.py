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

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_batches": 1}, "n_batches"),
        ({"n_batches": 2000}, "n_batches"),
        ({"dt": 0.0}, "dt"),
        ({"dt": -0.01}, "dt"),
        ({"t_burn": -5.0}, "t_burn"),
        ({"m": np.diag([-1.0 + 0j, -1.0, -1.0, -2.0])}, "conjugate"),
    ], ids=["one_batch", "more_batches_than_samples", "zero_dt",
            "negative_dt", "negative_burn", "unpaired_m"])
    def test_bad_input_rejected(self, kwargs, match):
        args = {"m": build_m(pump_only_branches(0.7, 0.4)[0], 0.4).m,
                "intrinsic_fraction": 0.45, "n_samples": 1000,
                "t_end": 100.0, "dt": 0.01, "seed": 1}
        with pytest.raises(ValueError, match=match):
            oracle.langevin_covariance(**{**args, **kwargs})

    # burn 129 = 128 + 1 steps and window 300 = 2·128 + 44 steps, so a
    # single-step chunk and a short remainder chunk both occur; in the
    # 1 + 2 step case with a coarse step, one wrong step shows at full
    # weight in both the noise and the state-driven part
    @pytest.mark.parametrize("dt, n_burn, n_obs",
                             [(0.05, 129, 300), (0.5, 1, 2)])
    def test_samples_the_euler_chain_law(self, dt, n_burn, n_obs):
        s = pump_only_branches(1.0, 1.2)[0]
        sys_ = build_m(s, 1.1)
        t_obs = n_obs * dt
        cov, se = oracle.langevin_covariance(sys_.m, 0.45, 20000,
                                             (n_burn + n_obs) * dt, dt,
                                             seed=1, t_burn=n_burn * dt)
        # exact second moments of (δA, window sum) in the doubled complex
        # basis, advanced one Euler step at a time
        t_in, t_loss = sys_.t_in, sys_.t_loss
        eye, zero = np.eye(4), np.zeros((4, 4))
        p = np.zeros((8, 8), dtype=complex)
        for k in range(n_burn + n_obs):
            obs = float(k >= n_burn)
            f = np.block([[eye + dt * sys_.m, zero], [obs * t_in * dt * eye,
                                                      eye]])
            b = np.vstack([eye, -obs * (t_in / 2.0) * eye])
            p = f @ p @ f.conj().T + dt * (b @ b.T)
            p[4:, 4:] += obs * dt * (t_loss ** 2 / 4.0) * eye
        u_block = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / math.sqrt(2.0)
        u = np.kron(np.eye(2), u_block)
        exact = (u @ p[4:, 4:] @ u.conj().T).real / t_obs
        z = (cov - exact) / se
        assert np.max(np.abs(z)) < 3.0


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
