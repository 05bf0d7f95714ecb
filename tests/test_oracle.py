import math
import re
import subprocess
import sys

import numpy as np
import pytest

from kerrcomb import oracle
from kerrcomb.duan import quadrature_covariance
from kerrcomb.fluct import build_m, noise_spectrum
from kerrcomb.steady import Branch, SteadyState, pump_only_branches

from helpers import drive_of


def _rk4_endpoint(init, f, dtp, dtl, t_end, dt):
    """Fixed-step RK4 endpoint: a reference integrator for relax_batch."""
    amps = np.array(init, dtype=complex)
    for _ in range(round(t_end / dt)):
        k1 = oracle.mean_field_rhs_batch(amps, f, dtp, dtl)
        k2 = oracle.mean_field_rhs_batch(amps + 0.5 * dt * k1, f, dtp, dtl)
        k3 = oracle.mean_field_rhs_batch(amps + 0.5 * dt * k2, f, dtp, dtl)
        k4 = oracle.mean_field_rhs_batch(amps + dt * k3, f, dtp, dtl)
        amps = amps + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return amps


class TestMeanField:
    def test_undriven_cavity_decays(self, rng):
        init = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        final = oracle.relax_batch(init, 0.0, 0.4, 0.4, t_end=20.0)
        assert np.max(np.abs(final)) < 1e-8

    @pytest.mark.parametrize("t_end", [2.0, 20.0])
    def test_undriven_decay_closed_form(self, t_end):
        # with F = 0 a lone pump, or a lone signal/idler pair, keeps every
        # |α|² at |α₀|²e^{−2t}, so α(t) = α₀e^{−(1+iΔ̃)t}·e^{iK(1−e^{−2t})/2}
        # with K the SPM/XPM sum of the initial powers
        init = np.array([[0.7 + 0.4j, 0.0, 0.0],
                         [0.0, 0.5 - 0.3j, -0.2 + 0.6j]]).T
        dtp, dtl = 0.8, -0.6
        kerr = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0],
                         [2.0, 2.0, 1.0]]) @ np.abs(init) ** 2
        detuning = np.array([[dtp], [dtl], [dtl]])
        exact = (init * np.exp(-(1.0 + 1j * detuning) * t_end)
                 * np.exp(0.5j * kerr * (1.0 - math.exp(-2.0 * t_end))))
        final = oracle.relax_batch(init, 0.0, dtp, dtl, t_end)
        assert np.max(np.abs(final - exact)) < 1e-10

    def test_fixed_point_stays_put(self):
        f, dtp = 0.8, 0.5
        s = pump_only_branches(f, dtp)[0]
        a_p = math.sqrt(s.ap2) * np.exp(-1j * s.psi)
        final = oracle.relax_batch(np.array([[a_p], [0.0], [0.0]]), f, dtp,
                                   dtp, t_end=40.0)
        assert abs(final[0, 0] - a_p) < 1e-8


class TestRelaxBatch:
    @staticmethod
    def _perturbed_states(rng):
        """19 pump-only roots plus one a step from the fold, perturbed."""
        f = [float(rng.uniform(0.2, 1.2)) for _ in range(19)]
        dtp = [float(rng.uniform(-1.0, 1.5)) for _ in range(19)]
        init = [[math.sqrt(s.ap2) * np.exp(-1j * s.psi), 0.0, 0.0]
                for s in (pump_only_branches(*d)[0] for d in zip(f, dtp))]
        # lower root where x² − (Δ̃ − 2x)² = 0.98², so the slow
        # eigenvalue of M is −1 + 0.98 = −0.02
        d, x = 2.5, (5.0 - math.sqrt(6.25 - 3 * 0.98 ** 2)) / 3.0
        f.append(math.sqrt(x * (1.0 + (d - x) ** 2)))
        dtp.append(d)
        init.append([f[-1] / (1.0 + 1j * (d - x)), 0.0, 0.0])
        init = np.array(init).T
        init += 1e-3 * (rng.standard_normal(init.shape)
                        + 1j * rng.standard_normal(init.shape))
        return init, np.array(f), np.array(dtp)

    def test_columns_step_alone(self, rng):
        init, f, dtp = self._perturbed_states(rng)
        batch = oracle.relax_batch(init, f, dtp, dtp, t_end=5.0)
        for k in range(init.shape[1]):
            alone = oracle.relax_batch(init[:, [k]], f[k], dtp[k], dtp[k],
                                       t_end=5.0)
            assert np.array_equal(batch[:, k], alone[:, 0])

    def test_matches_fine_rk4(self, rng):
        init, f, dtp = self._perturbed_states(rng)
        adaptive = oracle.relax_batch(init, f, dtp, dtp, t_end=20.0)
        rk4 = _rk4_endpoint(init, f, dtp, dtp, t_end=20.0, dt=0.01)
        assert np.max(np.abs(adaptive - rk4)) < 1e-10

    def test_blowup_detected(self):
        init = np.full((3, 1), 1e3 + 0j)
        with pytest.raises(oracle.NonFiniteError):
            oracle.relax_batch(init, 1e8, 0.0, 0.0, t_end=50.0)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
    def test_bad_t_end_rejected(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            oracle.relax_batch(np.zeros((3, 1)), 0.5, 0.2, 0.2, t_end)

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(0.1, math.nan)])
    def test_non_finite_init_rejected(self, bad):
        init = np.array([[0.1, 0.2], [0.0, bad], [0.0, 0.0]])
        with pytest.raises(ValueError, match="init"):
            oracle.relax_batch(init, 0.5, 0.2, 0.2, 1.0)

    def test_imports_numpy_only(self):
        code = ("import sys; from kerrcomb import oracle; "
                "oracle.relax_batch([[0.1], [0], [0]], 0.5, 0.2, 0.2, 1.0); "
                "assert 'scipy' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True)


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


C = oracle.LANGEVIN_CHUNK_STEPS


def _real_generator(m):
    """M in the real coordinates (Re δa₋, Im δa₋, Re δa₊, Im δa₊)."""
    pairs = np.kron(np.eye(2), [[1.0, 1.0j], [1.0, -1.0j]])
    return np.linalg.solve(pairs, m @ pairs).real


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

    def test_step_past_euler_limit_rejected(self):
        # criterion 7's point: M has eigenvalues −1.53 and −0.47, so the
        # Euler map I + dt·M contracts only for dt < 2/1.53
        m = build_m(pump_only_branches(1.0, 1.2)[0], 1.1).m
        lam = np.linalg.eigvals(m)
        limit = float(np.min(-2.0 * lam.real / np.abs(lam) ** 2))
        assert limit == pytest.approx(2.0 / 1.5317, rel=1e-4)
        for dt in (2.5, limit * (1.0 + 1e-9)):
            with pytest.raises(ValueError, match=re.escape(f"dt = {dt!r} ")):
                oracle.langevin_covariance(m, 0.45, 1000, 100.0, dt, seed=1,
                                           t_burn=10.0)
        cov, se = oracle.langevin_covariance(m, 0.45, 1000, 100.0,
                                             limit * (1.0 - 1e-9), seed=1,
                                             t_burn=10.0)
        assert np.all(np.isfinite(cov)) and np.all(np.isfinite(se))

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_batches": 1}, "n_batches"),
        ({"n_batches": 2000}, "n_batches"),
        ({"dt": 0.0}, "dt"),
        ({"dt": -0.01}, "dt"),
        ({"t_burn": -5.0}, "t_burn"),
        ({"m": np.diag([-1.0 + 0j, -1.0, -1.0, -2.0])}, "conjugate"),
        ({"t_end": math.inf}, "t_end"),
        ({"t_end": math.nan}, "t_end"),
        ({"dt": math.inf}, "dt"),
        ({"dt": math.nan}, "dt"),
        ({"intrinsic_fraction": math.nan}, "intrinsic_fraction"),
        ({"intrinsic_fraction": math.inf}, "intrinsic_fraction"),
        ({"intrinsic_fraction": 1.2}, "intrinsic_fraction"),
        ({"intrinsic_fraction": -0.1}, "intrinsic_fraction"),
    ], ids=["one_batch", "more_batches_than_samples", "zero_dt",
            "negative_dt", "negative_burn", "unpaired_m", "infinite_t_end",
            "nan_t_end", "infinite_dt", "nan_dt", "nan_intrinsic",
            "infinite_intrinsic", "intrinsic_above_one",
            "negative_intrinsic"])
    def test_bad_input_rejected(self, kwargs, match):
        args = {"m": build_m(pump_only_branches(0.7, 0.4)[0], 0.4).m,
                "intrinsic_fraction": 0.45, "n_samples": 1000,
                "t_end": 100.0, "dt": 0.01, "seed": 1}
        with pytest.raises(ValueError, match=match):
            oracle.langevin_covariance(**{**args, **kwargs})

    # burn C + 1 steps and window 2·C + 44 steps (C the chunk length), so
    # full chunks, a single-step chunk and a short remainder chunk all
    # occur; in the 1 + 2 step case with a coarse step, one wrong step
    # shows at full weight in both the noise and the state-driven part
    @pytest.mark.parametrize("dt, n_burn, n_obs",
                             [(0.05, C + 1, 2 * C + 44), (0.5, 1, 2)])
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


def _per_chunk_langevin(m, intrinsic_fraction, n_samples, t_end, dt, seed,
                        t_burn, n_batches):
    """The sampler with one draw per generator and chunk, as a reference.

    Same chain and chunk maps as ``oracle.langevin_covariance``, but
    every generator draws its (8, n_b) normals afresh for each chunk and
    the batches are joined with ``np.hstack``.
    """
    t_in = math.sqrt(2.0 * (1.0 - intrinsic_fraction))
    t_loss = math.sqrt(2.0 * intrinsic_fraction)
    n_burn = int(round(t_burn / dt))
    n_obs = int(round((t_end - t_burn) / dt))
    t_obs = n_obs * dt
    gens = [np.random.default_rng(ss)
            for ss in np.random.SeedSequence(seed).spawn(n_batches)]
    per_batch = [n_samples // n_batches] * n_batches
    for i in range(n_samples % n_batches):
        per_batch[i] += 1
    edges = np.concatenate(([0], np.cumsum(per_batch)))
    stepper = np.eye(4) + dt * _real_generator(m)

    state = np.zeros((4, n_samples))
    out_sum = np.zeros((4, n_samples))
    for phase_steps, observe in ((n_burn, False), (n_obs, True)):
        for done in range(0, phase_steps, C):
            lift, root = oracle._chunk_map(stepper, dt, t_in,
                                           min(C, phase_steps - done))
            normals = np.hstack([g.standard_normal((8, n))
                                 for g, n in zip(gens, per_batch)])
            step = lift @ state + root @ normals
            state = step[:4]
            if observe:
                out_sum += step[4:]
    xi_scale = (t_loss / 2.0) * math.sqrt(t_obs / 2.0)
    out_sum -= xi_scale * np.hstack([g.standard_normal((4, n))
                                     for g, n in zip(gens, per_batch)])
    quad = math.sqrt(2.0) * out_sum / t_obs
    batch_covs = np.zeros((n_batches, 4, 4))
    for b in range(n_batches):
        q = quad[:, edges[b]:edges[b + 1]]
        est = t_obs * (q @ q.T) / per_batch[b]
        batch_covs[b] = 0.5 * (est + est.T)
    return (batch_covs.mean(axis=0),
            batch_covs.std(axis=0, ddof=1) / math.sqrt(n_batches))


class TestLangevinBlockDraw:
    # a block holds NOISE_BLOCK_NORMALS // (8·n_samples) chunks of up to
    # C steps: 8 chunks at 1000 samples, 1 chunk from 8193 samples on
    @pytest.mark.parametrize("n_samples, n_batches, dt, n_burn, n_obs", [
        (1001, 50, 1 / 16, C + 1, 2 * C + 44),
        (1000, 25, 1 / 16, 5 * C, 6 * C),
        (1000, 25, 0.5, 1, 2),
        (1000, 7, 1 / 16, 3 * C + 5, 2 * C),
        (9000, 3, 1 / 16, C + 1, 44),
    ], ids=["uneven_batches", "final_partial_block", "single_step_chunks",
            "block_spans_burn_in", "one_chunk_per_block"])
    def test_same_stream_as_per_chunk_draws(self, n_samples, n_batches, dt,
                                            n_burn, n_obs):
        m = build_m(pump_only_branches(1.0, 1.2)[0], 1.1).m
        args = (m, 0.45, n_samples, (n_burn + n_obs) * dt, dt, 17,
                n_burn * dt, n_batches)
        cov, se = oracle.langevin_covariance(*args)
        ref_cov, ref_se = _per_chunk_langevin(*args)
        assert np.array_equal(cov, ref_cov)
        assert np.array_equal(se, ref_se)


class TestChunkMap:
    # two of criterion 7's points; spans around one chunk and well past it
    @pytest.mark.parametrize("f, dtp, dtl", [(1.0, 1.2, 1.1),
                                             (1.3, 1.7, 1.72)])
    @pytest.mark.parametrize("dt", [0.01, 0.05])
    def test_matches_one_step_recursion(self, f, dtp, dtl, dt):
        state = [s for s in pump_only_branches(f, dtp) if s.stable][0]
        stepper = np.eye(4) + dt * _real_generator(build_m(state, dtl).m)
        t_in = math.sqrt(2.0 * (1.0 - 0.45))
        eye, zero = np.eye(4), np.zeros((4, 4))
        gain = np.vstack((eye, -(t_in / 2.0) * eye))
        # one step: (δA, window sum) ↦ [[A, 0], [T_out·dτ·I, I]]·(δA, sum)
        # plus noise of covariance (dτ/2)·g·gᵀ
        step = np.block([[stepper, zero], [(t_in * dt) * eye, eye]])
        lift, cov = np.vstack((eye, zero)), np.zeros((8, 8))
        spans = {1, 2, 3, C - 1, C, C + 1, 5000}
        for k in range(1, max(spans) + 1):
            lift = step @ lift
            cov = step @ cov @ step.T + (dt / 2.0) * gain @ gain.T
            if k in spans:
                got_lift, root = oracle._chunk_map(stepper, dt, t_in, k)
                assert (np.max(np.abs(got_lift - lift))
                        <= 1e-12 * np.max(np.abs(lift)))
                assert (np.max(np.abs(root @ root.T - cov))
                        <= 1e-12 * np.max(np.abs(cov)))


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
