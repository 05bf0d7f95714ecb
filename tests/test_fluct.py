import math

import numpy as np
import pytest

from kerrcomb import oracle
from kerrcomb.fluct import (
    C_VAC,
    SingularResolventError,
    UnstableStateError,
    build_m,
    intracavity_pair_photons,
    max_eigenvalue_real,
    noise_spectrum,
)
from kerrcomb.steady import (
    Branch,
    SteadyState,
    parametric_branch,
    pump_only_branches,
    threshold,
)

from helpers import drive_of

SWAP = (1, 0, 3, 2)


def empty_state():
    return SteadyState(ap2=0.0, a2=0.0, phi=0.0, psi=0.0,
                       branch=Branch.PUMP_ONLY, stable=True)


class TestBuildM:
    def test_below_threshold_entries(self):
        # A = 0, pump power 0.5, pair detuning 1.0
        state = SteadyState(ap2=0.5, a2=0.0, phi=0.0, psi=0.3,
                            branch=Branch.PUMP_ONLY, stable=True)
        m = build_m(state, 1.0).m
        assert m[0, 0] == pytest.approx(-1.0 + 0.0j, abs=1e-14)
        assert m[0, 3] == pytest.approx(0.5j, abs=1e-14)
        assert m[0, 1] == 0.0
        assert m[0, 2] == 0.0

    def test_empty_cavity_is_diagonal(self):
        m = build_m(empty_state(), 0.8).m
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) == 0.0
        assert m[0, 0] == pytest.approx(-1.0 - 0.8j)
        assert m[1, 1] == pytest.approx(-1.0 + 0.8j)

    def test_conjugation_symmetry(self, rng):
        for _ in range(50):
            f = float(rng.uniform(0.1, 2.0))
            dtp = float(rng.uniform(-2, 3))
            for s in pump_only_branches(f, dtp):
                m = build_m(s, dtp).m
                for i in range(4):
                    for j in range(4):
                        assert m[SWAP[i], SWAP[j]] == np.conj(m[i, j])

    def test_port_closure(self):
        sys_ = build_m(empty_state(), 0.0, intrinsic_fraction=0.3)
        assert sys_.t_in ** 2 + sys_.t_loss ** 2 == pytest.approx(2.0,
                                                                  abs=1e-14)

    def test_matches_fd_jacobian_pump_only(self, rng):
        for _ in range(30):
            f = float(rng.uniform(0.1, 1.2))
            dtp = float(rng.uniform(-1.5, 1.5))
            s = pump_only_branches(f, dtp)[0]
            analytic = build_m(s, dtp).m
            numeric = oracle.fd_jacobian(s, drive_of(f, dtp, dtp))
            assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_matches_fd_jacobian_parametric(self):
        for s in parametric_branch(1.6, 2.4, 2.4):
            analytic = build_m(s, 2.4).m
            numeric = oracle.fd_jacobian(s, drive_of(1.6, 2.4, 2.4))
            assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_stable_states_are_damped(self, rng):
        for _ in range(40):
            f = float(rng.uniform(0.05, 0.9))
            dtp = float(rng.uniform(-1.5, 1.5))
            s = pump_only_branches(f, dtp)[0]
            assert max_eigenvalue_real(build_m(s, dtp)) < 0.0

    def test_parametric_goldstone_handling(self):
        sols = parametric_branch(1.6, 2.4, 2.4)
        stable = [s for s in sols if s.stable]
        assert stable
        for s in stable:
            sys_ = build_m(s, 2.4)
            eigs = np.linalg.eigvals(sys_.m)
            null = int(np.argmin(np.abs(eigs)))
            assert abs(eigs[null]) < 1e-8  # exact phase-split mode
            assert np.max(np.delete(eigs, null).real) < 0.0


def per_sign_spectrum(sys_, omega):
    """S(ω) and S(−ω) with one resolvent inverted per sign, the loop the
    stacked noise_spectrum must match bit for bit."""
    eye, gains = np.eye(4), []
    for w in (omega, -omega):
        r = np.linalg.inv(1j * w * eye - sys_.m)
        gains.append((sys_.t_in * r * sys_.t_in - eye,
                      sys_.t_in * r * sys_.t_loss))
    (in_p, loss_p), (in_m, loss_m) = gains
    return (in_p @ C_VAC @ in_m.T + loss_p @ C_VAC @ loss_m.T,
            in_m @ C_VAC @ in_p.T + loss_m @ C_VAC @ loss_p.T)


class TestNoiseSpectrum:
    def test_stack_equals_per_sign_loop(self, rng):
        systems = []
        while len(systems) < 40:
            f = float(rng.uniform(0.1, 2.5))
            dtp = float(rng.uniform(-1.0, 4.0))
            dtl = dtp + float(rng.uniform(-0.3, 0.3))
            eta = float(rng.uniform(0.05, 0.95))
            states = pump_only_branches(f, dtp) + parametric_branch(f, dtp,
                                                                    dtl)
            systems += [build_m(s, dtl, intrinsic_fraction=eta)
                        for s in states]
        assert any(s.m[0, 1] != 0.0 for s in systems)  # parametric states
        for sys_ in systems:
            w = float(rng.uniform(0.05, 3.0))
            for omega in (0.0, w, -w):
                try:
                    spec = noise_spectrum(sys_, omega)
                except SingularResolventError:
                    continue
                s, s_minus = per_sign_spectrum(sys_, omega)
                assert np.array_equal(spec.s, s)
                assert np.array_equal(spec.s_minus, s_minus)

    def test_vacuum_preserved_without_drive(self):
        sys_ = build_m(empty_state(), 0.7)
        for w in np.linspace(-4.0, 4.0, 101):
            spec = noise_spectrum(sys_, float(w))
            assert np.max(np.abs(spec.s - C_VAC)) < 1e-12

    def test_finite_on_stable_state(self):
        s = pump_only_branches(1.2, 1.6)[0]
        sys_ = build_m(s, 1.55)
        for w in np.linspace(-8.0, 8.0, 1000):
            spec = noise_spectrum(sys_, float(w))
            assert np.all(np.isfinite(spec.s.view(float)))
            assert np.max(np.abs(spec.s)) < 1e4

    def test_one_resolvent_pair_serves_both_signs(self, rng):
        for _ in range(20):
            f = float(rng.uniform(0.1, 1.5))
            dtp = float(rng.uniform(-1.5, 2.5))
            state = next(s for s in pump_only_branches(f, dtp) if s.stable)
            sys_ = build_m(state, float(rng.uniform(-1.0, 2.5)))
            for w in (0.0, 0.3, 1.7, 3.0):
                plus, minus = noise_spectrum(sys_, w), noise_spectrum(sys_, -w)
                assert np.array_equal(minus.s, plus.s_minus)
                assert np.array_equal(minus.s_minus, plus.s)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_rejected(self, omega):
        sys_ = build_m(pump_only_branches(1.2, 1.6)[0], 1.55)
        with pytest.raises(ValueError, match="omega must be finite"):
            noise_spectrum(sys_, omega)

    def test_singular_resolvent_at_marginal_state(self):
        # place the pump exactly on the parametric gain boundary
        dtl = 2.2
        x = (2.0 * dtl - math.sqrt(dtl * dtl - 3.0)) / 3.0
        state = SteadyState(ap2=x, a2=0.0, phi=0.0, psi=0.0,
                            branch=Branch.PUMP_ONLY, stable=True)
        sys_ = build_m(state, dtl)
        assert abs(max_eigenvalue_real(sys_)) < 1e-9
        with pytest.raises(SingularResolventError,
                           match="singular at ω = 0; state is marginal"):
            noise_spectrum(sys_, 0.0)


class TestPairPhotons:
    def test_zero_without_drive(self):
        assert intracavity_pair_photons(build_m(empty_state(), 0.5)) == 0.0

    def test_monotone_in_pump_power(self):
        dtl = 0.0
        previous = -1.0
        for x in np.linspace(0.02, 0.9, 50):
            state = SteadyState(ap2=float(x), a2=0.0, phi=0.0, psi=0.0,
                                branch=Branch.PUMP_ONLY, stable=True)
            n = intracavity_pair_photons(build_m(state, dtl))
            assert n > previous
            previous = n

    def test_diverges_at_gain_boundary(self):
        # pump root driven to within 1e-5 of the instability edge
        dtp, dtl = 1.5, 2.2
        x_edge = (2.0 * dtl - math.sqrt(dtl * dtl - 3.0)) / 3.0
        f_edge = math.sqrt(x_edge * (1.0 + (dtp - x_edge) ** 2))
        values = []
        for rel in (1e-3, 1e-4, 1e-5):
            s = pump_only_branches((1.0 - rel) * f_edge, dtp)[0]
            values.append(intracavity_pair_photons(build_m(s, dtl)))
        assert values[0] < values[1] < values[2]
        assert values[2] > 1e3

    def test_unstable_state_rejected(self):
        dtl = 2.2
        x_edge = (2.0 * dtl - math.sqrt(dtl * dtl - 3.0)) / 3.0
        state = SteadyState(ap2=1.1 * x_edge, a2=0.0, phi=0.0, psi=0.0,
                            branch=Branch.PUMP_ONLY, stable=False)
        with pytest.raises(UnstableStateError):
            intracavity_pair_photons(build_m(state, dtl))

    def test_lyapunov_solution_consistency(self):
        # the solved covariance satisfies M Σ + Σ M† + I = 0
        s = pump_only_branches(1.0, 1.2)[0]
        m = build_m(s, 1.1).m
        a = np.kron(np.eye(4), m) + np.kron(np.conj(m), np.eye(4))
        sigma = np.linalg.solve(
            a, -np.eye(4).flatten(order="F").astype(complex))
        sigma = sigma.reshape((4, 4), order="F")
        resid = m @ sigma + sigma @ np.conj(m).T + np.eye(4)
        assert np.max(np.abs(resid)) < 1e-12
