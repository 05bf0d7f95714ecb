"""Linearized quantum fluctuations and output noise spectra.

Fluctuations of the signal/idler pair around a steady state evolve, in the
frame rotated by the steady phases and with time in units of 1/Γ, as

    d(δA)/dτ = M δA + T_in δA_in + T_loss δA_loss,

where δA = (δa₋, δa₋†, δa₊, δa₊†). The pump is treated as a classical
field, so M is 4×4. Its first row, derived by linearizing the mean-field
equations (see docs/derivation.md), is

    M[0,0] = −1 + i(2A_p² + 4A² − Δ̃_L)
    M[0,1] = iA²
    M[0,2] = 2iA²
    M[0,3] = i(2A² + A_p² e^{−iφ})

and the remaining rows follow from conjugation (rows for the daggered
components) and the signal/idler exchange symmetry. The input/output
couplings are scalar: T_in = √(2γ/Γ)·I, T_loss = √(2μ/Γ)·I, and the
output port reuses the coupling rate, T_out = T_in, so
T_in² + T_loss² = 2·I exactly.

The detected-field spectral density against vacuum inputs is

    S(ω) = (T R(ω) T_in − I) C_vac (T R(−ω) T_in − I)ᵀ
         + (T R(ω) T_loss) C_vac (T R(−ω) T_loss)ᵀ,

with R(ω) = (iω − M)⁻¹ and the vacuum correlation C_vac carrying ones at
the ⟨δa δa†⟩ slots only. A passive cavity returns S(ω) = C_vac for
every ω, which is the main self-test of the sign conventions here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .steady import SteadyState

__all__ = [
    "FluctuationSystem",
    "NoiseSpectrum",
    "SingularResolventError",
    "UnstableStateError",
    "C_VAC",
    "DEFAULT_INTRINSIC_FRACTION",
    "build_m",
    "noise_spectrum",
    "intracavity_pair_photons",
    "max_eigenvalue_real",
]

_EYE4 = np.eye(4)

# vacuum correlations <dA_i(w) dA_j(-w)>: only <a a†> entries survive
C_VAC = np.zeros((4, 4))
C_VAC[0, 1] = 1.0
C_VAC[2, 3] = 1.0
C_VAC.setflags(write=False)

# μ/Γ used when a drive comes without a modal family (raw normalized input)
DEFAULT_INTRINSIC_FRACTION = 0.45


class SingularResolventError(np.linalg.LinAlgError):
    """iω − M is singular; the analysis frequency hits a marginal mode."""


class UnstableStateError(ValueError):
    """Operation requires a dynamically stable steady state."""


@dataclass(frozen=True)
class FluctuationSystem:
    """Fluctuation generator M plus the scalar port couplings.

    T_in and T_loss multiply the identity; T_out = T_in, so only the
    two scalars are stored and t_in² + t_loss² = 2 holds by construction.
    """

    m: np.ndarray
    t_in: float
    t_loss: float

    def __post_init__(self) -> None:
        if self.m.shape != (4, 4):
            raise ValueError("m must be 4x4")


@dataclass(frozen=True)
class NoiseSpectrum:
    """Output spectral density at ±ω (both needed for covariances).

    ``s`` is S(ω) and ``s_minus`` is S(−ω), computed from the same
    resolvent.
    """

    s: np.ndarray
    s_minus: np.ndarray


def build_m(state: SteadyState, dtl: float,
            intrinsic_fraction: float = DEFAULT_INTRINSIC_FRACTION,
            ) -> FluctuationSystem:
    """Fluctuation system around a steady state.

    Below threshold the pair phase is a pure gauge; the stored phi = 0
    convention fixes it without affecting any rotation-minimized result.
    intrinsic_fraction sets the μ/Γ split of the port couplings.
    """
    x = state.ap2
    y = state.a2
    diag = -1.0 + 1j * (2.0 * x + 4.0 * y - dtl)
    pair = 1j * (2.0 * y + x * np.exp(-1j * state.phi))
    spm = 1j * y
    xpm = 2j * y
    m = np.array([
        [diag, spm, xpm, pair],
        [np.conj(spm), np.conj(diag), np.conj(pair), np.conj(xpm)],
        [xpm, pair, diag, spm],
        [np.conj(pair), np.conj(xpm), np.conj(spm), np.conj(diag)],
    ])
    return FluctuationSystem(
        m=m, t_in=math.sqrt(2.0 * (1.0 - intrinsic_fraction)),
        t_loss=math.sqrt(2.0 * intrinsic_fraction))


def max_eigenvalue_real(sys: FluctuationSystem) -> float:
    return float(np.max(np.linalg.eigvals(sys.m).real))


def noise_spectrum(sys: FluctuationSystem, omega: float) -> NoiseSpectrum:
    """Output spectral noise density S at ±omega (units of Γ).

    S(ω) pairs R(ω) with R(−ω) and S(−ω) pairs them the other way round,
    so one resolvent per sign serves both.
    """
    gains = []
    for w in (omega, -omega):
        shifted = 1j * w * _EYE4 - sys.m
        if abs(np.linalg.det(shifted)) < 1e-14:
            raise SingularResolventError(
                f"iω − M singular at ω = {w:g}; state is marginal")
        r = np.linalg.inv(shifted)
        # T_out = T_in: each gain is t_in·R·t_in or t_in·R·t_loss
        gains.append((sys.t_in * r * sys.t_in - _EYE4,
                      sys.t_in * r * sys.t_loss))
    (in_p, loss_p), (in_m, loss_m) = gains
    s = in_p @ C_VAC @ in_m.T + loss_p @ C_VAC @ loss_m.T
    s_minus = in_m @ C_VAC @ in_p.T + loss_m @ C_VAC @ loss_p.T
    return NoiseSpectrum(s=s, s_minus=s_minus)


def intracavity_pair_photons(sys: FluctuationSystem) -> float:
    """Steady fluctuation-driven photon number ⟨δa†δa⟩ per pair mode.

    Solves the Lyapunov equation M Σ + Σ M† + D = 0 for the symmetrized
    intracavity covariance Σ = ⟨δA δA†⟩ with vacuum inputs, for which
    D = ½(T_in² + T_loss²) = I. The population is the symmetrized
    variance minus the vacuum half.
    """
    if max_eigenvalue_real(sys) >= -1e-12:
        raise UnstableStateError("M is not strictly Hurwitz; the stationary "
                                 "covariance does not exist")
    m = sys.m
    # vec (column-major) of M Σ + Σ M† = -I
    a = np.kron(_EYE4, m) + np.kron(np.conj(m), _EYE4)
    sigma = np.linalg.solve(a, -_EYE4.flatten(order="F").astype(complex))
    sigma = sigma.reshape((4, 4), order="F")
    population = sigma[0, 0].real - 0.5
    return float(max(population, 0.0))
