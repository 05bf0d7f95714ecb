"""Two-mode entanglement witness from output quadrature covariances.

Quadratures use X = (a + a†)/√2 and Y = −i(a − a†)/√2, so vacuum has
variance ½ in each. From the 4×4 covariance σ over (X₁, Y₁, X₂, Y₂) the
rotated joint quadratures

    (Y_±ʳᵒᵗ, X_±ʳᵒᵗ)ᵀ = R(θ_±) (Y_±, X_±)ᵀ,   Y_± = (Y₁ ± Y₂)/√2, ...

define the witness value

    C(θ₊, θ₋) = Δ²(X₋ʳᵒᵗ) + Δ²(Y₊ʳᵒᵗ) − |cos(θ₊ − θ₋)|,

which is nonnegative for every separable Gaussian state; a negative
minimum over the two angles certifies entanglement, and its depth is the
usable entanglement degree. Vacuum sits exactly on the boundary,
C_min = 0.

On the operating path every σ comes from a pump-only state, where the
chain M → S(±ω) → σ → C_min has a closed form, ``pump_only_witness``
(docs/derivation.md); the phase classification and the single-point
commands use it. ``quadrature_covariance`` serves the printed spectra,
and ``minimize_duan`` a general σ (``duan --sigma-json``): at a fixed
angle difference the minimum over the common angle is closed form, so
it searches the one angle θ₊ − θ₋. The exhaustive grid scan in
``kerrcomb.oracle`` is used only as a test oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fluct import NoiseSpectrum, SingularResolventError

__all__ = [
    "DuanResult",
    "NotSymmetricError",
    "quadrature_covariance",
    "duan_value",
    "minimize_duan",
    "pump_only_witness",
]

# (a, a†, a, a†) -> (X1, Y1, X2, Y2)
_U_BLOCK = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / math.sqrt(2.0)
_U = np.zeros((4, 4), dtype=complex)
_U[:2, :2] = _U_BLOCK
_U[2:, 2:] = _U_BLOCK
_U.setflags(write=False)

_V_XMINUS = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
_V_YMINUS = np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2.0)
_V_XPLUS = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
_V_YPLUS = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)

_SYMMETRY_TOL = 1e-6  # largest symmetrization residual σ may carry
_DELTA_GRID = 64      # periodic Δ samples seeding minimize_duan

# each Δ sample's two neighbours on minimize_duan's periodic grid, and
# the 33 sample numbers of each zoom level (see _zoom_offsets)
_NEIGHBOURS = (np.arange(_DELTA_GRID) + np.array([[-1], [1]])) % _DELTA_GRID
_ZOOM = np.arange(33.0)
_NEIGHBOURS.setflags(write=False)
_ZOOM.setflags(write=False)


class NotSymmetricError(ValueError):
    """Covariance symmetrization residual too large (upstream bug)."""


@dataclass(frozen=True)
class DuanResult:
    """Minimized witness value and the optimizing rotation angles."""

    c_min: float
    theta_plus: float
    theta_minus: float
    entangled: bool


def quadrature_covariance(spec: NoiseSpectrum) -> np.ndarray:
    """Symmetrized quadrature covariance σ over (X₁, Y₁, X₂, Y₂).

    Builds σ_ab = ½⟨{R_a(ω), R_b(−ω)}⟩ from the two one-sided spectra,
    σ = ½(U S(ω) Uᵀ + (U S(−ω) Uᵀ)ᵀ); the antisymmetric commutator parts
    cancel in this combination, so any surviving imaginary or asymmetric
    residue signals an inconsistent spectrum.
    """
    g = _U @ np.array((spec.s, spec.s_minus)) @ _U.T
    sigma_c = 0.5 * (g[0] + g[1].T)
    resid = max(np.max(np.abs(sigma_c.imag)),
                np.max(np.abs(sigma_c - sigma_c.T)))
    if resid > _SYMMETRY_TOL:
        raise NotSymmetricError(
            f"covariance symmetrization residual {resid:.3e} exceeds "
            f"{_SYMMETRY_TOL:g}")
    sigma = sigma_c.real
    return 0.5 * (sigma + sigma.T)


def _trig_coefficients(sigma: np.ndarray) -> tuple[float, ...]:
    """C(θ₊, θ₋) = const + r_m·cos(2θ₋ + d_m) + r_p·cos(2θ₊ + d_p) − |cos Δθ|."""
    a_m = _V_XMINUS @ sigma @ _V_XMINUS
    b_m = _V_YMINUS @ sigma @ _V_YMINUS
    c_m = _V_XMINUS @ sigma @ _V_YMINUS
    a_p = _V_XPLUS @ sigma @ _V_XPLUS
    b_p = _V_YPLUS @ sigma @ _V_YPLUS
    c_p = _V_XPLUS @ sigma @ _V_YPLUS
    const = 0.5 * (a_m + b_m) + 0.5 * (a_p + b_p)
    # Δ²(X₋ʳᵒᵗ) = ... + ((a−b)/2)cos2θ₋ − c·sin2θ₋
    # Δ²(Y₊ʳᵒᵗ) = ... − ((a−b)/2)cos2θ₊ + c·sin2θ₊
    return (const, 0.5 * (a_m - b_m), -c_m, -0.5 * (a_p - b_p), c_p)


def _check_symmetric(sigma: np.ndarray) -> None:
    """np.allclose(σ, σᵀ, atol=1e-9) written out, without its dispatch:
    |σ − σᵀ| ≤ 1e-9 + 1e-5·|σᵀ| elementwise, False on NaN."""
    if not (np.abs(sigma - sigma.T) <= 1e-9 + 1e-5 * np.abs(sigma.T)).all():
        raise NotSymmetricError("sigma must be symmetric")


def _value(sigma: np.ndarray, theta_plus: float, theta_minus: float) -> float:
    """``duan_value`` on a σ already checked."""
    u1 = math.cos(theta_minus) * _V_XMINUS - math.sin(theta_minus) * _V_YMINUS
    u2 = math.cos(theta_plus) * _V_YPLUS + math.sin(theta_plus) * _V_XPLUS
    return float(u1 @ sigma @ u1 + u2 @ sigma @ u2
                 - abs(math.cos(theta_plus - theta_minus)))


def duan_value(sigma: np.ndarray, theta_plus: float,
               theta_minus: float) -> float:
    """Witness value C at one pair of rotation angles."""
    _check_symmetric(sigma)
    return _value(sigma, theta_plus, theta_minus)


def _zoom_offsets(step: float) -> np.ndarray:
    """np.linspace(−step, step, 33) bit for bit, by linspace's own
    arithmetic: arange(33)·(step/16) − step, last entry exactly step."""
    offsets = _ZOOM * (step / 16.0) - step
    offsets[-1] = step
    return offsets


def minimize_duan(sigma: np.ndarray) -> DuanResult:
    """Global minimum of C over both angles, searched along one.

    At fixed Δ = θ₊ − θ₋ the two harmonics add up to Re(W e^{2iθ₋}),
    W = w₋ + w₊e^{2iΔ}, whose least value −|W| is reached at
    2θ₋ = π − arg W; so C_min = const + min over Δ ∈ [0, π) of
    −|W(Δ)| − |cos Δ|. Its slope drops at both of its kinks (W = 0 and
    Δ = π/2), so every minimum is smooth: each local minimum of a
    periodic Δ grid is zoomed (33 points over ±step, then step /= 16)
    below 1e-10 rad, and C is evaluated at the best angles as
    ``duan_value`` does (docs/derivation.md).

    σ is checked once, before the search: a shape other than 4×4
    or a non-finite entry raises ValueError naming the defect, and an
    asymmetric σ raises NotSymmetricError under ``duan_value``'s rule.
    """
    if np.shape(sigma) != (4, 4):
        raise ValueError(f"sigma must be 4x4, not {np.shape(sigma)}")
    if not np.isfinite(sigma).all():
        raise ValueError("sigma has non-finite entries")
    _check_symmetric(sigma)
    _, cm2, sm2, cp2, sp2 = _trig_coefficients(sigma)
    w_minus, w_plus = complex(cm2, -sm2), complex(cp2, -sp2)

    def depth(delta):
        return (-np.abs(w_minus + w_plus * np.exp(2j * delta))
                - np.abs(np.cos(delta)))

    step = math.pi / _DELTA_GRID
    delta = step * np.arange(_DELTA_GRID)
    f = depth(delta)
    delta = delta[(f <= f[_NEIGHBOURS[0]]) & (f <= f[_NEIGHBOURS[1]])]
    while step > 1e-10:
        trial = delta[:, None] + _zoom_offsets(step)
        delta = trial[np.arange(len(trial)), np.argmin(depth(trial), axis=1)]
        step /= 16.0
    d = float(delta[np.argmin(depth(delta))])
    tm = (math.pi - cmath.phase(w_minus + w_plus * cmath.exp(2j * d))) / 2.0
    tp, tm = (tm + d) % math.pi, tm % math.pi
    c_min = _value(sigma, tp, tm)
    # strict negativity up to rounding: vacuum sits exactly on C = 0
    return DuanResult(c_min=c_min, theta_plus=tp, theta_minus=tm,
                      entangled=c_min < -1e-12)


def pump_only_witness(ap2: float, dtl: float, omega: float,
                      intrinsic_fraction: float) -> DuanResult:
    """Exact minimized witness of a pump-only state at analysis frequency ω.

    With x = ap2, δ = 2x − Δ̃_L, q = 1 + δ² − x² − ω², z = 2δ + i(2 − q)
    and η = intrinsic_fraction: C_min = −4(1 − η)x/(2x + |z|) at
    θ₊ = θ₋ = ((arg z + π)/2) mod π (docs/derivation.md). Like
    ``noise_spectrum`` it raises ValueError on a non-finite ω and
    SingularResolventError when |det(iω − M)| = q² + 4ω² is below 1e-14.
    """
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, not {omega}")
    delta = 2.0 * ap2 - dtl
    q = 1.0 + delta * delta - ap2 * ap2 - omega * omega
    if q * q + 4.0 * omega * omega < 1e-14:
        raise SingularResolventError(f"iω − M singular at ω = {omega:g}")
    z = complex(2.0 * delta, 2.0 - q)
    c_min = float(-4.0 * (1.0 - intrinsic_fraction) * ap2
                  / (2.0 * ap2 + abs(z)))
    theta = ((cmath.phase(z) + math.pi) / 2.0) % math.pi
    return DuanResult(c_min=c_min, theta_plus=theta, theta_minus=theta,
                      entangled=c_min < -1e-12)
