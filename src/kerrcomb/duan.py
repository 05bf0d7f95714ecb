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

In the closed trig form of C the angles enter through one 2θ₋ and one
2θ₊ harmonic plus |cos(θ₊ − θ₋)|. Every σ on the operating path comes
from a pump-only state, whose two harmonics are equal; ``exact_duan``
then gives the minimum in closed form, and it is what the phase
classification and the single-point commands use. ``minimize_duan``, a
deterministic coarse grid plus coordinate descent, serves a general σ
(``duan --sigma-json``). The exhaustive grid scan lives in
``kerrcomb.oracle`` and is used only as a test oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fluct import NoiseSpectrum

__all__ = [
    "DuanResult",
    "NotSymmetricError",
    "quadrature_covariance",
    "duan_value",
    "minimize_duan",
    "exact_duan",
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
_COARSE = 64          # grid points per angle seeding minimize_duan


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
    g_plus = _U @ spec.s @ _U.T
    g_minus = _U @ spec.s_minus @ _U.T
    sigma_c = 0.5 * (g_plus + g_minus.T)
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


def _value_from_coeffs(coeffs: tuple[float, ...], tp: float,
                       tm: float) -> float:
    const, cm2, sm2, cp2, sp2 = coeffs
    return (const + cm2 * math.cos(2 * tm) + sm2 * math.sin(2 * tm)
            + cp2 * math.cos(2 * tp) + sp2 * math.sin(2 * tp)
            - abs(math.cos(tp - tm)))


def duan_value(sigma: np.ndarray, theta_plus: float,
               theta_minus: float) -> float:
    """Witness value C at one pair of rotation angles."""
    if not np.allclose(sigma, sigma.T, atol=1e-9):
        raise NotSymmetricError("sigma must be symmetric")
    u1 = math.cos(theta_minus) * _V_XMINUS - math.sin(theta_minus) * _V_YMINUS
    u2 = math.cos(theta_plus) * _V_YPLUS + math.sin(theta_plus) * _V_XPLUS
    return float(u1 @ sigma @ u1 + u2 @ sigma @ u2
                 - abs(math.cos(theta_plus - theta_minus)))


def minimize_duan(sigma: np.ndarray) -> DuanResult:
    """Global minimum of C over both angles.

    A coarse grid over [0, 2π)² seeds coordinate descent with a halving
    step, stopping below 1e-6 rad. The landscape is a sum of 2θ
    harmonics and |cos Δθ| so the coarse grid cannot miss the basin.
    """
    coeffs = _trig_coefficients(sigma)
    thetas = np.linspace(0.0, 2.0 * math.pi, _COARSE, endpoint=False)
    tp_grid, tm_grid = np.meshgrid(thetas, thetas, indexing="ij")
    const, cm2, sm2, cp2, sp2 = coeffs
    values = (const + cm2 * np.cos(2 * tm_grid) + sm2 * np.sin(2 * tm_grid)
              + cp2 * np.cos(2 * tp_grid) + sp2 * np.sin(2 * tp_grid)
              - np.abs(np.cos(tp_grid - tm_grid)))
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)
    tp, tm = float(thetas[i]), float(thetas[j])
    best = _value_from_coeffs(coeffs, tp, tm)
    step = 2.0 * math.pi / _COARSE
    while step > 1e-6:
        improved = False
        for dtp_, dtm_ in ((step, 0.0), (-step, 0.0), (0.0, step),
                           (0.0, -step), (step, step), (-step, -step)):
            cand = _value_from_coeffs(coeffs, tp + dtp_, tm + dtm_)
            if cand < best - 1e-15:
                tp += dtp_
                tm += dtm_
                best = cand
                improved = True
        if not improved:
            step *= 0.5
    tp %= 2.0 * math.pi
    tm %= 2.0 * math.pi
    # strict negativity up to rounding: vacuum sits exactly on C = 0
    return DuanResult(c_min=float(best), theta_plus=float(tp),
                      theta_minus=float(tm), entangled=bool(best < -1e-12))


def exact_duan(sigma: np.ndarray) -> DuanResult:
    """Exact minimum of C for a σ whose two harmonics are equal.

    With w = r·e^{iα} built from either harmonic's (cos 2θ, sin 2θ)
    coefficients, C = const + r·cos(2θ₋ − α) + r·cos(2θ₊ − α)
    − |cos(θ₊ − θ₋)|. Each term reaches its lower bound at
    θ₊ = θ₋ = (α + π)/2, so C_min = const − 2r − 1 exactly. The
    harmonics are equal when Var X₁ + Var X₂ = Var Y₁ + Var Y₂ and
    Cov(X₁, Y₁) + Cov(X₂, Y₂) = 0, as for every pump-only state; any
    other σ raises ValueError and belongs to ``minimize_duan``.
    """
    const, cm2, sm2, cp2, sp2 = _trig_coefficients(sigma)
    w = complex(cm2, sm2)
    if abs(w - complex(cp2, sp2)) > 1e-12 * max(1.0, abs(const)):
        raise ValueError("the two witness harmonics differ; use "
                         "minimize_duan for a general covariance")
    best = const - 2.0 * abs(w) - 1.0
    theta = ((cmath.phase(w) + math.pi) / 2.0) % math.pi
    return DuanResult(c_min=float(best), theta_plus=theta,
                      theta_minus=theta, entangled=bool(best < -1e-12))
