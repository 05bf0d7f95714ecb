"""Resonance grids, integrated dispersion and cross-family overlap search.

The resonance grid of a modal family is the Taylor expansion around the
expansion-point resonance ω₀,

    ω_L = ω₀ + Σ_{n=1..5} d_n Lⁿ / n!   (d_n = 0 past the truncation order),

and the integrated dispersion is its deviation from an equally spaced
comb, D_int(L) = ω_L − ω₀ − d₁L. Through-port transmission dips are
Lorentzian with FWHM Γ and extinction set by the coupling split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import ModalFamily, damping_rates

__all__ = [
    "OverlapWindow",
    "EmptyRangeError",
    "AllZeroError",
    "resonance_frequency",
    "integrated_dispersion",
    "transmission_spectrum",
    "find_overlap_windows",
    "composite_pump_weights",
]

class EmptyRangeError(ValueError):
    """Requested frequency range contains nothing to evaluate."""


class AllZeroError(ValueError):
    """Every supplied pump weight is zero."""


@dataclass(frozen=True)
class OverlapWindow:
    """A frequency window where several families resonate together."""

    center: float                 # Hz
    width: float                  # Hz
    families: tuple[str, ...]
    detunings: dict[str, float]   # family -> (resonance − center), Hz

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        # 1 Hz slack absorbs rounding of ~2e14 Hz carriers (ulp ~ 0.03 Hz)
        half = self.width / 2.0
        for fam, det in self.detunings.items():
            if abs(det) > half + 1.0:
                raise ValueError(f"{fam} resonance lies outside the window")

    @property
    def max_detuning(self) -> float:
        return max(abs(d) for d in self.detunings.values())


def resonance_frequency(family: ModalFamily, L: int) -> float:
    """ω_L in rad/s from the Taylor expansion."""
    omega = family.omega0
    for n in range(1, 6):
        omega += getattr(family, f"d{n}") * L ** n / math.factorial(n)
    return omega


def integrated_dispersion(family: ModalFamily, L: int) -> float:
    """D_int(L) = Σ_{n≥2} d_n Lⁿ/n! in rad/s (zero at L = 0)."""
    d_int = 0.0
    for n in range(2, 6):
        d_int += getattr(family, f"d{n}") * L ** n / math.factorial(n)
    return d_int


def _lines_in_range(family: ModalFamily, f_lo: float,
                    f_hi: float) -> list[tuple[int, float]]:
    """(L, ω_L) pairs whose frequency falls inside [f_lo, f_hi]."""
    # d1 dominates, so bracket L by the equally spaced estimate and pad.
    l_lo = math.floor((2 * math.pi * f_lo - family.omega0) / family.d1) - 2
    l_hi = math.ceil((2 * math.pi * f_hi - family.omega0) / family.d1) + 2
    out = []
    for l in range(l_lo, l_hi + 1):
        w = resonance_frequency(family, l)
        f = w / (2 * math.pi)
        if f_lo <= f <= f_hi:
            out.append((l, w))
    return out


def transmission_spectrum(families: Sequence[ModalFamily],
                          f_range: tuple[float, float], samples: int,
                          ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Through-port transmission of each family over a frequency span.

    Each resonance contributes the Lorentzian dip

        T(f) = 1 − (4γμ/Γ²) / (1 + (2(2πf − ω_L)/Γ)²),

    fully extinguishing at critical coupling; dips of distinct resonances
    of the same family multiply. Returns {label: (f_Hz, T)} arrays.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    f_lo, f_hi = f_range
    if not f_hi > f_lo:
        raise EmptyRangeError(f"empty frequency range {f_range}")
    freqs = np.linspace(f_lo, f_hi, samples)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for fam in families:
        rates = damping_rates(fam)
        total = rates["Gamma"]
        depth = 4.0 * rates["gamma"] * rates["mu"] / total ** 2
        trans = np.ones_like(freqs)
        # include lines slightly outside the span so edge dips are not cut
        pad = 5.0 * total / (2 * math.pi)
        for _, w_l in _lines_in_range(fam, f_lo - pad, f_hi + pad):
            det = 2.0 * (2.0 * math.pi * freqs - w_l) / total
            trans *= 1.0 - depth / (1.0 + det ** 2)
        out[fam.label] = (freqs, trans)
    return out


def find_overlap_windows(families: Sequence[ModalFamily],
                         f_range: tuple[float, float],
                         tolerance: float) -> list[OverlapWindow]:
    """Windows where one resonance per family sits within ``tolerance``
    (Hz) of a common center.

    The search is exhaustive over the tabulated grids inside ``f_range``;
    windows are sorted by their worst per-family detuning, best first.
    A single requested family makes every resonance its own window.
    """
    fams = sorted(families, key=lambda fam: fam.label)
    grids = {fam.label: _lines_in_range(fam, *f_range) for fam in fams}
    if not all(grids.values()):
        return []
    anchor = fams[0].label
    windows: list[OverlapWindow] = []
    for _, w_anchor in grids[anchor]:
        group = {anchor: w_anchor / (2 * math.pi)}
        for fam in fams[1:]:
            # tolerance is far below an FSR, so only the nearest line matters
            group[fam.label] = min(
                (w / (2 * math.pi) for _, w in grids[fam.label]),
                key=lambda f: abs(f - group[anchor]))
        f_min, f_max = min(group.values()), max(group.values())
        center = 0.5 * (f_min + f_max)
        if f_max - center <= tolerance:
            windows.append(OverlapWindow(
                center=center, width=f_max - f_min,
                families=tuple(sorted(group)),
                detunings={k: v - center for k, v in group.items()}))
    windows.sort(key=lambda w: (w.max_detuning, w.center))
    return windows


def composite_pump_weights(weights: Mapping[str, float]) -> dict[str, float]:
    """Normalize per-family pump weights so their squares sum to one.

    Each family's input amplitude is then its weight times the total
    drive amplitude, preserving total launched power.
    """
    if any(w < 0 for w in weights.values()):
        raise ValueError("weights must be nonnegative")
    norm = math.sqrt(sum(w * w for w in weights.values()))
    if norm == 0.0:
        raise AllZeroError("at least one weight must be positive")
    return {k: w / norm for k, w in weights.items()}
