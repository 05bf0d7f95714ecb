"""Physical domain types and the normalization layer.

Unit conventions used throughout the package:

    frequencies f        ordinary frequency, Hz
    rates / detunings ω  angular frequency, rad/s (2π times the Hz value)
    field amplitudes     V/m at the input waveguide (see ``input_power``)
    normalized drive     dimensionless, time measured in units of 1/Γ

The resonator damps each modal family at a total rate Γ = ω₀/Q, split into
an external coupling rate γ and an intrinsic loss rate μ with
μ = intrinsic_fraction·Γ. Pump detuning is ``resonance minus laser``:
positive detuning means the laser sits below the cold resonance.

The dimensionless drive strength is

    F = sqrt(2 γ η P_in / (ħ Ω₀ Γ³)),

with P_in the launched pump power and Ω₀ the laser angular frequency.
The conversion from a V/m amplitude to watts is the plane-wave power
carried through the effective mode area,

    P_in = ½ n_eff ε₀ c A_eff |A_pin|²,

which treats the quoted amplitude as an RMS-equivalent field. This
convention is a deliberate, documented choice of this package; the
amplitude axis is therefore monotone in F but its absolute scale should
not be compared against other normalizations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

__all__ = [
    "HBAR",
    "C_VACUUM",
    "EPSILON_0",
    "FAMILY_LABELS",
    "ModalFamily",
    "ResonatorSpec",
    "OperatingPoint",
    "NormalizedDrive",
    "ZeroVolumeError",
    "damping_rates",
    "nonlinear_rate",
    "input_power",
    "normalize",
    "normalize_row",
]

HBAR = 1.054571817e-34      # J s
C_VACUUM = 299792458.0      # m/s
EPSILON_0 = 8.8541878128e-12  # F/m

FAMILY_LABELS = ("TE00", "TM00", "TE10", "TM10")


class ZeroVolumeError(ValueError):
    """Effective mode volume vanished (a_eff or radius is zero)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class ModalFamily:
    """One spatial mode family: dispersion, damping split and Kerr rate.

    Parameters
    ----------
    label : str
        One of TE00, TM00, TE10, TM10.
    d1..d5 : float
        Taylor coefficients of the resonance grid, rad/s. d1/2π is the FSR.
    f0 : float
        Frequency of the expansion-point resonance, Hz.
    q_total : float
        Loaded quality factor Q (dimensionless).
    intrinsic_fraction : float
        μ/(γ+μ), the intrinsic share of the total damping, in (0, 1).
    a_eff : float
        Effective mode area, m².
    n_eff : float
        Effective refractive index.
    eta : float
        Kerr frequency shift per intracavity photon, rad/s, used by every
        computation. ``nonlinear_rate``, which no command calls, warns
        when its geometric estimate differs from it by more than 20%.
    g0 : float
        Auxiliary nonlinear figure as tabulated (µm²). Opaque metadata,
        not used in any computation.
    """

    label: str
    d1: float
    d2: float
    d3: float
    d4: float
    d5: float
    f0: float
    q_total: float
    intrinsic_fraction: float
    a_eff: float
    n_eff: float
    eta: float
    g0: float = 0.0

    def __post_init__(self) -> None:
        _require(self.label in FAMILY_LABELS,
                 f"unknown family label {self.label!r}")
        _require(self.f0 > 0, f"{self.label}: f0 must be positive")
        _require(self.q_total > 0, f"{self.label}: q_total must be positive")
        _require(0.0 < self.intrinsic_fraction < 1.0,
                 f"{self.label}: intrinsic_fraction must lie in (0, 1)")
        _require(self.a_eff > 0, f"{self.label}: a_eff must be positive")
        _require(self.n_eff >= 1.0, f"{self.label}: n_eff must be >= 1")
        _require(self.eta > 0, f"{self.label}: eta must be positive")

    @property
    def omega0(self) -> float:
        """Expansion-point resonance in angular units, rad/s."""
        return 2.0 * math.pi * self.f0

    @property
    def fsr(self) -> float:
        """Free spectral range d1/2π, Hz."""
        return self.d1 / (2.0 * math.pi)

    def dispersion_coefficients(self, order: int = 5) -> tuple[float, ...]:
        """(d1, ..., d_order) truncated to the requested order."""
        coeffs = (self.d1, self.d2, self.d3, self.d4, self.d5)
        _require(1 <= order <= 5, "truncation order must be in 1..5")
        return coeffs[:order]


@dataclass(frozen=True)
class ResonatorSpec:
    """A microring resonator: shared material data plus its modal families.

    ``geometry`` carries the fabrication cross-section lengths (µm and
    degrees) purely as metadata; no electromagnetic solving happens here.
    """

    radius: float                     # m
    n2: float                         # m²/W
    n0: float                         # bulk linear index
    families: tuple[ModalFamily, ...]
    geometry: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(self.radius > 0, "radius must be positive")
        _require(self.n2 > 0, "n2 must be positive")
        _require(len(self.families) > 0, "at least one modal family required")
        labels = [fam.label for fam in self.families]
        _require(len(set(labels)) == len(labels),
                 f"family labels must be unique, got {labels}")
        object.__setattr__(self, "families", tuple(self.families))

    def family(self, label: str) -> ModalFamily:
        for fam in self.families:
            if fam.label == label:
                return fam
        raise KeyError(f"no modal family labelled {label!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(fam.label for fam in self.families)


@dataclass(frozen=True)
class OperatingPoint:
    """A pump setting for one family and one comb-pair index.

    delta_p0 is the pump detuning in ordinary frequency (Hz), defined as
    (cold resonance minus laser frequency)/2π, so positive values put the
    laser below resonance. a_pin is the input field amplitude in V/m.
    """

    family: ModalFamily
    L: int
    delta_p0: float
    a_pin: float

    def __post_init__(self) -> None:
        _require(self.L >= 1, "mode-pair index L must be >= 1")
        _require(self.a_pin >= 0, "a_pin must be nonnegative")


@dataclass(frozen=True)
class NormalizedDrive:
    """Dimensionless drive: (F, Δ̃_p, Δ̃_L) with detunings in units of Γ.

    The pair detuning is Δ̃_L = Δ̃_p + D_int(L)/Γ: comb teeth are emitted
    on the equally spaced grid around the laser, while the pair
    resonances sit D_int above that grid (anomalous dispersion curves
    the resonance ladder upward), so the pair modes are detuned further
    than the pump by exactly the integrated dispersion.
    """

    f_norm: float
    dtp: float
    dtl: float

    def __post_init__(self) -> None:
        for name in ("f_norm", "dtp", "dtl"):
            _require(math.isfinite(getattr(self, name)),
                     f"{name} must be finite")


def damping_rates(family: ModalFamily) -> dict[str, float]:
    """Total, coupling and loss rates {Γ, γ, μ} in rad/s.

    Γ = ω₀/Q is the resonance FWHM in angular units; μ is the intrinsic
    part and γ = Γ − μ the external coupling, so Γ = γ + μ exactly.
    """
    total = family.omega0 / family.q_total
    loss = family.intrinsic_fraction * total
    coupling = total - loss
    return {"Gamma": total, "gamma": coupling, "mu": loss}


def nonlinear_rate(family: ModalFamily, resonator: ResonatorSpec) -> float:
    """Geometric estimate of the per-photon Kerr shift, rad/s.

    Evaluates ħω₀²c·n2 / (n_eff²·V_eff) with V_eff = A_eff·2πR. When a
    family carries a tabulated ``eta`` this estimate serves only as a
    consistency check; a discrepancy beyond 20% triggers a warning
    because tabulated rates and the ring-volume estimate bracket the
    true value from different sides.
    """
    v_eff = family.a_eff * 2.0 * math.pi * resonator.radius
    if v_eff == 0.0:
        raise ZeroVolumeError("a_eff * radius must be nonzero")
    estimate = (HBAR * family.omega0 ** 2 * C_VACUUM * resonator.n2
                / (family.n_eff ** 2 * v_eff))
    if family.eta > 0:
        ratio = estimate / family.eta
        if not 0.8 <= ratio <= 1.2:
            warnings.warn(
                f"{family.label}: tabulated eta {family.eta:.6g} rad/s and "
                f"geometric estimate {estimate:.6g} rad/s differ by more "
                "than 20%; the tabulated value is used",
                stacklevel=2,
            )
    return estimate


def input_power(family: ModalFamily, a_pin: float) -> float:
    """Launched pump power P_in in watts for a V/m amplitude.

    Plane-wave power through the effective mode area with the amplitude
    read as RMS: P_in = ½ n_eff ε₀ c A_eff |A_pin|².
    """
    return 0.5 * family.n_eff * EPSILON_0 * C_VACUUM * family.a_eff * a_pin ** 2


def normalize(op_point: OperatingPoint,
              truncation_order: int = 3) -> NormalizedDrive:
    """The dimensionless drive of one operating point (``normalize_row``)."""
    return normalize_row(op_point.family, op_point.L, op_point.delta_p0,
                         (op_point.a_pin,), truncation_order)[0]


def normalize_row(family: ModalFamily, L: int, delta_p0: float, a_pins,
                  truncation_order: int = 3) -> list[NormalizedDrive]:
    """The dimensionless drives of one detuning row, one per amplitude.

    F follows the √(2γη P_in / ħΩ₀Γ³) normalization with Ω₀ the laser
    angular frequency; detunings are divided by Γ. The pair detuning
    satisfies dtl = dtp + D_int(L)/Γ by construction (see
    NormalizedDrive). All but P_in is computed once per row, in the
    order ((2γη)·P_in)/(ħΩ₀Γ³). ``OperatingPoint``'s checks apply.
    """
    from .dispersion import integrated_dispersion

    _require(L >= 1, "mode-pair index L must be >= 1")
    _require(all(a_pin >= 0 for a_pin in a_pins), "a_pin must be nonnegative")
    rates = damping_rates(family)
    total, coupling = rates["Gamma"], rates["gamma"]
    num = 2.0 * coupling * family.eta
    den = HBAR * (family.omega0 - 2.0 * math.pi * delta_p0) * total ** 3
    dtp = 2.0 * math.pi * delta_p0 / total
    dtl = dtp + integrated_dispersion(family, L, truncation_order) / total
    return [NormalizedDrive(f_norm=math.sqrt(num * input_power(family, a_pin)
                                             / den), dtp=dtp, dtl=dtl)
            for a_pin in a_pins]
