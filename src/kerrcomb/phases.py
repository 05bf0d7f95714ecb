"""Operating-regime classification and phase-diagram sweeps.

Each point of the (pump detuning, pump amplitude) plane is classified by
what the steady-state and fluctuation analysis finds there:

    MI  multiple pump-only roots, or a finite signal/idler solution, or
        a fluctuation eigenvalue with nonnegative real part: the point
        hosts modulation instability / oscillation and the below-threshold
        entanglement analysis does not apply;
    ET  a unique stable root whose minimized witness is meaningfully
        negative (entanglement, tunable with the pump);
    NE  a unique stable root with witness at or above the −ε boundary.

Classification is a pure function of the normalized drive, so sweeps
parallelize freely and assemble deterministically.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .duan import DuanResult, exact_duan, quadrature_covariance
from .fluct import (DEFAULT_INTRINSIC_FRACTION, FluctuationSystem,
                    NoiseSpectrum, build_m, max_eigenvalue_real,
                    noise_spectrum)
from .model import ModalFamily, NormalizedDrive, OperatingPoint, normalize
from .steady import SteadyState, parametric_branch, pump_only_branches

__all__ = [
    "Phase",
    "OperatingState",
    "PhasePoint",
    "SweepGrid",
    "JointPumpResult",
    "NoFeasiblePointError",
    "operating_state",
    "classify_state",
    "classify_drive",
    "classify_point",
    "sweep",
    "best_joint_pump",
    "EPSILON_NE",
    "MI_MARGIN_CELLS",
]

EPSILON_NE = 1e-3        # NE/ET boundary on the witness value
MI_MARGIN_CELLS = 2      # cells kept clear of MI when optimizing


class NoFeasiblePointError(ValueError):
    """No ET cell survives the MI-margin exclusion."""


class Phase(Enum):
    NE = "NE"
    ET = "ET"
    MI = "MI"


@dataclass(frozen=True)
class PhasePoint:
    """Classification record for one grid cell.

    c_min is NaN on MI cells, where the below-threshold witness is not
    defined. n_branches counts pump-only roots; max_eig_re is evaluated
    at the lowest stable root.
    """

    phase: Phase
    c_min: float
    n_branches: int
    max_eig_re: float
    has_parametric: bool = False
    error: str = ""


@dataclass(frozen=True)
class SweepGrid:
    """Classified grid over (delta axis, amplitude axis) for one pair L."""

    family: str
    L: int
    delta_axis: np.ndarray      # Hz, strictly monotone
    amplitude_axis: np.ndarray  # V/m, strictly monotone
    points: tuple               # row-major: points[i][j] ~ (delta[i], amp[j])

    def __post_init__(self) -> None:
        for axis in (self.delta_axis, self.amplitude_axis):
            if len(axis) == 0 or np.any(np.diff(axis) <= 0):
                raise ValueError("axes must be non-empty, strictly increasing")
        if len(self.points) != len(self.delta_axis) or any(
                len(row) != len(self.amplitude_axis) for row in self.points):
            raise ValueError("points shape must match the axes")

    def phase_array(self) -> np.ndarray:
        return np.array([[p.phase.value for p in row] for row in self.points])

    def c_min_array(self) -> np.ndarray:
        return np.array([[p.c_min for p in row] for row in self.points])

    def count(self, phase: Phase) -> int:
        return sum(p.phase is phase for row in self.points for p in row)


@dataclass(frozen=True)
class OperatingState:
    """Everything the classification reads at one normalized drive.

    ``state`` is the first stable pump-only root, else the first root;
    ``system`` and ``max_eig_re`` belong to that state.
    """

    roots: tuple[SteadyState, ...]
    state: SteadyState
    parametric: tuple[SteadyState, ...]
    system: FluctuationSystem
    max_eig_re: float

    @property
    def is_mi(self) -> bool:
        return (len(self.roots) > 1 or bool(self.parametric)
                or self.max_eig_re >= 0.0)

    def phase(self, c_min: float, epsilon_ne: float = EPSILON_NE) -> Phase:
        """The phase of this state given its minimized witness."""
        if self.is_mi:
            return Phase.MI
        return Phase.ET if c_min < -epsilon_ne else Phase.NE

    def witness(self, omega: float = 0.0,
                ) -> tuple[NoiseSpectrum, np.ndarray, DuanResult]:
        """Noise spectrum at ω, its covariance σ and σ's exact witness."""
        spec = noise_spectrum(self.system, omega)
        sigma = quadrature_covariance(spec)
        return spec, sigma, exact_duan(sigma)


def operating_state(drive: NormalizedDrive,
                    intrinsic_fraction: float = DEFAULT_INTRINSIC_FRACTION,
                    ) -> OperatingState:
    """Pump-only roots, parametric states and the selected root's M."""
    roots = pump_only_branches(drive.f_norm, drive.dtp)
    par = parametric_branch(drive.f_norm, drive.dtp, drive.dtl)
    state = next((s for s in roots if s.stable), roots[0])
    system = build_m(state, drive.dtl, intrinsic_fraction=intrinsic_fraction)
    return OperatingState(roots=tuple(roots), state=state,
                          parametric=tuple(par), system=system,
                          max_eig_re=max_eigenvalue_real(system))


def classify_state(op: OperatingState, omega: float = 0.0,
                   epsilon_ne: float = EPSILON_NE) -> PhasePoint:
    """Classify an operating state; the witness is skipped on MI."""
    c_min = math.nan
    if not op.is_mi:
        c_min = op.witness(omega)[2].c_min
    return PhasePoint(phase=op.phase(c_min, epsilon_ne), c_min=c_min,
                      n_branches=len(op.roots), max_eig_re=op.max_eig_re,
                      has_parametric=bool(op.parametric))


def classify_drive(drive: NormalizedDrive, omega: float = 0.0,
                   epsilon_ne: float = EPSILON_NE,
                   intrinsic_fraction: float = DEFAULT_INTRINSIC_FRACTION,
                   ) -> PhasePoint:
    """Classify a normalized drive point (the sweep work-horse)."""
    try:
        return classify_state(operating_state(drive, intrinsic_fraction),
                              omega=omega, epsilon_ne=epsilon_ne)
    except Exception as exc:  # per-cell marker, the grid must complete
        return PhasePoint(phase=Phase.MI, c_min=math.nan, n_branches=0,
                          max_eig_re=math.nan,
                          error=f"{type(exc).__name__}: {exc}")


def classify_point(op: OperatingPoint, resonator, omega: float = 0.0,
                   epsilon_ne: float = EPSILON_NE,
                   truncation_order: int = 3) -> PhasePoint:
    """Classify a physical operating point."""
    drive = normalize(op, resonator, truncation_order)
    return classify_drive(drive, omega=omega, epsilon_ne=epsilon_ne,
                          intrinsic_fraction=op.family.intrinsic_fraction)


def _sweep_row(args) -> tuple[int, list[PhasePoint]]:
    (i, family, resonator, L, delta, amps, omega, epsilon_ne, order) = args
    row = []
    for a_pin in amps:
        op = OperatingPoint(family=family, L=L, delta_p0=delta, a_pin=a_pin)
        row.append(classify_point(op, resonator, omega=omega,
                                  epsilon_ne=epsilon_ne,
                                  truncation_order=order))
    return i, row


def sweep(family: ModalFamily, resonator, L: int,
          delta_axis: np.ndarray, amplitude_axis: np.ndarray,
          omega: float = 0.0, epsilon_ne: float = EPSILON_NE,
          truncation_order: int = 3, workers: int = 1) -> SweepGrid:
    """Classify every cell of the (detuning, amplitude) grid for one L.

    Cells are independent; with workers > 1 rows are evaluated in a
    process pool and reassembled by index, so the output is identical
    for any worker count.
    """
    delta_axis = np.asarray(delta_axis, dtype=float)
    amplitude_axis = np.asarray(amplitude_axis, dtype=float)
    tasks = [(i, family, resonator, L, float(d), amplitude_axis,
              omega, epsilon_ne, truncation_order)
             for i, d in enumerate(delta_axis)]
    rows: list[list[PhasePoint] | None] = [None] * len(delta_axis)
    if workers <= 1:
        for task in tasks:
            i, row = _sweep_row(task)
            rows[i] = row
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, row in pool.map(_sweep_row, tasks, chunksize=1):
                rows[i] = row
    return SweepGrid(family=family.label, L=L, delta_axis=delta_axis,
                     amplitude_axis=amplitude_axis,
                     points=tuple(tuple(row) for row in rows))


def _mi_exclusion_mask(grids: list[SweepGrid], margin: int) -> np.ndarray:
    """Cells unusable for optimization: MI anywhere in the L stack, or
    within ``margin`` cells (Chebyshev) of such a cell."""
    shape = (len(grids[0].delta_axis), len(grids[0].amplitude_axis))
    mi = np.zeros(shape, dtype=bool)
    for grid in grids:
        mi |= grid.phase_array() == Phase.MI.value
    if margin <= 0:
        return mi
    padded = np.pad(mi, margin, constant_values=False)
    out = np.zeros_like(mi)
    for di in range(-margin, margin + 1):
        for dj in range(-margin, margin + 1):
            out |= padded[margin + di:margin + di + shape[0],
                          margin + dj:margin + dj + shape[1]]
    return out


@dataclass(frozen=True)
class JointPumpResult:
    """Shared-detuning optimum across modal families."""

    delta_p0: float                     # Hz, shared by all families
    amplitudes: dict[str, float]        # family -> V/m
    worst_c_min: float                  # max over families of their best
    per_family_c_min: dict[str, float]


def best_joint_pump(families: list[ModalFamily], resonator, Ls: list[int],
                    delta_axis: np.ndarray, amplitude_axis: np.ndarray,
                    omega: float = 0.0, epsilon_ne: float = EPSILON_NE,
                    margin: int = MI_MARGIN_CELLS, workers: int = 1,
                    truncation_order: int = 3,
                    ) -> tuple[JointPumpResult, dict[str, list[SweepGrid]]]:
    """Best single pump frequency with per-family amplitudes.

    All families share one detuning value (one laser pumps them all);
    each family chooses the amplitude minimizing its worst witness value
    across the requested pair indices, keeping ``margin`` cells away
    from anything MI. The detuning minimizing the worst family-best is
    returned together with all the sweeps behind the decision.
    """
    if not families:
        raise ValueError("at least one family required")
    sweeps = {fam.label: [sweep(fam, resonator, L, delta_axis, amplitude_axis,
                                omega=omega, epsilon_ne=epsilon_ne,
                                truncation_order=truncation_order,
                                workers=workers)
                          for L in Ls]
              for fam in families}
    # per family and detuning row: the amplitude whose worst witness over
    # L is lowest outside the MI margin, and that witness value
    rows = np.arange(len(delta_axis))
    best_j, best_val = [], []
    for fam in families:
        grids = sweeps[fam.label]
        worst = np.max(np.stack([g.c_min_array() for g in grids]), axis=0)
        worst = np.where(_mi_exclusion_mask(grids, margin), np.inf, worst)
        best_j.append(np.argmin(worst, axis=1))
        best_val.append(worst[rows, best_j[-1]])
    vals = np.array(best_val)
    feasible = np.all(np.isfinite(vals) & (vals < -epsilon_ne), axis=0)
    if not feasible.any():
        raise NoFeasiblePointError(
            "no shared detuning offers an ET cell outside the MI margin "
            "for every family")
    i = int(np.argmin(np.where(feasible, np.max(vals, axis=0), np.inf)))
    per_family = {fam.label: float(v[i]) for fam, v in zip(families, vals)}
    return JointPumpResult(
        delta_p0=float(delta_axis[i]),
        amplitudes={fam.label: float(amplitude_axis[j[i]])
                    for fam, j in zip(families, best_j)},
        worst_c_min=max(per_family.values()),
        per_family_c_min=per_family), sweeps
