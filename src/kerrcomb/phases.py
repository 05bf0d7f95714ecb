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

Classification is a pure function of the normalized drive, and tests
MI cheapest first: the parametric search runs only where MI is open.
A family's pump-only roots depend on (F, Δ̃_p) alone, not on L, so a
``PumpGrid`` solves them once and every per-L ``sweep`` reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .duan import DuanResult, pump_only_witness
from .fluct import DEFAULT_INTRINSIC_FRACTION
from .model import ModalFamily, NormalizedDrive, pair_offset, pump_row
from .steady import (NoConvergenceError, SteadyState, parametric_branch,
                     pump_only_branches)

__all__ = [
    "Phase",
    "OperatingState",
    "PhasePoint",
    "PumpGrid",
    "SweepGrid",
    "JointPumpResult",
    "NoFeasiblePointError",
    "operating_state",
    "pump_only_max_eig_re",
    "classify_state",
    "classify_drive",
    "pump_grid",
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


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """Classification record for one grid cell (slotted: grids hold many).

    c_min is NaN on MI cells, where the below-threshold witness is not
    defined. n_branches counts pump-only roots; max_eig_re is the closed
    form ``pump_only_max_eig_re`` at the lowest one. has_parametric is
    set only where the search ran (one root, max_eig_re < 0).
    """

    phase: Phase
    c_min: float
    n_branches: int
    max_eig_re: float
    has_parametric: bool = False
    error: str = ""


def _check_axis(name: str, axis) -> None:
    if not np.all(np.isfinite(axis)):
        raise ValueError(f"{name} must be finite")
    if len(axis) == 0 or np.any(np.diff(axis) <= 0):
        raise ValueError(f"{name} must be non-empty, strictly increasing")


@dataclass(frozen=True)
class PumpGrid:
    """The L-free part of one family's grid, shared by its per-L sweeps.

    F and Δ̃_p depend on the family, the detuning and the amplitude but
    not on L, and so do the pump-only roots (docs/derivation.md). Rows
    follow the delta axis: ``f_norm[i][j]`` and ``roots[i][j]`` belong to
    (delta[i], amp[j]), ``dtp[i]`` to the whole row.
    """

    family: ModalFamily
    delta_axis: np.ndarray      # Hz, strictly increasing
    amplitude_axis: np.ndarray  # V/m, strictly increasing
    f_norm: tuple               # rows of F
    dtp: tuple                  # one Δ̃_p per row
    roots: tuple                # rows of pump_only_branches results


def pump_grid(family: ModalFamily, delta_axis, amplitude_axis) -> PumpGrid:
    """Normalize each detuning row and solve every cell's pump-only
    roots, once for all L; a non-finite or unordered axis is refused."""
    delta_axis = np.asarray(delta_axis, dtype=float)
    amplitude_axis = np.asarray(amplitude_axis, dtype=float)
    _check_axis("delta_axis", delta_axis)
    _check_axis("amplitude_axis", amplitude_axis)
    f_rows, dtps, root_rows = [], [], []
    for delta in delta_axis:
        f_norms, dtp = pump_row(family, float(delta), amplitude_axis)
        f_rows.append(tuple(f_norms))
        dtps.append(dtp)
        root_rows.append(tuple(tuple(pump_only_branches(f, dtp))
                               for f in f_norms))
    return PumpGrid(family=family, delta_axis=delta_axis,
                    amplitude_axis=amplitude_axis, f_norm=tuple(f_rows),
                    dtp=tuple(dtps), roots=tuple(root_rows))


@dataclass(frozen=True)
class SweepGrid:
    """Classified grid over (delta axis, amplitude axis) for one pair L."""

    family: str
    L: int
    delta_axis: np.ndarray      # Hz, strictly monotone
    amplitude_axis: np.ndarray  # V/m, strictly monotone
    points: tuple               # row-major: points[i][j] ~ (delta[i], amp[j])

    def __post_init__(self) -> None:
        _check_axis("delta_axis", self.delta_axis)
        _check_axis("amplitude_axis", self.amplitude_axis)
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

    ``state`` is the lowest pump-only root, the one a drive raised from
    the dark cavity follows (at the upper fold, the marginal double
    root); ``max_eig_re`` belongs to that state, and ``dtl`` and
    ``intrinsic_fraction`` fix its witness and its ``fluct.build_m``.
    ``parametric`` is () unless one root with max_eig_re < 0 leaves MI
    open, the one case where the signal/idler search runs.
    """

    roots: tuple[SteadyState, ...]
    state: SteadyState
    parametric: tuple[SteadyState, ...]
    max_eig_re: float
    dtl: float
    intrinsic_fraction: float

    @property
    def is_mi(self) -> bool:
        return (len(self.roots) > 1 or bool(self.parametric)
                or self.max_eig_re >= 0.0)

    def phase(self, c_min: float, epsilon_ne: float = EPSILON_NE) -> Phase:
        """The phase of this state given its minimized witness."""
        if self.is_mi:
            return Phase.MI
        return Phase.ET if c_min < -epsilon_ne else Phase.NE

    def witness(self, omega: float = 0.0) -> DuanResult:
        """The exact minimized witness of ``state`` at ω."""
        return pump_only_witness(self.state.ap2, self.dtl, omega,
                                 self.intrinsic_fraction)


def pump_only_max_eig_re(ap2: float, dtl: float) -> float:
    """Largest Re λ of M at a pump-only state (docs/derivation.md)."""
    d = (dtl - ap2) * (3.0 * ap2 - dtl)  # x² − δ², a product: no cancelling
    return -1.0 + math.sqrt(d) if d >= 0.0 else -1.0


def operating_state(drive: NormalizedDrive,
                    intrinsic_fraction: float = DEFAULT_INTRINSIC_FRACTION,
                    roots: tuple[SteadyState, ...] | None = None,
                    ) -> OperatingState:
    """Pump-only roots, the lowest one's stability and, where those leave
    MI open, the parametric states. ``roots`` are the drive's pump-only
    roots when already solved (a ``PumpGrid`` cell); else they are
    solved here."""
    if roots is None:
        roots = pump_only_branches(drive.f_norm, drive.dtp)
    eig = pump_only_max_eig_re(roots[0].ap2, drive.dtl)
    par = () if len(roots) > 1 or eig >= 0.0 else tuple(
        parametric_branch(drive.f_norm, drive.dtp, drive.dtl))
    return OperatingState(
        roots=tuple(roots), state=roots[0], parametric=par, max_eig_re=eig,
        dtl=drive.dtl, intrinsic_fraction=intrinsic_fraction)


def classify_state(op: OperatingState, omega: float = 0.0,
                   epsilon_ne: float = EPSILON_NE) -> PhasePoint:
    """Classify an operating state; the witness is skipped on MI."""
    c_min = math.nan if op.is_mi else op.witness(omega).c_min
    return PhasePoint(phase=op.phase(c_min, epsilon_ne), c_min=c_min,
                      n_branches=len(op.roots), max_eig_re=op.max_eig_re,
                      has_parametric=bool(op.parametric))


def classify_drive(drive: NormalizedDrive, omega: float = 0.0,
                   epsilon_ne: float = EPSILON_NE,
                   intrinsic_fraction: float = DEFAULT_INTRINSIC_FRACTION,
                   roots: tuple[SteadyState, ...] | None = None,
                   ) -> PhasePoint:
    """Classify a normalized drive point (the sweep work-horse); ``roots``
    as in ``operating_state``.

    A solver failure (``NoConvergenceError``, or a ``LinAlgError`` such
    as ``SingularResolventError``) marks the cell MI with its error text
    so the grid completes; any other exception is a bug and propagates.
    """
    try:
        return classify_state(operating_state(drive, intrinsic_fraction,
                                              roots),
                              omega=omega, epsilon_ne=epsilon_ne)
    except (NoConvergenceError, np.linalg.LinAlgError) as exc:
        return PhasePoint(phase=Phase.MI, c_min=math.nan, n_branches=0,
                          max_eig_re=math.nan,
                          error=f"{type(exc).__name__}: {exc}")


def sweep(pump: PumpGrid, L: int, omega: float = 0.0,
          epsilon_ne: float = EPSILON_NE) -> SweepGrid:
    """Classify every cell of a family's pump grid for one L.

    Only Δ̃_L = Δ̃_p + D_int(L)/Γ is new per L; each cell goes through
    ``classify_drive`` with its shared pump-only roots, in the calling
    process.
    """
    family = pump.family
    offset = pair_offset(family, L)
    points = []
    for f_row, dtp, root_row in zip(pump.f_norm, pump.dtp, pump.roots):
        dtl = dtp + offset
        points.append(tuple(
            classify_drive(NormalizedDrive(f_norm=f, dtp=dtp, dtl=dtl),
                           omega=omega, epsilon_ne=epsilon_ne,
                           intrinsic_fraction=family.intrinsic_fraction,
                           roots=roots)
            for f, roots in zip(f_row, root_row)))
    return SweepGrid(family=family.label, L=L, delta_axis=pump.delta_axis,
                     amplitude_axis=pump.amplitude_axis, points=tuple(points))


def _mi_exclusion_mask(grids: list[SweepGrid], margin: int) -> np.ndarray:
    """Cells unusable for optimization: MI anywhere in the L stack, or
    within ``margin`` cells (Chebyshev) of such a cell."""
    shape = (len(grids[0].delta_axis), len(grids[0].amplitude_axis))
    mi = np.zeros(shape, dtype=bool)
    for grid in grids:
        mi |= grid.phase_array() == Phase.MI.value
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


def best_joint_pump(families: list[ModalFamily], Ls: list[int],
                    delta_axis: np.ndarray, amplitude_axis: np.ndarray,
                    omega: float = 0.0, epsilon_ne: float = EPSILON_NE,
                    margin: int = MI_MARGIN_CELLS,
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
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    sweeps = {}
    for fam in families:
        pump = pump_grid(fam, delta_axis, amplitude_axis)
        sweeps[fam.label] = [sweep(pump, L, omega=omega,
                                   epsilon_ne=epsilon_ne) for L in Ls]
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
