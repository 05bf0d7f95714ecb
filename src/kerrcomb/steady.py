"""Steady states of the pumped three-mode system (pump, signal, idler).

In normalized units (time in 1/Γ, photon-number amplitudes, detunings in
units of Γ) the mean-field equations have the steady solutions of two
kinds. With x = A_p² the intracavity pump and y = A² the common
signal/idler power, the full system reads

    x²  = 1 + (Δ̃_L − 2x − 3y)²                      (pair gain balance)
    F²  = x [ (1 + 2y/x)² + (Δ̃_p − x − (2y/x)(Δ̃_L − 3y))² ]
    sin φ = 1/x
    cos φ = (Δ̃_L − 3y − 2x)/x
    sin ψ = (√x/F) (Δ̃_p − x − (2y/x)(Δ̃_L − 3y))
    cos ψ = (√x/F) (1 + 2y/x)

with φ the locked pair-phase combination and ψ the pump phase lag behind
the drive. Setting y = 0 collapses the second line to the familiar Kerr
bistability cubic F² = x(1 + (Δ̃_p − x)²). Notes on the derivation of
this system from the mean-field equations live in docs/derivation.md.

The pair line forces x ≥ 1 on the nontrivial branch, and y > 0 is only
possible for Δ̃_L > √3, which is why instability and oscillation set in
past that detuning.

Since a₋ = a₊ on every parametric state, the three-mode linearization
splits exactly under the signal/idler exchange. The antisymmetric pair
mode has eigenvalues {0, −2}, the 0 being the free phase split; the
pump couples only to the symmetric mode. A root is stable when
u = Δ̃_L − 2x − 3y < 0 (the frozen-pump pair gate, whose symmetric
eigenvalues are −1 ± √(1 + 12yu)) and one 4×4 block over the pump and
the symmetric mode is Hurwitz.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Branch",
    "SteadyState",
    "ThresholdReport",
    "NoConvergenceError",
    "pump_only_branches",
    "parametric_branch",
    "threshold",
    "bistability_turning_points",
]

_RESIDUAL_TOL = 1e-9
_STEP_TOL = 1e-12
_MAX_ITER = 100
_SCAN_POINTS = 1200  # samples per square-root branch in parametric_branch
_THRESHOLD_F_MAX = 20.0  # threshold reports exists = False above this F
_THRESHOLD_SCAN_POINTS = 20000


class NoConvergenceError(RuntimeError):
    """Root polishing failed to converge within the iteration cap."""


class Branch(Enum):
    PUMP_ONLY = "PumpOnly"
    PARAMETRIC = "Parametric"


@dataclass(frozen=True)
class SteadyState:
    """One steady solution: powers, locked phases, branch and stability.

    ap2 and a2 are the dimensionless intracavity pump and pair powers;
    phi is meaningful only on the parametric branch (stored as 0 below
    threshold, where the pair phase is undefined).
    """

    ap2: float
    a2: float
    phi: float
    psi: float
    branch: Branch
    stable: bool

    def __post_init__(self) -> None:
        if self.ap2 < 0 or self.a2 < 0:
            raise ValueError("powers must be nonnegative")


@dataclass(frozen=True)
class ThresholdReport:
    """Minimal drive F admitting a parametric solution, if any."""

    f_threshold: float
    exists: bool


def _cubic_roots(dtp: float, f_sq: float) -> list[float]:
    """Real nonnegative roots of x(1 + (dtp − x)²) = F², via Cardano.

    The cubic is x³ − 2·dtp·x² + (1 + dtp²)x − F² = 0. Roots are Newton
    polished against the monic cubic and deduplicated.
    """
    b = -2.0 * dtp
    c = 1.0 + dtp * dtp
    d = -f_sq
    if f_sq == 0.0:
        return [0.0]
    # depressed cubic t³ + pt + q with x = t − b/3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        v = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        roots = [u + v + shift]
    elif p == 0.0:
        roots = [shift]
    else:
        # three real roots (trigonometric form)
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg) / 3.0
        roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift
                 for k in range(3)]

    def poly(x: float) -> float:
        return ((x + b) * x + c) * x + d

    def dpoly(x: float) -> float:
        return (3.0 * x + 2.0 * b) * x + c

    polished = []
    for x in roots:
        for _ in range(40):
            fx, dfx = poly(x), dpoly(x)
            if dfx == 0.0:
                break
            step = fx / dfx
            x -= step
            if abs(step) < 1e-16 * max(1.0, abs(x)):
                break
        if x > -1e-12:
            polished.append(max(x, 0.0))
    polished.sort()
    out: list[float] = []
    for x in polished:
        if not out or abs(x - out[-1]) > 1e-9 * max(1.0, x):
            out.append(x)
    return out


def _pump_only_psi(dtp: float, x: float) -> float:
    """Pump phase lag: tan ψ = (Δ̃_p − x) with cos ψ ∝ 1."""
    return math.atan2(dtp - x, 1.0)


def pump_only_branches(f_norm: float, dtp: float) -> list[SteadyState]:
    """All pump-only steady states (y = 0), sorted by pump power.

    Between one and three roots exist; with three, the middle one is the
    unstable back-bend of the bistability curve. Stability here is the
    single-mode Kerr rule (slope of F² versus x); parametric instability
    of these states is the business of the fluctuation matrix.
    """
    if not (math.isfinite(f_norm) and math.isfinite(dtp)):
        raise ValueError("f_norm and dtp must be finite")
    if f_norm < 0:
        raise ValueError("f_norm must be nonnegative")
    roots = _cubic_roots(dtp, f_norm * f_norm)
    n = len(roots)
    states = []
    for i, x in enumerate(roots):
        stable = not (n == 3 and i == 1)
        if n == 2 and i == 1:
            stable = False  # fold point, marginal
        states.append(SteadyState(ap2=x, a2=0.0, phi=0.0,
                                  psi=_pump_only_psi(dtp, x),
                                  branch=Branch.PUMP_ONLY, stable=stable))
    return states


def bistability_turning_points(dtp: float) -> tuple[tuple[float, float],
                                                    tuple[float, float]]:
    """Fold points ((x−, F²−), (x+, F²+)) of the pump-only cubic.

    Valid for dtp ≥ √3; the folds merge at dtp = √3 where
    x = 2√3/3 and F² = 8√3/9.
    """
    if dtp * dtp < 3.0 - 1e-12:
        raise ValueError("no turning points below dtp = sqrt(3)")
    s = math.sqrt(max(dtp * dtp - 3.0, 0.0))
    out = []
    for sign in (+1.0, -1.0):
        x = (2.0 * dtp + sign * s) / 3.0
        out.append((x, x * (1.0 + (dtp - x) ** 2)))
    return out[1], out[0]


def _symmetric_block(x: float, y: float, phi: float, dtp: float,
                     dtl: float) -> np.ndarray:
    """Three-mode linearization over (δa_p, δa_p†, δS, δS†).

    S = (δa₋ + δa₊)/√2, in the gauge a_p = √x, a₋ = a₊ = √y·h with
    h = e^{iφ/2}; the antisymmetric (δa₋ − δa₊)/√2 decouples exactly.
    """
    h = cmath.exp(0.5j * phi)
    g = 2.0 * math.sqrt(2.0 * x * y)
    h2 = h * h
    pump = (-1.0 + 1j * (2.0 * x + 4.0 * y - dtp), 1j * (x + 2.0 * y * h2),
            2j * g * h.real, 1j * g * h)
    pair = (2j * g * h.real, 1j * g * h,
            -1.0 + 1j * (2.0 * x + 6.0 * y - dtl), 1j * (x + 3.0 * y * h2))
    block = np.array([pump, pump, pair, pair])
    # daggered rows: conjugate, with the p/p† and S/S† columns swapped
    block[1::2] = np.conj(block[0::2][:, [1, 0, 3, 2]])
    return block


def _pair_system(x: float, y: float, f_norm: float, dtp: float,
                 dtl: float) -> tuple[float, float, tuple[float, ...]]:
    """Residuals of the two pair equations and their Jacobian in (x, y)."""
    u = dtl - 2.0 * x - 3.0 * y
    w = dtl - 3.0 * y
    g = 1.0 + 2.0 * y / x
    h = dtp - x - (2.0 * y / x) * w
    r1 = x * x - 1.0 - u * u
    r2 = x * (g * g + h * h) - f_norm * f_norm
    dg_dx = -2.0 * y / (x * x)
    dg_dy = 2.0 / x
    dh_dx = -1.0 + (2.0 * y / (x * x)) * w
    dh_dy = -(2.0 / x) * w + (2.0 * y / x) * 3.0
    jac = (2.0 * x + 4.0 * u, 6.0 * u,
           g * g + h * h + x * (2.0 * g * dg_dx + 2.0 * h * dh_dx),
           x * (2.0 * g * dg_dy + 2.0 * h * dh_dy))
    return r1, r2, jac


def _polish_pair(x: float, y: float, f_norm: float, dtp: float,
                 dtl: float) -> tuple[float, float]:
    """Damped Newton on the two-equation residual."""
    for _ in range(_MAX_ITER):
        r1, r2, (j11, j12, j21, j22) = _pair_system(x, y, f_norm, dtp, dtl)
        if abs(r1) < _RESIDUAL_TOL and abs(r2) < _RESIDUAL_TOL:
            return x, y
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        dx = (-r1 * j22 + r2 * j12) / det
        dy = (-j11 * r2 + j21 * r1) / det
        scale = 1.0
        # x may land on the fold x = 1 where the two branches meet
        while scale > 1e-4 and (x + scale * dx < 1.0 or y + scale * dy <= 0.0):
            scale *= 0.5
        x += scale * dx
        y += scale * dy
        if math.hypot(scale * dx, scale * dy) < _STEP_TOL:
            break
    r1, r2, _ = _pair_system(x, y, f_norm, dtp, dtl)
    if abs(r1) < _RESIDUAL_TOL and abs(r2) < _RESIDUAL_TOL:
        return x, y
    raise NoConvergenceError(
        f"pair root polishing stalled at residuals ({r1:.3e}, {r2:.3e})")


def _bisect(lo: float, hi: float, steps: int,
            keeps_lo: Callable[[float], bool]) -> tuple[float, float]:
    """Halve [lo, hi] up to ``steps`` times; ``keeps_lo(mid)`` moves lo.

    Stops at the first step that changes neither end: every later step
    would probe the same midpoint, so the result is that of all steps.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        new = (mid, hi) if keeps_lo(mid) else (lo, mid)
        if new == (lo, hi):
            break
        lo, hi = new
    return lo, hi


def _branch_drive_curve(xs: np.ndarray | float, sign: float, dtp: float,
                        dtl: float) -> tuple[np.ndarray | float,
                                             np.ndarray | float]:
    """(y, F²) along one sign branch of the gain-balance line.

    A Python float runs through ``math`` with the same arithmetic in the
    same order as an array, so both give the same bits.
    """
    if isinstance(xs, np.ndarray):
        s = sign * np.sqrt(np.maximum(xs * xs - 1.0, 0.0))
    else:
        s = sign * math.sqrt(max(xs * xs - 1.0, 0.0))
    ys = (dtl - 2.0 * xs - s) / 3.0
    g = 1.0 + 2.0 * ys / xs
    h = dtp - xs - (2.0 * ys / xs) * (dtl - 3.0 * ys)
    return ys, xs * (g * g + h * h)


def parametric_branch(f_norm: float, dtp: float,
                      dtl: float) -> list[SteadyState]:
    """All steady states with nonzero signal/idler power at this drive.

    The gain-balance line x² = 1 + (Δ̃_L − 2x − 3y)² is swept in x on
    both square-root branches; crossings of the drive equation are
    bracketed on the sweep and Newton polished; a polish that does not
    converge raises NoConvergenceError. A root is stable when u < 0 and
    its exchange-symmetric block is Hurwitz; the antisymmetric sector,
    free phase split included, is {0, −2} for every root.
    """
    if f_norm <= 0:
        return []
    if dtl <= math.sqrt(3.0):
        return []  # y > 0 requires dtl > sqrt(3)

    # y > 0 confines x between roots of 3x² − 4·dtl·x + (dtl² + 1):
    # branch u = +√(x²−1) lives on [1, x_dn), branch u = −√(x²−1) on
    # (x_dn, x_up) for dtl ≤ 2 and [1, x_up) otherwise. Scanning exactly
    # these intervals keeps the resolution adaptive and catches
    # crossings that hug the y = 0 boundary.
    s3 = math.sqrt(dtl * dtl - 3.0)
    x_dn = (2.0 * dtl - s3) / 3.0
    x_up = (2.0 * dtl + s3) / 3.0
    x_cap = max(f_norm * f_norm, 1.0) + 1.0
    f_sq = f_norm * f_norm
    intervals = ((+1.0, 1.0, min(x_dn, x_cap)),
                 (-1.0, 1.0 if dtl > 2.0 else x_dn, min(x_up, x_cap)))

    solutions: list[tuple[float, float]] = []
    for sign, a, b in intervals:
        if not b > a:
            continue
        xs = np.linspace(a, b, _SCAN_POINTS)
        ys, curve = _branch_drive_curve(xs, sign, dtp, dtl)
        resid = curve - f_sq
        pos = ys > 0.0
        brackets = (pos[:-1] & pos[1:]) & (
            (resid[:-1] == 0.0) | (resid[:-1] * resid[1:] < 0.0))
        for i in np.flatnonzero(brackets):
            # bisect the bracket on this branch, then polish in 2-D
            side = float(resid[i])
            lo, hi = _bisect(
                float(xs[i]), float(xs[i + 1]), 60,
                lambda x: (_branch_drive_curve(x, sign, dtp, dtl)[1]
                           - f_sq) * side > 0.0)
            x0 = 0.5 * (lo + hi)
            y0 = _branch_drive_curve(x0, sign, dtp, dtl)[0]
            if y0 <= 0.0:
                continue
            x, y = _polish_pair(x0, y0, f_norm, dtp, dtl)
            if y > 0.0:
                solutions.append((x, y))

    deduped: list[tuple[float, float]] = []
    for x, y in sorted(solutions):
        if not any(abs(x - a) < 1e-7 and abs(y - b) < 1e-7
                   for a, b in deduped):
            deduped.append((x, y))

    states = []
    for x, y in deduped:
        u = dtl - 3.0 * y - 2.0 * x
        phi = math.atan2(1.0 / x, u / x)
        sin_psi = (math.sqrt(x) / f_norm) * (
            dtp - x - (2.0 * y / x) * (dtl - 3.0 * y))
        cos_psi = (math.sqrt(x) / f_norm) * (1.0 + 2.0 * y / x)
        # u < 0 is the frozen-pump pair gate, −1 ± √(1 + 12yu) on the
        # symmetric sector; the block adds the pump's own dynamics
        stable = u < 0.0 and bool(np.max(np.linalg.eigvals(
            _symmetric_block(x, y, phi, dtp, dtl)).real) < 0.0)
        states.append(SteadyState(ap2=x, a2=y, phi=phi,
                                  psi=math.atan2(sin_psi, cos_psi),
                                  branch=Branch.PARAMETRIC, stable=stable))
    return states


def threshold(dtp: float, dtl: float) -> ThresholdReport:
    """Lowest drive F at which a parametric solution appears.

    The drive equation along the gain-balance line gives the attainable
    F² values directly, so the scan walks that curve (which never misses
    narrow existence windows, unlike probing F blindly), brackets its
    minimum, and a bisection on actual parametric_branch existence
    sharpens the edge. Reports exists = False when nothing oscillates up
    to F = 20.
    """
    if dtl <= math.sqrt(3.0):
        return ThresholdReport(f_threshold=math.nan, exists=False)
    # y > 0 confines x between the roots of 3x² − 4·dtl·x + dtl² + 1
    x_top = (2.0 * dtl + math.sqrt(dtl * dtl - 3.0)) / 3.0
    f_max_sq = _THRESHOLD_F_MAX * _THRESHOLD_F_MAX
    xs = np.linspace(1.0, min(x_top + 1.0, f_max_sq + 1.0),
                     _THRESHOLD_SCAN_POINTS)
    best = math.inf
    for sign in (+1.0, -1.0):
        ys, f_sq = _branch_drive_curve(xs, sign, dtp, dtl)
        ok = (ys > 0.0) & (f_sq > 0.0)
        if ok.any():
            best = min(best, float(np.min(f_sq[ok])))
    if not math.isfinite(best) or best > f_max_sq:
        return ThresholdReport(f_threshold=math.nan, exists=False)

    def exists_at(f: float) -> bool:
        return bool(parametric_branch(f, dtp, dtl))

    # The existence set in F² is bounded on both sides, so probe just
    # above the curve minimum on a geometric ladder (stepping too far up
    # can overshoot a narrow window entirely), then bisect the edge.
    hi = None
    for eps in (1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2):
        cand = math.sqrt(best * (1.0 + eps))
        if exists_at(cand):
            hi = cand
            break
    if hi is None:
        return ThresholdReport(f_threshold=math.nan, exists=False)
    lo = math.sqrt(best) * (1.0 - 1e-6)
    for _ in range(60):
        if not exists_at(lo):
            break
        lo *= 1.0 - 1e-4
    _, hi = _bisect(lo, hi, 80, lambda f: not exists_at(f))
    return ThresholdReport(f_threshold=hi, exists=True)
