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

The drive curve F²(x) along the pair line depends on (Δ̃_p, Δ̃_L) alone.
parametric_branch samples it once per (sign, Δ̃_p, Δ̃_L) and shares that
scan between calls, so the threshold search, and the amplitude cells of
a sweep row, scan each branch once. Each cached scan also carries the
range of F² its y > 0 steps can bracket, and the F² bounds of each
step. A branch whose range excludes F² skips the bracket search, which
on such a branch finds nothing, and the search tests only the steps
whose bounds hold F² (docs/derivation.md, "Steady states"). threshold
probes for a root just above the least F² on a 20,000-point grid in x,
which it builds and scans a cache-sized block at a time, and bisects
down to the least F² the two cached scans can bracket.

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
import functools
import math
from collections.abc import Callable, Iterator
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
_THRESHOLD_F_SQ_MAX = 400.0  # threshold reports exists = False above F = 20
_THRESHOLD_SCAN_POINTS = 20000
_THRESHOLD_BLOCK = 4096  # grid samples per block of _least_drive_sq
# largest |F|, |Δ̃_p| and |Δ̃_L| the solvers take: the arithmetic
# overflows from |Δ̃_p| ≈ 7e51 (docs/derivation.md, "Steady states")
_INPUT_LIMIT = 1e50


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

    two_b = 2.0 * b
    polished = []
    for x in roots:
        for _ in range(40):
            fx = ((x + b) * x + c) * x + d
            dfx = (3.0 * x + two_b) * x + c
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


def _check_inputs(**values: float) -> None:
    """Raise ValueError naming every argument that is NaN or infinite,
    else every one whose magnitude exceeds _INPUT_LIMIT."""
    bad = [name for name, value in values.items()
           if not -_INPUT_LIMIT <= value <= _INPUT_LIMIT]
    if bad:
        nonfinite = [name for name in bad if not math.isfinite(values[name])]
        raise ValueError(f"{', '.join(nonfinite)} must be finite" if nonfinite
                         else f"{', '.join(bad)} must be at most "
                              f"{_INPUT_LIMIT:g} in magnitude")


def _pump_only_psi(dtp: float, x: float) -> float:
    """Pump phase lag: tan ψ = (Δ̃_p − x) with cos ψ ∝ 1."""
    return math.atan2(dtp - x, 1.0)


def pump_only_branches(f_norm: float, dtp: float) -> list[SteadyState]:
    """All pump-only steady states (y = 0), sorted by pump power.

    Between one and three roots exist. Stability is the single-mode Kerr
    rule, dF²/dx > 0: the middle of three roots (the back-bend) and the
    double root of two (a fold, marginal) are unstable, so the lowest
    root is stable except at the upper fold. Parametric instability of
    these states is the business of the fluctuation matrix. A NaN or
    infinite argument, or one past ±_INPUT_LIMIT, is a ValueError.
    """
    _check_inputs(f_norm=f_norm, dtp=dtp)
    if f_norm < 0:
        raise ValueError("f_norm must be nonnegative")
    roots = _cubic_roots(dtp, f_norm * f_norm)
    unstable = 1
    if len(roots) == 2:  # the double root is where dF²/dx vanishes
        unstable = min((0, 1), key=lambda i: abs(
            1.0 + dtp * dtp - 4.0 * dtp * roots[i] + 3.0 * roots[i] ** 2))
    return [SteadyState(ap2=x, a2=0.0, phi=0.0, psi=_pump_only_psi(dtp, x),
                        branch=Branch.PUMP_ONLY, stable=i != unstable)
            for i, x in enumerate(roots)]


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
    pp = -1.0 + 1j * (2.0 * x + 4.0 * y - dtp)
    pq = 1j * (x + 2.0 * y * h2)
    sp = 2j * g * h.real
    sq = 1j * g * h
    ss = -1.0 + 1j * (2.0 * x + 6.0 * y - dtl)
    st = 1j * (x + 3.0 * y * h2)
    # daggered rows: conjugate, with the p/p† and S/S† columns swapped
    return np.array([
        [pp, pq, sp, sq],
        [pq.conjugate(), pp.conjugate(), sq.conjugate(), sp.conjugate()],
        [sp, sq, ss, st],
        [sq.conjugate(), sp.conjugate(), st.conjugate(), ss.conjugate()]])


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
    """Damped Newton on the two-equation residual.

    Newton returns as soon as both residuals are below _RESIDUAL_TOL.
    Where it stalls instead, its end point is accepted with the drive
    residual taken relative to max(F², 1), since rounding alone puts
    x(g² + h²) − F² near 1e-8 once F² nears 1e5.
    """
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
    if abs(r1) < _RESIDUAL_TOL and abs(r2) < _RESIDUAL_TOL * max(
            f_norm * f_norm, 1.0):
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


def _pair_power(xs: np.ndarray, sign: float, dtl: float,
                root: np.ndarray | None = None) -> np.ndarray:
    """y along one sign branch of the gain-balance line, at xs.

    ``root`` is √(x² − 1) at xs, for a caller that shares it between
    the two signs.
    """
    if root is None:
        root = np.sqrt(np.maximum(xs * xs - 1.0, 0.0))
    ys = dtl - 2.0 * xs
    ys -= sign * root
    ys /= 3.0
    return ys


def _drive_sq(xs: np.ndarray, ys: np.ndarray, dtp: float,
              dtl: float) -> np.ndarray:
    """F² at the points (x, y) of the gain-balance line, elementwise.

    With t = 2y/x, F² = x(g² + h²) for g = 1 + t and
    h = Δ̃_p − x − t(Δ̃_L − 3y). The steps run in place, so that few
    arrays of the input's size are alive at once. _bracket_root computes
    the same operations on floats in the same order, up to swapped
    operands of + and ×, so both give the same bits.
    """
    t = 2.0 * ys
    t /= xs
    h = dtl - 3.0 * ys
    h *= t
    np.subtract(dtp - xs, h, out=h)
    t += 1.0
    t *= t
    h *= h
    t += h
    t *= xs
    return t


def _bracket_root(lo: float, hi: float, side: float, f_sq: float,
                  sign: float, dtp: float, dtl: float) -> tuple[float, float]:
    """(x₀, y at x₀) for the scan step [lo, hi] that brackets F² = f_sq.

    ``side`` is the step's left residual F²(lo) − f_sq, and a midpoint
    moves lo while (F²(mid) − f_sq)·side > 0, else hi. The loop is
    _bisect with 60 steps over _pair_power and _drive_sq on floats,
    inlined: it stops at the first step that changes neither end, and
    x₀ is the midpoint of the final [lo, hi].
    """
    sqrt = math.sqrt
    for step in range(61):
        x = 0.5 * (lo + hi)
        r = x * x - 1.0  # never −0.0, so this is max(r, 0.0)
        y = (dtl - 2.0 * x - sign * sqrt(r if r > 0.0 else 0.0)) / 3.0
        if step == 60:
            break
        t = 2.0 * y / x
        g = 1.0 + t
        h = dtp - x - t * (dtl - 3.0 * y)
        if (x * (g * g + h * h) - f_sq) * side > 0.0:
            if x == lo:
                break
            lo = x
        elif x == hi:
            break
        else:
            hi = x
    return x, y


def _step_bounds(curve: np.ndarray,
                 pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The F² bounds of a scan's steps and their range (f_lo, f_hi).

    The bounds are two rows (lo, hi), the least and the greatest of each
    step's two samples, NaN left out, and (inf, −inf) where ``pair`` is
    False; the range is the least lo and the greatest hi.
    """
    left, right = curve[:-1], curve[1:]
    bounds = np.where(pair, [np.fmin(left, right), np.fmax(left, right)],
                      [[math.inf], [-math.inf]])
    return bounds, np.array([np.fmin.reduce(bounds[0], initial=math.inf),
                             np.fmax.reduce(bounds[1], initial=-math.inf)])


def _brackets(curve: np.ndarray, bounds: np.ndarray,
              f_sq: float) -> list[tuple[int, float]]:
    """(i, c_i − F²) for each step i of a scan that brackets F².

    A step brackets F² when it is a y > 0 step and c_i − F² is 0 or has
    the opposite sign to c_{i+1} − F². Either way F² lies within the
    step's ``bounds``, so only those steps are tested, on floats, with
    the bits of the array test.
    """
    out = []
    for i in np.flatnonzero((bounds[0] <= f_sq) & (f_sq <= bounds[1])
                            ).tolist():
        left = float(curve[i]) - f_sq
        if left == 0.0 or left * (float(curve[i + 1]) - f_sq) < 0.0:
            out.append((i, left))
    return out


@functools.lru_cache(maxsize=8)  # ~40 KB per entry
def _branch_scan(sign: float, dtp: float, dtl: float,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sweep of one sign branch over its y > 0 interval: x, F², the
    F² range its y > 0 steps can bracket and the F² bounds of each step;
    needs dtl > √3.

    y > 0 confines x between the roots x_dn < x_up of
    3x² − 4·dtl·x + (dtl² + 1): branch u = +√(x²−1) lives on [1, x_dn),
    branch u = −√(x²−1) on (x_dn, x_up) for dtl ≤ 2 and [1, x_up)
    otherwise. Scanning exactly these intervals keeps the resolution
    adaptive and catches crossings that hug the y = 0 boundary; an empty
    interval has no steps.

    A y > 0 step has y > 0 at both ends. The third array is (f_lo,
    f_hi), the least and the greatest F² sample at the ends of those
    steps, and the fourth the F² bounds of each step, both from
    _step_bounds. A bracket at step i has F² between its two
    samples, so only a step whose bounds hold F² can have one, and no F²
    outside [f_lo, f_hi] has one. The scan does not depend on F, so
    calls at one (Δ̃_p, Δ̃_L) share it; the arrays are read-only.
    """
    s3 = math.sqrt(dtl * dtl - 3.0)
    x_dn = (2.0 * dtl - s3) / 3.0
    a, b = (1.0, x_dn) if sign > 0.0 else (
        1.0 if dtl > 2.0 else x_dn, (2.0 * dtl + s3) / 3.0)
    xs = np.linspace(a, b, _SCAN_POINTS if b > a else 0)
    ys = _pair_power(xs, sign, dtl)
    curve = _drive_sq(xs, ys, dtp, dtl)
    pos = ys > 0.0
    pair = pos[:-1] & pos[1:]
    bounds, f_range = _step_bounds(curve, pair)
    for arr in (xs, curve, f_range, bounds):
        arr.flags.writeable = False
    return xs, curve, f_range, bounds


def parametric_branch(f_norm: float, dtp: float,
                      dtl: float) -> list[SteadyState]:
    """All steady states with nonzero signal/idler power at this drive.

    The gain-balance line x² = 1 + (Δ̃_L − 2x − 3y)² is swept in x on
    both square-root branches; crossings of the drive equation are
    bracketed on the sweep and Newton polished; a polish that does not
    converge raises NoConvergenceError. The sweep is shared per (sign,
    Δ̃_p, Δ̃_L). Each cached sweep carries the F² range its y > 0 steps
    can bracket, and a branch whose range excludes F² is not searched.
    A root is stable when u < 0 and its exchange-symmetric block is
    Hurwitz; the antisymmetric sector, free phase split included, is
    {0, −2} for every root. A NaN or infinite argument, or one past
    ±_INPUT_LIMIT, is a ValueError.
    """
    _check_inputs(f_norm=f_norm, dtp=dtp, dtl=dtl)
    if f_norm <= 0:
        return []
    if dtl <= math.sqrt(3.0):
        return []  # y > 0 requires dtl > sqrt(3)

    f_sq = f_norm * f_norm
    solutions: list[tuple[float, float]] = []
    for sign in (+1.0, -1.0):
        xs, curve, (f_lo, f_hi), bounds = _branch_scan(sign, dtp, dtl)
        if not f_lo <= f_sq <= f_hi:
            continue  # no step can bracket F²
        for i, left in _brackets(curve, bounds, f_sq):
            # bisect the bracket on this branch, then polish in 2-D
            x0, y0 = _bracket_root(float(xs[i]), float(xs[i + 1]), left,
                                   f_sq, sign, dtp, dtl)
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


def _threshold_grid(stop: float) -> Iterator[np.ndarray]:
    """np.linspace(1.0, stop, _THRESHOLD_SCAN_POINTS) in blocks of at
    most _THRESHOLD_BLOCK samples, in linspace's own arithmetic: sample
    k is k·step + 1.0, and the last one is ``stop``."""
    n = _THRESHOLD_SCAN_POINTS
    step = (stop - 1.0) / (n - 1)
    for k in range(0, n, _THRESHOLD_BLOCK):
        xs = np.arange(k, min(k + _THRESHOLD_BLOCK, n), dtype=float)
        xs *= step
        xs += 1.0
        if k + _THRESHOLD_BLOCK >= n:
            xs[-1] = stop
        yield xs


def _least_drive_sq(dtp: float, dtl: float) -> float:
    """Least positive F² over the y > 0 samples of both sign branches on
    threshold's x grid, or inf when there is none; needs dtl > √3.

    The grid is taken a block at a time (_threshold_grid), so each
    block's arrays stay small enough to be reused rather than paged in
    afresh. F² is evaluated only where y > 0. Elementwise arithmetic
    gives the same bits on a subset, and the least of the block minima
    is the global one, so this is the minimum over the full grid with
    the y ≤ 0 samples masked out.
    """
    # y > 0 confines x between the roots of 3x² − 4·dtl·x + dtl² + 1
    x_top = (2.0 * dtl + math.sqrt(dtl * dtl - 3.0)) / 3.0
    best = math.inf
    for xs in _threshold_grid(min(x_top, _THRESHOLD_F_SQ_MAX) + 1.0):
        root = np.sqrt(np.maximum(xs * xs - 1.0, 0.0))
        for sign in (+1.0, -1.0):
            ys = _pair_power(xs, sign, dtl, root)
            pos = ys > 0.0
            f_sq = _drive_sq(xs[pos], ys[pos], dtp, dtl)
            # NaN fails the test too
            best = float(np.min(f_sq, where=f_sq > 0.0, initial=best))
    return best


def threshold(dtp: float, dtl: float) -> ThresholdReport:
    """Lowest drive F at which parametric_branch finds a root.

    The drive equation along the gain-balance line gives the attainable
    F² values directly. The search takes the least of them on a
    20,000-point x grid, probes just above it for a root, and bisects
    down to lo = √f_lo·(1 − 1e-6) on parametric_branch existence, f_lo
    being the lesser of the two cached scans' least bracketable F². No
    branch is searched at lo, since lo² lies below both scans' ranges,
    so lo has no root. The grid can step over a narrow existence window,
    and parametric_branch's own scan over a narrow bracket, so the
    result need not be the exact minimum of the drive curve, and a point
    can report exists = False though a window opens below F = 20. What
    holds is this: the returned F is a float at which parametric_branch
    finds a root, and at the float just below it finds none. Reports
    exists = False when no root is found up to F = 20. A NaN or infinite
    detuning, or one past ±_INPUT_LIMIT, is a ValueError.
    """
    _check_inputs(dtp=dtp, dtl=dtl)
    if dtl <= math.sqrt(3.0):
        return ThresholdReport(f_threshold=math.nan, exists=False)
    best = _least_drive_sq(dtp, dtl)
    if not math.isfinite(best) or best > _THRESHOLD_F_SQ_MAX:
        return ThresholdReport(f_threshold=math.nan, exists=False)
    # The existence set in F² is bounded on both sides, so probe just
    # above the curve minimum on a geometric ladder (stepping too far up
    # can overshoot a narrow window entirely), then bisect the edge.
    hi = None
    for eps in (1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2):
        cand = math.sqrt(best * (1.0 + eps))
        if parametric_branch(cand, dtp, dtl):
            hi = cand
            break
    if hi is None:
        return ThresholdReport(f_threshold=math.nan, exists=False)
    # the probes cached both scans; F² ≥ x ≥ 1 keeps hi/lo below ~20
    f_lo = min(_branch_scan(+1.0, dtp, dtl)[2][0],
               _branch_scan(-1.0, dtp, dtl)[2][0])
    lo = math.sqrt(f_lo) * (1.0 - 1e-6)
    _, hi = _bisect(lo, hi, 80,
                    lambda f: not parametric_branch(f, dtp, dtl))
    return ThresholdReport(f_threshold=hi, exists=True)
