import cmath
import inspect
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcomb import oracle, phases, steady
from kerrcomb.fluct import build_m
from kerrcomb.steady import (
    SteadyState,
    bistability_turning_points,
    parametric_branch,
    pump_only_branches,
    threshold,
)

from helpers import amplitudes_of, drive_of

SQRT3 = math.sqrt(3.0)


def ode_residual(state: SteadyState, f, dtp, dtl) -> float:
    rhs = oracle.mean_field_rhs(amplitudes_of(state), drive_of(f, dtp, dtl))
    return float(np.max(np.abs(rhs)))


def _fd_full_jacobian(state, f, dtp, dtl, h=1e-6):
    """Central differences of the oracle vector field in the doubled
    six-dimensional space; independent check of the symmetric block."""
    base = amplitudes_of(state)

    def field(d):
        a_p = base[0] + d[0]
        a_p_c = np.conj(base[0]) + d[1]
        a_m = base[1] + d[2]
        a_m_c = np.conj(base[1]) + d[3]
        a_q = base[2] + d[4]
        a_q_c = np.conj(base[2]) + d[5]
        d_p, d_m, d_q = oracle._rhs_detached(a_p, a_p_c, a_m, a_m_c,
                                             a_q, a_q_c, f, dtp, dtl)
        d_p_c, d_m_c, d_q_c = np.conj(oracle._rhs_detached(
            np.conj(a_p_c), np.conj(a_p), np.conj(a_m_c), np.conj(a_m),
            np.conj(a_q_c), np.conj(a_q), f, dtp, dtl))
        return np.array([d_p, d_p_c, d_m, d_m_c, d_q, d_q_c])

    jac = np.zeros((6, 6), dtype=complex)
    for k in range(6):
        e_k = np.zeros(6, dtype=complex)
        e_k[k] = h
        jac[:, k] = (field(e_k) - field(-e_k)) / (2.0 * h)
    return jac


def _max_re_without_null(m: np.ndarray) -> float:
    """Largest real part once the eigenvalue nearest zero is dropped."""
    eigs = np.linalg.eigvals(m)
    return float(np.max(np.delete(eigs, np.argmin(np.abs(eigs))).real))


class TestPumpOnly:
    def test_zero_drive_dark_cavity(self):
        states = pump_only_branches(0.0, 1.3)
        assert len(states) == 1
        assert states[0].ap2 == 0.0
        assert states[0].stable

    def test_roots_satisfy_cubic(self, rng):
        for _ in range(200):
            f = float(rng.uniform(0, 3))
            dtp = float(rng.uniform(-3, 4))
            states = pump_only_branches(f, dtp)
            assert 1 <= len(states) <= 3
            xs = [s.ap2 for s in states]
            assert xs == sorted(xs)
            for x in xs:
                assert x * (1.0 + (dtp - x) ** 2) == pytest.approx(
                    f * f, abs=1e-10 * max(1.0, f * f))

    def test_middle_root_unstable(self):
        (x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(2.5)
        f = math.sqrt(0.5 * (f2_lo + f2_hi))
        states = pump_only_branches(f, 2.5)
        assert [s.stable for s in states] == [True, False, True]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(f=st.floats(0.0, 4.0), dtp=st.floats(-3.0, 6.0))
    def test_lowest_root_off_the_back_bend(self, f, dtp):
        # operating_state takes roots[0]: F² never falls with x there
        states = pump_only_branches(f, dtp)
        x = states[0].ap2
        assert 1.0 + dtp * dtp - 4.0 * dtp * x + 3.0 * x * x >= \
            -1e-6 * (1.0 + dtp * dtp)
        assert states[0].stable or len(states) == 2

    def test_fold_double_root_unstable(self):
        # F² nudged by a few ulps around each fold until the cubic reports
        # a double root: at the upper fold (F² at its local maximum) that
        # is the lowest root, at the lower fold the highest; either way
        # the double root is marginal and the simple root stable
        kinds = set()
        for dtp in np.linspace(1.75, 5.0, 40):
            for x_fold, f2 in bistability_turning_points(float(dtp)):
                for k in range(-200, 200):
                    states = pump_only_branches(
                        math.sqrt(f2 * (1.0 + k * 1e-17)), float(dtp))
                    if len(states) != 2:
                        continue
                    double = min((0, 1), key=lambda i: abs(
                        states[i].ap2 - x_fold))
                    assert [s.stable for s in states] == \
                        [i != double for i in (0, 1)]
                    kinds.add(double)
        assert kinds == {0, 1}

    def test_single_root_below_onset(self, rng):
        # no drive admits three roots unless dtp exceeds sqrt(3)
        for _ in range(300):
            dtp = float(rng.uniform(-2.0, SQRT3))
            f = float(rng.uniform(0, 4))
            assert len(pump_only_branches(f, dtp)) == 1

    def test_onset_point_values(self):
        (x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(SQRT3)
        assert x_lo == pytest.approx(2.0 * SQRT3 / 3.0, rel=1e-12)
        assert x_hi == pytest.approx(2.0 * SQRT3 / 3.0, rel=1e-12)
        assert f2_lo == pytest.approx(8.0 * SQRT3 / 9.0, rel=1e-12)

    def test_pump_only_is_ode_fixed_point(self, rng):
        for _ in range(40):
            f = float(rng.uniform(0.05, 2.5))
            dtp = float(rng.uniform(-2, 3))
            for s in pump_only_branches(f, dtp):
                assert ode_residual(s, f, dtp, dtp) < 1e-10


class TestParametric:
    def test_below_threshold_empty(self):
        rep = threshold(2.0, 2.0)
        assert rep.exists
        assert parametric_branch(0.9 * rep.f_threshold, 2.0, 2.0) == []

    def test_small_pair_detuning_never_oscillates(self, rng):
        for _ in range(30):
            dtl = float(rng.uniform(-1.0, SQRT3))
            f = float(rng.uniform(0, 6))
            assert parametric_branch(f, float(rng.uniform(-1, 3)), dtl) == []

    def test_pump_clamped_above_unity(self, rng):
        found = 0
        for _ in range(60):
            dtl = float(rng.uniform(1.8, 3.0))
            dtp = dtl + float(rng.uniform(-0.2, 0.2))
            rep = threshold(dtp, dtl)
            if not rep.exists:
                continue
            for s in parametric_branch(1.02 * rep.f_threshold, dtp, dtl):
                found += 1
                assert s.ap2 >= 1.0
                assert s.a2 > 0.0
                gain = s.ap2 ** 2 - 1.0
                mismatch = (dtl - 2.0 * s.ap2 - 3.0 * s.a2) ** 2
                assert gain == pytest.approx(mismatch, abs=1e-8)
        assert found > 20

    def test_polish_converges_from_the_branch_fold(self):
        # a bracket ending at x = 1, where the two square-root branches
        # meet; the damped step must be allowed to stay on x = 1
        f, dtp, dtl = (1.3889550191208353, 2.0938751944795713,
                       2.2747623495239777)
        x, y = steady._polish_pair(1.0, 0.0915874498413259, f, dtp, dtl)
        assert x >= 1.0 and y > 0.0
        r1, r2, _ = steady._pair_system(x, y, f, dtp, dtl)
        assert max(abs(r1), abs(r2)) < 1e-9

    def test_large_drive_roots_are_accepted(self):
        # F² ≈ 3.5e5: rounding alone leaves the drive residual
        # x(g² + h²) − F² near 1e-8, above an absolute 1e-9
        f, dtp, dtl = 591.69, 4.3219, 514.03
        roots = parametric_branch(f, dtp, dtl)
        assert len(roots) == 2
        for s in roots:
            r1, r2, _ = steady._pair_system(s.ap2, s.a2, f, dtp, dtl)
            assert abs(r1) < 1e-9 and 1e-9 < abs(r2) < 1e-9 * f * f
            assert ode_residual(s, f, dtp, dtl) < 1e-10

    def test_phases_are_consistent(self):
        for s in parametric_branch(1.6, 2.4, 2.4):
            assert math.sin(s.phi) == pytest.approx(1.0 / s.ap2, abs=1e-9)
            assert math.sin(s.phi) ** 2 + math.cos(s.phi) ** 2 == \
                pytest.approx(1.0, abs=1e-12)

    def test_solutions_are_ode_fixed_points(self):
        sols = parametric_branch(1.6, 2.4, 2.4)
        assert len(sols) == 3
        for s in sols:
            assert ode_residual(s, 1.6, 2.4, 2.4) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(f=st.floats(0.0, 4.0, exclude_min=True),
           dtp=st.floats(-1.0, 6.0), dtl=st.floats(1.5, 7.0))
    @example(f=1.6, dtp=2.4, dtl=2.4)
    def test_every_root_is_an_ode_fixed_point(self, f, dtp, dtl):
        sols = parametric_branch(f, dtp, dtl)
        for s in sols:
            assert s.a2 > 0.0
            assert s.ap2 >= 1.0
            assert ode_residual(s, f, dtp, dtl) < 1e-10
        for a, b in zip(sols, sols[1:]):
            assert a.ap2 <= b.ap2
        for i, a in enumerate(sols):
            for b in sols[i + 1:]:
                assert max(abs(a.ap2 - b.ap2), abs(a.a2 - b.a2)) >= 1e-7

    def test_stability_split(self, rng):
        # references rebuilt from the raw vector field: the frozen-pump
        # pair gate and the full 6×6 three-mode linearization, each with
        # its eigenvalue nearest zero (the free phase split) dropped
        drives = [(1.6, 2.4, 2.4)] + [
            (float(rng.uniform(0.0, 4.0)) or 1.0, float(rng.uniform(-1, 6)),
             float(rng.uniform(1.5, 7.0))) for _ in range(400)]
        checked = skipped = stable = 0
        for f, dtp, dtl in drives:
            for s in parametric_branch(f, dtp, dtl):
                pair = _max_re_without_null(build_m(s, dtl).m)
                full = _max_re_without_null(_fd_full_jacobian(s, f, dtp, dtl))
                if pair >= 1e-5 or full >= 1e-5:
                    expected = False
                elif pair <= -1e-5 and full <= -1e-5:
                    expected = True
                else:
                    skipped += 1
                    continue
                assert s.stable == expected, (f, dtp, dtl, s)
                checked += 1
                stable += expected
        print(f"stability split: {checked} roots checked, {stable} stable, "
              f"{skipped} skipped within 1e-5 of marginal")
        assert checked > 100 and 10 < stable < checked
        assert skipped <= checked // 50

    def test_symmetric_block_matches_finite_differences(self, rng):
        # (p, p†, S, S†, A, A†) with S, A = (δa₋ ± δa₊)/√2 over the FD
        # basis (p, p†, a₋, a₋†, a₊, a₊†); psi = 0 puts a_p on the real
        # axis, the gauge of the block
        r = 1.0 / math.sqrt(2.0)
        v = np.array([[1, 0, 0, 0, 0, 0],
                      [0, 1, 0, 0, 0, 0],
                      [0, 0, r, 0, r, 0],
                      [0, 0, 0, r, 0, r],
                      [0, 0, r, 0, -r, 0],
                      [0, 0, 0, r, 0, -r]])
        checked = 0
        while checked < 15:
            dtl = float(rng.uniform(1.9, 2.6))
            dtp = dtl + float(rng.uniform(-0.1, 0.1))
            rep = threshold(dtp, dtl)
            if not rep.exists:
                continue
            f = 1.03 * rep.f_threshold
            for s in parametric_branch(f, dtp, dtl):
                split = v.T @ _fd_full_jacobian(replace(s, psi=0.0), f, dtp,
                                                dtl) @ v
                block = steady._symmetric_block(s.ap2, s.a2, s.phi, dtp, dtl)
                assert np.max(np.abs(split[:4, :4] - block)) < 1e-6
                assert np.max(np.abs(split[:4, 4:])) < 1e-6
                assert np.max(np.abs(split[4:, :4])) < 1e-6
                anti = np.sort_complex(np.linalg.eigvals(split[4:, 4:]))
                assert np.max(np.abs(anti - [-2.0, 0.0])) < 1e-6
                checked += 1

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(x=st.floats(1.001, 10.0), y=st.floats(1e-3, 10.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_pair_gate_is_sign_of_mismatch(self, x, y, sign):
        # a state on the gain-balance line, placed by choosing Δ̃_L; the
        # frozen-pump M has {0, −2} and −1 ± √(1 + 12yu) as eigenvalues
        u = sign * math.sqrt(x * x - 1.0)
        dtl = 2.0 * x + 3.0 * y + u
        s = SteadyState(ap2=x, a2=y, phi=math.atan2(1.0 / x, u / x), psi=0.0,
                        branch=steady.Branch.PARAMETRIC, stable=False)
        m = build_m(s, dtl).m
        root = cmath.sqrt(1.0 + 12.0 * y * u)
        want = np.array([0.0, -2.0, -1.0 + root, -1.0 - root])
        dist = np.abs(np.linalg.eigvals(m)[:, None] - want[None, :])
        tol = 1e-6 * max(1.0, abs(root))
        assert np.all(dist.min(axis=0) < tol)
        assert np.all(dist.min(axis=1) < tol)
        assert (_max_re_without_null(m) < 0.0) == (u < 0.0)

    def test_shared_scan_changes_no_bit(self, rng):
        # the last three rows have Δ̃_L in (√3, 2], where the minus branch
        # starts at x_dn
        rows = [(float(rng.uniform(-1, 6)), float(rng.uniform(1.75, 7)))
                for _ in range(9)]
        rows += [(float(rng.uniform(-1, 3)), float(rng.uniform(1.74, 2.0)))
                 for _ in range(3)]
        drives = [(float(f), dtp, dtl) for dtp, dtl in rows
                  for f in rng.uniform(0.3, 4.0, 10)]
        assert _branch_kinds(drives) == ALL_BRANCH_KINDS

        def cold(drive):
            steady._branch_scan.cache_clear()
            return repr(parametric_branch(*drive))

        expected = [cold(d) for d in drives]
        assert sum(r != "[]" for r in expected) > 20
        # three rows at a time, one drive of each in turn: their six
        # scans fit the cache together
        across_rows = [drives[10 * row + j] for first in range(0, 12, 3)
                       for j in range(10) for row in range(first, first + 3)]
        for order in (drives, across_rows):
            steady._branch_scan.cache_clear()
            got = {d: repr(parametric_branch(*d)) for d in order}
            assert [got[d] for d in drives] == expected
            assert steady._branch_scan.cache_info().hits > 0

    def test_shared_scan_is_read_only(self):
        for arr in steady._branch_scan(-1.0, 2.4, 2.4):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[1]


# (sign, starts at x = 1) of the branch scans: the plus branch always
# starts at 1, the minus branch at 1 for Δ̃_L > 2 and at x_dn otherwise
ALL_BRANCH_KINDS = {(1.0, True), (-1.0, True), (-1.0, False)}


def _pair_steps(xs: np.ndarray, sign: float, dtl: float) -> np.ndarray:
    """The y > 0 steps of a scan at xs: those with y > 0 at both ends."""
    pos = steady._pair_power(xs, sign, dtl) > 0.0
    return pos[:-1] & pos[1:]


def _branch_kinds(drives) -> set[tuple[float, bool]]:
    """(sign, starts at 1) of each branch scan with a y > 0 step that
    parametric_branch reads at ``drives``."""
    kinds = set()
    for _, dtp, dtl in drives:
        for sign in (1.0, -1.0):
            if dtl > SQRT3:
                xs, _, _, _ = steady._branch_scan(sign, dtp, dtl)
                if _pair_steps(xs, sign, dtl).any():
                    kinds.add((sign, bool(xs[0] == 1.0)))
    return kinds


def _outcome(drive, search=parametric_branch) -> str:
    """``search`` at ``drive``: its roots' repr, or what it raised."""
    try:
        return repr(search(*drive))
    except steady.NoConvergenceError as exc:
        return f"NoConvergenceError: {exc}"


def _with_and_without_range(monkeypatch, drive):
    """The outcome at ``drive`` as it is, and with every cached F² range
    widened to all F², so each branch goes on to the bracket search over
    the same scan arrays; and {sign: (f_lo, f_hi)} of the scans it read."""
    scan = steady._branch_scan
    ranges = {}

    def widened(*args):
        xs, curve, f_range, bounds = scan(*args)
        ranges[args[0]] = tuple(f_range)
        return xs, curve, np.array([-math.inf, math.inf]), bounds

    checked = _outcome(drive)
    with monkeypatch.context() as patch:
        patch.setattr(steady, "_branch_scan", widened)
        unchecked = _outcome(drive)
    return checked, unchecked, ranges


def _root_of(f_sq: float) -> float | None:
    """An F whose square is exactly ``f_sq``, if a float near √f_sq has one."""
    f = math.sqrt(f_sq)
    for _ in range(4):
        f = math.nextafter(f, 0.0)
    for _ in range(9):
        if f * f == f_sq:
            return f
        f = math.nextafter(f, math.inf)
    return None


class TestScanRange:
    """A branch whose scan cannot bracket F² skips the bracket search."""

    @staticmethod
    def _drives(rng, rows, per_row):
        # a quarter more rows with Δ̃_L in (√3, 2], where the minus
        # branch starts at x_dn
        drives = [(float(f), float(dtp), float(dtl))
                  for dtp, dtl in zip(rng.uniform(-1, 6, rows),
                                      rng.uniform(1.75, 7, rows))
                  for f in rng.uniform(0.3, 4.0, per_row)]
        drives += [(float(f), float(dtp), float(dtl))
                   for dtp, dtl in zip(rng.uniform(-1, 3, rows // 4),
                                       rng.uniform(1.74, 2.0, rows // 4))
                   for f in rng.uniform(0.3, 4.0, per_row)]
        assert _branch_kinds(drives) == ALL_BRANCH_KINDS
        return drives

    def test_skips_only_what_has_no_bracket(self, rng, monkeypatch):
        skipped = found = 0
        for drive in self._drives(rng, 40, 10):
            checked, unchecked, ranges = _with_and_without_range(
                monkeypatch, drive)
            assert checked == unchecked, drive
            f_sq = drive[0] * drive[0]
            skipped += any(not lo <= f_sq <= hi for lo, hi in ranges.values())
            found += checked != "[]"
        assert skipped > 100 and found > 50

    def test_nan_drive_is_refused(self, monkeypatch):
        # before any scan is read, with every non-finite input named
        read = []
        monkeypatch.setattr(steady, "_branch_scan", lambda *a: read.append(a))
        with pytest.raises(ValueError, match="^f_norm, dtl must be finite$"):
            parametric_branch(math.nan, 2.4, math.inf)
        assert read == []

    def test_range_ends_are_searched(self, rng, monkeypatch):
        # F² exactly at either end can be a sample, hence a bracket; one
        # float past it cannot
        kinds = {"lo": (0, 0.0), "hi": (1, 0.0),
                 "below_lo": (0, -math.inf), "above_hi": (1, math.inf)}
        seen = dict.fromkeys(kinds, 0)
        bracketed = dict.fromkeys(kinds, 0)
        for f0, dtp, dtl in self._drives(rng, 30, 4):
            _, _, ranges = _with_and_without_range(monkeypatch,
                                                   (f0, dtp, dtl))
            for sign, f_range in ranges.items():
                if not f_range[0] <= f_range[1]:
                    continue  # no y > 0 step on this branch
                for kind, (end, away) in kinds.items():
                    f_sq = f_range[end]
                    if away:
                        f_sq = math.nextafter(f_sq, away)
                    f = _root_of(f_sq)
                    if f is None:
                        continue
                    checked, unchecked, read = _with_and_without_range(
                        monkeypatch, (f, dtp, dtl))
                    assert read[sign] == f_range
                    assert checked == unchecked, (kind, f, dtp, dtl)
                    xs, curve, _, _ = steady._branch_scan(sign, dtp, dtl)
                    pair = _pair_steps(xs, sign, dtl)
                    resid = curve - f * f
                    seen[kind] += 1
                    bracketed[kind] += bool(np.any(pair & (
                        (resid[:-1] == 0.0) | (resid[:-1] * resid[1:] < 0.0))))
        assert min(seen.values()) >= 10, seen
        assert bracketed["lo"] > 0 and bracketed["hi"] > 0, bracketed
        assert bracketed["below_lo"] == bracketed["above_hi"] == 0, bracketed


def _curve(xs: np.ndarray, sign: float, dtp: float, dtl: float):
    """(y, F²) of the array formulas at xs."""
    ys = steady._pair_power(xs, sign, dtl)
    return ys, steady._drive_sq(xs, ys, dtp, dtl)


def _array_bisection(lo, hi, side, f_sq, sign, dtp, dtl):
    """The bracket search on _bisect, each probe a one-element array:
    (x₀, y at x₀) and the number of probes."""
    probes = []

    def keeps_lo(x):
        probes.append(x)
        c = _curve(np.array([x]), sign, dtp, dtl)[1][0]
        return (c - f_sq) * side > 0.0

    lo, hi = steady._bisect(lo, hi, 60, keeps_lo)
    x0 = 0.5 * (lo + hi)
    y0 = float(_curve(np.array([x0]), sign, dtp, dtl)[0][0])
    return (x0, y0), len(probes)


@pytest.fixture(scope="module")
def brackets():
    """(lo, hi, side, f_sq, sign, dtp, dtl, from_one) for bracketing
    steps of the scans parametric_branch reads at seeded drives, from_one
    telling whether the scan starts at x = 1. Each scan is cut at the
    drive's F², at an F² drawn from its bracketable range, and at one of
    its own y > 0 samples, whose step then has side 0."""
    rng = np.random.default_rng(20260808)
    out = []
    with pytest.MonkeyPatch.context() as patch:
        for f, dtp, dtl in TestScanRange._drives(rng, 30, 4):
            _, _, ranges = _with_and_without_range(patch, (f, dtp, dtl))
            for sign, (f_lo, f_hi) in ranges.items():
                if not f_lo <= f_hi:
                    continue  # no y > 0 step on this branch
                xs, curve, _, _ = steady._branch_scan(sign, dtp, dtl)
                pair = _pair_steps(xs, sign, dtl)
                sample = curve[rng.choice(np.flatnonzero(pair))]
                for f_sq in (f * f, rng.uniform(f_lo, f_hi), sample):
                    resid = curve - f_sq
                    for i in np.flatnonzero(pair & (
                            (resid[:-1] == 0.0)
                            | (resid[:-1] * resid[1:] < 0.0))):
                        out.append((float(xs[i]), float(xs[i + 1]),
                                    float(resid[i]), float(f_sq), sign, dtp,
                                    dtl, bool(xs[0] == 1.0)))
    return out


class TestBracketRoot:
    """The scalar bracket search is _bisect over the array formulas."""

    def test_matches_array_bisection(self, brackets):
        for lo, hi, side, f_sq, sign, dtp, dtl, _ in brackets:
            want, _ = _array_bisection(lo, hi, side, f_sq, sign, dtp, dtl)
            assert steady._bracket_root(lo, hi, side, f_sq, sign, dtp,
                                        dtl) == want, (lo, hi, f_sq)
        kinds = {(sign, from_one) for *_, sign, _, _, from_one in brackets}
        assert len(brackets) >= 500
        assert kinds == ALL_BRANCH_KINDS
        assert any(side == 0.0 for _, _, side, *_ in brackets)

    def test_stops_when_it_repeats(self, brackets, monkeypatch):
        passes = []  # one square root per pass of the loop

        def sqrt(v):
            passes.append(v)
            return math.sqrt(v)

        monkeypatch.setattr(steady, "math", SimpleNamespace(sqrt=sqrt))
        for lo, hi, side, f_sq, sign, dtp, dtl, _ in brackets:
            _, probes = _array_bisection(lo, hi, side, f_sq, sign, dtp, dtl)
            passes.clear()
            steady._bracket_root(lo, hi, side, f_sq, sign, dtp, dtl)
            # every scan step collapses to adjacent floats within 60
            # probes; the pass whose midpoint repeats is the last, and
            # its x is x₀
            assert len(passes) == probes < 60, (lo, hi, f_sq)


def _capped_search(f_norm: float, dtp: float,
                   dtl: float) -> list[SteadyState]:
    """parametric_branch as it was while F capped its scan interval at
    x = max(F², 1) + 1, on the production helpers: a fresh scan per call
    on the capped y > 0 interval, every bracket searched."""
    if f_norm <= 0 or dtl <= SQRT3:
        return []
    s3 = math.sqrt(dtl * dtl - 3.0)
    x_dn = (2.0 * dtl - s3) / 3.0
    x_up = (2.0 * dtl + s3) / 3.0
    x_cap = max(f_norm * f_norm, 1.0) + 1.0
    f_sq = f_norm * f_norm
    solutions = []
    for sign, a, b in ((1.0, 1.0, min(x_dn, x_cap)),
                       (-1.0, 1.0 if dtl > 2.0 else x_dn, min(x_up, x_cap))):
        if not b > a:
            continue
        xs = np.linspace(a, b, steady._SCAN_POINTS)
        ys, curve = _curve(xs, sign, dtp, dtl)
        pos = ys > 0.0
        resid = curve - f_sq
        for i in np.flatnonzero(pos[:-1] & pos[1:] & (
                (resid[:-1] == 0.0) | (resid[:-1] * resid[1:] < 0.0))):
            x0, y0 = steady._bracket_root(float(xs[i]), float(xs[i + 1]),
                                          float(resid[i]), f_sq, sign, dtp,
                                          dtl)
            if y0 > 0.0:
                x, y = steady._polish_pair(x0, y0, f_norm, dtp, dtl)
                if y > 0.0:
                    solutions.append((x, y))
    states = []
    for x, y in sorted(solutions):
        if any(abs(x - s.ap2) < 1e-7 and abs(y - s.a2) < 1e-7
               for s in states):
            continue
        u = dtl - 3.0 * y - 2.0 * x
        phi = math.atan2(1.0 / x, u / x)
        sin_psi = (math.sqrt(x) / f_norm) * (
            dtp - x - (2.0 * y / x) * (dtl - 3.0 * y))
        cos_psi = (math.sqrt(x) / f_norm) * (1.0 + 2.0 * y / x)
        stable = u < 0.0 and bool(np.max(np.linalg.eigvals(
            steady._symmetric_block(x, y, phi, dtp, dtl)).real) < 0.0)
        states.append(SteadyState(ap2=x, a2=y, phi=phi,
                                  psi=math.atan2(sin_psi, cos_psi),
                                  branch=steady.Branch.PARAMETRIC,
                                  stable=stable))
    return states


class TestOneScanPerDetuningPair:
    """The scan depends on (sign, Δ̃_p, Δ̃_L) alone, F on nothing of it."""

    def test_matches_the_capped_search(self, rng):
        # bracket bisection ends on adjacent floats, so a bracket lands
        # on the same sign change whichever scan step holds it
        drives = []
        for dtp, dtl in zip(rng.uniform(-1, 6, 90), rng.uniform(1.74, 7, 90)):
            rep = threshold(float(dtp), float(dtl))
            fs = list(rng.uniform(0.3, 4.0, 6))
            if rep.exists:
                fs += [m * rep.f_threshold
                       for m in (1.0, 1.02, 1.05, 1.5, 2.0)]
            drives += [(float(f), float(dtp), float(dtl)) for f in fs]
        # far detuned rows, just above their least drive
        far = np.exp(rng.uniform(math.log(7), math.log(100), 10))
        for dtp, dtl in zip(rng.uniform(-1, 6, 10), far):
            best = steady._least_drive_sq(float(dtp), float(dtl))
            drives += [(math.sqrt(best * m), float(dtp), float(dtl))
                       for m in (1.0 + 1e-6, 1.01, 1.1)]
        capped = found = 0
        for drive in drives:
            got = _outcome(drive)
            assert got == _outcome(drive, _capped_search), drive
            f, _, dtl = drive
            x_up = (2.0 * dtl + math.sqrt(dtl * dtl - 3.0)) / 3.0
            capped += f * f + 1.0 < x_up
            found += got != "[]"
        assert capped >= 200 and found > 100, (capped, found)

    def test_threshold_builds_at_most_two_scans(self, rng):
        found = 0
        for dtp, dtl in zip(rng.uniform(-1, 6, 30), rng.uniform(1.75, 7, 30)):
            steady._branch_scan.cache_clear()
            found += threshold(float(dtp), float(dtl)).exists
            assert steady._branch_scan.cache_info().misses <= 2
        assert found > 20

    def test_sweep_row_builds_at_most_two_scans(self, cfg, te00, monkeypatch):
        axes = cfg.sweep_defaults
        deltas = np.linspace(axes["delta_min_ghz"] * 1e9,
                             axes["delta_max_ghz"] * 1e9, 8)
        amps = np.linspace(axes["amp_min_v_per_m"], axes["amp_max_v_per_m"],
                           64)
        calls = []
        search = phases.parametric_branch
        monkeypatch.setattr(phases, "parametric_branch",
                            lambda *a: calls.append(a) or search(*a))
        searched_rows = 0
        for delta in deltas:
            pump = phases.pump_grid(te00, [delta], amps)
            for L in (1, 20):
                calls.clear()
                steady._branch_scan.cache_clear()
                phases.sweep(pump, L)
                misses = steady._branch_scan.cache_info().misses
                assert misses <= 2
                searched_rows += misses == 2 and len(calls) >= 32
        assert searched_rows >= 4


_FINITE_POINT = {"f_norm": 1.6, "dtp": 2.4, "dtl": 2.4}  # three roots


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("func, name", [
    (func, name) for func in (parametric_branch, threshold)
    for name in inspect.signature(func).parameters],
    ids=lambda v: getattr(v, "__name__", v))
def test_non_finite_input_is_refused_by_name(func, name, bad):
    kwargs = {k: _FINITE_POINT[k] for k in inspect.signature(func).parameters}
    # at the finite point there is a root and a threshold to answer with
    assert parametric_branch(1.6, 2.4, 2.4) and threshold(2.4, 2.4).exists
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        func(**kwargs)


@pytest.mark.parametrize("dtl", [1.35e154, -1e155, 1e300])
@pytest.mark.parametrize("func, args", [(parametric_branch, (1.0, 0.0)),
                                        (parametric_branch, (0.0, 0.0)),
                                        (threshold, (0.0,))],
                         ids=["branch", "branch-dark", "threshold"])
def test_overflowing_pair_detuning_is_refused(func, args, dtl, monkeypatch):
    # Δ̃_L² overflows: refused by name before any array is built
    def touched(*a):
        raise AssertionError("a scan was built")

    monkeypatch.setattr(steady, "_branch_scan", touched)
    monkeypatch.setattr(steady, "_least_drive_sq", touched)
    assert math.isinf(dtl * dtl)
    with pytest.raises(ValueError,
                       match="^dtl must be at most 1e\\+50 in magnitude$"):
        func(*args, dtl)


_LIMIT = steady._INPUT_LIMIT


def _answer(result):
    """What a solver answered: (ap2, a2, psi) per state, or the report."""
    if isinstance(result, steady.ThresholdReport):
        return repr(result)
    return [(s.ap2, s.a2, s.psi) for s in result]


_NO_THRESHOLD = repr(steady.ThresholdReport(f_threshold=math.nan,
                                            exists=False))
# (solver, the argument at ±_INPUT_LIMIT, its value, the others, what
# the solver answers there): the largest accepted magnitudes answer as
# they did before the bound, without an overflow warning
AT_LIMIT = [
    (pump_only_branches, "f_norm", _LIMIT, {"dtp": 0.0},
     [(2.1544346900318838e+33, 0.0, -math.pi / 2)]),
    (pump_only_branches, "dtp", _LIMIT, {"f_norm": 1.0},
     [(9.999999999999998e-101, 0.0, math.pi / 2)]),
    (pump_only_branches, "dtp", -_LIMIT, {"f_norm": 1.0},
     [(9.999999999999998e-101, 0.0, -math.pi / 2)]),
    (parametric_branch, "f_norm", _LIMIT, {"dtp": 2.4, "dtl": 2.4}, []),
    (parametric_branch, "dtp", _LIMIT, {"f_norm": 1.0, "dtl": 2.4}, []),
    (parametric_branch, "dtp", -_LIMIT, {"f_norm": 1.0, "dtl": 2.4}, []),
    (parametric_branch, "dtl", _LIMIT, {"f_norm": 1.0, "dtp": 0.0}, []),
    (parametric_branch, "dtl", -_LIMIT, {"f_norm": 1.0, "dtp": 0.0}, []),
    (threshold, "dtp", _LIMIT, {"dtl": 2.4}, _NO_THRESHOLD),
    (threshold, "dtp", -_LIMIT, {"dtl": 2.4}, _NO_THRESHOLD),
    (threshold, "dtl", _LIMIT, {"dtp": 0.0}, _NO_THRESHOLD),
]


@pytest.mark.parametrize("func, name, value, others, want", AT_LIMIT,
                         ids=lambda v: getattr(v, "__name__", None))
def test_inputs_past_the_limit_are_refused_by_name(func, name, value, others,
                                                   want, monkeypatch):
    assert _answer(func(**others, **{name: value})) == want
    past = math.nextafter(value, math.copysign(math.inf, value))

    def touched(*a):
        raise AssertionError("the solver computed past the limit")

    for kernel in ("_cubic_roots", "_branch_scan", "_least_drive_sq"):
        monkeypatch.setattr(steady, kernel, touched)
    with pytest.raises(ValueError,
                       match=f"^{name} must be at most 1e\\+50 in magnitude$"):
        func(**others, **{name: past})


def test_every_limit_is_named():
    with pytest.raises(ValueError, match="^f_norm, dtp, dtl must be at most"):
        parametric_branch(1e51, -1e155, 1e300)
    # a non-finite argument is named as such, before any large one
    with pytest.raises(ValueError, match="^dtl must be finite$"):
        parametric_branch(1e51, -1e155, math.inf)


def _full_grid_minimum(dtp: float, dtl: float) -> float:
    """Least positive F² at the y > 0 samples of threshold's x grid,
    with F² evaluated at every sample and the rest masked out."""
    x_top = (2.0 * dtl + math.sqrt(dtl * dtl - 3.0)) / 3.0
    xs = np.linspace(1.0, min(x_top + 1.0, 401.0),
                     steady._THRESHOLD_SCAN_POINTS)
    best = math.inf
    for sign in (+1.0, -1.0):
        ys, f_sq = _curve(xs, sign, dtp, dtl)
        ok = (ys > 0.0) & (f_sq > 0.0)
        if ok.any():
            best = min(best, float(np.min(f_sq[ok])))
    return best


class TestThresholdMinimum:
    def test_y_positive_subset_changes_no_bit(self, rng):
        points = [(float(dtp), float(dtl)) for dtp, dtl in
                  zip(rng.uniform(-1, 6, 100), rng.uniform(1.75, 7, 100))]
        # just above √3 no sample has y > 0; far detuned, F² = 400
        # caps the grid
        points += [(dtp, dtl) for dtp in (-0.5, 1.0, 3.0) for dtl in (
            math.nextafter(SQRT3, math.inf), SQRT3 + 1e-12, SQRT3 + 1e-8,
            SQRT3 + 1e-6, 1e3, 1e6)]
        # at Δ̃_L = 2 the sample x = 1 has y = 0 exactly and F² = 1 + (Δ̃_p
        # − 1)², below every y > 0 sample when Δ̃_p = 1: y ≥ 0 would take it
        points += [(1.0, 2.0), (1.2, 2.0)]
        ys, f_sq = _curve(np.array([1.0]), 1.0, 1.0, 2.0)
        assert (ys[0], f_sq[0]) == (0.0, 1.0)
        got = [steady._least_drive_sq(dtp, dtl) for dtp, dtl in points]
        assert got == [_full_grid_minimum(dtp, dtl) for dtp, dtl in points]
        assert got.count(math.inf) >= 6
        assert 1.0 < got[points.index((1.0, 2.0))] < math.inf


# threshold points where _walk_threshold outlasts its first 60 steps
WALK_PAST_60 = [(0.7949472382883835, 1.9986713558945053),
                (1.074526827828275, 1.9998911515654514),
                (0.46680977302421445, 1.9996159956502355)]


def _walk_threshold(dtp: float,
                    dtl: float) -> tuple[steady.ThresholdReport, int]:
    """threshold as it was while it walked lo down from the grid minimum,
    in steps of 1e-4 that doubled after 60, until no root was left; on
    the production helpers. Returns the report and the steps walked."""
    no = steady.ThresholdReport(f_threshold=math.nan, exists=False)
    if dtl <= SQRT3:
        return no, 0
    best = steady._least_drive_sq(dtp, dtl)
    if not math.isfinite(best) or best > steady._THRESHOLD_F_SQ_MAX:
        return no, 0
    hi = next((f for f in (math.sqrt(best * (1.0 + eps)) for eps in (
        1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2)) if parametric_branch(
            f, dtp, dtl)), None)
    if hi is None:
        return no, 0
    lo, step, walked = math.sqrt(best) * (1.0 - 1e-6), 1e-4, 0
    while parametric_branch(lo, dtp, dtl):
        lo *= 1.0 - step
        walked += 1
        if walked >= 60:
            step = min(2.0 * step, 0.5)
    _, hi = steady._bisect(lo, hi, 80,
                           lambda f: not parametric_branch(f, dtp, dtl))
    return steady.ThresholdReport(f_threshold=hi, exists=True), walked


class TestThreshold:
    def test_same_bits_as_the_walk(self, rng):
        # the bisection ends on adjacent floats, so it finds the same edge
        # from the scans' least bracketable F² as from the end of the walk
        points = [(float(dtp), float(dtl)) for dtp, dtl in zip(
            rng.uniform(-1, 6, 240), rng.uniform(1.74, 7, 240))]
        points += [(float(dtp), float(dtl)) for dtp, dtl in zip(
            rng.uniform(-1, 6, 60),
            np.exp(rng.uniform(math.log(7), math.log(300), 60)))]
        found = 0
        for dtp, dtl in points + WALK_PAST_60:
            got = threshold(dtp, dtl)
            assert repr(got) == repr(_walk_threshold(dtp, dtl)[0]), (dtp, dtl)
            found += got.exists
        assert found > 200

    def test_no_walk_at_the_far_edges(self, monkeypatch):
        calls = []
        search = steady.parametric_branch
        monkeypatch.setattr(steady, "parametric_branch",
                            lambda *a: calls.append(a) or search(*a))
        for dtp, dtl in WALK_PAST_60:
            steady._branch_scan.cache_clear()
            calls.clear()
            rep = threshold(dtp, dtl)
            assert rep.exists and len(calls) <= 60, len(calls)
            _, walked = _walk_threshold(dtp, dtl)
            assert walked > 60

    def test_bracketing(self):
        for dtp, dtl in [(1.8, 1.8), (2.0, 2.0), (2.6, 2.2), (1.5, 2.2)]:
            rep = threshold(dtp, dtl)
            assert rep.exists
            assert rep.f_threshold > 0
            assert parametric_branch(0.999 * rep.f_threshold, dtp, dtl) == []
            assert parametric_branch(1.001 * rep.f_threshold, dtp, dtl)

    def test_edge_is_the_last_float_with_a_root(self, rng):
        points = [(float(rng.uniform(-1, 6)), float(rng.uniform(1.75, 7)))
                  for _ in range(40)] + WALK_PAST_60
        edges = []
        for dtp, dtl in points:
            rep = threshold(dtp, dtl)
            if rep.exists:
                edges.append((rep.f_threshold, dtp, dtl))
        assert len(edges) > 30
        # two points at a time, each once before and once after the
        # other, so its scans are built cold and reused warm
        for k in range(0, len(edges), 2):
            pair = edges[k:k + 2]
            for f, dtp, dtl in pair:
                assert parametric_branch(f, dtp, dtl)
            for f, dtp, dtl in pair:
                assert parametric_branch(np.nextafter(f, 0.0), dtp,
                                         dtl) == []

    def test_bisection_stops_when_it_repeats(self, rng):
        for _ in range(200):
            edge = float(rng.uniform(1.0, 2.0))
            lo, hi = 1.0, 2.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if mid < edge else (lo, mid)
            probes = []

            def below(x):
                probes.append(x)
                return x < edge

            assert steady._bisect(1.0, 2.0, 80, below) == (lo, hi)
            assert len(probes) < 60

    def test_far_detuned_pair_never_oscillates(self):
        rep = threshold(0.0, 1e6)
        assert not rep.exists

    def test_resonant_case_has_no_threshold(self):
        # dtl = 0 cannot satisfy the pair gain equation at any drive
        assert not threshold(0.0, 0.0).exists


class TestRelaxation:
    def test_perturbed_stable_roots_return(self, rng):
        cases = []
        for _ in range(12):
            f = float(rng.uniform(0.2, 1.2))
            dtp = float(rng.uniform(-1.0, 1.5))
            s = pump_only_branches(f, dtp)[0]
            cases.append((f, dtp, dtp, s))
        for f, dtp, dtl, s in cases:
            amps = amplitudes_of(s) + 1e-3 * (rng.standard_normal(3)
                                              + 1j * rng.standard_normal(3))
            final = oracle.relax_batch(amps[:, None], f, dtp, dtl,
                                       80.0)[:, 0]
            assert abs(abs(final[0]) ** 2 - s.ap2) < 1e-6

    def test_middle_root_escapes_to_outer_branch(self, rng):
        (x_lo, f2_lo), (x_hi, f2_hi) = bistability_turning_points(2.5)
        f = math.sqrt(0.5 * (f2_lo + f2_hi))
        low, middle, high = pump_only_branches(f, 2.5)
        amps = amplitudes_of(middle)
        amps[0] *= 1.0 + 1e-5
        final = oracle.relax_batch(amps[:, None], f, 2.5, 2.5, 400.0)[:, 0]
        landed = abs(final[0]) ** 2
        assert (abs(landed - low.ap2) < 1e-6
                or abs(landed - high.ap2) < 1e-6)


class TestContinuity:
    def test_stable_root_continuous_without_fold(self):
        # sweeping detuning at weak drive never crosses a fold
        f = 0.6
        dtps = np.linspace(-1.0, 1.2, 400)
        xs = [pump_only_branches(f, float(d))[0].ap2 for d in dtps]
        jumps = np.abs(np.diff(xs))
        assert np.max(jumps) < 10.0 * np.median(jumps) + 1e-9
