"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with -s to see them;
they also land in the captured output). Tolerances are fixed here, not
tuned at runtime. Criteria with stated runtime budgets assert them.
"""

import math
import subprocess
import sys
import time
from collections import deque

import numpy as np
import pytest

from kerrcomb import duan, fluct, oracle, steady
from kerrcomb.config import load_config
from kerrcomb.model import NormalizedDrive
from kerrcomb.phases import Phase, best_joint_pump, sweep

SQRT3 = math.sqrt(3.0)
SEED = 20260808


def report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def drive_of(f, dtp, dtl):
    return NormalizedDrive(f_norm=f, dtp=dtp, dtl=dtl)


def amplitudes_of(state):
    theta_p = -state.psi
    theta_pair = 0.5 * (state.phi + 2.0 * theta_p)
    a_p = math.sqrt(state.ap2) * np.exp(1j * theta_p)
    a = math.sqrt(state.a2) * np.exp(1j * theta_pair)
    return np.array([a_p, a, a])


def test_criterion_01_table_fidelity():
    t0 = time.perf_counter()
    cfg = load_config()
    table = {
        "TE00": (95.76181600935617, 1397.0264225905923),
        "TM00": (94.46366182275267, 1396.9293388858998),
        "TE10": (92.10026644234499, 1397.0294908168596),
        "TM10": (91.69541907184737, 1397.0269560699078),
    }
    for fam in cfg.resonator.families:
        fsr_ghz, lambda0_nm = table[fam.label]
        assert fam.d1 / (2 * math.pi) / 1e9 == pytest.approx(fsr_ghz,
                                                             rel=1e-9)
        lam = 299792458.0 / fam.f0 * 1e9
        assert lam == pytest.approx(lambda0_nm, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"1 table fidelity (FSR and λ0 for 4 families, {elapsed:.2f}s)")


def test_criterion_02_bistability_analytics():
    t0 = time.perf_counter()
    dtps = np.linspace(0.2, 3.2, 200)
    f_values = np.linspace(0.01, 2.2, 200)
    three_root_cells = 0
    for dtp in dtps:
        for f in f_values:
            n = len(steady.pump_only_branches(float(f), float(dtp)))
            if n == 3:
                three_root_cells += 1
                assert dtp > SQRT3
    assert three_root_cells > 100

    # onset located independently: companion-matrix roots of dF²/dx
    def has_fold(dtp: float) -> bool:
        roots = np.roots([3.0, -4.0 * dtp, 1.0 + dtp * dtp])
        return bool(np.all(np.abs(roots.imag) < 1e-12)
                    and abs(roots[0] - roots[1]) > 1e-9)

    lo, hi = 1.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if has_fold(mid):
            hi = mid
        else:
            lo = mid
    onset = 0.5 * (lo + hi)
    assert onset == pytest.approx(SQRT3, abs=1e-6)
    x_onset = float(np.mean(np.roots([3.0, -4.0 * onset,
                                      1.0 + onset * onset]).real))
    assert x_onset == pytest.approx(2.0 * SQRT3 / 3.0, abs=1e-6)
    f2_onset = x_onset * (1.0 + (onset - x_onset) ** 2)
    assert f2_onset == pytest.approx(8.0 * SQRT3 / 9.0, abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(f"2 bistability onset (sqrt3, 2sqrt3/3, 8sqrt3/9; {elapsed:.2f}s)")


def test_criterion_03_steady_oracle_equivalence(rng):
    t0 = time.perf_counter()
    regimes = {"below": [], "bistable": [], "parametric": []}
    while len(regimes["below"]) < 100:
        f = float(rng.uniform(0.05, 1.0))
        dtp = float(rng.uniform(-2.0, 1.5))
        regimes["below"].append((f, dtp, dtp + 0.01))
    while len(regimes["bistable"]) < 100:
        dtp = float(rng.uniform(1.85, 2.9))
        (x_lo, f2_lo), (x_hi, f2_hi) = steady.bistability_turning_points(dtp)
        frac = float(rng.uniform(0.1, 0.9))
        f = math.sqrt(f2_lo + frac * (f2_hi - f2_lo))
        regimes["bistable"].append((f, dtp, dtp))
    while len(regimes["parametric"]) < 100:
        dtl = float(rng.uniform(1.9, 2.6))
        dtp = dtl + float(rng.uniform(-0.1, 0.1))
        # sample a feasible pair power directly so a solution exists
        s3 = math.sqrt(dtl * dtl - 3.0)
        x = float(rng.uniform((2 * dtl - s3) / 3 + 1e-3,
                              (2 * dtl + s3) / 3 - 1e-3))
        y = (dtl - 2 * x + math.sqrt(x * x - 1.0)) / 3.0
        if y <= 0:
            continue
        g = 1.0 + 2.0 * y / x
        h = dtp - x - (2.0 * y / x) * (dtl - 3.0 * y)
        f = math.sqrt(x * (g * g + h * h))
        regimes["parametric"].append((f, dtp, dtl))

    stable_cases = []
    for name, points in regimes.items():
        for f, dtp, dtl in points:
            branches = steady.pump_only_branches(f, dtp)
            branches = branches + steady.parametric_branch(f, dtp, dtl)
            if name == "parametric":
                assert any(b.branch is steady.Branch.PARAMETRIC
                           for b in branches)
            for b in branches:
                resid = np.max(np.abs(oracle.mean_field_rhs(
                    amplitudes_of(b), drive_of(f, dtp, dtl))))
                assert resid < 1e-8
                if b.stable:
                    stable_cases.append((f, dtp, dtl, b))

    # batched relaxation of every perturbed stable branch; fold-adjacent
    # states relax as slowly as |Re λ| ~ 0.02, so the perturbation is
    # kept small and the window long enough for 1e-6 recovery
    idx = rng.choice(len(stable_cases), size=min(300, len(stable_cases)),
                     replace=False)
    cases = [stable_cases[i] for i in idx]
    init = np.stack([amplitudes_of(b) for _, _, _, b in cases], axis=1)
    init = init * (1.0 + 1e-5) + 1e-6
    f_arr = np.array([c[0] for c in cases])
    dtp_arr = np.array([c[1] for c in cases])
    dtl_arr = np.array([c[2] for c in cases])
    final = oracle.integrate_mean_field_batch(init, f_arr, dtp_arr, dtl_arr,
                                              t_end=300.0, dt=0.02)
    targets_x = np.array([b.ap2 for _, _, _, b in cases])
    targets_y = np.array([b.a2 for _, _, _, b in cases])

    def misses(state):
        return np.where((np.abs(np.abs(state[0]) ** 2 - targets_x) >= 1e-6)
                        | (np.abs(np.abs(state[1]) ** 2 - targets_y)
                           >= 1e-6))[0]
    # extend the run for the slow stragglers; an escaped trajectory
    # settles on a different attractor and never converges back
    pending = misses(final)
    for _ in range(4):
        if pending.size == 0:
            break
        final[:, pending] = oracle.integrate_mean_field_batch(
            final[:, pending], f_arr[pending], dtp_arr[pending],
            dtl_arr[pending], t_end=600.0, dt=0.02)
        pending = misses(final)
    assert pending.size == 0, f"{pending.size} branches failed to return"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"3 steady states vs ODE oracle (300 points, residual<1e-8, "
           f"relaxation<1e-6; {elapsed:.1f}s)")


def test_criterion_04_jacobian_check(rng):
    t0 = time.perf_counter()
    checked = 0
    while checked < 100:
        f = float(rng.uniform(0.05, 1.4))
        dtp = float(rng.uniform(-2.0, 2.5))
        dtl = dtp + float(rng.uniform(-0.2, 0.2))
        states = [s for s in steady.pump_only_branches(f, dtp) if s.stable]
        states += [s for s in steady.parametric_branch(f, dtp, dtl)
                   if s.stable]
        for s in states:
            analytic = fluct.build_m(s, dtl).m
            numeric = oracle.fd_jacobian(s, drive_of(f, dtp, dtl), h=1e-6)
            assert np.max(np.abs(analytic - numeric)) < 1e-6
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"4 analytic M vs finite differences ({checked} states, "
           f"elementwise<1e-6; {elapsed:.1f}s)")


def test_criterion_05_vacuum_identities():
    state = steady.SteadyState(ap2=0.0, a2=0.0, phi=0.0, psi=0.0,
                               branch=steady.Branch.PUMP_ONLY, stable=True)
    sys_ = fluct.build_m(state, 0.6)
    for w in np.linspace(-5.0, 5.0, 1000):
        spec = fluct.noise_spectrum(sys_, float(w))
        assert np.max(np.abs(spec.s - fluct.C_VAC)) < 1e-10
    sigma = duan.quadrature_covariance(fluct.noise_spectrum(sys_, 0.0))
    assert np.max(np.abs(sigma - 0.5 * np.eye(4))) < 1e-10
    res = duan.minimize_duan(sigma)
    assert abs(res.c_min) < 1e-9
    report("5 vacuum identities (S=C_vac at 1000 frequencies, σ=I/2, "
           "C_min=0±1e-9)")


def test_criterion_06_optimizer_dominance(rng):
    def random_physical_sigma(rng):
        n1, n2 = rng.uniform(0.0, 1.5, size=2)
        base = np.diag([0.5 + n1, 0.5 + n1, 0.5 + n2, 0.5 + n2])
        r = rng.uniform(0.0, 1.2)
        ch, sh = math.cosh(r), math.sinh(r)
        tms = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh],
                        [sh, 0, ch, 0], [0, -sh, 0, ch]])
        out = tms @ base @ tms.T
        for mode in (0, 1):
            th = rng.uniform(0, 2 * math.pi)
            rot = np.eye(4)
            sl = slice(2 * mode, 2 * mode + 2)
            rot[sl, sl] = [[math.cos(th), -math.sin(th)],
                           [math.sin(th), math.cos(th)]]
            out = rot @ out @ rot.T
        return out

    sigmas = [random_physical_sigma(rng) for _ in range(100)]
    for sigma in sigmas:
        res = duan.minimize_duan(sigma)
        brute, _ = oracle.brute_force_duan(sigma, 1024)
        assert res.c_min <= brute + 1e-6
    sigma = sigmas[0]
    res = duan.minimize_duan(sigma)
    angles = rng.uniform(0, 2 * math.pi, size=(10000, 2))
    values = [duan.duan_value(sigma, float(tp), float(tm))
              for tp, tm in angles]
    assert res.c_min <= min(values) + 1e-9
    report("6 optimizer dominance (≤ brute force 1024² + 1e-6 on 100 σ, "
           "≤ 10⁴ random angles)")


LANGEVIN_POINTS = [(0.7, 0.4, 0.4), (0.5, -0.5, -0.45), (0.9, 1.0, 0.95),
                   (1.0, 1.2, 1.1), (1.3, 1.7, 1.72)]


def test_criterion_07_langevin_cross_check():
    worst = 0.0
    for k, (f, dtp, dtl) in enumerate(LANGEVIN_POINTS):
        s = [r for r in steady.pump_only_branches(f, dtp) if r.stable][0]
        sys_ = fluct.build_m(s, dtl)
        target = duan.quadrature_covariance(fluct.noise_spectrum(sys_, 0.0))
        cov, se = oracle.langevin_covariance(sys_.m, 0.45, 10000, 400.0,
                                             0.01, seed=SEED + k,
                                             n_batches=50)
        z = np.abs(cov - target) / np.where(se > 0, se, 1.0)
        worst = max(worst, float(z.max()))
        assert z.max() < 3.0, f"point {k}: max z {z.max():.2f}"
    report(f"7 Langevin cross-check (5 points × 10⁴ trajectories, "
           f"worst |z| = {worst:.2f} < 3)")


def _mi_connected(mi: np.ndarray) -> bool:
    cells = set(zip(*np.where(mi)))
    if not cells:
        return False
    start = next(iter(cells))
    seen = {start}
    queue = deque([start])
    while queue:
        i, j = queue.popleft()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                n = (i + di, j + dj)
                if n in cells and n not in seen:
                    seen.add(n)
                    queue.append(n)
    return len(seen) == len(cells)


@pytest.mark.slow
def test_criterion_08_phase_diagram_structure():
    t0 = time.perf_counter()
    cfg = load_config()
    te00 = cfg.resonator.family("TE00")
    deltas = np.linspace(-0.1e9, 0.8e9, 64)
    amps = np.linspace(2e5, 2.8e7, 64)
    grid = sweep(te00, 1, deltas, amps)
    counts = {p: grid.count(p) for p in Phase}
    assert all(counts[p] > 0 for p in Phase)
    pa = grid.phase_array()
    mi = pa == "MI"
    assert _mi_connected(mi)
    # MI confined to the high-amplitude side of the plane
    amp_idx = np.where(mi.any(axis=0))[0]
    assert amp_idx.min() > 16
    cm = grid.c_min_array()
    assert np.nanmin(cm) < -0.5  # strong entanglement somewhere in ET
    # continuity of c_min along every fixed-amplitude line clear of MI
    checked_columns = 0
    for j in range(64):
        if mi[:, j].any():
            continue
        diffs = np.abs(np.diff(cm[:, j]))
        if np.max(diffs) > 1e-6:
            second = np.partition(diffs, -2)[-2]
            assert np.max(diffs) <= 10.0 * second + 1e-6
        checked_columns += 1
    assert checked_columns > 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(f"8 phase-diagram structure (64×64: NE={counts[Phase.NE]}, "
           f"ET={counts[Phase.ET]}, MI={counts[Phase.MI]} connected at "
           f"high amplitude, min c_min={np.nanmin(cm):.3f}; {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_09_ne_broadening():
    t0 = time.perf_counter()
    cfg = load_config()
    te00 = cfg.resonator.family("TE00")
    deltas = np.linspace(-0.1e9, 0.8e9, 64)
    amps = np.linspace(2e5, 2.8e7, 64)
    counts = []
    for L in range(1, 7):
        grid = sweep(te00, L, deltas, amps)
        counts.append(grid.count(Phase.NE))
    assert all(b >= a for a, b in zip(counts, counts[1:])), counts
    # the NE count is flat (162) for L = 1…6 on these axes; the pair
    # detuning's drift only shows at larger L, where the region must grow
    # (178 NE cells at L = 20 and 233 at L = 40)
    far = [sweep(te00, L, deltas, amps).count(Phase.NE)
           for L in (20, 40)]
    assert all(n > 162 for n in far), far
    assert counts[-1] <= far[0] <= far[1], (counts, far)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    report(f"9 NE-region non-decreasing in L: {counts}, then {far} at "
           f"L = 20, 40 ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_10_joint_pump_structure():
    cfg = load_config()
    fams = [cfg.resonator.family(l) for l in ("TE00", "TE10", "TM10")]
    deltas = np.linspace(0.0, 0.8e9, 33)
    amps = np.linspace(2e6, 4.0e7, 40)
    result, _ = best_joint_pump(fams, [1, 3, 6], deltas,
                                amps)
    assert result.delta_p0 in deltas  # one shared pump frequency
    # frozen regression established by the first run of this artifact:
    # TE10 and TM10 tie at desk-grid resolution, TE00 needs the least
    # drive (see docs/reproduction.md for why the tie is expected)
    assert result.delta_p0 == pytest.approx(0.35e9, rel=1e-12)
    a = result.amplitudes
    assert a["TE10"] == a["TM10"]
    assert a["TE00"] < a["TM10"]
    assert a["TE00"] == pytest.approx(11743589.743589744, rel=1e-9)
    assert a["TE10"] == pytest.approx(16615384.615384616, rel=1e-9)
    assert result.worst_c_min < -0.5
    report(f"10 joint pump: shared Δp0 = {result.delta_p0/1e9:.3f} GHz, "
           f"amplitudes TE10 = TM10 > TE00 (frozen regression)")


@pytest.mark.slow
def test_criterion_11_determinism(tmp_path):
    base = [sys.executable, "-m", "kerrcomb.cli", "phase-diagram",
            "--family", "TE00", "--L", "1", "--grid", "10"]
    runs = {"w1": ["--workers", "1"], "w4": ["--workers", "4"],
            "w8": ["--workers", "8"], "w1b": ["--workers", "1"]}
    outputs = {}
    for name, extra in runs.items():
        out = tmp_path / name
        proc = subprocess.run(base + extra + ["--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = {p.name: p.read_bytes()
                         for p in sorted(out.iterdir())}
    reference = outputs["w1"]
    for name, files in outputs.items():
        assert set(files) == set(reference)
        for fname, blob in files.items():
            assert blob == reference[fname], f"{name}:{fname} differs"
    report("11 determinism: byte-identical CSV/SVG/manifest across "
           "workers {1,4,8} and repeated runs")
