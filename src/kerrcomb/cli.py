"""Command-line interface: config loading, subcommand dispatch, emission.

Subcommands: dispersion, overlap, transmission, steady, spectrum, duan,
phase-diagram, best-pump, oracle {mean-field, jacobian, langevin,
duan-grid} and reproduce {fig2 ... fig7}. Each is an argparse leaf that
takes, after the command name, only the flags its handler reads. Outputs
are CSV/JSON/SVG files in --out plus a manifest.json carrying the config
digest, per-file checksums and those flags (--workers aside: sweeps run
in the calling process, so it is accepted but unread).

Exit codes: 0 success, 1 computation error, 2 configuration or usage
error, 3 outputs written but some sweep cells raised (each such cell is
marked MI).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import dispersion as disp
from . import duan as duan_mod
from . import fluct, oracle, phases, steady
from .config import (ConfigError, RunConfig, config_digest, load_config,
                     sweep_axis_problems)
from .manifest import write_manifest, write_output
from .model import NormalizedDrive, OperatingPoint, normalize
from .svg import heatmap_svg, line_plot_svg

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """A command line the subcommand cannot act on (CLI exit code 2)."""


def _require(cond: bool, problem: str) -> None:
    if not cond:
        raise UsageError(problem)


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows_json(header: list[str], rows: list[tuple]) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records, sort_keys=True, indent=2,
                      allow_nan=True) + "\n"


def _write_json(out: Path, name: str, payload) -> Path:
    return write_output(out, name,
                        json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_table(args, out: Path, name: str, header: list[str],
                rows: list[tuple]) -> list[Path]:
    if args.format == "json":
        return [write_output(out, f"{name}.json", _rows_json(header, rows))]
    return [write_output(out, f"{name}.csv", _csv(header, rows))]


def _family(cfg: RunConfig, label: str):
    """The family ``label`` names; an unknown label is a usage error."""
    labels = cfg.resonator.labels
    _require(label in labels,
             f"unknown family {label!r}; the config has {', '.join(labels)}")
    return cfg.resonator.family(label)


def _families_arg(cfg: RunConfig, spec: str | None):
    if not spec or spec == "all":
        return list(cfg.resonator.families)
    labels = [s.strip() for s in spec.split(",") if s.strip()]
    return [_family(cfg, lbl) for lbl in labels]


def _operating_point(args, cfg: RunConfig) -> tuple[NormalizedDrive, float]:
    """Drive from either physical flags or raw normalized flags."""
    physical = (args.family, args.detuning_ghz, args.apin_v_per_m)
    if args.f_norm is not None:
        _require(physical == (None,) * 3 and args.L is None,
                 "--f-norm excludes --family/--L/--detuning-ghz/"
                 "--apin-v-per-m")
        for name in ("dtp", "dtl"):
            _require(getattr(args, name) is not None,
                     f"--{name} required with --f-norm")
        drive = NormalizedDrive(f_norm=args.f_norm, dtp=args.dtp,
                                dtl=args.dtl)
        return drive, fluct.DEFAULT_INTRINSIC_FRACTION
    _require(None not in physical,
             "provide --family/--L/--detuning-ghz/--apin-v-per-m "
             "or raw --f-norm/--dtp/--dtl")
    args.L = 1 if args.L is None else args.L  # the manifest records it
    _require(args.L >= 1, "--L must be >= 1")
    fam = _family(cfg, args.family)
    op = OperatingPoint(family=fam, L=args.L,
                        delta_p0=args.detuning_ghz * 1e9,
                        a_pin=args.apin_v_per_m)
    return (normalize(op, cfg.tolerances.truncation_order),
            fam.intrinsic_fraction)


def _axes_from_args(args, cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sweep axes from the flags, else the config; checked before use."""
    _require(args.workers >= 1, "--workers must be >= 1")
    axes = dict(cfg.sweep_defaults)
    for key, flag in (("delta_min_ghz", args.delta_min_ghz),
                      ("delta_max_ghz", args.delta_max_ghz),
                      ("amp_min_v_per_m", args.amp_min),
                      ("amp_max_v_per_m", args.amp_max),
                      ("grid", args.grid)):
        if flag is not None:
            axes[key] = flag
    problems = sweep_axis_problems(axes)
    _require(not problems, "; ".join(problems))
    n = axes["grid"]
    return (np.linspace(axes["delta_min_ghz"] * 1e9,
                        axes["delta_max_ghz"] * 1e9, n),
            np.linspace(axes["amp_min_v_per_m"], axes["amp_max_v_per_m"], n))


def _load_sigma(path: str) -> np.ndarray:
    """The 4×4 covariance of a --sigma-json file, checked before use."""
    sigma = np.array(json.loads(Path(path).read_text()), dtype=float)
    if sigma.shape != (4, 4):
        raise ValueError(f"--sigma-json is {sigma.shape}, not 4x4")
    if not np.isfinite(sigma).all():
        raise ValueError("--sigma-json has non-finite entries")
    if not np.allclose(sigma, sigma.T, atol=1e-9):
        raise ValueError("--sigma-json matrix is not symmetric")
    return sigma


def _dispersion_table(fams, ls, order: int) -> tuple[list[str], list[tuple]]:
    return ["family", "L", "f_Hz", "Dint_rad_s"], [
        (fam.label, l,
         float(disp.resonance_frequency(fam, l, order) / (2 * math.pi)),
         float(disp.integrated_dispersion(fam, l, order)))
        for fam in fams for l in ls]


def _overlap_table(fams, f_range: tuple[float, float], tolerance: float,
                   order: int) -> tuple[list[str], list[tuple]]:
    windows = disp.find_overlap_windows(fams, f_range, tolerance, order)
    return ["center_Hz", "width_Hz", "families", "detunings_Hz"], [
        (w.center, w.width, "+".join(w.families),
         ";".join(repr(w.detunings[f]) for f in w.families))
        for w in windows]


def _transmission_table(fams, center: float, half: float, samples: int,
                        order: int) -> tuple[list[str], list[tuple], list]:
    """Header, rows and the plot series in GHz from ``center``."""
    spectra = disp.transmission_spectrum(
        fams, (center - half, center + half), samples, order)
    rows, series = [], []
    for label in sorted(spectra):
        freqs, trans = spectra[label]
        rows.extend((label, float(f), float(t))
                    for f, t in zip(freqs, trans))
        series.append((label, (freqs - center) / 1e9, trans))
    return ["family", "f_Hz", "transmission"], rows, series


# ---------------------------------------------------------------- handlers


def _cmd_dispersion(args, cfg: RunConfig, out: Path) -> list[Path]:
    _require(args.l_min <= args.l_max, "--l-min must not exceed --l-max")
    return _emit_table(args, out, "dispersion", *_dispersion_table(
        _families_arg(cfg, args.families), range(args.l_min, args.l_max + 1),
        cfg.tolerances.truncation_order))


def _cmd_overlap(args, cfg: RunConfig, out: Path) -> list[Path]:
    _require(args.f_min_thz < args.f_max_thz,
             "--f-min-thz must be below --f-max-thz")
    _require(args.tolerance_ghz > 0, "--tolerance-ghz must be > 0")
    return _emit_table(args, out, "overlap", *_overlap_table(
        _families_arg(cfg, args.families),
        (args.f_min_thz * 1e12, args.f_max_thz * 1e12),
        args.tolerance_ghz * 1e9, cfg.tolerances.truncation_order))


def _cmd_transmission(args, cfg: RunConfig, out: Path) -> list[Path]:
    _require(args.samples >= 2, "--samples must be >= 2")
    _require(args.span_ghz > 0, "--span-ghz must be > 0")
    header, rows, series = _transmission_table(
        _families_arg(cfg, args.families), args.center_thz * 1e12,
        args.span_ghz * 1e9 / 2.0, args.samples,
        cfg.tolerances.truncation_order)
    written = _emit_table(args, out, "transmission", header, rows)
    svg = line_plot_svg(series, config_digest(cfg),
                        x_label=f"f - {args.center_thz} THz (GHz)",
                        y_label="through-port transmission",
                        title="transmission")
    written.append(write_output(out, "transmission.svg", svg))
    return written


def _branch_record(s: steady.SteadyState) -> dict:
    return {"branch": s.branch.value, "ap2": s.ap2, "a2": s.a2,
            "phi": s.phi, "psi": s.psi, "stable": s.stable}


def _cmd_steady(args, cfg: RunConfig, out: Path) -> list[Path]:
    drive, _ = _operating_point(args, cfg)
    states = steady.pump_only_branches(drive.f_norm, drive.dtp)
    states += steady.parametric_branch(drive.f_norm, drive.dtp, drive.dtl)
    payload = {
        "drive": {"f_norm": drive.f_norm, "dtp": drive.dtp,
                  "dtl": drive.dtl},
        "branches": [_branch_record(s) for s in states],
    }
    return [_write_json(out, "steady.json", payload)]


def _complex_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _cmd_spectrum(args, cfg: RunConfig, out: Path) -> list[Path]:
    omega = args.omega = 0.0 if args.omega is None else args.omega
    op = phases.operating_state(*_operating_point(args, cfg))
    spec = fluct.noise_spectrum(fluct.build_m(
        op.state, op.dtl, intrinsic_fraction=op.intrinsic_fraction),
        omega)
    sigma = duan_mod.quadrature_covariance(spec)
    c_min = op.witness(omega).c_min
    payload = {
        "omega": omega,
        "phase": op.phase(c_min, cfg.tolerances.epsilon_ne).value,
        "s": _complex_matrix(spec.s),
        "s_minus": _complex_matrix(spec.s_minus),
        "quadrature_covariance": [[float(v) for v in row] for row in sigma],
        "state": _branch_record(op.state),
    }
    return [_write_json(out, "spectrum.json", payload)]


def _cmd_duan(args, cfg: RunConfig, out: Path) -> list[Path]:
    if args.sigma_json is not None:
        point = (args.family, args.detuning_ghz, args.apin_v_per_m,
                 args.f_norm, args.dtp, args.dtl)
        _require(point == (None,) * 6 and (args.L, args.omega) == (None,) * 2,
                 "--sigma-json excludes the point flags and --omega")
        result = duan_mod.minimize_duan(_load_sigma(args.sigma_json))
        phase = None
    else:
        args.omega = 0.0 if args.omega is None else args.omega
        op = phases.operating_state(*_operating_point(args, cfg))
        result = op.witness(args.omega)
        phase = op.phase(result.c_min, cfg.tolerances.epsilon_ne).value
    payload = {"c_min": result.c_min, "theta_plus": result.theta_plus,
               "theta_minus": result.theta_minus,
               "entangled": result.entangled, "phase": phase}
    return [_write_json(out, "duan.json", payload)]


_PHASE_HEADER = ["delta_p0_hz", "a_pin_v_per_m", "phase", "c_min",
                 "n_branches", "max_eig_re"]


def _write_phase_csv(out: Path, name: str, grid: phases.SweepGrid) -> Path:
    rows = []
    for i, delta in enumerate(grid.delta_axis):
        for j, amp in enumerate(grid.amplitude_axis):
            p = grid.points[i][j]
            rows.append((float(delta), float(amp), p.phase.value, p.c_min,
                         p.n_branches, p.max_eig_re))
    return write_output(out, f"{name}.csv", _csv(_PHASE_HEADER, rows))


def _phase_counts(grid: phases.SweepGrid) -> dict[str, int]:
    return {p.value: grid.count(p) for p in phases.Phase}


def _note_cell_errors(args, grids) -> None:
    """Keep the error text of every cell that raised, for exit code 3."""
    args.cell_errors.extend(p.error for g in grids for row in g.points
                            for p in row if p.error)


def _sweep(args, cfg: RunConfig, fam, L: int, delta_axis: np.ndarray,
           amp_axis: np.ndarray) -> phases.SweepGrid:
    grid = phases.sweep(fam, L, delta_axis, amp_axis, omega=args.omega,
                        epsilon_ne=cfg.tolerances.epsilon_ne,
                        truncation_order=cfg.tolerances.truncation_order)
    _note_cell_errors(args, [grid])
    return grid


def _joint_pump(args, cfg: RunConfig, out: Path, name: str, fams,
                ls: list[int]) -> tuple[Path, dict]:
    """Run the joint-pump optimizer; write its payload to ``name``."""
    delta_axis, amp_axis = _axes_from_args(args, cfg)
    result, sweeps = phases.best_joint_pump(
        fams, ls, delta_axis, amp_axis, omega=args.omega,
        epsilon_ne=cfg.tolerances.epsilon_ne,
        margin=cfg.tolerances.mi_margin_cells,
        truncation_order=cfg.tolerances.truncation_order)
    _note_cell_errors(args, [g for grids in sweeps.values() for g in grids])
    payload = {
        "delta_p0_hz": result.delta_p0,
        "amplitudes_v_per_m": result.amplitudes,
        "worst_c_min": result.worst_c_min,
        "per_family_c_min": result.per_family_c_min,
        "slm_weights": disp.composite_pump_weights(result.amplitudes),
        "Ls": ls,
    }
    return _write_json(out, name, payload), sweeps


def _grid_svg(grid: phases.SweepGrid, cfg: RunConfig) -> str:
    hm = cfg.heatmap
    return heatmap_svg(
        grid.c_min_array(), x_axis=grid.amplitude_axis / 1e9,
        y_axis=grid.delta_axis / 1e9,
        bucket_edges=hm["bucket_edges"], bucket_colors=hm["bucket_colors"],
        mi_color=hm["mi_color"],
        config_digest=config_digest(cfg),
        x_label="pump amplitude (1e9 V/m)", y_label="pump detuning (GHz)",
        title=f"{grid.family} L={grid.L}")


def _cmd_phase_diagram(args, cfg: RunConfig, out: Path) -> list[Path]:
    fam = _family(cfg, args.family)
    _require(args.L >= 1, "--L must be >= 1")
    grid = _sweep(args, cfg, fam, args.L, *_axes_from_args(args, cfg))
    name = f"phase_{fam.label}_L{args.L}"
    meta = {"family": fam.label, "L": args.L, "omega": args.omega,
            "epsilon_ne": cfg.tolerances.epsilon_ne,
            "counts": _phase_counts(grid)}
    return [_write_phase_csv(out, name, grid),
            write_output(out, f"{name}.svg", _grid_svg(grid, cfg)),
            _write_json(out, f"{name}_meta.json", meta)]


def _cmd_best_pump(args, cfg: RunConfig, out: Path) -> list[Path]:
    fams = _families_arg(cfg, args.families)
    try:
        ls = [int(s) for s in args.Ls.split(",")]
    except ValueError:
        raise UsageError(f"--Ls {args.Ls!r} is not a comma-separated "
                         "list of integers") from None
    _require(min(ls) >= 1, "--Ls entries must be >= 1")
    path, sweeps = _joint_pump(args, cfg, out, "best_pump.json", fams, ls)
    written = [path]
    for label, grids in sorted(sweeps.items()):
        written.extend(_write_phase_csv(out, f"best_pump_{label}_L{grid.L}",
                                        grid) for grid in grids)
    return written


def _oracle_duan_grid(args, cfg: RunConfig, out: Path) -> list[Path]:
    _require(args.sigma_json is not None, "duan-grid requires --sigma-json")
    _require(args.grid_n >= oracle.MIN_DUAN_GRID,
             f"--grid-n must be >= {oracle.MIN_DUAN_GRID}")
    c_min, (tp, tm) = oracle.brute_force_duan(_load_sigma(args.sigma_json),
                                              args.grid_n)
    payload = {"c_min": c_min, "theta_plus": tp, "theta_minus": tm,
               "grid_n": args.grid_n}
    return [_write_json(out, "oracle_duan-grid.json", payload)]


def _oracle_mean_field(args, cfg: RunConfig, out: Path) -> list[Path]:
    drive, _ = _operating_point(args, cfg)
    _require(args.dt > 0 and args.t_end > 0, "--dt and --t-end must be > 0")
    init = oracle.MeanFieldState(args.alpha0, args.alpha0, args.alpha0)
    times, traj = oracle.integrate_mean_field(init, drive, args.t_end,
                                              args.dt, sample_every=50)
    resid = oracle.mean_field_rhs(traj[-1], drive)
    payload = {
        "final": [[v.real, v.imag] for v in traj[-1]],
        "residual": float(np.max(np.abs(resid))),
        "t_end": args.t_end,
    }
    return [_write_json(out, "oracle_mean-field.json", payload)]


def _oracle_jacobian(args, cfg: RunConfig, out: Path) -> list[Path]:
    drive, intrinsic = _operating_point(args, cfg)
    op = phases.operating_state(drive, intrinsic)
    analytic = fluct.build_m(op.state, drive.dtl).m  # η sets no entry of M
    numeric = oracle.fd_jacobian(op.state, drive)
    payload = {
        "state": _branch_record(op.state),
        "max_abs_difference": float(np.max(np.abs(analytic - numeric))),
        "analytic": _complex_matrix(analytic),
        "finite_difference": _complex_matrix(numeric),
    }
    return [_write_json(out, "oracle_jacobian.json", payload)]


def _oracle_langevin(args, cfg: RunConfig, out: Path) -> list[Path]:
    drive, intrinsic = _operating_point(args, cfg)
    burn = oracle.LANGEVIN_BURN_IN
    _require(args.n_samples >= oracle.MIN_LANGEVIN_SAMPLES,
             f"--n-samples must be at least {oracle.MIN_LANGEVIN_SAMPLES}")
    _require(args.dt > 0 and args.t_end >= burn + args.dt,
             f"--dt must be > 0 and --t-end at least {burn:g} + --dt")
    sys_ = fluct.build_m(phases.operating_state(drive, intrinsic).state,
                         drive.dtl, intrinsic_fraction=intrinsic)
    cov, se = oracle.langevin_covariance(
        sys_.m, intrinsic, args.n_samples, args.t_end, args.dt, args.seed)
    sigma = duan_mod.quadrature_covariance(fluct.noise_spectrum(sys_, 0.0))
    z = (cov - sigma) / np.where(se > 0, se, 1.0)
    payload = {
        "covariance": [[float(v) for v in row] for row in cov],
        "standard_errors": [[float(v) for v in row] for row in se],
        "deterministic": [[float(v) for v in row] for row in sigma],
        "max_abs_z": float(np.max(np.abs(z))),
        "seed": args.seed,
    }
    return [_write_json(out, "oracle_langevin.json", payload)]


# ------------------------------------------------------------- reproduce


def _reproduce_fig2(args, cfg: RunConfig, out: Path) -> list[Path]:
    fams = cfg.resonator.families
    ls = range(-600, 601, 4)
    header, rows = _dispersion_table(fams, ls, cfg.tolerances.truncation_order)
    d_int = np.array([r[3] for r in rows]).reshape(len(fams), len(ls))
    series = [(fam.label, np.array(ls, dtype=float), d / (2e9 * math.pi))
              for fam, d in zip(fams, d_int)]
    written = [write_output(out, "fig2_dispersion.csv", _csv(header, rows))]
    svg = line_plot_svg(series, config_digest(cfg),
                        x_label="mode index L",
                        y_label="integrated dispersion (GHz)",
                        title="integrated dispersion")
    written.append(write_output(out, "fig2_dispersion.svg", svg))
    return written


def _reproduce_fig3(args, cfg: RunConfig, out: Path) -> list[Path]:
    fams = [cfg.resonator.family(lbl) for lbl in ("TE00", "TE10", "TM10")]
    center = 214.593e12
    order = cfg.tolerances.truncation_order
    header, rows, series = _transmission_table(fams, center, 15e9, 3001,
                                               order)
    overlap = _overlap_table(fams, (center - 60e9, center + 60e9), 2e9, order)
    written = [write_output(out, "fig3_transmission.csv", _csv(header, rows)),
               write_output(out, "fig3_overlap.csv", _csv(*overlap))]
    svg = line_plot_svg(series, config_digest(cfg),
                        x_label="f - 214.593 THz (GHz)",
                        y_label="through-port transmission",
                        title="resonance overlap")
    written.append(write_output(out, "fig3_transmission.svg", svg))
    return written


def _reproduce_phase_grids(args, cfg: RunConfig, out: Path,
                           ls: list[int]) -> list[Path]:
    fam = cfg.resonator.family("TE00")
    delta_axis, amp_axis = _axes_from_args(args, cfg)
    written = []
    counts = {}
    for l_idx in ls:
        grid = _sweep(args, cfg, fam, l_idx, delta_axis, amp_axis)
        name = f"{args.figure}_TE00_L{l_idx}"
        written.append(_write_phase_csv(out, name, grid))
        written.append(write_output(out, f"{name}.svg", _grid_svg(grid, cfg)))
        counts[f"L{l_idx}"] = _phase_counts(grid)
    written.append(_write_json(out, f"{args.figure}_counts.json", counts))
    return written


def _reproduce_fig6(args, cfg: RunConfig, out: Path) -> list[Path]:
    # line scans over detuning at a fixed, per-family near-optimal
    # amplitude; reports mean-field and fluctuation pair powers side by
    # side (they answer different questions below threshold)
    labels = ("TE00", "TE10", "TM10")
    delta_axis, amp_axis = _axes_from_args(args, cfg)
    written = []
    for label in labels:
        fam = cfg.resonator.family(label)
        coarse = _sweep(args, cfg, fam, 1,
                        delta_axis[:: max(1, len(delta_axis) // 24)],
                        amp_axis[:: max(1, len(amp_axis) // 24)])
        cm = coarse.c_min_array()
        i, j = np.unravel_index(int(np.nanargmin(cm)), cm.shape)
        a_pin = float(coarse.amplitude_axis[j])
        rows = []
        for delta in delta_axis:
            drive = normalize(OperatingPoint(family=fam, L=1,
                                             delta_p0=float(delta),
                                             a_pin=a_pin),
                              cfg.tolerances.truncation_order)
            op = phases.operating_state(drive, fam.intrinsic_fraction)
            point = phases.classify_state(
                op, omega=args.omega, epsilon_ne=cfg.tolerances.epsilon_ne)
            a2_mean = max((s.a2 for s in steady.parametric_branch(
                drive.f_norm, drive.dtp, drive.dtl)), default=0.0)
            try:  # the population reads only M, which η does not enter
                pair_photons = fluct.intracavity_pair_photons(
                    fluct.build_m(op.state, op.dtl))
            except fluct.UnstableStateError:
                pair_photons = math.nan
            rows.append((float(delta), a_pin, op.state.ap2, a2_mean,
                         pair_photons, point.c_min, point.phase.value))
        written.append(write_output(out, f"fig6_{label}.csv", _csv(
            ["delta_p0_hz", "a_pin_v_per_m", "pump_power_norm",
             "pair_power_mean_field_norm", "pair_photons_fluct",
             "c_min", "phase"], rows)))
        arr = np.array([[r[0], r[2], r[4], r[5]] for r in rows], dtype=float)
        svg = line_plot_svg(
            [("pump power", arr[:, 0] / 1e9, arr[:, 1]),
             ("pair photons", arr[:, 0] / 1e9, arr[:, 2]),
             ("c_min", arr[:, 0] / 1e9, arr[:, 3])],
            config_digest(cfg), x_label="pump detuning (GHz)",
            y_label="normalized power / witness",
            title=f"{label} scan at {a_pin:.3g} V/m")
        written.append(write_output(out, f"fig6_{label}.svg", svg))
    return written


def _reproduce_fig7(args, cfg: RunConfig, out: Path) -> list[Path]:
    fams = [cfg.resonator.family(lbl) for lbl in ("TE00", "TE10", "TM10")]
    path, sweeps = _joint_pump(args, cfg, out, "fig7_best_pump.json",
                               fams, [1, 3, 6])
    written = [path]
    for label, grids in sorted(sweeps.items()):
        for grid in grids:
            written.append(write_output(out, f"fig7_{label}_L{grid.L}.svg",
                                        _grid_svg(grid, cfg)))
    return written


# ------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config",
                    help="path to a config JSON (default: packaged table)")
    io.add_argument("--out", default="out", help="output directory")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--family", help="modal family label")
    point.add_argument("--L", type=int, help="mode-pair index (default 1)")
    point.add_argument("--detuning-ghz", type=float,
                       help="pump detuning, resonance minus laser, GHz")
    point.add_argument("--apin-v-per-m", type=float,
                       help="input field amplitude, V/m")
    point.add_argument("--f-norm", type=float,
                       help="raw normalized drive (with --dtp/--dtl)")
    point.add_argument("--dtp", type=float,
                       help="raw pump detuning, units of Γ")
    point.add_argument("--dtl", type=float,
                       help="raw pair detuning, units of Γ")
    omega = argparse.ArgumentParser(add_help=False)
    omega.add_argument("--omega", type=float,
                       help="analysis frequency in units of Γ (default 0)")
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--omega", type=float, default=0.0,
                       help="analysis frequency in units of Γ")
    sweep.add_argument("--workers", type=int, default=1, help="no effect")
    sweep.add_argument("--delta-min-ghz", type=float)
    sweep.add_argument("--delta-max-ghz", type=float)
    sweep.add_argument("--amp-min", type=float, help="V/m")
    sweep.add_argument("--amp-max", type=float, help="V/m")
    sweep.add_argument("--grid", type=int, help="cells per axis")
    sigma = argparse.ArgumentParser(add_help=False)
    sigma.add_argument("--sigma-json", help="path to a 4x4 covariance JSON")
    integrate = argparse.ArgumentParser(add_help=False)
    integrate.add_argument("--t-end", type=float, default=200.0)
    integrate.add_argument("--dt", type=float, default=0.01)

    def leaf(group, name: str, handler, *parents, **kw):
        p = group.add_parser(name, parents=[io, *parents], **kw)
        p.set_defaults(handler=handler)
        return p

    parser = argparse.ArgumentParser(
        prog="kerrcomb",
        description="Quantum Kerr comb phase diagrams for multimode "
                    "microrings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = leaf(sub, "dispersion", _cmd_dispersion, fmt,
             help="resonance grid and D_int CSV")
    p.add_argument("--families", default="all")
    p.add_argument("--l-min", type=int, default=-64)
    p.add_argument("--l-max", type=int, default=64)

    p = leaf(sub, "overlap", _cmd_overlap, fmt,
             help="cross-family resonance overlap")
    p.add_argument("--families", default="TE00,TE10,TM10")
    p.add_argument("--f-min-thz", type=float, default=214.4)
    p.add_argument("--f-max-thz", type=float, default=214.8)
    p.add_argument("--tolerance-ghz", type=float, default=2.0)

    p = leaf(sub, "transmission", _cmd_transmission, fmt,
             help="through-port spectra")
    p.add_argument("--families", default="all")
    p.add_argument("--center-thz", type=float, default=214.593)
    p.add_argument("--span-ghz", type=float, default=30.0)
    p.add_argument("--samples", type=int, default=3001)

    leaf(sub, "steady", _cmd_steady, point,
         help="steady-state branches as JSON")
    leaf(sub, "spectrum", _cmd_spectrum, point, omega,
         help="output noise spectral density")
    leaf(sub, "duan", _cmd_duan, point, omega, sigma,
         help="minimized entanglement witness")

    p = leaf(sub, "phase-diagram", _cmd_phase_diagram, sweep,
             help="NE/ET/MI sweep for one L")
    p.add_argument("--family", required=True)
    p.add_argument("--L", type=int, default=1)

    p = leaf(sub, "best-pump", _cmd_best_pump, sweep,
             help="shared-detuning joint optimum")
    p.add_argument("--families", default="TE00,TE10,TM10")
    p.add_argument("--Ls", default="1")

    ops = sub.add_parser("oracle", help="verification engines (debugging)"
                         ).add_subparsers(dest="oracle_op", required=True)
    p = leaf(ops, "mean-field", _oracle_mean_field, point, integrate)
    p.add_argument("--alpha0", type=float, default=0.01)
    leaf(ops, "jacobian", _oracle_jacobian, point)
    p = leaf(ops, "langevin", _oracle_langevin, point, integrate)
    p.add_argument("--n-samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=12345)
    p = leaf(ops, "duan-grid", _oracle_duan_grid, sigma)
    p.add_argument("--grid-n", type=int, default=1024)

    figures = sub.add_parser("reproduce", help="canned analysis bundles"
                             ).add_subparsers(dest="figure", required=True)
    leaf(figures, "fig2", _reproduce_fig2)
    leaf(figures, "fig3", _reproduce_fig3)
    leaf(figures, "fig4", partial(_reproduce_phase_grids, ls=[1]), sweep)
    leaf(figures, "fig5",
         partial(_reproduce_phase_grids, ls=[1, 2, 3, 4, 5, 6]), sweep)
    leaf(figures, "fig6", _reproduce_fig6, sweep)
    leaf(figures, "fig7", _reproduce_fig7, sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    args.cell_errors = []
    try:
        written = args.handler(args, cfg, out)
        # workers is accepted but unread, so it stays out of the manifest
        params = {k: v for k, v in vars(args).items()
                  if k not in ("config", "out", "workers", "cell_errors",
                               "handler")
                  and v is not None}
        write_manifest(out, config_digest(cfg), written, extra=params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    for path in written:
        print(path)
    if args.cell_errors:
        print(f"cell errors: {len(args.cell_errors)} (marked MI); "
              f"first: {args.cell_errors[0]}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
