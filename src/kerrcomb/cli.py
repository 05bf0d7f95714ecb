"""Command-line interface: config loading, subcommand dispatch, emission.

Subcommands: dispersion, overlap, transmission, steady, spectrum, duan,
phase-diagram, best-pump, oracle, reproduce. Outputs are CSV/JSON/SVG
files in --out plus a manifest.json carrying the config digest and
per-file checksums; identical configurations yield byte-identical
outputs for any --workers value.

Exit codes: 0 success, 1 computation error, 2 configuration or usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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


class ComputationError(Exception):
    """Wraps failures of requested computations (CLI exit code 1)."""


class UsageError(Exception):
    """A command line the subcommand cannot act on (CLI exit code 2)."""


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


def _families_arg(cfg: RunConfig, spec: str | None):
    if not spec or spec == "all":
        return list(cfg.resonator.families)
    labels = [s.strip() for s in spec.split(",") if s.strip()]
    return [cfg.resonator.family(lbl) for lbl in labels]


def _operating_point(args, cfg: RunConfig) -> tuple[NormalizedDrive, float]:
    """Drive from either physical flags or raw normalized flags."""
    if args.f_norm is not None:
        for name in ("dtp", "dtl"):
            if getattr(args, name) is None:
                raise UsageError(f"--{name} required with --f-norm")
        drive = NormalizedDrive(f_norm=args.f_norm, dtp=args.dtp,
                                dtl=args.dtl)
        return drive, fluct.DEFAULT_INTRINSIC_FRACTION
    if args.family is None or args.detuning_ghz is None \
            or args.apin_v_per_m is None:
        raise UsageError(
            "provide --family/--L/--detuning-ghz/--apin-v-per-m "
            "or raw --f-norm/--dtp/--dtl")
    fam = cfg.resonator.family(args.family)
    op = OperatingPoint(family=fam, L=args.L,
                        delta_p0=args.detuning_ghz * 1e9,
                        a_pin=args.apin_v_per_m)
    return (normalize(op, cfg.resonator,
                      cfg.tolerances.truncation_order),
            fam.intrinsic_fraction)


def _axes_from_args(args, cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sweep axes from the flags, else the config; checked before use."""
    axes = dict(cfg.sweep_defaults)
    for key, flag in (("delta_min_ghz", args.delta_min_ghz),
                      ("delta_max_ghz", args.delta_max_ghz),
                      ("amp_min_v_per_m", args.amp_min),
                      ("amp_max_v_per_m", args.amp_max),
                      ("grid", args.grid)):
        if flag is not None:
            axes[key] = flag
    problems = sweep_axis_problems(axes)
    if problems:
        raise UsageError("; ".join(problems))
    n = axes["grid"]
    return (np.linspace(axes["delta_min_ghz"] * 1e9,
                        axes["delta_max_ghz"] * 1e9, n),
            np.linspace(axes["amp_min_v_per_m"], axes["amp_max_v_per_m"], n))


def _load_sigma(path: str) -> np.ndarray:
    """The 4×4 covariance of a --sigma-json file, checked before use."""
    sigma = np.array(json.loads(Path(path).read_text()), dtype=float)
    if sigma.shape != (4, 4):
        raise ComputationError(f"--sigma-json is {sigma.shape}, not 4x4")
    if not np.isfinite(sigma).all():
        raise ComputationError("--sigma-json has non-finite entries")
    if not np.allclose(sigma, sigma.T, atol=1e-9):
        raise ComputationError("--sigma-json matrix is not symmetric")
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
    return _emit_table(args, out, "dispersion", *_dispersion_table(
        _families_arg(cfg, args.families), range(args.l_min, args.l_max + 1),
        cfg.tolerances.truncation_order))


def _cmd_overlap(args, cfg: RunConfig, out: Path) -> list[Path]:
    return _emit_table(args, out, "overlap", *_overlap_table(
        _families_arg(cfg, args.families),
        (args.f_min_thz * 1e12, args.f_max_thz * 1e12),
        args.tolerance_ghz * 1e9, cfg.tolerances.truncation_order))


def _cmd_transmission(args, cfg: RunConfig, out: Path) -> list[Path]:
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


def _witness(args, cfg: RunConfig):
    """Operating state, noise spectrum, σ and witness at the CLI point."""
    drive, intrinsic = _operating_point(args, cfg)
    op = phases.operating_state(drive, intrinsic)
    return (op, *op.witness(args.omega))


def _cmd_spectrum(args, cfg: RunConfig, out: Path) -> list[Path]:
    op, spec, sigma, result = _witness(args, cfg)
    payload = {
        "omega": args.omega,
        "phase": op.phase(result.c_min, cfg.tolerances.epsilon_ne).value,
        "s": _complex_matrix(spec.s),
        "s_minus": _complex_matrix(spec.s_minus),
        "quadrature_covariance": [[float(v) for v in row] for row in sigma],
        "state": _branch_record(op.state),
    }
    return [_write_json(out, "spectrum.json", payload)]


def _cmd_duan(args, cfg: RunConfig, out: Path) -> list[Path]:
    if args.sigma_json is not None:
        result = duan_mod.minimize_duan(_load_sigma(args.sigma_json))
        phase = None
    else:
        op, _, _, result = _witness(args, cfg)
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


def _sweep(args, cfg: RunConfig, fam, L: int, delta_axis: np.ndarray,
           amp_axis: np.ndarray) -> phases.SweepGrid:
    return phases.sweep(fam, cfg.resonator, L, delta_axis, amp_axis,
                        omega=args.omega,
                        epsilon_ne=cfg.tolerances.epsilon_ne,
                        truncation_order=cfg.tolerances.truncation_order,
                        workers=args.workers)


def _joint_pump(args, cfg: RunConfig, out: Path, name: str, fams,
                ls: list[int]) -> tuple[Path, dict]:
    """Run the joint-pump optimizer; write its payload to ``name``."""
    delta_axis, amp_axis = _axes_from_args(args, cfg)
    result, sweeps = phases.best_joint_pump(
        fams, cfg.resonator, ls, delta_axis, amp_axis, omega=args.omega,
        epsilon_ne=cfg.tolerances.epsilon_ne,
        margin=cfg.tolerances.mi_margin_cells, workers=args.workers,
        truncation_order=cfg.tolerances.truncation_order)
    payload = {
        "delta_p0_hz": result.delta_p0,
        "amplitudes_v_per_m": result.amplitudes,
        "worst_c_min": result.worst_c_min,
        "per_family_c_min": result.per_family_c_min,
        "slm_weights": disp.composite_pump_weights(result.amplitudes),
        "Ls": ls,
    }
    return _write_json(out, name, payload), sweeps


def _grid_svg(grid: phases.SweepGrid, cfg: RunConfig, title: str) -> str:
    cm = grid.c_min_array()
    mi = grid.phase_array() == phases.Phase.MI.value
    hm = cfg.heatmap
    return heatmap_svg(
        cm, mi, x_axis=grid.amplitude_axis / 1e9,
        y_axis=grid.delta_axis / 1e9,
        bucket_edges=hm["bucket_edges"], bucket_colors=hm["bucket_colors"],
        mi_color=hm["mi_color"],
        config_digest=config_digest(cfg),
        x_label="pump amplitude (1e9 V/m)", y_label="pump detuning (GHz)",
        title=title)


def _cmd_phase_diagram(args, cfg: RunConfig, out: Path) -> list[Path]:
    fam = cfg.resonator.family(args.family)
    grid = _sweep(args, cfg, fam, args.L, *_axes_from_args(args, cfg))
    name = f"phase_{fam.label}_L{args.L}"
    meta = {"family": fam.label, "L": args.L, "omega": args.omega,
            "epsilon_ne": cfg.tolerances.epsilon_ne,
            "counts": _phase_counts(grid)}
    return [_write_phase_csv(out, name, grid),
            write_output(out, f"{name}.svg",
                         _grid_svg(grid, cfg, f"{fam.label} L={args.L}")),
            _write_json(out, f"{name}_meta.json", meta)]


def _cmd_best_pump(args, cfg: RunConfig, out: Path) -> list[Path]:
    fams = _families_arg(cfg, args.families)
    ls = [int(s) for s in args.Ls.split(",")]
    path, sweeps = _joint_pump(args, cfg, out, "best_pump.json", fams, ls)
    written = [path]
    for label, grids in sorted(sweeps.items()):
        written.extend(_write_phase_csv(out, f"best_pump_{label}_L{grid.L}",
                                        grid) for grid in grids)
    return written


def _cmd_oracle(args, cfg: RunConfig, out: Path) -> list[Path]:
    if args.oracle_op == "duan-grid":
        if args.sigma_json is None:
            raise UsageError("duan-grid requires --sigma-json")
        c_min, (tp, tm) = oracle.brute_force_duan(
            _load_sigma(args.sigma_json), args.grid_n)
        payload = {"c_min": c_min, "theta_plus": tp, "theta_minus": tm,
                   "grid_n": args.grid_n}
        return [_write_json(out, "oracle_duan-grid.json", payload)]

    drive, intrinsic = _operating_point(args, cfg)
    if args.oracle_op == "mean-field":
        init = oracle.MeanFieldState(args.alpha0, args.alpha0, args.alpha0)
        times, traj = oracle.integrate_mean_field(init, drive, args.t_end,
                                                  args.dt, sample_every=50)
        resid = oracle.mean_field_rhs(traj[-1], drive)
        payload = {
            "final": [[v.real, v.imag] for v in traj[-1]],
            "residual": float(np.max(np.abs(resid))),
            "t_end": args.t_end,
        }
    elif args.oracle_op == "jacobian":
        op = phases.operating_state(drive, intrinsic)
        analytic = op.system.m
        numeric = oracle.fd_jacobian(op.state, drive)
        payload = {
            "state": _branch_record(op.state),
            "max_abs_difference": float(np.max(np.abs(analytic - numeric))),
            "analytic": _complex_matrix(analytic),
            "finite_difference": _complex_matrix(numeric),
        }
    elif args.oracle_op == "langevin":
        if args.n_samples < 1000:  # the oracle's own floor
            raise UsageError("--n-samples must be at least 1000")
        sys_ = phases.operating_state(drive, intrinsic).system
        cov, se = oracle.langevin_covariance(
            sys_.m, intrinsic, args.n_samples, args.t_end, args.dt,
            args.seed)
        sigma = duan_mod.quadrature_covariance(
            fluct.noise_spectrum(sys_, 0.0))
        z = (cov - sigma) / np.where(se > 0, se, 1.0)
        payload = {
            "covariance": [[float(v) for v in row] for row in cov],
            "standard_errors": [[float(v) for v in row] for row in se],
            "deterministic": [[float(v) for v in row] for row in sigma],
            "max_abs_z": float(np.max(np.abs(z))),
            "seed": args.seed,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ComputationError(f"unknown oracle op {args.oracle_op}")
    return [_write_json(out, f"oracle_{args.oracle_op}.json", payload)]


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
    labels = ("TE00", "TE10", "TM10")
    fams = [cfg.resonator.family(lbl) for lbl in labels]
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


def _reproduce_phase_grids(args, cfg: RunConfig, out: Path, name: str,
                           ls: list[int]) -> list[Path]:
    fam = cfg.resonator.family("TE00")
    delta_axis, amp_axis = _axes_from_args(args, cfg)
    written = []
    counts = {}
    for l_idx in ls:
        grid = _sweep(args, cfg, fam, l_idx, delta_axis, amp_axis)
        written.append(_write_phase_csv(out, f"{name}_TE00_L{l_idx}", grid))
        written.append(write_output(out, f"{name}_TE00_L{l_idx}.svg",
                                    _grid_svg(grid, cfg,
                                              f"TE00 L={l_idx}")))
        counts[f"L{l_idx}"] = _phase_counts(grid)
    written.append(_write_json(out, f"{name}_counts.json", counts))
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
                              cfg.resonator, cfg.tolerances.truncation_order)
            op = phases.operating_state(drive, fam.intrinsic_fraction)
            point = phases.classify_state(
                op, omega=args.omega, epsilon_ne=cfg.tolerances.epsilon_ne)
            a2_mean = max((s.a2 for s in op.parametric), default=0.0)
            try:
                pair_photons = fluct.intracavity_pair_photons(op.system)
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
                                        _grid_svg(grid, cfg,
                                                  f"{label} L={grid.L}")))
    return written


def _cmd_reproduce(args, cfg: RunConfig, out: Path) -> list[Path]:
    drivers = {
        "fig2": _reproduce_fig2,
        "fig3": _reproduce_fig3,
        "fig4": lambda a, c, o: _reproduce_phase_grids(a, c, o, "fig4", [1]),
        "fig5": lambda a, c, o: _reproduce_phase_grids(a, c, o, "fig5",
                                                       [1, 2, 3, 4, 5, 6]),
        "fig6": _reproduce_fig6,
        "fig7": _reproduce_fig7,
    }
    return drivers[args.figure](args, cfg, out)


# ------------------------------------------------------------- parser


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="modal family label")
    p.add_argument("--L", type=int, default=1, help="mode-pair index")
    p.add_argument("--detuning-ghz", type=float,
                   help="pump detuning, resonance minus laser, GHz")
    p.add_argument("--apin-v-per-m", type=float,
                   help="input field amplitude, V/m")
    p.add_argument("--f-norm", type=float,
                   help="raw normalized drive (with --dtp/--dtl)")
    p.add_argument("--dtp", type=float, help="raw pump detuning, units of Γ")
    p.add_argument("--dtl", type=float, help="raw pair detuning, units of Γ")


def _add_axes_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta-min-ghz", type=float)
    p.add_argument("--delta-max-ghz", type=float)
    p.add_argument("--amp-min", type=float, help="V/m")
    p.add_argument("--amp-max", type=float, help="V/m")
    p.add_argument("--grid", type=int, help="cells per axis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrcomb",
        description="Quantum Kerr comb phase diagrams for multimode "
                    "microrings")
    def add_common(target: argparse.ArgumentParser, suppress: bool) -> None:
        # the same flags exist before and after the subcommand; the
        # subparser copies use SUPPRESS so they only override when given
        d = (lambda v: argparse.SUPPRESS if suppress else v)
        target.add_argument("--config", default=d(None),
                            help="path to a config JSON "
                                 "(default: packaged table)")
        target.add_argument("--out", default=d("out"),
                            help="output directory")
        target.add_argument("--workers", type=int, default=d(1))
        target.add_argument("--omega", type=float, default=d(0.0),
                            help="analysis frequency in units of Γ")
        target.add_argument("--seed", type=int, default=d(12345))
        target.add_argument("--format", choices=("csv", "json"),
                            default=d("csv"))

    add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("dispersion", help="resonance grid and D_int CSV")
    p.add_argument("--families", default="all")
    p.add_argument("--l-min", type=int, default=-64)
    p.add_argument("--l-max", type=int, default=64)

    p = sub.add_parser("overlap", help="cross-family resonance overlap")
    p.add_argument("--families", default="TE00,TE10,TM10")
    p.add_argument("--f-min-thz", type=float, default=214.4)
    p.add_argument("--f-max-thz", type=float, default=214.8)
    p.add_argument("--tolerance-ghz", type=float, default=2.0)

    p = sub.add_parser("transmission", help="through-port spectra")
    p.add_argument("--families", default="all")
    p.add_argument("--center-thz", type=float, default=214.593)
    p.add_argument("--span-ghz", type=float, default=30.0)
    p.add_argument("--samples", type=int, default=3001)

    p = sub.add_parser("steady", help="steady-state branches as JSON")
    _add_point_flags(p)

    p = sub.add_parser("spectrum", help="output noise spectral density")
    _add_point_flags(p)

    p = sub.add_parser("duan", help="minimized entanglement witness")
    _add_point_flags(p)
    p.add_argument("--sigma-json", help="path to a 4x4 covariance JSON")

    p = sub.add_parser("phase-diagram", help="NE/ET/MI sweep for one L")
    p.add_argument("--family", required=True)
    p.add_argument("--L", type=int, default=1)
    _add_axes_flags(p)

    p = sub.add_parser("best-pump", help="shared-detuning joint optimum")
    p.add_argument("--families", default="TE00,TE10,TM10")
    p.add_argument("--Ls", default="1")
    _add_axes_flags(p)

    p = sub.add_parser("oracle", help="verification engines (debugging)")
    p.add_argument("oracle_op", choices=("mean-field", "jacobian",
                                         "langevin", "duan-grid"))
    _add_point_flags(p)
    p.add_argument("--alpha0", type=float, default=0.01)
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--n-samples", type=int, default=2000)
    p.add_argument("--sigma-json")
    p.add_argument("--grid-n", type=int, default=1024)

    p = sub.add_parser("reproduce", help="canned analysis bundles")
    p.add_argument("figure", choices=("fig2", "fig3", "fig4", "fig5",
                                      "fig6", "fig7"))
    _add_axes_flags(p)

    return parser


_HANDLERS = {
    "dispersion": _cmd_dispersion,
    "overlap": _cmd_overlap,
    "transmission": _cmd_transmission,
    "steady": _cmd_steady,
    "spectrum": _cmd_spectrum,
    "duan": _cmd_duan,
    "phase-diagram": _cmd_phase_diagram,
    "best-pump": _cmd_best_pump,
    "oracle": _cmd_oracle,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        written = _HANDLERS[args.command](args, cfg, out)
        # workers is an execution detail with no effect on any output
        # byte, so it stays out of the manifest
        params = {k: v for k, v in vars(args).items()
                  if k not in ("config", "out", "workers")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
