"""The phase-CSV and heat-map writers and the pump-only cubic against
reference copies of their earlier per-cell forms, byte for byte and bit
for bit, and the bundle bytes under a non-UTF-8 locale."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kerrcomb
from kerrcomb import cli, phases, steady
from kerrcomb.config import config_digest
from kerrcomb.phases import Phase, PhasePoint, SweepGrid
from kerrcomb.svg import (_MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T,
                          _axis_ticks, _fmt, _header, _label, _titles,
                          heatmap_svg)


# --- reference copies: the per-cell writers and the closure polish ----

def _ref_fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ref_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_ref_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _ref_phase_csv(grid) -> str:
    rows = []
    for i, delta in enumerate(grid.delta_axis):
        for j, amp in enumerate(grid.amplitude_axis):
            p = grid.points[i][j]
            rows.append((float(delta), float(amp), p.phase.value, p.c_min,
                         p.n_branches, p.max_eig_re))
    return _ref_csv(cli._PHASE_HEADER, rows)


def _ref_heatmap_svg(values, x_axis, y_axis, bucket_edges, bucket_colors,
                    mi_color, config_digest, x_label="", y_label="",
                    title=""):
    ny, nx = values.shape
    if len(bucket_colors) != len(bucket_edges):
        raise ValueError("need one color per bucket edge interval")
    plot_w, plot_h = max(4 * nx, 320), max(4 * ny, 320)
    width = plot_w + _MARGIN_L + _MARGIN_R
    height = plot_h + _MARGIN_T + _MARGIN_B
    cell_w, cell_h = plot_w / nx, plot_h / ny

    def color_for(v):
        if math.isnan(v):
            return mi_color
        for edge, color in zip(bucket_edges, bucket_colors):
            if v <= edge:
                return color
        return bucket_colors[-1]

    parts = _header(width, height, config_digest, title)
    parts.append(
        '<defs><pattern id="hatch" width="6" height="6" '
        'patternUnits="userSpaceOnUse">'
        '<path d="M0,6 L6,0" stroke="#555555" stroke-width="1"/>'
        "</pattern></defs>")
    for i in range(ny):
        y0 = _MARGIN_T + plot_h - (i + 1) * cell_h
        for j in range(nx):
            x0 = _MARGIN_L + j * cell_w
            value = float(values[i, j])
            parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                         f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
                         f'fill="{color_for(value)}"/>')
            if math.isnan(value):
                parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                             f'width="{_fmt(cell_w)}" '
                             f'height="{_fmt(cell_h)}" '
                             f'fill="url(#hatch)"/>')
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#000000"/>')
    for frac, val in [(i / 4, v) for i, v in
                      enumerate(_axis_ticks(float(x_axis[0]),
                                            float(x_axis[-1])))]:
        parts.append(_label(_MARGIN_L + frac * plot_w,
                            _MARGIN_T + plot_h + 16, f"{val:.4g}"))
    for frac, val in [(i / 4, v) for i, v in
                      enumerate(_axis_ticks(float(y_axis[0]),
                                            float(y_axis[-1])))]:
        parts.append(_label(_MARGIN_L - 8, _MARGIN_T + plot_h * (1 - frac) + 4,
                            f"{val:.4g}", anchor="end"))
    parts.extend(_titles(plot_w, plot_h, height, x_label, y_label, title))
    lx = _MARGIN_L + plot_w + 14
    for k, (edge, color) in enumerate(zip(bucket_edges, bucket_colors)):
        ly = _MARGIN_T + k * 18
        parts.append(f'<rect x="{lx}" y="{_fmt(ly)}" width="14" height="14" '
                     f'fill="{color}"/>')
        parts.append(_label(lx + 20, ly + 11, f"≤ {edge:g}", anchor="start"))
    ly = _MARGIN_T + len(bucket_edges) * 18
    parts.append(f'<rect x="{lx}" y="{_fmt(ly)}" width="14" height="14" '
                 f'fill="{mi_color}"/>')
    parts.append(f'<rect x="{lx}" y="{_fmt(ly)}" width="14" height="14" '
                 f'fill="url(#hatch)"/>')
    parts.append(_label(lx + 20, ly + 11, "MI", anchor="start"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ref_cubic_roots(dtp, f_sq):
    b = -2.0 * dtp
    c = 1.0 + dtp * dtp
    d = -f_sq
    if f_sq == 0.0:
        return [0.0]
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
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg) / 3.0
        roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift
                 for k in range(3)]

    def poly(x):
        return ((x + b) * x + c) * x + d

    def dpoly(x):
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
    out = []
    for x in polished:
        if not out or abs(x - out[-1]) > 1e-9 * max(1.0, x):
            out.append(x)
    return out


# --- grids ------------------------------------------------------------

@pytest.fixture(scope="module")
def real_grids(te00):
    """TE00 on a 20 × 27 plane (not square, so rows and columns cannot
    trade places unnoticed) at L = 1 and at L = 20, where MI cells with
    NaN c_min cover much of the plane."""
    delta = np.linspace(-0.1e9, 0.8e9, 20)
    amp = np.linspace(2e5, 2.8e7, 27)
    pump = phases.pump_grid(te00, delta, amp)
    return [phases.sweep(pump, L) for L in (1, 20)]


def _with_cells(grid, cells):
    """``grid`` with the points at (i, j) replaced, row-major."""
    rows = [list(row) for row in grid.points]
    for (i, j), point in cells.items():
        rows[i][j] = point
    return SweepGrid(grid.family, grid.L, grid.delta_axis,
                     grid.amplitude_axis, tuple(map(tuple, rows)))


@pytest.fixture(scope="module")
def edge_grid(real_grids, cfg):
    """The L = 20 grid with error cells (max_eig_re NaN, no roots), a
    c_min exactly on every bucket edge, ±inf, −0.0 and a tiny value."""
    grid = real_grids[1]
    error = PhasePoint(Phase.MI, math.nan, 0, math.nan,
                       error="NoConvergenceError: stalled")
    cells = {(0, 0): error, (19, 26): error, (7, 3): error}
    specials = [*cfg.heatmap["bucket_edges"], math.inf, -math.inf, -0.0,
                5e-324, 1e300]
    for k, c_min in enumerate(specials):
        cells[(k % 20, 5 + k)] = PhasePoint(Phase.ET, c_min, 1, -0.5)
    return _with_cells(grid, cells)


def _all_grids(real_grids, edge_grid):
    return [*real_grids, edge_grid]


# --- the phase CSV ----------------------------------------------------

def test_phase_csv_matches_reference(real_grids, edge_grid, tmp_path):
    for k, grid in enumerate(_all_grids(real_grids, edge_grid)):
        path = cli._write_phase_csv(tmp_path, f"g{k}", grid)
        assert path.read_bytes() == _ref_phase_csv(grid).encode("utf-8")


def test_phase_csv_carries_the_special_cells(edge_grid, tmp_path):
    text = cli._write_phase_csv(tmp_path, "edge", edge_grid).read_text(
        encoding="utf-8")
    assert ",MI,nan,0,nan\n" in text
    for token in (",ET,inf,", ",ET,-inf,", ",ET,-0.0,", ",ET,5e-324,"):
        assert token in text


# --- the heat map -----------------------------------------------------

def _heatmaps(values, cfg):
    """The heat map of ``values`` as written now and by the reference."""
    hm = cfg.heatmap
    kwargs = dict(x_axis=np.linspace(0.2, 28.0, values.shape[1]),
                  y_axis=np.linspace(-0.1, 0.8, values.shape[0]),
                  bucket_edges=hm["bucket_edges"],
                  bucket_colors=hm["bucket_colors"],
                  mi_color=hm["mi_color"], config_digest="0" * 64,
                  x_label="x", y_label="y", title="t")
    return heatmap_svg(values, **kwargs), _ref_heatmap_svg(values, **kwargs)


def test_heatmap_matches_reference(real_grids, edge_grid, cfg):
    """The bundles' heat maps, on grids with MI cells and every special
    value, equal the reference document byte for byte."""
    hm = cfg.heatmap
    assert all(np.isnan(g.c_min_array()).sum() > 20 for g in real_grids)
    for grid in _all_grids(real_grids, edge_grid):
        values = grid.c_min_array()
        svg = cli._grid_svg(grid, cfg)
        assert svg == _ref_heatmap_svg(
            values, x_axis=grid.amplitude_axis / 1e9,
            y_axis=grid.delta_axis / 1e9, bucket_edges=hm["bucket_edges"],
            bucket_colors=hm["bucket_colors"], mi_color=hm["mi_color"],
            config_digest=config_digest(cfg),
            x_label="pump amplitude (1e9 V/m)",
            y_label="pump detuning (GHz)",
            title=f"{grid.family} L={grid.L}")
        # one hatch per NaN cell, plus the pattern's and the legend's
        assert svg.count("url(#hatch)") == 1 + np.isnan(values).sum()


def test_heatmap_edge_values_and_int_arrays(cfg):
    edges = cfg.heatmap["bucket_edges"]
    values = np.array([[*edges, math.nan],
                       [math.inf, -math.inf, -0.0, 1.0, *edges[:-4],
                        np.nextafter(edges[0], 0.0)]])
    new, ref = _heatmaps(values, cfg)
    assert new == ref
    new, ref = _heatmaps(np.array([[0, 1, 2], [-1, 3, 0]]), cfg)
    assert new == ref


# --- the pump-only cubic ----------------------------------------------

def _cubic_inputs():
    rng = np.random.default_rng(2028)
    pts = [(d, 0.0) for d in rng.uniform(-2.0, 8.0, 50).tolist()]
    pts += zip(rng.uniform(-2.0, 8.0, 4000).tolist(),
               rng.uniform(0.0, 40.0, 4000).tolist())
    for dtp in rng.uniform(math.sqrt(3.0), 8.0, 600).tolist():
        (x_dn, f_dn), (x_up, f_up) = steady.bistability_turning_points(dtp)
        # the three-root band between the folds, and both folds
        pts += [(dtp, f) for f in rng.uniform(min(f_dn, f_up),
                                              max(f_dn, f_up), 3).tolist()]
        for f in (f_dn, f_up):
            pts += [(dtp, f * (1.0 + e)) for e in
                    (0.0, 2e-16, -2e-16, 1e-12, -1e-12, 1e-8, -1e-8)]
    return pts


def test_cubic_roots_bit_identical_to_reference():
    pts = _cubic_inputs()
    sizes = [0, 0, 0, 0]
    for dtp, f_sq in pts:
        got = steady._cubic_roots(dtp, f_sq)
        assert [x.hex() for x in got] == [
            x.hex() for x in _ref_cubic_roots(dtp, f_sq)], (dtp, f_sq)
        sizes[len(got)] += 1
    # every root count is exercised: one, the fold's double, three
    assert min(sizes[1:]) > 0


# --- locale -----------------------------------------------------------

def _reproduce_fig4(out: Path, **locale) -> subprocess.CompletedProcess:
    src = str(Path(kerrcomb.__file__).resolve().parent.parent)
    env = dict(os.environ, SOURCE_DATE_EPOCH="0", **locale,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kerrcomb.cli", "reproduce",
                           "fig4", "--grid", "4", "--out", str(out)],
                          env=env, capture_output=True)


def test_bundle_bytes_do_not_depend_on_the_locale(tmp_path):
    ascii_run = _reproduce_fig4(tmp_path / "c", LC_ALL="C",
                                PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert ascii_run.returncode == 0, ascii_run.stderr
    utf8_run = _reproduce_fig4(tmp_path / "utf8", LC_ALL="C.UTF-8",
                               PYTHONUTF8="1")
    assert utf8_run.returncode == 0, utf8_run.stderr
    names = sorted(p.name for p in (tmp_path / "utf8").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "c").iterdir())
    assert "fig4_TE00_L1.svg" in names
    for name in names:
        blob = (tmp_path / "utf8" / name).read_bytes()
        assert (tmp_path / "c" / name).read_bytes() == blob, name
    assert "≤".encode("utf-8") in (tmp_path / "c" /
                                   "fig4_TE00_L1.svg").read_bytes()
