"""Minimal deterministic SVG emitters for heat maps and line plots.

Hand-rolled on purpose: byte-identical output for identical inputs is a
hard requirement (plotting libraries embed ids and timestamps), and the
figures only need rectangles, polylines and text. Every document embeds
the configuration digest in a <metadata> block.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["heatmap_svg", "line_plot_svg"]

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 120, 36, 54
_LINE_W, _LINE_H = 640, 420  # line plot canvas, px


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axis_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _header(width: int, height: int, config_digest: str, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<metadata>config-sha256: {config_digest}</metadata>",
        f'<title>{title}</title>',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _label(x: float, y: float, text: str, anchor: str = "middle",
           size: int = 11, rotate: float | None = None) -> str:
    extra = (f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"'
             if rotate is not None else "")
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}"{extra}>'
            f"{text}</text>")


def _titles(plot_w: float, plot_h: float, height: int, x_label: str,
            y_label: str, title: str) -> list[str]:
    """Axis labels and title around a plot area at the standard margins."""
    parts = []
    if x_label:
        parts.append(_label(_MARGIN_L + plot_w / 2, height - 12, x_label))
    if y_label:
        parts.append(_label(16, _MARGIN_T + plot_h / 2, y_label, rotate=-90.0))
    if title:
        parts.append(_label(_MARGIN_L + plot_w / 2, 20, title, size=13))
    return parts


def heatmap_svg(values: np.ndarray, x_axis: Sequence[float],
                y_axis: Sequence[float], bucket_edges: Sequence[float],
                bucket_colors: Sequence[str], mi_color: str,
                config_digest: str, x_label: str = "", y_label: str = "",
                title: str = "") -> str:
    """Bucketed heat map: values[i, j] drawn at (x_axis[j], y_axis[i]).

    Values are colored by the bucket interval they fall into (first edge
    is an open lower bound); NaN cells are MI and use mi_color with a
    hatch overlay.
    """
    ny, nx = values.shape
    if len(bucket_colors) != len(bucket_edges):
        raise ValueError("need one color per bucket edge interval")
    plot_w, plot_h = max(4 * nx, 320), max(4 * ny, 320)
    width = plot_w + _MARGIN_L + _MARGIN_R
    height = plot_h + _MARGIN_T + _MARGIN_B
    cell_w, cell_h = plot_w / nx, plot_h / ny

    def color_for(v: float) -> str:
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
        # row 0 at the bottom: y axis increases upward
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
    # frame and tick labels
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
    # legend
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


def line_plot_svg(series: Sequence[tuple[str, np.ndarray, np.ndarray]],
                  config_digest: str, x_label: str = "", y_label: str = "",
                  title: str = "") -> str:
    """Polyline plot of (label, x, y) series with a small legend."""
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b"]
    width, height = _LINE_W, _LINE_H
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    ys = ys[np.isfinite(ys)]
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = _header(width, height, config_digest, title)
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#000000"/>')
    for k, (name, x, y) in enumerate(series):
        color = palette[k % len(palette)]
        pts = []
        for xi, yi in zip(np.asarray(x, float), np.asarray(y, float)):
            if math.isfinite(yi):
                pts.append(f"{_fmt(px(xi))},{_fmt(py(yi))}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 6 + k * 16
        lx = _MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 16}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(_label(lx + 20, ly + 4, name, anchor="start"))
    for val in _axis_ticks(x_lo, x_hi):
        parts.append(_label(px(val), _MARGIN_T + plot_h + 16, f"{val:.4g}"))
    for val in _axis_ticks(y_lo, y_hi):
        parts.append(_label(_MARGIN_L - 8, py(val) + 4, f"{val:.4g}",
                            anchor="end"))
    parts.extend(_titles(plot_w, plot_h, height, x_label, y_label, title))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
