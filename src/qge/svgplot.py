"""Minimal self-contained SVG line charts on a log y axis (no charting
dependency).

The plots are conveniences; the CSV/JSON next to them is always the
authoritative artifact.
"""

from __future__ import annotations

import math
from pathlib import Path

from .fileio import write_text_atomic

__all__ = ["line_plot"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _finite(points):
    return [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]


def line_plot(
    series: list[tuple[str, list[float], list[float]]],
    path: str | Path,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a simple multi-series line chart with a log y axis as SVG.

    series is a list of (label, xs, ys).  Non-finite points and
    non-positive y values are dropped.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [(x, y) for x, y in _finite(zip(xs, ys)) if y > 0]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        write_text_atomic(
            path,
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">'
            '<text x="20" y="40">no finite data</text></svg>\n',
        )
        return

    all_x = [x for _, pts in cleaned for x, _ in pts]
    all_y = [math.log10(y) for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (math.log10(y) - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>',
    ]

    # 5 ticks per axis
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        gx = px(fx)
        parts.append(
            f'<line x1="{gx:.1f}" y1="{MARGIN_T + plot_h}" x2="{gx:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{gx:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle">{fx:.4g}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * i / 4
        gy = MARGIN_T + plot_h * (1.0 - i / 4)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{gy:.1f}" x2="{MARGIN_L}" y2="{gy:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{gy + 4:.1f}" text-anchor="end">1e{fy:.2f}</text>'
        )

    for idx, (label, pts) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R - 120}" y1="{ly - 4}" x2="{WIDTH - MARGIN_R - 100}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{WIDTH - MARGIN_R - 95}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    write_text_atomic(path, "\n".join(parts) + "\n")
