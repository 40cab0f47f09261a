"""Self-contained SVG renderers: line plots with error bands, grayscale
heatmaps, and box plots.  Each returns the SVG text and writes no file (the
runners write it, ``experiments._write``).  No rendering dependencies;
output is diffable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot", "heatmap", "box_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Axes:
    def __init__(self, x_min, x_max, y_min, y_max):
        self.x0, self.x1 = x_min, x_max
        self.y0, self.y1 = y_min, y_max
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1

    def px(self, x) -> float:
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y) -> float:
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)


def _head(title: str) -> list:  # the <svg> tag, the white background and the title of every plot
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _frame(title: str, x_label: str, y_label: str, axes: _Axes, x_ticks, y_ticks) -> list:
    parts = _head(title) + [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{_W / 2}" y="{_H - 8}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_H / 2})">{y_label}</text>',
    ]
    for t in x_ticks:
        px = axes.px(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{_fmt(t)}</text>')
    for t in y_ticks:
        py = axes.py(t)
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(t)}</text>')
    return parts


def _ticks(lo: float, hi: float) -> np.ndarray:
    return np.linspace(lo, hi, 6)


def line_plot(x, series: dict, title="", x_label="", y_label=""):
    """``series`` maps name -> y array or (y, yerr) pair; yerr draws a band.
    A series may be shorter than ``x``: it covers the first len(y) values."""
    x = np.asarray(x, dtype=float)
    ys, bands = {}, {}
    for name, v in series.items():
        if isinstance(v, tuple):
            ys[name] = np.asarray(v[0], dtype=float)
            bands[name] = np.asarray(v[1], dtype=float)
        else:
            ys[name] = np.asarray(v, dtype=float)
        if len(ys[name]) > len(x):
            raise ValueError(f"series {name!r} has {len(ys[name])} points, longer than x ({len(x)})")
    all_y = np.concatenate(
        [y - bands.get(n, 0) for n, y in ys.items()] + [y + bands.get(n, 0) for n, y in ys.items()]
    )
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    axes = _Axes(x.min(), x.max(), y_lo, y_hi)
    parts = _frame(title, x_label, y_label, axes, _ticks(x.min(), x.max()), _ticks(y_lo, y_hi))
    for i, (name, y) in enumerate(ys.items()):
        color = _PALETTE[i % len(_PALETTE)]
        xs = x[: len(y)]
        if name in bands:
            upper = [f"{axes.px(xv):.1f},{axes.py(yv + e):.1f}" for xv, yv, e in zip(xs, y, bands[name])]
            lower = [
                f"{axes.px(xv):.1f},{axes.py(yv - e):.1f}"
                for xv, yv, e in zip(xs[::-1], y[::-1], bands[name][::-1])
            ]
            parts.append(
                f'<polygon points="{" ".join(upper + lower)}" fill="{color}" opacity="0.15"/>'
            )
        pts = " ".join(f"{axes.px(xv):.1f},{axes.py(yv):.1f}" for xv, yv in zip(xs, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 100}" y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 95}" y="{ly + 4}">{name}</text>')
    return "\n".join(parts) + "\n</svg>\n"


def heatmap(matrix, title=""):
    """Grayscale cell grid of values in [0, 1]; black = 1 (full correlation),
    white = 0."""
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    side = min((_W - _ML - _MR) / cols, (_H - _MT - _MB) / rows)
    parts = _head(title)
    for i in range(rows):
        for j in range(cols):
            shade = int(round(255 * (1.0 - min(max(float(m[i, j]), 0.0), 1.0))))
            parts.append(
                f'<rect x="{_ML + j * side:.2f}" y="{_MT + i * side:.2f}" '
                f'width="{side:.2f}" height="{side:.2f}" fill="rgb({shade},{shade},{shade})"/>'
            )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{cols * side:.2f}" height="{rows * side:.2f}" '
        'fill="none" stroke="#333"/>'
    )
    return "\n".join(parts) + "\n</svg>\n"


def box_plot(groups: dict, title="", y_label=""):
    """``groups`` maps label -> samples; draws min/q1/median/q3/max boxes."""
    labels = list(groups)
    stats = []
    for label in labels:
        v = np.asarray(groups[label], dtype=float)
        stats.append(np.percentile(v, [0, 25, 50, 75, 100]))
    all_v = np.concatenate([np.asarray(groups[k], dtype=float) for k in labels])
    y_lo, y_hi = float(all_v.min()), float(all_v.max())
    pad = 0.05 * (y_hi - y_lo or 1.0)
    axes = _Axes(0, len(labels), y_lo - pad, y_hi + pad)
    parts = _frame(title, "", y_label, axes, [], _ticks(y_lo - pad, y_hi + pad))
    width = (_W - _ML - _MR) / max(len(labels), 1)
    for i, (label, (lo, q1, med, q3, hi)) in enumerate(zip(labels, stats)):
        cx = _ML + (i + 0.5) * width
        half = 0.3 * width
        parts.append(f'<line x1="{cx:.1f}" y1="{axes.py(lo):.1f}" x2="{cx:.1f}" y2="{axes.py(hi):.1f}" stroke="#333"/>')
        parts.append(
            f'<rect x="{cx - half:.1f}" y="{axes.py(q3):.1f}" width="{2 * half:.1f}" '
            f'height="{abs(axes.py(q1) - axes.py(q3)):.1f}" fill="#1f77b4" opacity="0.4" stroke="#333"/>'
        )
        parts.append(f'<line x1="{cx - half:.1f}" y1="{axes.py(med):.1f}" x2="{cx + half:.1f}" y2="{axes.py(med):.1f}" stroke="#d62728" stroke-width="2"/>')
        parts.append(f'<text x="{cx:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{label}</text>')
    return "\n".join(parts) + "\n</svg>\n"
