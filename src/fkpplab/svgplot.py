"""Dependency-free SVG line plots.

Plots are a convenience next to the CSV reports, so this is deliberately a
minimal emitter: polylines on a framed axes box with a handful of ticks,
optional log scales, fixed palette.
"""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 34, 52


def _transform(v, lo, hi, log):
    if log:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    return (v - lo) / (hi - lo) if hi > lo else 0.5


def _ticks(lo, hi, log):
    if log:
        lo10, hi10 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0**k for k in range(lo10, hi10 + 1)]
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _fmt_tick(v):
    if v == 0:
        return "0"
    if abs(v) < 1e-3 or abs(v) >= 1e4:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(path, series, title, xlabel, ylabel, logx=False, logy=False):
    """Write an SVG with one polyline per (x, y, label) triple in *series*.

    A series longer than about 500 points is subsampled to at most that
    many; points with non-finite coordinates (or non-positive ones on log
    axes) are dropped.
    """
    kept = []
    for xs, ys, label in series:
        step = max(1, -(-len(xs) // 500))
        kept.append(([(x, y) for x, y in zip(xs[::step], ys[::step])
                      if math.isfinite(x) and math.isfinite(y)
                      and not (logx and x <= 0) and not (logy and y <= 0)],
                     label))
    pts = [p for points, _ in kept for p in points]
    if not pts:
        raise ValueError("nothing to plot")
    xlo, xhi = min(p[0] for p in pts), max(p[0] for p in pts)
    ylo, yhi = min(p[1] for p in pts), max(p[1] for p in pts)
    if xlo == xhi:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if ylo == yhi:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    if not logy:
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + pw * _transform(x, xlo, xhi, logx)

    def py(y):
        return _MT + ph * (1.0 - _transform(y, ylo, yhi, logy))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">'
        f"{title}</text>",
        f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" text-anchor="middle">'
        f"{xlabel}</text>",
        f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>',
    ]
    for tv in _ticks(xlo, xhi, logx):
        if tv < xlo - 1e-12 or tv > xhi * (1 + 1e-12):
            continue
        x = px(tv)
        out.append(f'<line x1="{x:.1f}" y1="{_MT + ph}" x2="{x:.1f}" '
                   f'y2="{_MT + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{_MT + ph + 18}" text-anchor="middle">'
                   f"{_fmt_tick(tv)}</text>")
    for tv in _ticks(ylo, yhi, logy):
        if tv < ylo - 1e-12 or tv > yhi * (1 + 1e-12):
            continue
        y = py(tv)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                   f'stroke="#333"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">'
                   f"{_fmt_tick(tv)}</text>")
    for i, (points, label) in enumerate(kept):
        if not points:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        coords = [f"{px(x):.2f},{py(y):.2f}" for x, y in points]
        out.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        if label:
            out.append(f'<text x="{_ML + pw - 6}" y="{_MT + 16 + 14 * i}" '
                       f'text-anchor="end" fill="{color}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
