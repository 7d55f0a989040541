"""Self-contained SVG renderings of the CSV artifacts.

Three kinds are supported, matching the CSV column contracts:

``profile``     x,value[,stderr,source]  one polyline per source, y in [0, 1]
``front``       t,m_half                 scatter, plus the fitted curve when
                                         the JSON header carries fit values
``martingale``  replica,n,W_n,D_n        per-generation ensemble means

The output is deterministic: fixed canvas, fixed precision, no timestamps.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .errors import PlotFormatError

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def plot(csv_path, kind: str) -> Path:
    """Render ``csv_path`` as an SVG of the given kind next to it, with the
    suffix ``.svg``; returns the SVG path."""
    csv_path = Path(csv_path)
    out_path = csv_path.with_suffix(".svg")
    header_meta, columns, rows = _read_csv(csv_path)
    if kind == "profile":
        svg = _plot_profile(columns, rows)
    elif kind == "front":
        svg = _plot_front(columns, rows, header_meta)
    elif kind == "martingale":
        svg = _plot_martingale(columns, rows)
    else:
        raise PlotFormatError(f"unknown plot kind {kind!r}")
    out_path.write_text(svg)
    return out_path


def _read_csv(path: Path):
    meta = {}
    rows = []
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            try:
                meta = json.loads(first[1:])
            except json.JSONDecodeError:
                meta = {}
            header_line = fh.readline()
        else:
            header_line = first
        if not header_line.strip():
            raise PlotFormatError(f"{path} has no header row")
        columns = [c.strip() for c in header_line.strip().split(",")]
        for rec in csv.reader(fh):
            if rec:
                rows.append(rec)
    if not rows:
        raise PlotFormatError(f"{path} has no data rows")
    return meta, columns, rows


def _require(columns, needed):
    missing = [c for c in needed if c not in columns]
    if missing:
        raise PlotFormatError(f"missing columns {missing}; found {columns}")
    return [columns.index(c) for c in needed]


def _scale(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.03 * (hi - lo)
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, x_range, y_range, x_label, y_label):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]
        self._axes(x_label, y_label)

    def px(self, x):
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y):
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)

    def _axes(self, x_label, y_label):
        a = self.parts.append
        a(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            xp, yp = self.px(xv), self.py(yv)
            a(f'<line x1="{xp:.2f}" y1="{_H - _MB}" x2="{xp:.2f}" y2="{_H - _MB + 5}" stroke="#444"/>')
            a(f'<text x="{xp:.2f}" y="{_H - _MB + 18}" text-anchor="middle">{xv:.3g}</text>')
            a(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" y2="{yp:.2f}" stroke="#444"/>')
            a(f'<text x="{_ML - 8}" y="{yp + 4:.2f}" text-anchor="end">{yv:.3g}</text>')
        a(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle">{x_label}</text>')
        a(
            f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{y_label}</text>'
        )

    def polyline(self, xs, ys, color):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    def dots(self, xs, ys, color):
        for x, y in zip(xs, ys):
            self.parts.append(f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="2" fill="{color}"/>')

    def legend(self, labels_colors):
        y = _MT + 16
        for label, color in labels_colors:
            self.parts.append(f'<line x1="{_ML + 12}" y1="{y - 4}" x2="{_ML + 40}" y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
            self.parts.append(f'<text x="{_ML + 46}" y="{y}">{label}</text>')
            y += 18

    def render(self):
        return "\n".join(self.parts + ["</svg>"])


def _plot_profile(columns, rows):
    ix, iv = _require(columns, ["x", "value"])
    isrc = columns.index("source") if "source" in columns else None
    series: dict[str, tuple[list, list]] = {}
    for rec in rows:
        name = rec[isrc] if isrc is not None else "profile"
        xs, ys = series.setdefault(name, ([], []))
        xs.append(float(rec[ix]))
        ys.append(float(rec[iv]))
    all_x = [x for xs, _ in series.values() for x in xs]
    canvas = _Canvas(_scale(min(all_x), max(all_x)), (0.0, 1.0), "x", "value")
    entries = []
    for (name, (xs, ys)), color in zip(sorted(series.items()), _COLORS):
        canvas.polyline(xs, ys, color)
        entries.append((name, color))
    canvas.legend(entries)
    return canvas.render()


def _plot_front(columns, rows, meta):
    it, im = _require(columns, ["t", "m_half"])
    ts = [float(r[it]) for r in rows]
    ms = [float(r[im]) for r in rows]
    canvas = _Canvas(_scale(min(ts), max(ts)), _scale(min(ms), max(ms)), "t", "m_half")
    canvas.dots(ts, ms, _COLORS[0])
    entries = [("front", _COLORS[0])]
    fit = meta.get("fit") if isinstance(meta, dict) else None
    if fit and all(k in fit for k in ("c_est", "log_slope", "intercept")):
        ys = [fit["c_est"] * t + fit["log_slope"] * math.log(t) + fit["intercept"] for t in ts if t > 0]
        xs = [t for t in ts if t > 0]
        canvas.polyline(xs, ys, _COLORS[1])
        entries.append(("fit", _COLORS[1]))
    canvas.legend(entries)
    return canvas.render()


def _plot_martingale(columns, rows):
    ir, in_, iw, id_ = _require(columns, ["replica", "n", "W_n", "D_n"])
    sums: dict[int, list] = {}
    for rec in rows:
        n = int(float(rec[in_]))
        w, d = float(rec[iw]), float(rec[id_])
        acc = sums.setdefault(n, [0.0, 0.0, 0])
        acc[0] += w
        acc[1] += d
        acc[2] += 1
    ns = sorted(sums)
    mean_w = [sums[n][0] / sums[n][2] for n in ns]
    mean_d = [sums[n][1] / sums[n][2] for n in ns]
    lo = min(min(mean_w), min(mean_d))
    hi = max(max(mean_w), max(mean_d))
    canvas = _Canvas(_scale(min(ns), max(ns)), _scale(lo, hi), "n", "ensemble mean")
    canvas.polyline(ns, mean_w, _COLORS[0])
    canvas.polyline(ns, mean_d, _COLORS[1])
    canvas.legend([("mean W_n", _COLORS[0]), ("mean D_n", _COLORS[1])])
    return canvas.render()
