"""Self-contained SVG renderings of the CLI's artifacts, drawn from the same
columns the CLI writes to their CSVs.

Three kinds are supported:

``profile``     x, {source: values}      one polyline per source, in name
                                         order, y in [0, 1]
``front``       t, m_half[, fit]         scatter, plus the curve
                                         ``c_est t + log_slope ln t + intercept``
                                         of a ``FrontFit``
``martingale``  rows (replica, n, W_n, D_n)  per-generation ensemble means

The output is deterministic: fixed canvas, fixed precision, no timestamps.
"""
from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def plot(kind: str, *columns) -> str:
    """The SVG text of one artifact of the given kind, from its columns."""
    render = {"profile": _plot_profile, "front": _plot_front, "martingale": _plot_martingale}
    return render[kind](*columns)


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


def _plot_profile(xs, series: dict):
    canvas = _Canvas(_scale(min(xs), max(xs)), (0.0, 1.0), "x", "value")
    entries = []
    for (name, ys), color in zip(sorted(series.items()), _COLORS):
        canvas.polyline(xs, ys, color)
        entries.append((name, color))
    canvas.legend(entries)
    return canvas.render()


def _plot_front(ts, ms, fit=None):
    canvas = _Canvas(_scale(min(ts), max(ts)), _scale(min(ms), max(ms)), "t", "m_half")
    canvas.dots(ts, ms, _COLORS[0])
    entries = [("front", _COLORS[0])]
    if fit is not None:
        xs = [t for t in ts if t > 0]
        ys = [fit.c_est * t + fit.log_slope * math.log(t) + fit.intercept for t in xs]
        canvas.polyline(xs, ys, _COLORS[1])
        entries.append(("fit", _COLORS[1]))
    canvas.legend(entries)
    return canvas.render()


def _plot_martingale(rows):
    # summed in row order, replica by replica, as the CSV lists them
    sums: dict[int, list] = {}
    for _, n, w, d in rows:
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
