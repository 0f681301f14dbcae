"""Dependency-free SVG rendering of figure series.

``python -m repro.bench fig5a --svg out/`` writes one SVG per figure so the
reproduced curves can be compared with the paper's plots side by side.  The
renderer is deliberately tiny: line charts for x/series figures (Figs. 5-9;
time axes plot simulated I/O) and grouped bar charts for distribution/stage
figures (Figs. 10-12, simulated I/O with CPU wall beside it), with a
log-scale option for the range-query counts of Figure 9.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50
_PALETTE = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44",
    "#66ccee", "#aa3377", "#bbbbbb", "#000000",
]


def _finite(values: Sequence[float]) -> List[float]:
    return [v for v in values if v == v and abs(v) != float("inf")]


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _axis_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / max(n - 1, 1)
    return [lo + i * step for i in range(n)]


def line_chart(
    title: str,
    x_label: str,
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    y_label: str = "",
    log_y: bool = False,
) -> str:
    """Render a multi-series line chart as an SVG string."""
    xs = [float(x) for x in x_values]
    all_y = _finite([v for values in series.values() for v in values])
    if not xs or not all_y:
        return _empty_chart(title)
    if log_y:
        all_y = [v for v in all_y if v > 0]
        y_lo = math.log10(min(all_y)) if all_y else 0.0
        y_hi = math.log10(max(all_y)) if all_y else 1.0
    else:
        y_lo, y_hi = 0.0, max(all_y)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        value = math.log10(y) if log_y else y
        return _MARGIN_T + plot_h - (value - y_lo) / (y_hi - y_lo) * plot_h

    parts = [_svg_header(title)]
    parts.append(_axes(x_label, y_label, x_lo, x_hi, y_lo, y_hi, log_y, sx, sy))
    for idx, (name, values) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = [
            (sx(x), sy(v))
            for x, v in zip(xs, values)
            if v == v and (not log_y or v > 0)
        ]
        if len(points) >= 2:
            path = " ".join(f"{px:.1f},{py:.1f}" for px, py in points)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                f'points="{path}"/>'
            )
        for px, py in points:
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>')
        ly = _MARGIN_T + 16 * idx
        lx = _WIDTH - _MARGIN_R + 10
        parts.append(
            f'<rect x="{lx}" y="{ly - 8}" width="10" height="10" fill="{color}"/>'
            f'<text x="{lx + 14}" y="{ly + 1}" font-size="11">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def bar_chart(
    title: str,
    categories: Sequence[str],
    series: Dict[str, Sequence[float]],
    y_label: str = "",
) -> str:
    """Render a grouped bar chart (categories on x, one bar per series)."""
    all_y = _finite([v for values in series.values() for v in values])
    if not categories or not all_y:
        return _empty_chart(title)
    y_hi = max(max(all_y), 1e-12)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    group_w = plot_w / len(categories)
    bar_w = group_w / (len(series) + 1)

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - y / y_hi * plot_h

    parts = [_svg_header(title)]
    parts.append(
        _axes("", y_label, 0, 1, 0.0, y_hi, False, lambda x: 0.0, sy, draw_x=False)
    )
    for c_idx, cat in enumerate(categories):
        cx = _MARGIN_L + group_w * (c_idx + 0.5)
        parts.append(
            f'<text x="{cx:.1f}" y="{_HEIGHT - _MARGIN_B + 16}" font-size="10" '
            f'text-anchor="middle">{_escape(cat)}</text>'
        )
    for s_idx, (name, values) in enumerate(series.items()):
        color = _PALETTE[s_idx % len(_PALETTE)]
        for c_idx, value in enumerate(values):
            if value != value:
                continue
            x = _MARGIN_L + group_w * c_idx + bar_w * (s_idx + 0.5)
            top = sy(max(value, 0.0))
            parts.append(
                f'<rect x="{x:.1f}" y="{top:.1f}" width="{bar_w:.1f}" '
                f'height="{_MARGIN_T + plot_h - top:.1f}" fill="{color}"/>'
            )
        ly = _MARGIN_T + 16 * s_idx
        lx = _WIDTH - _MARGIN_R + 10
        parts.append(
            f'<rect x="{lx}" y="{ly - 8}" width="10" height="10" fill="{color}"/>'
            f'<text x="{lx + 14}" y="{ly + 1}" font-size="11">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_figure(report) -> Optional[str]:
    """Best-effort SVG for a :class:`~repro.bench.experiments.FigureReport`.

    Returns None for reports whose series shape has no chart mapping.
    """
    series = report.series
    for x_key, x_label in (("sizes", "|S|"), ("dims", "|D|")):
        if "io_ms" in series and x_key in series:
            return line_chart(
                report.title, x_label, series[x_key], series["io_ms"],
                y_label="avg simulated I/O (ms)",
            )
    if "range_queries" in series and "dims" in series:
        return line_chart(
            report.title, "|D|", series["dims"], series["range_queries"],
            y_label="avg range queries (log)", log_y=True,
        )
    if "stages" in series:
        stages = series["stages"]
        categories = list(stages)
        stage_names = list(next(iter(stages.values()), {}))
        data = {
            stage: [stages[cat][stage] for cat in categories]
            for stage in stage_names
        }
        return bar_chart(report.title, categories, data, y_label="avg ms per stage")
    io_ms = series.get("io_ms")
    if isinstance(io_ms, dict) and all(
        isinstance(v, dict) and "mean" in v for v in io_ms.values()
    ):
        categories = list(io_ms)
        return bar_chart(
            report.title, categories,
            {
                "io_ms": [io_ms[c]["mean"] for c in categories],
                "wall_ms": [series["wall_ms"][c] for c in categories],
            },
            y_label="mean ms per query",
        )
    return None


def _svg_header(title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" font-family="sans-serif">'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>'
        f'<text x="{_WIDTH / 2}" y="22" font-size="14" text-anchor="middle">'
        f"{_escape(title)}</text>"
    )


def _axes(
    x_label, y_label, x_lo, x_hi, y_lo, y_hi, log_y, sx, sy, draw_x=True
) -> str:
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    parts = [
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_WIDTH - _MARGIN_R}" y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]
    for tick in _axis_ticks(y_lo, y_hi):
        y = sy(10 ** tick if log_y else tick)
        label = f"1e{tick:.1f}" if log_y else f"{tick:,.0f}" if tick >= 10 else f"{tick:.2g}"
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 3:.1f}" font-size="10" '
            f'text-anchor="end">{label}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L - 3}" y1="{y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
    if draw_x:
        for tick in _axis_ticks(x_lo, x_hi):
            x = sx(tick)
            parts.append(
                f'<text x="{x:.1f}" y="{_HEIGHT - _MARGIN_B + 16}" font-size="10" '
                f'text-anchor="middle">{tick:,.0f}</text>'
            )
    if x_label:
        parts.append(
            f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" '
            f'y="{_HEIGHT - 12}" font-size="12" text-anchor="middle">'
            f"{_escape(x_label)}</text>"
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 16 '
            f'{_MARGIN_T + plot_h / 2})">{_escape(y_label)}</text>'
        )
    return "".join(parts)


def _empty_chart(title: str) -> str:
    return _svg_header(title) + "<text x='320' y='200'>no data</text></svg>"
