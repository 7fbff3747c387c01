"""Hand-emitted SVG critical-difference plot, no plotting dependency.

Layout is fixed: an 800 x (60 + 24k) canvas, a horizontal rank axis from
1 to k, a CD ruler above the axis, one 24 px row per method below it
(best rank first), and a thick bar for every clique of methods whose
mean ranks differ by less than the CD. Output is a pure function of the
inputs, so repeated renders are byte-identical.
"""

from __future__ import annotations

WIDTH = 800
_MARGIN = 70
_AXIS_Y = 44
_ROW_H = 24
_FONT = "monospace"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_cd_plot(metric: str, ranks: dict[str, float], cd: float) -> str:
    """Render mean ranks plus the CD into an SVG document string."""
    k = len(ranks)
    if k < 2:
        raise ValueError("need at least 2 methods to draw a CD plot")
    height = 60 + _ROW_H * k
    axis_left = _MARGIN
    axis_right = WIDTH - _MARGIN
    span = axis_right - axis_left

    def x_of(rank: float) -> float:
        return axis_left + (rank - 1.0) / (k - 1) * span

    ordered = sorted(ranks, key=lambda name: (ranks[name], name))
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">'
    )
    parts.append('<rect width="100%" height="100%" fill="#ffffff"/>')

    # CD ruler above the axis, anchored at rank 1.
    ruler_y = _AXIS_Y - 24
    cd_px = min(cd / (k - 1) * span, span)
    parts.append(
        f'<line x1="{axis_left}" y1="{ruler_y}" x2="{axis_left + cd_px:.2f}" y2="{ruler_y}" '
        'stroke="#000000" stroke-width="1"/>'
    )
    for x in (axis_left, axis_left + cd_px):
        parts.append(
            f'<line x1="{x:.2f}" y1="{ruler_y - 4}" x2="{x:.2f}" y2="{ruler_y + 4}" '
            'stroke="#000000" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{axis_left + cd_px + 8:.2f}" y="{ruler_y + 4}" font-family="{_FONT}" '
        f'font-size="12">CD = {cd:.3f} ({_escape(metric)})</text>'
    )

    # Rank axis with integer ticks.
    parts.append(
        f'<line x1="{axis_left}" y1="{_AXIS_Y}" x2="{axis_right}" y2="{_AXIS_Y}" '
        'stroke="#000000" stroke-width="2"/>'
    )
    for tick in range(1, k + 1):
        x = x_of(float(tick))
        parts.append(
            f'<line x1="{x:.2f}" y1="{_AXIS_Y - 5}" x2="{x:.2f}" y2="{_AXIS_Y + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_AXIS_Y - 8}" text-anchor="middle" '
            f'font-family="{_FONT}" font-size="11">{tick}</text>'
        )

    # Clique bars just below the axis; overlapping bars stack greedily.
    from .stats import cliques  # loaded only where a plot is drawn

    bars = cliques(ranks, cd)
    intervals = [
        (min(ranks[m] for m in members), max(ranks[m] for m in members)) for members in bars
    ]
    levels: list[int] = []
    level_ends: list[float] = []
    for lo, hi in intervals:
        for lvl, end in enumerate(level_ends):
            if lo > end:
                levels.append(lvl)
                level_ends[lvl] = hi
                break
        else:
            levels.append(len(level_ends))
            level_ends.append(hi)
    for (lo, hi), level in zip(intervals, levels):
        y = _AXIS_Y + 6 + 5 * level
        parts.append(
            f'<line x1="{x_of(lo):.2f}" y1="{y}" x2="{x_of(hi):.2f}" y2="{y}" '
            'stroke="#000000" stroke-width="4"/>'
        )

    # One row per method: stem from its axis position down to the row,
    # label to the right of the stem.
    stem_top = _AXIS_Y + 16
    for row, name in enumerate(ordered):
        y = stem_top + 14 + _ROW_H * row
        x = x_of(ranks[name])
        parts.append(
            f'<line x1="{x:.2f}" y1="{stem_top}" x2="{x:.2f}" y2="{y - 10}" '
            'stroke="#555555" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{x:.2f}" y1="{y - 10}" x2="{x + 6:.2f}" y2="{y - 10}" '
            'stroke="#555555" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x + 10:.2f}" y="{y - 6}" font-family="{_FONT}" font-size="12">'
            f"{_escape(name)} ({ranks[name]:.2f})</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
