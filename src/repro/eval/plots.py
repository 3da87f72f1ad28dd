"""Terminal line plots for the reproduced figures.

A tiny dependency-free renderer: series of (x, y) points drawn on a
character canvas with axis labels, so `examples/reproduce_paper.py`
and the CLI can show figure *shapes* (Fig. 9's growing gap, Fig. 11's
degree curve) and not just tables.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["ascii_plot"]

_MARKERS = "*o+x#@%&"

#: Canvas size in characters.
WIDTH, HEIGHT = 64, 16


def ascii_plot(
    series: Dict[str, Sequence[Tuple[float, float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (x, y) series onto a :data:`WIDTH` x :data:`HEIGHT`
    character canvas.

    >>> print(ascii_plot({"linear": [(0, 0), (1, 1)]}))
    ... # doctest: +SKIP
    """
    if not series or all(not points for points in series.values()):
        raise ValueError("nothing to plot")
    width, height = WIDTH, HEIGHT

    xs = [x for points in series.values() for x, _ in points]
    ys = [y for points in series.values() for _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    canvas = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        col = round((x - x_min) / x_span * (width - 1))
        row = height - 1 - round((y - y_min) / y_span * (height - 1))
        current = canvas[row][col]
        canvas[row][col] = marker if current in (" ", marker) else "?"

    legend = []
    for index, (name, points) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend.append(f"{marker}={name}")
        ordered = sorted(points)
        # Connect consecutive points with interpolated markers.
        for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
            steps = max(2, round(abs(x1 - x0) / x_span * (width - 1)))
            for step in range(steps + 1):
                frac = step / steps
                place(x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac, marker)
        for x, y in ordered:
            place(x, y, marker)

    lines: List[str] = []
    if title:
        lines.append(title.center(width + 10))
    top_label = f"{y_max:9.1f} |"
    bottom_label = f"{y_min:9.1f} |"
    for row_index, row in enumerate(canvas):
        if row_index == 0:
            prefix = top_label
        elif row_index == height - 1:
            prefix = bottom_label
        elif row_index == height // 2 and y_label:
            prefix = f"{y_label[:9]:>9s} |"
        else:
            prefix = " " * 9 + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * 10 + "+" + "-" * width)
    x_axis = f"{x_min:<12.0f}{x_label.center(width - 24)}{x_max:>12.0f}"
    lines.append(" " * 10 + x_axis)
    lines.append(" " * 10 + "  ".join(legend))
    return "\n".join(lines)
