"""Plain-text chart rendering for experiment reports.

The paper's figures are bar plots, line plots, scatter plots and Kiviat
(radar) charts; these helpers render the same data as terminal-friendly
text so the benchmark reports read like figures, with no plotting
dependency.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_BLOCKS = " ▏▎▍▌▋▊▉█"
_SPARKS = "▁▂▃▄▅▆▇█"


def hbar_chart(values: Mapping[str, float]) -> str:
    """Horizontal bar chart: one labelled bar per entry, 30 columns wide.

    Bars scale to the maximum value; sub-character resolution uses
    eighth-block glyphs.
    """
    if not values:
        raise ValueError("nothing to plot")
    width = 30
    vmax = max(values.values())
    label_w = max(len(k) for k in values)
    lines = []
    for key, value in values.items():
        if value < 0:
            raise ValueError("hbar_chart requires non-negative values")
        frac = value / vmax if vmax > 0 else 0.0
        eighths = int(round(frac * width * 8))
        full, rem = divmod(eighths, 8)
        bar = "█" * full + (_BLOCKS[rem] if rem else "")
        lines.append(f"{key.ljust(label_w)} | {bar.ljust(width)} {value:.2f}")
    return "\n".join(lines)


def sparkline(series: Sequence[float]) -> str:
    """One-line sparkline of a numeric series."""
    vals = [float(v) for v in series]
    if not vals:
        raise ValueError("nothing to plot")
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span == 0:
        return _SPARKS[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARKS) - 1))
        out.append(_SPARKS[idx])
    return "".join(out)


def line_chart(
    series: Mapping[str, Sequence[float]],
    title: str | None = None,
) -> str:
    """Multi-series text line chart, ten rows high (one glyph column
    per x index).

    Each series gets a distinct marker; collisions show the later
    series' marker.  The y axis is shared and linearly scaled.
    """
    if not series:
        raise ValueError("nothing to plot")
    height = 10
    markers = "ox+*#@%&"
    lengths = {len(s) for s in series.values()}
    if 0 in lengths:
        raise ValueError("empty series")
    width = max(lengths)
    all_vals = [v for s in series.values() for v in s]
    lo, hi = min(all_vals), max(all_vals)
    span = hi - lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (name, s), marker in zip(series.items(), markers):
        for x, v in enumerate(s):
            y = int((float(v) - lo) / span * (height - 1))
            grid[height - 1 - y][x] = marker
    lines = [] if title is None else [title]
    lines.append(f"{hi:10.2f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{lo:10.2f} ┤" + "".join(grid[-1]))
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), markers)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def kiviat_text(
    per_method: Mapping[str, Mapping[str, float]],
    title: str | None = None,
) -> str:
    """Kiviat values rendered as grouped bar rows per metric.

    A faithful radar plot does not survive monospace rendering; grouped
    normalized bars preserve the same reading (per metric: who is at
    1.0, who at 0.0).
    """
    if not per_method:
        raise ValueError("nothing to plot")
    metrics = list(next(iter(per_method.values())).keys())
    blocks = [] if title is None else [title]
    for metric in metrics:
        blocks.append(f"\n[{metric}]")
        blocks.append(
            hbar_chart({m: vals[metric] for m, vals in per_method.items()})
        )
    return "\n".join(blocks)
