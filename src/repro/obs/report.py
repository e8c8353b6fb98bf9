"""Self-contained HTML run reports (inline SVG, zero dependencies).

One call stitches every observability artifact a run leaves behind —
manifest, summary metrics, the training log, the live log's snapshots
per kind, profiler output and trace analytics — into a single HTML
file with no external assets: styles are an inline ``<style>`` block,
charts are inline SVG, and the file opens offline in any browser.  ``python -m repro report DIR`` is
the CLI front-end: it renders a run directory's artifacts.

Chart discipline (kept deliberately boring so the data is the only
loud thing on the page): 2px lines, thin bars with rounded data-ends
growing from a single baseline, hairline solid gridlines, a legend
whenever two series share a plot, native SVG ``<title>`` tooltips, and
a table-view twin under every chart so no value is gated behind color
or hover.  Series colors come from a CVD-validated palette with
light/dark variants selected via ``prefers-color-scheme``.

Everything here is pure string assembly over plain dicts/lists — no
simulator imports, so reports can be rebuilt from artifacts alone.
"""

from __future__ import annotations

import math
from html import escape
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.analyze import TraceSummary
from repro.obs.jsonl import atomic_write
from repro.obs.metrics import TIMER_HIST_EDGES, Timer

#: a series is ``(label, [(x, y), ...])``; non-finite y's break the line
Series = tuple[str, Sequence[tuple[float, float]]]

# CVD-validated categorical slots (light, dark) — assigned in fixed
# order, never cycled; charts here use at most three series.
_SLOT_VARS = ("--series-1", "--series-2", "--series-3")

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  background: var(--plane); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  --plane: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b;
  --ink-2: #52514e; --muted: #898781; --grid: #e1e0d9;
  --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  body {
    --plane: #0d0d0d; --surface: #1a1a19; --ink: #ffffff;
    --ink-2: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
    --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
main { max-width: 1080px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 32px 0 12px; color: var(--ink); }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.grid { display: grid; gap: 16px;
        grid-template-columns: repeat(auto-fit, minmax(320px, 1fr)); }
.card { background: var(--surface); border: 1px solid var(--border);
        border-radius: 8px; padding: 16px; min-width: 0; }
.card h3 { font-size: 13px; font-weight: 600; margin: 0 0 8px;
           color: var(--ink-2); }
.tiles { display: grid; gap: 16px;
         grid-template-columns: repeat(auto-fit, minmax(150px, 1fr)); }
.tile .label { font-size: 12px; color: var(--ink-2); }
.tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 8px 0 0;
          font-size: 12px; color: var(--ink-2); }
.legend .dot { display: inline-block; width: 8px; height: 8px;
               border-radius: 50%; margin-right: 5px; }
svg { display: block; width: 100%; height: auto; }
svg text { font: 11px system-ui, sans-serif;
           font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%; font-size: 12px;
        font-variant-numeric: tabular-nums; }
th, td { text-align: right; padding: 3px 8px;
         border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child { text-align: left; }
th { color: var(--ink-2); font-weight: 600; }
details { margin-top: 8px; }
summary { cursor: pointer; font-size: 12px; color: var(--muted); }
.anomaly { color: #d03b3b; font-weight: 600; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
"""

# -- small helpers -------------------------------------------------------------

def _fmt(value: Any) -> str:
    """Compact human formatting for table cells and labels."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return escape(str(value))
    if isinstance(value, int):
        return f"{value:,}"
    if not math.isfinite(value):
        return str(value)
    if value != 0 and abs(value) < 1e-3:
        return f"{value:.2e}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round tick positions covering ``[lo, hi]`` (1-2-5 stepping)."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(1, n)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks or [lo]


# plot geometry shared by every chart (px)
_W, _H = 640, 240
_ML, _MR, _MT, _MB = 56, 14, 10, 26


def _scale(lo: float, hi: float, a: float, b: float) -> Callable[[float], float]:
    span = hi - lo
    if span <= 0:
        span = 1.0
    return lambda v: a + (v - lo) / span * (b - a)


def _frame(
    xticks: Sequence[float], yticks: Sequence[float],
    sx: Callable[[float], float], sy: Callable[[float], float],
    x_fmt: Callable[[float], str],
) -> list[str]:
    """Hairline gridlines, baseline and tick labels (recessive chrome)."""
    parts = []
    for t in yticks:
        y = sy(t)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 3.5:.1f}" text-anchor="end" '
            f'fill="var(--muted)">{escape(_fmt(t))}</text>'
        )
    base = _H - _MB
    parts.append(
        f'<line x1="{_ML}" y1="{base}" x2="{_W - _MR}" y2="{base}" '
        'stroke="var(--axis)" stroke-width="1"/>'
    )
    for t in xticks:
        x = sx(t)
        parts.append(
            f'<text x="{x:.1f}" y="{base + 16}" text-anchor="middle" '
            f'fill="var(--muted)">{escape(x_fmt(t))}</text>'
        )
    return parts


def _finite_points(
    points: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    return [
        (float(x), float(y))
        for x, y in points
        if math.isfinite(float(x)) and math.isfinite(float(y))
    ]


def svg_line_chart(
    series: Sequence[Series],
    x_fmt: Callable[[float], str] | None = None,
    step: bool = False,
) -> str:
    """A one-axis line (or step) chart over up to three series.

    Non-finite points break the line; series with no finite points are
    dropped.  Each data point carries an oversized transparent hit
    circle with a native ``<title>`` tooltip.  Returns ``""`` when
    nothing is plottable (callers then skip the card entirely).
    """
    x_fmt = x_fmt or _fmt
    plotted = [
        (label, pts)
        for label, pts in ((lbl, _finite_points(p)) for lbl, p in series)
        if pts
    ][: len(_SLOT_VARS)]
    if not plotted:
        return ""
    xs = [x for _, pts in plotted for x, _ in pts]
    ys = [y for _, pts in plotted for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    # anchor the y baseline at 0 for non-negative data
    y_lo = 0.0 if min(ys) >= 0 else min(ys)
    y_hi = max(ys)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    yticks = _nice_ticks(y_lo, y_hi, 4)
    y_lo, y_hi = min(y_lo, yticks[0]), max(y_hi, yticks[-1])
    xticks = _nice_ticks(x_lo, x_hi, 6)
    sx = _scale(x_lo, x_hi, _ML, _W - _MR)
    sy = _scale(y_lo, y_hi, _H - _MB, _MT)
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    parts += _frame(xticks, yticks, sx, sy, x_fmt)
    for i, (label, pts) in enumerate(plotted):
        color = f"var({_SLOT_VARS[i]})"
        coords = [(sx(x), sy(y)) for x, y in pts]
        if step and len(coords) > 1:
            d = f"M{coords[0][0]:.1f},{coords[0][1]:.1f}"
            for (x0, y0), (x1, y1) in zip(coords, coords[1:]):
                d += f"H{x1:.1f}V{y1:.1f}"
            parts.append(
                f'<path d="{d}" fill="none" stroke="{color}" '
                'stroke-width="2" stroke-linejoin="round" '
                'stroke-linecap="round"/>'
            )
        elif len(coords) > 1:
            d = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            parts.append(
                f'<polyline points="{d}" fill="none" stroke="{color}" '
                'stroke-width="2" stroke-linejoin="round" '
                'stroke-linecap="round"/>'
            )
        # end marker with a 2px surface ring
        ex, ey = coords[-1]
        parts.append(
            f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" fill="{color}" '
            'stroke="var(--surface)" stroke-width="2"/>'
        )
        hover = coords if len(coords) <= 200 else coords[:: len(coords) // 200 + 1]
        hov_pts = pts if len(coords) <= 200 else pts[:: len(pts) // 200 + 1]
        for (cx, cy), (x, y) in zip(hover, hov_pts):
            tip = f"{label} @ {x_fmt(x)}: {_fmt(y)}"
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="10" '
                f'fill="transparent"><title>{escape(tip)}</title></circle>'
            )
    parts.append("</svg>")
    return "".join(parts)


def svg_histogram(timer: Timer, x_fmt: Callable[[float], str] | None = None) -> str:
    """Vertical bars for the occupied bins of one :class:`~repro.obs.metrics.Timer`.

    The bars run from the first to the last non-empty bin.  Single-series:
    bars in slot 1 with rounded data-ends, square at the baseline, a 2px
    surface gap between neighbours.  Bin ranges and counts ride native
    tooltips (and the caller's table twin)."""
    x_fmt = x_fmt or _fmt
    occupied = [i for i, count in enumerate(timer.bins) if count]
    if not occupied:
        return ""
    lo, hi = occupied[0], occupied[-1] + 1
    counts = timer.bins[lo:hi]
    # bin i spans edges[i] .. edges[i + 1]: underflow from 0, overflow to inf
    edges = ((0.0,) + TIMER_HIST_EDGES + (math.inf,))[lo:hi + 1]
    n_bins = len(counts)
    top = max(counts)
    yticks = [t for t in _nice_ticks(0, top, 4) if t == int(t)]
    y_hi = max(float(top), yticks[-1] if yticks else 1.0)
    sy = _scale(0.0, y_hi, _H - _MB, _MT)
    slot_w = (_W - _ML - _MR) / n_bins
    bar_w = min(24.0, max(1.0, slot_w - 2.0))
    base = _H - _MB
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    for t in yticks:
        y = sy(t)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            'stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{_ML - 6}" y="{y + 3.5:.1f}" text-anchor="end" '
            f'fill="var(--muted)">{int(t)}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{base}" x2="{_W - _MR}" y2="{base}" '
        'stroke="var(--axis)" stroke-width="1"/>'
    )
    for i, count in enumerate(counts):
        x = _ML + i * slot_w + (slot_w - bar_w) / 2
        tip = f"{x_fmt(edges[i])} – {x_fmt(edges[i + 1])}: {count}"
        if count > 0:
            y = sy(float(count))
            h = base - y
            r = min(4.0, bar_w / 2, h)
            parts.append(
                f'<path d="M{x:.1f},{base:.1f} V{y + r:.1f} '
                f'Q{x:.1f},{y:.1f} {x + r:.1f},{y:.1f} '
                f'H{x + bar_w - r:.1f} '
                f'Q{x + bar_w:.1f},{y:.1f} {x + bar_w:.1f},{y + r:.1f} '
                f'V{base:.1f} Z" fill="var(--series-1)"/>'
            )
        parts.append(
            f'<rect x="{_ML + i * slot_w:.1f}" y="{_MT}" '
            f'width="{slot_w:.1f}" height="{base - _MT}" fill="transparent">'
            f"<title>{escape(tip)}</title></rect>"
        )
    for frac in (0.0, 0.5, 1.0):
        i = frac * n_bins
        x = _ML + i * slot_w
        edge = edges[int(round(i))]
        anchor = "start" if frac == 0.0 else "end" if frac == 1.0 else "middle"
        parts.append(
            f'<text x="{x:.1f}" y="{base + 16}" text-anchor="{anchor}" '
            f'fill="var(--muted)">{escape(x_fmt(edge))}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def svg_hbar(rows: Sequence[tuple[str, float]], value_fmt: Callable[[float], str] | None = None) -> str:
    """Horizontal single-series bars (profiler hot paths).

    One row per ``(label, value)``: name in ink on the left, a thin
    rounded-end bar, the value labelled at the tip in a text token."""
    value_fmt = value_fmt or _fmt
    rows = [(label, float(v)) for label, v in rows if math.isfinite(float(v))]
    if not rows:
        return ""
    top = max((v for _, v in rows), default=0.0)
    if top <= 0:
        top = 1.0
    row_h, gap = 24, 8
    label_w, value_w = 180, 70
    height = _MT + len(rows) * (row_h + gap)
    x0 = label_w
    x_max = _W - value_w
    parts = [
        f'<svg viewBox="0 0 {_W} {height}" role="img" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, (label, value) in enumerate(rows):
        y = _MT + i * (row_h + gap)
        bar_h = 16.0
        by = y + (row_h - bar_h) / 2
        w = max(0.0, (value / top) * (x_max - x0))
        r = min(4.0, bar_h / 2, w)
        parts.append(
            f'<text x="{x0 - 8}" y="{by + bar_h - 4:.1f}" text-anchor="end" '
            f'fill="var(--ink-2)">{escape(label[:28])}</text>'
        )
        if w > 0:
            parts.append(
                f'<path d="M{x0},{by:.1f} H{x0 + w - r:.1f} '
                f'Q{x0 + w:.1f},{by:.1f} {x0 + w:.1f},{by + r:.1f} '
                f'V{by + bar_h - r:.1f} '
                f'Q{x0 + w:.1f},{by + bar_h:.1f} {x0 + w - r:.1f},{by + bar_h:.1f} '
                f'H{x0} Z" fill="var(--series-1)">'
                f"<title>{escape(f'{label}: {value_fmt(value)}')}</title></path>"
            )
        parts.append(
            f'<text x="{x0 + w + 8:.1f}" y="{by + bar_h - 4:.1f}" '
            f'fill="var(--ink-2)">{escape(value_fmt(value))}</text>'
        )
    parts.append(
        f'<line x1="{x0}" y1="{_MT - 4}" x2="{x0}" '
        f'y2="{height - gap + 4}" stroke="var(--axis)" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


# -- HTML assembly -------------------------------------------------------------

def _legend(labels: Sequence[str]) -> str:
    if len(labels) < 2:
        return ""
    items = "".join(
        f'<span><span class="dot" style="background:var({_SLOT_VARS[i]})">'
        f"</span>{escape(label)}</span>"
        for i, label in enumerate(labels[: len(_SLOT_VARS)])
    )
    return f'<div class="legend">{items}</div>'


def _table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    head = "".join(f"<th>{escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_fmt(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _card(title: str, svg: str, legend: str = "", table: str = "") -> str:
    if not svg and not table:
        return ""
    twin = f"<details><summary>Table view</summary>{table}</details>" \
        if (svg and table) else table
    return (
        f'<div class="card"><h3>{escape(title)}</h3>{svg}{legend}{twin}</div>'
    )


def _tile(label: str, value: Any) -> str:
    return (
        f'<div class="card tile"><div class="label">{escape(label)}</div>'
        f'<div class="value">{_fmt(value)}</div></div>'
    )


def _section(title: str, inner: str) -> str:
    return f"<h2>{escape(title)}</h2>{inner}" if inner else ""


def _seconds_fmt(v: float) -> str:
    if abs(v) >= 3600:
        return f"{v / 3600:.3g}h"
    if abs(v) >= 60:
        return f"{v / 60:.3g}m"
    if abs(v) >= 1:
        return f"{v:.3g}s"
    return f"{1e3 * v:.3g}ms"


def _summary_tiles(manifest: Mapping[str, Any] | None) -> str:
    """Headline tiles: the run's scheduler (its policy, or its agent's
    :data:`~repro.core.AGENTS` kind), seed and node count from a
    :class:`~repro.obs.manifest.RunManifest` document, then the metrics
    of its ``summary``."""
    tiles = []
    metrics = None
    if manifest:
        config = manifest.get("config") or {}
        for label, source, key in (("policy", config, "policy"),
                                   ("agent", config, "agent"),
                                   ("seed", manifest, "seed"),
                                   ("nodes", config, "nodes")):
            if source.get(key) is not None:
                tiles.append(_tile(label, source[key]))
        metrics = manifest.get("summary")
    if metrics:
        for key, label in (
            ("num_jobs", "jobs finished"),
            ("avg_wait", "avg wait (s)"),
            ("avg_slowdown", "avg slowdown"),
            ("utilization", "utilization"),
            ("makespan", "makespan (s)"),
        ):
            if key in metrics:
                tiles.append(_tile(label, metrics[key]))
    return f'<div class="tiles">{"".join(tiles)}</div>' if tiles else ""


def _telemetry_section(episodes: Sequence[Mapping[str, Any]]) -> str:
    if not episodes:
        return ""

    def pts(key: str) -> list[tuple[float, float]]:
        return [
            (float(r.get("episode", i)), float(r[key]))
            for i, r in enumerate(episodes)
            if isinstance(r.get(key), (int, float))
        ]

    cards = [
        _card(
            "Reward per episode",
            svg_line_chart(
                [("train", pts("train_reward")),
                 ("validation", pts("validation_reward"))]
            ),
            legend=_legend(["train", "validation"]),
            table=_table(
                ["episode", "phase", "train", "validation", "anomalies"],
                [
                    (r.get("episode"), r.get("phase"), r.get("train_reward"),
                     r.get("validation_reward"),
                     ", ".join(r.get("anomalies", [])) or "—")
                    for r in episodes
                ],
            ),
        ),
        _card("Loss", svg_line_chart([("loss", pts("loss"))]),
              table=_table(["episode", "loss"], pts("loss"))),
        _card("Gradient norm",
              svg_line_chart([("grad_norm", pts("grad_norm"))]),
              table=_table(["episode", "grad norm"], pts("grad_norm"))),
        _card("Policy entropy / epsilon",
              svg_line_chart([("entropy", pts("entropy")),
                              ("epsilon", pts("epsilon"))]),
              legend=_legend(
                  [k for k in ("entropy", "epsilon") if pts(k)]),
              table=_table(["episode", "entropy"], pts("entropy"))),
        _card("Cluster utilization per episode",
              svg_line_chart([("utilization", pts("utilization"))]),
              table=_table(["episode", "utilization"], pts("utilization"))),
        _card("Queue depth (max per episode)",
              svg_line_chart([("max depth", pts("queue_depth_max"))],
                             step=True),
              table=_table(["episode", "max depth"],
                           pts("queue_depth_max"))),
    ]
    flagged = [r for r in episodes if r.get("anomalies")]
    banner = ""
    if flagged:
        items = "; ".join(
            f"episode {r.get('episode')}: {', '.join(r['anomalies'])}"
            for r in flagged[:8]
        )
        banner = (
            f'<p class="sub"><span class="anomaly">⚠ '
            f"{len(flagged)} flagged episode(s)</span> — {escape(items)}</p>"
        )
    return banner + f'<div class="grid">{"".join(c for c in cards if c)}</div>'


def _flat_card(title: str, profile: Mapping[str, Any]) -> str:
    """Hot-path bars plus the flat table of a profiler ``as_dict()``."""
    rows = [
        (e.get("name", "?"), e.get("calls", 0), e.get("cum_s", 0.0),
         e.get("self_s", 0.0), 1e3 * float(e.get("mean_s", 0.0)))
        for e in profile.get("flat") or []
        if isinstance(e, Mapping)
    ]
    if not rows:
        return ""
    chart = svg_hbar(
        [(str(name), float(self_s)) for name, _, _, self_s, _ in rows[:8]],
        value_fmt=_seconds_fmt,
    )
    return _card(title, chart, table=_table(
        ["scope", "calls", "cum s", "self s", "mean ms"], rows))


def _trace_section(summary: TraceSummary) -> str:
    cards = [_flat_card("Span time (self seconds)",
                        summary.profile.as_dict())]
    hist = summary.decision_histogram
    if hist.count:
        cards.append(_card(
            "Scheduler decision latency",
            svg_histogram(hist, x_fmt=_seconds_fmt),
            table=_table(
                ["stat", "value"],
                [("n", hist.count), ("mean", _seconds_fmt(hist.mean))]
                + [(stat, _seconds_fmt(summary.decision_latency(q)))
                   for stat, q in (("p50", 0.50), ("p90", 0.90),
                                   ("p99", 0.99), ("max", 1.0))],
            ),
        ))
    if len(summary.timeline) > 1:
        cards.append(_card(
            "Busy nodes over simulated time",
            svg_line_chart(
                [("busy nodes", summary.timeline)],
                step=True, x_fmt=_seconds_fmt,
            ),
            table=_table(
                ["stat", "value"],
                [("peak busy nodes", summary.peak_busy_nodes),
                 ("occupancy changes", len(summary.timeline))],
            ),
        ))
    if summary.event_counts:
        cards.append(_card("Events by name", "", table=_table(
            ["event", "count"], summary.event_counts.items())))
    rows: list[tuple[str, Any]] = [
        ("records", summary.n_records), ("spans", summary.n_spans),
        ("unclosed spans", summary.n_unclosed), ("events", summary.n_events)]
    if summary.sim_time_span is not None:
        t0, t1 = summary.sim_time_span
        rows.append(("simulated span", f"{t0:,.0f} .. {t1:,.0f} s "
                                       f"({(t1 - t0) / 3600:,.2f} h)"))
    cards.append(_card("Trace file", "", table=_table(["stat", "value"],
                                                      rows)))
    return f'<div class="grid">{"".join(cards)}</div>'


def _live_section(log: Mapping[str, Any]) -> str:
    """One card from :func:`~repro.obs.live.read_log`: per snapshot
    kind its count, sources, last ``done``/``total`` and the min/max of
    each numeric field, and the log's skipped lines."""
    kinds = log["kinds"]
    table = _table(
        ["kind", "snapshots", "sources", "done", "total"],
        [(kind, b["snapshots"], ", ".join(b["sources"]),
          b["last"].get("done", "—"), b["last"].get("total", "—"))
         for kind, b in kinds.items()])
    fields = _table(
        ["kind", "field", "min", "max"],
        [(kind, name, stats["min"], stats["max"])
         for kind, b in kinds.items() for name, stats in b["fields"].items()])
    return (
        '<div class="grid"><div class="card">'
        f'<h3>Snapshots per kind ({_fmt(log["skipped"])} skipped line(s))'
        f"</h3>{table}<details><summary>Field min / max</summary>{fields}"
        "</details></div></div>"
    )


def _profile_section(profile: Mapping[str, Any]) -> str:
    card = _flat_card("Profiler hot paths (self seconds)", profile)
    return f'<div class="grid">{card}</div>' if card else ""


def _manifest_section(manifest: Mapping[str, Any]) -> str:
    def flat(value: Any, prefix: str, out: list[tuple[str, Any]]) -> None:
        if isinstance(value, Mapping):
            for key in sorted(value):
                flat(value[key], f"{prefix}.{key}" if prefix else str(key), out)
        elif isinstance(value, (list, tuple)):
            out.append((prefix, ", ".join(str(v) for v in value)))
        else:
            out.append((prefix, value))

    rows: list[tuple[str, Any]] = []
    flat(dict(manifest), "", rows)
    return (
        '<div class="grid"><div class="card"><h3>Run manifest</h3>'
        + _table(["field", "value"], rows)
        + "</div></div>"
    )


def render_report(
    title: str = "repro run report",
    manifest: Mapping[str, Any] | None = None,
    telemetry: Sequence[Mapping[str, Any]] | None = None,
    log: Mapping[str, Any] | None = None,
    trace: TraceSummary | None = None,
    profile: Mapping[str, Any] | None = None,
) -> str:
    """Assemble the self-contained HTML report from plain artifacts.

    Every argument is optional; sections for absent artifacts are
    omitted entirely.  ``telemetry`` takes the ``kind="train"``
    records of a training log (:class:`~repro.rl.trainer.Trainer`),
    ``log`` a :func:`~repro.obs.live.read_log` summary, ``trace`` a
    :class:`~repro.obs.analyze.TraceSummary`, ``profile`` a profiler
    ``as_dict()`` document.
    Returns the full HTML text (write with :func:`write_report`).
    """
    digest = ""
    if manifest and manifest.get("schema"):
        digest = f'schema {manifest["schema"]}'
    sections = [
        _summary_tiles(manifest),
        _section("Training telemetry",
                 _telemetry_section(list(telemetry or []))),
        _section("Live log", _live_section(log) if log else ""),
        _section("Trace analytics",
                 _trace_section(trace) if trace is not None else ""),
        _section("Profile", _profile_section(profile) if profile else ""),
        _section("Manifest",
                 _manifest_section(manifest) if manifest else ""),
    ]
    body = "".join(s for s in sections if s)
    if not body:
        body = '<p class="sub">No artifacts were provided.</p>'
    return (
        "<!doctype html>\n<html lang=\"en\">\n<head>\n"
        '<meta charset="utf-8"/>\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1"/>\n'
        f"<title>{escape(title)}</title>\n<style>{_CSS}</style>\n"
        "</head>\n<body>\n<main>\n"
        f"<h1>{escape(title)}</h1>\n"
        f'<p class="sub">{escape(digest)}</p>\n'
        f"{body}\n</main>\n</body>\n</html>\n"
    )


def write_report(path: str | Path, **kwargs: Any) -> Path:
    """Render and write the report; returns the output path.

    ``kwargs`` are :func:`render_report`'s: ``log`` and ``telemetry``
    come from one :func:`~repro.obs.live.read_log` of a run's
    ``log.jsonl`` (its summary and its ``train`` records).  The write
    is atomic (:func:`~repro.obs.jsonl.atomic_write`).
    """
    with atomic_write(path) as fh:
        fh.write(render_report(**kwargs))
    return Path(path)
