"""Cross-run analysis: metric normalization, Kiviat values, tables."""

from repro.analysis.comparison import (
    MethodResult,
    evaluate_method,
    kiviat_area,
    kiviat_normalize,
)
from repro.analysis.gantt import render_gantt
from repro.analysis.plots import hbar_chart, kiviat_text, line_chart, sparkline
from repro.analysis.significance import (
    BootstrapCI,
    bootstrap_mean,
    bootstrap_mean_difference,
    compare_wait_times,
)
from repro.analysis.tables import format_table

__all__ = [
    "BootstrapCI",
    "MethodResult",
    "bootstrap_mean",
    "bootstrap_mean_difference",
    "compare_wait_times",
    "evaluate_method",
    "format_table",
    "hbar_chart",
    "kiviat_area",
    "kiviat_normalize",
    "kiviat_text",
    "line_chart",
    "render_gantt",
    "sparkline",
]
