"""Analysis helpers: percentiles, box-plot statistics, report tables."""

from repro.analysis.stats import BoxplotStats, boxplot_stats, mean, percentile
from repro.analysis.reporting import format_table

__all__ = [
    "BoxplotStats",
    "boxplot_stats",
    "mean",
    "percentile",
    "format_table",
]
