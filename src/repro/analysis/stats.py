"""Statistical helpers used by experiments and benchmarks.

The paper reports results as percentiles, box plots (1st/25th/50th/75th/
99th percentiles plus maximum, as in Figure 3 and Figure 18), and averages.
These helpers compute exactly those summaries from raw samples without
pulling in plotting dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


def mean(samples: Sequence[float]) -> float:
    """Return the arithmetic mean (0.0 for an empty sequence)."""
    data = list(samples)
    if not data:
        return 0.0
    return sum(data) / len(data)


def percentile(samples: Sequence[float], q: float) -> float:
    """Return the q-th percentile (linear interpolation, q in [0, 100])."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be between 0 and 100")
    data = sorted(samples)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    value = data[low] * (1.0 - fraction) + data[high] * fraction
    # Float rounding can land a hair outside the interpolated bracket
    # (e.g. with subnormal inputs); clamp so the result is always within
    # the neighbouring samples.
    lo, hi = min(data[low], data[high]), max(data[low], data[high])
    return min(max(value, lo), hi)


@dataclass
class BoxplotStats:
    """The box-plot summary the paper uses (Figures 3 and 18)."""

    p1: float
    p25: float
    p50: float
    p75: float
    p99: float
    maximum: float
    count: int

    def as_row(self) -> Tuple[float, float, float, float, float, float]:
        """Return the summary as a tuple in percentile order."""
        return (self.p1, self.p25, self.p50, self.p75, self.p99, self.maximum)


def boxplot_stats(samples: Sequence[float]) -> BoxplotStats:
    """Compute the 1/25/50/75/99th percentiles and the maximum."""
    data = list(samples)
    maximum = max(data) if data else 0.0
    return BoxplotStats(
        p1=percentile(data, 1),
        p25=percentile(data, 25),
        p50=percentile(data, 50),
        p75=percentile(data, 75),
        p99=percentile(data, 99),
        maximum=maximum,
        count=len(data),
    )
