"""Estimators shared by the end-to-end run and the trace report.

Three small pure functions, each checked against hand-computed arrays in
``test_selftest.py``:

* :func:`percentile` -- linear interpolation between closest ranks.
* :func:`slice_quartile` -- cut a window into equal slices by sample time,
  take the percentile of every slice, report the first quartile over
  slices.  On a shared two-core host a neighbour's burst only ever adds
  latency, for a second or two at a time: a pooled tail percentile follows
  the slices it hit, the lower quartile over slices reads the quiet ones.
* :func:`self_times` -- a span's duration minus the part of it that its
  child spans cover (children may overlap each other).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """Return the ``pct``-th percentile of ``values`` (linear interpolation).

    Raises:
        ValueError: ``values`` is empty.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def slice_quartile(
    samples: Iterable[Tuple[float, float]],
    start: float,
    length: float,
    slices: int,
    pct: float,
) -> Tuple[float, List[int]]:
    """First quartile over equal time slices of each slice's ``pct``-th percentile.

    Args:
        samples: ``(time, value)`` pairs; pairs outside
            ``[start, start + length)`` are ignored.
        start: Window start, in the samples' time base.
        length: Window length.
        slices: Number of equal slices the window is cut into.
        pct: Percentile taken inside every slice.

    Returns:
        ``(estimate, samples_per_slice)``.

    Raises:
        ValueError: a slice holds no sample.
    """
    buckets: List[List[float]] = [[] for _ in range(slices)]
    width = length / slices
    for when, value in samples:
        index = int((when - start) // width)
        if 0 <= index < slices:
            buckets[index].append(value)
    counts = [len(bucket) for bucket in buckets]
    if not all(counts):
        raise ValueError(f"empty slice (samples per slice: {counts})")
    return percentile([percentile(b, pct) for b in buckets], 25), counts


def self_times(
    spans: Sequence[Tuple[int, int, float, float]]
) -> Dict[int, float]:
    """Self time per span: duration minus the union of its children.

    Args:
        spans: ``(span_id, parent_id, start, end)``; ``parent_id`` 0 (or an
            id that is not in ``spans``) marks a root.

    Returns:
        ``span_id -> seconds``.  Children are clipped to the parent's
        interval and overlapping children are counted once.
    """
    bounds = {span_id: (start, end) for span_id, _parent, start, end in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span_id, parent, start, end in spans:
        if parent in bounds:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span_id, (start, end) in bounds.items():
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result
