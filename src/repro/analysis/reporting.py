"""Plain-text report formatting for benchmark output.

Each benchmark regenerates the rows or series behind one of the paper's
tables or figures; these helpers render them as aligned text tables so the
numbers can be eyeballed directly in the pytest-benchmark output and are
easy to copy into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as an aligned text table with a header line."""
    materialized: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    header_cells = [str(h) for h in headers]
    widths = [len(h) for h in header_cells]
    for row in materialized:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(header_cells)),
        "  ".join("-" * widths[i] for i in range(len(header_cells))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    """Format one table cell."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
