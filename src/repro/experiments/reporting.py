"""Plain-text reporting: tables and series in the paper's shape.

Every experiment's ``report()`` renders through these helpers, so every
artefact prints its rows in one shape.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence


def format_value(value: object, precision: int = 2) -> str:
    """Render one cell: floats rounded, ``None``/nan as ``-``."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """An aligned ASCII table with a header rule.

    >>> print(format_table(["a", "b"], [[1, 2.5]], title="demo"))
    demo
    a  b
    -  ----
    1  2.50
    """
    rendered: List[List[str]] = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    columns: Sequence[tuple],
    precision: int = 3,
    title: Optional[str] = None,
    max_rows: Optional[int] = None,
) -> str:
    """A table of one x-column and several named y-series.

    ``columns`` is a sequence of ``(name, values)`` pairs; rows beyond
    ``max_rows`` are thinned evenly (first and last kept) to keep console
    reports readable.
    """
    indices = list(range(len(x_values)))
    if max_rows is not None and len(indices) > max_rows:
        step = (len(indices) - 1) / (max_rows - 1)
        indices = sorted({int(round(i * step)) for i in range(max_rows)})
    headers = [x_label] + [name for name, _ in columns]
    rows = []
    for i in indices:
        row: List[object] = [x_values[i]]
        for _, values in columns:
            row.append(values[i] if i < len(values) else None)
        rows.append(row)
    return format_table(headers, rows, precision=precision, title=title)
