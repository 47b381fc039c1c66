"""Plain-text report formatting for the experiment harness.

The benchmark targets print the same rows/series the paper's figures report;
these helpers keep that output consistent (fixed-width tables, SI-ish units)
without requiring matplotlib.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 *, title: str | None = None) -> str:
    """Format rows as a fixed-width text table.

    Column widths are computed from the content; all values are converted with
    ``str``.  Used by every benchmark to print the paper-figure series.
    """
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) if i < len(widths) else cell
            for i, cell in enumerate(row)
        ))
    return "\n".join(lines)


def format_series(series: Mapping[str, Sequence[float]], x: Sequence[object],
                  *, x_label: str = "x", title: str | None = None,
                  value_format: str = "{:.6g}") -> str:
    """Format several named series sharing an x axis as a table.

    This is the textual stand-in for the paper's line plots: one row per x
    value, one column per protocol.
    """
    headers = [x_label] + list(series.keys())
    rows = []
    for i, xv in enumerate(x):
        row = [xv]
        for name in series:
            values = series[name]
            row.append(value_format.format(values[i]) if i < len(values) else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)
