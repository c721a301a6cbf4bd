"""Plain-text table rendering for experiment outputs.

Every experiment module formats its results through :func:`render_table`
so benchmark output reads like the paper's tables: a header row, aligned
columns, one line per row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ConfigurationError
from ..faults.timeline import FaultEvent


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as an aligned monospace table."""
    if not headers:
        raise ConfigurationError("a table needs at least one column")
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
    widths = [
        max(len(header), *(len(row[index]) for row in text_rows)) if text_rows else len(header)
        for index, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def key_event_lines(
    timeline: Iterable[FaultEvent],
    key_kinds: Sequence[str],
    bulk_kinds: Sequence[str] = (),
) -> list[str]:
    """A run's timeline as report lines: each ``key_kinds`` event in full,
    then one ``(N kind events)`` count per ``bulk_kinds`` kind that occurred.
    """
    lines = []
    bulk = dict.fromkeys(bulk_kinds, 0)
    for event in timeline:
        if event.kind in key_kinds:
            lines.append("  " + event.describe())
        elif event.kind in bulk:
            bulk[event.kind] += 1
    lines.extend(f"  ({count} {kind} events)" for kind, count in bulk.items() if count)
    return lines


def pct(value: float, signed: bool = True) -> str:
    """Format a fraction as a percentage string."""
    sign = "+" if signed else ""
    return f"{value * 100:{sign}.1f}%"


__all__ = ["render_table", "key_event_lines", "pct"]
