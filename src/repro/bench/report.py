"""What every bench report shares: percentiles, JSON output, tables."""

from __future__ import annotations

import json
from collections.abc import Sequence


def percentile(latencies: list[float], fraction: float) -> float:
    """The sample at ``fraction`` of the sorted latencies (no
    interpolation; nearest rank)."""
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def write_report(report: dict, path: str) -> None:
    """Write a bench report as stable (sorted, indented) JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[i]) for row in cells) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_relative(value: float) -> str:
    """The paper's 'relative runtime' cell format (e.g. '1.00x')."""
    return f"{value:.2f}x"


def format_speedup(value: float | None) -> str:
    """Table I cell format: a speedup or '-' when inapplicable."""
    if value is None:
        return "-"
    return f"{value:.2f}x"
