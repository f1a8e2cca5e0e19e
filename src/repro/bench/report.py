"""Table rendering shared by the paper-artifact reports."""

from __future__ import annotations

from collections.abc import Sequence


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
