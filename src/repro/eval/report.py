"""Plain-text report formatting for the experiment harness.

Every experiment — a paper figure, a CLI scenario, an ablation —
produces rows of ``{column: value}``; :func:`format_rows` turns them
into the aligned table that is printed and recorded under
``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_rows", "format_header"]


def format_header(title: str, width: int = 72) -> str:
    """A boxed section header."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


def format_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table.

    Floats are shown with two decimals; everything else via ``str``.
    """
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:,.2f}"
        return str(value)

    rendered = [[fmt(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: list[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(columns)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered)
    return "\n".join(parts)


def format_rows(title: str, rows: Sequence[dict]) -> str:
    """Rows of ``{column: value}`` as one titled table: the first row's
    keys are the header, so a value has one name."""
    columns = list(rows[0]) if rows else []
    return format_table(columns, [list(r.values()) for r in rows], title=title)
