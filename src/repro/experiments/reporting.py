"""Small helpers for formatting experiment results as text tables."""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table", "speedup", "percent_faster"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a list of rows as a fixed-width text table."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    def _line(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[index]) for index, cell in enumerate(cells))
    lines = [_line(list(headers)), _line(["-" * width for width in widths])]
    lines.extend(_line(row) for row in materialised)
    return "\n".join(lines)


def speedup(baseline: float, improved: float) -> float:
    """Baseline JCT divided by the improved JCT (>1 means faster)."""
    if improved <= 0:
        raise ValueError("improved JCT must be positive")
    return baseline / improved


def percent_faster(baseline: float, improved: float) -> float:
    """Percentage reduction of the JCT relative to the baseline."""
    if baseline <= 0:
        raise ValueError("baseline JCT must be positive")
    return 100.0 * (baseline - improved) / baseline
