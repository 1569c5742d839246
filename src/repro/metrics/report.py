"""Plain-text tables for benchmark output.

The benchmark harness prints the same rows/series each paper figure
reports.  Cells hold numbers (simulated seconds, ratios, bytes,
fractions) and each column carries its own format, so a claim reads
the typed cell and the printed table is only a view of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Union

#: A column format: a ``str.format`` template or a callable on the cell.
Format = Union[str, Callable[[object], str]]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def speedup(baseline: float, candidate: float) -> float:
    """How many times faster ``candidate`` is than ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline time must be positive")
    if candidate <= 0:
        raise ValueError("candidate time must be positive")
    return baseline / candidate


def ms(seconds: float) -> str:
    """Simulated seconds, printed as milliseconds."""
    return f"{seconds * 1e3:.3f}"


#: A ratio printed as a speedup/slowdown factor.
TIMES = "{:.2f}x"


@dataclass
class BenchTable:
    """One reproduced table/figure: title, typed rows, column formats, notes.

    A string cell is a label and prints as is; any other cell prints
    through its column's entry in ``formats`` (``str`` when it has none).
    """

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    formats: Dict[str, Format] = field(default_factory=dict)

    def add_row(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def _text(self, header: str, cell: object) -> str:
        fmt = self.formats.get(header)
        if fmt is None or isinstance(cell, str):
            return str(cell)
        return fmt(cell) if callable(fmt) else fmt.format(cell)

    def render(self) -> str:
        shown = [[self._text(h, c) for h, c in zip(self.headers, row)] for row in self.rows]
        parts = [f"== {self.title} ==", format_table(self.headers, shown)]
        for note in self.notes:
            parts.append(f"   note: {note}")
        return "\n".join(parts)

    def column(self, header: str) -> List[object]:
        """One column's typed cells, by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def records(self) -> List[Dict[str, object]]:
        """Every row as a ``{header: cell}`` dict."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def cell(self, header: str, *key: object) -> object:
        """The ``header`` cell of the one row whose leading cells are ``key``."""
        idx = self.headers.index(header)
        hits = [row[idx] for row in self.rows if tuple(row[: len(key)]) == key]
        if len(hits) != 1:
            raise KeyError(f"{self.title}: {len(hits)} rows match {key!r}")
        return hits[0]
