"""Observer logs kept as columns and read as rows.

An observer that records one row per simulated event (an op, a wait, a
counter sample, a settle epoch) keeps the row's numbers in
``array('d')`` / ``array('q')`` columns and its strings and keys as
references to one shared object each, not as a dict or tuple of its
own.  A :class:`RowView` rebuilds row ``i`` on demand, so readers index,
iterate and compare the log like the list it replaces while the log
holds tens of bytes a row instead of hundreds.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence


class RowView(Sequence):
    """A read-only sequence of rows rebuilt from columns.

    Subclasses define ``__len__`` and ``_row(i)`` (``0 <= i < len``).
    Equal to any list, tuple or view holding the same rows in order.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("row index out of range")
        return self._row(index)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (RowView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class FloatRows(RowView):
    """Fixed-width rows of floats in one flat ``array('d')``.

    Row ``i`` is the tuple ``data[i * width:(i + 1) * width]``; a sampler
    that wants the newest row's fields reads ``data[-width:]`` entries
    without building it.
    """

    __slots__ = ("width", "data")

    def __init__(self, width: int):
        self.width = width
        self.data = array("d")

    def __len__(self) -> int:
        return len(self.data) // self.width

    def _row(self, i: int) -> tuple:
        w = self.width
        return tuple(self.data[i * w:(i + 1) * w])

    def append(self, row) -> None:
        if len(row) != self.width:
            raise ValueError(f"expected {self.width} fields, got {len(row)}")
        self.data.extend(row)

    def column(self, j: int) -> array:
        """Field ``j`` of every row, in row order."""
        return self.data[j::self.width]
