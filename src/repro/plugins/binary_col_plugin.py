"""Binary input plug-ins.

Serve column tables ("binary column files similar to the ones of MonetDB",
§7.1) and row tables (packed structured arrays).  Both are memory-mapped and
expose ``row_count``, ``schema`` and ``column(name)``, so one class serves
both: a scan that touches K columns reads K arrays (a string column encoded
once, on read) and hands zero-copy slices of them to the batch pipeline — the
cheapest access path of the engine, which is why the cache-eviction bias
(:mod:`repro.caching.policies`) ranks binary data below CSV and JSON.  A row
table's column is a strided view of its records.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core import types as t
from repro.core.columns import Column
from repro.core.types import python_value
from repro.plugins.base import FieldPath, InputPlugin, require_flat_path
from repro.storage.binary_format import (
    ColumnTable,
    RowTable,
    read_column_table,
    read_row_table,
)
from repro.storage.catalog import Dataset


class BinaryColumnPlugin(InputPlugin):
    """Input plug-in for column tables produced by
    :func:`repro.storage.binary_format.write_column_table`."""

    format_name = "binary_column"
    open_operation = "table-load"

    def _open(self, dataset: Dataset) -> ColumnTable | RowTable:
        # Header reads and mmaps can fault transiently (retried), a bad
        # header parses into ValueError (surfaced as corrupt data).
        return read_column_table(dataset.path)

    def _row_count(self, state: ColumnTable | RowTable) -> int:
        return state.row_count

    def _column(
        self, dataset: Dataset, state: ColumnTable | RowTable, path: FieldPath,
        rows: "range | np.ndarray",
    ) -> Column:
        """A zero-copy slice of the mapped column for a row range, a gather
        for OIDs."""
        column = state.column(require_flat_path(path))
        if isinstance(rows, range):
            return column[rows.start:rows.stop]
        return column[rows]

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        return self._state(dataset).schema

    def iterate_rows(self, dataset: Dataset) -> Iterator[dict]:
        table = self._state(dataset)
        names = table.schema.field_names()
        columns = [table.column(name) for name in names]
        for row in range(table.row_count):
            yield {name: python_value(column[row]) for name, column in zip(names, columns)}


class BinaryRowPlugin(BinaryColumnPlugin):
    """Input plug-in for row tables produced by
    :func:`repro.storage.binary_format.write_row_table`."""

    format_name = "binary_row"

    def _open(self, dataset: Dataset) -> RowTable:
        return read_row_table(dataset.path)
