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

from typing import Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.concurrency import make_lock
from repro.core.types import python_value
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    ScanBuffers,
    count_missing,
    require_flat_path,
    value_range,
)
from repro.storage.binary_format import (
    ColumnTable,
    RowTable,
    read_column_table,
    read_row_table,
)
from repro.storage.catalog import Dataset, DatasetStatistics


class BinaryColumnPlugin(InputPlugin):
    """Input plug-in for column tables produced by
    :func:`repro.storage.binary_format.write_column_table`."""

    format_name = "binary_column"
    #: Opens the table stored at a dataset's path.
    read_table = staticmethod(read_column_table)

    def __init__(self, memory):
        super().__init__(memory)
        self._tables: dict[str, ColumnTable | RowTable] = {}
        self._table_lock = make_lock("BinaryColumnPlugin._table_lock")

    def _table(self, dataset: Dataset) -> ColumnTable | RowTable:
        # Double-checked locking: load the memory-mapped table exactly once
        # even under concurrent first access from parallel workers.
        table = self._tables.get(dataset.name)
        if table is not None:
            return table
        with self._table_lock:
            table = self._tables.get(dataset.name)
            if table is None:
                # One guarded raw-I/O step: header reads and mmaps can fault
                # transiently (retried), a bad header parses into ValueError
                # (surfaced as corrupt data).
                table = self.io_guard(
                    "table-load", dataset.name, self.read_table, dataset.path
                )
                self._tables[dataset.name] = table
            return table

    def invalidate(self, dataset_name: str) -> None:
        with self._table_lock:
            self._tables.pop(dataset_name, None)

    # -- schema and statistics -------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        return self._table(dataset).schema

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        table = self._table(dataset)
        statistics = DatasetStatistics(cardinality=table.row_count)
        for field in table.schema.fields:
            column = table.column(field.name)
            statistics.null_counts[field.name] = count_missing(column)
            extent = value_range(column) if field.dtype.is_numeric() else None
            if extent is not None:
                statistics.min_values[field.name], statistics.max_values[field.name] = extent
        return statistics

    # -- bulk access --------------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        table = self._table(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        buffers = ScanBuffers(
            count=table.row_count, oids=np.arange(table.row_count, dtype=np.int64)
        )
        for path in paths:
            buffers.columns[path] = table.column(require_flat_path(path))
        return buffers

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._table(dataset).row_count

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        table = self._table(dataset)
        arrays = {tuple(path): table.column(require_flat_path(path)) for path in paths}
        yield from self._column_batches(
            dataset, arrays, start, min(stop, table.row_count), batch_size
        )

    # -- tuple-at-a-time access -----------------------------------------------------

    def iterate_rows(self, dataset: Dataset) -> Iterator[dict]:
        table = self._table(dataset)
        names = table.schema.field_names()
        columns = [table.column(name) for name in names]
        for row in range(table.row_count):
            yield {name: python_value(column[row]) for name, column in zip(names, columns)}


class BinaryRowPlugin(BinaryColumnPlugin):
    """Input plug-in for row tables produced by
    :func:`repro.storage.binary_format.write_row_table`."""

    format_name = "binary_row"
    read_table = staticmethod(read_row_table)
