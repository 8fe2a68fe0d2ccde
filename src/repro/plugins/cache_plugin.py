"""Cache input plug-in.

Once materialized, Proteus treats its caches as an additional input dataset
(§6): the cache plug-in exposes the binary column caches held by the caching
manager through the same plug-in API as every other format, so the rest of the
engine does not distinguish between reading a raw file and reading a cache.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.caching.manager import CacheManager
from repro.caching.matching import field_cache_key
from repro.core import types as t
from repro.core.columns import Column, EncodedColumn
from repro.core.types import python_value
from repro.errors import PluginError
from repro.plugins.base import FieldPath, InputPlugin, ScanBuffers, value_range
from repro.storage.catalog import Dataset, DatasetStatistics


class CachePlugin(InputPlugin):
    """Input plug-in over the caching manager's field caches.

    The ``dataset`` handed to this plug-in names the *source* dataset whose
    converted fields live in the cache; the plug-in serves exactly the fields
    that have been cached and refuses the rest.  The planner asks it
    (:meth:`can_serve`) whether a scan can be costed as ``access_path=
    "cache"``; execution does not route through it — the batch pipeline's
    ``ScanOperator`` consults the caching manager itself, per field, at scan
    time, so a plan pinned to the cache still answers (from the raw source)
    after its entries were evicted.
    """

    format_name = "cache"
    field_access_cost = 0.05

    def __init__(self, memory, manager: CacheManager):
        super().__init__(memory)
        self.manager = manager

    # -- availability -----------------------------------------------------------

    def cached_paths(self, dataset_name: str) -> set[FieldPath]:
        """Field paths of ``dataset_name`` currently served from the cache."""
        paths: set[FieldPath] = set()
        for entry in self.manager.entries_for_dataset(dataset_name):
            if entry.kind == "field":
                paths.add(tuple(entry.key[2]))
        return paths

    def can_serve(self, dataset_name: str, paths: Sequence[FieldPath]) -> bool:
        available = self.cached_paths(dataset_name)
        return all(tuple(path) in available for path in paths)

    # -- schema and statistics ------------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        fields = []
        for entry in self.manager.entries_for_dataset(dataset.name):
            if entry.kind != "field":
                continue
            fields.append(t.Field(".".join(entry.key[2]), _type_of(entry.data)))
        return t.RecordType(fields)

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        minimums: dict[str, float] = {}
        maximums: dict[str, float] = {}
        for entry in self.manager.entries_for_dataset(dataset.name):
            extent = value_range(entry.data) if entry.kind == "field" else None
            if extent is not None:
                name = ".".join(entry.key[2])
                minimums[name], maximums[name] = extent
        return DatasetStatistics(
            cardinality=self.scan_row_count(dataset),
            min_values=minimums,
            max_values=maximums,
        )

    # -- bulk access ------------------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        columns: dict[FieldPath, Column] = {}
        count = 0
        for path in paths:
            entry = self.manager.lookup(field_cache_key(dataset.name, tuple(path)))
            if entry is None:
                raise PluginError(
                    f"field {'.'.join(path)!r} of {dataset.name!r} is not cached"
                )
            columns[tuple(path)] = entry.data
            count = len(entry.data)
        buffers = ScanBuffers(count=count, oids=np.arange(count, dtype=np.int64))
        buffers.columns.update(columns)
        return buffers

    def scan_row_count(self, dataset: Dataset) -> int:
        return max(
            (
                len(entry.data)
                for entry in self.manager.entries_for_dataset(dataset.name)
                if entry.kind == "field"
            ),
            default=0,
        )

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        full = self.scan_columns(dataset, [tuple(path) for path in paths])
        stop = min(stop, self.scan_row_count(dataset))
        yield from self._column_batches(dataset, full.columns, start, stop, batch_size)

    # -- tuple-at-a-time access ----------------------------------------------------------

    def iterate_rows(self, dataset: Dataset) -> Iterator[dict]:
        paths = sorted(self.cached_paths(dataset.name))
        buffers = self.scan_columns(dataset, paths)
        names = [".".join(path) for path in paths]
        arrays = [buffers.column(path) for path in paths]
        for row in range(buffers.count):
            yield {name: python_value(array[row]) for name, array in zip(names, arrays)}


def _type_of(column: Column) -> t.DataType:
    """The declared type a cached column was converted to (an encoded
    column's is its dictionary's)."""
    kind = (column.values if isinstance(column, EncodedColumn) else column).dtype.kind
    if kind == "O":
        return t.STRING
    if kind == "b":
        return t.BOOL
    if kind == "i":
        return t.INT
    return t.FLOAT
