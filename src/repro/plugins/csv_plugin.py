"""CSV input plug-in.

The CSV plug-in serves raw, comma-separated text files in place, without a
load step.  On first access it memory-maps the file and builds a positional
structural index storing the offsets of every Nth field per row (§5.2); later
accesses slice only the bytes of the fields a query needs and convert them on
the fly into the column of their declared type
(:func:`repro.core.columns.column_from_spans`: plain numbers parsed without a
Python object per value, a string field dictionary-encoded straight from its
bytes).  Converted fields — numbers and string codes alike — are prime
candidates for the adaptive caches (§6), which is how repeated CSV access
amortizes its conversion cost in the Symantec workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.columns import Column, column_from_spans, column_from_values, span_bytes
from repro.core.concurrency import make_lock
from repro.errors import PluginError
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    ScanBuffers,
    count_missing,
    malformed_as_corrupt,
    require_flat_path,
    value_range,
)
from repro.storage.catalog import Dataset, DatasetStatistics
from repro.storage.structural_index import CsvStructuralIndex, build_csv_index


@dataclass
class _CsvState:
    """Per-dataset state kept by the plug-in after the first access."""

    data: bytes
    index: CsvStructuralIndex
    header: list[str]
    build_seconds: float


def _convert_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # Exact decimal parse: a float round-trip would round integers above
        # 2**53 (e.g. "9007199254740993.0").
        from decimal import Decimal, InvalidOperation

        try:
            value = Decimal(text.strip())
        except InvalidOperation:
            return int(float(text))
        # int() truncates toward zero, preserving the old int(float(...))
        # behavior for non-integral text while staying exact above 2**53.
        return int(value)


def _convert_date(text: str) -> int:
    text = text.strip()
    if text.isdigit() or (text.startswith("-") and text[1:].isdigit()):
        return int(text)
    import datetime

    parsed = datetime.date.fromisoformat(text)
    return (parsed - datetime.date(1970, 1, 1)).days


def _missing_if_empty(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """An empty or blank (whitespace-only) field of a number or date column
    is a missing value, as an absent JSON field is — and as schema inference
    reads it."""
    return lambda text: None if not text.strip() else convert(text)


_CONVERTERS = {
    "int": _missing_if_empty(_convert_int),
    "float": _missing_if_empty(float),
    "bool": lambda s: s.strip().lower() in ("1", "true", "t", "yes"),
    "string": str,
    "date": _missing_if_empty(_convert_date),
}


class CsvPlugin(InputPlugin):
    """Input plug-in for raw CSV files."""

    format_name = "csv"

    def __init__(self, memory):
        super().__init__(memory)
        self._states: dict[str, _CsvState] = {}
        self._state_lock = make_lock("CsvPlugin._state_lock")

    # -- dataset state --------------------------------------------------------

    def _state(self, dataset: Dataset) -> _CsvState:
        # Double-checked locking: concurrent workers hitting a cold dataset
        # must not build (and race to publish) the structural index twice;
        # once published, the state is immutable and read lock-free.
        state = self._states.get(dataset.name)
        if state is not None:
            return state
        with self._state_lock:
            state = self._states.get(dataset.name)
            if state is not None:
                return state
            started = time.perf_counter()
            delimiter = dataset.options.get("delimiter", ",")
            has_header = dataset.options.get("has_header", True)
            stride = dataset.options.get("stride", 5)

            def build() -> tuple:
                # One guarded raw-I/O step: mmap faults retry (RES005 when
                # exhausted), parse failures surface as corrupt data (RES006).
                mapped = self.memory.map_file(dataset.path)
                data = bytes(mapped.data) if mapped.mapped else mapped.data
                with malformed_as_corrupt(dataset):
                    index = build_csv_index(
                        data, delimiter=delimiter, has_header=has_header, stride=stride
                    )
                return data, index

            data, index = self.io_guard("index-build", dataset.name, build)
            header = self._read_header(
                data, dataset, delimiter, has_header, index.field_count
            )
            state = _CsvState(
                data=data,
                index=index,
                header=header,
                build_seconds=time.perf_counter() - started,
            )
            self._states[dataset.name] = state
            return state

    @staticmethod
    def _read_header(
        data: bytes, dataset: Dataset, delimiter: str, has_header: bool, field_count: int
    ) -> list[str]:
        if has_header and data:
            end = data.find(b"\n")
            if end == -1:
                end = len(data)
            return data[:end].decode("utf-8").rstrip("\r").split(delimiter)
        names = dataset.options.get("column_names")
        if names:
            return list(names)
        return [f"c{i}" for i in range(field_count)]

    def invalidate(self, dataset_name: str) -> None:
        """Drop per-dataset state (used when the underlying file changes)."""
        with self._state_lock:
            self._states.pop(dataset_name, None)

    def index_info(self, dataset: Dataset) -> dict:
        """Structural-index metadata used by the benchmarks (size, build time)."""
        state = self._state(dataset)
        return {
            "size_bytes": state.index.size_bytes,
            "file_bytes": len(state.data),
            "build_seconds": state.build_seconds,
            "rows": state.index.num_rows,
        }

    # -- schema and statistics -------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        state = self._state(dataset)
        sample = min(state.index.num_rows, 100)
        fields: list[t.Field] = []
        for column, name in enumerate(state.header):
            inferred = "int"
            starts, ends = self._field_bytes(dataset, state, range(sample), column)
            for text in span_bytes(state.data, starts, ends):
                inferred = _widen(inferred, text.decode("utf-8").strip())
            fields.append(t.Field(name, t.primitive_type(inferred)))
        return t.RecordType(fields)

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        state = self._state(dataset)
        statistics = DatasetStatistics(cardinality=state.index.num_rows)
        for field in dataset.schema.fields:
            if isinstance(field.dtype, (t.RecordType, t.CollectionType)):
                continue
            try:
                values = self.scan_columns(dataset, [(field.name,)]).column((field.name,))
            except PluginError:
                continue
            statistics.null_counts[field.name] = count_missing(values)
            extent = value_range(values) if field.dtype.is_numeric() else None
            if extent is not None:
                statistics.min_values[field.name], statistics.max_values[field.name] = extent
        return statistics

    # -- bulk access -----------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        num_rows = state.index.num_rows
        buffers = ScanBuffers(count=num_rows, oids=np.arange(num_rows, dtype=np.int64))
        for path in paths:
            buffers.columns[path] = self._convert_rows(dataset, state, path, range(num_rows))
        return buffers

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._state(dataset).index.num_rows

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ):
        """Native batched scan of any row range: the positional structural
        index makes every range directly addressable (no per-row dicts), so
        disjoint ranges convert concurrently without shared state (morsel
        fan-out)."""
        state = self._state(dataset)
        stop = min(stop, state.index.num_rows)
        paths = [tuple(path) for path in paths]
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            buffers = ScanBuffers(
                count=end - begin, oids=np.arange(begin, end, dtype=np.int64)
            )
            for path in paths:
                buffers.columns[path] = self._convert_rows(
                    dataset, state, path, range(begin, end)
                )
            yield buffers

    def _field_bytes(
        self, dataset: Dataset, state: _CsvState, rows: "range | np.ndarray", column: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Byte spans of one field for the given rows; a row too short to
        hold the field is corrupt data (RES006)."""
        with malformed_as_corrupt(dataset):
            return state.index.field_spans(state.data, rows, column)

    def _convert_rows(
        self, dataset: Dataset, state: _CsvState, path: FieldPath, rows: "range | np.ndarray"
    ) -> Column:
        """Slice and convert one field for the given rows (a range or OIDs)
        into the column of its declared type: in bulk from the spans where
        they allow it, through the Volcano converter per value otherwise."""
        name = require_flat_path(path)
        column = self._column_index(state, name)
        type_name = self._field_type_name(dataset, name)
        starts, ends = self._field_bytes(dataset, state, rows, column)
        converted = column_from_spans(state.data, starts, ends, type_name)
        if converted is not None:
            return converted
        texts = map(bytes.decode, span_bytes(state.data, starts, ends))
        return column_from_values(list(map(_CONVERTERS[type_name], texts)), type_name)

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Selective (lazy) extraction: parse and convert only the given rows."""
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        rows = np.asarray(oids, dtype=np.int64)
        buffers = ScanBuffers(count=len(rows), oids=rows)
        for path in paths:
            buffers.columns[path] = self._convert_rows(dataset, state, path, rows)
        return buffers

    # -- tuple-at-a-time access --------------------------------------------------

    def iterate_rows(self, dataset: Dataset) -> Iterator[dict]:
        state = self._state(dataset)
        names = list(state.header)
        columns = [self._column_index(state, name) for name in names]
        converters = [
            _CONVERTERS[self._field_type_name(dataset, name)] for name in names
        ]
        data = state.data
        index = state.index
        with malformed_as_corrupt(dataset):
            for row in range(index.num_rows):
                record: dict[str, Any] = {}
                for name, column, converter in zip(names, columns, converters):
                    start, end = index.field_span(data, row, column)
                    record[name] = converter(data[start:end].decode("utf-8"))
                yield record

    # -- helpers -------------------------------------------------------------------

    def _column_index(self, state: _CsvState, name: str) -> int:
        try:
            return state.header.index(name)
        except ValueError as exc:
            raise PluginError(
                f"CSV file has no column {name!r}; columns: {state.header}"
            ) from exc

    @staticmethod
    def _field_type_name(dataset: Dataset, name: str) -> str:
        if dataset.schema is not None and dataset.schema.has_field(name):
            return dataset.schema.field_type(name).name
        return "string"


def _widen(current: str, text: str) -> str:
    """Widen an inferred column type to accommodate ``text``."""
    if current == "string":
        return "string"
    if text == "":
        return current
    try:
        int(text)
        return current
    except ValueError:
        pass
    try:
        float(text)
        return "float" if current in ("int", "float") else "string"
    except ValueError:
        return "string"
