"""CSV input plug-in.

The CSV plug-in serves raw, comma-separated text files in place, without a
load step.  On first access it reads the file once and builds a positional
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
from typing import Any, Callable, Iterator

import numpy as np

from repro.core import types as t
from repro.core.columns import Column, column_from_spans, column_from_values, span_bytes
from repro.errors import PluginError
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    malformed_as_corrupt,
    read_file,
    require_flat_path,
)
from repro.storage.catalog import Dataset
from repro.storage.structural_index import (
    DEFAULT_STRIDE,
    CsvStructuralIndex,
    build_csv_index,
)


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

    def _open(self, dataset: Dataset) -> _CsvState:
        started = time.perf_counter()
        delimiter = dataset.options.get("delimiter", ",")
        has_header = dataset.options.get("has_header", True)
        data = read_file(dataset.path)
        with malformed_as_corrupt(dataset):
            index = build_csv_index(
                data,
                delimiter=delimiter,
                has_header=has_header,
                stride=dataset.options.get("stride", DEFAULT_STRIDE),
            )
        header = _read_header(data, dataset, delimiter, has_header, index.field_count)
        return _CsvState(data, index, header, time.perf_counter() - started)

    def _row_count(self, state: _CsvState) -> int:
        return state.index.num_rows

    def _column(
        self, dataset: Dataset, state: _CsvState, path: FieldPath, rows: "range | np.ndarray"
    ) -> Column:
        """Slice and convert one field for the given rows (a range or OIDs)
        into the column of its declared type: in bulk from the spans where
        they allow it, through the Volcano converter per value otherwise."""
        name = require_flat_path(path)
        column = _column_index(state, name)
        type_name = _field_type_name(dataset, name)
        starts, ends = _field_bytes(dataset, state, rows, column)
        converted = column_from_spans(state.data, starts, ends, type_name)
        if converted is not None:
            return converted
        texts = map(bytes.decode, span_bytes(state.data, starts, ends))
        return column_from_values(list(map(_CONVERTERS[type_name], texts)), type_name)

    def index_info(self, dataset: Dataset) -> dict:
        """Structural-index metadata used by the benchmarks (size, build time)."""
        state = self._state(dataset)
        return {
            "size_bytes": state.index.size_bytes,
            "file_bytes": len(state.data),
            "build_seconds": state.build_seconds,
            "rows": state.index.num_rows,
        }

    # -- schema ------------------------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        state = self._state(dataset)
        sample = min(state.index.num_rows, 100)
        fields: list[t.Field] = []
        for column, name in enumerate(state.header):
            inferred = "int"
            starts, ends = _field_bytes(dataset, state, range(sample), column)
            for text in span_bytes(state.data, starts, ends):
                inferred = _widen(inferred, text.decode("utf-8").strip())
            fields.append(t.Field(name, t.primitive_type(inferred)))
        return t.RecordType(fields)

    # -- tuple-at-a-time access --------------------------------------------------

    def iterate_rows(self, dataset: Dataset) -> Iterator[dict]:
        state = self._state(dataset)
        names = list(state.header)
        columns = [_column_index(state, name) for name in names]
        converters = [
            _CONVERTERS[_field_type_name(dataset, name)] for name in names
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


def _field_bytes(
    dataset: Dataset, state: _CsvState, rows: "range | np.ndarray", column: int
) -> tuple[np.ndarray, np.ndarray]:
    """Byte spans of one field for the given rows; a row too short to
    hold the field is corrupt data (RES006)."""
    with malformed_as_corrupt(dataset):
        return state.index.field_spans(state.data, rows, column)


def _column_index(state: _CsvState, name: str) -> int:
    try:
        return state.header.index(name)
    except ValueError as exc:
        raise PluginError(
            f"CSV file has no column {name!r}; columns: {state.header}"
        ) from exc


def _field_type_name(dataset: Dataset, name: str) -> str:
    if dataset.schema is not None and dataset.schema.has_field(name):
        return dataset.schema.field_type(name).name
    return "string"
