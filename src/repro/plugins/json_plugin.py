"""JSON input plug-in.

The JSON plug-in queries raw JSON object streams (one object per line, or
whitespace-separated) in place.  On the first access it validates the file and
builds the structural index of §5.2 in whole-block bitmap passes: per field
path, a column over all objects of the value's position, length and type.
The paper's Level 0 (path -> entry per object, for schema flexibility) and
its fixed-schema specialization are both subsumed — any field order is one
column lookup.

Scans gather the spans of the fields a query needs — nested paths included —
from those columns and convert them to binary values in bulk per type: a
string field is dictionary-encoded from its bytes (only escaped values go
through ``json.loads`` first), a field holding other values too keeps one
Python object per value.  Nested arrays are flattened for the batch
pipeline's unnest stage by :meth:`JsonPlugin.scan_unnest_batch`, which
parses only the array spans.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.concurrency import make_lock
from repro.core.strings import StringColumn, encode_spans
from repro.errors import PluginError
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    ScanBuffers,
    UnnestBatch,
    count_missing,
    dig_path as _dig,
    malformed_as_corrupt,
    parse_decimals,
    span_bytes,
)
from repro.storage.catalog import Dataset, DatasetStatistics
from repro.storage.structural_index import (
    JsonStructuralIndex,
    TYPE_ARRAY,
    TYPE_BOOL,
    TYPE_MISSING,
    TYPE_NULL,
    TYPE_NUMBER,
    TYPE_STRING,
    build_json_index,
)


@dataclass
class _JsonState:
    """Per-dataset state kept after the first (validating) access."""

    data: bytes
    index: JsonStructuralIndex
    build_seconds: float


class JsonPlugin(InputPlugin):
    """Input plug-in for raw JSON object streams."""

    format_name = "json"
    field_access_cost = 2.5

    def __init__(self, memory):
        super().__init__(memory)
        self._states: dict[str, _JsonState] = {}
        self._state_lock = make_lock("JsonPlugin._state_lock")

    # -- dataset state ---------------------------------------------------------

    def _state(self, dataset: Dataset) -> _JsonState:
        # Double-checked locking: the structural index must be built exactly
        # once even when parallel workers hit a cold dataset concurrently;
        # after publication the state is immutable and read lock-free.
        state = self._states.get(dataset.name)
        if state is not None:
            return state
        with self._state_lock:
            state = self._states.get(dataset.name)
            if state is not None:
                return state
            started = time.perf_counter()

            def build() -> tuple:
                # One guarded raw-I/O step: the mmap (where a transient
                # OSError can surface) plus the structural-index parse
                # (where malformed bytes surface as RES006).
                mapped = self.memory.map_file(dataset.path)
                data = bytes(mapped.data) if mapped.mapped else mapped.data
                with malformed_as_corrupt(dataset):
                    index = build_json_index(
                        data, max_depth=dataset.options.get("max_depth", 8)
                    )
                return data, index

            data, index = self.io_guard("index-build", dataset.name, build)
            state = _JsonState(
                data=data, index=index, build_seconds=time.perf_counter() - started
            )
            self._states[dataset.name] = state
            return state

    def invalidate(self, dataset_name: str) -> None:
        """Drop per-dataset state (used when the underlying file changes)."""
        with self._state_lock:
            self._states.pop(dataset_name, None)

    def index_info(self, dataset: Dataset) -> dict:
        """Structural-index metadata used by the benchmarks."""
        state = self._state(dataset)
        return {
            "size_bytes": state.index.size_bytes,
            "file_bytes": len(state.data),
            "build_seconds": state.build_seconds,
            "objects": state.index.num_objects,
            "fixed_schema": state.index.fixed_schema,
        }

    # -- schema and statistics ----------------------------------------------------

    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        state = self._state(dataset)
        sample_size = min(dataset.options.get("sample_size", 50), state.index.num_objects)
        merged: t.DataType | None = None
        for position in range(sample_size):
            start, end = state.index.object_span(position)
            record = json.loads(state.data[start:end])
            inferred = t.infer_type(record)
            merged = inferred if merged is None else t.merge_types(merged, inferred)
        if merged is None:
            return t.RecordType([])
        if not isinstance(merged, t.RecordType):
            raise PluginError("JSON dataset does not contain objects")
        return merged

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        state = self._state(dataset)
        statistics = DatasetStatistics(cardinality=state.index.num_objects)
        for field in dataset.schema.fields:
            if isinstance(field.dtype, (t.RecordType, t.CollectionType)):
                continue
            try:
                values = self.scan_columns(dataset, [(field.name,)]).column((field.name,))
            except PluginError:
                continue
            statistics.null_counts[field.name] = count_missing(values)
            if not field.dtype.is_numeric():
                continue
            if len(values):
                statistics.min_values[field.name] = float(np.nanmin(values))
                statistics.max_values[field.name] = float(np.nanmax(values))
        return statistics

    # -- bulk access ----------------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        count = state.index.num_objects
        buffers = ScanBuffers(count=count, oids=np.arange(count, dtype=np.int64))
        for path in paths:
            buffers.columns[path] = self._extract_column(dataset, state, path)
        return buffers

    def scan_row_count(self, dataset: Dataset) -> int:
        return self._state(dataset).index.num_objects

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ):
        """Native batched scan of any object range through the structural
        index (missing numeric fields surface as NaN, exactly as in
        :meth:`scan_columns`); disjoint ranges extract concurrently without
        shared state (morsel fan-out)."""
        state = self._state(dataset)
        stop = min(stop, state.index.num_objects)
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            positions = np.arange(begin, end, dtype=np.int64)
            buffers = ScanBuffers(count=end - begin, oids=positions)
            for path in paths:
                buffers.columns[tuple(path)] = self._extract_column(
                    dataset, state, tuple(path), positions=positions
                )
            yield buffers

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Selective (lazy) extraction: convert fields only for the given objects."""
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        rows = np.asarray(oids, dtype=np.int64)
        buffers = ScanBuffers(count=len(rows), oids=rows)
        for path in paths:
            buffers.columns[tuple(path)] = self._extract_column(
                dataset, state, tuple(path), positions=rows
            )
        return buffers

    def _extract_column(
        self,
        dataset: Dataset,
        state: _JsonState,
        path: FieldPath,
        positions: np.ndarray | None = None,
    ) -> np.ndarray | StringColumn:
        """One field for every object (or the objects at ``positions``): the
        spans come from one column lookup and convert in bulk per type; a
        string field comes back dictionary-encoded."""
        starts, ends, types = state.index.column_spans(".".join(path), positions)
        dtype_name = self._field_type_name(dataset, path)
        column: np.ndarray | StringColumn | None = None
        if dtype_name in ("int", "float", "date"):
            column = _numeric_column(state.data, starts, ends, types, dtype_name)
        elif dtype_name == "string":
            column = _string_column(state.data, starts, ends, types)
        if column is not None:
            return column
        return _to_array(_convert_spans(state.data, starts, ends, types), dtype_name)

    def scan_unnest_batch(
        self,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray,
        outer: bool = False,
    ) -> UnnestBatch:
        """Batch-native unnest: one offset-vector pass over the parent batch.

        The structural index resolves every requested parent's array span in
        one column lookup (``column_spans``); only the array spans themselves
        are parsed.  Flattened element values are collected once per element
        path and converted in one bulk ``_to_array`` call — no per-parent
        buffers or decoder calls.
        """
        self.io_checkpoint("scan-unnest", dataset.name)
        state = self._state(dataset)
        data = state.data
        index = state.index
        key = ".".join(collection_path)
        element_paths = [tuple(path) for path in element_paths]
        num_parents = len(parent_oids)
        starts, ends, types = index.column_spans(
            key, np.asarray(parent_oids, dtype=np.int64)
        )
        present = (types != TYPE_MISSING) & (types != TYPE_NULL)
        if not np.all(types[present] == TYPE_ARRAY):
            raise PluginError(f"field {key!r} is not a nested collection")
        present_slots = np.flatnonzero(present)
        start_list = starts[present_slots].tolist()
        end_list = ends[present_slots].tolist()
        # Slice every present array span (C-level slice objects) and parse
        # them all with ONE ``json.loads`` of the joined spans: one decoder
        # call per parent would dominate the cost.
        chunks = map(data.__getitem__, map(slice, start_list, end_list))
        joined = b"[" + b",".join(chunks) + b"]"
        parsed = json.loads(joined) if len(present_slots) else []
        collections = np.empty(num_parents, dtype=object)
        collections.fill(())
        if len(parsed):
            scattered = np.empty(len(parsed), dtype=object)
            scattered[:] = parsed
            collections[present_slots] = scattered
        collections = collections.tolist()
        if outer:
            # The null child row an outer unnest emits for an empty or
            # missing collection: one None element.
            collections = [
                elements if elements else (None,) for elements in collections
            ]
        # Offset vector + one flattened element list, both built C-side.
        repeats = np.fromiter(
            map(len, collections), dtype=np.int64, count=len(collections)
        )
        flat = list(chain.from_iterable(collections))
        batch = UnnestBatch(count=len(flat), repeats=repeats)
        for path in element_paths:
            values = _extract_element_values(flat, path)
            batch.columns[path] = _to_array(
                values, self._element_type_name(dataset, collection_path, path)
            )
        return batch

    # -- tuple-at-a-time access -------------------------------------------------------

    def iterate_rows(self, dataset: Dataset) -> Iterator[dict]:
        state = self._state(dataset)
        data = state.data
        index = state.index
        for position in range(index.num_objects):
            start, end = index.object_span(position)
            yield json.loads(data[start:end])

    # -- costing -------------------------------------------------------------------------

    def scan_cost(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        statistics: DatasetStatistics | None,
    ) -> float:
        cardinality = statistics.cardinality if statistics is not None else 1_000_000
        return cardinality * self.field_access_cost * max(len(paths), 1)

    # -- helpers -------------------------------------------------------------------------

    @staticmethod
    def _field_type_name(dataset: Dataset, path: FieldPath) -> str:
        if dataset.schema is None:
            return "float"
        try:
            resolved = dataset.schema.resolve_path(path)
        except Exception:
            return "float"
        return resolved.name if resolved.is_primitive() else "string"

    @staticmethod
    def _element_type_name(
        dataset: Dataset, collection_path: FieldPath, element_path: FieldPath
    ) -> str:
        if dataset.schema is None:
            return "float"
        try:
            collection = dataset.schema.resolve_path(collection_path)
        except Exception:
            return "float"
        if not isinstance(collection, t.CollectionType):
            return "float"
        element = collection.element
        if not element_path:
            return element.name if element.is_primitive() else "string"
        if isinstance(element, t.RecordType):
            try:
                resolved = element.resolve_path(element_path)
            except Exception:
                return "float"
            return resolved.name if resolved.is_primitive() else "string"
        return "float"


# ---------------------------------------------------------------------------
# Span conversion helpers
# ---------------------------------------------------------------------------


def _extract_element_values(flat: list, path: FieldPath) -> list:
    """One element field, gathered across a flattened element list.

    The hot path is an ``operator.itemgetter`` map (C-level) that succeeds
    whenever every element is a dict carrying the field; schema-flexible
    inputs (missing fields, scalar or null elements) fall back to the shared
    ``dig_path`` rule.
    """
    if not path:
        return list(flat)
    if len(path) == 1:
        try:
            return list(map(operator.itemgetter(path[0]), flat))
        except (KeyError, TypeError, IndexError):
            pass
    return [_dig(element, path) for element in flat]


def _numeric_column(
    data: bytes, starts: np.ndarray, ends: np.ndarray, types: np.ndarray, dtype_name: str
) -> np.ndarray | None:
    """Numeric fields: slice the number spans and convert them in one bulk
    call (the Python analogue of the generated conversion code); missing and
    null values are NaN.  Returns ``None`` when a non-numeric token or an
    integer beyond 2**53 needs the exact per-value path."""
    numbers = types == TYPE_NUMBER
    if not np.all(numbers | (types == TYPE_NULL) | (types == TYPE_MISSING)):
        return None
    floats = np.full(len(types), np.nan)
    if numbers.any():
        starts, ends = starts[numbers], ends[numbers]
        parsed = parse_decimals(data, starts, ends)
        if parsed is None:
            try:
                parsed = np.asarray(span_bytes(data, starts, ends)).astype(np.float64)
            except ValueError:
                return None
        floats[numbers] = parsed
    if dtype_name in ("int", "date"):
        finite = floats[np.isfinite(floats)]
        if len(finite) and np.any(np.abs(finite) >= 2.0**53):
            # Integers beyond 2**53 are not exactly representable in
            # float64; fall back to the exact per-span conversion path
            # (whether or not some values are missing).
            return None
        if len(floats) and numbers.all() and np.all(floats == np.floor(floats)):
            return floats.astype(np.int64)
    return floats


def _unescape(content: bytes) -> bytes:
    """The UTF-8 bytes of a JSON string's escaped content."""
    return json.loads(b'"' + content + b'"').encode("utf-8", "surrogatepass")


def _string_spans(data: bytes, starts: np.ndarray, ends: np.ndarray) -> StringColumn:
    """JSON string spans (quotes included) dictionary-encoded."""
    return encode_spans(data, starts + 1, ends - 1, _unescape)


def _string_column(
    data: bytes, starts: np.ndarray, ends: np.ndarray, types: np.ndarray
) -> StringColumn | None:
    """String fields: the string spans' contents dictionary-encoded
    (escaped ones unescaped first), missing and null values as code -1.
    Returns ``None`` when a value is not a string (schema flexibility):
    that column takes the per-value path."""
    strings = types == TYPE_STRING
    if not np.all(strings | (types == TYPE_NULL) | (types == TYPE_MISSING)):
        return None
    column = _string_spans(data, starts[strings], ends[strings])
    if strings.all():
        return column
    codes = np.full(len(types), -1, dtype=np.int32)
    codes[strings] = column.codes
    return StringColumn(codes, column.values)


def _convert_spans(
    data: bytes, starts: np.ndarray, ends: np.ndarray, types: np.ndarray
) -> list:
    """Python values of many spans, converted in bulk per type code
    (missing fields are ``None``)."""
    values: list = [None] * len(types)
    for type_code in np.unique(types).tolist():
        chosen = np.flatnonzero(types == type_code)
        if type_code == TYPE_STRING:
            converted = _string_spans(data, starts[chosen], ends[chosen]).tolist()
        elif type_code == TYPE_BOOL:
            converted = (np.frombuffer(data, np.uint8)[starts[chosen]] == ord("t")).tolist()
        elif type_code in (TYPE_NULL, TYPE_MISSING):
            continue
        else:
            converted = [
                _convert_span(data, start, end, type_code)
                for start, end in zip(starts[chosen].tolist(), ends[chosen].tolist())
            ]
        if len(chosen) == len(values):
            values = converted
            continue
        for position, value in zip(chosen.tolist(), converted):
            values[position] = value
    return values


def _convert_span(data: bytes, start: int, end: int, type_code: int) -> Any:
    text = data[start:end]
    if type_code == TYPE_NUMBER:
        decoded = text.decode("utf-8")
        if "." in decoded or "e" in decoded or "E" in decoded:
            return float(decoded)
        return int(decoded)
    if type_code == TYPE_BOOL:
        return text == b"true"
    if type_code == TYPE_NULL:
        return None
    # objects and arrays: parse the span only
    return json.loads(text)


def _to_array(values: list, dtype_name: str) -> np.ndarray:
    """Convert extracted values to a NumPy buffer, mapping missing numeric
    values to NaN so vectorized predicates remain well-defined.  Values that do
    not convert to the declared type fall back to an object buffer (schema
    flexibility must never fail a scan)."""
    try:
        if dtype_name in ("int", "date"):
            try:
                # Clean integer columns convert C-side in one shot; None or
                # out-of-range values raise and take the per-value path.
                return np.asarray(values, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                pass
            if any(v is None for v in values):
                if any(
                    v is not None and abs(int(v)) >= 2**53 for v in values
                ):
                    # NaN-encoding would round these; keep exact ints (and
                    # None) in an object buffer.
                    array = np.empty(len(values), dtype=object)
                    array[:] = values
                    return array
                return np.asarray(
                    [np.nan if v is None else float(v) for v in values], dtype=np.float64
                )
            return np.asarray([int(v) for v in values], dtype=np.int64)
        if dtype_name == "float":
            try:
                # NumPy converts None to NaN for float dtypes, which is
                # exactly this engine's missing-value encoding.
                return np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                pass
            return np.asarray(
                [np.nan if v is None else float(v) for v in values], dtype=np.float64
            )
        if dtype_name == "bool":
            if any(v is None for v in values):
                # A missing boolean must stay missing: ``bool(None)`` would
                # materialize as False and make predicates / NULLS LAST sorts
                # / aggregates diverge from the tuple-at-a-time tier.  Object
                # buffers carry None through ``types.is_missing``.
                array = np.empty(len(values), dtype=object)
                array[:] = [None if v is None else bool(v) for v in values]
                return array
            return np.asarray([bool(v) for v in values], dtype=np.bool_)
    except (TypeError, ValueError, OverflowError):
        pass
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array
