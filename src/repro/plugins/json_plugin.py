"""JSON input plug-in.

The JSON plug-in queries raw JSON object streams (one object per line, or
whitespace-separated) in place.  On the first access it validates the file and
builds the structural index of §5.2 in whole-block bitmap passes: per field
path, a column over all objects of the value's position, length and type.
The paper's Level 0 (path -> entry per object, for schema flexibility) and
its fixed-schema specialization are both subsumed — any field order is one
column lookup.

Scans gather the spans of the fields a query needs — nested paths included —
from those columns and convert them to the column of the field's declared
type (:mod:`repro.core.columns`): in bulk when every value carries the
type's token — a string field is dictionary-encoded from its bytes, only
escaped values going through ``json.loads`` first — and one Python value
per span otherwise, so a field holding values of another type is an object
column like the values Volcano reads.  Nested arrays are flattened for the
batch pipeline's unnest stage by :meth:`JsonPlugin.scan_unnest_batch`, which
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
from repro.core.columns import (
    Column,
    column_from_spans,
    column_from_values,
    declared_type,
    element_type,
    encode_spans,
)
from repro.errors import PluginError
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    ScanBuffers,
    UnnestBatch,
    count_missing,
    dig_path as _dig,
    malformed_as_corrupt,
    value_range,
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
            extent = value_range(values) if field.dtype.is_numeric() else None
            if extent is not None:
                statistics.min_values[field.name], statistics.max_values[field.name] = extent
        return statistics

    # -- bulk access ----------------------------------------------------------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        count = state.index.num_objects
        buffers = ScanBuffers(count=count)
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
        index (the columns of :meth:`scan_columns`, row range by row range);
        disjoint ranges extract concurrently without shared state (morsel
        fan-out)."""
        state = self._state(dataset)
        stop = min(stop, state.index.num_objects)
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            buffers = ScanBuffers(count=end - begin, first=begin)
            for path in paths:
                buffers.columns[tuple(path)] = self._extract_column(
                    dataset, state, tuple(path), positions=range(begin, end)
                )
            yield buffers

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Selective (lazy) extraction: convert fields only for the given objects."""
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        rows = np.asarray(oids, dtype=np.int64)
        buffers = ScanBuffers(count=len(rows), explicit_oids=rows)
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
        positions: "range | np.ndarray | None" = None,
    ) -> Column:
        """One field for every object (or the objects at ``positions``) as
        the column of its declared type: the spans come from one column
        lookup and convert in bulk when every value has the declared type's
        token, one Python value per span otherwise."""
        data = state.data
        starts, ends, types = state.index.column_spans(".".join(path), positions)
        type_name = declared_type(dataset.schema, path)
        token = _TOKENS.get(type_name)
        missing = (types == TYPE_MISSING) | (types == TYPE_NULL)
        if token is not None and np.all(missing | (types == token)):
            quotes = int(token == TYPE_STRING)  # a string's content
            column = column_from_spans(
                data, starts + quotes, ends - quotes, type_name, missing, _unescape
            )
            if column is not None:
                return column
        return column_from_values(_convert_spans(data, starts, ends, types), type_name)

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
        path and converted in one :func:`~repro.core.columns.column_from_values`
        call — no per-parent buffers or decoder calls.
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
        element = element_type(dataset.schema, collection_path)
        for path in element_paths:
            batch.columns[path] = column_from_values(
                _extract_element_values(flat, path), declared_type(element, path)
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


# ---------------------------------------------------------------------------
# Span conversion helpers
# ---------------------------------------------------------------------------

#: The token every value of a declared type's field carries when the field
#: converts in bulk from its spans (missing and null values aside).
_TOKENS = {
    "int": TYPE_NUMBER,
    "date": TYPE_NUMBER,
    "float": TYPE_NUMBER,
    "string": TYPE_STRING,
}


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


def _unescape(content: bytes) -> bytes:
    """The UTF-8 bytes of a JSON string's escaped content."""
    return json.loads(b'"' + content + b'"').encode("utf-8", "surrogatepass")


def _convert_spans(
    data: bytes, starts: np.ndarray, ends: np.ndarray, types: np.ndarray
) -> list:
    """Python values of many spans, converted in bulk per type code
    (missing fields are ``None``)."""
    values: list = [None] * len(types)
    for type_code in np.unique(types).tolist():
        chosen = np.flatnonzero(types == type_code)
        if type_code == TYPE_STRING:
            converted = encode_spans(
                data, starts[chosen] + 1, ends[chosen] - 1, _unescape
            ).tolist()
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
    # objects and arrays: parse the span only
    return json.loads(text)
