"""Input plug-in API (§4 of the paper).

Every supported data format is served by an input plug-in.  Plug-ins are the
only component that understands the bytes of a format; operators and
expression generators consume values exclusively through this interface, which
is what makes the engine extensible ("adding a plug-in suffices to support a
new data format", §4).

The contract is the calls the two executors make, all of them implemented
once, here, over the primitives a format supplies:

==========================  ==================================================
Caller                      Method
==========================  ==================================================
batch pipeline, scan        :meth:`InputPlugin.scan_row_count` and
                            :meth:`InputPlugin.scan_batch_ranges` — columnar
                            batches of any row range, so every scan can fan
                            out over morsels; :meth:`InputPlugin.scan_batches`
                            is the whole range.  Together they are the paper's
                            ``generate()``: they populate the buffers the
                            generated expressions read.
batch pipeline, select      :meth:`InputPlugin.scan_columns_at` — the fields
                            of the rows that survived a predicate (§5.2 lazy
                            access, the paper's ``readValue()``).
batch pipeline, unnest      :meth:`InputPlugin.scan_unnest_batch` — a nested
                            collection flattened for a batch of parents as an
                            offset vector (the paper's ``unnestInit()`` /
                            ``unnestHasNext()`` / ``unnestGetNext()``).
Volcano interpreter         :meth:`InputPlugin.iterate_rows` — one dict per
                            object.
registration                :meth:`InputPlugin.infer_schema`,
                            :meth:`InputPlugin.collect_statistics` (whole
                            columns; the statistics feed join ordering, §5.2)
                            and :meth:`InputPlugin.invalidate`.
==========================  ==================================================

A format implements only what is specific to it:

==========================  ==================================================
Primitive                   What it does
==========================  ==================================================
``_open(dataset)``          the one guarded raw-I/O step (``open_operation``):
                            read the file once and index it, or open a binary
                            table; returns the dataset's immutable state.
``_row_count(state)``       how many rows the state serves.
``_column(..., rows)``      one field for a row range or for given OIDs, as
                            the column of its declared type.
``infer_schema``,           the schema and the Volcano records, plus
``iterate_rows``            ``scan_unnest_batch`` where a format nests.
==========================  ==================================================

The base keeps the states (one table; each state opened once, published
under one lock and read lock-free) and the scan loops with their
fault-harness checkpoints: ``scan-columns`` per whole-column or OID fetch,
``scan-range`` per batch.  No scan method calls another, so a span wrapped
around each (the end-to-end benchmark's ``plugins.<fmt>.scan``) never nests.
"""

from __future__ import annotations

import json

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.columns import Column, EncodedColumn, column_from_values
from repro.core.concurrency import make_lock
# Canonical nested-access rule, re-exported for plug-in authors.
from repro.core.types import dig_path  # noqa: F401
from repro.errors import CorruptDataError, PluginError, StorageError
from repro.storage.catalog import Dataset, DatasetStatistics

FieldPath = tuple[str, ...]


def _noop() -> None:
    return None


@dataclass
class ScanBuffers:
    """The virtual memory buffers a scan populates for the rest of the plan.

    ``columns`` maps each requested field path to a column of its declared
    type (:mod:`repro.core.columns`: a typed NumPy array or an encoded column)
    with one entry per qualifying object; ``oids`` carries the object identifier the plug-in
    produced for each entry, which later lazy accesses (``scan_columns_at``,
    ``scan_unnest_batch``) use to return to the source object.  A batch of
    the contiguous rows ``[first, first + count)`` holds no OID array: it is
    built when read.
    """

    count: int
    #: Global row of the first entry, when the entries are contiguous rows.
    first: int = 0
    #: The entries' OIDs when they are not contiguous rows (``scan_columns_at``).
    explicit_oids: np.ndarray | None = None
    columns: dict[FieldPath, Column] = field(default_factory=dict)

    @property
    def oids(self) -> np.ndarray:
        if self.explicit_oids is not None:
            return self.explicit_oids
        return np.arange(self.first, self.first + self.count, dtype=np.int64)

    def column(self, path: FieldPath) -> Column:
        try:
            return self.columns[path]
        except KeyError as exc:
            raise PluginError(f"scan did not materialize field {'.'.join(path)!r}") from exc


@dataclass
class UnnestBatch:
    """Offset-vector output of a *batch-native* unnest.

    The flattening is one repeat count per parent: ``repeats[i]`` is how many
    output rows parent ``i`` (of the ``parent_oids`` passed in) contributes.
    Parent columns are then broadcast with a single ``np.repeat`` per batch —
    no per-parent round-trips.  Under *outer* unnest a parent whose collection
    is empty or missing contributes exactly one row whose element columns hold
    the missing value, mirroring the Volcano interpreter's null child row.
    """

    count: int
    #: int64, one entry per requested parent; ``repeats.sum() == count``.
    repeats: np.ndarray
    columns: dict[FieldPath, Column] = field(default_factory=dict)

    def column(self, path: FieldPath) -> Column:
        try:
            return self.columns[path]
        except KeyError as exc:
            raise PluginError(f"unnest did not materialize field {'.'.join(path)!r}") from exc

    def parent_positions(self) -> np.ndarray:
        """The batch-relative parent position of every element, derived from
        the repeat counts with one vectorized ``np.repeat``."""
        return np.repeat(np.arange(len(self.repeats), dtype=np.int64), self.repeats)


class InputPlugin(ABC):
    """Base class of all input plug-ins: the state table, the statistics and
    the scan calls over a format's three primitives (module docstring)."""

    #: Format name served by the plug-in (matches ``Dataset.format``).
    format_name: str = "abstract"
    #: The guarded step :meth:`_open` runs as (fault plans name it).
    open_operation: str = "index-build"

    def __init__(self) -> None:
        #: Cumulative scan metrics (scraped by the engine's metrics registry
        #: as per-plugin gauges): wall-clock seconds spent inside this
        #: plug-in's scan/parse paths, bytes of columnar data produced, and
        #: the number of scan streams / kernel calls served.  Updated through
        #: :meth:`record_scan` from the batch pipeline's call sites (scan
        #: streams, lazy field fetches, unnest batches), one flush per
        #: stream or call, under a lock (morsel workers record concurrently).
        self.scan_seconds = 0.0
        self.scan_bytes = 0
        self.scan_calls = 0
        self._metrics_lock = make_lock("InputPlugin._metrics_lock")
        #: Dataset name -> the state :meth:`_open` returned.
        self._states: dict[str, Any] = {}
        self._state_lock = make_lock("InputPlugin._state_lock")
        #: Deterministic fault harness hook (chaos suite): ``None`` in
        #: production; when installed, every :meth:`io_guard` /
        #: :meth:`io_checkpoint` step consults it *beneath* the retry layer.
        self.fault_injector = None

    def record_scan(self, seconds: float, nbytes: int) -> None:
        """Charge one scan stream / kernel call to this plug-in's metrics."""
        with self._metrics_lock:
            self.scan_seconds += seconds
            self.scan_bytes += int(nbytes)
            self.scan_calls += 1

    # -- dataset state ---------------------------------------------------------

    def _state(self, dataset: Dataset) -> Any:
        # Double-checked locking: concurrent workers hitting a cold dataset
        # must not open it (and race to publish) twice; once published, the
        # state is immutable and read lock-free.
        state = self._states.get(dataset.name)
        if state is not None:
            return state
        with self._state_lock:
            state = self._states.get(dataset.name)
            if state is None:
                state = self.io_guard(self.open_operation, dataset.name, self._open, dataset)
                self._states[dataset.name] = state
            return state

    def invalidate(self, dataset_name: str) -> None:
        """Drop a dataset's state: the next access opens its file again."""
        with self._state_lock:
            self._states.pop(dataset_name, None)

    @abstractmethod
    def _open(self, dataset: Dataset) -> Any:
        """Read (or map) the dataset's file and index it: its state."""

    @abstractmethod
    def _row_count(self, state: Any) -> int:
        """Rows the state serves."""

    @abstractmethod
    def _column(
        self, dataset: Dataset, state: Any, path: FieldPath, rows: "range | np.ndarray"
    ) -> Column:
        """One field for a row range or for the rows at the given OIDs, as
        the column of its declared type."""

    def _fill(
        self, dataset: Dataset, state: Any, paths: Sequence[FieldPath],
        rows: "range | np.ndarray", buffers: ScanBuffers,
    ) -> ScanBuffers:
        for path in paths:
            buffers.columns[tuple(path)] = self._column(dataset, state, tuple(path), rows)
        return buffers

    # -- resilient raw I/O ----------------------------------------------------

    def install_fault_injector(self, injector) -> None:
        """Install (or clear, with ``None``) a chaos-suite fault injector."""
        self.fault_injector = injector

    def io_guard(self, operation: str, dataset_name: str | None, fn, *args, **kwargs):
        """Run one raw-I/O step (a file read + parse, a table open) under the
        resilience retry policy.

        Transient ``OSError``s — real read faults or injected ones — are
        retried with exponential backoff against the active query's retry
        budget (RES005 once exhausted); ``ValueError`` surfaces immediately
        as corrupt data (RES006).  Faults injected by the chaos harness fire
        *inside* the attempt, beneath the retry layer, so an injected
        one-shot I/O error is recovered exactly like a real one.
        """
        from repro.resilience.retry import retry_io

        injector = self.fault_injector
        call = injector.next_call(operation, dataset_name) if injector is not None else 0

        def attempt():
            if injector is not None:
                injector.on_attempt(call, operation, dataset_name)
            return fn(*args, **kwargs)

        return retry_io(attempt, operation=operation, dataset=dataset_name)

    def io_checkpoint(self, operation: str, dataset_name: str | None) -> None:
        """A zero-work :meth:`io_guard` step for streaming scan paths.

        The scans operate on bytes already in memory, so they have no real
        I/O call to wrap — but the chaos harness still needs a deterministic
        injection point per produced batch.  Without an installed injector
        this is one attribute test.
        """
        if self.fault_injector is None:
            return
        self.io_guard(operation, dataset_name, _noop)

    # -- schema and statistics ----------------------------------------------

    @abstractmethod
    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        """Discover the element schema of the dataset."""

    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        """Cardinality, and per top-level scalar field the missing count and
        the numeric range; a field the file does not hold is skipped."""
        state = self._state(dataset)
        rows = range(self._row_count(state))
        statistics = DatasetStatistics(cardinality=len(rows))
        for field in dataset.schema.fields:
            if isinstance(field.dtype, (t.RecordType, t.CollectionType)):
                continue
            self.io_checkpoint("scan-columns", dataset.name)
            try:
                values = self._column(dataset, state, (field.name,), rows)
            except PluginError:
                continue
            statistics.null_counts[field.name] = count_missing(values)
            extent = value_range(values) if field.dtype.is_numeric() else None
            if extent is not None:
                statistics.min_values[field.name], statistics.max_values[field.name] = extent
        return statistics

    # -- bulk (vectorized) access used by the batch pipeline -----------------

    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        """Materialize the requested field paths for every row."""
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        rows = range(self._row_count(state))
        return self._fill(dataset, state, paths, rows, ScanBuffers(count=len(rows)))

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Materialize the requested fields for the given OIDs only.

        This is the *lazy* access path of §5.2: when a selection has already
        filtered most objects away, converting the remaining fields only for
        the qualifying OIDs avoids touching the raw data for objects that were
        filtered out.
        """
        state = self._state(dataset)
        self.io_checkpoint("scan-columns", dataset.name)
        rows = np.asarray(oids, dtype=np.int64)
        buffers = ScanBuffers(count=len(rows), explicit_oids=rows)
        return self._fill(dataset, state, paths, rows, buffers)

    def scan_row_count(self, dataset: Dataset) -> int:
        """Total number of scannable rows: what lets the batch executor split
        a scan into morsel row ranges up front."""
        return self._row_count(self._state(dataset))

    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        """Yield the requested fields for global rows ``[start, stop)`` as
        columnar batches of at most ``batch_size`` rows (rows past
        :meth:`scan_row_count` are not served).

        Disjoint ranges are servable concurrently from different threads:
        the state is immutable once published, which is what the batch
        executor's morsel workers rely on.
        """
        state = self._state(dataset)
        stop = min(stop, self._row_count(state))
        paths = [tuple(path) for path in paths]
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            buffers = ScanBuffers(count=end - begin, first=begin)
            yield self._fill(dataset, state, paths, range(begin, end), buffers)

    def scan_batches(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        """The whole dataset as :meth:`scan_batch_ranges` batches (the batch
        pipeline's inline scan).  Empty datasets yield no batches."""
        return self.scan_batch_ranges(
            dataset, paths, 0, self.scan_row_count(dataset), batch_size=batch_size
        )

    def scan_unnest_batch(
        self,
        dataset: Dataset,
        collection_path: FieldPath,
        element_paths: Sequence[FieldPath],
        parent_oids: np.ndarray,
        outer: bool = False,
    ) -> UnnestBatch:
        """Unnest a nested collection for a batch of parents at once.

        Returns flattened element buffers plus one repeat count per parent
        (:class:`UnnestBatch`), which is what lets the batch pipeline
        broadcast parent columns with a single ``np.repeat`` per batch.  With
        ``outer=True`` parents whose collection is empty or missing emit one
        null child row (repeat count 1, element values missing).  Only formats
        with nested collections implement it.
        """
        raise PluginError(
            f"format {self.format_name!r} does not contain nested collections"
        )

    # Nothing in the engine calls this name; the end-to-end benchmark's span
    # wrappers (benchmarks/e2e/spans.py) look it up on every plug-in class.
    def scan_unnest(self, dataset: Dataset, *args, **kwargs) -> UnnestBatch:
        raise PluginError(f"format {self.format_name!r}: use scan_unnest_batch")

    # -- tuple-at-a-time access (the Volcano interpreter) --------------------

    @abstractmethod
    def iterate_rows(self, dataset: Dataset) -> Iterator[dict]:
        """Yield one dict per object, every field populated."""


def read_file(path: str) -> bytes:
    """A raw file's bytes, read once; a missing file is a
    :class:`StorageError`, not a transient fault to retry."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise StorageError(f"cannot read missing file {path!r}") from exc


def count_missing(values: Column) -> int:
    """Observed missing entries in a column buffer.

    Delegates to the executor kernels' ``missing_mask`` so statistics
    collection and execution agree on what "missing" means (NaN in float
    buffers, code ``-1`` in encoded columns, ``None`` in object buffers —
    the forms of :mod:`repro.core.columns`).  Feeds
    ``DatasetStatistics.null_counts`` — the proof the static analyzer needs
    before it lets a tier skip missing-mask construction."""
    from repro.core.executor.radix import missing_mask

    mask = missing_mask(values)
    return 0 if mask is None else int(mask.sum())


def value_range(values: Column) -> tuple[float, float] | None:
    """``(min, max)`` of a numeric column, missing values skipped — the ends
    of an encoded column's dictionary, a NaN-aware reduction of a typed
    buffer — or ``None`` for an empty, all-missing or non-numeric column
    (the statistics then record no range)."""
    if isinstance(values, EncodedColumn):
        values = values.values[[0, -1]] if len(values.values) else values.values
    if values.dtype.kind == "f":
        values = values[~np.isnan(values)]
    if values.dtype.kind not in "iubf" or not len(values):
        return None
    return float(values.min()), float(values.max())


@contextmanager
def malformed_as_corrupt(dataset: Dataset) -> Iterator[None]:
    """Bytes a structural index, a span lookup or the JSON decoder rejects
    are corrupt raw data: re-raise the :class:`StorageError` or
    :class:`json.JSONDecodeError` as RES006 naming the dataset."""
    try:
        yield
    except (StorageError, json.JSONDecodeError) as exc:
        raise CorruptDataError(
            f"malformed raw data in {dataset.name!r}: {exc}", dataset=dataset.name
        ) from exc


def require_flat_path(path: FieldPath) -> str:
    """Helper for flat formats: a path must have exactly one element."""
    if len(path) != 1:
        raise PluginError(
            f"flat formats have no nested fields; got path {'.'.join(path)!r}"
        )
    return path[0]


def flatten_collections(
    collections: Sequence,
    element_paths: Sequence[FieldPath],
    type_names: Sequence[str],
    outer: bool = False,
) -> UnnestBatch:
    """Flatten already-materialized collection values into an
    :class:`UnnestBatch`; ``type_names`` declares the type of every element
    path's column.

    ``collections`` holds one Python collection (list/tuple), or ``None``,
    per parent — e.g. an object column a previous unnest materialized.  This
    is the offset-vector kernel behind *column-backed* unnest (nested
    collections inside already-unnested elements), shared so every caller
    agrees on outer-unnest null rows and on the "not a collection" error.
    """
    element_paths = [tuple(path) for path in element_paths]
    repeats = np.zeros(len(collections), dtype=np.int64)
    values: dict[FieldPath, list] = {path: [] for path in element_paths}
    total = 0
    for slot, elements in enumerate(collections):
        if elements is None:
            elements = ()
        elif not isinstance(elements, (list, tuple)):
            raise PluginError("unnest input is not a nested collection")
        if elements:
            repeats[slot] = len(elements)
            total += len(elements)
            for path in element_paths:
                values[path].extend(dig_path(element, path) for element in elements)
        elif outer:
            repeats[slot] = 1
            total += 1
            for path in element_paths:
                values[path].append(None)
    batch = UnnestBatch(count=total, repeats=repeats)
    for path, type_name in zip(element_paths, type_names):
        batch.columns[path] = column_from_values(values[path], type_name)
    return batch
