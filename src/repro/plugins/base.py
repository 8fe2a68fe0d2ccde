"""Input plug-in API (§4 of the paper).

Every supported data format is served by an input plug-in.  Plug-ins are the
only component that understands the bytes of a format; operators and
expression generators consume values exclusively through this interface, which
is what makes the engine extensible ("adding a plug-in suffices to support a
new data format", §4).

The contract is the calls the two executors make:

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
==========================  ==================================================

Registration adds :meth:`~InputPlugin.infer_schema` and
:meth:`~InputPlugin.collect_statistics` (over :meth:`~InputPlugin.scan_columns`,
a whole column at once; the statistics feed join ordering, §5.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core import types as t
from repro.core.columns import Column, EncodedColumn, column_from_values
from repro.core.concurrency import make_lock
# Canonical nested-access rule, re-exported for plug-in authors.
from repro.core.types import dig_path  # noqa: F401
from repro.errors import CorruptDataError, PluginError, StorageError
from repro.storage.catalog import Dataset, DatasetStatistics
from repro.storage.memory import MemoryManager

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
    """Base class of all input plug-ins."""

    #: Format name served by the plug-in (matches ``Dataset.format``).
    format_name: str = "abstract"

    def __init__(self, memory: MemoryManager):
        self.memory = memory
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

    # -- resilient raw I/O ----------------------------------------------------

    def install_fault_injector(self, injector) -> None:
        """Install (or clear, with ``None``) a chaos-suite fault injector."""
        self.fault_injector = injector

    def io_guard(self, operation: str, dataset_name: str | None, fn, *args, **kwargs):
        """Run one raw-I/O step (an mmap + parse, a batch slice) under the
        resilience retry policy.

        Transient ``OSError``s — real mmap faults or injected ones — are
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

        The hot scan generators operate on bytes already mapped into memory,
        so they have no real I/O call to wrap — but the chaos harness still
        needs a deterministic injection point per produced batch.  Without an
        installed injector this is one attribute test.
        """
        if self.fault_injector is None:
            return
        self.io_guard(operation, dataset_name, _noop)

    # -- schema and statistics ----------------------------------------------

    @abstractmethod
    def infer_schema(self, dataset: Dataset) -> t.RecordType:
        """Discover the element schema of the dataset."""

    @abstractmethod
    def collect_statistics(self, dataset: Dataset) -> DatasetStatistics:
        """Gather cardinality and min/max statistics for the dataset."""

    # -- bulk (vectorized) access used by the batch pipeline -----------------

    @abstractmethod
    def scan_columns(self, dataset: Dataset, paths: Sequence[FieldPath]) -> ScanBuffers:
        """Materialize the requested field paths into columnar buffers."""

    def scan_columns_at(
        self, dataset: Dataset, paths: Sequence[FieldPath], oids: np.ndarray
    ) -> ScanBuffers:
        """Materialize the requested fields for the given OIDs only.

        This is the *lazy* access path of §5.2: when a selection has already
        filtered most objects away, converting the remaining fields only for
        the qualifying OIDs avoids touching the raw data for objects that were
        filtered out.  The default implementation extracts full columns and
        gathers; verbose formats override it with genuinely selective access.
        """
        full = self.scan_columns(dataset, paths)
        buffers = ScanBuffers(count=len(oids), explicit_oids=np.asarray(oids, dtype=np.int64))
        for path in paths:
            buffers.columns[tuple(path)] = full.column(tuple(path))[oids]
        return buffers

    @abstractmethod
    def scan_row_count(self, dataset: Dataset) -> int:
        """Total number of scannable rows: what lets the batch executor split
        a scan into morsel row ranges up front."""

    @abstractmethod
    def scan_batch_ranges(
        self,
        dataset: Dataset,
        paths: Sequence[FieldPath],
        start: int,
        stop: int,
        batch_size: int = 4096,
    ) -> Iterator[ScanBuffers]:
        """Yield the requested fields for global rows ``[start, stop)`` as
        columnar batches of at most ``batch_size`` rows (OIDs carry the global
        row positions; rows past :meth:`scan_row_count` are not served).

        Disjoint ranges must be servable concurrently from different threads
        without touching shared mutable plug-in state: this is what the
        batch executor's morsel workers call.
        """

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

    def _column_batches(
        self,
        dataset: Dataset,
        arrays: dict[FieldPath, Column],
        start: int,
        stop: int,
        batch_size: int,
    ) -> Iterator[ScanBuffers]:
        """:meth:`scan_batch_ranges` over columns already in memory: every
        batch is a zero-copy slice, so disjoint ranges are trivially safe to
        serve concurrently."""
        for begin in range(start, stop, batch_size):
            self.io_checkpoint("scan-range", dataset.name)
            end = min(begin + batch_size, stop)
            buffers = ScanBuffers(count=end - begin, first=begin)
            for path, array in arrays.items():
                buffers.columns[path] = array[begin:end]
            yield buffers

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
    """Bytes a structural index or a span lookup rejects are corrupt raw
    data: re-raise the :class:`StorageError` as RES006 naming the dataset."""
    try:
        yield
    except StorageError as exc:
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
