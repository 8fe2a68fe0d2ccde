"""The batch pipeline — the one NumPy execution core of the cascade.

The paper's §5 identifies per-tuple interpretation as the dominant overhead
of static engines and removes it by customizing one engine per query.  This
module is that engine: every plan the ``codegen`` tier serves runs here,
over columnar *batches* instead of per-tuple dict environments.  Two things
are generated per query (:mod:`repro.core.codegen`): one fused NumPy
function per select/join/unnest predicate, join key, group key, aggregate
argument and output head of the plan (literals inlined, parameters looked
up), and — per :class:`PipelineProgram` — its *driver*: one straight-line
function per scan pipeline of the plan that runs one scan range from the
scan's batches through the predicates, gathers, unnests, join probes and
slot reductions to its sink, calling the expression functions and the
kernels directly.

A plan is lowered once per query shape into a :class:`PipelineProgram`:
:class:`PipelineCompiler` derives from the plan and the catalog everything
its executions need — one step per operator with its generated functions,
its scan's dataset, field-cache keys and deferred fields, the columns read
above every select, unnest and join (:class:`Live`: a gather takes only
those) — and cuts the steps into :class:`Pipeline`\\ s: one scan's batch
stream and the operators applied to it, up to a sink.  The sinks are

* ``collect`` — a join build side: the batches, concatenated in range order,
* ``project`` — a projection root, bounded per range by the LIMIT the engine
  resolved (a pure LIMIT keeps a prefix and stops scanning), or ``topk`` —
  ORDER BY + LIMIT K keeps each range's :class:`~repro.core.sort.TopKAccumulator`
  candidates; the engine's epilogue sorts either,
* ``nest`` — the group-by root :class:`_NestRoot`, a global aggregate being
  the group-by with no keys: one group, every batch folded into it by
  whole-array reductions as it arrives, one row even over no input.  The
  output heads run as generated functions over the per-group aggregate
  columns,
* ``slot`` — one input of a :class:`FactorizedChain`: an aggregate over
  inner equi-joins on one shared key builds no joined row; each input
  reduces to partials per key value (:class:`_SlotRoot`) and the aggregates
  are their key products (``join_kernels`` says ``factorized``).

The operators between a scan and its sink: a selection evaluates its
predicate into one position array and gathers the live columns of the rows
that pass; sitting directly on a CSV/JSON scan it makes the scan *lazy*
(§5.2): only the predicate's fields are converted for every row, the rest
for the surviving OIDs only (``scan_columns_at``).  An unnest flattens
nested collections batch-natively through the plug-in's
``scan_unnest_batch`` offset-vector API (one ``np.repeat`` broadcast of the
parent columns per batch; outer unnest emits null child rows for empty
collections, nested-in-nested flattens materialized collection columns in
memory); directly over a scan it serves its flattened output from — and
admits it to — the adaptive cache.  A hash join probes its build side's key
slots (:class:`~repro.core.executor.radix.KeySlots`, dense over an integer
key range, sorted otherwise; one gather when the build side holds each key
once), emitting matches in probe order (build order within a key), the
Volcano interpreter's order; a nested-loop join cross-products each batch
with its build side.

Each execution is one :class:`VectorizedExecutor`.  It asks the cache once
for every key the execution reads (:meth:`VectorizedExecutor.execute`: the
field columns of every scan, the unnest outputs, the join build sides and
the chain's slot space and partials, one ``lookup_many``), materializes the
build sides, and runs each pipeline's driver function — inline over the
whole scan or, decided by :func:`repro.core.parallel.plan_fanout` from the
worker count, the scan's row count in whole morsels and whether the root
groups, once per morsel on the work-stealing fan-out driver
(:mod:`repro.core.parallel`), merging the per-morsel partials in morsel
order.  A driver keeps its state in its own locals, so one function serves
every morsel and every execution of every program with its structure.  The
counters it is passed are the execution's one ledger: the profile the
:class:`~repro.resilience.context.QueryContext` carries, written straight by
an inline run, or a morsel's own counters, merged into that profile under
the context's lock when the morsel ends (aborted or not).

The scan is the single cache path of the engine: cached field columns are
served (and counted as cache hits) instead of re-converting raw bytes, and
fully-scanned columns are admitted to the cache as a side effect of
execution (§6).

Null semantics mirror the Volcano interpreter: comparisons with a missing
value are false, arithmetic over a missing value is missing and aggregates
skip missing inputs.  Every plug-in column has the one form its declared
type prescribes (:mod:`repro.core.columns`), so "missing" is NaN inside a
float column, code ``-1`` inside a dictionary-encoded column
(:class:`~repro.core.columns.EncodedColumn`: every ``string`` field, and an
``int``, ``date`` or ``bool`` field with missing values) and ``None`` only
inside an object column (values that do not fit the declared type, and
computed results such as the extrema of groups without input).  Encoded
columns flow through the drivers as codes — gathered, concatenated under
one dictionary, compared, grouped, joined and sorted by the kernels — and
are decoded only when the engine pulls result rows.

Keys follow Volcano's rules too (:mod:`repro.core.executor.radix`): a
missing group key is one group whose key reads ``None``, a missing join key
matches nothing, and keys of different kinds never match.  So whether the
pipeline serves a plan is decided before any batch runs, by the static
verdict (:mod:`repro.core.analysis.capabilities`: record construction in
output columns, outer joins, an outer unnest with a predicate and group-by
output columns that read fields but are neither keys nor aggregates go to
the Volcano interpreter), never by the data.  Unnests — inner and outer —
are covered batch-natively.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.caching import policies
from repro.caching.manager import estimate_size
from repro.caching.matching import (
    chain_partial_cache_key,
    field_cache_key,
    join_side_cache_key,
    unnest_cache_key,
)
from repro.core.analysis.model import NullabilityHints
from repro.core.concurrency import make_lock
from repro.core.aggregate_utils import replace_aggregates, unique_output_columns
from repro.core import types as t
from repro.core.columns import EncodedColumn, declared_type, element_type
from repro.core.executor import radix
from repro.core.expressions import (
    AggregateCall,
    Expression,
    FieldRef,
    contains_aggregate,
    iter_aggregates,
    iter_parameters,
)
from repro.core.parallel import ParallelVectorizedExecutor, plan_fanout
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysSort,
    PhysUnnest,
    PhysicalPlan,
    expressions_of,
    parameters_of,
    unwrap_sort,
)
from repro.core.profile import ExecutionCounters, ExecutionProfile
from repro.core.sort import TopKAccumulator, concat_chunks
from repro.errors import ExecutionError, PluginError
from repro.obs.trace import SpanAccumulator, TraceBuilder
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    UnnestBatch,
    flatten_collections,
)
from repro.resilience.context import QueryContext
from repro.storage.catalog import Catalog, Dataset

#: Rows per batch — and per morsel: a fan-out hands out whole batches.  One
#: granularity for every source, chosen by measurement on the warm OLAP
#: classes (per-class table in ROADMAP "Measured state"): per-call costs —
#: the streaming top-K re-sorts per batch — put 4096-row batches up to 1.7x
#: behind, 1Mi-row batches lose the cache locality the select/gather
#: passes live on, and at 64Ki a 600 k-row scan is 10 morsels: enough for a
#: group-by to fan out, few enough that linear roots stay inline.
DEFAULT_BATCH_SIZE = 65536

#: Synthetic binding under which computed per-group aggregate results are
#: exposed when finishing group-by output columns.
_AGG_BINDING = "__agg__"

#: An expression ready to evaluate per batch: the generated ``f(batch) ->
#: column or scalar``.
Evaluator = Callable[["Batch"], Any]

#: Virtual-buffer key: (binding, field path).
ColumnKey = tuple[str, tuple[str, ...]]

#: One execution's bound query-parameter values.
Params = Mapping[int | str, object] | None


class Batch:
    """One columnar batch flowing through a driver: its row count, the
    columns by (binding, field path), the OIDs of the bindings an operator
    above addresses by row, and the execution's bound parameter values
    (``Parameter`` nodes evaluate against them; shared, never copied)."""

    __slots__ = ("count", "columns", "oids", "params")

    def __init__(
        self,
        count: int,
        columns: dict[ColumnKey, Any] | None = None,
        oids: dict[str, np.ndarray] | None = None,
        params: Params = None,
    ):
        self.count = count
        self.columns = {} if columns is None else columns
        #: Per-binding global row positions (for lazy access and unnesting).
        self.oids = {} if oids is None else oids
        self.params = params

    def take(self, positions: np.ndarray, live: Live | None = None) -> Batch:
        """The rows at ``positions`` — one ``take`` per column, never a
        boolean index, which would re-scan a mask per column — of the
        ``live`` columns and OIDs only (``None``: all of them)."""
        if live is None:
            columns = {key: column[positions] for key, column in self.columns.items()}
            oids = {binding: rows[positions] for binding, rows in self.oids.items()}
        else:
            keep = live.columns
            columns = {
                key: column[positions] for key, column in self.columns.items() if key in keep
            }
            oids = {
                binding: rows[positions]
                for binding, rows in self.oids.items()
                if binding in live.oids
            }
        return Batch(len(positions), columns, oids, self.params)


# ---------------------------------------------------------------------------
# Batch helpers
# ---------------------------------------------------------------------------


def materialize(value: Any, count: int) -> np.ndarray:
    """Broadcast an evaluation result to a full column of ``count`` rows."""
    if isinstance(value, (np.ndarray, EncodedColumn)) and value.ndim == 1:
        return value
    if isinstance(value, np.ndarray):  # 0-d array
        value = value.item()
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (bool, int, float)):
        return np.full(count, value)
    column = np.empty(count, dtype=object)
    column[:] = [value] * count
    return column


def as_bool_array(value: Any, count: int) -> np.ndarray:
    """Coerce an evaluation result to a boolean mask of ``count`` rows.
    Missing values are false (see :func:`radix.bool_mask`)."""
    if value.__class__ is np.ndarray and value.dtype == np.bool_ and value.ndim == 1:
        return value
    return radix.bool_mask(materialize(value, count))


def bound_parameter(params: Mapping[int | str, object] | None, key: int | str):
    """The bound value of one query parameter."""
    if params is None or key not in params:
        display = f"?{key}" if isinstance(key, int) else f":{key}"
        raise ExecutionError(f"query parameter {display} is not bound")
    return params[key]


@dataclass(frozen=True)
class Live:
    """What the operators above an operator read of its output: columns, and
    the bindings whose OIDs an unnest above addresses its source by (or a
    lazy fetch right above its scan does)."""

    columns: frozenset[ColumnKey]
    oids: frozenset[str]


def live_above(
    above: tuple[PhysicalPlan, ...], own: Expression | None, oids: Iterable[str] = ()
) -> Live:
    """The :class:`Live` output of an operator under the operators ``above``
    it (nearest last) whose own predicate — evaluated on that output — is
    ``own``; ``oids`` are bindings whose OIDs it must keep besides."""
    columns: set[ColumnKey] = set()
    kept: set[str] = set(oids)
    for node in above:
        for expression in expressions_of(node):
            columns |= expression.referenced_fields()
        if isinstance(node, PhysUnnest):
            columns.add((node.binding, node.path))
            kept.add(node.binding)
    if own is not None:
        columns |= own.referenced_fields()
    return Live(frozenset(columns), frozenset(kept))


def _gather_joined(
    left: Batch,
    right: Batch,
    left_positions: np.ndarray,
    right_positions: np.ndarray,
    live: Live,
) -> Batch:
    """Assemble a join output batch by gathering the ``live`` columns and
    OIDs of both sides."""
    joined = Batch(
        len(left_positions),
        params=right.params if right.params is not None else left.params,
    )
    for side, positions in ((left, left_positions), (right, right_positions)):
        for key, column in side.columns.items():
            if key in live.columns:
                joined.columns[key] = column[positions]
        for binding, oids in side.oids.items():
            if binding in live.oids:
                joined.oids[binding] = oids[positions]
    return joined


def cross(left: Batch, right: Batch, live: Live) -> Batch:
    """The cross product of a nested-loop join's build side ``left`` with
    one probe batch ``right``, in probe order then build order (the Volcano
    interpreter's order), of the ``live`` columns."""
    left_positions = np.tile(np.arange(left.count, dtype=np.int64), right.count)
    right_positions = np.repeat(np.arange(right.count, dtype=np.int64), left.count)
    return _gather_joined(left, right, left_positions, right_positions, live)


def concat_batches(batches: list[Batch]) -> Batch:
    """Concatenate a list of batches into one (join build sides).  Only the
    columns and OIDs every batch carries are kept: a batch all of whose rows
    passed a selection kept columns the gather of another batch dropped,
    because nothing above reads them."""
    if not batches:
        return Batch(0)
    if len(batches) == 1:
        return batches[0]
    merged = Batch(sum(batch.count for batch in batches), params=batches[0].params)
    for key in batches[0].columns:
        if all(key in batch.columns for batch in batches):
            merged.columns[key] = concat_chunks([batch.columns[key] for batch in batches])
    for binding in batches[0].oids:
        if all(binding in batch.oids for batch in batches):
            merged.oids[binding] = np.concatenate([batch.oids[binding] for batch in batches])
    return merged


def span_batch(span: SpanAccumulator, started: float, rows_in: int, batch: Batch | None) -> None:
    """The drivers' one tracing hook: one operator's work on one batch —
    the time since ``started``, its rows in and out (``None``: none out)."""
    span.add_batch(
        time.perf_counter() - started, rows_in, 0 if batch is None else batch.count
    )


# ---------------------------------------------------------------------------
# Scans: the batch source of every pipeline, and the single cache path
# ---------------------------------------------------------------------------


def _nbytes(columns: Mapping[Any, np.ndarray]) -> int:
    return sum(getattr(column, "nbytes", 0) for column in columns.values())


class _CoverageRecorder:
    """Chunks produced as a side effect of execution, kept for admission to
    the adaptive cache once they tile the whole dataset.  Shared by the
    morsel workers of one execution."""

    def __init__(self) -> None:
        self._chunks: dict[int, tuple[int, Any]] = {}
        self._lock = make_lock("_CoverageRecorder._lock")

    def add(self, start: int, rows: int, chunk: Any) -> None:
        """Record the chunk covering global rows ``[start, start + rows)``."""
        with self._lock:
            self._chunks[start] = (rows, chunk)

    def drain(self, total_rows: int) -> list | None:
        """The recorded chunks in row order when they cover ``[0,
        total_rows)`` without gaps, else ``None`` (an abandoned stream, a
        failed morsel: caching is best-effort).  Empties the recorder."""
        with self._lock:
            chunks, self._chunks = self._chunks, {}
        covered = 0
        ordered = []
        for start in sorted(chunks):
            rows, chunk = chunks[start]
            if start != covered:
                return None
            covered += rows
            ordered.append(chunk)
        return ordered if ordered and covered == total_rows else None


@dataclass(frozen=True)
class ScanStep:
    """One scan of a :class:`PipelineProgram`: its plan node, the dataset and
    plug-in it reads, its field paths with their column keys and field-cache
    keys, whether the cache keeps its fields
    (:func:`repro.caching.policies.keeps_fields` of its format), the fields a
    selection directly above it defers (§5.2) and whether anything above
    reads its OIDs — all fixed by the plan and the catalog, so one shape
    derives them once."""

    node: PhysScan
    dataset: Dataset
    plugin: InputPlugin
    paths: tuple[FieldPath, ...]
    #: The field-cache key of every path, in ``paths`` order.
    keys: tuple[tuple, ...]
    keep: bool
    deferred: frozenset[FieldPath] = frozenset()
    oids: bool = True

    @classmethod
    def of(
        cls,
        node: PhysScan,
        dataset: Dataset,
        plugin: InputPlugin,
        deferred: frozenset[FieldPath] = frozenset(),
        oids: bool = True,
    ) -> ScanStep:
        paths = tuple(tuple(path) for path in node.paths)
        keys = tuple(field_cache_key(dataset.name, path) for path in paths)
        keep = policies.keeps_fields(dataset.format)
        return cls(node, dataset, plugin, paths, keys, keep, deferred, oids)


class ScanRun(NamedTuple):
    """One scan as one execution reads it (:func:`open_scan`)."""

    step: ScanStep
    #: (column key, whole cached column) of every field the cache held.
    cached: list[tuple[ColumnKey, Any]]
    #: The paths the plug-in converts for every row.
    uncached: list[FieldPath]
    #: The deferred paths it converts for the rows a selection passes.
    deferred: list[FieldPath]
    #: Do the batches carry the scan's OIDs?
    emit_oids: bool
    total_rows: int
    #: The recorder of a complete read the cache keeps (``None``: none).
    recorder: _CoverageRecorder | None
    #: The scan's span in a traced run.
    span: SpanAccumulator | None


def open_scan(
    step: ScanStep,
    held: Mapping[tuple, Any],
    recording: bool,
    span: SpanAccumulator | None = None,
) -> ScanRun:
    """One execution's read of ``step``: which of its fields the cache holds
    (``held``, the execution's one probe), which the plug-in converts and
    which it defers.  ``recording``: is there a cache to admit a complete
    read to."""
    binding = step.node.binding
    cached = []
    uncached = []
    deferred = []
    for path, key in zip(step.paths, step.keys):
        column = held.get(key)
        if column is not None:
            cached.append(((binding, path), column))
        elif path in step.deferred:
            deferred.append(path)
        else:
            uncached.append(path)
    if cached and not uncached:
        total_rows = len(cached[0][1])
    else:
        total_rows = step.plugin.scan_row_count(step.dataset)
    recorder = _CoverageRecorder() if recording and uncached and step.keep else None
    return ScanRun(
        step, cached, uncached, deferred, step.oids or bool(deferred), total_rows, recorder, span,
    )


def scan_batches(
    scan: ScanRun, lo: int | None, hi: int | None, counters: ExecutionCounters,
    batch_size: int, params: Params,
) -> Iterable[Batch]:
    """The batches of global rows ``[lo, hi)`` of one scan (``lo is None``:
    the whole scan, inline).  Cached columns are sliced; a scan with a field
    the cache lacks streams the plug-in's buffers through :func:`_metered`."""
    step, cached, uncached, _, emit_oids, total_rows, _, span = scan
    if cached and not uncached:
        started = time.perf_counter()
        if lo is None:
            lo, hi = 0, total_rows
        binding = step.node.binding
        batches = []
        for begin in range(lo, hi, batch_size):
            end = min(begin + batch_size, hi)
            batches.append(Batch(
                end - begin,
                {key: column[begin:end] for key, column in cached},
                {binding: np.arange(begin, end, dtype=np.int64)} if emit_oids else {},
                params,
            ))
        counters.values_from_cache += (hi - lo) * len(cached)
        counters.batches_processed += len(batches)
        if span is not None:
            span.add(
                seconds=time.perf_counter() - started,
                rows_out=hi - lo,
                batches=len(batches),
                nbytes=sum(_nbytes(batch.columns) for batch in batches),
            )
        return batches
    if lo is None:
        stream = step.plugin.scan_batches(step.dataset, uncached, batch_size=batch_size)
    else:
        stream = step.plugin.scan_batch_ranges(
            step.dataset, uncached, lo, hi, batch_size=batch_size
        )
    return _metered(scan, stream, counters, params)


def _metered(scan: ScanRun, stream, counters: ExecutionCounters, params: Params):
    """The plug-in stream's one metering loop.  The time spent inside the
    stream (the raw-data parse cost) and the bytes it produced go to the
    plug-in's scan totals, one flush per stream; in a traced run the time to
    produce each batch, its rows and bytes go to the scan's span, also one
    flush per stream — a fan-out pays one locked add per morsel, not per
    batch."""
    step, cached, uncached, _, emit_oids, _, recorder, span = scan
    binding = step.node.binding
    plugin_seconds = seconds = 0.0
    plugin_bytes = nbytes = rows = batches = 0
    started = time.perf_counter()
    try:
        for buffers in stream:
            plugin_seconds += time.perf_counter() - started
            count = buffers.count
            if count:
                plugin_bytes += _nbytes(buffers.columns)
                batch = Batch(count, params=params)
                if emit_oids:
                    batch.oids[binding] = buffers.oids
                for path in uncached:
                    batch.columns[(binding, path)] = buffers.column(path)
                # Contiguous rows slice the cached columns; explicit OIDs
                # gather.
                at: slice | np.ndarray | None = buffers.explicit_oids
                if at is None:
                    at = slice(buffers.first, buffers.first + count)
                    if recorder is not None:
                        recorder.add(buffers.first, count, buffers)
                if cached:
                    for key, column in cached:
                        batch.columns[key] = column[at]
                    counters.values_from_cache += count * len(cached)
                counters.rows_scanned += count
                counters.values_extracted += count * len(uncached)
                counters.batches_processed += 1
            if span is not None:
                seconds += time.perf_counter() - started
            if count:
                if span is not None:
                    rows += count
                    batches += 1
                    nbytes += _nbytes(batch.columns)
                yield batch
            started = time.perf_counter()
        # The call that found the stream exhausted.
        plugin_seconds += time.perf_counter() - started
        seconds += time.perf_counter() - started
    finally:
        step.plugin.record_scan(plugin_seconds, plugin_bytes)
        if span is not None:
            span.add(seconds=seconds, rows_out=rows, batches=batches, nbytes=nbytes)


def fetch_deferred(scan: ScanRun, batch: Batch, counters: ExecutionCounters) -> None:
    """Convert the scan's deferred fields for the rows of ``batch`` — the
    survivors of the selection above — and attach them to it.  Selective
    extractions never enter the cache (they do not cover the dataset)."""
    step, deferred = scan.step, scan.deferred
    binding = step.node.binding
    oids = batch.oids[binding]
    started = time.perf_counter()
    buffers = step.plugin.scan_columns_at(step.dataset, deferred, oids)
    step.plugin.record_scan(time.perf_counter() - started, _nbytes(buffers.columns))
    for path in deferred:
        batch.columns[(binding, path)] = buffers.column(path)
    counters.values_extracted += len(oids) * len(deferred)


def store_scan(scan: ScanRun, cache_manager) -> None:
    """Admit the columns a complete read of the scan converted to the
    adaptive cache (calling thread, after the execution succeeded)."""
    step, _, uncached, _, _, total_rows, recorder, _ = scan
    chunks = recorder.drain(total_rows)
    if chunks is None:
        return
    name = step.dataset.name
    sources = ((name, step.dataset.format),)
    for path, key in zip(step.paths, step.keys):
        if path in uncached:
            column = concat_chunks([chunk.column(path) for chunk in chunks])
            cache_manager.store(key, column, sources, f"{name}.{'.'.join(path)}")


# ---------------------------------------------------------------------------
# Unnests
# ---------------------------------------------------------------------------


@dataclass
class _CachedUnnest:
    """The flattened output of a full-scan unnest as the cache keeps it."""

    #: Element path -> flattened column, in parent order.
    columns: dict[FieldPath, np.ndarray]
    #: Element offset of every parent (one more entry than parents).
    offsets: np.ndarray
    #: Global parent position of every element.
    positions: np.ndarray

    @property
    def size_bytes(self) -> int:
        return (
            estimate_size(self.columns)
            + self.offsets.nbytes
            + self.positions.nbytes
        )

    def slice(self, first: int, count: int) -> tuple[dict, np.ndarray]:
        """Element columns and batch-relative parent positions of the
        contiguous parents ``[first, first + count)``."""
        low, high = self.offsets[first], self.offsets[first + count]
        positions = self.positions[low:high]
        return (
            {path: column[low:high] for path, column in self.columns.items()},
            positions - first if first else positions,
        )


class UnnestRun(NamedTuple):
    """One unnest as one execution runs it."""

    step: UnnestStep
    #: The flattened output the cache held (``None``: not held).
    cached: _CachedUnnest | None
    #: The recorder of a complete read the cache keeps (``None``: none).
    recorder: _CoverageRecorder | None
    #: The rows of its parent scan.
    total_rows: int


def unnest(run: UnnestRun, batch: Batch, counters: ExecutionCounters) -> Batch | None:
    """Flatten the collection of ``run``'s step in each row of ``batch``:
    the parent rows repeated once per element (their live columns, one
    gather) beside the element columns; ``None`` when no row has one.

    Batch-native: the plug-in's ``scan_unnest_batch`` returns flattened
    element buffers plus one repeat count per parent.  Scan-backed (the
    step has a plug-in), the parent binding's OIDs address the raw source;
    directly on the scan every parent passes in order, so the output comes
    from — and a complete read goes to — the adaptive cache.
    Column-backed (nested-in-nested), the collection is a materialized
    object column, flattened in memory by
    :func:`repro.plugins.base.flatten_collections` into columns of the
    element types the schema declares.  Outer unnest emits one null child
    row for a parent whose collection is empty or missing, matching the
    Volcano interpreter, and a parent whose field is not a collection fails
    with the interpreter's error."""
    step, cached, recorder, _ = run
    node = step.node
    if cached is not None:
        columns, positions = cached.slice(int(batch.oids[node.binding][0]), batch.count)
        counters.values_from_cache += len(positions) * step.width
    else:
        try:
            buffers = _flatten(step, recorder, batch, counters)
        except PluginError as exc:
            raise ExecutionError(
                f"field {'.'.join(node.path)!r} of {node.binding!r} is not a "
                "collection"
            ) from exc
        columns, positions = buffers.columns, buffers.parent_positions()
    if len(positions) == 0:
        return None
    flattened = batch.take(positions, step.live)
    for path in step.element_paths:
        flattened.columns[(node.var, path)] = columns[path]
    counters.unnest_output_rows += flattened.count
    return flattened


def _flatten(step: UnnestStep, recorder, batch: Batch, counters: ExecutionCounters) -> UnnestBatch:
    node = step.node
    if step.plugin is None:
        collection = batch.columns.get((node.binding, node.path))
        if collection is None:
            raise ExecutionError(
                f"no materialized collection column for "
                f"{node.binding!r}.{'.'.join(node.path)}"
            )
        buffers = flatten_collections(
            collection, step.element_paths, step.type_names, outer=node.outer
        )
        counters.rows_scanned += buffers.count
        return buffers
    parent_oids = batch.oids.get(node.binding)
    if parent_oids is None:
        raise ExecutionError(f"no OID column for unnest binding {node.binding!r}")
    started = time.perf_counter()
    buffers = step.plugin.scan_unnest_batch(
        step.dataset, node.path, step.element_paths, parent_oids, outer=node.outer,
    )
    step.plugin.record_scan(time.perf_counter() - started, _nbytes(buffers.columns))
    if recorder is not None:
        recorder.add(int(parent_oids[0]), batch.count, buffers)
    counters.rows_scanned += buffers.count
    counters.values_extracted += buffers.count * step.width
    return buffers


def store_unnest(run: UnnestRun, cache_manager) -> None:
    """Admit the flattened output of a complete read to the cache."""
    step, _, recorder, total_rows = run
    chunks = recorder.drain(total_rows)
    if chunks is None:
        return
    repeats = np.concatenate([chunk.repeats for chunk in chunks])
    flattened = _CachedUnnest(
        columns={
            path: concat_chunks([chunk.column(path) for chunk in chunks])
            for path in step.element_paths
        },
        offsets=np.concatenate(([0], np.cumsum(repeats))),
        positions=np.repeat(np.arange(len(repeats), dtype=np.int64), repeats),
    )
    name = step.dataset.name
    cache_manager.store(
        step.cache_key,
        flattened,
        ((name, step.dataset.format),),
        f"unnest {name}.{'.'.join(step.node.path)}",
    )


# ---------------------------------------------------------------------------
# The steps of a program, and the pipelines they cut into
# ---------------------------------------------------------------------------


def build_side_key(side: PhysicalPlan, key: Expression) -> tuple[tuple, tuple]:
    """The cache key of the key slots of plan ``side`` keyed by ``key``,
    short of the bound parameter values, and the parameters of both, whose
    values complete it (:func:`bound_key`)."""
    parameters = dict.fromkeys(parameters_of(side))
    parameters.update((parameter.key, None) for parameter in iter_parameters(key))
    return join_side_cache_key(side.fingerprint(), key.fingerprint()), tuple(parameters)


def scanned(plan: PhysicalPlan) -> tuple[str, ...]:
    """The datasets ``plan`` scans, in walk order."""
    return tuple(dict.fromkeys(node.dataset for node in plan.walk() if isinstance(node, PhysScan)))


#: A step of a :class:`PipelineProgram`.
Step = Any


@dataclass(frozen=True)
class SelectStep:
    """A selection: its predicate's function and the :class:`Live` columns of
    the rows that pass; directly on a scan (``on_scan``), the scan defers
    the fields the predicate does not read (§5.2) and the live OIDs keep
    the scan's, which the deferred fetch reads."""

    node: PhysSelect
    child: Step
    predicate: Evaluator
    on_scan: bool
    live: Live


@dataclass(frozen=True)
class UnnestStep:
    """An unnest: the dataset and plug-in of its parent's scan (``None``
    for nested-in-nested, whose collection is a materialized column of the
    element types ``type_names``), its predicate, the :class:`Live` parent
    columns of its output and — directly on the scan — the cache key of its
    flattened output and whether the cache keeps it (the field rule of the
    dataset's format)."""

    node: PhysUnnest
    child: Step
    dataset: Dataset | None
    plugin: InputPlugin | None
    predicate: Evaluator | None
    element_paths: tuple[FieldPath, ...]
    type_names: list[str] | None
    cache_key: tuple | None
    keep: bool
    live: Live

    @property
    def width(self) -> int:
        """Values one flattened row accounts for in the extraction counters."""
        return max(len(self.element_paths), 1)


@dataclass(frozen=True)
class HashJoinStep:
    """A hash join: its build side's step, key functions and cache key (its
    :func:`build_side_key` and the (dataset, format) pairs it scans), the
    probe side's step and the :class:`Live` columns of its output."""

    node: PhysHashJoin
    left: Step
    right: Step
    left_key: Evaluator
    right_key: Evaluator
    residual: Evaluator | None
    live: Live
    side_key: tuple[tuple, tuple]
    sources: tuple[policies.Source, ...]


@dataclass(frozen=True)
class LoopJoinStep:
    """A nested-loop join: its build side's step, predicate and the
    :class:`Live` columns of its output."""

    node: PhysNestedLoopJoin
    left: Step
    right: Step
    predicate: Evaluator | None
    live: Live


@dataclass(frozen=True)
class Pipeline:
    """One scan's batch stream and the operators applied to it, bottom-up,
    up to its sink: what one generated driver function runs per scan range.
    A join's build side is a ``collect`` pipeline of its own, materialized
    before the probe side runs.  A ``slot`` pipeline is one input of a join
    chain; ``predicate`` is the selection at the input's root, which its
    slot reduction applies as a mask (``lazy``: unless it sits on a scan
    that deferred fields this execution — it filters and fetches then)."""

    scan: ScanStep
    ops: tuple[Step, ...]
    sink: str
    predicate: SelectStep | None = None
    #: The joins the stream probes, top-down: the order their build sides
    #: are materialized in.
    joins: tuple[HashJoinStep | LoopJoinStep, ...] = ()

    @classmethod
    def of(cls, top: Step, sink: str) -> Pipeline:
        """The pipeline from the scan beneath ``top`` up to ``top``; a
        ``slot`` pipeline lifts a selection at the top into its sink."""
        predicate = None
        if sink == "slot" and isinstance(top, SelectStep):
            predicate, top = top, top.child
        ops = []
        step = top
        while not isinstance(step, ScanStep):
            ops.append(step)
            step = step.right if isinstance(step, (HashJoinStep, LoopJoinStep)) else step.child
        joins = tuple(op for op in ops if isinstance(op, (HashJoinStep, LoopJoinStep)))
        return cls(step, tuple(reversed(ops)), sink, predicate, joins)


class PipelineCompiler:
    """Lower a physical plan into the steps of a :class:`PipelineProgram` —
    once per query shape.

    Everything a step needs that the plan and the catalog fix is derived
    here: each expression's generated function (``evaluator``, the plan's
    ``GeneratedQuery.function_for``), each scan's dataset, plug-in,
    field-cache keys, deferred fields and OID flag, each unnest's source,
    each join's build-side cache key, and the :class:`Live` output of every
    select, unnest and join.  ``compile`` walks the plan top-down with the
    operators ``above`` the current node, so an operator learns which of
    its output columns are read above it, and a scan whether an unnest
    above reads its OIDs, without a walk of their own.  What an execution
    decides — which fields the cache holds, the build sides' rows and key
    slots, the kernels — is left to :meth:`VectorizedExecutor.execute`.
    """

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        evaluator: Callable[[Expression], Evaluator],
    ):
        self.catalog = catalog
        self.plugins = plugins
        self.evaluator = evaluator
        #: Every scan step made, in plan walk order.
        self.scans: list[ScanStep] = []
        #: Steps compiled ahead, by plan node (a join chain's inputs, which
        #: its probe tree reuses).
        self.compiled: dict[int, Step] = {}

    def compile(self, plan: PhysicalPlan, above: tuple[PhysicalPlan, ...] = ()) -> Step:
        known = self.compiled.get(id(plan))
        if known is not None:
            return known
        below = above + (plan,)
        if isinstance(plan, PhysScan):
            return self._scan(plan, above=above)
        if isinstance(plan, PhysSelect):
            child: Step
            oids: tuple[str, ...] = ()
            if isinstance(plan.child, PhysScan):
                child = self._scan(plan.child, plan.predicate, below)
                oids = (plan.child.binding,)
            else:
                child = self.compile(plan.child, below)
            return SelectStep(
                plan, child, self.evaluator(plan.predicate), isinstance(child, ScanStep),
                live_above(above, None, oids),
            )
        if isinstance(plan, PhysUnnest):
            dataset, plugin = self._scan_source(plan, plan.binding)
            type_names = None
            if dataset is None:
                # The parent binding is itself an unnest variable
                # (nested-in-nested): the collection travels as a
                # materialized object column instead of plug-in OIDs.
                element = element_type(self._binding_type(plan.child, plan.binding), plan.path)
                type_names = [declared_type(element, path) for path in plan.element_paths]
            child = self.compile(plan.child, below)
            element_paths = tuple(tuple(path) for path in plan.element_paths)
            # Directly over its scan the unnest sees every parent, in order:
            # only then may the flattened output come from / go to the cache.
            cache_key = None
            if dataset is not None and isinstance(plan.child, PhysScan):
                cache_key = unnest_cache_key(dataset.name, plan.path, element_paths, plan.outer)
            return UnnestStep(
                plan, child, dataset, plugin, self._optional(plan.predicate),
                element_paths, type_names, cache_key,
                dataset is not None and policies.keeps_fields(dataset.format),
                live_above(above, plan.predicate),
            )
        if isinstance(plan, PhysHashJoin):
            left = self.compile(plan.left, below)
            return HashJoinStep(
                plan,
                left,
                self.compile(plan.right, below),
                self.evaluator(plan.left_key),
                self.evaluator(plan.right_key),
                self._optional(plan.residual),
                live_above(above, plan.residual),
                build_side_key(plan.left, plan.left_key),
                self.catalog.sources(scanned(plan.left)),
            )
        if isinstance(plan, PhysNestedLoopJoin):
            left = self.compile(plan.left, below)
            return LoopJoinStep(
                plan,
                left,
                self.compile(plan.right, below),
                self._optional(plan.predicate),
                live_above(above, plan.predicate),
            )
        raise ExecutionError(
            f"cannot interpret operator {plan.describe()} over batches"
        )

    def _optional(self, expression: Expression | None) -> Evaluator | None:
        return None if expression is None else self.evaluator(expression)

    def _scan(
        self,
        plan: PhysScan,
        predicate: Expression | None = None,
        above: tuple[PhysicalPlan, ...] = (),
    ) -> ScanStep:
        """The step of one scan under the operators ``above`` it.
        ``predicate`` is the selection sitting directly on it: over the
        verbose formats the fields it does not read are deferred until after
        the filter (lazy materialization, §5.2).  The batches carry OIDs
        only when an unnest above addresses the scan's collections by them —
        through a join too, whose ``Live.oids`` are those unnests' — or a
        deferred fetch does."""
        dataset, plugin = self._dataset(plan.dataset)
        deferred: frozenset[FieldPath] = frozenset()
        if predicate is not None and dataset.format in ("csv", "json"):
            needed = {
                tuple(path)
                for binding, path in predicate.referenced_fields()
                if binding == plan.binding
            }
            deferred = frozenset(tuple(path) for path in plan.paths) - needed
        step = ScanStep.of(
            plan, dataset, plugin, deferred,
            oids=any(
                isinstance(node, PhysUnnest) and node.binding == plan.binding
                for node in above
            ),
        )
        self.scans.append(step)
        return step

    def _binding_type(self, plan: PhysicalPlan, binding: str) -> t.DataType | None:
        """The declared type of the records (or elements) ``binding`` ranges
        over in ``plan``: a scanned dataset's schema, an unnested
        collection's element type."""
        for node in plan.walk():
            if isinstance(node, PhysScan) and node.binding == binding:
                return self.catalog.get(node.dataset).schema
            if isinstance(node, PhysUnnest) and node.var == binding:
                parent = self._binding_type(node.child, node.binding)
                return element_type(parent, node.path)
        return None

    def _scan_source(
        self, plan: PhysicalPlan, binding: str
    ) -> tuple[Dataset, InputPlugin] | tuple[None, None]:
        """The dataset and plug-in of the scan of ``binding`` in ``plan``;
        ``(None, None)`` when no scan binds it (an unnest variable)."""
        for node in plan.walk():
            if isinstance(node, PhysScan) and node.binding == binding:
                return self._dataset(node.dataset)
        return None, None

    def _dataset(self, name: str) -> tuple[Dataset, InputPlugin]:
        dataset = self.catalog.get(name)
        plugin = self.plugins.get(dataset.format)
        if plugin is None:
            raise ExecutionError(f"no plug-in registered for format {dataset.format!r}")
        return dataset, plugin


# ---------------------------------------------------------------------------
# Group-by plumbing of the Nest root
# ---------------------------------------------------------------------------


def grouping_keys(plan: PhysicalPlan) -> list[Expression] | None:
    """The group keys of an aggregating root: a Nest's, and none for a
    Reduce with aggregates — a global aggregate is the group-by with no
    keys.  ``None`` for any other root."""
    if isinstance(plan, PhysNest):
        return plan.group_by
    if isinstance(plan, PhysReduce) and any(
        contains_aggregate(column.expression) for column in plan.columns
    ):
        return []
    return None


def collect_nest_aggregates(
    plan: PhysNest | PhysReduce,
) -> tuple[dict[tuple, int], list[AggregateCall]]:
    """Classify an aggregating root's output columns into group keys,
    aggregates and constants (literals and parameters).

    Returns (fingerprint → group-key index, unique aggregate calls).  An
    output column that reads fields but is neither is declined before
    execution (``TIER004``).
    """
    group_key_fingerprints = {
        expression.fingerprint(): index
        for index, expression in enumerate(grouping_keys(plan) or [])
    }
    aggregates: list[AggregateCall] = []
    seen: set[tuple] = set()
    for column in plan.columns:
        fingerprint = column.expression.fingerprint()
        if fingerprint in group_key_fingerprints:
            continue
        for aggregate in iter_aggregates(column.expression):
            if aggregate.fingerprint() not in seen:
                seen.add(aggregate.fingerprint())
                aggregates.append(aggregate)
    return group_key_fingerprints, aggregates


def nest_heads(
    plan: PhysNest | PhysReduce,
    group_key_fingerprints: Mapping[tuple, int],
    aggregates: list[AggregateCall],
) -> list[tuple[str, int | Expression]]:
    """Per output column of an aggregating root: the index of the group key
    it copies, or its head expression over the per-group aggregate result
    columns.

    Each aggregate's result column is exposed under a synthetic binding
    (``__agg__.agg_<n>``, in ``aggregates`` order), so arithmetic/logical
    combinations of aggregates (e.g. ``max(x) > 5 and min(x) > 0``) and query
    parameters in the heads (``sum(x) * :rate``) finish on the batch path —
    and the code generator can fuse them like any other expression.
    """
    references: dict[tuple, Expression] = {
        aggregate.fingerprint(): FieldRef(_AGG_BINDING, (f"agg_{index}",))
        for index, aggregate in enumerate(aggregates)
    }
    heads: list[tuple[str, int | Expression]] = []
    for column in plan.columns:
        key_index = group_key_fingerprints.get(column.expression.fingerprint())
        if key_index is not None:
            heads.append((column.name, key_index))
        else:
            heads.append(
                (column.name, replace_aggregates(column.expression, references))
            )
    return heads


# ---------------------------------------------------------------------------
# Sinks: what a driver hands back per scan range, and the ordered merges
# ---------------------------------------------------------------------------


#: One range of a projection: the chunks of every head (in head order) and
#: their rows.
ProjectPartial = tuple[list[list], int]


def project_range(
    chunks: list[list], total: int, limit: int | None, counters: ExecutionCounters
) -> ProjectPartial:
    """A projection's partial of one range, truncated to its first ``limit``
    rows: any range-order prefix of the result only needs a prefix of every
    range, so no more than ``ranges x limit`` rows are materialized while the
    engine slices the exact prefix."""
    if limit is not None and total > limit:
        chunks = [[concat_chunks(chunk)[:limit]] for chunk in chunks]
        total = limit
    counters.output_rows += total
    return chunks, total


def topk_range(accumulator: TopKAccumulator, counters: ExecutionCounters) -> ProjectPartial:
    """An ORDER BY + LIMIT K range's candidates (see
    :class:`~repro.core.sort.TopKAccumulator`); the engine's stable sort of
    their range-order concatenation is the exact result.  A range without
    rows contributes no chunk: an empty stand-in column would not carry the
    real dtype into the concatenation."""
    counters.rows_sorted += accumulator.rows_sorted
    total, columns = accumulator.finish()
    counters.output_rows += total
    return [[column] if total else [] for column in columns.values()], total


def project_merge(
    names: list[str], partials: list[ProjectPartial], limit: int | None, profile: ExecutionCounters
) -> dict[str, Any]:
    """The projection's columns: every range's chunks, concatenated in range
    order (a fan-out is bit-identical to an inline run)."""
    if limit is not None:
        # The engine slices the exact prefix after the merge; report the
        # emitted row count, not the per-range prefixes' sum.
        profile.output_rows = min(profile.output_rows, limit)
    return {
        name: concat_chunks([chunk for chunks, _ in partials for chunk in chunks[index]])
        for index, name in enumerate(names)
    }


#: One partial aggregate column: (aggregate fingerprint, the function that
#: computed it).  ``avg`` is carried as its ``sum`` and ``count`` parts.
Part = tuple[tuple, str]


@dataclass(frozen=True)
class _Aggregate:
    """One aggregate of a grouping root as its kernels read it."""

    fingerprint: tuple
    func: str
    #: The partial columns it is computed from.
    parts: tuple[Part, ...]


def _aggregate_spec(aggregate: AggregateCall) -> _Aggregate:
    fingerprint = aggregate.fingerprint()
    funcs = ("sum", "count") if aggregate.func == "avg" else (aggregate.func,)
    return _Aggregate(fingerprint, aggregate.func, tuple((fingerprint, func) for func in funcs))


@dataclass
class _GroupPartial:
    """Partially aggregated groups of one scan range — of one batch, for a
    global aggregate."""

    key_arrays: list[np.ndarray]
    #: Part → partial column, aligned with ``key_arrays`` (one row without
    #: keys).
    parts: dict[Part, Any]
    #: The grouping kernel(s) that built these groups (``None``: no keys).
    kernel: str | None


#: How a partial column is re-reduced, by the function that computed it.
_MERGE_FUNCS = {
    "count": "sum",
    "sum": "sum",
    "min": "min",
    "max": "max",
    "and": "and",
    "or": "or",
}

#: The argument column of every aggregate of a global aggregate over no
#: input at all.
_NO_VALUES = np.empty(0, dtype=object)


class _NestRoot:
    """Group-by — and global aggregate, the group-by with no keys: per-range
    partial grouping + partial aggregates, then a second-level grouped merge
    over the union of partial groups.  Built once per shape and shared by
    every execution: a driver keeps a range's key and argument chunks in
    its own locals and hands them over (:meth:`group`, :meth:`fold`).

    The merge functions are the aggregate monoids: partial counts are summed,
    partial sums summed, partial extrema re-reduced, partial booleans
    re-combined, and ``avg`` is carried as (sum, count) and divided once at
    the end.  Group output order is the lexicographic key order
    ``radix_group`` produces, however the scan was split.  Each grouping
    pass picks its kernel from the key ranges it sees; ``group_kernel``
    names the kernels that ran (``"dense"``, ``"sorted"`` or both, joined
    by ``+``).

    Without keys there is exactly one group, over no input too (COUNT and
    SUM 0, MIN/MAX/AVG missing, AND true, OR false).  Each batch folds into
    a one-group partial by whole-array reductions as it arrives, so a range
    holds one batch of arguments at a time, and no grouping kernel runs.
    The output heads evaluate over the per-group aggregate columns either
    way.
    """

    def __init__(
        self,
        plan: PhysNest | PhysReduce,
        keys: list[Expression],
        hints: NullabilityHints,
        evaluator: Callable[[Expression], Evaluator],
    ):
        self.names = [column.name for column in plan.columns]
        group_key_fingerprints, aggregates = collect_nest_aggregates(plan)
        self.aggregates = [_aggregate_spec(aggregate) for aggregate in aggregates]
        self.keys = [evaluator(expression) for expression in keys]
        #: The partial columns the aggregates are computed from.
        self.parts = [part for aggregate in self.aggregates for part in aggregate.parts]
        #: Aggregate fingerprint -> evaluator of its argument; a driver
        #: hands the argument columns over in this order.
        self.arguments = {
            spec.fingerprint: evaluator(aggregate.argument)
            for spec, aggregate in zip(self.aggregates, aggregates)
            if aggregate.argument is not None
        }
        #: Aggregates whose argument the static analyzer proved never
        #: missing: their kernels skip the missing-value scan.
        self.non_null = hints.non_null_aggregate_args
        order = {fingerprint: index for index, fingerprint in enumerate(self.arguments)}
        #: Per part: the part, the index of its argument column (``None``:
        #: COUNT(*)) and whether that argument is never missing.
        self._reductions = [
            (part, order.get(part[0]), part[0] in self.non_null) for part in self.parts
        ]
        #: (output name, group-key index | evaluator of the head over the
        #: per-group aggregate columns) per output column.
        self.heads = [
            (name, head if isinstance(head, int) else evaluator(head))
            for name, head in nest_heads(plan, group_key_fingerprints, aggregates)
        ]

    def fold(self, arguments: list, count: int) -> _GroupPartial:
        """One batch of a global aggregate folded into its one group:
        ``arguments`` are the batch's argument columns."""
        return _GroupPartial([], self._aggregate(count, 1, arguments), None)

    def group(self, key_chunks: list[list], argument_chunks: list[list], total: int) -> list[_GroupPartial]:
        """The groups of one range of ``total`` rows: its key and argument
        columns, batch by batch, grouped by one grouping pass (no partial
        for an empty range)."""
        if total == 0:
            return []
        grouping = radix.radix_group([concat_chunks(chunks) for chunks in key_chunks])
        arguments = [concat_chunks(chunks) for chunks in argument_chunks]
        return [
            _GroupPartial(
                grouping.key_arrays,
                self._aggregate(grouping.group_ids, grouping.num_groups, arguments),
                grouping.kernel,
            )
        ]

    def _aggregate(
        self, group_ids: np.ndarray | int, num_groups: int, arguments: list
    ) -> dict[Part, Any]:
        """Every part over one grouping of its argument column
        (``group_ids`` a row count: the one group)."""
        return {
            part: radix.group_aggregate(
                part[1], group_ids, num_groups,
                None if index is None else arguments[index], non_null,
            )
            for part, index, non_null in self._reductions
        }

    def merge(self, partials: list, profile: ExecutionProfile, params: Params = None) -> dict[str, Any]:
        partials = [partial for ranged in partials for partial in ranged]
        if not partials:
            if self.keys:
                return {name: [] for name in self.names}
            # No input at all: the one group of a global aggregate answers.
            no_input = [_NO_VALUES] * len(self.arguments)
            partials = [_GroupPartial([], self._aggregate(0, 1, no_input), None)]
        merged = partials[0]  # one partial: already final
        if len(partials) > 1:
            merged = self.fold_partials(
                [
                    concat_chunks([partial.key_arrays[index] for partial in partials])
                    for index in range(len(self.keys))
                ],
                {
                    part: concat_chunks([partial.parts[part] for partial in partials])
                    for part in self.parts
                },
                # Without keys the partials are the rows of the one group.
                len(partials),
                {partial.kernel for partial in partials},
            )
        return self.finish(merged, profile, params)

    def fold_partials(
        self,
        key_arrays: list[np.ndarray],
        columns: Mapping[Part, Any],
        rows: int,
        kernels: set[str | None],
    ) -> _GroupPartial:
        """Group ``rows`` rows of partial columns by their keys (without
        keys: into one group) and reduce every part by its monoid.
        ``kernels`` names the grouping kernels behind the rows."""
        group_ids: np.ndarray | int = rows
        num_groups = 1
        kernel = None
        if self.keys:
            grouping = radix.radix_group(key_arrays)
            key_arrays, group_ids = grouping.key_arrays, grouping.group_ids
            num_groups = grouping.num_groups
            kernel = "+".join(sorted((kernels - {None}) | {grouping.kernel}))
        return _GroupPartial(
            key_arrays,
            {
                part: radix.group_aggregate(
                    _MERGE_FUNCS[part[1]], group_ids, num_groups, column
                )
                for part, column in columns.items()
            },
            kernel,
        )

    def finish(self, merged: _GroupPartial, profile: ExecutionProfile, params: Params) -> dict[str, Any]:
        """The output columns of the final groups; the grouping kernels that
        built them go to the profile."""
        num_groups = 1
        if self.keys:
            num_groups = len(merged.key_arrays[0])
            profile.group_kernel = merged.kernel
            profile.groups_built += num_groups
        profile.output_rows += num_groups
        group_batch = Batch(num_groups, params=params)
        for index, aggregate in enumerate(self.aggregates):
            fingerprint = aggregate.fingerprint
            if aggregate.func == "avg":
                values = radix.finish_avg(
                    merged.parts[(fingerprint, "sum")],
                    merged.parts[(fingerprint, "count")],
                )
            else:
                values = merged.parts[(fingerprint, aggregate.func)]
            group_batch.columns[(_AGG_BINDING, (f"agg_{index}",))] = np.asarray(values)
        columns: dict[str, Any] = {}
        for name, head in self.heads:
            columns[name] = (
                merged.key_arrays[head]
                if isinstance(head, int)
                else materialize(head(group_batch), num_groups)
            )
        return columns


# ---------------------------------------------------------------------------
# Aggregates over a one-key join chain, per key value
# ---------------------------------------------------------------------------

#: The aggregates key products combine.
_FACTORIZED_FUNCS = frozenset({"count", "sum", "avg", "min", "max"})

#: The column that carries a row's key slot (see :class:`FactorizedChain`).
_SLOT: ColumnKey = ("__slot__", ())


#: The parts an input reduces per slot for each aggregate over it, by the
#: aggregate's function: the non-missing count weighs every part's keys (see
#: :func:`_combine_per_key`) and says which slots hold an extremum.
_SLOT_PARTS = {
    "count": ("count",),
    "sum": ("count", "sum"),
    "avg": ("count", "sum"),
    "min": ("count", "min"),
    "max": ("count", "max"),
}


@dataclass
class FactorizedChain:
    """A join chain an aggregate runs over per join-key value, without
    building the joined rows.

    Every input of the chain holds one join-key field, and a joined row has
    the same value in all of them, so the joined rows of one key value are
    the product of each input's rows with that value.  The first input's
    keys are numbered as *slots* (:class:`~repro.core.executor.radix.KeySlots`,
    looked up in the adaptive cache before the input is read, built from its
    materialized key column otherwise), and every input streams through a
    :func:`slotted` that attaches each row's slot — no column is
    gathered: a row without one, or one the input's selection drops, weighs
    nothing.  Each input reduces to per-slot partials (:class:`_SlotRoot`)
    — its row count ``c_i(k)`` and, per aggregate whose argument reads it,
    the non-missing count and the sum or the extremum, one grouped
    reduction each —, which the adaptive cache keeps too (§6): a later
    execution over the same slots, plan and bound values reads no row of
    the input.  The aggregates are key products over the slot space
    (:func:`_combine_per_key`): ``COUNT(*) = Σ_k Π_i c_i(k)``, ``SUM(x_j) =
    Σ_k s_j(k) Π_{i≠j} c_i(k)`` (COUNT(x_j) alike, AVG from the two) — one
    dot per part with the leave-one-out product of the other inputs'
    counts, which is 0 at a slot some input lacks — and MIN/MAX the
    extremum of the owner's per-slot extrema at the slots the others hold.
    A first input the aggregates need only the row counts of is not read at
    all when its slots are cached: the slots hold the counts.  With group
    keys, every row of the input they read is an output row of its own,
    weighed by the other inputs' product at its slot, and the rows are
    added up per group on the codes
    :func:`~repro.core.executor.radix.group_codes` numbers the keys with,
    whatever their number and kind: one grouped sum a part, one grouped
    extremum a MIN/MAX (:func:`_combine_grouped`).

    Built once per plan: the fingerprints of every input and key, which the
    cache keys need, are taken here, so an execution folds in only the
    bound parameter values.
    """

    #: The hash joins, the chain's root first.
    joins: list[PhysHashJoin]
    #: The join-free input subplans, in plan order.
    inputs: list[PhysicalPlan]
    #: The join-key field of every input.
    keys: list[FieldRef]
    #: Per input after the first, the join whose probe side starts with it:
    #: its slot stage is that join's span.
    probes: list[PhysHashJoin]
    #: Aggregate fingerprint -> the input its argument reads (COUNT(*): none).
    owners: dict[tuple, int]
    #: The input the group keys read (``None``: a global aggregate).
    grouped: int | None
    #: Per input, aggregate fingerprint -> the parts reduced per slot (none
    #: for the grouped input, which keeps its rows).
    parts: list[dict[tuple, tuple[str, ...]]]
    #: The first input's :func:`build_side_key`: the slot space's.
    space_key: tuple[tuple, tuple]
    #: Per input, the cache key of its partials short of the slot space's
    #: and of the bound values — its build-side key, its parts and whether
    #: it is the first input — and the parameters of its plan, key and
    #: arguments (:func:`bound_key`); ``None`` for the
    #: grouped input.
    partial_keys: list[tuple[tuple, tuple] | None]


def factorized_chain(plan: PhysicalPlan) -> FactorizedChain | None:
    """The join chain beneath an aggregating root when the aggregate can run
    per join-key value; ``None`` otherwise (the joins probe and gather).

    The shape: a tree of inner hash joins without residual predicates over
    join-free inputs, every join key a plain field and one field per input
    (so all keys are one equivalence class), every group key reading the
    same one input, every aggregate a COUNT, SUM, AVG, MIN or MAX whose
    argument reads exactly one input.  A pure function of the plan."""
    group_by = grouping_keys(plan)
    if group_by is None or not isinstance(plan.child, PhysHashJoin):
        return None
    joins: list[PhysHashJoin] = []
    inputs: list[PhysicalPlan] = []
    pending: list[PhysicalPlan] = [plan.child]
    while pending:
        node = pending.pop()
        if isinstance(node, PhysHashJoin):
            joins.append(node)
            pending += [node.right, node.left]
        else:
            inputs.append(node)
    if any(join.outer or join.residual is not None for join in joins) or any(
        isinstance(node, (PhysHashJoin, PhysNestedLoopJoin))
        for subplan in inputs
        for node in subplan.walk()
    ):
        return None
    bindings = [subplan.bindings() for subplan in inputs]

    def reader(expression: Expression) -> int | None:
        """The one input every field of ``expression`` belongs to."""
        read = {
            index
            for binding, _ in expression.referenced_fields()
            for index, names in enumerate(bindings)
            if binding in names
        }
        return read.pop() if len(read) == 1 else None

    key_fields: dict[int, dict[tuple, FieldRef]] = {}
    for join in joins:
        for key in (join.left_key, join.right_key):
            index = reader(key) if isinstance(key, FieldRef) else None
            if index is None:
                return None
            key_fields.setdefault(index, {})[key.fingerprint()] = key
    if len(key_fields) != len(inputs) or any(
        len(fields) > 1 for fields in key_fields.values()
    ):
        return None
    grouped = None
    if group_by:
        readers = {reader(expression) for expression in group_by}
        if len(readers) > 1 or None in readers:
            return None
        (grouped,) = readers
    _, aggregates = collect_nest_aggregates(plan)
    owners: dict[tuple, int] = {}
    parts: list[dict[tuple, tuple[str, ...]]] = [{} for _ in inputs]
    arguments: list[dict] = [{} for _ in inputs]
    for aggregate in aggregates:
        if aggregate.func not in _FACTORIZED_FUNCS:
            return None
        if aggregate.argument is not None:
            index = reader(aggregate.argument)
            if index is None:
                return None
            fingerprint = aggregate.fingerprint()
            owners[fingerprint] = index
            if index != grouped:
                parts[index][fingerprint] = _SLOT_PARTS[aggregate.func]
                arguments[index].update(
                    (parameter.key, None) for parameter in iter_parameters(aggregate.argument)
                )
    # Every input but the first starts the probe side of exactly one join.
    probes: dict[int, PhysHashJoin] = {}
    for join in joins:
        start = join.right
        while isinstance(start, PhysHashJoin):
            start = start.left
        probes[id(start)] = join
    keys = [next(iter(key_fields[index].values())) for index in range(len(inputs))]
    sides = [build_side_key(subplan, key) for subplan, key in zip(inputs, keys)]
    # The grouped input keeps rows, and a first input without parts adds
    # only its key slots' row counts: neither caches partials.
    partial_keys: list[tuple[tuple, tuple] | None] = [
        None
        if index == grouped or not (index or parts[0])
        else (
            (side, tuple(parts[index].items()), index == 0),
            tuple(dict.fromkeys(parameters + tuple(arguments[index]))),
        )
        for index, (side, parameters) in enumerate(sides)
    ]
    return FactorizedChain(
        joins,
        inputs,
        keys,
        [probes[id(subplan)] for subplan in inputs[1:]],
        owners,
        grouped,
        parts,
        sides[0],
        partial_keys,
    )


def slotted(
    batch: Batch,
    space: radix.KeySlots,
    shifted: np.ndarray,
    key: Evaluator,
    predicate: Evaluator | None = None,
) -> Batch | None:
    """``batch`` with the slot of every row's join key attached (``_SLOT``),
    shifted by one so that a row without a slot reads 0, whose partials the
    reducer leaves at zero (see :class:`FactorizedChain`); ``shifted`` is
    ``space.lookup`` plus one, as intp, so one gather gives the shifted
    slots.  The ``predicate`` of a selection at the input's root zeroes the
    slots of the rows it drops; only when it drops most of a batch are the
    rows that pass gathered, as a selection would — below that, reading
    every row costs the reducer less than the gathers."""
    mask = None
    if predicate is not None:
        mask = as_bool_array(predicate(batch), batch.count)
        passed = int(np.count_nonzero(mask))
        if 2 * passed <= batch.count:
            if not passed:
                return None
            batch, mask = batch.take(mask.nonzero()[0]), None
    # Every later gather and bincount indexes by the slots: as intp.
    slots = radix.slots_of(space, materialize(key(batch), batch.count), shifted)
    if mask is not None:
        slots *= mask
    batch.columns = {**batch.columns, _SLOT: slots}
    return batch


def _slot_of(batch: Batch) -> np.ndarray:
    return batch.columns[_SLOT]


@dataclass
class _SlotPartials:
    """One input of a factorized chain, reduced over the slots shifted by
    one (see :func:`slotted`): entry 0, the rows without a slot, counts
    nothing."""

    #: Rows per slot (``None`` for the grouped input: its kept slots say).
    rows: np.ndarray | None
    #: (aggregate fingerprint, ``count`` | ``sum`` | ``min`` | ``max``) ->
    #: per-slot column; an extremum is in its column's form, and the
    #: ``count`` beside it says which slots have one
    #: (:func:`~repro.core.executor.radix.group_extremum`).
    sums: dict[Part, Any]
    #: The grouped input's rows, which a per-slot column cannot stand for:
    #: its group keys (by index) and its aggregates' arguments (by
    #: fingerprint), with their slots (``_SLOT``).
    kept: dict[Any, Any]

    def arrays(self) -> list[np.ndarray]:
        """Every array the partials hold, once (the grouped input's kept
        rows aside)."""
        arrays = {}
        for column in (self.rows, *self.sums.values()):
            if isinstance(column, EncodedColumn):
                arrays.update({id(column.codes): column.codes, id(column.values): column.values})
            elif column is not None:
                arrays[id(column)] = column
        return list(arrays.values())


class _SlotRoot:
    """The per-slot partials of one input of a factorized chain: each range
    collects its batches' slots and the argument columns it reads, as they
    are — the slot says which rows count — and reduces them with the slots
    as group ids, one grouped reduction a part (an extremum with
    :func:`~repro.core.executor.radix.group_extremum`, in its column's form);
    ranges add their counts and sums up (integer sums turn exact past int64,
    as every group-by's; a range without rows adds only its zero row
    counts), re-reduce their extrema at the slots where each has a value
    and concatenate their kept rows in range order.  The partials are
    per-slot columns over the whole slot space, entry 0 (no slot) counting
    nothing, so :func:`_combine_per_key` weighs them without a gather.  ``rows``, when given, are the input's
    rows per slot already — the first input's, which its key slots count —
    and no range counts them again; without ``count`` nobody needs them (the
    grouped input, whose kept rows carry their slots)."""

    def __init__(
        self,
        size: int,
        summed: Mapping[tuple, tuple[Evaluator, tuple[str, ...]]],
        kept: Mapping[Any, Evaluator],
        non_null: frozenset[tuple],
        rows: np.ndarray | None = None,
        count: bool = True,
    ):
        self.size = size
        self.rows = rows
        self.count = count
        #: Aggregate fingerprint -> (its argument, the parts reduced per
        #: slot).
        self.summed = summed
        self.kept = kept
        self.non_null = non_null
        #: Every column a range collects.
        self.columns = {
            _SLOT: _slot_of,
            **{fingerprint: argument for fingerprint, (argument, _) in summed.items()},
            **kept,
        }

    def new_state(self) -> dict[Any, list]:
        return {name: [] for name in self.columns}

    def update(self, state: dict, batch: Batch, counters: ExecutionCounters) -> None:
        for name, column in self.columns.items():
            state[name].append(materialize(column(batch), batch.count))

    def finish_morsel(self, state: dict, counters: ExecutionCounters) -> _SlotPartials:
        size = self.size + 1  # and 0, the rows without a slot
        if not state[_SLOT]:
            # A range without a row adds no sums: its argument columns would
            # be float64 (no chunks), and their sums could turn int sums
            # float.
            return _SlotPartials(
                np.zeros(size, dtype=np.int64), {}, {name: [] for name in self.kept}
            )
        slots = concat_chunks(state[_SLOT])
        rows = self.rows
        if rows is None and self.count:
            rows = np.bincount(slots, minlength=size)
            rows[0] = 0
        sums = {}
        for fingerprint, (_, funcs) in self.summed.items():
            values = concat_chunks(state[fingerprint])
            present = fingerprint in self.non_null
            for func in funcs:
                if func == "count" and present:
                    continue  # every row has a value: the row counts (merge)
                if func in ("min", "max"):
                    # With its non-missing counts, which :meth:`merge` reads
                    # and drops.  Slot 0's extremum is never read: its count
                    # is 0.
                    column = radix.group_extremum(func, slots, size, values, present)
                else:
                    column = radix.group_aggregate(func, slots, size, values, present)
                    column[0] = 0
                sums[(fingerprint, func)] = column
        kept = {name: state[name] for name in self.kept}
        return _SlotPartials(rows, sums, kept)

    def merge(self, partials: list, profile: ExecutionCounters) -> _SlotPartials:
        rows = self.rows
        if rows is None and self.count:
            rows = sum(partial.rows for partial in partials)
        sums: dict[Part, Any] = {
            (fingerprint, "count"): rows
            for fingerprint, (_, funcs) in self.summed.items()
            if "count" in funcs and fingerprint in self.non_null
        }
        extrema: dict[Part, list] = {}
        for partial in partials:
            for part, column in partial.sums.items():
                if part[1] in ("min", "max"):
                    extrema.setdefault(part, []).append(column)
                elif part in sums:
                    sums[part] = radix.null_safe_arith("+", sums[part], column)
                else:
                    sums[part] = column
        for part, ranges in extrema.items():
            if len(ranges) == 1:
                sums[part] = ranges[0][0]
                continue
            # A range's slot without a value holds the reduction's identity,
            # or reads missing, in that range's column form, which another
            # range's may not share: only the slots with a value are
            # re-reduced.
            held = [np.flatnonzero(counts) for _, counts in ranges]
            values = concat_chunks([column[at] for (column, _), at in zip(ranges, held)])
            sums[part], _ = radix.group_extremum(
                part[1], np.concatenate(held), self.size + 1, values
            )
        kept = {
            name: concat_chunks([chunk for partial in partials for chunk in partial.kept[name]])
            for name in self.kept
        }
        return _SlotPartials(rows, sums, kept)


@dataclass(frozen=True)
class ChainInput:
    """One input of a factorized chain as a program runs it: its step, the
    (dataset, format) pairs it scans, the function of its join key, and what
    :class:`_SlotRoot` reduces of it — per aggregate whose argument it
    reads, that argument and the parts reduced per slot, or, for the grouped
    input, the columns whose rows it keeps (its group keys by index, its
    aggregates' arguments by fingerprint, and its slots)."""

    step: Step
    sources: tuple[policies.Source, ...]
    key: Evaluator
    summed: dict[tuple, tuple[Evaluator, tuple[str, ...]]]
    kept: dict[Any, Evaluator]


def _chain_inputs(
    chain: FactorizedChain,
    root: _NestRoot,
    compiler: PipelineCompiler,
    above: tuple[PhysicalPlan, ...],
) -> list[ChainInput]:
    """The inputs of ``chain`` under ``root``, compiled once under the
    operators ``above`` them (the root and the joins): every column of the
    grouped input keeps its rows, the other inputs reduce their arguments
    per slot.  Each input's step serves the chain's probe tree too
    (``compiler.compiled``)."""
    inputs = []
    for index, subplan in enumerate(chain.inputs):
        kept: dict[Any, Evaluator] = {}
        if index == chain.grouped:
            kept.update(enumerate(root.keys))
            kept.update(
                (fingerprint, root.arguments[fingerprint])
                for fingerprint, owner in chain.owners.items()
                if owner == index
            )
            kept[_SLOT] = _slot_of
        step = compiler.compiled[id(subplan)] = compiler.compile(subplan, above)
        inputs.append(
            ChainInput(
                step,
                compiler.catalog.sources(scanned(subplan)),
                compiler.evaluator(chain.keys[index]),
                {
                    fingerprint: (root.arguments[fingerprint], funcs)
                    for fingerprint, funcs in chain.parts[index].items()
                },
                kept,
            )
        )
    return inputs


#: A per-slot integer column and the largest magnitude it holds.
_Bounded = tuple[np.ndarray, int]


def _times(left: _Bounded | None, right: _Bounded | None) -> _Bounded | None:
    """The product of two per-slot integer columns (``None``: all ones), in
    int64 where their bounds prove it cannot wrap, in Python ints
    otherwise."""
    if left is None or right is None:
        return right if left is None else left
    (a, a_bound), (b, b_bound) = left, right
    bound = a_bound * b_bound
    if bound >= 2**63:
        a, b = a.astype(object), b.astype(object)
    return a * b, bound


def _leave_one_out(rows: list[np.ndarray | None]) -> list[_Bounded | None]:
    """Per input, the product of the other inputs' rows per slot (``None``:
    all ones — no rows, or rows left out as ``None``), by one prefix and
    one suffix pass."""
    factors = [None if count is None else (count, int(count.max())) for count in rows]
    prefix: list[_Bounded | None] = [None]
    for factor in factors[:-1]:
        prefix.append(_times(prefix[-1], factor))
    others: list[_Bounded | None] = [None] * len(factors)
    suffix = None
    for index in reversed(range(len(factors))):
        others[index] = _times(prefix[index], suffix)
        if index:
            suffix = _times(factors[index], suffix)
    return others


def _weighed(part: np.ndarray, weight: _Bounded | None) -> np.ndarray:
    """A per-slot part times a per-slot weight: float for a float part, else
    in int64 where the bounds prove it cannot wrap, in Python ints
    otherwise."""
    if part.dtype.kind == "f":
        return part if weight is None else part * weight[0].astype(np.float64)
    if part.dtype == object:
        return part if weight is None else part * weight[0]
    product = _times((part, radix.int_bound(part)), weight)
    assert product is not None
    return product[0]


def _dot(part: np.ndarray, weight: _Bounded) -> Any:
    """``Σ_k part[k] · weight[k]`` over the slots: a float for a float part,
    else exact — one int64 dot where the bounds prove it cannot wrap,
    Python numbers over the weighed slots otherwise."""
    column, bound = weight
    if part.dtype.kind == "f":
        # NumPy's own pairwise sum, not BLAS: a BLAS dot's cost depends on
        # the state of its thread pool, several hundred times apart between
        # processes on one host.
        return float((part * column.astype(np.float64)).sum())
    if part.dtype != object and column.dtype != object:
        if radix.int_bound(part) * bound * len(part) < 2**63:
            return int(part @ column)
    weighed = np.flatnonzero(column)
    return sum(map(operator.mul, part[weighed].tolist(), column[weighed].tolist()))


def _one(value: Any) -> np.ndarray:
    """One reduced value as the part column of the one group; an int past
    int64 stays a Python int."""
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        column = np.empty(1, dtype=object)
        column[0] = value
        return column
    return np.asarray([value])


def _combine_per_key(
    chain: FactorizedChain,
    root: _NestRoot,
    reductions: list[_SlotPartials],
) -> _GroupPartial | None:
    """The root's groups and parts as key products over the slots; ``None``
    when no key value is held by every input.  ``reductions`` are the
    inputs' partials, computed or from the cache: they are read, never
    written (the cache hands them out read-only).

    A part's per-slot weight is its owner's per-slot count or sum times the
    leave-one-out product of the other inputs' rows per slot (COUNT(*): the
    product of every input's), where a slot some input lacks weighs 0 — so
    nothing is gathered at held slots.  Without group keys each part is one
    dot of the two over the slot space, and a MIN or MAX the extremum of its
    owner's per-slot extrema at the slots every other input holds and it
    has a value at.  With group keys every row of the grouped input stands
    at its slot, and the parts are added up per code of its keys
    (:func:`_combine_grouped`)."""
    if chain.grouped is not None:
        return _combine_grouped(chain, root, reductions)
    weights = _leave_one_out([reduced.rows for reduced in reductions])
    first = weights[0]
    assert first is not None  # a chain has two inputs or more
    joined = _dot(reductions[0].rows, first)
    if joined == 0:
        return None
    parts: dict[Part, Any] = {}
    for aggregate in root.aggregates:
        fingerprint, func = aggregate.fingerprint, aggregate.func
        owner = chain.owners.get(fingerprint)
        if owner is None:  # COUNT(*)
            parts[(fingerprint, "count")] = _one(joined)
            continue
        partials, weight = reductions[owner], weights[owner]
        assert weight is not None
        if func in ("min", "max"):
            held = np.flatnonzero(
                (weight[0] > 0) & (partials.sums[(fingerprint, "count")] > 0)
            )
            # A held slot's extremum is a value: nothing missing to skip.
            parts[(fingerprint, func)] = radix.group_aggregate(
                func, len(held), 1, partials.sums[(fingerprint, func)][held], True
            )
            continue
        present = _dot(partials.sums[(fingerprint, "count")], weight)
        if func != "sum":
            parts[(fingerprint, "count")] = _one(present)
        if func != "count":
            # Over joined rows without an argument value a SUM is the integer
            # 0 Volcano's accumulator starts from, whatever the column type.
            total = _dot(partials.sums[(fingerprint, "sum")], weight) if present else 0
            parts[(fingerprint, "sum")] = _one(total)
    return _GroupPartial([], parts, None)


def _combine_grouped(
    chain: FactorizedChain,
    root: _NestRoot,
    reductions: list[_SlotPartials],
) -> _GroupPartial | None:
    """The groups of a grouped chain: every kept row of the grouped input is
    an output row weighed by the other inputs' per-slot product at its slot
    (a part of another input: that input's per-slot count or sum times the
    rest), added up per group.

    The grouped input's keys are numbered by
    :func:`~repro.core.executor.radix.group_codes`, whatever their number
    and kind; the groups are the codes with joined rows.  Each per-slot
    weight is gathered at the rows and added up per code, one grouped sum a
    part; a row whose slot another input lacks weighs 0.  A part of the
    grouped input itself is its per-row value times the weight, added up per
    code.  A MIN or MAX is one grouped extremum per code over the rows with
    joined rows — of another input, over its per-slot extrema at the rows
    whose slot it has a value at."""
    grouped = chain.grouped
    assert grouped is not None
    kept = reductions[grouped].kept
    slots: np.ndarray = kept[_SLOT]
    # Leaving the grouped input's rows out: its own weight is COUNT(*) per
    # slot, every other input's the product of the rest.
    weights = _leave_one_out([
        None if index == grouped else reduced.rows for index, reduced in enumerate(reductions)
    ])
    joined = weights[grouped]
    assert joined is not None  # a chain has two inputs or more
    codes, span, keys_of, kernel = radix.group_codes(
        [kept[index] for index in range(len(root.keys))]
    )
    per_row = joined[0][slots]  # every row's joined rows
    counts = radix.group_aggregate("sum", codes, span, per_row)
    groups = np.flatnonzero(counts > 0)
    if len(groups) == 0:
        return None

    def per_group(weight: np.ndarray) -> np.ndarray:
        return radix.group_aggregate("sum", codes, span, weight)[groups]

    parts: dict[Part, Any] = {}
    for aggregate in root.aggregates:
        fingerprint, func = aggregate.fingerprint, aggregate.func
        owner = chain.owners.get(fingerprint)
        if owner is None:  # COUNT(*)
            parts[(fingerprint, "count")] = counts[groups]
        elif func in ("min", "max"):
            if owner == grouped:
                rows = np.flatnonzero(per_row > 0)
                values, present = kept[fingerprint][rows], fingerprint in root.non_null
            else:
                sums = reductions[owner].sums
                rows = np.flatnonzero((per_row > 0) & (sums[(fingerprint, "count")][slots] > 0))
                # A held slot's extremum is a value: nothing missing to skip.
                values, present = sums[(fingerprint, func)][slots[rows]], True
            extrema, held = radix.group_extremum(func, codes[rows], span, values, present)
            parts[(fingerprint, func)] = radix.box_empty(extrema[groups], held[groups] == 0)
        elif owner == grouped:
            rows = _row_parts(root, aggregate, kept[fingerprint], per_row)
            for part in aggregate.parts:
                parts[part] = per_group(rows[part[1]])
        else:
            for part in aggregate.parts:
                weighed = _weighed(reductions[owner].sums[part], weights[owner])
                parts[part] = per_group(weighed[slots])
    return _GroupPartial(keys_of(groups), parts, kernel)


def _row_parts(
    root: _NestRoot, aggregate: _Aggregate, values: Any, weight: np.ndarray
) -> dict[str, Any]:
    """The parts of an aggregate over the grouped input, row by row: the
    row's value (none when missing) times its weight — and the non-missing
    count, which marks the rows without a value."""
    rows = np.arange(len(weight))
    non_null = aggregate.fingerprint in root.non_null
    return {
        func: radix.null_safe_arith(
            "*", radix.group_aggregate(func, rows, len(rows), values, non_null), weight
        )
        for func in {"count"} | {part[1] for part in aggregate.parts}
    }


# ---------------------------------------------------------------------------
# The program of a query shape, and the executor that runs it
# ---------------------------------------------------------------------------


class PipelineProgram:
    """Everything the batch pipeline derives from one plan and its generated
    module, built once per query shape (at its first ``codegen`` execution)
    and immutable after: no execution walks or fingerprints its plan, or
    looks up a generated function.

    It holds the root — a group-by root (:class:`_NestRoot`, shared by every
    execution: its keys, aggregates, parts and heads), or the head
    functions of a projection, whose LIMIT each execution brings — the
    :class:`PipelineCompiler` steps beneath it, the per-input steps of a
    factorized chain (with the probe tree a two-input chain falls back to),
    every scan step, from which the engine reads the cold scans it
    coalesces and the sizes admission control estimates, the cache keys an
    execution probes, and the :class:`Pipeline` s the steps cut into with
    their generated driver functions.

    An execution brings its own state — the bound parameters and LIMIT, the
    :class:`~repro.resilience.context.QueryContext` and its profile, the
    trace, the cache probe, the build sides and the kernels — in a
    :class:`VectorizedExecutor`; the program captures none of it, so any
    number of threads run one program at once."""

    def __init__(
        self,
        plan: PhysicalPlan,
        generated,
        hints: NullabilityHints,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        compile_drivers: Callable[[PipelineProgram], dict[tuple[int, str], Callable]],
    ):
        """``compile_drivers`` compiles the driver function of every
        pipeline of a program (:mod:`repro.core.codegen.driver`)."""
        #: The plan's :class:`~repro.core.codegen.GeneratedQuery`.
        self.generated = generated
        evaluator = generated.function_for
        self.sort: PhysSort | None = plan if isinstance(plan, PhysSort) else None
        root = unwrap_sort(plan)
        if not isinstance(root, (PhysReduce, PhysNest)):
            raise ExecutionError(
                f"the plan root must be Reduce or Nest, got {root.describe()}"
            )
        #: Does the root group (the fan-out threshold of its scan)?
        self.grouping = isinstance(root, PhysNest)
        keys = grouping_keys(root)
        self.nest = None if keys is None else _NestRoot(root, keys, hints, evaluator)
        self.names = [column.name for column in root.columns]
        #: A projection's (output name, head function), first occurrence
        #: per name.
        self.heads: list[tuple[str, Evaluator]] = []
        if self.nest is None:
            self.heads = [
                (column.name, evaluator(column.expression))
                for column in unique_output_columns(root.columns)
            ]
        self.head_names = [name for name, _ in self.heads]
        self.non_null = hints.non_null_columns
        compiler = PipelineCompiler(catalog, plugins, evaluator)
        #: The join chain the aggregate runs over per key value, if any.
        self.chain = chain = factorized_chain(root)
        self.inputs: list[ChainInput] = []
        if chain is not None:
            assert self.nest is not None  # a chain is an aggregate's
            self.inputs = _chain_inputs(chain, self.nest, compiler, (root, *chain.joins))
        #: The steps beneath the root; of a chain, the probe tree a
        #: two-input chain falls back to (``None`` for a longer chain).
        self.pipeline: Step | None = None
        if chain is None or len(chain.inputs) == 2:
            self.pipeline = compiler.compile(root.child, (root,))
        #: Every scan step, in plan walk order.
        self.scans = tuple(compiler.scans)
        cold: dict[str, dict[tuple, None]] = {}
        for scan in self.scans:
            if scan.paths and scan.keep:
                cold.setdefault(scan.dataset.name, {}).update(dict.fromkeys(scan.keys))
        #: (dataset, field-cache keys of all its scans) of every dataset
        #: whose fields the cache would keep, by name: the raw reads a
        #: cold execution may coalesce with a concurrent one's.
        self.cold_scans = tuple(sorted((name, frozenset(keys)) for name, keys in cold.items()))
        tops: list[tuple[Step, str]] = []
        if self.pipeline is not None:
            tops.append((self.pipeline, "nest" if self.nest is not None else "project"))
            if self.nest is None and self.sort is not None and self.sort.keys \
                    and self.sort.limit is not None:
                tops.append((self.pipeline, "topk"))
        for index, spec in enumerate(self.inputs):
            tops.append((spec.step, "slot"))
            if index == 0:
                tops.append((spec.step, "collect"))
        #: Every pipeline, by (id of its top step, sink): each driver
        #: function serves it.
        self.pipelines = _pipelines(tops)
        unnests = [
            op.cache_key
            for pipeline in self.pipelines.values()
            for op in pipeline.ops
            if isinstance(op, UnnestStep) and op.cache_key is not None
        ]
        #: The cache keys of every field and unnest output the program may
        #: read, once each: the unbound part of every execution's probe.
        self.cache_keys = tuple(dict.fromkeys(
            [key for scan in self.scans for key in scan.keys] + unnests
        ))
        #: The join steps whose build-side keys an execution binds and
        #: probes too.
        self.joins = tuple({
            id(op): op
            for pipeline in self.pipelines.values()
            for op in pipeline.ops
            if isinstance(op, HashJoinStep)
        }.values())
        #: Every key an execution probes, when no bound value completes
        #: one: then the program binds them once, for every execution.
        self.bound: BoundKeys | None = None
        unbound = [join.side_key for join in self.joins]
        if chain is not None:
            unbound += [chain.space_key, *filter(None, chain.partial_keys)]
        if not any(parameters for _, parameters in unbound):
            self.bound = bind_keys(self, {})
        #: The driver function of every pipeline, by the pipeline's key.
        self.drivers: dict[tuple[int, str], Callable] = compile_drivers(self)


#: The keys one execution probes (deduplicated, in probe order), the bound
#: build-side key of every join step (by id), the chain's slot-space key
#: and every chain input's partials key (``None``: not cached).
BoundKeys = tuple[tuple[tuple, ...], dict[int, tuple], "tuple | None", list]


def bind_keys(program: PipelineProgram, params: Mapping[int | str, object]) -> BoundKeys:
    """The keys ``program``'s executions under ``params`` probe."""
    keys = list(program.cache_keys)
    sides = {}
    for join in program.joins:
        key = bound_key(join.side_key, params)
        if key is not None:
            sides[id(join)] = key
            keys.append(key)
    space_key = None
    partial_keys: list[tuple | None] = []
    chain = program.chain
    if chain is not None:
        space_key = bound_key(chain.space_key, params)
        if space_key is not None:
            keys.append(space_key)
            for unbound in chain.partial_keys:
                input_key = None if unbound is None else bound_key(unbound, params)
                partial_key = (
                    None if input_key is None else chain_partial_cache_key(space_key, input_key)
                )
                partial_keys.append(partial_key)
                if partial_key is not None:
                    keys.append(partial_key)
    return tuple(dict.fromkeys(keys)), sides, space_key, partial_keys


def bound_key(unbound: tuple[tuple, tuple], params: Mapping[int | str, object]) -> tuple | None:
    """A cache key under bound parameter values ``params``: ``unbound`` is a
    key without them and the parameters whose values complete it
    (:func:`build_side_key`).  ``None`` — not cached — when a value is
    unhashable.  Fingerprints abstract parameter values, so folding the
    bound ones back in keeps builds with different constants (and
    coincidentally equal cardinalities) apart."""
    cache_key, parameters = unbound
    if parameters:
        cache_key += tuple((name, params.get(name)) for name in parameters)
        try:
            hash(cache_key)
        except TypeError:
            return None
    return cache_key


def _pipelines(tops: list[tuple[Step, str]]) -> dict[tuple[int, str], Pipeline]:
    """The pipelines up to each ``(top step, sink)`` and the build sides of
    their joins, by (id of the top step, sink)."""
    pipelines: dict[tuple[int, str], Pipeline] = {}
    while tops:
        top, sink = tops.pop(0)
        if (id(top), sink) not in pipelines:
            pipeline = pipelines[(id(top), sink)] = Pipeline.of(top, sink)
            tops += [(join.left, "collect") for join in pipeline.joins]
    return pipelines


class VectorizedExecutor:
    """One execution of a :class:`PipelineProgram` — the batch pipeline's
    executor, the only NumPy entry the engine calls, the ``codegen`` tier.

    It holds what the execution brings — the bound parameters and LIMIT, the
    query context and its profile, the trace, the cache — and what it
    decides: what the cache held of the keys it reads (one probe), the
    scans and unnests whose complete reads it admits to the cache once the
    run succeeded, the build sides it materialized, the kernels it chose.
    Each pipeline runs through its generated driver function, inline on
    the calling thread or once per morsel on the fan-out, decided per scan
    by :func:`repro.core.parallel.plan_fanout`."""

    def __init__(
        self,
        context: QueryContext,
        batch_size: int = DEFAULT_BATCH_SIZE,
        num_workers: int = 1,
        cache_manager=None,
        params: Params = None,
        trace: TraceBuilder | None = None,
        limit: int | None = None,
    ):
        self.batch_size = max(int(batch_size), 1)
        self.num_workers = max(int(num_workers), 1)
        self.cache_manager = cache_manager
        #: Bound query-parameter values, attached to every scan batch.
        self.params = params
        #: The LIMIT the engine resolved under them (``None``: none).
        self.limit = limit
        #: Per-query resilience context (deadline/cancel): checked per batch
        #: by the drivers and per morsel by the fan-out workers.
        self.context = context
        #: The execution's profile: an inline run counts straight into it,
        #: and the kernels each join and the group-by ran are written here.
        self.profile = context.profile
        #: Span trace of this execution (``None`` = untraced).  Operator
        #: spans are shared by every fan-out worker; their accumulators are
        #: locked, so per-morsel work aggregates into one morsel-merged span
        #: per operator.
        self.trace = trace
        #: The morsel fan-out driver, made when a scan first fans out; it
        #: writes the profile's dispatch counters.
        self.fanout: ParallelVectorizedExecutor | None = None
        #: Cache key -> what the cache held under it: the one probe.
        self.held: dict[tuple, Any] = {}
        #: ``(store, run)`` of every complete read the cache keeps, flushed
        #: after a successful run.
        self.writers: list[tuple[Callable, tuple]] = []
        #: The kernel of every hash join opened, in plan walk order.
        self.join_kernels: list[str] = []
        #: Build sides whose key slots are known — with their rows when
        #: already materialized —, by plan node: a chain that did not run
        #: per key value hands its first input over.
        self.built: dict[int, tuple[Batch | None, radix.KeySlots]] = {}
        #: Per join step (by id), its build side's key, bound; the chain's
        #: slot-space key and per-input partial keys, bound.
        self.sides: dict[int, tuple] = {}
        self.space_key: tuple | None = None
        self.partial_keys: list[tuple | None] = []
        self.program: PipelineProgram | None = None

    def execute(self, program: PipelineProgram) -> tuple[list[str], dict[str, Any]]:
        """Run ``program``; returns (column names, column values)."""
        self.program = program
        if self.cache_manager is not None:
            self._probe(program)
        chain = program.chain
        columns = None
        if chain is not None:
            columns = self._execute_factorized(program)
        if columns is None:
            self.profile.join_kernels = self.join_kernels
            columns = self._execute_root(program)
        else:
            assert chain is not None
            self.profile.join_kernels = [radix.KERNEL_FACTORIZED] * len(chain.joins)
        for store, run in self.writers:
            store(run, self.cache_manager)
        return program.names, columns

    def _probe(self, program: PipelineProgram) -> None:
        """Ask the cache once for every key the execution reads: the fields
        and unnest outputs of every scan, the build side of every join, the
        chain's slot space and every input's partials, under this
        execution's bound values.  Each key counts as one lookup — and one
        hit when held."""
        bound = program.bound
        if bound is None:
            bound = bind_keys(program, self.params or {})
        keys, self.sides, self.space_key, self.partial_keys = bound
        self.held = {
            key: entry.data
            for key, entry in zip(keys, self.cache_manager.lookup_many(keys))
            if entry is not None
        }

    def _execute_root(self, program: PipelineProgram) -> dict[str, Any]:
        """Run the pipeline beneath the root into its sink and merge."""
        assert program.pipeline is not None
        if program.nest is not None:
            return program.nest.merge(
                self._run(program, program.pipeline, "nest", [program.nest], program.grouping),
                self.profile,
                self.params,
            )
        limit = self.limit
        sink = "topk" if program.sort is not None and program.sort.keys and limit else "project"
        values = [limit, program] if sink == "topk" else [limit]
        partials = self._run(program, program.pipeline, sink, values, False)
        return project_merge(program.head_names, partials, limit, self.profile)

    # -- the pipelines ----------------------------------------------------------

    def _run(
        self, program: PipelineProgram, top: Step, sink: str, values: list, grouping: bool
    ) -> list:
        """The partials of the pipeline up to ``top`` ending in ``sink``
        (``values``: the sink's per-execution values), one per scan range:
        the whole scan inline, or one per morsel on the fan-out."""
        key = (id(top), sink)
        pipeline = program.pipelines[key]
        driver = program.drivers[key]
        opened = self._open(pipeline, values)
        if opened is None:
            # An inner join with an empty build side produces nothing.
            return [self._empty(pipeline, values)]
        total_rows = opened[0].total_rows
        morsels = []
        if self.num_workers > 1 and total_rows > self.batch_size:
            morsels, _ = plan_fanout(self.num_workers, total_rows, self.batch_size, grouping)
        if not morsels:
            return [driver(self, opened, None, None, self.profile)]
        context = self.context

        def run_morsel(morsel, worker_id: int):
            context.check()
            counters = ExecutionCounters()
            try:
                return driver(self, opened, morsel.start, morsel.stop, counters)
            finally:
                context.merge(counters)

        if self.fanout is None:
            self.fanout = ParallelVectorizedExecutor(self.num_workers, context)
        return self.fanout.execute(morsels, run_morsel)

    def _open(self, pipeline: Pipeline, sink: list) -> list | None:
        """The per-execution values of ``pipeline``'s driver, in the order
        it unpacks them: the scan (:func:`open_scan`), then per operator
        bottom-up its span and — an unnest — its run, — a join — its build
        side's rows and key slots, then the sink's ``sink`` values.  Build
        sides are materialized first, the outermost join's first; ``None``
        when an inner join's build side holds no row."""
        trace = self.trace
        builds = {}
        for join in pipeline.joins:
            left, space = self.built.pop(id(join.node.left), (None, None))
            if left is None:
                left = self._collect(join.left)
            builds[id(join)] = (left, space)
        step = pipeline.scan
        span = None
        if trace is not None:
            span = trace.operator(
                f"scan:{step.dataset.name}", node=step.node, detail=step.plugin.format_name
            )
        recording = self.cache_manager is not None
        scan = open_scan(step, self.held, recording, span)
        if scan.recorder is not None:
            self.writers.append((store_scan, scan))
        values: list = [scan]
        for op in pipeline.ops:
            if isinstance(op, (HashJoinStep, LoopJoinStep)):
                left, space = builds[id(op)]
                if left.count == 0:
                    return None
                if isinstance(op, HashJoinStep):
                    if space is None:
                        key = self.sides.get(id(op))
                        space = None if key is None else self.held.get(key)
                        if space is None:
                            space = self.build_side(key, op.sources, op.left_key, left)
                    self.join_kernels.append(space.kernel)
                    values += [left, space]
                else:
                    values.append(left)
            elif isinstance(op, UnnestStep):
                cached = recorder = None
                if op.cache_key is not None and recording:
                    cached = self.held.get(op.cache_key)
                    if cached is None and op.keep:
                        recorder = _CoverageRecorder()
                run = UnnestRun(op, cached, recorder, scan.total_rows)
                if recorder is not None:
                    self.writers.append((store_unnest, run))
                values.append(run)
            values.append(None if trace is None else self._span(op.node, _DETAILS[type(op)]))
        return values + sink

    def _span(self, node: PhysicalPlan, detail: str) -> SpanAccumulator | None:
        """The span of the work of plan ``node`` in a traced run."""
        if self.trace is None:
            return None
        name = type(node).__name__.removeprefix("Phys").lower()
        return self.trace.operator(name, node=node, detail=detail)

    def _empty(self, pipeline: Pipeline, sink: list) -> Any:
        """The partial of a pipeline that produces nothing."""
        if pipeline.sink in ("collect", "nest"):
            return []
        return [[] for _ in self.program.heads], 0

    def _collect(self, top: Step) -> Batch:
        """Materialize a join build side, through the same fan-out decision
        as the plan root."""
        partials = self._run(self.program, top, "collect", [], False)
        return concat_batches([batch for batches in partials for batch in batches])

    def build_side(
        self,
        cache_key: tuple | None,
        sources: tuple[policies.Source, ...],
        key: Evaluator,
        build: Batch,
    ) -> radix.KeySlots:
        """Number the keys of ``build``, a materialized join build side over
        the datasets ``sources`` keyed by ``key``, as slots and offer them to
        the adaptive cache under ``cache_key``."""
        space = radix.key_slots(materialize(key(build), build.count))
        self.profile.join_build_rows += build.count
        if cache_key is not None:
            self.cache_manager.store(
                cache_key, space, sources, f"join build side ({space.kernel})"
            )
        return space

    # -- aggregates over a one-key join chain ----------------------------------

    def _execute_factorized(self, program: PipelineProgram) -> dict[str, Any] | None:
        """Run the aggregate over the program's chain per join-key value
        (see :class:`FactorizedChain`).

        The first input's key slots come from the execution's probe; on a
        miss the input is materialized and its key column numbered (and
        cached).  Every input the aggregates need more than the first
        input's row counts of is then taken as per-slot partials from the
        probe (:meth:`_partials`), and read only on a miss.  ``None`` — the
        joins then probe and gather, the first input's key slots (and its
        rows, materialized on a miss) handed over as the build side — when
        two inputs join on keys the first holds once each: the join has one
        row per matching row of the other, so there is nothing to factor
        out."""
        chain = program.chain
        root = program.nest
        assert chain is not None and root is not None
        inputs = program.inputs
        first = None
        space_key = self.space_key
        space = None if space_key is None else self.held.get(space_key)
        if space is None:
            first = self._collect(inputs[0].step)
            if first.count == 0:
                return self._empty_chain(chain, root)
            space = self.build_side(space_key, inputs[0].sources, inputs[0].key, first)
        if len(chain.inputs) == 2 and space.unique:
            self.built[id(chain.inputs[0])] = (first, space)
            return None
        reductions = []
        for index, spec in enumerate(inputs):
            if index == 0 and not (spec.summed or spec.kept):
                # Its rows per slot, which its slots count, are all it adds.
                reduced = _SlotPartials(space.counts, {}, {})
            else:
                reduced = self._partials(program, index, space, first)
            held = reduced.kept[_SLOT] if reduced.rows is None else reduced.rows
            if not held.any():  # no row of this input has a slot
                return self._empty_chain(chain, root)
            reductions.append(reduced)
        started = time.perf_counter()
        combined = _combine_per_key(chain, root, reductions)
        if combined is None:
            return self._empty_chain(chain, root)
        # The key products are the chain root's work.
        self._join_span(chain.joins[0], time.perf_counter() - started)
        return root.finish(combined, self.profile, self.params)

    def _partials(
        self,
        program: PipelineProgram,
        index: int,
        space: radix.KeySlots,
        first: Batch | None,
    ) -> _SlotPartials:
        """Input ``index`` of the chain reduced over the slots of ``space``:
        from the probe — keyed by the slot space's and the input's
        build-side keys under the bound values, the parts and whether it is
        the first input — or by streaming it through its ``slot``
        pipeline, inline or fanned out as a join's sides are (the first
        input from ``first``, its rows materialized on a slot-space miss).
        Computed partials without kept rows — every input's but the grouped
        one's — are stored read-only, built from every dataset the input or
        the first input scans: a combine that wrote into them would raise
        instead of corrupting a later answer."""
        chain = program.chain
        assert chain is not None and program.nest is not None
        spec = program.inputs[index]
        cache_key = self.partial_keys[index] if self.partial_keys else None
        if cache_key is not None:
            reduced = self.held.get(cache_key)
            if reduced is not None:
                return reduced
        reducer = _SlotRoot(
            space.size,
            spec.summed,
            spec.kept,
            program.nest.non_null,
            rows=None if index else space.counts,
            count=index != chain.grouped,
        )
        shifted = np.add(space.lookup, 1, dtype=np.intp)  # see slotted()
        if index == 0 and first is not None:
            state = reducer.new_state()
            slotted_first = slotted(first, space, shifted, spec.key)
            if slotted_first is not None:
                reducer.update(state, slotted_first, self.profile)
            reduced = reducer.merge([reducer.finish_morsel(state, self.profile)], self.profile)
        else:
            probe = chain.probes[index - 1] if index else None
            select = program.pipelines[(id(spec.step), "slot")].predicate
            values = [
                space, shifted, reducer,
                None if probe is None else self._span(probe, "SlotStage"),
                None if select is None else self._span(select.node, "SelectStage"),
            ]
            reduced = reducer.merge(
                self._run(program, spec.step, "slot", values, False), self.profile
            )
        if cache_key is not None:
            arrays = reduced.arrays()
            for array in arrays:
                array.setflags(write=False)
            self.cache_manager.store(
                cache_key,
                reduced,
                dict.fromkeys(spec.sources + program.inputs[0].sources),
                f"per-slot partials of {', '.join(name for name, _ in spec.sources)}",
                size_bytes=sum(map(estimate_size, arrays)),
            )
        return reduced

    def _empty_chain(self, chain: FactorizedChain, root: _NestRoot) -> dict[str, Any]:
        """The answer over a join chain without a joined row."""
        for join in chain.joins:
            self._join_span(join, 0.0)
        return root.merge([], self.profile, self.params)

    def _join_span(self, join: PhysHashJoin, seconds: float) -> None:
        if self.trace is not None:
            self.trace.operator("hashjoin", node=join, detail="factorized").add(
                seconds=seconds
            )


#: The span detail of each operator's work in a driver.
_DETAILS = {
    SelectStep: "SelectStage",
    UnnestStep: "UnnestStage",
    HashJoinStep: "HashJoinStage",
    LoopJoinStep: "NestedLoopJoinStage",
}


def driver_runtime() -> dict[str, Any]:
    """The names a generated module and its drivers call besides the
    plan's expression functions."""
    return {
        "np": np,
        "clock": time.perf_counter,
        "mask": as_bool_array,
        "column": materialize,
        "scan_batches": scan_batches,
        "fetch_deferred": fetch_deferred,
        "unnest": unnest,
        "probe": radix.probe,
        "gather_joined": _gather_joined,
        "cross": cross,
        "slotted": slotted,
        "hook": span_batch,
        "TopKAccumulator": TopKAccumulator,
        "project_range": project_range,
        "topk_range": topk_range,
    }
