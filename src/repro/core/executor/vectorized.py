"""The batch pipeline — the one NumPy execution core of the cascade.

The paper's §5 identifies per-tuple interpretation as the dominant overhead
of static engines and removes it by customizing one engine per query.  This
module is that engine: every plan the ``codegen`` tier serves runs here,
over columnar *batches* instead of per-tuple dict environments.  What is
customized per query are the expressions:
:class:`repro.core.codegen.CodeGenerator` emitted one fused NumPy function
per select/join/unnest predicate, join key, group key, aggregate argument
and output head of the plan (literals inlined, parameters looked up), and
the stages and root tasks call those functions through the plan's
:class:`~repro.core.codegen.GeneratedQuery`.

A plan is lowered by :class:`PipelineCompiler` into a
:class:`CompiledPipeline` — one :class:`ScanOperator` batch source plus a
list of per-batch stages:

* :class:`SelectStage` evaluates the predicate once per batch into a boolean
  mask; sitting directly on a CSV/JSON scan it makes the scan *lazy* (§5.2):
  only the predicate's fields are converted for every row, the remaining
  ones for the surviving OIDs only (``scan_columns_at``),
* :class:`HashJoinStage` holds the materialized build side and one
  :class:`~repro.core.executor.radix.JoinTable` — direct-addressed over a
  dense integer key range, sorted otherwise; looked up in / admitted to the
  adaptive cache, keyed by the build side's plan, key and bound parameter
  values — and probes it batch-at-a-time, emitting matches in probe order
  (build order within a key), the Volcano interpreter's order,
* :class:`UnnestStage` flattens nested collections batch-natively through the
  plug-in's ``scan_unnest_batch`` offset-vector API (one ``np.repeat``
  broadcast of the parent columns per batch; outer unnest emits null child
  rows for empty collections, nested-in-nested flattens materialized
  collection columns in memory); an unnest directly over a scan serves its
  flattened output from — and admits it to — the adaptive cache,
* grouping concatenates key/argument columns and reduces them with the
  grouping kernel (``bincount`` over a mixed-radix code of ``key - lo`` when
  the integer key ranges are dense, ``np.unique`` factorization otherwise).
  A global aggregate is the group-by with no keys: one group, each batch
  folded into it by whole-array reductions as it arrives.  Either way the
  output heads — aggregates combined with literals, parameters, arithmetic
  and comparisons — run as generated functions over the per-group
  aggregate columns.  The kernel each join and group-by ran is recorded in
  the profile (``join_kernels`` / ``group_kernel``),
* an aggregate over inner equi-joins on one shared key (a
  :class:`FactorizedChain`, recognized from the plan alone) builds no
  joined row: each input reduces to partials per key value and the
  aggregates are their key products (``join_kernels`` says
  ``factorized``) — unless two inputs join on keys the first holds once
  each, where there is nothing to factor out.  Every other join probes and
  gathers.

The stages are deliberately *stateless per batch* (all mutable state lives in
the per-call :class:`PipelineCounters` and the lock-guarded cache recorders),
so the same pipeline object can be executed over any batch range by any
worker.  The plan root is a *root task* (:class:`_RootTask`): a partial state
per scan range plus an ordered merge.  :class:`VectorizedExecutor` compiles
the pipeline once, builds one root task and — decided by
:func:`repro.core.parallel.plan_fanout` from the worker count, the driving
scan's row count in whole morsels and whether the root groups — either runs
it inline over the whole scan or hands morsels to the work-stealing fan-out
driver (:mod:`repro.core.parallel`) and merges the per-morsel partials in
morsel order.  Join build sides go through the same decision.

The scan operator is the single cache path of the engine: cached field
columns are served (and counted as cache hits) instead of re-converting raw
bytes, looked up when the scan starts (the plan does not name the cache), and
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
columns flow through the stages and roots as codes — gathered, concatenated
under one dictionary, compared, grouped, joined and sorted by the kernels —
and are decoded only when the engine pulls result rows.

Shapes the pipeline does not cover (record construction in output columns,
outer joins, grouping on keys containing nulls, group-by output columns that
read fields but are neither keys nor aggregates) raise
:class:`VectorizationError`, and the engine falls back to the Volcano
interpreter.  Unnests — inner and outer — are covered batch-natively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.caching.manager import estimate_size
from repro.caching.matching import (
    field_cache_key,
    join_side_cache_key,
    unnest_cache_key,
)
from repro.core.analysis.model import EMPTY_HINTS, NullabilityHints
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
from repro.core.parallel import Morsel, ParallelVectorizedExecutor, plan_fanout
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
    parameters_of,
)
from repro.core.sort import TopKAccumulator, concat_chunks, resolve_limit
from repro.errors import ExecutionError, PluginError, VectorizationError
from repro.obs.instrument import traced_scan, traced_stage
from repro.obs.trace import TraceBuilder
from repro.plugins.base import (
    FieldPath,
    InputPlugin,
    UnnestBatch,
    flatten_collections,
)
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


@dataclass
class Batch:
    """One columnar batch flowing between operators."""

    count: int
    columns: dict[ColumnKey, np.ndarray] = field(default_factory=dict)
    #: Per-binding global row positions (for lazy access and unnesting).
    oids: dict[str, np.ndarray] = field(default_factory=dict)
    #: Bound query-parameter values (``Parameter`` nodes evaluate against
    #: this); shared by every batch of one execution, never copied.
    params: Mapping[int | str, object] | None = None

    def take(self, selector: np.ndarray) -> "Batch":
        """Gather rows by boolean mask or integer positions."""
        if selector.dtype == np.bool_:
            # One pass over the mask, then position gathers: indexing every
            # column by the mask itself would re-scan it per column.
            selector = np.flatnonzero(selector)
        taken = Batch(count=len(selector), params=self.params)
        for key, column in self.columns.items():
            taken.columns[key] = column[selector]
        for binding, oids in self.oids.items():
            taken.oids[binding] = oids[selector]
        return taken


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
    return radix.bool_mask(materialize(value, count))


def bound_parameter(params: Mapping[int | str, object] | None, key: int | str):
    """The bound value of one query parameter."""
    if params is None or key not in params:
        display = f"?{key}" if isinstance(key, int) else f":{key}"
        raise ExecutionError(f"query parameter {display} is not bound")
    return params[key]


def _apply_predicate(batch: Batch, predicate: Evaluator) -> Batch | None:
    """Filter a batch by a predicate; ``None`` when nothing survives."""
    mask = as_bool_array(predicate(batch), batch.count)
    if not mask.any():
        return None
    if mask.all():
        return batch
    return batch.take(mask)


def _gather_joined(
    left: Batch, right: Batch, left_positions: np.ndarray, right_positions: np.ndarray
) -> Batch:
    """Assemble a join output batch by gathering both sides."""
    joined = Batch(
        count=len(left_positions),
        params=right.params if right.params is not None else left.params,
    )
    for key, column in left.columns.items():
        joined.columns[key] = column[left_positions]
    for binding, oids in left.oids.items():
        joined.oids[binding] = oids[left_positions]
    for key, column in right.columns.items():
        joined.columns[key] = column[right_positions]
    for binding, oids in right.oids.items():
        joined.oids[binding] = oids[right_positions]
    return joined


def concat_batches(batches: list[Batch]) -> Batch:
    """Concatenate a list of batches into one (join build sides)."""
    if not batches:
        return Batch(count=0)
    if len(batches) == 1:
        return batches[0]
    merged = Batch(
        count=sum(batch.count for batch in batches), params=batches[0].params
    )
    for key in batches[0].columns:
        merged.columns[key] = concat_chunks([batch.columns[key] for batch in batches])
    for binding in batches[0].oids:
        merged.oids[binding] = np.concatenate(
            [batch.oids[binding] for batch in batches]
        )
    return merged


# ---------------------------------------------------------------------------
# Pipeline counters
# ---------------------------------------------------------------------------


@dataclass
class PipelineCounters:
    """Execution counters produced while running a pipeline.

    Every stage writes into the counters object it is *passed* rather than
    into shared executor state, so concurrent workers can run the same
    pipeline with independent counters and merge them afterwards.
    """

    rows_scanned: int = 0
    batches_processed: int = 0
    values_extracted: int = 0
    values_from_cache: int = 0
    join_build_rows: int = 0
    join_output_rows: int = 0
    groups_built: int = 0
    output_rows: int = 0
    rows_sorted: int = 0
    unnest_output_rows: int = 0

    def merge(self, other: "PipelineCounters") -> None:
        for counter in fields(self):
            setattr(
                self,
                counter.name,
                getattr(self, counter.name) + getattr(other, counter.name),
            )


# ---------------------------------------------------------------------------
# Scan operator (the batch source of every pipeline)
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


class ScanOperator:
    """Produces the batch stream of one :class:`PhysScan`.

    The operator is the engine's single cache path: field columns held by
    the caching manager are served (and counted as hits) instead of
    re-extracted — looked up here, at scan time, never planned — remaining
    fields are scanned through the dataset's own plug-in, and columns
    extracted by a *complete* scan are admitted to the cache afterwards
    (:meth:`store_materialized`).

    ``deferred`` names the fields a selection directly above the scan does
    not need to evaluate its predicate: those that are not cached are left
    out of the stream and converted by :meth:`fetch_deferred` for the
    surviving OIDs only (§5.2, lazy plug-in behaviour).

    Batch production is side-effect-free apart from the counters argument and
    the (lock-guarded) materialization recorder, so multiple workers may pull
    disjoint row ranges concurrently via :meth:`iter_range`.
    """

    def __init__(
        self,
        plan: PhysScan,
        dataset: Dataset,
        plugin: InputPlugin,
        cache_manager=None,
        params: Mapping[int | str, object] | None = None,
        context=None,
        deferred: frozenset[FieldPath] = frozenset(),
    ):
        self.plan = plan
        self.binding = plan.binding
        self.dataset = dataset
        self.plugin = plugin
        self.cache_manager = cache_manager
        self.params = params
        #: Per-query resilience context; checked once per produced batch.
        self.context = context
        self.paths = [tuple(path) for path in plan.paths]
        self._cached: dict[FieldPath, np.ndarray] = {}
        if cache_manager is not None:
            for path in self.paths:
                entry = cache_manager.lookup(field_cache_key(dataset.name, path))
                if entry is not None:
                    self._cached[path] = entry.data
        uncached = [path for path in self.paths if path not in self._cached]
        self._uncached = [path for path in uncached if path not in deferred]
        self._deferred = [path for path in uncached if path in deferred]
        if self._cached and not self._uncached:
            self.total_rows = len(next(iter(self._cached.values())))
        else:
            self.total_rows = plugin.scan_row_count(dataset)
        # Chunk recorder for cache materialization: worth the references only
        # when the manager could admit at least one column of this format.
        self._recorder: _CoverageRecorder | None = None
        if (
            cache_manager is not None
            and self._uncached
            and cache_manager.policy.should_cache_field(plugin.format_name)
        ):
            self._recorder = _CoverageRecorder()

    @property
    def fully_cached(self) -> bool:
        return bool(self._cached) and not self._uncached

    @property
    def lazy(self) -> bool:
        """Does the selection above have fields to fetch after filtering?"""
        return bool(self._deferred)

    def iter_batches(
        self, counters: PipelineCounters, batch_size: int
    ) -> Iterator[Batch]:
        """The full batch stream (inline execution)."""
        if self.fully_cached:
            return self._iter_cached(0, self.total_rows, counters, batch_size)
        return self._batches_of(
            self.plugin.scan_batches(
                self.dataset, self._uncached, batch_size=batch_size
            ),
            counters,
        )

    def iter_range(
        self, start: int, stop: int, counters: PipelineCounters, batch_size: int
    ) -> Iterator[Batch]:
        """The batch stream of global rows ``[start, stop)`` (one morsel)."""
        if self.fully_cached:
            return self._iter_cached(start, stop, counters, batch_size)
        return self._batches_of(
            self.plugin.scan_batch_ranges(
                self.dataset, self._uncached, start, stop, batch_size=batch_size
            ),
            counters,
        )

    def _batches_of(self, stream, counters: PipelineCounters) -> Iterator[Batch]:
        for buffers in self._metered(stream):
            batch = self._to_batch(buffers, counters)
            if batch is not None:
                if self.context is not None:
                    self.context.note_batch(batch.count)
                yield batch

    def _metered(self, stream):
        """Charge the time spent inside the plug-in's stream — the raw-data
        parse cost — and the produced bytes to the plug-in's scan metrics.
        One flush per stream keeps the accounting off the per-batch path."""
        seconds = 0.0
        nbytes = 0
        try:
            while True:
                started = time.perf_counter()
                try:
                    buffers = next(stream)
                except StopIteration:
                    seconds += time.perf_counter() - started
                    return
                seconds += time.perf_counter() - started
                nbytes += _nbytes(buffers.columns)
                yield buffers
        finally:
            self.plugin.record_scan(seconds, nbytes)

    def _iter_cached(
        self, start: int, stop: int, counters: PipelineCounters, batch_size: int
    ) -> Iterator[Batch]:
        for begin in range(start, stop, batch_size):
            end = min(begin + batch_size, stop)
            batch = Batch(count=end - begin, params=self.params)
            batch.oids[self.binding] = np.arange(begin, end, dtype=np.int64)
            for path, full in self._cached.items():
                batch.columns[(self.binding, path)] = full[begin:end]
            counters.values_from_cache += (end - begin) * len(self._cached)
            counters.batches_processed += 1
            if self.context is not None:
                self.context.note_batch(batch.count)
            yield batch

    def _to_batch(self, buffers, counters: PipelineCounters) -> Batch | None:
        if buffers.count == 0:
            return None
        batch = Batch(count=buffers.count, params=self.params)
        oids = np.asarray(buffers.oids, dtype=np.int64)
        batch.oids[self.binding] = oids
        for path in self._uncached:
            batch.columns[(self.binding, path)] = buffers.column(path)
        start = int(oids[0])
        if self._recorder is not None and int(oids[-1]) - start == buffers.count - 1:
            self._recorder.add(start, buffers.count, buffers)
        if self._cached:
            for path, full in self._cached.items():
                batch.columns[(self.binding, path)] = full[oids]
            counters.values_from_cache += buffers.count * len(self._cached)
        counters.rows_scanned += buffers.count
        counters.values_extracted += buffers.count * len(self._uncached)
        counters.batches_processed += 1
        return batch

    def fetch_deferred(self, batch: Batch, counters: PipelineCounters) -> None:
        """Convert the deferred fields for the rows of ``batch`` — the
        survivors of the selection above — and attach them to it.  Selective
        extractions never enter the cache (they do not cover the dataset)."""
        oids = batch.oids[self.binding]
        started = time.perf_counter()
        buffers = self.plugin.scan_columns_at(self.dataset, self._deferred, oids)
        self.plugin.record_scan(
            time.perf_counter() - started, _nbytes(buffers.columns)
        )
        for path in self._deferred:
            batch.columns[(self.binding, path)] = buffers.column(path)
        counters.values_extracted += len(oids) * len(self._deferred)

    def store_materialized(self) -> None:
        """Admit columns covered by a complete scan to the adaptive cache
        (main thread, after execution finished)."""
        if self._recorder is None:
            return
        chunks = self._recorder.drain(self.total_rows)
        if chunks is None:
            return
        manager = self.cache_manager
        for path in self._uncached:
            column = concat_chunks([chunk.column(path) for chunk in chunks])
            if isinstance(column, np.ndarray) and column.dtype == object:
                # Mixed-type or nested values: no primitive column to keep.
                continue
            manager.store(
                field_cache_key(self.dataset.name, path),
                column,
                kind="field",
                dataset=self.dataset.name,
                source_format=self.plugin.format_name,
                description=f"{self.dataset.name}.{'.'.join(path)}",
            )


# ---------------------------------------------------------------------------
# Per-batch pipeline stages
# ---------------------------------------------------------------------------


class SelectStage:
    """Filter each batch by a predicate; over a lazy scan, fetch the deferred
    fields of the surviving rows afterwards."""

    def __init__(self, predicate: Evaluator, lazy_scan: ScanOperator | None = None):
        self.predicate = predicate
        self.lazy_scan = lazy_scan

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        selected = _apply_predicate(batch, self.predicate)
        if selected is not None and self.lazy_scan is not None:
            self.lazy_scan.fetch_deferred(selected, counters)
        return selected


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


class UnnestStage:
    """Flatten a nested collection of the parent binding into each batch.

    Batch-native: the plug-in's ``scan_unnest_batch`` returns flattened
    element buffers plus one repeat count per parent, and the parent columns
    are broadcast with a single ``np.repeat`` per batch — no per-parent
    round-trips.  Two source modes:

    * **scan-backed** (``plugin`` is set) — the parent binding's OIDs address
      the raw source directly; the plug-in flattens them with its
      offset-vector ``scan_unnest_batch``.  When the stage sits directly on
      the scan (``full_scan``) every parent passes through in order, so the
      flattened output is served from the adaptive cache when present and
      admitted to it after a complete run.
    * **column-backed** (``plugin`` is ``None``) — the parent binding is
      itself an unnest variable (nested-in-nested); the collection was
      materialized as an object column by the parent stage and is flattened
      in memory by :func:`repro.plugins.base.flatten_collections` into
      columns of the ``type_names`` the schema declares.

    Outer unnest emits one null child row for parents whose collection is
    empty or missing, matching the Volcano interpreter.  An outer unnest
    carrying a pushed-down element predicate is not vectorized (the planner
    never produces that shape; hand-built plans fall back to Volcano).
    """

    def __init__(
        self,
        plan: PhysUnnest,
        dataset: Dataset | None,
        plugin: InputPlugin | None,
        predicate: Evaluator | None,
        cache_manager=None,
        total_rows: int = 0,
        type_names: list[str] | None = None,
    ):
        self.binding = plan.binding
        self.path = plan.path
        self.var = plan.var
        self.element_paths = [tuple(path) for path in plan.element_paths]
        self.predicate = predicate
        self.outer = plan.outer
        self.dataset = dataset
        self.plugin = plugin
        self.type_names = type_names
        if self.outer and predicate is not None:
            raise VectorizationError(
                "outer unnest with an element predicate is served by the "
                "Volcano interpreter"
            )
        #: Values one flattened row accounts for in the extraction counters.
        self._width = max(len(self.element_paths), 1)
        self.cache_manager = cache_manager
        self.total_rows = total_rows
        self._cached: _CachedUnnest | None = None
        self._recorder: _CoverageRecorder | None = None
        if cache_manager is not None and plugin is not None:
            self._cache_key = unnest_cache_key(
                dataset.name, self.path, self.element_paths, self.outer
            )
            entry = cache_manager.lookup(self._cache_key)
            if entry is not None:
                self._cached = entry.data
            elif cache_manager.policy.should_cache_field(plugin.format_name):
                self._recorder = _CoverageRecorder()

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        if self._cached is not None:
            columns, positions = self._cached.slice(
                int(batch.oids[self.binding][0]), batch.count
            )
            counters.values_from_cache += len(positions) * self._width
        else:
            try:
                buffers = self._flatten(batch, counters)
            except PluginError as exc:
                raise VectorizationError(str(exc)) from exc
            columns, positions = buffers.columns, buffers.parent_positions()
        if len(positions) == 0:
            return None
        flattened = batch.take(positions)
        for path in self.element_paths:
            flattened.columns[(self.var, path)] = columns[path]
        counters.unnest_output_rows += flattened.count
        if self.predicate is not None:
            return _apply_predicate(flattened, self.predicate)
        return flattened

    def _flatten(self, batch: Batch, counters: PipelineCounters) -> UnnestBatch:
        if self.plugin is None:
            collection = batch.columns.get((self.binding, self.path))
            if collection is None:
                raise VectorizationError(
                    f"no materialized collection column for "
                    f"{self.binding!r}.{'.'.join(self.path)}"
                )
            buffers = flatten_collections(
                collection, self.element_paths, self.type_names, outer=self.outer
            )
            counters.rows_scanned += buffers.count
            return buffers
        parent_oids = batch.oids.get(self.binding)
        if parent_oids is None:
            raise VectorizationError(
                f"no OID column for unnest binding {self.binding!r}"
            )
        started = time.perf_counter()
        buffers = self.plugin.scan_unnest_batch(
            self.dataset, self.path, self.element_paths, parent_oids,
            outer=self.outer,
        )
        self.plugin.record_scan(
            time.perf_counter() - started, _nbytes(buffers.columns)
        )
        if self._recorder is not None:
            self._recorder.add(int(parent_oids[0]), batch.count, buffers)
        counters.rows_scanned += buffers.count
        counters.values_extracted += buffers.count * self._width
        return buffers

    def store_materialized(self) -> None:
        """Admit the flattened output of a complete scan to the cache."""
        if self._recorder is None:
            return
        chunks = self._recorder.drain(self.total_rows)
        if chunks is None:
            return
        repeats = np.concatenate([chunk.repeats for chunk in chunks])
        flattened = _CachedUnnest(
            columns={
                path: concat_chunks([chunk.column(path) for chunk in chunks])
                for path in self.element_paths
            },
            offsets=np.concatenate(([0], np.cumsum(repeats))),
            positions=np.repeat(np.arange(len(repeats), dtype=np.int64), repeats),
        )
        self.cache_manager.store(
            self._cache_key,
            flattened,
            kind="unnest",
            dataset=self.dataset.name,
            source_format=self.plugin.format_name,
            description=f"unnest {self.dataset.name}.{'.'.join(self.path)}",
        )


class HashJoinStage:
    """Probe an already-built join table with each batch.

    The build side (a materialized :class:`Batch` plus its
    :class:`~repro.core.executor.radix.JoinTable`) is immutable once
    constructed, so any number of workers can probe it concurrently.
    """

    def __init__(
        self,
        build: Batch,
        table: radix.JoinTable,
        build_kind: str,
        right_key: Evaluator,
        residual: Evaluator | None,
    ):
        self.build = build
        self.table = table
        self.build_kind = build_kind
        self.right_key = right_key
        self.residual = residual

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        right_keys = _join_keys(self.right_key(batch), batch.count)
        probe_keys, kept = _align_probe_keys(self.build_kind, right_keys)
        left_positions, right_positions = radix.probe_join_table(
            self.table, probe_keys
        )
        if len(left_positions) == 0:
            return None
        if kept is not None:
            right_positions = kept[right_positions]
        counters.join_output_rows += len(left_positions)
        joined = _gather_joined(self.build, batch, left_positions, right_positions)
        if self.residual is not None:
            return _apply_predicate(joined, self.residual)
        return joined


class NestedLoopJoinStage:
    """Cross-product each batch against a materialized build side, in probe
    order then build order (the Volcano interpreter's order)."""

    def __init__(self, build: Batch, predicate: Evaluator | None):
        self.build = build
        self.predicate = predicate

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        left = self.build
        left_positions = np.tile(
            np.arange(left.count, dtype=np.int64), batch.count
        )
        right_positions = np.repeat(
            np.arange(batch.count, dtype=np.int64), left.count
        )
        joined = _gather_joined(left, batch, left_positions, right_positions)
        if self.predicate is not None:
            return _apply_predicate(joined, self.predicate)
        return joined


@dataclass
class CompiledPipeline:
    """One scan source plus the per-batch stages applied to its stream.

    ``always_empty`` marks pipelines that provably produce nothing (an inner
    join whose build side materialized to zero rows); callers skip scanning
    entirely, exactly as the pre-pipeline executor did.
    """

    source: ScanOperator
    stages: list
    always_empty: bool = False
    #: Per-query resilience context, checked once per processed batch so a
    #: deadline/cancellation interrupts between stages of the pipeline.
    context: "object | None" = None

    def process(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        if self.context is not None:
            self.context.check()
        for stage in self.stages:
            batch = stage.apply(batch, counters)
            if batch is None:
                return None
        return batch


class PipelineCompiler:
    """Lower a physical plan subtree into a :class:`CompiledPipeline`.

    Join build sides are materialized *during* compilation (they are blocking
    operators) through the executor's ``materializer`` — which runs them
    inline or fans their scans out, by the same decision as the plan root —
    and their join tables are built in one pass unless the adaptive cache
    already holds the table of the same build side.
    """

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        batch_size: int,
        materializer: Callable[[CompiledPipeline], Batch],
        evaluator: Callable[[Expression], Evaluator],
        cache_manager=None,
        counters: PipelineCounters | None = None,
        params: Mapping[int | str, object] | None = None,
        trace: TraceBuilder | None = None,
        context=None,
    ):
        self.catalog = catalog
        self.plugins = plugins
        self.batch_size = max(int(batch_size), 1)
        self.cache_manager = cache_manager
        self.counters = counters if counters is not None else PipelineCounters()
        self.materializer = materializer
        #: Expression -> its generated per-batch function (the plan's
        #: ``GeneratedQuery.function_for``).
        self.evaluator = evaluator
        #: Bound query-parameter values, attached to every scan batch.
        self.params = params
        #: Per-query resilience context, handed to every scan operator and
        #: compiled pipeline so batch production observes deadline/cancel.
        self.context = context
        #: Span trace of the current execution; ``None`` (the default) keeps
        #: every compiled stage unwrapped — tracing costs nothing when off.
        self.trace = trace
        #: Every scan operator and full-scan unnest stage created while
        #: compiling — the executor flushes their cache materializations
        #: after a successful run.
        self.cache_writers: list = []
        #: The kernel of every hash join compiled, in plan walk order.
        self.join_kernels: list[str] = []
        #: Build sides already materialized, by plan node: a chain that did
        #: not run per key value hands its first input over.
        self.built: dict[int, Batch] = {}

    def compile(self, plan: PhysicalPlan) -> CompiledPipeline:
        if isinstance(plan, PhysScan):
            return self._scan_pipeline(plan)
        if isinstance(plan, PhysSelect):
            lazy_scan = None
            if isinstance(plan.child, PhysScan):
                pipeline = self._scan_pipeline(plan.child, plan.predicate)
                if pipeline.source.lazy:
                    lazy_scan = pipeline.source
            else:
                pipeline = self.compile(plan.child)
            pipeline.stages.append(
                traced_stage(
                    self.trace,
                    plan,
                    SelectStage(self.evaluator(plan.predicate), lazy_scan),
                )
            )
            return pipeline
        if isinstance(plan, PhysUnnest):
            type_names = None
            try:
                dataset, plugin = self._scan_source(plan, plan.binding)
            except VectorizationError:
                # The parent binding is itself an unnest variable
                # (nested-in-nested): the collection travels as a
                # materialized object column instead of plug-in OIDs.
                dataset = plugin = None
                element = element_type(self._binding_type(plan.child, plan.binding), plan.path)
                type_names = [declared_type(element, path) for path in plan.element_paths]
            pipeline = self.compile(plan.child)
            # Directly over its scan the stage sees every parent, in order:
            # only then may the flattened output come from / go to the cache.
            full_scan = isinstance(plan.child, PhysScan)
            stage = UnnestStage(
                plan,
                dataset,
                plugin,
                self._optional(plan.predicate),
                cache_manager=self.cache_manager if full_scan else None,
                total_rows=pipeline.source.total_rows,
                type_names=type_names,
            )
            self.cache_writers.append(stage)
            pipeline.stages.append(traced_stage(self.trace, plan, stage))
            return pipeline
        if isinstance(plan, PhysHashJoin):
            if plan.outer:
                raise VectorizationError(
                    "outer join is served by the Volcano interpreter"
                )
            left = self.built.pop(id(plan.left), None)
            if left is None:
                left = self.materializer(self.compile(plan.left))
            pipeline = self.compile(plan.right)
            if left.count == 0 or pipeline.always_empty:
                # An inner join with an empty build side produces nothing;
                # bail out before key evaluation (an empty Batch has no
                # columns, which would needlessly demote the query to the
                # Volcano tier).
                pipeline.always_empty = True
                return pipeline
            left_keys = _join_keys(self.evaluator(plan.left_key)(left), left.count)
            table = self._build_table(plan, left_keys)
            self.join_kernels.append(table.kernel)
            pipeline.stages.append(
                traced_stage(
                    self.trace,
                    plan,
                    HashJoinStage(
                        left,
                        table,
                        left_keys.dtype.kind,
                        self.evaluator(plan.right_key),
                        self._optional(plan.residual),
                    ),
                )
            )
            return pipeline
        if isinstance(plan, PhysNestedLoopJoin):
            if plan.outer:
                raise VectorizationError(
                    "outer join is served by the Volcano interpreter"
                )
            left = self.materializer(self.compile(plan.left))
            pipeline = self.compile(plan.right)
            if left.count == 0 or pipeline.always_empty:
                pipeline.always_empty = True
                return pipeline
            pipeline.stages.append(
                traced_stage(
                    self.trace,
                    plan,
                    NestedLoopJoinStage(left, self._optional(plan.predicate)),
                )
            )
            return pipeline
        raise VectorizationError(
            f"cannot interpret operator {plan.describe()} over batches"
        )

    def store_scan_caches(self) -> None:
        """Flush the recorded cache materializations (main thread)."""
        for writer in self.cache_writers:
            writer.store_materialized()

    # -- helpers -------------------------------------------------------------

    def _optional(self, expression: Expression | None) -> Evaluator | None:
        return None if expression is None else self.evaluator(expression)

    def _scan_pipeline(
        self, plan: PhysScan, predicate: Expression | None = None
    ) -> CompiledPipeline:
        """The pipeline of one scan.  ``predicate`` is the selection sitting
        directly on it: over the verbose formats the fields it does not read
        are deferred until after the filter (lazy materialization, §5.2)."""
        dataset, plugin = self._scan_source(plan, plan.binding)
        deferred: frozenset[FieldPath] = frozenset()
        if predicate is not None and dataset.format in ("csv", "json"):
            needed = {
                tuple(path)
                for binding, path in predicate.referenced_fields()
                if binding == plan.binding
            }
            deferred = frozenset(tuple(path) for path in plan.paths) - needed
        operator = ScanOperator(
            plan, dataset, plugin, self.cache_manager, params=self.params,
            context=self.context, deferred=deferred,
        )
        self.cache_writers.append(operator)
        return CompiledPipeline(
            traced_scan(self.trace, plan, operator), [], context=self.context
        )

    def _build_table(
        self, plan: PhysHashJoin, left_keys: np.ndarray
    ) -> radix.JoinTable:
        """The join table of a join's build side (see :meth:`build_side`)."""
        return self.build_side(
            plan.left,
            plan.left_key,
            len(left_keys),
            lambda: radix.build_join_table(left_keys),
        )

    def build_side(
        self,
        side: PhysicalPlan,
        key: Expression,
        rows: int,
        build: Callable[[], Any],
        layout: str = "",
        keep: Callable[[Any], bool] | None = None,
    ) -> Any:
        """What ``build()`` makes of a join build side of ``rows`` rows — a
        join table, or with ``layout="slots"`` its key slots — or the cached
        one when the adaptive cache holds it for the same build plan, join
        key and bound build-side parameter values (§6: ``A ⋈ B`` then
        ``A ⋈ C``).  A fresh build that ``keep`` rejects is the caller's to
        discard: it is neither cached nor counted as a build."""
        cache_key = self._build_side_key(side, key, layout)
        cached = self._cached(cache_key, rows)
        if cached is not None:
            return cached
        built = build()
        if keep is not None and not keep(built):
            return built
        self.counters.join_build_rows += rows
        source = next(node for node in side.walk() if isinstance(node, PhysScan))
        source_format = self.catalog.get(source.dataset).format
        if cache_key is not None:
            self.cache_manager.store(
                cache_key,
                built,
                kind="join_side",
                dataset=source.dataset,
                source_format=source_format,
                description=f"join build side ({layout or built.kernel})",
            )
        return built

    def cached_build_side(
        self, side: PhysicalPlan, key: Expression, rows: int
    ) -> radix.JoinTable | None:
        """The cached join table of a build side, if the cache holds one
        (see :meth:`build_side`)."""
        return self._cached(self._build_side_key(side, key, ""), rows)

    def _cached(self, cache_key: tuple | None, rows: int) -> Any:
        if cache_key is None:
            return None
        entry = self.cache_manager.lookup(cache_key)
        if entry is not None and entry.data.build_size == rows:
            return entry.data
        if entry is not None:
            self.cache_manager.evict(cache_key)  # a stale build of another cardinality
        return None

    def _build_side_key(
        self, side: PhysicalPlan, key: Expression, layout: str
    ) -> tuple | None:
        """The cache key of a build side (``None``: not cached)."""
        if self.cache_manager is None:
            return None
        cache_key = join_side_cache_key(side.fingerprint(), key.fingerprint())
        if layout:
            cache_key += (layout,)
        # The fingerprints abstract parameter values; fold the bound values
        # of the build side's parameters back in so builds with different
        # constants (and coincidentally equal cardinalities) never share a
        # table.
        parameters = dict.fromkeys(parameters_of(side))
        parameters.update((parameter.key, None) for parameter in iter_parameters(key))
        if parameters:
            bound = self.params or {}
            cache_key += tuple((name, bound.get(name)) for name in parameters)
            try:
                hash(cache_key)
            except TypeError:
                return None  # unhashable values: no build-side caching
        return cache_key

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
    ) -> tuple[Dataset, InputPlugin]:
        for node in plan.walk():
            if isinstance(node, PhysScan) and node.binding == binding:
                dataset = self.catalog.get(node.dataset)
                plugin = self.plugins.get(dataset.format)
                if plugin is None:
                    raise ExecutionError(
                        f"no plug-in registered for format {dataset.format!r}"
                    )
                return dataset, plugin
        raise VectorizationError(
            f"binding {binding!r} is not backed by a scan in this plan"
        )


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

    Returns (fingerprint → group-key index, unique aggregate calls).  Raises
    :class:`VectorizationError` for output columns that read fields but are
    neither, which only the Volcano interpreter serves.
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
        if not contains_aggregate(column.expression) and column.expression.referenced_fields():
            raise VectorizationError(
                f"group-by output column {column.name!r} is neither a group "
                "key nor an aggregate; served by the Volcano interpreter"
            )
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
# Root tasks: partial states per scan range and their ordered merges
# ---------------------------------------------------------------------------


class _RootTask:
    """Protocol of a plan root over a compiled pipeline.

    ``new_state``/``update``/``finish_morsel`` run over one scan range each —
    the whole scan when the executor runs inline, one morsel per worker call
    under a fan-out; ``merge`` runs on the calling thread and consumes the
    partial results in range order.
    """

    #: The grouping kernel(s) a group-by root ran (``None`` for other roots).
    group_kernel: str | None = None

    def new_state(self) -> Any:
        raise NotImplementedError

    def update(self, state: Any, batch: Batch, counters: PipelineCounters) -> None:
        raise NotImplementedError

    def saturated(self, state: Any) -> bool:
        """Whether this range's contribution is complete — further batches
        cannot change it, so the scan of the range may stop."""
        return False

    def finish_morsel(self, state: Any, counters: PipelineCounters) -> Any:
        return state

    def merge(self, partials: list, counters: PipelineCounters) -> Any:
        raise NotImplementedError


class _CollectRoot(_RootTask):
    """Join build side: the pipeline's output batches, concatenated in range
    order — so the materialized batch (and therefore every join-table
    position in it) is the same however the scan was split."""

    def new_state(self) -> list[Batch]:
        return []

    def update(
        self, state: list[Batch], batch: Batch, counters: PipelineCounters
    ) -> None:
        state.append(batch)

    def merge(self, partials: list, counters: PipelineCounters) -> Batch:
        return concat_batches([batch for batches in partials for batch in batches])


def _make_root(
    plan: PhysReduce | PhysNest,
    sort_plan: PhysSort | None,
    params: Mapping[int | str, object] | None,
    hints: NullabilityHints,
    evaluator: Callable[[Expression], Evaluator],
) -> _RootTask:
    keys = grouping_keys(plan)
    if keys is not None:
        return _NestRoot(plan, keys, params, hints, evaluator)
    if sort_plan is None:
        return _ProjectionRoot(plan, evaluator)
    # The engine's epilogue applies the sort; the root only bounds what each
    # scan range emits.  Pure LIMIT — and LIMIT 0, which produces nothing —
    # keeps a prefix; ORDER BY + LIMIT K keeps the range's top-K candidates.
    limit = resolve_limit(sort_plan.limit, params)
    if sort_plan.keys and limit:
        return _TopKProjectionRoot(
            plan, evaluator, limit, sort_plan.keys, hints.non_null_columns
        )
    return _ProjectionRoot(plan, evaluator, limit)


class _ProjectionRoot(_RootTask):
    """Reduce without aggregates: per-range column chunks, concatenated in
    range order (a fan-out is bit-identical to an inline run).

    ``limit`` (a LIMIT's value) truncates each range's output to its first
    ``limit`` rows: any range-order prefix of the result only needs a prefix
    of every range, so the root never materializes more than
    ``ranges x limit`` rows while the engine slices the exact prefix.
    """

    def __init__(
        self,
        plan: PhysReduce,
        evaluator: Callable[[Expression], Evaluator],
        limit: int | None = None,
    ):
        self.plan = plan
        self.names = [column.name for column in plan.columns]
        #: (output name, evaluator of its head), first occurrence per name.
        self.heads = [
            (column.name, evaluator(column.expression))
            for column in unique_output_columns(plan.columns)
        ]
        self.limit = limit

    def new_state(self) -> dict:
        return {"chunks": {name: [] for name in self.names}, "total": 0}

    def update(self, state: dict, batch: Batch, counters: PipelineCounters) -> None:
        for name, head in self.heads:
            state["chunks"][name].append(materialize(head(batch), batch.count))
        state["total"] += batch.count

    def saturated(self, state: dict) -> bool:
        # LIMIT 0 still takes one batch, so the truncated empty buffers
        # keep their dtypes.
        return self.limit is not None and state["total"] >= max(self.limit, 1)

    def finish_morsel(self, state: dict, counters: PipelineCounters) -> dict:
        if self.limit is not None and state["total"] > self.limit:
            truncated = {
                name: [concat_chunks(state["chunks"][name])[: self.limit]]
                for name in self.names
            }
            state = {"chunks": truncated, "total": self.limit}
        counters.output_rows += state["total"]
        return state

    def merge(self, partials: list, counters: PipelineCounters):
        if self.limit is not None:
            # The engine slices the exact prefix after the merge; report the
            # emitted row count, not the per-range prefixes' sum.
            counters.output_rows = min(counters.output_rows, self.limit)
        columns: dict[str, Any] = {}
        for name in self.names:
            parts = [
                chunk
                for partial in partials
                for chunk in partial["chunks"][name]
            ]
            columns[name] = concat_chunks(parts)
        return self.names, columns


class _TopKProjectionRoot(_ProjectionRoot):
    """ORDER BY + LIMIT K > 0 without aggregates: each range streams through
    a :class:`TopKAccumulator` and emits its candidates; the engine's stable
    sort of their range-order concatenation is the exact result."""

    def __init__(
        self,
        plan: PhysReduce,
        evaluator: Callable[[Expression], Evaluator],
        limit: int,
        keys: list[tuple[str, bool]],
        non_null: frozenset[str],
    ):
        super().__init__(plan, evaluator, limit)
        self.keys = keys
        self.non_null = non_null

    def new_state(self) -> TopKAccumulator:
        return TopKAccumulator(self.names, self.keys, self.limit, self.non_null)

    def update(
        self, state: TopKAccumulator, batch: Batch, counters: PipelineCounters
    ) -> None:
        columns = {
            name: materialize(head(batch), batch.count) for name, head in self.heads
        }
        state.push(columns, batch.count)

    def saturated(self, state: TopKAccumulator) -> bool:
        return False

    def finish_morsel(
        self, state: TopKAccumulator, counters: PipelineCounters
    ) -> dict:
        counters.rows_sorted += state.rows_sorted
        total, columns = state.finish()
        counters.output_rows += total
        # A range without rows contributes no chunk: an empty stand-in
        # column would not carry the real dtype into the concatenation.
        return {
            "chunks": {
                name: [column] if total else [] for name, column in columns.items()
            },
            "total": total,
        }


#: One partial aggregate column: (aggregate fingerprint, the function that
#: computed it).  ``avg`` is carried as its ``sum`` and ``count`` parts.
Part = tuple[tuple, str]


def aggregate_parts(aggregate: AggregateCall) -> list[Part]:
    """The partial columns one aggregate is computed from."""
    fingerprint = aggregate.fingerprint()
    if aggregate.func == "avg":
        return [(fingerprint, "sum"), (fingerprint, "count")]
    return [(fingerprint, aggregate.func)]


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


class _NestRoot(_RootTask):
    """Group-by — and global aggregate, the group-by with no keys: per-range
    partial grouping + partial aggregates, then a second-level grouped merge
    over the union of partial groups.

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
        params: Mapping[int | str, object] | None,
        hints: NullabilityHints,
        evaluator: Callable[[Expression], Evaluator],
    ):
        self.plan = plan
        self.params = params
        self.names = [column.name for column in plan.columns]
        group_key_fingerprints, self.aggregates = collect_nest_aggregates(plan)
        self.keys = [evaluator(expression) for expression in keys]
        #: The partial columns the aggregates are computed from.
        self.parts = [
            part for aggregate in self.aggregates for part in aggregate_parts(aggregate)
        ]
        #: Aggregate fingerprint -> evaluator of its argument.
        self.arguments = {
            aggregate.fingerprint(): evaluator(aggregate.argument)
            for aggregate in self.aggregates
            if aggregate.argument is not None
        }
        #: Aggregates whose argument the static analyzer proved never
        #: missing: their kernels skip the missing-value scan.
        self.non_null = hints.non_null_aggregate_args
        #: (output name, group-key index | evaluator of the head over the
        #: per-group aggregate columns) per output column.
        self.heads = [
            (name, head if isinstance(head, int) else evaluator(head))
            for name, head in nest_heads(
                plan, group_key_fingerprints, self.aggregates
            )
        ]

    def new_state(self) -> dict:
        return {
            "key_chunks": [[] for _ in self.keys],
            "argument_chunks": {fingerprint: [] for fingerprint in self.arguments},
            "total": 0,
            "partials": [],
        }

    def update(self, state: dict, batch: Batch, counters: PipelineCounters) -> None:
        arguments = {
            fingerprint: materialize(argument(batch), batch.count)
            for fingerprint, argument in self.arguments.items()
        }
        if not self.keys:
            state["partials"].append(
                _GroupPartial([], self._aggregate(batch.count, 1, arguments), None)
            )
            return
        for chunks, key in zip(state["key_chunks"], self.keys):
            chunks.append(materialize(key(batch), batch.count))
        for fingerprint, values in arguments.items():
            state["argument_chunks"][fingerprint].append(values)
        state["total"] += batch.count

    def finish_morsel(
        self, state: dict, counters: PipelineCounters
    ) -> list[_GroupPartial]:
        if not self.keys or state["total"] == 0:
            # Folded batch by batch, or an empty range: no partial groups.
            return state["partials"]
        key_arrays = [concat_chunks(chunks) for chunks in state["key_chunks"]]
        # radix_group raises VectorizationError for keys containing missing
        # values, which the engine turns into a Volcano fallback (under a
        # fan-out the pool re-raises it on the calling thread).
        grouping = radix.radix_group(key_arrays)
        arguments = {
            fingerprint: concat_chunks(chunks)
            for fingerprint, chunks in state["argument_chunks"].items()
        }
        return [
            _GroupPartial(
                grouping.key_arrays,
                self._aggregate(grouping.group_ids, grouping.num_groups, arguments),
                grouping.kernel,
            )
        ]

    def _aggregate(
        self,
        group_ids: np.ndarray | int,
        num_groups: int,
        arguments: Mapping[tuple, Any],
    ) -> dict[Part, Any]:
        """Every part over one grouping of its argument column
        (``group_ids`` a row count: the one group)."""
        return {
            (fingerprint, func): radix.group_aggregate(
                func,
                group_ids,
                num_groups,
                arguments.get(fingerprint),
                fingerprint in self.non_null,
            )
            for fingerprint, func in self.parts
        }

    def merge(self, partials: list, counters: PipelineCounters):
        partials = [partial for ranged in partials for partial in ranged]
        if not partials:
            if self.keys:
                return self.names, {name: [] for name in self.names}
            # No input at all: the one group of a global aggregate answers.
            no_input = dict.fromkeys(self.arguments, _NO_VALUES)
            partials = [_GroupPartial([], self._aggregate(0, 1, no_input), None)]
        merged = partials[0]  # one partial: already final
        if len(partials) > 1:
            merged = self.fold(
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
        return self.finish(merged, counters)

    def fold(
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

    def finish(self, merged: _GroupPartial, counters: PipelineCounters):
        """The output columns of the final groups."""
        num_groups = 1
        if self.keys:
            num_groups = len(merged.key_arrays[0])
            self.group_kernel = merged.kernel
            counters.groups_built += num_groups
        counters.output_rows += num_groups
        group_batch = Batch(count=num_groups, params=self.params)
        for index, aggregate in enumerate(self.aggregates):
            fingerprint = aggregate.fingerprint()
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
        return self.names, columns


# ---------------------------------------------------------------------------
# Aggregates over a one-key join chain, per key value
# ---------------------------------------------------------------------------

#: The aggregates key products combine.
_FACTORIZED_FUNCS = frozenset({"count", "sum", "avg", "min", "max"})

#: The column that carries a row's key slot (see :class:`FactorizedChain`).
_SLOT: ColumnKey = ("__slot__", ())


@dataclass
class FactorizedChain:
    """A join chain an aggregate runs over per join-key value, without
    building the joined rows.

    Every input of the chain holds one join-key field, and a joined row has
    the same value in all of them, so the joined rows of one key value are
    the product of each input's rows with that value.  The first input is
    materialized like a join build side and its keys are numbered as
    *slots* (:class:`~repro.core.executor.radix.KeySlots`); every other input
    streams through a stage that keeps its rows whose key the first input
    holds, with the slot attached.  Each input reduces to per-slot partials
    (:class:`_SlotRoot`) — its row count ``c_i(k)`` and, per aggregate whose
    argument reads it, the non-missing count and sum — and the aggregates
    are key products over the slots every input holds:
    ``COUNT(*) = Σ_k Π_i c_i(k)``, ``SUM(x_j) = Σ_k s_j(k) Π_{i≠j} c_i(k)``
    (COUNT(x_j) alike, AVG from the two), MIN/MAX over those slots.  With
    group keys, every row of the input they read is an output row of its
    own, weighed by the other inputs' partials of its slot, and the group-by
    fold groups the rows.
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
    try:
        _, aggregates = collect_nest_aggregates(plan)
    except VectorizationError:
        return None
    owners: dict[tuple, int] = {}
    for aggregate in aggregates:
        if aggregate.func not in _FACTORIZED_FUNCS:
            return None
        if aggregate.argument is not None:
            index = reader(aggregate.argument)
            if index is None:
                return None
            owners[aggregate.fingerprint()] = index
    # Every input but the first starts the probe side of exactly one join.
    probes: dict[int, PhysHashJoin] = {}
    for join in joins:
        start = join.right
        while isinstance(start, PhysHashJoin):
            start = start.left
        probes[id(start)] = join
    return FactorizedChain(
        joins,
        inputs,
        [next(iter(key_fields[index].values())) for index in range(len(inputs))],
        [probes[id(subplan)] for subplan in inputs[1:]],
        owners,
        grouped,
    )


class SlotStage:
    """Keep the rows of a batch whose join key has a slot, with the slot
    attached as a column (see :class:`FactorizedChain`)."""

    def __init__(self, space: radix.KeySlots, key: Evaluator):
        self.space = space
        self.key = key

    def apply(self, batch: Batch, counters: PipelineCounters) -> Batch | None:
        keys, kept = _align_probe_keys(
            self.space.kind, _join_keys(self.key(batch), batch.count)
        )
        slots = radix.slots_of(self.space, keys)
        if kept is not None:
            slots, aligned = np.full(batch.count, -1, dtype=np.int64), slots
            slots[kept] = aligned
        keep = slots >= 0
        if not keep.any():
            return None
        if not keep.all():
            batch, slots = batch.take(keep), slots[keep]
        batch.columns[_SLOT] = slots
        return batch


def _slot_of(batch: Batch) -> np.ndarray:
    return batch.columns[_SLOT]


@dataclass
class _SlotPartials:
    """One input of a factorized chain, reduced over the slots."""

    #: Rows per slot.
    rows: np.ndarray
    #: (aggregate fingerprint, ``count`` | ``sum``) -> per-slot column.
    sums: dict[Part, Any]
    #: The columns of the rows that a per-slot column cannot stand for —
    #: the group keys (by index) and the MIN/MAX arguments (by fingerprint),
    #: every argument of the grouped input — with their slots (``_SLOT``).
    kept: dict[Any, Any]


class _SlotRoot(_RootTask):
    """The per-slot partials of one input of a factorized chain: each range
    collects its rows' slots and argument columns, as a group-by's range
    does, and reduces them with the slots as group ids; ranges add their
    partials up (integer sums turn exact past int64, as every group-by's;
    a range without rows adds only its zero row counts) and concatenate
    their kept rows in range order."""

    def __init__(
        self,
        size: int,
        summed: Mapping[tuple, tuple[Evaluator, list[str]]],
        kept: Mapping[Any, Evaluator],
        non_null: frozenset[tuple],
    ):
        self.size = size
        #: Aggregate fingerprint -> (its argument, the parts summed per slot).
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

    def update(self, state: dict, batch: Batch, counters: PipelineCounters) -> None:
        for name, column in self.columns.items():
            state[name].append(materialize(column(batch), batch.count))

    def finish_morsel(self, state: dict, counters: PipelineCounters) -> _SlotPartials:
        if not state[_SLOT]:
            # A range without a row adds no sums: its argument columns would
            # be float64 (no chunks), and their sums could turn int sums
            # float.
            return _SlotPartials(
                np.zeros(self.size, dtype=np.int64), {}, {name: [] for name in self.kept}
            )
        slots = concat_chunks(state[_SLOT])
        sums = {}
        for fingerprint, (_, funcs) in self.summed.items():
            values = concat_chunks(state[fingerprint])
            for func in funcs:
                sums[(fingerprint, func)] = radix.group_aggregate(
                    func, slots, self.size, values, fingerprint in self.non_null
                )
        kept = {name: state[name] for name in self.kept}
        return _SlotPartials(np.bincount(slots, minlength=self.size), sums, kept)

    def merge(self, partials: list, counters: PipelineCounters) -> _SlotPartials:
        rows = sum(partial.rows for partial in partials)
        sums: dict[Part, Any] = {}
        for partial in partials:
            for part, column in partial.sums.items():
                sums[part] = (
                    radix.null_safe_arith("+", sums[part], column)
                    if part in sums
                    else column
                )
        kept = {
            name: concat_chunks([chunk for partial in partials for chunk in partial.kept[name]])
            for name in self.kept
        }
        return _SlotPartials(rows, sums, kept)


def _slot_root(
    chain: FactorizedChain, root: _NestRoot, index: int, size: int
) -> _SlotRoot:
    """The reduction of input ``index`` of ``chain`` over ``size`` slots:
    MIN/MAX arguments and every column of the grouped input keep their
    rows, the other arguments are counted and summed per slot."""
    summed: dict[tuple, tuple[Evaluator, list[str]]] = {}
    kept: dict[Any, Evaluator] = {}
    if index == chain.grouped:
        kept.update(enumerate(root.keys))
    for aggregate in root.aggregates:
        fingerprint = aggregate.fingerprint()
        if chain.owners.get(fingerprint) != index:
            continue
        argument = root.arguments[fingerprint]
        if index == chain.grouped or aggregate.func in ("min", "max"):
            kept[fingerprint] = argument
        else:
            # The non-missing count weighs SUM's keys too (see
            # _combine_per_key).
            funcs = ["count"] if aggregate.func == "count" else ["count", "sum"]
            summed[fingerprint] = (argument, funcs)
    if kept:
        kept[_SLOT] = _slot_of
    return _SlotRoot(size, summed, kept, root.non_null)


def _combine_per_key(
    chain: FactorizedChain,
    root: _NestRoot,
    reductions: list[_SlotPartials],
    held: np.ndarray,
) -> _GroupPartial:
    """The root's parts as key products over the ``held`` slots (every
    input has rows there), folded by the group keys.  A product that could
    pass int64 is taken in exact Python ints, as the joined rows' sums
    would be."""
    held_slots = np.flatnonzero(held)
    row_counts = [reduced.rows[held_slots] for reduced in reductions]
    rank = None  # held slot -> its position among them, for the kept rows
    if any(reduced.kept for reduced in reductions):
        rank = np.empty(len(held), dtype=np.int64)
        rank[held_slots] = np.arange(len(held_slots))
    row_key = None
    group_keys: list[np.ndarray] = []
    if chain.grouped is not None:
        kept = reductions[chain.grouped].kept
        keep = held[kept[_SLOT]]
        row_key = rank[kept[_SLOT][keep]]
        group_keys = [kept[index][keep] for index in range(len(root.keys))]
        row_counts = [count[row_key] for count in row_counts]
        row_counts[chain.grouped] = np.ones(len(row_key), dtype=np.int64)
    rows = len(row_counts[0])

    def product(skip: int | None = None) -> np.ndarray:
        factors = [count for index, count in enumerate(row_counts) if index != skip]
        result = factors[0]
        for factor in factors[1:]:
            result = radix.null_safe_arith("*", result, factor)
        return result

    def reduced(owner: int, fingerprint: tuple, func: str) -> Any:
        """Input ``owner``'s ``func`` partial of an argument, per output
        row."""
        partials = reductions[owner]
        if fingerprint in partials.kept:
            slots = partials.kept[_SLOT]
            keep = held[slots]
            if owner == chain.grouped:  # a group of one per row
                ids, size = np.arange(rows), rows
            else:
                ids, size = rank[slots[keep]], len(held_slots)
            column = radix.group_aggregate(
                func, ids, size, partials.kept[fingerprint][keep],
                fingerprint in root.non_null,
            )
        else:
            column = partials.sums[(fingerprint, func)][held_slots]
        spread = row_key is not None and owner != chain.grouped
        return column[row_key] if spread else column

    columns: dict[Part, Any] = {}
    for aggregate in root.aggregates:
        fingerprint = aggregate.fingerprint()
        owner = chain.owners.get(fingerprint)
        if owner is None:  # COUNT(*)
            columns[(fingerprint, "count")] = product()
            continue
        if aggregate.func in ("min", "max"):
            columns[(fingerprint, aggregate.func)] = reduced(
                owner, fingerprint, aggregate.func
            )
            continue
        present = reduced(owner, fingerprint, "count")
        weight = product(owner)
        if aggregate.func != "sum":
            columns[(fingerprint, "count")] = radix.null_safe_arith("*", present, weight)
        if aggregate.func != "count":
            sums = radix.null_safe_arith("*", reduced(owner, fingerprint, "sum"), weight)
            if sums.dtype.kind == "f":
                # A key without argument values adds no value at all, so a
                # global SUM over none stays the integer 0 the joined rows
                # give.
                sums[present == 0] = np.nan
            columns[(fingerprint, "sum")] = sums
    return root.fold(group_keys, columns, rows, set())


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class VectorizedExecutor:
    """The batch pipeline's executor — the only NumPy entry the engine calls,
    the ``codegen`` tier.  Scans run inline
    on the calling thread or fan out over morsels, decided per scan by
    :func:`repro.core.parallel.plan_fanout`."""

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        batch_size: int = DEFAULT_BATCH_SIZE,
        num_workers: int = 1,
        cache_manager=None,
        params: Mapping[int | str, object] | None = None,
        hints: NullabilityHints | None = None,
        trace: TraceBuilder | None = None,
        context=None,
    ):
        self.catalog = catalog
        self.plugins = plugins
        self.batch_size = max(int(batch_size), 1)
        self.cache_manager = cache_manager
        self.params = params
        #: Per-query resilience context (deadline/cancel): checked per batch
        #: inside pipelines and per morsel by the fan-out workers.
        self.context = context
        #: Static nullability hints from the plan analyzer: output columns /
        #: aggregate arguments proven non-nullable skip missing-mask work.
        self.hints = hints if hints is not None else EMPTY_HINTS
        #: Span trace of this execution (``None`` = untraced, zero overhead).
        #: Traced stages are shared by every fan-out worker; their span
        #: accumulators are locked, so per-morsel work aggregates into one
        #: morsel-merged span per operator.
        self.trace = trace
        #: Counters mirrored into the engine's :class:`ExecutionProfile`.
        self.counters = PipelineCounters()
        #: The kernel every hash join ran, in plan walk order, and the
        #: grouping kernel(s) of a group-by root — ``"dense"`` or ``"sorted"``.
        self.join_kernels: list[str] = []
        self.group_kernel: str | None = None
        #: The morsel fan-out driver (threads start only when a scan fans
        #: out); its dispatch counters reflect the fan-out decisions taken.
        self.fanout = ParallelVectorizedExecutor(num_workers, context)

    def execute(
        self, plan: PhysicalPlan, program
    ) -> tuple[list[str], dict[str, Any]]:
        """Execute a plan; returns (column names, column values).

        ``program`` is the plan's :class:`~repro.core.codegen.GeneratedQuery`:
        every plan expression evaluates through its fused function."""
        evaluator = program.function_for
        sort_plan: PhysSort | None = None
        if isinstance(plan, PhysSort):
            sort_plan = plan
            plan = plan.child
        if not isinstance(plan, (PhysReduce, PhysNest)):
            raise ExecutionError(
                f"the plan root must be Reduce or Nest, got {plan.describe()}"
            )
        compiler = PipelineCompiler(
            self.catalog,
            self.plugins,
            self.batch_size,
            materializer=self._materialize,
            evaluator=evaluator,
            cache_manager=self.cache_manager,
            counters=self.counters,
            params=self.params,
            trace=self.trace,
            context=self.context,
        )
        root = _make_root(plan, sort_plan, self.params, self.hints, evaluator)
        chain = factorized_chain(plan)
        result = None
        if chain is not None:
            result = self._execute_factorized(chain, root, compiler, evaluator)
        if result is None:
            pipeline = compiler.compile(plan.child)
            self.join_kernels = compiler.join_kernels
            morsels = self._plan_morsels(pipeline, isinstance(plan, PhysNest))
            result = self._run(root, pipeline, morsels)
        else:
            self.join_kernels = [radix.KERNEL_FACTORIZED] * len(chain.joins)
        self.group_kernel = root.group_kernel
        compiler.store_scan_caches()
        return result

    # -- aggregates over a one-key join chain ----------------------------------

    def _execute_factorized(
        self,
        chain: FactorizedChain,
        root: _NestRoot,
        compiler: PipelineCompiler,
        evaluator: Callable[[Expression], Evaluator],
    ) -> tuple[list[str], dict[str, Any]] | None:
        """Run the aggregate over ``chain`` per join-key value (see
        :class:`FactorizedChain`); every input streams inline or fanned out,
        as a join's sides do.  ``None`` — the joins then probe and gather,
        the first input handed over as the materialized build side — when
        two inputs join on keys the first holds once each: the join has one
        row per matching row of the other, so there is nothing to factor
        out.  That is decided before any other input is read, from the
        cached join table when there is one."""
        first = self._materialize(compiler.compile(chain.inputs[0]))
        if first.count == 0:
            return self._empty_chain(chain, root)
        pair = len(chain.inputs) == 2
        if pair:
            table = compiler.cached_build_side(chain.inputs[0], chain.keys[0], first.count)
            if table is not None and table.unique:
                compiler.built[id(chain.inputs[0])] = first
                return None
        space = compiler.build_side(
            chain.inputs[0],
            chain.keys[0],
            first.count,
            lambda: radix.key_slots(
                _join_keys(evaluator(chain.keys[0])(first), first.count)
            ),
            layout="slots",
            keep=lambda space: not (pair and space.unique),
        )
        if pair and space.unique:
            compiler.built[id(chain.inputs[0])] = first
            return None
        first.columns[_SLOT] = space.rows
        reducer = _slot_root(chain, root, 0, space.size)
        reduced = _SlotPartials(space.counts, {}, {})  # the rows per slot, kept
        if reducer.summed or reducer.kept:
            state = reducer.new_state()
            reducer.update(state, first, self.counters)
            reduced = reducer.merge([reducer.finish_morsel(state, self.counters)], self.counters)
        reductions = [reduced]
        for index, subplan in enumerate(chain.inputs[1:], start=1):
            pipeline = compiler.compile(subplan)
            stage = SlotStage(space, evaluator(chain.keys[index]))
            pipeline.stages.append(traced_stage(self.trace, chain.probes[index - 1], stage))
            reducer = _slot_root(chain, root, index, space.size)
            reduced = self._run(reducer, pipeline, self._plan_morsels(pipeline, False))
            if not reduced.rows.any():  # no row of this input has a slot
                return self._empty_chain(chain, root)
            reductions.append(reduced)
        started = time.perf_counter()
        held = np.logical_and.reduce([reduced.rows > 0 for reduced in reductions])
        if not held.any():
            return self._empty_chain(chain, root)
        combined = _combine_per_key(chain, root, reductions, held)
        # The key products are the chain root's work.
        self._join_span(chain.joins[0], time.perf_counter() - started)
        return root.finish(combined, self.counters)

    def _empty_chain(
        self, chain: FactorizedChain, root: _NestRoot
    ) -> tuple[list[str], dict[str, Any]]:
        """The answer over a join chain without a joined row."""
        for join in chain.joins:
            self._join_span(join, 0.0)
        return root.merge([], self.counters)

    def _join_span(self, join: PhysHashJoin, seconds: float) -> None:
        if self.trace is not None:
            self.trace.operator("hashjoin", node=join, detail="factorized").add(
                seconds=seconds
            )

    # -- inline or fanned out --------------------------------------------------

    def _plan_morsels(
        self, pipeline: CompiledPipeline, grouping: bool
    ) -> list[Morsel]:
        """The morsels to fan ``pipeline``'s scan out over; empty = inline."""
        if pipeline.always_empty:
            return []
        source = pipeline.source
        morsels, _ = plan_fanout(
            self.fanout.num_workers,
            source.total_rows,
            self.batch_size,
            grouping,
        )
        return morsels

    def _materialize(self, pipeline: CompiledPipeline) -> Batch:
        """Materialize a join build side, through the same fan-out decision
        as the plan root."""
        return self._run(
            _CollectRoot(), pipeline, self._plan_morsels(pipeline, grouping=False)
        )

    def _run(self, root: _RootTask, pipeline: CompiledPipeline, morsels: list[Morsel]):
        if not morsels:
            partials = [self._run_range(root, pipeline, None, self.counters)]
            return root.merge(partials, self.counters)

        def run_morsel(morsel: Morsel, worker_id: int):
            if self.context is not None:
                self.context.check()
            counters = PipelineCounters()
            partial = self._run_range(root, pipeline, morsel, counters)
            if self.context is not None:
                self.context.count("morsels")
            return partial, counters

        results = self.fanout.execute(morsels, run_morsel)
        for _, counters in results:
            self.counters.merge(counters)
        return root.merge([partial for partial, _ in results], self.counters)

    def _run_range(
        self,
        root: _RootTask,
        pipeline: CompiledPipeline,
        morsel: Morsel | None,
        counters: PipelineCounters,
    ):
        """Fold one scan range (``None`` = the whole scan) into a partial."""
        state = root.new_state()
        if pipeline.always_empty:
            return root.finish_morsel(state, counters)
        source = pipeline.source
        batches = (
            source.iter_batches(counters, self.batch_size)
            if morsel is None
            else source.iter_range(
                morsel.start, morsel.stop, counters, self.batch_size
            )
        )
        for batch in batches:
            out = pipeline.process(batch, counters)
            if out is not None:
                root.update(state, out, counters)
                if root.saturated(state):
                    # The range's contribution is complete (e.g. a pure
                    # LIMIT prefix); stop scanning its remaining rows.
                    break
        return root.finish_morsel(state, counters)


def _join_keys(value: Any, count: int) -> np.ndarray | EncodedColumn:
    """Normalize a join key column: an encoded column with a numeric or
    boolean dictionary to its typed values (so the key alignment and the
    dense/sorted choice see plain arrays), bools to ints.  Encoded strings
    stay codes; keys containing missing values are rejected by the join
    kernels."""
    keys = materialize(value, count)
    if isinstance(keys, EncodedColumn) and keys.values.dtype != object:
        radix.reject_missing_keys(keys, "join")
        keys = keys.values[keys.codes]
    if keys.dtype.kind == "b":
        return keys.astype(np.int64)
    return keys


def _align_probe_keys(
    build_kind: str, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Align a probe key batch with the build side's dtype without losing
    integer precision.

    Returns (aligned keys, original positions) — positions is ``None`` when
    every probe key survives, otherwise the indices of the kept keys (probe
    results must be mapped back through it).
    """
    probe_kind = probe_keys.dtype.kind
    if probe_kind in "iu" and build_kind in "iu":
        return probe_keys, None
    if probe_kind == build_kind:
        return probe_keys, None
    if build_kind in "iu" and probe_kind == "f":
        # Only integral float keys inside the int64 range can equal integer
        # build keys; probing the rest (including NaN-encoded nulls) would be
        # wasted work — and a blanket int cast would truncate 3.5 onto 3 or
        # wrap 1e19 onto INT64_MIN.
        integral = (
            np.isfinite(probe_keys)
            & (probe_keys == np.floor(probe_keys))
            & (probe_keys >= -(2.0**63))  # INT64_MIN itself is valid
            & (probe_keys < 2.0**63)
        )
        if integral.all():
            return probe_keys.astype(np.int64), None
        kept = np.nonzero(integral)[0]
        return probe_keys[kept].astype(np.int64), kept
    if build_kind == "f" and probe_kind in "iu":
        # Mirror of the case above: only integers exactly representable in
        # float64 can equal a float build key; a blanket cast would round
        # 2**53 + 1 onto 2**53 and fabricate matches.
        as_float = probe_keys.astype(np.float64)
        safe = (as_float >= -(2.0**63)) & (as_float < 2.0**63)
        round_trip = np.zeros_like(probe_keys)
        round_trip[safe] = as_float[safe].astype(probe_keys.dtype)
        exact = safe & (round_trip == probe_keys)
        if exact.all():
            return as_float, None
        kept = np.nonzero(exact)[0]
        return as_float[kept], kept
    raise VectorizationError(
        f"join keys of kinds {build_kind!r} and {probe_kind!r} are served by "
        "the Volcano interpreter"
    )
