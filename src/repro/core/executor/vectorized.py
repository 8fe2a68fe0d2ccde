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

A plan is lowered once per query shape into a :class:`PipelineProgram`:
:class:`PipelineCompiler` derives from the plan and the catalog everything
its executions need — one step per operator with its generated functions,
its scan's dataset, field-cache keys and deferred fields, its join's
build-side cache key and live columns — and the root's layout.  Each
execution's :class:`VectorizedExecutor` opens the steps into a
:class:`CompiledPipeline` — one :class:`ScanOperator` batch source plus a
list of per-batch stages — with its own parameters, cache probes, build
sides and spans:

* :class:`SelectStage` evaluates the predicate once per batch into a boolean
  mask; sitting directly on a CSV/JSON scan it makes the scan *lazy* (§5.2):
  only the predicate's fields are converted for every row, the remaining
  ones for the surviving OIDs only (``scan_columns_at``),
* :class:`HashJoinStage` holds the materialized build side and its keys
  numbered as :class:`~repro.core.executor.radix.KeySlots` — addressed
  directly over a dense integer key range, sorted otherwise; looked up in /
  admitted to the adaptive cache, keyed by the build side's plan, key and
  bound parameter values — and probes them batch-at-a-time (one gather when
  the build side holds each key once), emitting matches in probe order
  (build order within a key), the Volcano interpreter's order.  The joined
  batch gathers only the columns read above the join — and OIDs only for
  an unnest above that needs them; the compiler finds them on its way down
  the plan,
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
  gathers.  Both run over the first input's one key space, built once and
  cached; the cache keeps each chain input's per-slot partials too.

The stages are deliberately *stateless per batch* (all mutable state lives in
the :class:`~repro.core.profile.ExecutionCounters` they are passed and the
lock-guarded cache recorders), so the same pipeline object can be executed
over any batch range by any worker.  The counters passed are the
execution's one ledger: the profile the
:class:`~repro.resilience.context.QueryContext` carries, written straight
by an inline run, or a morsel's own counters, merged into that profile
under the context's lock when the morsel ends (aborted or not) — so an
abort's progress is the work of every morsel that ran.

The plan root is a *root task* (:class:`_RootTask`): a partial state per
scan range plus an ordered merge.  :class:`VectorizedExecutor` opens the
pipeline once, takes one root task from the program and — decided by
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
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

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
    expressions_of,
    parameters_of,
    unwrap_sort,
)
from repro.core.profile import ExecutionCounters, ExecutionProfile
from repro.core.sort import TopKAccumulator, concat_chunks, resolve_limit
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


@dataclass(frozen=True)
class Live:
    """What the operators above a join read of its output: columns, and the
    bindings whose OIDs an unnest above addresses its source by."""

    columns: frozenset[ColumnKey]
    oids: frozenset[str]


def live_above(above: tuple[PhysicalPlan, ...], own: Expression | None) -> Live:
    """The :class:`Live` output of a join under the operators ``above`` it
    (nearest last) whose own predicate is ``own``."""
    columns: set[ColumnKey] = set()
    oids: set[str] = set()
    for node in above:
        for expression in expressions_of(node):
            columns |= expression.referenced_fields()
        if isinstance(node, PhysUnnest):
            columns.add((node.binding, node.path))
            oids.add(node.binding)
    if own is not None:
        columns |= own.referenced_fields()
    return Live(frozenset(columns), frozenset(oids))


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
        count=len(left_positions),
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


class Step:
    """One operator of a :class:`PipelineProgram`, made once per shape by
    :class:`PipelineCompiler`; ``open`` builds its part of one execution's
    :class:`CompiledPipeline` against that execution's
    :class:`VectorizedExecutor`."""

    def open(self, run: VectorizedExecutor) -> CompiledPipeline:
        raise NotImplementedError

    def open_input(self, run: VectorizedExecutor) -> tuple[CompiledPipeline, Evaluator | None]:
        """The pipeline of this step as the input of a factorized chain, and
        the predicate its :class:`SlotStage` applies as a mask (``None``:
        none)."""
        return self.open(run), None


@dataclass(frozen=True)
class ScanStep(Step):
    """One scan of a :class:`PipelineProgram`: its plan node, the dataset and
    plug-in it reads, its field paths with their field-cache keys, whether
    the cache keeps its fields (:func:`repro.caching.policies.keeps_fields`
    of its format), the fields a selection directly above it defers (§5.2)
    and whether anything above reads its OIDs — all fixed by the plan and
    the catalog, so one shape derives them once."""

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

    def open(self, run: VectorizedExecutor) -> CompiledPipeline:
        span = None
        if run.trace is not None:
            span = run.trace.operator(
                f"scan:{self.dataset.name}", node=self.node, detail=self.plugin.format_name
            )
        operator = ScanOperator(self, run.cache_manager, run.params, span)
        run.cache_writers.append(operator)
        return CompiledPipeline(operator, [], run.context)


class ScanOperator:
    """Produces the batch stream of one :class:`ScanStep` in one execution.

    The operator is the engine's single cache path: field columns held by
    the caching manager are served (and counted as hits) instead of
    re-extracted — looked up here, at scan time, in one probe for all the
    step's fields, never planned — remaining
    fields are scanned through the dataset's own plug-in, and columns
    extracted by a *complete* scan are admitted to the cache afterwards
    (:meth:`store_materialized`).

    The step's ``deferred`` fields — those a selection directly above the
    scan does not need to evaluate its predicate — that are not cached are
    left out of the stream and converted by :meth:`fetch_deferred` for the
    surviving OIDs only (§5.2, lazy plug-in behaviour).  Batches carry the
    scan's OIDs only for such a fetch or when the step says an operator
    above reads them (an unnest addressing its collections by them).

    Batch production is side-effect-free apart from the counters argument and
    the (lock-guarded) materialization recorder, so multiple workers may pull
    disjoint row ranges concurrently via :meth:`iter_range`.  Every stream
    runs through one metering loop (:meth:`_metered`).
    """

    def __init__(
        self,
        step: ScanStep,
        cache_manager=None,
        params: Mapping[int | str, object] | None = None,
        span: SpanAccumulator | None = None,
    ):
        self.step = step
        self.binding = step.node.binding
        self.dataset = step.dataset
        self.plugin = plugin = step.plugin
        self.cache_manager = cache_manager
        self.params = params
        #: The scan's span in a traced run; ``None`` untraced.
        self.span = span
        self._cached: dict[FieldPath, np.ndarray] = {}
        if cache_manager is not None and step.keys:
            for path, entry in zip(step.paths, cache_manager.lookup_many(step.keys)):
                if entry is not None:
                    self._cached[path] = entry.data
        uncached = [path for path in step.paths if path not in self._cached]
        self._uncached = [path for path in uncached if path not in step.deferred]
        self._deferred = [path for path in uncached if path in step.deferred]
        #: Do the batches carry the OIDs: does anything above read them?
        self.emit_oids = step.oids or bool(self._deferred)
        if self._cached and not self._uncached:
            self.total_rows = len(next(iter(self._cached.values())))
        else:
            self.total_rows = plugin.scan_row_count(self.dataset)
        # Chunk recorder for cache materialization: worth the references only
        # when the cache keeps this format's fields.
        self._recorder: _CoverageRecorder | None = None
        if cache_manager is not None and self._uncached and step.keep:
            self._recorder = _CoverageRecorder()

    @property
    def fully_cached(self) -> bool:
        return bool(self._cached) and not self._uncached

    @property
    def lazy(self) -> bool:
        """Does the selection above have fields to fetch after filtering?"""
        return bool(self._deferred)

    def iter_batches(
        self, counters: ExecutionCounters, batch_size: int
    ) -> Iterator[Batch]:
        """The full batch stream (inline execution)."""
        if self.fully_cached:
            stream = self._iter_cached(0, self.total_rows, counters, batch_size)
        else:
            stream = self.plugin.scan_batches(
                self.dataset, self._uncached, batch_size=batch_size
            )
        return self._metered(stream, counters)

    def iter_range(
        self, start: int, stop: int, counters: ExecutionCounters, batch_size: int
    ) -> Iterator[Batch]:
        """The batch stream of global rows ``[start, stop)`` (one morsel)."""
        if self.fully_cached:
            stream = self._iter_cached(start, stop, counters, batch_size)
        else:
            stream = self.plugin.scan_batch_ranges(
                self.dataset, self._uncached, start, stop, batch_size=batch_size
            )
        return self._metered(stream, counters)

    def _metered(self, stream: Iterator, counters: ExecutionCounters) -> Iterator[Batch]:
        """The scan's one metering loop.  ``stream`` yields the plug-in's
        buffers, or — fully cached — batches cut from the cached columns.

        The time spent inside a plug-in stream (the raw-data parse cost) and
        the bytes it produced go to the plug-in's scan totals, one flush per
        stream; a cached stream adds no plug-in call.  In a traced run the
        time to produce each batch, its rows and bytes go to the scan's
        span, also one flush per stream — a fan-out pays one locked add per
        morsel, not per batch."""
        from_plugin = not self.fully_cached
        span = self.span
        plugin_seconds = seconds = 0.0
        plugin_bytes = nbytes = rows = batches = 0
        started = time.perf_counter()
        try:
            for item in stream:
                batch = item
                if from_plugin:
                    plugin_seconds += time.perf_counter() - started
                    plugin_bytes += _nbytes(item.columns)
                    batch = self._to_batch(item, counters)
                if span is not None:
                    seconds += time.perf_counter() - started
                if batch is not None:
                    if span is not None:
                        rows += batch.count
                        batches += 1
                        nbytes += _nbytes(batch.columns)
                    yield batch
                started = time.perf_counter()
            # The call that found the stream exhausted.
            plugin_seconds += time.perf_counter() - started
            seconds += time.perf_counter() - started
        finally:
            if from_plugin:
                self.plugin.record_scan(plugin_seconds, plugin_bytes)
            if span is not None:
                span.add(
                    seconds=seconds,
                    rows_out=rows,
                    batches=batches,
                    nbytes=nbytes,
                    invocations=1,
                )

    def _iter_cached(
        self, start: int, stop: int, counters: ExecutionCounters, batch_size: int
    ) -> Iterator[Batch]:
        for begin in range(start, stop, batch_size):
            end = min(begin + batch_size, stop)
            batch = Batch(count=end - begin, params=self.params)
            if self.emit_oids:
                batch.oids[self.binding] = np.arange(begin, end, dtype=np.int64)
            for path, full in self._cached.items():
                batch.columns[(self.binding, path)] = full[begin:end]
            counters.values_from_cache += (end - begin) * len(self._cached)
            counters.batches_processed += 1
            yield batch

    def _to_batch(self, buffers, counters: ExecutionCounters) -> Batch | None:
        if buffers.count == 0:
            return None
        batch = Batch(count=buffers.count, params=self.params)
        if self.emit_oids:
            batch.oids[self.binding] = buffers.oids
        for path in self._uncached:
            batch.columns[(self.binding, path)] = buffers.column(path)
        # Contiguous rows slice the cached columns; explicit OIDs gather.
        rows: "slice | np.ndarray | None" = buffers.explicit_oids
        if rows is None:
            rows = slice(buffers.first, buffers.first + buffers.count)
            if self._recorder is not None:
                self._recorder.add(buffers.first, buffers.count, buffers)
        if self._cached:
            for path, full in self._cached.items():
                batch.columns[(self.binding, path)] = full[rows]
            counters.values_from_cache += buffers.count * len(self._cached)
        counters.rows_scanned += buffers.count
        counters.values_extracted += buffers.count * len(self._uncached)
        counters.batches_processed += 1
        return batch

    def fetch_deferred(self, batch: Batch, counters: ExecutionCounters) -> None:
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
        name = self.dataset.name
        sources = ((name, self.dataset.format),)
        for path, key in zip(self.step.paths, self.step.keys):
            if path in self._uncached:
                column = concat_chunks([chunk.column(path) for chunk in chunks])
                self.cache_manager.store(key, column, sources, f"{name}.{'.'.join(path)}")


# ---------------------------------------------------------------------------
# Per-batch pipeline stages
# ---------------------------------------------------------------------------


class SelectStage:
    """Filter each batch by a predicate; over a lazy scan, fetch the deferred
    fields of the surviving rows afterwards."""

    def __init__(self, predicate: Evaluator, lazy_scan: ScanOperator | None = None):
        self.predicate = predicate
        self.lazy_scan = lazy_scan

    def apply(self, batch: Batch, counters: ExecutionCounters) -> Batch | None:
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
      the scan (its step has a ``cache_key``) every parent passes through in
      order, so the flattened output is served from the adaptive cache when
      present and admitted to it after a complete run.
    * **column-backed** (``plugin`` is ``None``) — the parent binding is
      itself an unnest variable (nested-in-nested); the collection was
      materialized as an object column by the parent stage and is flattened
      in memory by :func:`repro.plugins.base.flatten_collections` into
      columns of the ``type_names`` the schema declares.

    Outer unnest emits one null child row for parents whose collection is
    empty or missing, matching the Volcano interpreter, and a parent whose
    field is not a collection fails with the interpreter's error.
    """

    def __init__(self, step: UnnestStep, cache_manager=None, total_rows: int = 0):
        node = step.node
        self.binding = node.binding
        self.path = node.path
        self.var = node.var
        self.element_paths = step.element_paths
        self.predicate = step.predicate
        self.outer = node.outer
        self.dataset = step.dataset
        self.plugin = step.plugin
        self.type_names = step.type_names
        #: Values one flattened row accounts for in the extraction counters.
        self._width = max(len(self.element_paths), 1)
        self.cache_manager = cache_manager
        self.total_rows = total_rows
        self._cache_key = step.cache_key
        self._cached: _CachedUnnest | None = None
        self._recorder: _CoverageRecorder | None = None
        if cache_manager is not None and step.cache_key is not None:
            entry = cache_manager.lookup(step.cache_key)
            if entry is not None:
                self._cached = entry.data
            elif step.keep:
                self._recorder = _CoverageRecorder()

    def apply(self, batch: Batch, counters: ExecutionCounters) -> Batch | None:
        if self._cached is not None:
            columns, positions = self._cached.slice(
                int(batch.oids[self.binding][0]), batch.count
            )
            counters.values_from_cache += len(positions) * self._width
        else:
            try:
                buffers = self._flatten(batch, counters)
            except PluginError as exc:
                raise ExecutionError(
                    f"field {'.'.join(self.path)!r} of {self.binding!r} is not a "
                    "collection"
                ) from exc
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

    def _flatten(self, batch: Batch, counters: ExecutionCounters) -> UnnestBatch:
        if self.plugin is None:
            collection = batch.columns.get((self.binding, self.path))
            if collection is None:
                raise ExecutionError(
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
            raise ExecutionError(
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
        name = self.dataset.name
        self.cache_manager.store(
            self._cache_key,
            flattened,
            ((name, self.dataset.format),),
            f"unnest {name}.{'.'.join(self.path)}",
        )


class HashJoinStage:
    """Probe an already-built join build side with each batch.

    The build side (a materialized :class:`Batch` plus its
    :class:`~repro.core.executor.radix.KeySlots`) is immutable once
    constructed, so any number of workers can probe it concurrently.
    """

    def __init__(
        self,
        build: Batch,
        space: radix.KeySlots,
        right_key: Evaluator,
        residual: Evaluator | None,
        live: Live,
    ):
        self.build = build
        self.space = space
        self.right_key = right_key
        self.residual = residual
        self.live = live

    def apply(self, batch: Batch, counters: ExecutionCounters) -> Batch | None:
        left_positions, right_positions = radix.probe(
            self.space, materialize(self.right_key(batch), batch.count)
        )
        if len(left_positions) == 0:
            return None
        counters.join_output_rows += len(left_positions)
        joined = _gather_joined(
            self.build, batch, left_positions, right_positions, self.live
        )
        if self.residual is not None:
            return _apply_predicate(joined, self.residual)
        return joined


class NestedLoopJoinStage:
    """Cross-product each batch against a materialized build side, in probe
    order then build order (the Volcano interpreter's order)."""

    def __init__(self, build: Batch, predicate: Evaluator | None, live: Live):
        self.build = build
        self.predicate = predicate
        self.live = live

    def apply(self, batch: Batch, counters: ExecutionCounters) -> Batch | None:
        left = self.build
        left_positions = np.tile(
            np.arange(left.count, dtype=np.int64), batch.count
        )
        right_positions = np.repeat(
            np.arange(batch.count, dtype=np.int64), left.count
        )
        joined = _gather_joined(left, batch, left_positions, right_positions, self.live)
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
    #: ``(stage, span)`` in application order; the span is ``None`` in an
    #: untraced run, so traced and untraced runs apply the same stages.
    stages: list[tuple[Any, SpanAccumulator | None]]
    #: Per-query resilience context: :meth:`process` checks the deadline /
    #: cancellation once per scan batch.
    context: QueryContext
    always_empty: bool = False

    def process(self, batch: Batch, counters: ExecutionCounters) -> Batch | None:
        """The pipeline's one per-batch hook: one deadline / cancellation
        check, then every stage — timed only when it has a span.  The scan
        counted the batch and its rows already."""
        self.context.check()
        for stage, span in self.stages:
            if span is None:
                batch = stage.apply(batch, counters)
            else:
                started = time.perf_counter()
                rows_in = batch.count
                batch = stage.apply(batch, counters)
                span.add_batch(
                    time.perf_counter() - started,
                    rows_in,
                    batch.count if batch is not None else 0,
                )
            if batch is None:
                return None
        return batch


def build_side_key(side: PhysicalPlan, key: Expression) -> tuple[tuple, tuple]:
    """The cache key of the key slots of plan ``side`` keyed by ``key``,
    short of the bound parameter values, and the parameters of both, whose
    values complete it (:meth:`VectorizedExecutor.bound_key`)."""
    parameters = dict.fromkeys(parameters_of(side))
    parameters.update((parameter.key, None) for parameter in iter_parameters(key))
    return join_side_cache_key(side.fingerprint(), key.fingerprint()), tuple(parameters)


def scanned(plan: PhysicalPlan) -> tuple[str, ...]:
    """The datasets ``plan`` scans, in walk order."""
    return tuple(dict.fromkeys(node.dataset for node in plan.walk() if isinstance(node, PhysScan)))


@dataclass(frozen=True)
class SelectStep(Step):
    """A selection: its predicate's function; directly on a scan, the scan
    defers the fields the predicate does not read (§5.2)."""

    node: PhysSelect
    child: Step
    predicate: Evaluator
    on_scan: bool

    def _source(self, run: VectorizedExecutor) -> tuple[CompiledPipeline, ScanOperator | None]:
        """The pipeline beneath, and its scan when that deferred fields —
        the cache decides per execution which ones it still has to."""
        pipeline = self.child.open(run)
        lazy = self.on_scan and pipeline.source.lazy
        return pipeline, pipeline.source if lazy else None

    def open(self, run: VectorizedExecutor) -> CompiledPipeline:
        pipeline, lazy_scan = self._source(run)
        run.add_stage(pipeline, self.node, SelectStage(self.predicate, lazy_scan))
        return pipeline

    def open_input(self, run: VectorizedExecutor) -> tuple[CompiledPipeline, Evaluator | None]:
        """The predicate goes to the chain's :class:`SlotStage` as a mask
        instead of a stage gathering the rows that pass — unless the
        selection sits on a lazy scan, which fetches the deferred fields of
        exactly those rows."""
        pipeline, lazy_scan = self._source(run)
        if lazy_scan is None:
            return pipeline, self.predicate
        run.add_stage(pipeline, self.node, SelectStage(self.predicate, lazy_scan))
        return pipeline, None


@dataclass(frozen=True)
class UnnestStep(Step):
    """An unnest: the dataset and plug-in of its parent's scan (``None``
    for nested-in-nested, whose collection is a materialized column of the
    element types ``type_names``), and — directly on the scan — the cache
    key of its flattened output and whether the cache keeps it (the field
    rule of the dataset's format)."""

    node: PhysUnnest
    child: Step
    dataset: Dataset | None
    plugin: InputPlugin | None
    predicate: Evaluator | None
    element_paths: tuple[FieldPath, ...]
    type_names: list[str] | None
    cache_key: tuple | None
    keep: bool

    def open(self, run: VectorizedExecutor) -> CompiledPipeline:
        pipeline = self.child.open(run)
        stage = UnnestStage(self, run.cache_manager, pipeline.source.total_rows)
        run.cache_writers.append(stage)
        run.add_stage(pipeline, self.node, stage)
        return pipeline


@dataclass(frozen=True)
class HashJoinStep(Step):
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

    def open(self, run: VectorizedExecutor) -> CompiledPipeline:
        """Materialize the build side (or take the rows and slots a chain
        that did not run per key value hands over), then open the probe
        side and append the probe stage to it."""
        left, space = run.built.pop(id(self.node.left), (None, None))
        if left is None:
            left = run.materialize(self.left.open(run))
        pipeline = self.right.open(run)
        if left.count == 0 or pipeline.always_empty:
            # An inner join with an empty build side produces nothing; bail
            # out before key evaluation (an empty Batch has no columns to
            # evaluate the key on).
            pipeline.always_empty = True
            return pipeline
        if space is None:
            cache_key = run.bound_key(self.side_key)
            space = run.cached(cache_key)
            if space is None:
                space = run.build_side(cache_key, self.sources, self.left_key, left)
        run.join_kernels.append(space.kernel)
        run.add_stage(
            pipeline,
            self.node,
            HashJoinStage(left, space, self.right_key, self.residual, self.live),
        )
        return pipeline


@dataclass(frozen=True)
class LoopJoinStep(Step):
    """A nested-loop join: its build side's step, predicate and the
    :class:`Live` columns of its output."""

    node: PhysNestedLoopJoin
    left: Step
    right: Step
    predicate: Evaluator | None
    live: Live

    def open(self, run: VectorizedExecutor) -> CompiledPipeline:
        left = run.materialize(self.left.open(run))
        pipeline = self.right.open(run)
        if left.count == 0 or pipeline.always_empty:
            pipeline.always_empty = True
            return pipeline
        run.add_stage(
            pipeline, self.node, NestedLoopJoinStage(left, self.predicate, self.live)
        )
        return pipeline



class PipelineCompiler:
    """Lower a physical plan into the steps of a :class:`PipelineProgram` —
    once per query shape.

    Everything a step needs that the plan and the catalog fix is derived
    here: each expression's generated function (``evaluator``, the plan's
    ``GeneratedQuery.function_for``), each scan's dataset, plug-in,
    field-cache keys, deferred fields and OID flag, each unnest's source,
    each join's build-side cache key and :class:`Live` output.  ``compile``
    walks the plan top-down with the operators ``above`` the current node,
    so a join learns which of its output columns are read above it, and a
    scan whether an unnest above reads its OIDs, without a walk of their
    own.  What an execution decides — which fields the cache holds, the
    build sides' rows and key slots, the kernels — is left to
    :meth:`VectorizedExecutor.execute`.
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
            if isinstance(plan.child, PhysScan):
                child = self._scan(plan.child, plan.predicate, below)
            else:
                child = self.compile(plan.child, below)
            return SelectStep(
                plan, child, self.evaluator(plan.predicate), isinstance(child, ScanStep)
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
            # Directly over its scan the stage sees every parent, in order:
            # only then may the flattened output come from / go to the cache.
            cache_key = None
            if dataset is not None and isinstance(plan.child, PhysScan):
                cache_key = unnest_cache_key(dataset.name, plan.path, element_paths, plan.outer)
            return UnnestStep(
                plan, child, dataset, plugin, self._optional(plan.predicate),
                element_paths, type_names, cache_key,
                dataset is not None and policies.keeps_fields(dataset.format),
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
# Root tasks: partial states per scan range and their ordered merges
# ---------------------------------------------------------------------------


class _RootTask:
    """Protocol of a plan root over a compiled pipeline.

    ``new_state``/``update``/``finish_morsel`` run over one scan range each —
    the whole scan when the executor runs inline, one morsel per worker call
    under a fan-out; ``merge`` runs on the calling thread, consumes the
    partial results in range order and counts into the execution's profile;
    ``params`` are the execution's bound values.  A root keeps no state of
    an execution, so a group-by root is built once per shape and shared.
    """

    def new_state(self) -> Any:
        raise NotImplementedError

    def update(self, state: Any, batch: Batch, counters: ExecutionCounters) -> None:
        raise NotImplementedError

    def saturated(self, state: Any) -> bool:
        """Whether this range's contribution is complete — further batches
        cannot change it, so the scan of the range may stop."""
        return False

    def finish_morsel(self, state: Any, counters: ExecutionCounters) -> Any:
        return state

    def merge(
        self, partials: list, profile: ExecutionCounters, params: Params = None
    ) -> Any:
        raise NotImplementedError


class _CollectRoot(_RootTask):
    """Join build side: the pipeline's output batches, concatenated in range
    order — so the materialized batch (and therefore every build position
    its key slots hold) is the same however the scan was split."""

    def new_state(self) -> list[Batch]:
        return []

    def update(
        self, state: list[Batch], batch: Batch, counters: ExecutionCounters
    ) -> None:
        state.append(batch)

    def merge(
        self, partials: list, profile: ExecutionCounters, params: Params = None
    ) -> Batch:
        return concat_batches([batch for batches in partials for batch in batches])


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
        names: list[str],
        heads: list[tuple[str, Evaluator]],
        limit: int | None = None,
    ):
        self.names = names
        #: (output name, evaluator of its head), first occurrence per name.
        self.heads = heads
        self.limit = limit

    def new_state(self) -> dict:
        return {"chunks": {name: [] for name in self.names}, "total": 0}

    def update(self, state: dict, batch: Batch, counters: ExecutionCounters) -> None:
        for name, head in self.heads:
            state["chunks"][name].append(materialize(head(batch), batch.count))
        state["total"] += batch.count

    def saturated(self, state: dict) -> bool:
        # LIMIT 0 still takes one batch, so the truncated empty buffers
        # keep their dtypes.
        return self.limit is not None and state["total"] >= max(self.limit, 1)

    def finish_morsel(self, state: dict, counters: ExecutionCounters) -> dict:
        if self.limit is not None and state["total"] > self.limit:
            truncated = {
                name: [concat_chunks(state["chunks"][name])[: self.limit]]
                for name in self.names
            }
            state = {"chunks": truncated, "total": self.limit}
        counters.output_rows += state["total"]
        return state

    def merge(self, partials: list, profile: ExecutionCounters, params: Params = None):
        if self.limit is not None:
            # The engine slices the exact prefix after the merge; report the
            # emitted row count, not the per-range prefixes' sum.
            profile.output_rows = min(profile.output_rows, self.limit)
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
        names: list[str],
        heads: list[tuple[str, Evaluator]],
        limit: int,
        keys: list[tuple[str, bool]],
        non_null: frozenset[str],
    ):
        super().__init__(names, heads, limit)
        self.keys = keys
        self.non_null = non_null

    def new_state(self) -> TopKAccumulator:
        return TopKAccumulator(self.names, self.keys, self.limit, self.non_null)

    def update(
        self, state: TopKAccumulator, batch: Batch, counters: ExecutionCounters
    ) -> None:
        columns = {
            name: materialize(head(batch), batch.count) for name, head in self.heads
        }
        state.push(columns, batch.count)

    def saturated(self, state: TopKAccumulator) -> bool:
        return False

    def finish_morsel(
        self, state: TopKAccumulator, counters: ExecutionCounters
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
        hints: NullabilityHints,
        evaluator: Callable[[Expression], Evaluator],
    ):
        self.names = [column.name for column in plan.columns]
        group_key_fingerprints, aggregates = collect_nest_aggregates(plan)
        self.aggregates = [_aggregate_spec(aggregate) for aggregate in aggregates]
        self.keys = [evaluator(expression) for expression in keys]
        #: The partial columns the aggregates are computed from.
        self.parts = [part for aggregate in self.aggregates for part in aggregate.parts]
        #: Aggregate fingerprint -> evaluator of its argument.
        self.arguments = {
            spec.fingerprint: evaluator(aggregate.argument)
            for spec, aggregate in zip(self.aggregates, aggregates)
            if aggregate.argument is not None
        }
        #: Aggregates whose argument the static analyzer proved never
        #: missing: their kernels skip the missing-value scan.
        self.non_null = hints.non_null_aggregate_args
        #: (output name, group-key index | evaluator of the head over the
        #: per-group aggregate columns) per output column.
        self.heads = [
            (name, head if isinstance(head, int) else evaluator(head))
            for name, head in nest_heads(plan, group_key_fingerprints, aggregates)
        ]

    def new_state(self) -> dict:
        return {
            "key_chunks": [[] for _ in self.keys],
            "argument_chunks": {fingerprint: [] for fingerprint in self.arguments},
            "total": 0,
            "partials": [],
        }

    def update(self, state: dict, batch: Batch, counters: ExecutionCounters) -> None:
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
        self, state: dict, counters: ExecutionCounters
    ) -> list[_GroupPartial]:
        if not self.keys or state["total"] == 0:
            # Folded batch by batch, or an empty range: no partial groups.
            return state["partials"]
        key_arrays = [concat_chunks(chunks) for chunks in state["key_chunks"]]
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

    def merge(self, partials: list, profile: ExecutionProfile, params: Params = None):
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
        return self.finish(merged, profile, params)

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

    def finish(self, merged: _GroupPartial, profile: ExecutionProfile, params: Params):
        """The output columns of the final groups; the grouping kernels that
        built them go to the profile."""
        num_groups = 1
        if self.keys:
            num_groups = len(merged.key_arrays[0])
            profile.group_kernel = merged.kernel
            profile.groups_built += num_groups
        profile.output_rows += num_groups
        group_batch = Batch(count=num_groups, params=params)
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
        return self.names, columns


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
    :class:`SlotStage` that attaches each row's slot — no column is
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
    #: arguments (:meth:`VectorizedExecutor.bound_key`); ``None`` for the
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
    partial_keys: list[tuple[tuple, tuple] | None] = [
        None
        if index == grouped
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


class SlotStage:
    """Attach the slot of every row's join key, shifted by one so that a
    row without a slot reads 0, whose partials the reducer leaves at zero
    (see :class:`FactorizedChain`).  The ``predicate`` of a selection at the
    input's root (:meth:`SelectStep.open_input`) zeroes the slots
    of the rows it drops; only when it drops most of a batch are the rows
    that pass gathered, as a selection would — below that, reading every
    row costs the reducer less than the gathers."""

    def __init__(
        self,
        space: radix.KeySlots,
        shifted: np.ndarray,
        key: Evaluator,
        predicate: Evaluator | None = None,
    ):
        self.space = space
        #: ``space.lookup`` plus one, as intp: one gather gives the shifted
        #: slots.
        self.shifted = shifted
        self.key = key
        self.predicate = predicate

    def apply(self, batch: Batch, counters: ExecutionCounters) -> Batch | None:
        mask = None
        if self.predicate is not None:
            mask = as_bool_array(self.predicate(batch), batch.count)
            passed = int(np.count_nonzero(mask))
            if 2 * passed <= batch.count:
                if not passed:
                    return None
                batch, mask = batch.take(mask), None
        # Every later gather and bincount indexes by the slots: as intp.
        shifted = radix.slots_of(
            self.space, materialize(self.key(batch), batch.count), self.shifted
        )
        if mask is not None:
            shifted *= mask
        batch.columns = {**batch.columns, _SLOT: shifted}
        return batch


def _slot_of(batch: Batch) -> np.ndarray:
    return batch.columns[_SLOT]


@dataclass
class _SlotPartials:
    """One input of a factorized chain, reduced over the slots shifted by
    one (see :class:`SlotStage`): entry 0, the rows without a slot, counts
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


class _SlotRoot(_RootTask):
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

    def merge(
        self, partials: list, profile: ExecutionCounters, params: Params = None
    ) -> _SlotPartials:
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
    chain: FactorizedChain, root: _NestRoot, compiler: PipelineCompiler
) -> list[ChainInput]:
    """The inputs of ``chain`` under ``root``, compiled once: every column
    of the grouped input keeps its rows, the other inputs reduce their
    arguments per slot.  Each input's step serves the chain's probe tree too
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
        step = compiler.compiled[id(subplan)] = compiler.compile(subplan)
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
    execution: its keys, aggregates, parts and heads), or the names and head
    functions of a projection, whose LIMIT each execution resolves — the
    :class:`PipelineCompiler` steps beneath it, the per-input steps of a
    factorized chain (with the probe tree a two-input chain falls back to),
    and every scan step, from which the engine reads the cold scans it
    coalesces and the sizes admission control estimates.

    An execution brings its own state — the bound parameters, the
    :class:`~repro.resilience.context.QueryContext` and its profile, the
    trace, the cache probes, the build sides and the kernels — in a
    :class:`VectorizedExecutor`; the program captures none of it, so any
    number of threads run one program at once."""

    def __init__(
        self,
        plan: PhysicalPlan,
        generated,
        hints: NullabilityHints,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
    ):
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
        self.non_null = hints.non_null_columns
        compiler = PipelineCompiler(catalog, plugins, evaluator)
        #: The join chain the aggregate runs over per key value, if any.
        self.chain = chain = factorized_chain(root)
        self.inputs: list[ChainInput] = []
        if chain is not None:
            assert self.nest is not None  # a chain is an aggregate's
            self.inputs = _chain_inputs(chain, self.nest, compiler)
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
        self.cold_scans = tuple(sorted((name, tuple(keys)) for name, keys in cold.items()))

    def root(self, params: Params) -> _RootTask:
        """The root task of one execution under ``params``: the shared
        group-by root, or a projection root bounded by the LIMIT the
        parameters resolve.  The engine's epilogue applies the sort; the
        root only bounds what each scan range emits.  Pure LIMIT — and
        LIMIT 0, which produces nothing — keeps a prefix; ORDER BY + LIMIT K
        keeps the range's top-K candidates."""
        if self.nest is not None:
            return self.nest
        if self.sort is None:
            return _ProjectionRoot(self.names, self.heads)
        limit = resolve_limit(self.sort.limit, params)
        if self.sort.keys and limit:
            return _TopKProjectionRoot(
                self.names, self.heads, limit, self.sort.keys, self.non_null
            )
        return _ProjectionRoot(self.names, self.heads, limit)


class VectorizedExecutor:
    """One execution of a :class:`PipelineProgram` — the batch pipeline's
    executor, the only NumPy entry the engine calls, the ``codegen`` tier.

    It holds what the execution brings — the bound parameters, the query
    context and its profile, the trace, the cache — and what it decides:
    the scans it opened (whose complete reads it admits to the cache once
    the run succeeded), the build sides it materialized, the kernels it
    chose.  The program's steps open their stages against it.  Scans run
    inline on the calling thread or fan out over morsels, decided per scan
    by :func:`repro.core.parallel.plan_fanout`."""

    def __init__(
        self,
        context: QueryContext,
        batch_size: int = DEFAULT_BATCH_SIZE,
        num_workers: int = 1,
        cache_manager=None,
        params: Params = None,
        trace: TraceBuilder | None = None,
    ):
        self.batch_size = max(int(batch_size), 1)
        self.cache_manager = cache_manager
        #: Bound query-parameter values, attached to every scan batch.
        self.params = params
        #: Per-query resilience context (deadline/cancel): checked per batch
        #: inside pipelines and per morsel by the fan-out workers.
        self.context = context
        #: The execution's profile: an inline run counts straight into it,
        #: and the kernels each join and the group-by ran are written here.
        self.profile = context.profile
        #: Span trace of this execution (``None`` = untraced, zero overhead).
        #: Traced stages are shared by every fan-out worker; their span
        #: accumulators are locked, so per-morsel work aggregates into one
        #: morsel-merged span per operator.
        self.trace = trace
        #: The morsel fan-out driver (threads start only when a scan fans
        #: out); it writes the profile's dispatch counters.
        self.fanout = ParallelVectorizedExecutor(num_workers, context)
        #: Every scan operator and full-scan unnest stage opened — their
        #: cache materializations are flushed after a successful run.
        self.cache_writers: list = []
        #: The kernel of every hash join opened, in plan walk order.
        self.join_kernels: list[str] = []
        #: Build sides whose key slots are known — with their rows when
        #: already materialized —, by plan node: a chain that did not run
        #: per key value hands its first input over.
        self.built: dict[int, tuple[Batch | None, radix.KeySlots]] = {}

    def execute(self, program: PipelineProgram) -> tuple[list[str], dict[str, Any]]:
        """Run ``program``; returns (column names, column values)."""
        root = program.root(self.params)
        chain = program.chain
        result = None
        if chain is not None:
            result = self._execute_factorized(program, root)
        if result is None:
            assert program.pipeline is not None
            pipeline = program.pipeline.open(self)
            self.profile.join_kernels = self.join_kernels
            result = self._run(root, pipeline, self._plan_morsels(pipeline, program.grouping))
        else:
            assert chain is not None
            self.profile.join_kernels = [radix.KERNEL_FACTORIZED] * len(chain.joins)
        for writer in self.cache_writers:
            writer.store_materialized()
        return result

    # -- what the steps open their stages against ------------------------------

    def add_stage(self, pipeline: CompiledPipeline, node: PhysicalPlan, stage) -> None:
        """Append ``stage``, the work of plan ``node``, to ``pipeline`` —
        with the node's span when the run is traced."""
        span = None
        if self.trace is not None:
            name = type(node).__name__.removeprefix("Phys").lower()
            span = self.trace.operator(name, node=node, detail=type(stage).__name__)
        pipeline.stages.append((stage, span))

    def bound_key(self, unbound: tuple[tuple, tuple]) -> tuple | None:
        """A cache key under this execution's bound parameter values:
        ``unbound`` is a key without them and the parameters whose values
        complete it (:func:`build_side_key`).  ``None`` — not cached —
        without a cache, or when a value is unhashable.  Fingerprints
        abstract parameter values, so folding the bound ones back in keeps
        builds with different constants (and coincidentally equal
        cardinalities) apart."""
        if self.cache_manager is None:
            return None
        cache_key, parameters = unbound
        if parameters:
            bound = self.params or {}
            cache_key += tuple((name, bound.get(name)) for name in parameters)
            try:
                hash(cache_key)
            except TypeError:
                return None
        return cache_key

    def cached(self, cache_key: tuple | None) -> Any:
        """What the adaptive cache holds under ``cache_key`` — looked up
        before anything is read: a join build side's key slots (§6: ``A ⋈
        B`` then ``A ⋈ C``), a chain input's per-slot partials.  Literals are
        part of the plan fingerprints, and re-registering a dataset drops
        every entry built from it — each entry belongs to every dataset it
        was built from —, so a hit is never stale."""
        if cache_key is None:
            return None
        entry = self.cache_manager.lookup(cache_key)
        return None if entry is None else entry.data

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

    def materialize(self, pipeline: CompiledPipeline) -> Batch:
        """Materialize a join build side, through the same fan-out decision
        as the plan root."""
        return self._run(
            _CollectRoot(), pipeline, self._plan_morsels(pipeline, grouping=False)
        )

    # -- aggregates over a one-key join chain ----------------------------------

    def _execute_factorized(
        self, program: PipelineProgram, root: _RootTask
    ) -> tuple[list[str], dict[str, Any]] | None:
        """Run the aggregate over the program's chain per join-key value
        (see :class:`FactorizedChain`).

        The first input's key slots are looked up in the adaptive cache
        before it is read; on a miss the input is materialized and its key
        column numbered (and cached).  Every input the aggregates need more
        than the first input's row counts of is then looked up as per-slot
        partials in the cache (:meth:`_partials`), and read only on a miss.
        ``None`` — the joins then probe and gather, the first input's key
        slots (and its rows, materialized on a miss) handed over as the
        build side — when two inputs join on keys the first holds once
        each: the join has one row per matching row of the other, so there
        is nothing to factor out."""
        chain = program.chain
        assert chain is not None and isinstance(root, _NestRoot)
        inputs = program.inputs
        first = None
        space_key = self.bound_key(chain.space_key)
        space = self.cached(space_key)
        if space is None:
            first = self.materialize(inputs[0].step.open(self))
            if first.count == 0:
                return self._empty_chain(chain, root)
            space = self.build_side(space_key, inputs[0].sources, inputs[0].key, first)
        if len(chain.inputs) == 2 and space.unique:
            self.built[id(chain.inputs[0])] = (first, space)
            return None
        reductions = []
        for index, spec in enumerate(inputs):
            reducer = _SlotRoot(
                space.size,
                spec.summed,
                spec.kept,
                root.non_null,
                rows=None if index else space.counts,
                count=index != chain.grouped,
            )
            if index == 0 and not (reducer.summed or reducer.kept):
                # Its rows per slot, which its slots count, are all it adds.
                reduced = _SlotPartials(reducer.rows, {}, {})
            else:
                reduced = self._partials(chain, inputs, index, reducer, space, space_key, first)
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
        chain: FactorizedChain,
        inputs: list[ChainInput],
        index: int,
        reducer: _SlotRoot,
        space: radix.KeySlots,
        space_key: tuple | None,
        first: Batch | None,
    ) -> _SlotPartials:
        """Input ``index`` of ``chain`` reduced over the slots of ``space``:
        from the adaptive cache — keyed by the slot space's and the input's
        build-side keys under the bound values, the parts and whether it is
        the first input — or by streaming it, inline or fanned out as a
        join's sides do, through a :class:`SlotStage` into ``reducer`` (the
        first input from ``first``, its rows materialized on a slot-space
        miss).  Computed partials without kept rows — every input's but the
        grouped one's — are stored read-only, built from every dataset the
        input or the first input scans: a combine that wrote into them would
        raise instead of corrupting a later answer."""
        spec = inputs[index]
        unbound = chain.partial_keys[index]
        cache_key = None
        if unbound is not None and space_key is not None:
            input_key = self.bound_key(unbound)
            if input_key is not None:
                cache_key = chain_partial_cache_key(space_key, input_key)
        reduced = self.cached(cache_key)
        if reduced is not None:
            return reduced
        shifted = np.add(space.lookup, 1, dtype=np.intp)  # see SlotStage
        if index == 0 and first is not None:
            state = reducer.new_state()
            slotted = SlotStage(space, shifted, spec.key).apply(first, self.profile)
            if slotted is not None:
                reducer.update(state, slotted, self.profile)
            reduced = reducer.merge([reducer.finish_morsel(state, self.profile)], self.profile)
        else:
            pipeline, predicate = spec.step.open_input(self)
            stage = SlotStage(space, shifted, spec.key, predicate)
            if index:
                self.add_stage(pipeline, chain.probes[index - 1], stage)
            else:
                pipeline.stages.append((stage, None))
            reduced = self._run(reducer, pipeline, self._plan_morsels(pipeline, False))
        if cache_key is not None:
            arrays = reduced.arrays()
            for array in arrays:
                array.setflags(write=False)
            self.cache_manager.store(
                cache_key,
                reduced,
                dict.fromkeys(spec.sources + inputs[0].sources),
                f"per-slot partials of {', '.join(name for name, _ in spec.sources)}",
                size_bytes=sum(map(estimate_size, arrays)),
            )
        return reduced

    def _empty_chain(
        self, chain: FactorizedChain, root: _NestRoot
    ) -> tuple[list[str], dict[str, Any]]:
        """The answer over a join chain without a joined row."""
        for join in chain.joins:
            self._join_span(join, 0.0)
        return root.merge([], self.profile, self.params)

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
        morsels, _ = plan_fanout(
            self.fanout.num_workers,
            pipeline.source.total_rows,
            self.batch_size,
            grouping,
        )
        return morsels

    def _run(self, root: _RootTask, pipeline: CompiledPipeline, morsels: list[Morsel]):
        if not morsels:
            partials = [self._run_range(root, pipeline, None, self.profile)]
            return root.merge(partials, self.profile, self.params)
        context = self.context

        def run_morsel(morsel: Morsel, worker_id: int):
            context.check()
            counters = ExecutionCounters()
            try:
                return self._run_range(root, pipeline, morsel, counters)
            finally:
                context.merge(counters)

        return root.merge(
            self.fanout.execute(morsels, run_morsel), self.profile, self.params
        )

    def _run_range(
        self,
        root: _RootTask,
        pipeline: CompiledPipeline,
        morsel: Morsel | None,
        counters: ExecutionCounters,
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
