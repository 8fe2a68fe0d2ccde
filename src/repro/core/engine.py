"""Public engine API.

:class:`ProteusEngine` is the user-facing entry point of the reproduction.  It
owns the catalog, the input plug-ins, the memory and caching managers, the
optimizer and both executors, and wires them together exactly as Figure 2 of
the paper describes:

1. the query parser (SQL or comprehension syntax) produces a calculus
   expression, which the binder resolves against the catalog,
2. the normalizer and translator rewrite it into the nested relational
   algebra, which the optimizer lowers to a physical plan (selection/
   projection pushdown, join ordering),
3. the plan executes through a two-tier cascade, one executor per tier:

   * **codegen** — the batch pipeline
     (:mod:`repro.core.executor.vectorized`: plug-in scan -> per-batch stages
     -> root task).  The code generator emits one fused NumPy function per
     expression of the plan (§5.1/§5.2, the engine-per-query) and the
     pipeline calls those.  The executor decides *internally*, per scan,
     whether to run inline or to fan out: with ``parallel_workers > 1`` a
     scan spanning enough whole morsels for its kind of root is split into
     morsels that a work-stealing worker pool executes concurrently, with
     partial per-morsel aggregation and a deterministic morsel-ordered merge;
     everything else runs on the calling thread,
   * **volcano** — shapes the pipeline cannot serve (record construction in
     output columns, outer joins, null group keys) fall back to the
     tuple-at-a-time Volcano interpreter, the paper's "static
     general-purpose engine" baseline.  Unnests — inner *and* outer, nested
     collections included — are batch-native: the plug-ins' offset-vector
     ``scan_unnest_batch`` API keeps them on the pipeline.

   The ablation flag ``enable_codegen=False`` leaves only the static engine,
   Volcano; ``ExecutionProfile.execution_tier`` records which tier
   actually served each query (``parallel_workers`` / ``morsels_dispatched``
   record whether it fanned out), and :meth:`ProteusEngine.explain` reports
   the whole cascade decision and the planned fan-out for a query without
   running it.
4. caches are populated as a side effect and reused by later queries.

The v2 query API is built around **prepared statements**: the specialization
the paper bets on pays for itself when a query *shape* recurs, so the shape is
made a first-class object.  :meth:`ProteusEngine.prepare` parses, binds and
plans a query containing ``?`` positional / ``:name`` named placeholders once
and returns a :class:`PreparedQuery`; ``pq.execute(7)`` /
``pq.execute(country="CH")`` binds values and runs without re-parsing,
re-planning or re-generating code — the plan fingerprint abstracts parameter
values (``Parameter`` nodes instead of literals), so one compiled program
serves every binding, on every tier.  :meth:`ProteusEngine.query` remains as
sugar for ``prepare(text).execute(*args, **params)`` and keeps its v1
behaviour for literal-only queries.

Results are returned as a lazy columnar :class:`ResultSet`: the executor's
columnar output *is* the backing store — ``column_array`` hands out NumPy
buffers with no rows round-trip, ``rows``/iteration materialize Python tuples
only on first access, and ``fetch_batches`` streams the result in bounded
chunks.

Parallelism tuning: ``parallel_workers`` defaults to 1 (serial).  Set it to
the number of physical cores; a morsel is one batch (64Ki rows by default),
group-bys fan out from two morsels, every other root from sixteen (see
:func:`repro.core.parallel.plan_fanout`), and smaller inputs transparently
run inline where they are faster anyway.

The constructor takes only what a caller decides: the cache budget, the
ablation switches of the paper's figures (caching, codegen),
the fan-out width and batch size, observability (tracing, metrics, the
slow-query threshold) and the limits of a served engine (default deadline,
admission bounds, I/O retry budget).  The rest follows from the query and
the data: joins are always reordered by cost, the §6 caching policy is
fixed (:class:`repro.caching.policies.CachingPolicy`), the trace ring
buffer, the Volcano check stride and the admission queue cap are module
constants, and a query queues for admission no longer than its deadline.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.caching.coalesce import ScanCoalescer, ScanLease
from repro.caching.manager import CacheManager
from repro.caching.matching import field_cache_key
from repro.core import types as t
from repro.core.types import python_value as _python_value
from repro.core.analysis import (
    NullabilityHints,
    PlanAnalysis,
    SchemaAnalysis,
    TIER_CODEGEN,
    TIER_RUNTIME_DEMOTION,
    TIER_VOLCANO,
    TierVerdict,
    analyze_schema,
    tier_verdicts,
)
from repro.core.binder import bind_comprehension
from repro.core.calculus import Comprehension
from repro.core.codegen.generator import CodeGenerator
from repro.core.columns import EncodedColumn
from repro.core.comprehension_parser import parse_comprehension
from repro.core.concurrency import make_lock
from repro.core.executor.vectorized import (
    DEFAULT_BATCH_SIZE,
    VectorizedExecutor,
    factorized_chain,
)
from repro.core.executor.volcano import VolcanoExecutor
from repro.core.parallel import plan_fanout
from repro.core.normalizer import normalize
from repro.core.optimizer.planner import Planner
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.profile import ExecutionProfile
from repro.core.physical import (
    PhysNest,
    PhysReduce,
    PhysScan,
    PhysSort,
    PhysUnnest,
    PhysicalPlan,
    driving_scan,
    unwrap_sort,
)
from repro.core.sort import resolve_limit, sort_columns
from repro.core.sql_parser import parse_sql
from repro.core.translator import translate
from repro.errors import (
    CodegenError,
    ExecutionError,
    PlanningError,
    ProteusError,
    ResilienceError,
    VectorizationError,
)
from repro.obs.explain import render_explain_analyze
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBuilder, Tracer
from repro.plugins.base import InputPlugin
from repro.resilience import (
    AdmissionController,
    CancellationToken,
    QueryContext,
    activate_context,
)
from repro.plugins.binary_col_plugin import BinaryColumnPlugin, BinaryRowPlugin
from repro.plugins.csv_plugin import CsvPlugin
from repro.plugins.json_plugin import JsonPlugin
from repro.storage.catalog import Catalog, DataFormat, Dataset
from repro.storage.memory import MemoryManager

#: Parameter-value environment: positional keys are 0-based ints, named keys
#: are strings.
ParamValues = Mapping[int | str, object]

#: Query texts each of the engine's two text-keyed caches (parsed
#: comprehensions, prepared queries) keeps, least recently used evicted
#: first: clients that inline literals send an unbounded stream of distinct
#: texts and must not grow a server forever.
SHAPE_CACHE_CAPACITY = 1024

#: Parameter value types that may take part in a result-cache key: the JSON
#: scalars.  The type is part of the key (``1``, ``1.0`` and ``True`` hash
#: alike but do not bind alike).
_KEYABLE_TYPES = (type(None), bool, int, float, str)


class ResultSet:
    """The lazy, columnar result of a query.

    The executor's columnar output is kept as the backing store:

    * :meth:`column_array` returns the NumPy buffer of one output column with
      no rows round-trip (the float encoding of missing values — NaN — is
      preserved, exactly as the executor produced it),
    * :attr:`rows` / iteration / :meth:`to_dicts` materialize Python row
      tuples lazily, on first access (missing values surface as ``None``),
    * :meth:`fetch_batches` streams the result as bounded chunks of rows
      without ever materializing the full tuple list.

    ``ORDER BY`` and ``LIMIT`` have already been applied — in columnar space —
    by the engine before the :class:`ResultSet` is constructed.
    """

    def __init__(
        self,
        columns: Sequence[str],
        data: Mapping[str, Any],
        *,
        tier: str,
        length: int | None = None,
        execution_seconds: float = 0.0,
        profile: ExecutionProfile | None = None,
    ):
        self.columns = list(columns)
        self.execution_seconds = execution_seconds
        #: Which execution tier served the query: "codegen" or "volcano"
        #: (whether the batch pipeline fanned out over morsels is in
        #: ``profile.parallel_workers`` / ``profile.morsels_dispatched``).
        self.tier = tier
        self.profile = profile
        self._rows: list[tuple] | None = None
        self._pylists: dict[str, list] = {}
        self._data = dict(data)
        if length is None:
            length = len(next(iter(self._data.values()))) if self._data else 0
        self._length = int(length)

    # -- columnar access ----------------------------------------------------

    def _buffer(self, name: str):
        try:
            return self._data[name]
        except KeyError as exc:
            raise ExecutionError(
                f"result has no column {name!r}; columns: {self.columns}"
            ) from exc

    def column_array(self, name: str) -> np.ndarray:
        """The executor's columnar buffer for one output column.

        No row tuples are materialized; float columns keep NaN as their
        missing-value encoding (see :func:`repro.core.types.is_missing`).
        The array is a read-only view: a batch-pipeline buffer may alias the
        engine's adaptive cache, so mutating it would corrupt the results of
        later queries — call ``.copy()`` for a writable array."""
        view = np.asarray(self._buffer(name)).view()
        view.flags.writeable = False
        return view

    def column(self, name: str) -> list:
        """Python values of one output column (missing values as ``None``)."""
        return list(self._python_column(name))

    def _python_column(self, name: str) -> list:
        cached = self._pylists.get(name)
        if cached is None:
            cached = _python_values(self._buffer(name))
            self._pylists[name] = cached
        return cached

    # -- row access (lazy) ---------------------------------------------------

    @property
    def rows(self) -> list[tuple]:
        """The result as Python row tuples, materialized on first access."""
        if self._rows is None:
            if not self.columns:
                self._rows = []
            else:
                lists = [self._python_column(name) for name in self.columns]
                self._rows = list(zip(*lists))
        return self._rows

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def fetch_batches(self, size: int) -> Iterator[list[tuple]]:
        """Yield the result as consecutive chunks of at most ``size`` rows.

        Each chunk is converted from the columnar store independently, so
        consuming a prefix of a large result never materializes the rest.
        """
        if size <= 0:
            raise ExecutionError(f"fetch_batches size must be positive, got {size}")
        if self._rows is not None:
            for start in range(0, len(self._rows), size):
                yield self._rows[start : start + size]
            return
        for start in range(0, self._length, size):
            stop = min(start + size, self._length)
            lists = [
                _python_values(self._buffer(name)[start:stop])
                for name in self.columns
            ]
            yield list(zip(*lists)) if lists else []

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if self._length != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() requires a 1x1 result, got {self._length} rows x "
                f"{len(self.columns)} columns"
            )
        return self._python_column(self.columns[0])[0]

    def to_dicts(self) -> list[dict[str, Any]]:
        """The result as a list of dicts (one per row)."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class PreparedQuery:
    """A query shape prepared once and executable many times.

    Holds the bound comprehension, the logical plan and the physical plan of
    one query text; ``?`` / ``:name`` placeholders stay abstract
    :class:`~repro.core.expressions.Parameter` nodes, so the physical plan's
    fingerprint — and therefore the engine's compiled-program cache key — is
    shared by every execution regardless of the bound constants.

    :meth:`execute` binds values and runs the cascade directly: no parsing,
    no binding and no code generation happen on the hot path.  The first
    execution with bound values re-runs the *optimizer* once with those
    constants feeding selectivity estimation (join order / build side), then
    the plan is frozen; the compiled-program cache is keyed by plan
    fingerprint, so re-optimization never invalidates compiled artifacts.

    Re-registering (or dropping) datasets invalidates outstanding prepared
    queries: the engine's catalog epoch is checked on every execution and the
    query transparently re-prepares itself against the current catalog — it
    can never serve stale data through a baked-in ``Dataset`` object.

    One PreparedQuery is shared by every thread executing the same query text
    (the engine's per-text prepared cache), so its refresh state — epoch,
    plan, value-optimized flag — lives in a single tuple swapped atomically
    under ``self._lock``: an executing thread snapshots the whole triple in
    one read and can never pair a stale plan with a fresh epoch.
    """

    def __init__(
        self,
        engine: "ProteusEngine",
        source: str | Comprehension,
        comprehension: Comprehension,
        logical,
        plan: PhysicalPlan,
        parameter_keys: Sequence[int | str],
        epoch: int,
    ):
        self._engine = engine
        self._source = source
        self.comprehension = comprehension
        self._logical = logical
        self.parameter_keys = list(parameter_keys)
        self._positional = sorted(
            key for key in self.parameter_keys if isinstance(key, int)
        )
        self._named = {key for key in self.parameter_keys if isinstance(key, str)}
        #: (catalog epoch, physical plan, value-optimized?) — one atomically
        #: rebound triple, written only inside :meth:`_current_plan` under
        #: ``self._lock``, read lock-free as a single snapshot.
        self._state: tuple[int, PhysicalPlan | None, bool] = (epoch, plan, False)
        self._lock = make_lock("PreparedQuery._lock")

    @property
    def plan(self) -> PhysicalPlan | None:
        """The current physical plan (introspection)."""
        return self._state[1]

    @property
    def _plan(self) -> PhysicalPlan | None:
        return self._state[1]

    def _current_plan(self, params: dict | None) -> PhysicalPlan:
        """The plan to execute with, re-preparing against the live catalog
        when the epoch moved (or re-optimizing on the first parameterized
        execution).  The fast path is one lock-free snapshot read; refreshes
        serialize under ``self._lock`` so concurrent executors of this shared
        object never observe a half-written (epoch, plan) pair."""
        engine = self._engine
        epoch, plan, value_optimized = self._state
        if (
            epoch == engine._catalog_epoch
            and plan is not None
            and not (params and not value_optimized)
        ):
            return plan
        with self._lock:
            epoch, plan, value_optimized = self._state
            current_epoch = engine._catalog_epoch
            if epoch != current_epoch:
                # The catalog changed since preparation: transparently
                # re-prepare against the current datasets (or fail the way a
                # fresh query would, e.g. when the dataset was dropped).
                self.comprehension = engine._to_comprehension(self._source)
                self._logical = translate(self.comprehension)
                plan = None
                value_optimized = False
            if plan is None or (params and not value_optimized):
                # First (parameterized) execution: run the optimizer with the
                # bound values feeding selectivity estimation, then freeze
                # the plan.  The compiled-program cache is keyed by the
                # plan's parameter-abstracted fingerprint, so
                # re-optimization can only reuse or add compiled artifacts,
                # never invalidate them.
                plan = engine._plan_logical(
                    self._logical,
                    parameters=params or None,
                    comprehension=self.comprehension,
                )
                if params:
                    value_optimized = True
            self._state = (current_epoch, plan, value_optimized)
            return plan

    @property
    def parameters(self) -> list[int | str]:
        """Parameter keys in first-appearance order (ints for ``?``,
        strings for ``:name``)."""
        return list(self.parameter_keys)

    @property
    def analysis(self) -> PlanAnalysis:
        """The static analysis of this query: inferred output schema
        (dtype + nullability per column), per-tier capability verdicts and
        the nullability hints feeding the executors' fast paths.

        Everything here is computed at prepare time — no data is read."""
        plan = self._current_plan(None)
        schema = self._engine._analyze(plan)
        return PlanAnalysis(
            columns=tuple(schema.columns),
            verdicts=self._engine._verdicts(plan),
            hints=schema.hints,
        )

    def result_key(
        self, args: Sequence[object], named: Mapping[str, object]
    ) -> tuple | None:
        """The key under which a cross-client result cache may keep the
        answer to ``execute(*args, **named)``:
        ``("result", plan fingerprint, bound values, catalog epoch)``.

        Two prepared queries of one shape — the same text through
        ``engine.query()`` and through ``prepare()`` — share keys; a catalog
        change moves the epoch, which makes every older key unreachable.
        ``None`` when a bound value is not a hashable scalar (or is NaN,
        which never equals itself): such executions are not cacheable.
        Binding errors raise exactly as :meth:`execute` would."""
        params = self._bind(tuple(args), named)
        for value in params.values():
            if type(value) not in _KEYABLE_TYPES or value != value:
                return None
        self._current_plan(params)
        epoch, plan, _ = self._state
        if plan is None:  # pragma: no cover - _current_plan always plans
            return None
        bound = frozenset(
            (key, type(value), value) for key, value in params.items()
        )
        return ("result", plan.fingerprint(), bound, epoch)

    def execute(
        self, *args, timeout: float | None = None, cancel=None, **named
    ) -> ResultSet:
        """Bind parameter values and execute.

        Positional values fill ``?`` placeholders in order; keyword values
        fill ``:name`` placeholders.  Every declared parameter must receive
        exactly one value.  ``timeout`` (seconds) overrides the engine's
        default deadline for this call; ``cancel`` attaches a
        :class:`~repro.resilience.CancellationToken` that another thread may
        trip to abort the query cooperatively."""
        return self._engine._execute_prepared(
            self, self._bind(args, named), timeout=timeout, cancel=cancel
        )

    def executemany(self, parameter_sets) -> list[ResultSet]:
        """Execute once per entry of ``parameter_sets``.

        Each entry is a tuple/list (positional), a mapping (named) or a bare
        scalar (single positional parameter); returns one :class:`ResultSet`
        per entry, in order.  All executions share the same compiled program.
        """
        results: list[ResultSet] = []
        for entry in parameter_sets:
            if isinstance(entry, Mapping):
                results.append(
                    self._engine._execute_prepared(self, self._bind_mapping(entry))
                )
            elif isinstance(entry, (tuple, list)):
                results.append(self.execute(*entry))
            else:
                results.append(self.execute(entry))
        return results

    def _bind(self, args: tuple, named: Mapping[str, object]) -> dict:
        if len(args) > len(self._positional):
            raise ProteusError(
                f"query declares {len(self._positional)} positional "
                f"parameter(s), got {len(args)} value(s)"
            )
        params: dict[int | str, object] = dict(enumerate(args))
        for name, value in named.items():
            if name not in self._named:
                declared = sorted(self._named) or ["<none>"]
                raise ProteusError(
                    f"unknown named parameter :{name}; declared named "
                    f"parameters: {declared}"
                )
            params[name] = value
        self._check_complete(params)
        return params

    def _bind_mapping(self, mapping: Mapping) -> dict:
        """Bind a raw key→value mapping (int keys positional, str keys named)."""
        declared = set(self.parameter_keys)
        params: dict[int | str, object] = {}
        for key, value in mapping.items():
            if key not in declared:
                display = f"?{key}" if isinstance(key, int) else f":{key}"
                raise ProteusError(
                    f"unknown parameter {display}; declared parameters: "
                    f"{self.parameter_keys}"
                )
            params[key] = value
        self._check_complete(params)
        return params

    def _check_complete(self, params: Mapping) -> None:
        missing = [key for key in self.parameter_keys if key not in params]
        if missing:
            display = ", ".join(
                f"?{key}" if isinstance(key, int) else f":{key}" for key in missing
            )
            raise ProteusError(f"missing value(s) for parameter(s) {display}")


class ProteusEngine:
    """An analytical query engine over heterogeneous raw data."""

    def __init__(
        self,
        cache_budget_bytes: int = 256 * 1024 * 1024,
        enable_caching: bool = True,
        enable_codegen: bool = True,
        parallel_workers: int | None = None,
        vectorized_batch_size: int = DEFAULT_BATCH_SIZE,
        enable_tracing: bool = False,
        enable_metrics: bool = True,
        slow_query_seconds: float | None = 1.0,
        query_timeout_seconds: float | None = None,
        max_concurrent_queries: int | None = None,
        query_memory_budget_bytes: int | None = None,
        io_retry_budget: int = 16,
    ):
        self.memory = MemoryManager(cache_budget_bytes=cache_budget_bytes)
        self.catalog = Catalog()
        self.enable_codegen = enable_codegen
        #: Worker count of the batch executor's morsel fan-out; 1 (the
        #: default) keeps every scan inline on the calling thread.
        self.parallel_workers = 1 if parallel_workers is None else max(int(parallel_workers), 1)
        self.vectorized_batch_size = vectorized_batch_size
        self.enable_caching = enable_caching
        self.cache_manager: CacheManager | None = (
            CacheManager(self.memory.arena) if enable_caching else None
        )
        self.plugins: dict[str, InputPlugin] = {
            DataFormat.CSV: CsvPlugin(self.memory),
            DataFormat.JSON: JsonPlugin(self.memory),
            DataFormat.BINARY_ROW: BinaryRowPlugin(self.memory),
            DataFormat.BINARY_COLUMN: BinaryColumnPlugin(self.memory),
        }
        #: Cross-query scan sharing (serving layer): concurrent cold scans of
        #: the same registered file coalesce on one in-flight materialization
        #: — one leader parses and populates the field caches, everyone else
        #: waits and re-probes.  Only meaningful with caching enabled (a
        #: waiter piggy-backs through the cache the leader populated).
        self._scan_coalescer: ScanCoalescer | None = (
            ScanCoalescer() if self.cache_manager is not None else None
        )
        self.statistics = StatisticsManager(self.catalog)
        self.planner = Planner(self.catalog, self.statistics)
        self.generator = CodeGenerator()
        #: Guards the five shape caches below and the catalog epoch: the
        #: engine serves concurrent sessions, so every publish into (or bulk
        #: clear of) shared prepare-time state happens under this lock.
        #: Expensive work (parse, plan, codegen) runs *outside* it; winners
        #: are chosen with ``setdefault`` — the double-checked publish
        #: pattern, checked by ``tools/concurrency_lint.py``.
        self._lock = make_lock("ProteusEngine._lock")
        self._compiled: dict[tuple, Any] = {}
        self._parsed: OrderedDict[str, Comprehension] = OrderedDict()
        #: Static-analysis cache keyed by plan fingerprint; entries are
        #: invalidated with the catalog epoch (schemas may change).
        self._analyses: dict[tuple, SchemaAnalysis] = {}
        #: Tier verdicts keyed by (plan fingerprint, ablation flags) — a pure
        #: function of both; dropped together with ``_analyses``.
        self._verdict_cache: dict[tuple, tuple[TierVerdict, ...]] = {}
        #: Prepared-query cache backing the ``query()`` sugar (keyed by the
        #: stripped query text); outstanding entries survive catalog changes
        #: because every execution re-validates against ``_catalog_epoch``.
        #: Like ``_parsed`` an LRU of ``SHAPE_CACHE_CAPACITY`` texts; an
        #: evicted PreparedQuery stays valid for whoever still holds it.
        self._prepared_cache: OrderedDict[str, PreparedQuery] = OrderedDict()
        #: Monotonic counter bumped on every catalog mutation (register,
        #: re-register, unregister, analyze).  PreparedQuery executions
        #: compare against it and transparently re-prepare on mismatch.
        self._catalog_epoch = 0
        #: Introspection of the most recent query.
        self.last_plan: PhysicalPlan | None = None
        self.last_generated_source: str | None = None
        self.last_profile: ExecutionProfile | None = None
        #: Engine-wide metrics registry (queries per tier, decline codes,
        #: latency histogram, cache and plug-in gauges, slow-query log).
        #: Always constructed so scrapes never fail; ``enable_metrics=False``
        #: turns per-query recording into one attribute check.
        self.metrics = MetricsRegistry(enabled=enable_metrics)
        #: Coalesced-scan counter: cold scans that piggy-backed on another
        #: query's in-flight materialization instead of re-parsing the file.
        #: ``None`` with metrics disabled (a disabled registry exports nothing).
        self._scans_coalesced = (
            self.metrics.counter(
                "proteus_scans_coalesced_total",
                "Cold scans served by a concurrent leader's in-flight "
                "materialization instead of a duplicate parse.",
            )
            if self.metrics.enabled
            else None
        )
        #: Span tracer; disabled by default (pay-for-what-you-use — every
        #: instrumentation site reduces to an ``is None`` check).
        self.tracer = Tracer(enabled=enable_tracing)
        #: Executions at or above this wall-clock duration land in the
        #: metrics registry's slow-query log; ``None`` disables the log.
        self.slow_query_seconds = slow_query_seconds
        #: Engine-wide default deadline; a per-call ``timeout=`` overrides it.
        #: ``None`` leaves queries unbounded.
        self.query_timeout_seconds = query_timeout_seconds
        #: Transient-I/O retries one query may spend across all its scans
        #: before a :class:`~repro.errors.ScanIOError` surfaces.
        self.io_retry_budget = io_retry_budget
        #: Admission controller — built only when a concurrency or memory
        #: bound is configured, so unconfigured engines skip admission
        #: entirely (no lock acquisition on the query path).
        self.admission: AdmissionController | None = None
        if max_concurrent_queries is not None or query_memory_budget_bytes is not None:
            self.admission = AdmissionController(
                max_concurrent=max_concurrent_queries,
                memory_budget_bytes=query_memory_budget_bytes,
            )
        self._register_callback_gauges()

    def _register_callback_gauges(self) -> None:
        """Register scrape-time gauges over state the engine already tracks
        (cache manager statistics, per-plug-in scan totals) — no recording
        cost on the query path."""
        if not self.metrics.enabled:
            return
        manager = self.cache_manager
        if manager is not None:
            self.metrics.gauge_callback(
                "proteus_cache_hit_rate",
                lambda: manager.stats.hit_rate,
                "Cache lookup hit rate since engine start.",
            )
            self.metrics.gauge_callback(
                "proteus_cache_lookups",
                lambda: float(manager.stats.lookups),
                "Cache lookups since engine start.",
            )
            self.metrics.gauge_callback(
                "proteus_cache_hits",
                lambda: float(manager.stats.hits),
                "Cache lookup hits since engine start.",
            )
            self.metrics.gauge_callback(
                "proteus_cache_entries",
                lambda: float(len(manager.entries())),
                "Live cache entries.",
            )
            self.metrics.gauge_callback(
                "proteus_cache_used_bytes",
                lambda: float(manager.used_bytes),
                "Bytes of arena memory held by cache entries.",
            )
        coalescer = self._scan_coalescer
        if coalescer is not None:
            self.metrics.gauge_callback(
                "proteus_scans_inflight",
                lambda: float(coalescer.inflight_count),
                "Cold-scan materializations currently led by some query "
                "(concurrent arrivals coalesce on them).",
            )
        admission = self.admission
        if admission is not None:
            self.metrics.gauge_callback(
                "proteus_admission_active",
                lambda: float(admission.active),
                "Queries currently holding an admission slot.",
            )
            self.metrics.gauge_callback(
                "proteus_admission_reserved_bytes",
                lambda: float(admission.reserved_bytes),
                "Bytes reserved against the admission memory budget.",
            )
            self.metrics.gauge_callback(
                "proteus_admission_admitted_total",
                lambda: float(admission.admitted_total),
                "Queries admitted since engine start.",
            )
            self.metrics.gauge_callback(
                "proteus_admission_rejected_total",
                lambda: float(admission.rejected_total),
                "Queries rejected by admission control (RES003/RES004).",
            )
        plugins = list(self.plugins.values())
        self.metrics.gauge_callback(
            "proteus_plugin_scan_seconds",
            lambda: {p.format_name: p.scan_seconds for p in plugins},
            "Wall-clock seconds spent inside plug-in scan calls.",
            callback_label="format",
        )
        self.metrics.gauge_callback(
            "proteus_plugin_scan_bytes",
            lambda: {p.format_name: float(p.scan_bytes) for p in plugins},
            "Bytes of column buffers produced by plug-in scan calls.",
            callback_label="format",
        )
        self.metrics.gauge_callback(
            "proteus_plugin_scan_calls",
            lambda: {p.format_name: float(p.scan_calls) for p in plugins},
            "Plug-in scan calls (one per materialized buffer stream).",
            callback_label="format",
        )

    # ------------------------------------------------------------------------
    # Dataset registration
    # ------------------------------------------------------------------------

    def register_csv(
        self,
        name: str,
        path: str,
        schema: t.RecordType | Mapping | None = None,
        delimiter: str = ",",
        has_header: bool = True,
        stride: int = 5,
        analyze: bool = False,
    ) -> Dataset:
        """Register a raw CSV file as a queryable dataset."""
        options = {"delimiter": delimiter, "has_header": has_header, "stride": stride}
        return self._register(name, DataFormat.CSV, path, schema, options, analyze)

    def register_json(
        self,
        name: str,
        path: str,
        schema: t.RecordType | Mapping | None = None,
        sample_size: int = 50,
        analyze: bool = False,
    ) -> Dataset:
        """Register a raw JSON object stream as a queryable dataset."""
        options = {"sample_size": sample_size}
        return self._register(name, DataFormat.JSON, path, schema, options, analyze)

    def register_binary_columns(
        self, name: str, directory: str, analyze: bool = True
    ) -> Dataset:
        """Register a binary column table (directory of column files)."""
        return self._register(name, DataFormat.BINARY_COLUMN, directory, None, {}, analyze)

    def register_binary_rows(self, name: str, path: str, analyze: bool = True) -> Dataset:
        """Register a binary row table."""
        return self._register(name, DataFormat.BINARY_ROW, path, None, {}, analyze)

    def _register(
        self,
        name: str,
        data_format: str,
        path: str,
        schema: t.RecordType | Mapping | None,
        options: dict,
        analyze: bool,
    ) -> Dataset:
        plugin = self.plugins[data_format]
        if name in self.catalog:
            # Re-registration under an existing name: drop the old plug-in
            # state, any caches built from the previous data and every
            # compiled program (they bake Dataset objects in as constants),
            # exactly as ``unregister`` would — otherwise a compiled program
            # or cache entry from the old path/schema could serve stale
            # results.  A brand-new name cannot affect existing programs.
            old = self.catalog.get(name)
            old_plugin = self.plugins.get(old.format)
            if old_plugin is not None and hasattr(old_plugin, "invalidate"):
                old_plugin.invalidate(name)
            if self.cache_manager is not None:
                self.cache_manager.invalidate_dataset(name)
            with self._lock:
                self._compiled.clear()
        if schema is not None and not isinstance(schema, t.RecordType):
            schema = t.make_schema(schema)
        dataset = Dataset(name=name, format=data_format, path=path,
                          schema=schema, options=options)  # type: ignore[arg-type]
        if schema is None:
            dataset.schema = plugin.infer_schema(dataset)
        self.catalog.register(dataset, replace=True)
        if analyze:
            self.analyze(name)
        with self._lock:
            self._parsed.clear()
            self._prepared_cache.clear()
            self._analyses.clear()
            self._verdict_cache.clear()
            # Any catalog change invalidates outstanding PreparedQuery objects
            # (their plans may bake stale Dataset objects or, for a brand-new
            # name, resolve unqualified columns differently); they
            # transparently re-prepare on their next execution.
            self._catalog_epoch += 1
        return dataset

    def unregister(self, name: str) -> None:
        """Remove a dataset, its plug-in state and any caches built from it."""
        if name not in self.catalog:
            return
        dataset = self.catalog.get(name)
        plugin = self.plugins.get(dataset.format)
        if plugin is not None and hasattr(plugin, "invalidate"):
            plugin.invalidate(name)
        if self.cache_manager is not None:
            self.cache_manager.invalidate_dataset(name)
        self.catalog.unregister(name)
        with self._lock:
            self._compiled.clear()
            self._parsed.clear()
            self._prepared_cache.clear()
            self._analyses.clear()
            self._verdict_cache.clear()
            self._catalog_epoch += 1

    def analyze(self, name: str) -> None:
        """Collect statistics for a dataset (cardinality, min/max per field)."""
        dataset = self.catalog.get(name)
        plugin = self.plugins[dataset.format]
        self.catalog.set_statistics(name, plugin.collect_statistics(dataset))
        # Fresh statistics can change join orders; let prepared plans refresh.
        with self._lock:
            self._analyses.clear()
            self._verdict_cache.clear()
            self._catalog_epoch += 1

    # ------------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------------

    def prepare(self, text: str | Comprehension) -> PreparedQuery:
        """Parse, bind and plan a query once, returning a reusable
        :class:`PreparedQuery`.

        ``?`` (positional) and ``:name`` (named) placeholders may appear
        anywhere a scalar expression is allowed, in both SQL and the
        comprehension syntax.  Execution binds values without re-parsing or
        re-generating code; on a repeated shape the whole frontend cost —
        parse, bind, normalize, translate, plan, codegen — is paid once.
        """
        try:
            comprehension = self._to_comprehension(text)
            logical = translate(comprehension)
            physical = self._plan_logical(logical, comprehension=comprehension)
        except ProteusError as exc:
            # Prepare-time failures (parse, bind, TYP analysis, planning)
            # count as failed queries too — same counter, keyed by code.
            self._count_query_failure(exc)
            raise
        self.last_plan = physical
        return PreparedQuery(
            self,
            text,
            comprehension,
            logical,
            physical,
            comprehension.parameters(),
            self._catalog_epoch,
        )

    def query(
        self,
        text: str | Comprehension,
        *args,
        timeout: float | None = None,
        cancel: CancellationToken | None = None,
        **params,
    ) -> ResultSet:
        """Execute a query: sugar for ``prepare(text).execute(*args, **params)``.

        Prepared queries are cached per query text, so repeated ``query()``
        calls with the same text (and varying parameter values) reuse one
        plan and one compiled program.

        ``timeout`` overrides the engine's ``query_timeout_seconds`` for this
        call; ``cancel`` attaches a :class:`~repro.resilience.CancellationToken`
        another thread may trip.  (A named query parameter literally called
        ``:timeout`` or ``:cancel`` must be bound through
        ``prepare(...).executemany([{...}])`` instead.)
        """
        return self._prepare_cached(text).execute(
            *args, timeout=timeout, cancel=cancel, **params
        )

    def sql(self, text: str, *args, **params) -> ResultSet:
        """Execute a SQL statement."""
        return self.query(text, *args, **params)

    def explain(
        self, text: str | Comprehension, *args, analyze: bool = False, **params
    ) -> str:
        """The physical plan, generated expression functions, tier-cascade
        decision and planned morsel fan-out of a query, without executing it
        (no raw data is read).

        With ``analyze=True`` the query *is* executed (under forced tracing;
        parameter values may be passed like :meth:`query`) and the plan tree
        is rendered with actual per-operator time and row counts next to the
        optimizer's estimates, plus the predicted-vs-served tier.
        """
        if analyze:
            return self._explain_analyze(text, args, params)
        comprehension = self._to_comprehension(text)
        physical = self._plan(comprehension)
        analysis = self._analyze(physical)
        verdicts = self._verdicts(physical)
        parts = ["== physical plan ==", physical.pretty()]
        if analysis.columns:
            parts.extend(["", "== inferred output schema =="])
            parts.extend(f"  {info.render()}" for info in analysis.columns)
        unnests = [
            node for node in physical.walk() if isinstance(node, PhysUnnest)
        ]
        if unnests:
            parts.extend(["", "== unnest strategy =="])
            for node in unnests:
                mode, why = node.planned_mode()
                kind = "outer" if node.outer else "inner"
                parts.append(
                    f"{node.var} <- {node.binding}.{'.'.join(node.path)} "
                    f"({kind}): {mode} -- {why}"
                )
            parts.append(
                "(batch-native: parent columns broadcast with one np.repeat "
                "per batch; outer unnest emits a null child row for empty "
                "collections)"
            )
        if isinstance(physical, PhysSort):
            strategy, why = physical.planned_strategy()
            parts.extend(
                [
                    "",
                    "== sort strategy ==",
                    f"{strategy}: {why}",
                    "(execution refines the choice per key dtype: object "
                    "columns fall back to the boxed comparator)",
                ]
            )
        codegen_verdict = verdicts[0]
        codegen_reason: str | None = None
        generated = None
        if not codegen_verdict.serves:
            codegen_reason = codegen_verdict.reason
        else:
            try:
                generated = self.generator.generate(unwrap_sort(physical))
            except CodegenError as exc:
                # Static verdict / generator drift: surface the generator's
                # own wording rather than hiding the decline.
                codegen_reason = str(exc)
        if generated is not None:
            parts.extend(["", "== generated code ==", generated.source])
        elif self.enable_codegen:
            parts.extend(["", f"(code generation unavailable: {codegen_reason}; "
                              "a fallback tier would serve the query, see the "
                              "tier cascade below)"])
        parts.extend(["", "== tier cascade =="])
        selected = False
        for verdict in verdicts:
            if verdict.serves and not selected:
                parts.append(f"{verdict.tier}: serves this plan  <- selected")
                selected = True
            elif verdict.serves:
                parts.append(
                    f"{verdict.tier}: would serve if the tiers above declined"
                )
            else:
                parts.append(
                    f"{verdict.tier}: declines -- {verdict.reason} "
                    f"[{verdict.code}]"
                )
        parts.append(
            "(note: run-time data conditions, e.g. null join or group keys, "
            "can still demote the batch pipeline to volcano during execution)"
        )
        parts.extend(["", "== vectorized fan-out ==", self._planned_fanout(physical)])
        return "\n".join(parts)

    def _planned_fanout(self, physical: PhysicalPlan) -> str:
        """How the batch pipeline would run this plan's driving scan, from
        catalog facts only: the collected row count (unknown without
        statistics — then the executor decides when the scan opens) and
        whether the root groups.  An aggregate over a one-key join chain
        may run per key value, every input streaming like a join build side;
        whether it does depends on the data."""
        scan = driving_scan(physical)
        if scan is None:
            return "serial: the plan has no driving scan"
        dataset = self.catalog.get(scan.dataset)
        plugin = self.plugins[dataset.format]
        statistics = dataset.statistics
        chain = factorized_chain(unwrap_sort(physical))
        _, why = plan_fanout(
            self.parallel_workers,
            int(statistics.cardinality) if statistics is not None else None,
            self.vectorized_batch_size,
            chain is None and isinstance(unwrap_sort(physical), PhysNest),
        )
        line = f"{scan.dataset} ({plugin.format_name}): {why}"
        if chain is not None:
            line = (
                f"join chain of {len(chain.inputs)} inputs may run per key value "
                "(a two-input join whose first input holds each key once probes "
                f"a table); {line}"
            )
        return line

    def _explain_analyze(
        self, text: str | Comprehension, args: tuple, params: dict
    ) -> str:
        """Execute under forced tracing and render estimated-vs-actual."""
        with self.tracer.force():
            prepared = self.prepare(text)
            result = prepared.execute(*args, **params)
        plan = prepared._plan
        if plan is None:  # pragma: no cover - execute() always plans
            raise ProteusError("explain(analyze=True) produced no plan")
        return render_explain_analyze(
            plan,
            self.tracer.last(),
            result.profile,
            self.statistics,
            len(result),
            result.execution_seconds,
        )

    # -- pipeline stages -------------------------------------------------------

    def _prepare_cached(self, text: str | Comprehension) -> PreparedQuery:
        if isinstance(text, Comprehension):
            return self.prepare(text)
        key = text.strip()
        prepared = self._lru_lookup(self._prepared_cache, key)
        if prepared is None:
            # Prepare outside the lock (parse + plan are the expensive part);
            # concurrent first callers race to prepare, one publication wins
            # and every thread shares the winner.
            prepared = self._lru_publish(
                self._prepared_cache, key, self.prepare(text)
            )
        return prepared

    def _lru_lookup(self, cache: OrderedDict, key: str):
        """``cache[key]`` marked most recently used, or ``None``."""
        with self._lock:
            value = cache.get(key)
            if value is not None:
                cache.move_to_end(key)
        return value

    def _lru_publish(self, cache: OrderedDict, key: str, value):
        """Double-checked publish into a text-keyed LRU: the first value
        published under ``key`` wins and is returned; texts beyond
        ``SHAPE_CACHE_CAPACITY`` drop off the cold end."""
        with self._lock:
            value = cache.setdefault(key, value)
            cache.move_to_end(key)
            while len(cache) > SHAPE_CACHE_CAPACITY:
                cache.popitem(last=False)
        return value

    def _to_comprehension(self, text: str | Comprehension) -> Comprehension:
        started = time.perf_counter()
        try:
            return self._to_comprehension_inner(text)
        finally:
            self.tracer.record_phase("parse", time.perf_counter() - started)

    def _to_comprehension_inner(self, text: str | Comprehension) -> Comprehension:
        if isinstance(text, Comprehension):
            comprehension = text
        else:
            stripped = text.strip()
            cached = self._lru_lookup(self._parsed, stripped)
            if cached is not None:
                return cached
            if stripped.lower().startswith("select"):
                comprehension = parse_sql(stripped)
            elif stripped.lower().startswith("for"):
                comprehension = parse_comprehension(stripped)
            else:
                raise ProteusError(
                    "queries must start with SELECT (SQL) or FOR (comprehension syntax)"
                )
            bound = normalize(bind_comprehension(comprehension, self.catalog.element_types()))
            return self._lru_publish(self._parsed, stripped, bound)
        return normalize(bind_comprehension(comprehension, self.catalog.element_types()))

    def _plan_logical(
        self,
        logical,
        parameters: ParamValues | None = None,
        comprehension: Comprehension | None = None,
    ) -> PhysicalPlan:
        order_by = comprehension.order_by if comprehension is not None else None
        limit = comprehension.limit if comprehension is not None else None
        started = time.perf_counter()
        physical = self.planner.plan(
            logical, parameters=parameters, order_by=order_by, limit=limit
        )
        self.tracer.record_phase("plan", time.perf_counter() - started)
        _validate_output_columns(physical)
        # Static analysis runs at prepare time: unknown fields referenced
        # through nested paths, mixed-type comparisons and invalid aggregate
        # inputs surface here as AnalysisError instead of surfacing as raw
        # KeyErrors (or worse, silently wrong masks) during execution.
        started = time.perf_counter()
        self._analyze(physical)
        self.tracer.record_phase("analyze", time.perf_counter() - started)
        return physical

    def _analyze(self, physical: PhysicalPlan) -> SchemaAnalysis:
        """Type/nullability analysis of a plan, cached per fingerprint."""
        fingerprint = physical.fingerprint()
        cached = self._analyses.get(fingerprint)
        if cached is None:
            cached = analyze_schema(physical, self.catalog)
            with self._lock:
                cached = self._analyses.setdefault(fingerprint, cached)
        return cached

    def _verdicts(self, physical: PhysicalPlan) -> tuple[TierVerdict, ...]:
        """Static tier-capability verdicts under this engine's configuration,
        cached per (fingerprint, ablation flag) — ``enable_codegen`` is a
        plain attribute callers may flip between executions."""
        key = (physical.fingerprint(), self.enable_codegen)
        cached = self._verdict_cache.get(key)
        if cached is None:
            cached = tier_verdicts(physical, enable_codegen=self.enable_codegen)
            with self._lock:
                cached = self._verdict_cache.setdefault(key, cached)
        return cached

    def _plan(
        self, comprehension: Comprehension, parameters: ParamValues | None = None
    ) -> PhysicalPlan:
        physical = self._plan_logical(
            translate(comprehension), parameters, comprehension=comprehension
        )
        self.last_plan = physical
        return physical

    def _execute_prepared(
        self,
        prepared: PreparedQuery,
        params: dict,
        timeout: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> ResultSet:
        plan = prepared._current_plan(params)
        self.last_plan = plan
        query_text = (
            prepared._source if isinstance(prepared._source, str) else None
        )
        return self._execute(
            plan, params or None, query_text=query_text,
            timeout=timeout, cancel=cancel,
        )

    def _execute(
        self,
        physical: PhysicalPlan,
        params: ParamValues | None = None,
        query_text: str | None = None,
        timeout: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> ResultSet:
        started = time.perf_counter()
        # One QueryContext per execution, always — unconfigured engines get a
        # passive context (no deadline, no token) whose checks are a couple of
        # attribute loads, so the resilience plumbing has one code path.
        effective_timeout = (
            self.query_timeout_seconds if timeout is None else timeout
        )
        context = QueryContext(
            timeout_seconds=effective_timeout,
            token=cancel,
            retry_budget=self.io_retry_budget,
        )
        slot = None
        if self.admission is not None:
            # Queue for a slot only as long as the deadline just started
            # allows: a short query behind a full controller fails fast.
            try:
                slot = self.admission.admit(
                    self._estimate_query_bytes(physical), deadline=context.deadline
                )
            except ResilienceError as exc:
                self._record_query_metrics(
                    query_text,
                    ExecutionProfile(execution_tier="aborted"),
                    time.perf_counter() - started,
                    None,
                    error=exc,
                )
                raise
        trace = self.tracer.begin(query_text or "<plan>", physical)
        leases: list[ScanLease] = []
        try:
            # Cross-query scan sharing: lead or join the in-flight cold
            # scans this plan touches.  Runs after admission (the front
            # door) and inside the abort handling below, because a
            # coalesced wait honours the deadline/cancellation checks.
            if self._scan_coalescer is not None:
                leases = self._coalesce_cold_scans(physical, context)
            # The context is published thread-locally so code that cannot
            # take a parameter (plug-in I/O beneath a scan) still finds the
            # retry budget and deadline; the worker pool re-publishes it on
            # its own threads.
            with activate_context(context):
                return self._execute_with_context(
                    physical, params, query_text, started, context, trace
                )
        except ProteusError as exc:
            # Any failure mid-execution — deadline, cancellation, exhausted
            # retries, or an ordinary execution error — lands here after the
            # executors unwound (pool drained, no worker leaked).  Record an
            # abort profile carrying the partial-progress counters so callers
            # and the trace see how far the query got.
            elapsed = time.perf_counter() - started
            code = _failure_code(exc)
            profile = ExecutionProfile(execution_tier="aborted")
            profile.aborted = code
            profile.io_retries = context.io_retries
            profile.partial_progress = context.progress_snapshot()
            self.last_profile = profile
            # Callers that cannot consult last_profile without racing other
            # sessions (the HTTP serving layer) read the abort profile —
            # and its partial_progress — straight off the exception.
            exc.profile = profile
            finished_trace = (
                self.tracer.finish(trace, profile, elapsed, aborted=code)
                if trace is not None
                else None
            )
            self._record_query_metrics(
                query_text, profile, elapsed, finished_trace, error=exc
            )
            raise
        finally:
            # Leases first: the leader's materializations are already
            # stored, so waiters waking here go straight to a warm cache.
            for lease in leases:
                lease.release()
            if slot is not None:
                slot.release()

    #: Bounded leader-retry rounds for one coalesced scan: a waiter that
    #: wakes to a still-cold cache (the leader failed, or the policy declined
    #: to store) re-bids for leadership this many times before giving up and
    #: scanning uncoalesced — coalescing is an optimization, never a gate.
    _MAX_COALESCE_ROUNDS = 8

    def _coalesce_cold_scans(
        self, physical: PhysicalPlan, context: QueryContext
    ) -> list[ScanLease]:
        """Lead or join the in-flight materialization of every *cold* raw
        scan in ``physical``; returns the leases this query must release
        (in ``_execute``'s ``finally``) after its execution stored them.

        A scan is coalescable when its dataset's format would actually be
        cached by the policy (verbose sources — JSON, CSV; binary sources
        are cheap to re-scan and the default policy never caches them) and
        at least one of its field columns is missing from the cache.
        Datasets are acquired in sorted order so two queries covering the
        same datasets can never deadlock waiting on each other's leases.
        """
        manager = self.cache_manager
        coalescer = self._scan_coalescer
        leases: list[ScanLease] = []
        if manager is None or coalescer is None:
            return leases
        cold: dict[str, list[tuple]] = {}
        for node in physical.walk():
            # The scan reads raw bytes for every column the cache no longer
            # holds, however warm the cache was when the plan was made.
            if not isinstance(node, PhysScan):
                continue
            if node.dataset in cold or not node.paths:
                continue
            try:
                dataset = self.catalog.get(node.dataset)
            except ProteusError:
                continue
            if not manager.policy.should_cache_field(dataset.format):
                continue
            keys = [field_cache_key(dataset.name, path) for path in node.paths]
            if any(manager.peek(key) is None for key in keys):
                cold[dataset.name] = keys
        for name in sorted(cold):
            keys = cold[name]
            for _ in range(self._MAX_COALESCE_ROUNDS):
                lease = coalescer.acquire(name, context)
                if lease is not None:
                    leases.append(lease)
                    break
                # A leader just finished: if its materialization warmed our
                # columns, piggy-back on it and skip the raw parse.
                if all(manager.peek(key) is not None for key in keys):
                    if self._scans_coalesced is not None:
                        self._scans_coalesced.inc(dataset=name)
                    break
        return leases

    def _execute_with_context(
        self,
        physical: PhysicalPlan,
        params: ParamValues | None,
        query_text: str | None,
        started: float,
        context: QueryContext,
        trace: TraceBuilder | None,
    ) -> ResultSet:
        # Resolve a parameterized LIMIT up front: literal and bound values go
        # through the same validation (negative limits are rejected in both).
        sort_plan = physical if isinstance(physical, PhysSort) else None
        bound_limit = (
            resolve_limit(sort_plan.limit, params) if sort_plan is not None else None
        )
        cascade_started = time.perf_counter()
        analysis = self._analyze(physical)
        verdicts = self._verdicts(physical)
        pipeline_serves = verdicts[0].serves  # CASCADE_TIERS[0] is codegen
        predicted_tier = TIER_CODEGEN if pipeline_serves else TIER_VOLCANO
        decline_reasons = {
            v.tier: f"[{v.code}] {v.reason}" for v in verdicts if not v.serves
        }
        if trace is not None:
            trace.add_phase(
                "tier-cascade", time.perf_counter() - cascade_started
            )
        execute_started = time.perf_counter()
        executed: tuple[list[str], dict[str, Any], ExecutionProfile] | None = None
        # A statically declined plan skips the pipeline: the capability
        # table predicts the executor's own rejection.
        if pipeline_serves:
            try:
                executed = self._execute_pipeline(
                    physical, params, analysis.hints, trace, context
                )
            except (CodegenError, VectorizationError) as exc:
                # A data-dependent demotion the static analysis cannot rule
                # out — e.g. null group/join keys — demotes once, to Volcano;
                # recorded so explain()/profile users see why the observed
                # tier differs from the verdict.
                decline_reasons[TIER_CODEGEN] = (
                    f"[{TIER_RUNTIME_DEMOTION}] runtime demotion: {exc}"
                )
        if executed is None:
            executed = self._execute_volcano(physical, params, trace, context)
        execute_seconds = time.perf_counter() - execute_started
        names, columns, profile = executed
        profile.predicted_tier = predicted_tier
        profile.tier_decline_reasons = decline_reasons
        profile.io_retries = context.io_retries
        if trace is not None:
            trace.add_phase("execute", execute_seconds)
            # Reduce/Nest run inside the executor sinks without a stage of
            # their own; attribute the executor call to the plan root.
            root = unwrap_sort(physical)
            trace.operator(
                type(root).__name__.removeprefix("Phys").lower(),
                node=root,
                inclusive=True,
                detail="engine-side root span; time covers the executor call",
            ).add(seconds=execute_seconds, rows_out=profile.output_rows)
        materialize_started = time.perf_counter()
        length, data = _normalize_result_columns(names, columns)
        if sort_plan is not None:
            # Every tier hands over unsorted output (the pipeline at most
            # bounded per scan range): the columnar sort kernels run here,
            # one permutation, no row boxing.
            rows_in = length
            sort_started = time.perf_counter()
            length, data, strategy = sort_columns(
                names,
                length,
                data,
                sort_plan.keys,
                bound_limit,
                analysis.hints.non_null_columns,
            )
            if trace is not None:
                trace.operator(
                    "sort",
                    node=sort_plan,
                    detail="engine-side columnar sort epilogue",
                ).add(
                    seconds=time.perf_counter() - sort_started,
                    rows_in=rows_in,
                    rows_out=length,
                )
            if strategy is not None:
                profile.sort_strategy = strategy
                if bound_limit != 0:
                    # LIMIT 0 short-circuits without running a kernel; no
                    # rows entered a sort.
                    profile.rows_sorted += rows_in
        if trace is not None:
            trace.add_phase(
                "materialize", time.perf_counter() - materialize_started
            )
        elapsed = time.perf_counter() - started
        self.last_profile = profile
        finished_trace = (
            self.tracer.finish(trace, profile, elapsed)
            if trace is not None
            else None
        )
        self._record_query_metrics(
            query_text, profile, elapsed, finished_trace, result_rows=length
        )
        return ResultSet(
            columns=names,
            data=data,
            length=length,
            execution_seconds=elapsed,
            tier=profile.execution_tier,
            profile=profile,
        )

    def _record_query_metrics(
        self,
        query_text: str | None,
        profile: ExecutionProfile,
        elapsed: float,
        trace,
        result_rows: int = 0,
        error: BaseException | None = None,
    ) -> None:
        """Metrics for one execution: the shared latency histogram and
        slow-query log, then either the failure counter keyed by ``error``'s
        code (a failed query spent wall-clock too — one that burned its whole
        deadline must show up in the tail) or the completed query's
        counters."""
        metrics = self.metrics
        if not metrics.enabled:
            return
        metrics.histogram(
            "proteus_query_seconds", "End-to-end query latency."
        ).observe(elapsed)
        threshold = self.slow_query_seconds
        if threshold is not None and elapsed >= threshold:
            entry: dict[str, Any] = {
                "query": query_text or "<plan>",
                "tier": profile.execution_tier,
                "seconds": elapsed,
                "rows": result_rows,
            }
            if error is not None:
                entry["error"] = str(error)
            if trace is not None:
                entry["trace"] = trace.to_dict()
            metrics.record_slow_query(entry)
        if error is not None:
            self._count_query_failure(error)
            return
        metrics.counter(
            "proteus_queries_total", "Queries executed, by serving tier."
        ).inc(tier=profile.execution_tier)
        metrics.counter(
            "proteus_rows_returned_total", "Result rows returned to callers."
        ).inc(result_rows)
        declines = metrics.counter(
            "proteus_tier_declines_total",
            "Tier declines, by tier and verdict code.",
        )
        for declined, reason in profile.tier_decline_reasons.items():
            code = reason.partition("]")[0].lstrip("[") or "unknown"
            declines.inc(tier=declined, code=code)
        if profile.execution_tier == "codegen":
            metrics.counter(
                "proteus_codegen_compilations_total",
                "Generated-program executions, by program-cache outcome.",
            ).inc(outcome="cache-hit" if profile.compiled_from_cache else "fresh")
        if profile.io_retries:
            metrics.counter(
                "proteus_io_retries_total",
                "Transient raw-data I/O failures recovered by retrying.",
            ).inc(profile.io_retries)
        if profile.parallel_workers > 1:
            metrics.counter(
                "proteus_morsels_dispatched_total",
                "Morsels dispatched to the parallel worker pool.",
            ).inc(profile.morsels_dispatched)
            metrics.counter(
                "proteus_morsels_stolen_total",
                "Morsels served off another worker's queue.",
            ).inc(profile.morsels_stolen)

    def _count_query_failure(self, exc: BaseException) -> None:
        if not self.metrics.enabled:
            return
        self.metrics.counter(
            "proteus_queries_failed_total",
            "Failed queries, by error code (TYP/TIER/RES/internal).",
        ).inc(code=_failure_code(exc))

    def _estimate_query_bytes(self, physical: PhysicalPlan) -> int:
        """Admission-control memory estimate: for each scanned dataset,
        cardinality × referenced columns × 8 bytes (one float64-sized buffer
        per column).  Deliberately crude — it only has to rank queries well
        enough for the byte budget to keep a runaway scan from starving the
        rest; datasets without collected statistics contribute nothing, so
        admission degrades to the pure concurrency bound for them."""
        total = 0
        for node in physical.walk():
            if not isinstance(node, PhysScan):
                continue
            try:
                dataset = self.catalog.get(node.dataset)
            except ProteusError:
                continue
            statistics = dataset.statistics
            if statistics is None:
                continue
            columns = max(len(node.paths), 1)
            total += int(statistics.cardinality) * columns * 8
        return total

    def _execute_pipeline(
        self,
        physical: PhysicalPlan,
        params: ParamValues | None,
        hints: NullabilityHints | None,
        trace: TraceBuilder | None,
        context: QueryContext | None,
    ) -> tuple[list[str], dict[str, Any], ExecutionProfile]:
        """THE batch-pipeline entry of the ``codegen`` tier: the executor
        runs this plan on its generated expression functions."""
        # The functions cover the plan beneath a root PhysSort, so one
        # compiled module serves every ORDER BY / LIMIT variation of the
        # same shape (the cache is keyed by that plan's fingerprint).
        target = unwrap_sort(physical)
        fingerprint = target.fingerprint()
        generated = self._compiled.get(fingerprint)
        from_cache = generated is not None
        if generated is None:
            codegen_started = time.perf_counter()
            generated = self.generator.generate(target)
            self.tracer.record_phase(
                "codegen", time.perf_counter() - codegen_started
            )
            # Concurrent cold executions of one shape race to generate; the
            # first publication wins so every thread runs the same functions.
            with self._lock:
                generated = self._compiled.setdefault(fingerprint, generated)
        self.last_generated_source = generated.source
        executor = VectorizedExecutor(
            self.catalog,
            self.plugins,
            batch_size=self.vectorized_batch_size,
            num_workers=self.parallel_workers,
            cache_manager=self.cache_manager,
            params=params,
            hints=hints,
            trace=trace,
            context=context,
        )
        names, columns = generated(executor, physical)
        profile = ExecutionProfile(
            execution_tier=TIER_CODEGEN,
            compiled_from_cache=from_cache,
            join_kernels=executor.join_kernels,
            group_kernel=executor.group_kernel,
            **vars(executor.counters),  # the pipeline counters, by name
        )
        fanout = executor.fanout
        if fanout.morsels_dispatched:
            profile.parallel_workers = fanout.num_workers
            profile.morsels_dispatched = fanout.morsels_dispatched
            profile.morsels_stolen = fanout.morsels_stolen
        return names, columns, profile

    def _execute_volcano(
        self,
        physical: PhysicalPlan,
        params: ParamValues | None = None,
        trace: TraceBuilder | None = None,
        context: QueryContext | None = None,
    ) -> tuple[list[str], dict[str, Any], ExecutionProfile]:
        executor = VolcanoExecutor(
            self.catalog, self.plugins, params=params, trace=trace,
            context=context,
        )
        # The engine's sort kernels run on the materialized output; the
        # interpreter never sees the PhysSort root.
        names, columns = executor.execute(unwrap_sort(physical))
        profile = ExecutionProfile(execution_tier="volcano")
        # The interpreter counts the same things the batch tier counts (see
        # the differential suite); ``tuples_processed`` keeps its historical
        # post-predicate semantics for the interpretation-overhead reports.
        profile.rows_scanned = executor.rows_scanned
        profile.unnest_output_rows = executor.unnest_output_rows
        profile.output_rows = executor.output_rows
        self.last_generated_source = None
        return names, columns, profile

    # ------------------------------------------------------------------------
    # Caching control and introspection
    # ------------------------------------------------------------------------

    def clear_caches(self) -> None:
        if self.cache_manager is not None:
            self.cache_manager.clear()

    def cache_entries(self) -> list:
        return self.cache_manager.entries() if self.cache_manager is not None else []

    @property
    def cache_stats(self):
        return self.cache_manager.stats if self.cache_manager is not None else None

    def structural_index_info(self, name: str) -> dict:
        """Structural-index metadata of a CSV or JSON dataset."""
        dataset = self.catalog.get(name)
        plugin = self.plugins[dataset.format]
        if not hasattr(plugin, "index_info"):
            raise ProteusError(f"dataset {name!r} has no structural index")
        return plugin.index_info(dataset)


# ---------------------------------------------------------------------------
# Result assembly helpers
# ---------------------------------------------------------------------------


def _failure_code(exc: BaseException) -> str:
    """The coded family of a failure (``TYP...``/``TIER...``/``RES...``);
    uncoded exceptions are grouped under ``internal``."""
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) and code else "internal"


def _validate_output_columns(physical: PhysicalPlan) -> None:
    """Reject plans whose output columns share a name but compute different
    expressions: every executor keys its result columns by name, so one of
    the two would silently shadow the other (e.g. ``SELECT a.id, b.id``
    without aliases)."""
    physical = unwrap_sort(physical)
    if not isinstance(physical, (PhysReduce, PhysNest)):
        return
    seen: dict[str, tuple] = {}
    for column in physical.columns:
        fingerprint = column.expression.fingerprint()
        previous = seen.get(column.name)
        if previous is not None and previous != fingerprint:
            raise PlanningError(
                f"duplicate output column name {column.name!r} refers to "
                "different expressions; give each a distinct alias"
            )
        seen[column.name] = fingerprint


def _normalize_result_columns(
    names: Sequence[str], columns: Mapping[str, Any]
) -> tuple[int, dict[str, Any]]:
    """Validate executor output columns and broadcast genuine scalars.

    Returns ``(row count, name -> columnar buffer)`` with every buffer sized
    to the row count; the buffers stay columnar (NumPy arrays pass through
    untouched) — this is the backing store of a :class:`ResultSet`.  Only
    genuine scalars (aggregate results, literals: plain Python scalars, NumPy
    scalars and 0-d arrays) are broadcast; a missing output column or
    multi-row columns of differing lengths indicate an executor shape bug and
    raise instead of being papered over.
    """
    buffers: dict[str, Any] = {}
    scalars: dict[str, bool] = {}
    for name in names:
        if name in buffers:
            continue  # duplicate output name over the same expression
        if name not in columns:
            raise ExecutionError(
                f"executor produced no output column {name!r}; "
                f"got columns: {sorted(columns)}"
            )
        column = columns[name]
        scalar = False
        if isinstance(column, np.ndarray) and column.ndim == 0:
            column = column.item()
            scalar = True
        elif isinstance(column, np.generic):
            column = column.item()
            scalar = True
        elif isinstance(column, (int, float, bool, str)) or column is None:
            scalar = True
        elif not isinstance(column, (np.ndarray, EncodedColumn)):
            column = list(column)
        buffers[name] = column
        scalars[name] = scalar
    row_lengths = {
        len(buffers[name]) for name in buffers if not scalars[name]
    }
    if len(row_lengths) > 1:
        shapes = ", ".join(
            f"{name}={len(buffers[name])}"
            for name in buffers
            if not scalars[name]
        )
        raise ExecutionError(f"output columns have mismatched lengths: {shapes}")
    length = row_lengths.pop() if row_lengths else (1 if names else 0)
    for name, scalar in scalars.items():
        if scalar:
            buffers[name] = [buffers[name]] * length
    return length, buffers


def _python_values(buffer) -> list:
    """One columnar buffer as a list of normalized Python values: NumPy
    scalars unboxed and missing values (None, or NaN in float buffers — see
    ``types.is_missing``) surfaced as ``None``.

    The one row-pull path of :class:`ResultSet` (rows, columns, batches,
    scalars and the HTTP encoder): a typed buffer is one ``tolist()`` — which
    already yields plain Python scalars — with ``None`` patched in at the
    NaN positions of a float buffer, and an encoded column decodes
    through its dictionary; only object buffers and Python lists are
    normalized cell by cell."""
    if isinstance(buffer, EncodedColumn):
        return buffer.tolist()
    if isinstance(buffer, np.ndarray) and buffer.dtype != object:
        values = buffer.tolist()
        if buffer.dtype.kind == "f":
            for position in np.flatnonzero(np.isnan(buffer)).tolist():
                values[position] = None
        return values
    values = buffer.tolist() if isinstance(buffer, np.ndarray) else list(buffer)
    return [_output_value(value) for value in values]


def _output_value(value: Any) -> Any:
    value = _python_value(value)
    return None if t.is_missing(value) else value
