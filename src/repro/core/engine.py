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
     (:mod:`repro.core.executor.vectorized`: plug-in scan -> operators ->
     sink).  The code generator emits one fused NumPy function per
     expression of the plan and, per pipeline program, the driver that runs
     a scan range through them (§5.1/§5.2, the engine-per-query).  The executor decides *internally*, per scan,
     whether to run inline or to fan out: with ``parallel_workers > 1`` a
     scan spanning enough whole morsels for its kind of root is split into
     morsels that a work-stealing worker pool executes concurrently, with
     partial per-morsel aggregation and a deterministic morsel-ordered merge;
     everything else runs on the calling thread,
   * **volcano** — shapes the pipeline cannot serve (record construction in
     output columns, outer joins) fall back to the tuple-at-a-time Volcano
     interpreter, the paper's "static general-purpose engine" baseline.
     Unnests — inner *and* outer, nested collections included — are
     batch-native: the plug-ins' offset-vector ``scan_unnest_batch`` API
     keeps them on the pipeline.

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
and returns a :class:`PreparedQuery`, which owns everything derived from its
plan (its :class:`QueryShape`); ``pq.execute(7)`` /
``pq.execute(country="CH")`` binds values and runs without re-parsing,
re-planning, re-analyzing or re-generating code — the plan abstracts
parameter values (``Parameter`` nodes instead of literals), so one compiled
program serves every binding, on every tier.  :meth:`ProteusEngine.query`
remains as sugar for ``prepare(text).execute(*args, **params)`` and keeps its
v1 behaviour for literal-only queries.

Every execution keeps one ledger, an
:class:`~repro.core.profile.ExecutionProfile` built before admission and
carried by the execution's :class:`~repro.resilience.QueryContext`: the
tiers count into it as they work, it comes back as ``result.profile``, and a
failed execution — refused by admission, timed out, cancelled or broken —
marks the same profile and attaches it to the coded error
(``exc.profile``).

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
fixed (:mod:`repro.caching.policies`), the trace ring
buffer, the Volcano check stride and the admission queue cap are module
constants, and a query queues for admission no longer than its deadline.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.caching.coalesce import ScanCoalescer, ScanLease
from repro.caching.manager import CacheManager
from repro.core import types as t
from repro.core.types import python_value as _python_value
from repro.core.analysis import (
    CODEGEN_DISABLED,
    NullabilityHints,
    PlanAnalysis,
    TIER_CODEGEN,
    TIER_CODEGEN_FAILED,
    TierVerdict,
    analyze_schema,
    tier_verdicts,
)
from repro.core.binder import bind_comprehension
from repro.core.calculus import Comprehension, DatasetSource
from repro.core.codegen import CodeGenerator, GeneratedQuery, module_key, plan_expressions
from repro.core.codegen.compiler import compile_driver
from repro.core.codegen.driver import generate_driver
from repro.core.columns import EncodedColumn
from repro.core.comprehension_parser import parse_comprehension
from repro.core.concurrency import make_lock
from repro.core.executor.vectorized import (
    DEFAULT_BATCH_SIZE,
    FactorizedChain,
    PipelineProgram,
    VectorizedExecutor,
    factorized_chain,
)
from repro.core.executor.volcano import VolcanoExecutor
from repro.core.lexer import IDENT, Token, tokenize
from repro.core.parallel import plan_fanout
from repro.core.normalizer import normalize
from repro.core.optimizer.planner import Planner
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.profile import ExecutionProfile
from repro.core.physical import (
    PhysNest,
    PhysReduce,
    PhysSort,
    PhysUnnest,
    PhysicalPlan,
    driving_scan,
    rename_datasets,
    scans_of,
    unwrap_sort,
)
from repro.core.sort import resolve_limit, sort_columns
from repro.core.sql_parser import parse_sql
from repro.core.translator import translate
from repro.errors import (
    CatalogError,
    CodegenError,
    ExecutionError,
    PlanningError,
    ProteusError,
)
from repro.obs.explain import render_explain_analyze
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.trace import TraceBuilder, Tracer
from repro.plugins.base import InputPlugin
from repro.resilience import (
    AdmissionController,
    CancellationToken,
    QueryContext,
    swap_context,
)
from repro.plugins.binary_col_plugin import BinaryColumnPlugin, BinaryRowPlugin
from repro.plugins.csv_plugin import CsvPlugin
from repro.plugins.json_plugin import JsonPlugin
from repro.storage.catalog import Catalog, DataFormat, Dataset
from repro.storage.structural_index import DEFAULT_STRIDE

#: Parameter-value environment: positional keys are 0-based ints, named keys
#: are strings.
ParamValues = Mapping[int | str, object]

#: Entries each of the engine's three LRUs keeps — prepared queries by query
#: text, shape templates by the text's tokens over abstract dataset names,
#: generated modules by the plan's expressions — least recently used evicted
#: first: clients that inline literals send an unbounded stream of distinct
#: texts (and so shapes) and must not grow a server forever.
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
            buffer = self._data.get(name)
            cached = _python_values(self._buffer(name) if buffer is None else buffer)
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


class QueryShape:
    """Everything derived from one physical plan, computed once when the plan
    is made and dropped with it: the schema analysis and its nullability
    hints, the capability verdicts and the tier they predict, the frontend
    phases that made it and — set by the plan's first ``codegen`` execution
    — the generated module and, beside it, the
    :class:`~repro.core.executor.vectorized.PipelineProgram` (the per-key
    join chain included) every later execution runs without deriving
    anything from the plan.

    The verdicts are computed with code generation on; ``enable_codegen`` is
    a plain engine attribute callers may flip between executions, so
    :meth:`analysis` applies it on every read.  Static analysis
    (:meth:`analyze`) raises :class:`~repro.errors.AnalysisError` at plan
    time: unknown nested fields, mixed-type comparisons and invalid
    aggregate inputs never reach an executor."""

    __slots__ = ("_by_flag", "generated", "program", "declines", "phases")

    def __init__(
        self,
        by_flag: tuple[PlanAnalysis, PlanAnalysis],
        generated: GeneratedQuery | None = None,
    ):
        #: The plan's analysis with code generation off, then on.
        self._by_flag = by_flag
        #: The plan's generated module, published once under the owning
        #: PreparedQuery's lock (``None`` until the first codegen execution,
        #: and after a generator failure, so the next execution retries).
        self.generated = generated
        #: The plan's pipeline program, published once under the owning
        #: PreparedQuery's lock by the first codegen execution; it names
        #: the plan's datasets, so a shape over other datasets builds its
        #: own.
        self.program: PipelineProgram | None = None
        #: The tier declines every execution of the program reports (read
        #: only), published with it.
        self.declines: dict[str, str] = {}
        #: ``(phase, seconds)`` of the parse / plan / analyze work that made
        #: this shape, reported by its first execution only: taken (and
        #: emptied) under the owning PreparedQuery's lock.
        self.phases: list[tuple[str, float]] = []

    def analysis(self, enable_codegen: bool) -> PlanAnalysis:
        """Schema, hints and verdicts under the engine's codegen flag."""
        return self._by_flag[1 if enable_codegen else 0]

    @classmethod
    def analyze(cls, plan: PhysicalPlan, catalog: Catalog) -> QueryShape:
        """The shape of a new plan: its analysis against ``catalog``."""
        schema = analyze_schema(plan, catalog)
        verdicts = tier_verdicts(plan, enable_codegen=True)
        return cls(
            (
                PlanAnalysis(schema.columns, (CODEGEN_DISABLED, *verdicts[1:]), schema.hints),
                PlanAnalysis(schema.columns, verdicts, schema.hints),
            ),
        )

    def over(self) -> QueryShape:
        """This shape for a copy of its plan whose scans read other datasets
        with equal plan facts.  The analysis, the verdicts and the module
        name no dataset (the plan's expressions read aliases), so they are
        shared; the program holds plan nodes and datasets, and is built by
        the new shape's first execution."""
        return QueryShape(self._by_flag, self.generated)


class PreparedQuery:
    """A query shape prepared once and executable many times.

    Holds the bound comprehension, the logical plan, the physical plan of
    one query text and that plan's :class:`QueryShape` — its analysis,
    verdicts, generated module and pipeline program.  ``?`` / ``:name``
    placeholders stay abstract :class:`~repro.core.expressions.Parameter`
    nodes, so one plan, one shape, one module and one program serve every
    execution regardless of the bound constants.

    :meth:`execute` binds values and runs the cascade directly: no parsing,
    no binding, no analysis, no code generation and no lowering of the plan
    happen on the hot path.
    The first execution with bound values re-runs the *optimizer* once with
    those constants feeding selectivity estimation (join order / build side),
    then the plan is frozen; its new shape finds the module in the engine's
    module cache (keyed by the plan's expressions, which no re-optimization
    changes).

    A query the engine prepared from its shape's template (another text of
    the shape, over other datasets) has no comprehension and no logical plan
    of its own until a re-plan needs them: it derives them from its text
    then.

    The engine's catalog epoch is the only invalidation: re-registering,
    dropping or analyzing a dataset bumps it, and the next execution
    transparently re-prepares against the current catalog — a new plan and a
    new shape — so it can never serve stale data through a baked-in
    ``Dataset`` object or a stale schema.

    One PreparedQuery is shared by every thread executing the same query text
    (the engine's per-text prepared cache), so its refresh state — epoch,
    plan, value-optimized flag, shape — lives in a single tuple swapped
    atomically under ``self._lock``: an executing thread snapshots the whole
    tuple in one read and can never pair a stale plan with a fresh epoch or
    another plan's shape.
    """

    def __init__(
        self,
        engine: "ProteusEngine",
        source: str | Comprehension,
        comprehension: Comprehension | None,
        logical,
        plan: PhysicalPlan,
        shape: QueryShape,
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
        #: (catalog epoch, physical plan, value-optimized?, shape) — one
        #: atomically rebound tuple, written only inside
        #: :meth:`_current_plan` under ``self._lock``, read lock-free as a
        #: single snapshot.
        self._state: tuple[int, PhysicalPlan, bool, QueryShape] = (
            epoch, plan, False, shape,
        )
        self._lock = make_lock("PreparedQuery._lock")

    @property
    def plan(self) -> PhysicalPlan:
        """The current physical plan (introspection)."""
        return self._state[1]

    def _current_plan(self, params: dict | None) -> tuple[PhysicalPlan, QueryShape]:
        """The plan to execute with and its shape, re-preparing against the
        live catalog when the epoch moved (or re-optimizing on the first
        parameterized execution).  The fast path is one lock-free snapshot
        read; refreshes serialize under ``self._lock`` so concurrent
        executors of this shared object never observe a half-written state."""
        engine = self._engine
        epoch, plan, value_optimized, shape = self._state
        if epoch == engine._catalog_epoch and not (params and not value_optimized):
            return plan, shape
        with self._lock:
            epoch, plan, value_optimized, shape = self._state
            current_epoch = engine._catalog_epoch
            stale = epoch != current_epoch
            if stale or (params and not value_optimized):
                # The new shape's first execution is this one: it reports the
                # phases the shape it replaces measured and never reported.
                phases, shape.phases = shape.phases, []
                if stale or self._logical is None:
                    # The catalog changed since preparation: transparently
                    # re-prepare against the current datasets (or fail the
                    # way a fresh query would, e.g. when the dataset was
                    # dropped).  A query prepared from a shape template
                    # derives its comprehension from its text here.
                    self.comprehension = engine._to_comprehension(
                        self._source, phases
                    )
                    self._logical = translate(self.comprehension)
                # First (parameterized) execution: run the optimizer with the
                # bound values feeding selectivity estimation, then freeze
                # the plan.  The module cache is keyed by the plan's
                # parameter-abstracted expressions, so re-optimization can
                # only reuse or add generated modules, never invalidate them.
                plan, shape = engine._plan_logical(
                    self._logical,
                    phases,
                    parameters=params or None,
                    comprehension=self.comprehension,
                )
                value_optimized = bool(params)
            self._state = (current_epoch, plan, value_optimized, shape)
            return plan, shape

    def _take_phases(self, shape: QueryShape) -> list[tuple[str, float]]:
        """``shape``'s frontend phases, once: its first execution reports
        them, every later one (and every other shape's) gets none."""
        if not shape.phases:
            return []
        with self._lock:
            phases, shape.phases = shape.phases, []
        return phases

    def _publish_module(
        self, shape: QueryShape, generated: GeneratedQuery
    ) -> GeneratedQuery:
        """Set ``shape``'s module once; concurrent first executions of this
        shared object race here and every thread runs the winner."""
        with self._lock:
            if shape.generated is None:
                shape.generated = generated
            return shape.generated

    def _publish_program(
        self, shape: QueryShape, program: PipelineProgram, declines: dict[str, str]
    ) -> PipelineProgram:
        """Set ``shape``'s pipeline program once, beside its module, with
        the tier declines its executions report; the first of concurrent
        first executions wins, as for the module."""
        with self._lock:
            if shape.program is None:
                shape.declines = declines
                shape.program = program
            return shape.program

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

        Everything here is computed when the plan is made — no data is
        read."""
        _, shape = self._current_plan(None)
        return shape.analysis(self._engine.enable_codegen)

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
        which never equals itself): such executions keep no result.
        Binding errors raise exactly as :meth:`execute` would."""
        params = self._bind(tuple(args), named)
        for value in params.values():
            if type(value) not in _KEYABLE_TYPES or value != value:
                return None
        self._current_plan(params)
        epoch, plan, _, _ = self._state
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
        params = self._bind(args, named) if args or named or self.parameter_keys else {}
        return self._engine._execute(self, params, timeout, cancel)

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
                    self._engine._execute(self, self._bind_mapping(entry))
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


@dataclass(frozen=True)
class _ShapeTemplate:
    """The first full ``prepare()`` of one query shape — the same tokens
    over other datasets with equal plan facts — from which the engine
    prepares every later text of the shape without parsing, planning or
    analyzing it (the paper's engine per *query*, not per file)."""

    #: The datasets the template's text names, in order of first appearance.
    datasets: tuple[str, ...]
    plan: PhysicalPlan
    shape: QueryShape
    parameter_keys: tuple[int | str, ...]

    @classmethod
    def of(
        cls, prepared: PreparedQuery, tokens: list[Token], datasets: list[str]
    ) -> _ShapeTemplate | None:
        """``prepared``, a fresh full prepare of ``tokens``, as its shape's
        template — when renaming its scans is all that tells its plan from
        the plan of another text of the shape: the identifiers spelled like
        a registered dataset are exactly the parser's dataset sources (no
        field, alias or keyword is), and no scan's alias is its dataset's
        name (an unaliased source binds the dataset's name, which the
        plan's expressions then carry)."""
        _, plan, _, shape = prepared._state
        spelled = sorted(
            token.value
            for token in tokens
            if token.kind == IDENT and token.value in datasets
        )
        sources = sorted(
            generator.source.dataset
            for generator in prepared.comprehension.generators()
            if isinstance(generator.source, DatasetSource)
        )
        if spelled != sources or any(
            scan.binding == scan.dataset for scan in scans_of(plan)
        ):
            return None
        return cls(tuple(datasets), plan, shape, tuple(prepared.parameter_keys))

    def instantiate(
        self,
        engine: ProteusEngine,
        text: str,
        datasets: list[str],
        epoch: int,
        started: float,
    ) -> PreparedQuery:
        """The PreparedQuery of ``text``, a text of this shape over
        ``datasets``: the template's plan with its scans renamed — node for
        node the plan a full prepare would build — and its shape over it,
        which reports the time since ``started`` as its ``parse`` phase."""
        plan = rename_datasets(self.plan, dict(zip(self.datasets, datasets)))
        shape = self.shape.over()
        prepared = PreparedQuery(
            engine, text, None, None, plan, shape, self.parameter_keys, epoch
        )
        shape.phases = [("parse", time.perf_counter() - started)]
        return prepared


@dataclass(frozen=True)
class _QueryMetrics:
    """The metrics every execution records into, looked up in the registry
    once per engine — with the series every completed query adds to bound
    once too, so recording one sorts no labels."""

    latency: Histogram
    declines: Counter
    #: The queries counter by tier, the rows counter, and the compilations
    #: counter by whether the module was generated before, bound.
    served: Mapping[str, Callable[..., None]]
    returned: Callable[..., None]
    compiled: Mapping[bool, Callable[..., None]]
    io_retries: Counter
    morsels_dispatched: Counter
    morsels_stolen: Counter
    failures: Counter
    #: Cold scans that piggy-backed on another query's in-flight
    #: materialization instead of re-parsing the file.
    scans_coalesced: Counter

    @classmethod
    def bind(cls, metrics: MetricsRegistry) -> _QueryMetrics:
        queries = metrics.counter(
            "proteus_queries_total", "Queries executed, by serving tier."
        )
        rows = metrics.counter(
            "proteus_rows_returned_total", "Result rows returned to callers."
        )
        compilations = metrics.counter(
            "proteus_codegen_compilations_total",
            "Generated-program executions, by program-cache outcome.",
        )
        return cls(
            latency=metrics.histogram("proteus_query_seconds", "End-to-end query latency."),
            declines=metrics.counter(
                "proteus_tier_declines_total", "Tier declines, by tier and verdict code."
            ),
            served={tier: queries.labeled(tier=tier) for tier in ("codegen", "volcano")},
            returned=rows.labeled(),
            compiled={
                True: compilations.labeled(outcome="cache-hit"),
                False: compilations.labeled(outcome="fresh"),
            },
            io_retries=metrics.counter(
                "proteus_io_retries_total",
                "Transient raw-data I/O failures recovered by retrying.",
            ),
            morsels_dispatched=metrics.counter(
                "proteus_morsels_dispatched_total",
                "Morsels dispatched to the parallel worker pool.",
            ),
            morsels_stolen=metrics.counter(
                "proteus_morsels_stolen_total",
                "Morsels served off another worker's queue.",
            ),
            failures=metrics.counter(
                "proteus_queries_failed_total",
                "Failed queries, by error code (TYP/TIER/RES/internal).",
            ),
            scans_coalesced=metrics.counter(
                "proteus_scans_coalesced_total",
                "Cold scans served by a concurrent leader's in-flight "
                "materialization instead of a duplicate parse.",
            ),
        )


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
        self.catalog = Catalog()
        self.enable_codegen = enable_codegen
        #: Worker count of the batch executor's morsel fan-out; 1 (the
        #: default) keeps every scan inline on the calling thread.
        self.parallel_workers = 1 if parallel_workers is None else max(int(parallel_workers), 1)
        self.vectorized_batch_size = vectorized_batch_size
        self.enable_caching = enable_caching
        self.cache_manager: CacheManager | None = (
            CacheManager(cache_budget_bytes) if enable_caching else None
        )
        self.plugins: dict[str, InputPlugin] = {
            DataFormat.CSV: CsvPlugin(),
            DataFormat.JSON: JsonPlugin(),
            DataFormat.BINARY_ROW: BinaryRowPlugin(),
            DataFormat.BINARY_COLUMN: BinaryColumnPlugin(),
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
        #: Guards the three LRUs below and the catalog epoch: the engine serves
        #: concurrent sessions, so every publish into shared prepare-time
        #: state happens under this lock.  Expensive work (parse, plan,
        #: codegen) runs *outside* it; winners are chosen with
        #: ``setdefault`` — the double-checked publish pattern, checked by
        #: ``tools/concurrency_lint.py``.
        self._lock = make_lock("ProteusEngine._lock")
        #: Generated modules by the expressions of the plan beneath any sort
        #: (``module_key``: ORDER BY / LIMIT variants of one shape, and plans
        #: that scan other datasets under the same aliases, share one).  No
        #: catalog change clears it: a module reads expressions only, never a
        #: schema or a dataset.  An LRU of ``SHAPE_CACHE_CAPACITY`` shapes.
        self._compiled: OrderedDict[tuple, GeneratedQuery] = OrderedDict()
        #: Driver factories by source (``compile_driver``): a driver names
        #: nothing of one plan, so every program of one pipeline structure,
        #: over any module, shares one.  An LRU of ``SHAPE_CACHE_CAPACITY``.
        self._drivers: OrderedDict[str, Callable] = OrderedDict()
        #: Shape templates (see ``_prepare_shape``) by a text's tokens with
        #: the registered dataset names abstracted, plus those datasets'
        #: plan facts; no catalog change clears it, a changed dataset only
        #: keys another template.  An LRU of ``SHAPE_CACHE_CAPACITY`` shapes.
        self._shapes: OrderedDict[tuple, _ShapeTemplate] = OrderedDict()
        #: Prepared-query cache backing the ``query()`` sugar (keyed by the
        #: stripped query text); entries survive catalog changes because
        #: every execution re-validates against ``_catalog_epoch``.  An LRU
        #: of ``SHAPE_CACHE_CAPACITY`` texts; an evicted PreparedQuery stays
        #: valid for whoever still holds it.
        self._prepared_cache: OrderedDict[str, PreparedQuery] = OrderedDict()
        #: Monotonic counter bumped on every catalog mutation (register,
        #: re-register, unregister, analyze) — the only invalidation of
        #: prepared state.  PreparedQuery executions compare against it and
        #: transparently re-prepare on mismatch.
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
        #: The per-execution metrics; ``None`` with metrics disabled (a
        #: disabled registry exports nothing).
        self._query_metrics = (
            _QueryMetrics.bind(self.metrics) if self.metrics.enabled else None
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
                "Bytes held by cache entries, against the cache budget.",
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
        stride: int = DEFAULT_STRIDE,
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
            # state and any caches built from the previous data, exactly as
            # ``unregister`` would, so no cache entry from the old
            # path/schema can serve stale results.
            self._drop_data(self.catalog.get(name))
        if schema is not None and not isinstance(schema, t.RecordType):
            schema = t.make_schema(schema)
        dataset = Dataset(name=name, format=data_format, path=path,
                          schema=schema, options=options)  # type: ignore[arg-type]
        if schema is None:
            dataset.schema = plugin.infer_schema(dataset)
        self.catalog.register(dataset, replace=True)
        if analyze:
            self.analyze(name)
        # Any catalog change invalidates outstanding PreparedQuery objects
        # (their plans may bake stale Dataset objects or, for a brand-new
        # name, resolve unqualified columns differently); they transparently
        # re-prepare on their next execution.
        with self._lock:
            self._catalog_epoch += 1
        return dataset

    def unregister(self, name: str) -> None:
        """Remove a dataset, its plug-in state and any caches built from it."""
        if name not in self.catalog:
            return
        self._drop_data(self.catalog.get(name))
        self.catalog.unregister(name)
        with self._lock:
            self._catalog_epoch += 1

    def analyze(self, name: str) -> None:
        """Collect statistics for a dataset (cardinality, min/max per field)."""
        dataset = self.catalog.get(name)
        plugin = self.plugins[dataset.format]
        self.catalog.set_statistics(name, plugin.collect_statistics(dataset))
        # Fresh statistics can change join orders; let prepared plans refresh.
        with self._lock:
            self._catalog_epoch += 1

    def _drop_data(self, dataset: Dataset) -> None:
        """Forget the plug-in state and the cache entries built from
        ``dataset``'s data."""
        plugin = self.plugins.get(dataset.format)
        if plugin is not None:
            plugin.invalidate(dataset.name)
        if self.cache_manager is not None:
            self.cache_manager.invalidate_dataset(dataset.name)

    # ------------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------------

    def prepare(
        self, text: str | Comprehension, tokens: list[Token] | None = None
    ) -> PreparedQuery:
        """Parse, bind and plan a query once, returning a reusable
        :class:`PreparedQuery`.

        ``?`` (positional) and ``:name`` (named) placeholders may appear
        anywhere a scalar expression is allowed, in both SQL and the
        comprehension syntax.  Execution binds values without re-parsing or
        re-generating code; on a repeated shape the whole frontend cost —
        parse, bind, normalize, translate, plan, analysis, codegen — is paid
        once.  ``tokens`` is ``tokenize(text.strip())`` when the caller
        already lexed the text.
        """
        epoch = self._catalog_epoch
        phases: list[tuple[str, float]] = []
        try:
            comprehension = self._to_comprehension(text, phases, tokens)
            logical = translate(comprehension)
            physical, shape = self._plan_logical(
                logical, phases, comprehension=comprehension
            )
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
            shape,
            comprehension.parameters(),
            epoch,
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
        prepared = self.prepare(text)
        physical, shape = prepared._current_plan(None)
        analysis = shape.analysis(self.enable_codegen)
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
        generated, _, verdicts = self._generate(
            prepared, physical, shape, analysis.verdicts
        )
        if generated is not None:
            parts.extend(["", "== generated code ==", generated.source])
        elif self.enable_codegen:
            parts.extend(["", f"(code generation unavailable: {verdicts[0].reason}; "
                              "the Volcano interpreter serves the query, see the "
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
        parts.extend(
            [
                "",
                "== vectorized fan-out ==",
                self._planned_fanout(physical, factorized_chain(unwrap_sort(physical))),
            ]
        )
        return "\n".join(parts)

    def _planned_fanout(
        self, physical: PhysicalPlan, chain: FactorizedChain | None
    ) -> str:
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
        return render_explain_analyze(
            prepared.plan,
            self.tracer.last_on_this_thread(),
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
        with self._lock:
            prepared = self._prepared_cache.get(key)
            if prepared is not None:
                self._prepared_cache.move_to_end(key)
        if prepared is None:
            # Prepare outside the lock (parse + plan are the expensive part);
            # concurrent first callers race to prepare, one publication wins
            # and every thread shares the winner.
            prepared = self._lru_publish(
                self._prepared_cache, key, self._prepare_shape(key)
            )
        return prepared

    def _prepare_shape(self, text: str) -> PreparedQuery:
        """The PreparedQuery of ``text`` (stripped), missed by the per-text
        cache.  The text is lexed once.  Its shape is its tokens with every
        identifier that names a registered dataset abstracted, plus the plan
        facts of those datasets: when the shape has a template, the query is
        the template's plan with its scans renamed, and nothing is parsed,
        planned or analyzed.  Otherwise the text is prepared in full from
        the same tokens, and the result becomes the shape's template when it
        qualifies (:meth:`_ShapeTemplate.of`) and the catalog did not move
        meanwhile; concurrent first texts of one shape race to publish, and
        the first template published wins."""
        started = time.perf_counter()
        epoch = self._catalog_epoch
        try:
            tokens = tokenize(text)
        except ProteusError as exc:
            self._count_query_failure(exc)
            raise
        key, datasets = self._shape_key(tokens)
        template = self._lru_lookup(self._shapes, key) if key is not None else None
        if template is not None:
            return template.instantiate(self, text, datasets, epoch, started)
        prepared = self.prepare(text, tokens)
        # The plan is the key's only if no registration moved the catalog
        # while it was made: the epoch moves after the catalog does, so the
        # datasets' facts are read again too.
        if key is not None and epoch == self._catalog_epoch and \
                self._plan_facts(datasets) == key[1]:
            template = _ShapeTemplate.of(prepared, tokens, datasets)
            if template is not None:
                self._lru_publish(self._shapes, key, template)
        return prepared

    def _shape_key(self, tokens: list[Token]) -> tuple[tuple | None, list[str]]:
        """The shape key of a lexed text — its tokens with every identifier
        that names a registered dataset replaced by that dataset's ordinal
        (in order of first appearance), plus those datasets' plan facts —
        and the dataset names in ordinal order.  The key is ``None`` when
        the text names no dataset or one is dropped meanwhile."""
        ordinals: dict[str, int] = {}
        abstract: list = []  # kind, value, kind, value, ordinal, kind, ...
        for token in tokens:
            if token.kind == IDENT and token.value in self.catalog:
                abstract.append(ordinals.setdefault(token.value, len(ordinals)))
            else:
                abstract += (token.kind, token.value)
        datasets = list(ordinals)
        facts = self._plan_facts(datasets)
        key = (tuple(abstract), facts) if datasets and facts is not None else None
        return key, datasets

    def _plan_facts(self, datasets: list[str]) -> tuple | None:
        """The plan facts of ``datasets``; ``None`` once one is dropped."""
        try:
            return tuple(self.catalog.get(name).plan_facts() for name in datasets)
        except CatalogError:
            return None

    def _lru_lookup(self, cache: OrderedDict, key):
        """``cache[key]`` marked most recently used, or ``None``."""
        with self._lock:
            value = cache.get(key)
            if value is not None:
                cache.move_to_end(key)
        return value

    def _lru_publish(self, cache: OrderedDict, key, value):
        """Double-checked publish into one of the engine's LRUs: the first
        value published under ``key`` wins and is returned; keys beyond
        ``SHAPE_CACHE_CAPACITY`` drop off the cold end."""
        with self._lock:
            value = cache.setdefault(key, value)
            cache.move_to_end(key)
            while len(cache) > SHAPE_CACHE_CAPACITY:
                cache.popitem(last=False)
        return value

    def _to_comprehension(
        self,
        text: str | Comprehension,
        phases: list[tuple[str, float]],
        tokens: list[Token] | None = None,
    ) -> Comprehension:
        """The bound, normalized comprehension of ``text`` (parsed from
        ``tokens`` when given); the time it took is added to ``phases`` as
        ``parse``."""
        started = time.perf_counter()
        if isinstance(text, Comprehension):
            comprehension = text
        else:
            stripped = text.strip()
            if stripped.lower().startswith("select"):
                comprehension = parse_sql(stripped, tokens)
            elif stripped.lower().startswith("for"):
                comprehension = parse_comprehension(stripped, tokens)
            else:
                raise ProteusError(
                    "queries must start with SELECT (SQL) or FOR (comprehension syntax)"
                )
        comprehension = normalize(
            bind_comprehension(comprehension, self.catalog.element_types())
        )
        phases.append(("parse", time.perf_counter() - started))
        return comprehension

    def _plan_logical(
        self,
        logical,
        phases: list[tuple[str, float]],
        parameters: ParamValues | None = None,
        comprehension: Comprehension | None = None,
    ) -> tuple[PhysicalPlan, QueryShape]:
        """The physical plan of ``logical`` and its shape, which keeps
        ``phases`` with the plan and analyze times added."""
        order_by = comprehension.order_by if comprehension is not None else None
        limit = comprehension.limit if comprehension is not None else None
        started = time.perf_counter()
        physical = self.planner.plan(
            logical, parameters=parameters, order_by=order_by, limit=limit
        )
        phases.append(("plan", time.perf_counter() - started))
        _validate_output_columns(physical)
        started = time.perf_counter()
        shape = QueryShape.analyze(physical, self.catalog)
        phases.append(("analyze", time.perf_counter() - started))
        shape.phases = phases
        return physical, shape

    def _execute(
        self,
        prepared: PreparedQuery,
        params: dict,
        timeout: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> ResultSet:
        """One execution of ``prepared`` under ``params``, end to end: the
        plan and shape, the tier cascade (a warm shape's is decided: its
        module and program are built), admission, the executor, the sort
        epilogue, the metrics and the result."""
        started = time.perf_counter()
        try:
            physical, shape = prepared._current_plan(params)
        except ProteusError as exc:
            # A re-prepare after a catalog change fails like a fresh
            # prepare() would (a dropped dataset, a changed schema).
            self._count_query_failure(exc)
            raise
        self.last_plan = physical
        params = params or None
        query_text = prepared._source if isinstance(prepared._source, str) else None
        # One profile and one QueryContext per execution, always.  The
        # profile is the execution's only ledger: every tier, the fan-out
        # driver and each morsel worker write it through the context as they
        # work, and a failure marks it.  Unconfigured engines get a passive
        # context (no deadline, no token) whose checks are a couple of
        # attribute loads, so the resilience plumbing has one code path.
        profile = ExecutionProfile()
        context = QueryContext(
            profile,
            timeout_seconds=(
                self.query_timeout_seconds if timeout is None else timeout
            ),
            token=cancel,
            retry_budget=self.io_retry_budget,
        )
        slot = None
        trace = None
        leases: list[ScanLease] = []
        try:
            # The tier cascade, before admission: the analysis under the
            # codegen flag, then the shape's module and program — built by
            # its first codegen execution, read by every later one.  The
            # trace starts after admission and reports the shape's frontend
            # phases (taken by the first admitted execution only) and these.
            tracing = self.tracer.enabled
            if tracing:
                cascade_started = time.perf_counter()
            analysis = shape._by_flag[1 if self.enable_codegen else 0]
            phases = [("tier-cascade", time.perf_counter() - cascade_started)] if tracing else []
            program = shape.program if self.enable_codegen else None
            if program is not None:
                profile.predicted_tier = TIER_CODEGEN
                profile.tier_decline_reasons = shape.declines
                profile.compiled_from_cache = True
            else:
                program = self._program(prepared, physical, shape, analysis, profile, phases)
            if self.admission is not None:
                # Queue for a slot only as long as the deadline just started
                # allows: a short query behind a full controller fails fast.
                slot = self.admission.admit(
                    self._estimate_query_bytes(physical, program), deadline=context.deadline
                )
            if tracing:
                trace = self.tracer.begin(
                    query_text or "<plan>", physical, prepared._take_phases(shape) + phases
                )
            # Cross-query scan sharing: lead or join the in-flight cold
            # scans this plan touches.  Runs after admission (the front
            # door) and inside the abort handling below, because a
            # coalesced wait honours the deadline/cancellation checks.
            # Only the batch pipeline reads (and fills) the field cache, so
            # only its executions coalesce.
            if program is not None and program.cold_scans and self._scan_coalescer is not None:
                leases = self._coalesce_cold_scans(program, context)
            # The LIMIT, resolved once: literal and bound values go through
            # the same validation (negative limits are rejected in both).
            sort_plan = physical if isinstance(physical, PhysSort) else None
            limit = resolve_limit(sort_plan.limit, params) if sort_plan is not None else None
            # The context is published thread-locally so code that cannot
            # take a parameter (plug-in I/O beneath a scan) still finds the
            # retry budget and deadline; the worker pool re-publishes it on
            # its own threads.
            previous = swap_context(context)
            try:
                if trace is not None:
                    execute_started = time.perf_counter()
                if program is not None:
                    self.last_generated_source = program.generated.source
                    executor = VectorizedExecutor(
                        context, self.vectorized_batch_size, self.parallel_workers,
                        self.cache_manager, params, trace, limit,
                    )
                    names, data = program.generated(executor, program)
                else:
                    profile.execution_tier = "volcano"
                    self.last_generated_source = None
                    # The engine's sort kernels run on the materialized
                    # output; the interpreter never sees the PhysSort root.
                    names, data = VolcanoExecutor(
                        self.catalog, self.plugins, context, params=params, trace=trace
                    ).execute(unwrap_sort(physical))
                if trace is not None:
                    materialize_started = time.perf_counter()
                    self._trace_root(
                        trace, physical, profile, materialize_started - execute_started
                    )
                if program is not None:
                    # The pipeline's columns are whole: one array per name.
                    length = len(data[names[0]]) if names else 0
                else:
                    length, data = _normalize_result_columns(names, data)
                if sort_plan is not None:
                    length, data = self._sort(
                        sort_plan, names, length, data, limit, analysis.hints, profile, trace
                    )
            finally:
                swap_context(previous)
            elapsed = time.perf_counter() - started
            self.last_profile = profile
            finished_trace = None
            if trace is not None:
                trace.add_phase("materialize", time.perf_counter() - materialize_started)
                finished_trace = self.tracer.finish(trace, profile, elapsed)
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
        except ProteusError as exc:
            # The one abort path — admission refused, deadline, cancellation,
            # exhausted retries or an ordinary execution error — lands here
            # after the executors unwound (pool drained, every morsel's
            # counters merged).  The profile already holds how far the query
            # got; mark it and hand it to the caller on the exception, which
            # callers that cannot consult last_profile without racing other
            # sessions (the HTTP serving layer) read.
            elapsed = time.perf_counter() - started
            code = _failure_code(exc)
            profile.execution_tier = "aborted"
            profile.aborted = code
            self.last_profile = profile
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
        self, program: PipelineProgram, context: QueryContext
    ) -> list[ScanLease]:
        """Lead or join the in-flight materialization of every *cold* raw
        scan of ``program``; returns the leases this query must release
        (in ``_execute``'s ``finally``) after its execution stored them.

        The program lists the scans that are coalescable — the cache keeps
        their fields (``ScanStep.keep``: verbose sources — JSON, CSV;
        binary sources are cheap to re-scan and never cached) — by dataset
        name; one is cold when at
        least one of its field columns is missing from the cache, however
        warm the cache was when the plan was made.  Datasets are acquired
        in sorted order so two queries covering the same datasets can never
        deadlock waiting on each other's leases.
        """
        manager = self.cache_manager
        coalescer = self._scan_coalescer
        leases: list[ScanLease] = []
        if manager is None or coalescer is None:
            return leases
        for name, keys in program.cold_scans:
            if manager.holds(keys):
                continue
            for _ in range(self._MAX_COALESCE_ROUNDS):
                lease = coalescer.acquire(name, context)
                if lease is not None:
                    leases.append(lease)
                    break
                # A leader just finished: if its materialization warmed our
                # columns, piggy-back on it and skip the raw parse.
                if manager.holds(keys):
                    if self._query_metrics is not None:
                        self._query_metrics.scans_coalesced.inc(dataset=name)
                    break
        return leases

    @staticmethod
    def _trace_root(
        trace: TraceBuilder, physical: PhysicalPlan, profile: ExecutionProfile, seconds: float
    ) -> None:
        """The execute phase of a traced run, and its root span: Reduce/Nest
        run inside the executor sinks without a stage of their own, so the
        executor call is attributed to the plan root."""
        trace.add_phase("execute", seconds)
        root = unwrap_sort(physical)
        trace.operator(
            type(root).__name__.removeprefix("Phys").lower(),
            node=root,
            inclusive=True,
            detail="engine-side root span; time covers the executor call",
        ).add(seconds=seconds, rows_out=profile.output_rows)

    @staticmethod
    def _sort(
        sort_plan: PhysSort,
        names: list[str],
        length: int,
        data: dict[str, Any],
        limit: int | None,
        hints: NullabilityHints,
        profile: ExecutionProfile,
        trace: TraceBuilder | None,
    ) -> tuple[int, dict[str, Any]]:
        """The columnar sort epilogue: every tier hands over unsorted output
        (the pipeline at most bounded per scan range), and the sort kernels
        run here — one permutation, no row boxing."""
        rows_in = length
        sort_started = time.perf_counter()
        length, data, strategy = sort_columns(
            names, length, data, sort_plan.keys, limit, hints.non_null_columns
        )
        if trace is not None:
            trace.operator(
                "sort", node=sort_plan, detail="engine-side columnar sort epilogue"
            ).add(
                seconds=time.perf_counter() - sort_started, rows_in=rows_in, rows_out=length
            )
        if strategy is not None:
            profile.sort_strategy = strategy
            if limit != 0:
                # LIMIT 0 short-circuits without running a kernel; no rows
                # entered a sort.
                profile.rows_sorted += rows_in
        return length, data

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
        metrics = self._query_metrics
        if metrics is None:
            return
        metrics.latency.observe(elapsed)
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
            self.metrics.record_slow_query(entry)
        if error is not None:
            self._count_query_failure(error)
            return
        tier = profile.execution_tier
        metrics.served[tier]()
        metrics.returned(result_rows)
        for declined, reason in profile.tier_decline_reasons.items():
            code = reason.partition("]")[0].lstrip("[") or "unknown"
            metrics.declines.inc(tier=declined, code=code)
        if tier == "codegen":
            metrics.compiled[profile.compiled_from_cache]()
        if profile.io_retries:
            metrics.io_retries.inc(profile.io_retries)
        if profile.parallel_workers > 1:
            metrics.morsels_dispatched.inc(profile.morsels_dispatched)
            metrics.morsels_stolen.inc(profile.morsels_stolen)

    def _count_query_failure(self, exc: BaseException) -> None:
        if self._query_metrics is not None:
            self._query_metrics.failures.inc(code=_failure_code(exc))

    def _estimate_query_bytes(
        self, physical: PhysicalPlan, program: PipelineProgram | None
    ) -> int:
        """Admission-control memory estimate: for each scanned dataset,
        cardinality × referenced columns × 8 bytes (one float64-sized buffer
        per column).  Deliberately crude — it only has to rank queries well
        enough for the byte budget to keep a runaway scan from starving the
        rest; datasets without collected statistics contribute nothing, so
        admission degrades to the pure concurrency bound for them.  The
        scans are the program's; a plan Volcano serves is walked."""
        if program is not None:
            scans = [(scan.dataset, scan.paths) for scan in program.scans]
        else:
            scans = []
            for node in scans_of(physical):
                try:
                    scans.append((self.catalog.get(node.dataset), node.paths))
                except ProteusError:
                    continue
        total = 0
        for dataset, paths in scans:
            statistics = dataset.statistics
            if statistics is not None:
                total += int(statistics.cardinality) * max(len(paths), 1) * 8
        return total

    def _program(
        self,
        prepared: PreparedQuery,
        physical: PhysicalPlan,
        shape: QueryShape,
        analysis: PlanAnalysis,
        profile: ExecutionProfile,
        phases: list[tuple[str, float]],
    ) -> PipelineProgram | None:
        """The shape's pipeline program, built (and published beside its
        module) by its first codegen execution; ``None`` when the Volcano
        interpreter serves the plan.  Writes the cascade decision into the
        execution's profile and a fresh module's generation time to
        ``phases``."""
        generated, from_cache, verdicts = self._generate(
            prepared, physical, shape, analysis.verdicts, phases
        )
        profile.predicted_tier = analysis.predicted_tier
        declines = {v.tier: f"[{v.code}] {v.reason}" for v in verdicts if not v.serves}
        profile.tier_decline_reasons = declines
        if generated is None:
            return None
        profile.compiled_from_cache = from_cache
        program = shape.program
        if program is None:
            program = prepared._publish_program(
                shape,
                PipelineProgram(
                    physical, generated, analysis.hints, self.catalog, self.plugins,
                    self._compile_drivers,
                ),
                declines,
            )
        return program

    def _compile_drivers(self, program: PipelineProgram) -> dict[tuple[int, str], Callable]:
        """The driver function of every pipeline of ``program``: the factory
        its source defines — compiled once per engine — bound to the
        pipeline's constants."""
        drivers = {}
        for key, (source, constants) in generate_driver(program).items():
            factory = self._lru_lookup(self._drivers, source)
            if factory is None:
                factory = self._lru_publish(self._drivers, source, compile_driver(source))
            drivers[key] = factory(*constants)
        return drivers

    def _generate(
        self,
        prepared: PreparedQuery,
        physical: PhysicalPlan,
        shape: QueryShape,
        verdicts: tuple[TierVerdict, ...],
        phases: list[tuple[str, float]] | None = None,
    ) -> tuple[GeneratedQuery | None, bool, tuple[TierVerdict, ...]]:
        """The plan's generated module, whether it was generated before, and
        the verdicts it leaves — before any batch runs, for ``execute()``
        and ``explain()`` alike.  A shape holds its module from its first
        execution on; a new shape looks the module up in ``_compiled`` by
        the expressions of the plan beneath a root PhysSort
        (``module_key``), so one module serves every ORDER BY / LIMIT
        variation of the same shape and every plan that scans other
        datasets under the same aliases.  Nothing is generated for a plan
        the codegen verdict declines; one the generator fails on is declined
        here (``TIER009``), so the Volcano interpreter serves it and no query
        runs twice."""
        if not verdicts[0].serves:  # CASCADE_TIERS[0] is codegen
            return None, False, verdicts
        if shape.generated is not None:
            return shape.generated, True, verdicts
        target = unwrap_sort(physical)
        try:
            expressions = plan_expressions(target)
            key = module_key(expressions)
            generated = self._lru_lookup(self._compiled, key)
            from_cache = generated is not None
            if generated is None:
                codegen_started = time.perf_counter()
                generated = self.generator.generate(expressions)
                if phases is not None:
                    phases.append(("codegen", time.perf_counter() - codegen_started))
                # Concurrent cold executions of one shape race to generate;
                # the first publication wins so every thread runs the same
                # functions.
                generated = self._lru_publish(self._compiled, key, generated)
        except CodegenError as exc:
            failed = TierVerdict(
                TIER_CODEGEN,
                serves=False,
                code=TIER_CODEGEN_FAILED,
                reason=f"code generation failed: {exc}",
            )
            return None, False, (failed, *verdicts[1:])
        return prepared._publish_module(shape, generated), from_cache, verdicts

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
            for position in np.isnan(buffer).nonzero()[0].tolist():
                values[position] = None
        return values
    values = buffer.tolist() if isinstance(buffer, np.ndarray) else list(buffer)
    return [_output_value(value) for value in values]


def _output_value(value: Any) -> Any:
    value = _python_value(value)
    return None if t.is_missing(value) else value
