"""Volcano-style interpreted executor.

This executor evaluates physical plans tuple-at-a-time through the classic
iterator model the paper identifies as the source of interpretation overhead
(§5): every operator exposes a ``__iter__`` that pulls one environment (a dict
of bindings) at a time from its child, and every expression is re-interpreted
per tuple.

It exists for two reasons:

* it is the *ablation baseline* for the engine-per-query claim — running the
  same physical plan through the Volcano interpreter and through the generated
  code isolates the benefit of code generation,
* it is the execution substrate of the simulated comparator systems in
  :mod:`repro.baselines`, which are, architecturally, static interpreted
  engines.

It also doubles as the fallback executor for query shapes the batch
pipeline and its code generator do not cover (e.g. record construction in output columns).

It counts into the execution's profile, which the
:class:`~repro.resilience.context.QueryContext` carries, as it works:
``rows_scanned``, ``unnest_output_rows`` and ``output_rows`` mean what the
batch pipeline's counters mean (the differential suite in
``tests/test_obs.py`` holds every tier to them), so an aborted run's
``partial_progress`` reads the rows scanned so far.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Iterator, Mapping, Sequence

from repro.core.aggregate_utils import (
    literal_results,
    replace_aggregates,
    unique_output_columns,
)
from repro.core.types import is_missing, truthy
from repro.core.expressions import (
    PARAMS_BINDING,
    AggregateCall,
    OutputColumn,
    contains_aggregate,
    iter_aggregates,
    parameter_env,
)
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysUnnest,
    PhysicalPlan,
)
from repro.errors import ExecutionError
from repro.obs.trace import TraceBuilder
from repro.plugins.base import InputPlugin, dig_path as _dig
from repro.resilience import context as resilience_context
from repro.resilience.context import QueryContext
from repro.storage.catalog import Catalog


class VolcanoExecutor:
    """Interpreted executor over physical plans."""

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        context: QueryContext,
        params: Mapping[int | str, object] | None = None,
        trace: TraceBuilder | None = None,
    ):
        self.catalog = catalog
        self.plugins = plugins
        #: Per-query resilience context, checked every
        #: :data:`~repro.resilience.context.VOLCANO_STRIDE` scanned tuples
        #: (the tuple-at-a-time analogue of per-batch checks).
        self.context = context
        #: The execution's profile, counted into as tuples flow: records
        #: produced by scans plus flattened unnest elements
        #: (``rows_scanned``), elements emitted by unnest operators
        #: pre-predicate, incl. outer null rows (``unnest_output_rows``),
        #: and rows emitted into the result (``output_rows``).
        self.profile = context.profile
        self._stride = resilience_context.VOLCANO_STRIDE
        self._ticks = 0
        #: Bound query-parameter values; placed into every scan environment
        #: under :data:`PARAMS_BINDING` so ``Parameter`` nodes evaluate.
        self.params = params
        #: Span trace of this execution; ``None`` (the default) makes
        #: ``_iterate`` return the raw operator iterators, untouched.
        self.trace = trace

    # -- public API -------------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> tuple[list[str], dict[str, list]]:
        """Execute a plan; returns (column names, column values)."""
        if isinstance(plan, PhysReduce):
            return self._execute_reduce(plan)
        if isinstance(plan, PhysNest):
            return self._execute_nest(plan)
        raise ExecutionError(
            f"the plan root must be Reduce or Nest, got {plan.describe()}"
        )

    # -- pipelines ----------------------------------------------------------------

    def _iterate(self, plan: PhysicalPlan) -> Iterator[dict[str, Any]]:
        iterator = self._dispatch(plan)
        if self.trace is None:
            return iterator
        return self._traced_iterate(plan, iterator)

    def _traced_iterate(
        self, plan: PhysicalPlan, iterator: Iterator[dict[str, Any]]
    ) -> Iterator[dict[str, Any]]:
        """Wrap one operator's iterator with a span.

        Time is *inclusive* of children (the pull model interleaves them);
        the renderer labels it as such.  Totals accumulate in locals and
        flush once per exhausted iterator, so tracing adds two clock reads
        per tuple, never a lock.
        """
        if isinstance(plan, PhysScan):
            name = f"scan:{plan.dataset}"
        else:
            name = type(plan).__name__.removeprefix("Phys").lower()
        accumulator = self.trace.operator(
            name,
            node=plan,
            inclusive=True,
            detail="tuple-at-a-time; time includes children",
        )
        seconds = 0.0
        rows = 0
        try:
            while True:
                started = time.perf_counter()
                try:
                    env = next(iterator)
                except StopIteration:
                    seconds += time.perf_counter() - started
                    return
                seconds += time.perf_counter() - started
                rows += 1
                yield env
        finally:
            accumulator.add(seconds=seconds, rows_out=rows)

    def _dispatch(self, plan: PhysicalPlan) -> Iterator[dict[str, Any]]:
        if isinstance(plan, PhysScan):
            yield from self._iterate_scan(plan)
        elif isinstance(plan, PhysSelect):
            predicate = plan.predicate
            for env in self._iterate(plan.child):
                if truthy(predicate.evaluate(env)):
                    yield env
        elif isinstance(plan, PhysUnnest):
            yield from self._iterate_unnest(plan)
        elif isinstance(plan, PhysHashJoin):
            yield from self._iterate_hash_join(plan)
        elif isinstance(plan, PhysNestedLoopJoin):
            yield from self._iterate_nested_loop(plan)
        else:
            raise ExecutionError(f"cannot interpret operator {plan.describe()}")

    def _iterate_scan(self, plan: PhysScan) -> Iterator[dict[str, Any]]:
        dataset = self.catalog.get(plan.dataset)
        plugin = self.plugins.get(dataset.format)
        if plugin is None:
            raise ExecutionError(f"no plug-in registered for format {dataset.format!r}")
        # The general-purpose engine eagerly materializes whole records.
        profile = self.profile
        if self.params:
            for record in plugin.iterate_rows(dataset):
                profile.rows_scanned += 1
                self._tick()
                yield {plan.binding: record, PARAMS_BINDING: self.params}
        else:
            for record in plugin.iterate_rows(dataset):
                profile.rows_scanned += 1
                self._tick()
                yield {plan.binding: record}

    def _tick(self) -> None:
        """Deadline/cancel check on a tuple-count stride (cheap per tuple)."""
        self._ticks += 1
        if self._ticks >= self._stride:
            self._ticks = 0
            self.context.check()

    def _iterate_unnest(self, plan: PhysUnnest) -> Iterator[dict[str, Any]]:
        profile = self.profile
        for env in self._iterate(plan.child):
            parent = env.get(plan.binding)
            elements = _dig(parent, plan.path)
            if elements is None:
                elements = []
            if not isinstance(elements, (list, tuple)):
                raise ExecutionError(
                    f"field {'.'.join(plan.path)!r} of {plan.binding!r} is not a collection"
                )
            matched = False
            for element in elements:
                # Mirror the batch tier's accounting: every flattened element
                # counts as a scanned row and an unnest output row *before*
                # the predicate runs (UnnestStage counts whole flattened
                # buffers the same way).
                profile.rows_scanned += 1
                profile.unnest_output_rows += 1
                self._tick()
                child_env = dict(env)
                child_env[plan.var] = element
                if plan.predicate is not None:
                    if not truthy(plan.predicate.evaluate(child_env)):
                        continue
                matched = True
                yield child_env
            if plan.outer and not matched:
                # The batch tier's outer unnest emits the null child row
                # inside the flattened buffers, so it lands in both counters
                # there; keep parity.
                profile.rows_scanned += 1
                profile.unnest_output_rows += 1
                child_env = dict(env)
                child_env[plan.var] = None
                yield child_env

    def _iterate_hash_join(self, plan: PhysHashJoin) -> Iterator[dict[str, Any]]:
        build: dict[Any, list[dict[str, Any]]] = defaultdict(list)
        for env in self._iterate(plan.left):
            key = plan.left_key.evaluate(env)
            if is_missing(key):
                # Missing keys join nothing: equality with missing is false
                # in every tier (dict identity would spuriously pair Nones).
                continue
            build[key].append(env)
        for env in self._iterate(plan.right):
            key = plan.right_key.evaluate(env)
            matches = build.get(key, []) if not is_missing(key) else []
            matched = False
            for left_env in matches:
                combined = {**left_env, **env}
                if plan.residual is not None:
                    if not truthy(plan.residual.evaluate(combined)):
                        continue
                matched = True
                yield combined
            if plan.outer and not matched:
                yield {**{b: None for b in plan.left.bindings()}, **env}

    def _iterate_nested_loop(self, plan: PhysNestedLoopJoin) -> Iterator[dict[str, Any]]:
        left_envs = list(self._iterate(plan.left))
        for right_env in self._iterate(plan.right):
            for left_env in left_envs:
                combined = {**left_env, **right_env}
                if plan.predicate is not None:
                    if not truthy(plan.predicate.evaluate(combined)):
                        continue
                yield combined

    # -- roots ---------------------------------------------------------------------

    def _execute_reduce(self, plan: PhysReduce) -> tuple[list[str], dict[str, list]]:
        names = [column.name for column in plan.columns]
        aggregated = any(contains_aggregate(column.expression) for column in plan.columns)
        if not aggregated:
            unique_columns = unique_output_columns(plan.columns)
            columns: dict[str, list] = {name: [] for name in names}
            for env in self._iterate(plan.child):
                self.profile.output_rows += 1
                for column in unique_columns:
                    columns[column.name].append(column.expression.evaluate(env))
            return names, columns
        accumulators = _AggregateAccumulators(plan.columns)
        for env in self._iterate(plan.child):
            accumulators.update(env)
        values = accumulators.finalize()
        self.profile.output_rows += 1
        finish_env = parameter_env(self.params)
        columns = {}
        for column in plan.columns:
            final = replace_aggregates(column.expression, literal_results(values))
            columns[column.name] = [final.evaluate(finish_env)]
        return names, columns

    def _execute_nest(self, plan: PhysNest) -> tuple[list[str], dict[str, list]]:
        names = [column.name for column in plan.columns]
        groups: dict[tuple, _AggregateAccumulators] = {}
        group_envs: dict[tuple, dict[str, Any]] = {}
        for env in self._iterate(plan.child):
            # Missing keys — None, and NaN, which no dict key equals — are
            # one group.
            key = tuple(
                None if is_missing(value) else value
                for value in (expression.evaluate(env) for expression in plan.group_by)
            )
            if key not in groups:
                groups[key] = _AggregateAccumulators(plan.columns)
                group_envs[key] = env
            groups[key].update(env)
        unique_columns = unique_output_columns(plan.columns)
        finish_env = parameter_env(self.params)
        columns: dict[str, list] = {name: [] for name in names}
        self.profile.output_rows += len(groups)
        for key, accumulators in groups.items():
            values = accumulators.finalize()
            env = group_envs[key]
            for column in unique_columns:
                if contains_aggregate(column.expression):
                    final = replace_aggregates(column.expression, literal_results(values))
                    columns[column.name].append(final.evaluate(finish_env))
                else:
                    columns[column.name].append(column.expression.evaluate(env))
        return names, columns


class _AggregateAccumulators:
    """Running aggregates for one group (or for the global reduction),
    updated one tuple environment at a time: sums start at the integer 0 (so
    integer inputs accumulate exactly, floats promote on first add), extrema
    are Python values, missing inputs are skipped and the bare ``count``
    counts every row."""

    def __init__(self, columns: Sequence[OutputColumn]):
        self.aggregates: list[AggregateCall] = []
        seen: set[tuple] = set()
        for column in columns:
            for aggregate in iter_aggregates(column.expression):
                fingerprint = aggregate.fingerprint()
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    self.aggregates.append(aggregate)
        self.count = 0
        self.sums: dict[tuple, Any] = defaultdict(int)
        self.mins: dict[tuple, Any] = {}
        self.maxs: dict[tuple, Any] = {}
        self.bools_and: dict[tuple, bool] = defaultdict(lambda: True)
        self.bools_or: dict[tuple, bool] = defaultdict(lambda: False)
        self.counts: dict[tuple, int] = defaultdict(int)

    def update(self, env: dict[str, Any]) -> None:
        self.count += 1
        for aggregate in self.aggregates:
            fingerprint = aggregate.fingerprint()
            if aggregate.func == "count" and aggregate.argument is None:
                continue
            value = aggregate.argument.evaluate(env) if aggregate.argument is not None else None
            if is_missing(value):
                continue
            self.counts[fingerprint] += 1
            if aggregate.func in ("sum", "avg"):
                self.sums[fingerprint] += value
            elif aggregate.func == "max":
                current = self.maxs.get(fingerprint)
                self.maxs[fingerprint] = value if current is None else max(current, value)
            elif aggregate.func == "min":
                current = self.mins.get(fingerprint)
                self.mins[fingerprint] = value if current is None else min(current, value)
            elif aggregate.func == "and":
                self.bools_and[fingerprint] = self.bools_and[fingerprint] and bool(value)
            elif aggregate.func == "or":
                self.bools_or[fingerprint] = self.bools_or[fingerprint] or bool(value)

    def finalize(self) -> dict[tuple, Any]:
        results: dict[tuple, Any] = {}
        for aggregate in self.aggregates:
            fingerprint = aggregate.fingerprint()
            if aggregate.func == "count":
                results[fingerprint] = (
                    self.count if aggregate.argument is None else self.counts[fingerprint]
                )
            elif aggregate.func == "sum":
                results[fingerprint] = self.sums[fingerprint]
            elif aggregate.func == "avg":
                count = self.counts[fingerprint]
                results[fingerprint] = self.sums[fingerprint] / count if count else float("nan")
            elif aggregate.func == "max":
                results[fingerprint] = self.maxs.get(fingerprint)
            elif aggregate.func == "min":
                results[fingerprint] = self.mins.get(fingerprint)
            elif aggregate.func == "and":
                results[fingerprint] = self.bools_and[fingerprint]
            elif aggregate.func == "or":
                results[fingerprint] = self.bools_or[fingerprint]
        return results
