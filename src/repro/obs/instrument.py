"""Instrumentation shims that attach span accumulators to the batch pipeline.

Every helper here is a no-op pass-through when the trace builder is ``None``
— the pipeline then runs the exact stage/scan objects it always ran (the
Volcano interpreter wraps its own iterators).  With tracing on:

* :class:`TracedStage` wraps one pipeline stage (Select/Unnest/Join), timing
  each ``apply`` exclusively (its own work only) with rows-in/rows-out and
  batch counts,
* :class:`TracedScan` wraps the pipeline's ``ScanOperator``, timing the time
  spent *inside* the plug-in's batch stream and summing produced bytes —
  morsel fan-out workers stream disjoint morsel ranges through the same
  wrapper, so their per-morsel flushes aggregate into one morsel-merged span.

``SPAN_INSTRUMENTED_OPERATORS`` / ``SPAN_EXEMPT_OPERATORS`` are the
declarative coverage tables ``tools/tier_lint.py`` checks: every ``Phys*``
operator must either be span-instrumented (with a note saying where) or
explicitly exempted.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.trace import SpanAccumulator, TraceBuilder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor.vectorized import Batch, PipelineCounters

#: Where each physical operator's span comes from, per executor.  Checked by
#: ``tools/tier_lint.py``: a ``Phys*`` class missing from both this table and
#: ``SPAN_EXEMPT_OPERATORS`` fails the lint.
SPAN_INSTRUMENTED_OPERATORS: dict[str, str] = {
    "PhysScan": "TracedScan wraps ScanOperator (batch pipeline); iterator "
                "wrapper (volcano)",
    "PhysSelect": "TracedStage(SelectStage), lazy field fetches included "
                  "(batch pipeline); iterator wrapper (volcano)",
    "PhysUnnest": "TracedStage(UnnestStage) (batch pipeline); iterator "
                  "wrapper (volcano)",
    "PhysHashJoin": "TracedStage(HashJoinStage), or of a per-key chain "
                    "TracedStage(SlotStage) plus the key products on the "
                    "chain's root (batch pipeline); iterator wrapper (volcano)",
    "PhysNestedLoopJoin": "TracedStage(NestedLoopJoinStage) (batch "
                          "pipeline); iterator wrapper (volcano)",
    "PhysReduce": "engine-side root span around the executor's reduce",
    "PhysNest": "engine-side root span around the executor's grouping",
    "PhysSort": "engine-side sort span around the columnar epilogue, "
                "every tier",
}

#: Operators deliberately left without spans, with the reason why.
SPAN_EXEMPT_OPERATORS: dict[str, str] = {}


def _batch_nbytes(batch: "Batch") -> int:
    total = 0
    for column in batch.columns.values():
        total += getattr(column, "nbytes", 0)
    return total


class TracedStage:
    """A pipeline stage wrapped with an exclusive-time span accumulator."""

    __slots__ = ("inner", "accumulator")

    def __init__(self, inner: Any, accumulator: SpanAccumulator) -> None:
        self.inner = inner
        self.accumulator = accumulator

    def apply(self, batch: "Batch", counters: "PipelineCounters") -> "Batch | None":
        started = time.perf_counter()
        out = self.inner.apply(batch, counters)
        self.accumulator.add_batch(
            time.perf_counter() - started,
            batch.count,
            out.count if out is not None else 0,
        )
        return out

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class TracedScan:
    """A ``ScanOperator`` wrapped with a span over its plug-in streams.

    Only the time spent *inside* the underlying batch generator is charged
    to the span (pipeline stages downstream are timed by their own
    wrappers).  One flush happens per exhausted stream, so a morsel
    fan-out pays one locked add per morsel, not per batch.
    """

    __slots__ = ("inner", "accumulator")

    def __init__(self, inner: Any, accumulator: SpanAccumulator) -> None:
        self.inner = inner
        self.accumulator = accumulator

    def iter_batches(
        self, counters: "PipelineCounters", batch_size: int
    ) -> Iterator["Batch"]:
        return self._timed(self.inner.iter_batches(counters, batch_size))

    def iter_range(
        self, start: int, stop: int, counters: "PipelineCounters", batch_size: int
    ) -> Iterator["Batch"]:
        return self._timed(self.inner.iter_range(start, stop, counters, batch_size))

    def _timed(self, stream: Iterator["Batch"]) -> Iterator["Batch"]:
        seconds = 0.0
        rows = 0
        batches = 0
        nbytes = 0
        try:
            while True:
                started = time.perf_counter()
                try:
                    batch = next(stream)
                except StopIteration:
                    seconds += time.perf_counter() - started
                    return
                seconds += time.perf_counter() - started
                rows += batch.count
                batches += 1
                nbytes += _batch_nbytes(batch)
                yield batch
        finally:
            self.accumulator.add(
                seconds=seconds,
                rows_out=rows,
                batches=batches,
                nbytes=nbytes,
                invocations=1,
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def traced_stage(trace: TraceBuilder | None, node: object, stage: Any) -> Any:
    """Wrap a pipeline stage with a span for ``node``; pass-through untraced."""
    if trace is None:
        return stage
    name = type(node).__name__.removeprefix("Phys").lower()
    accumulator = trace.operator(
        name,
        node=node,
        detail=type(stage).__name__,
    )
    return TracedStage(stage, accumulator)


def traced_scan(trace: TraceBuilder | None, node: object, operator: Any) -> Any:
    """Wrap a ``ScanOperator`` with a span; pass-through untraced."""
    if trace is None:
        return operator
    dataset_name = getattr(getattr(operator, "dataset", None), "name", "?")
    accumulator = trace.operator(
        f"scan:{dataset_name}",
        node=node,
        detail=getattr(getattr(operator, "plugin", None), "format_name", ""),
    )
    return TracedScan(operator, accumulator)
