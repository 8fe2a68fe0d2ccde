"""Span tracing: per-phase and per-operator timing of one query execution.

The tracing layer is pay-for-what-you-use.  When the engine's ``Tracer`` is
disabled (the default) no builder exists and every instrumentation site
reduces to one ``is None`` check; a traced batch pipeline runs the same
generated driver as an untraced one, only with a span beside each operator.  When
enabled, one :class:`TraceBuilder` accompanies a query execution and
collects:

* **phase spans** — ``parse``, ``analyze``, ``plan``, ``codegen``,
  ``tier-cascade``, ``execute``, ``materialize`` — wall-clock sections of the
  engine's own control flow.  The frontend phases (``parse``, ``plan``,
  ``analyze``) run before any execution — in ``prepare()`` or a re-prepare —
  so they belong to the prepared query's shape, which hands them to
  :meth:`Tracer.begin` of its first execution only; a thread keeps no
  phases between executions, and
* **operator spans** — one per physical operator, with rows-in/rows-out,
  batch and byte attributes.  Operator spans are *accumulators*: the batch
  tier adds to them once per batch, its morsel fan-out workers add to the
  same accumulator from many threads (a lock makes that safe — contention is
  per batch, not per row) and the Volcano tier flushes one
  locally-accumulated total per iterator.

Finished traces are immutable :class:`QueryTrace` values held in a bounded
ring buffer on the engine (``engine.tracer.traces()``) with a structured
``to_dict()`` export.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.core.concurrency import make_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.profile import ExecutionProfile
    from repro.core.physical import PhysicalPlan

#: Default ring-buffer capacity of ``Tracer``.
DEFAULT_TRACE_CAPACITY = 32

#: The engine phases a trace may record, in their canonical display order.
PHASES = (
    "parse",
    "analyze",
    "plan",
    "codegen",
    "tier-cascade",
    "execute",
    "materialize",
)


@dataclass
class Span:
    """One timed section of a query execution.

    ``kind`` is ``"phase"`` for engine control-flow sections and
    ``"operator"`` for physical-operator work.  ``node_id`` is the operator's
    ordinal in the plan's post-order walk (``None`` when the span was
    recorded against something that is not a node of the traced plan).
    ``inclusive``
    marks spans whose time includes their children's time (Volcano iterator
    wrappers and root spans); exclusive spans (batch pipeline stages) time
    only their own work.
    """

    name: str
    kind: str
    seconds: float = 0.0
    node_id: int | None = None
    operator: str | None = None
    detail: str = ""
    rows_in: int = 0
    rows_out: int = 0
    batches: int = 0
    bytes_processed: int = 0
    invocations: int = 0
    inclusive: bool = False

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "seconds": self.seconds,
        }
        if self.kind == "operator":
            out.update(
                node_id=self.node_id,
                operator=self.operator,
                rows_in=self.rows_in,
                rows_out=self.rows_out,
                batches=self.batches,
                bytes_processed=self.bytes_processed,
                invocations=self.invocations,
                inclusive=self.inclusive,
            )
        if self.detail:
            out["detail"] = self.detail
        return out


class SpanAccumulator:
    """Thread-safe mutable accumulator behind one operator span.

    The batch pipeline adds once per batch for an operator (:meth:`add_batch`,
    from a driver's hook) and once per stream for a scan;
    Volcano's iterator wrappers add once per exhausted iterator.
    The lock is uncontended on a single thread and per-batch under a morsel
    fan-out, so its cost disappears into the batch work it measures.
    """

    __slots__ = (
        "name",
        "node_id",
        "operator",
        "detail",
        "inclusive",
        "seconds",
        "rows_in",
        "rows_out",
        "batches",
        "bytes_processed",
        "invocations",
        "_lock",
        "_batch_buckets",
    )

    def __init__(
        self,
        name: str,
        node_id: int | None = None,
        operator: str | None = None,
        detail: str = "",
        inclusive: bool = False,
    ) -> None:
        self.name = name
        self.node_id = node_id
        self.operator = operator
        self.detail = detail
        self.inclusive = inclusive
        self.seconds = 0.0
        self.rows_in = 0
        self.rows_out = 0
        self.batches = 0
        self.bytes_processed = 0
        self.invocations = 0
        self._lock = make_lock("SpanAccumulator._lock")
        #: Per-thread ``[seconds, rows_in, rows_out, batches]`` subtotals for
        #: the batch fast path; each bucket is mutated only by its owning
        #: thread (GIL-atomic list-item updates), merged in :meth:`to_span`.
        self._batch_buckets: dict[int, list] = {}

    def add(
        self,
        seconds: float = 0.0,
        rows_in: int = 0,
        rows_out: int = 0,
        batches: int = 0,
        nbytes: int = 0,
        invocations: int = 1,
    ) -> None:
        with self._lock:
            self.seconds += seconds
            self.rows_in += rows_in
            self.rows_out += rows_out
            self.batches += batches
            self.bytes_processed += nbytes
            self.invocations += invocations

    def add_batch(self, seconds: float, rows_in: int, rows_out: int) -> None:
        """Lock-free positional fast path for the per-batch stage timing.

        Each thread accumulates into its own bucket (kwargs packing and the
        lock both cost as much as the arithmetic at this call rate); the
        buckets are merged when the span is assembled.
        """
        ident = threading.get_ident()
        bucket = self._batch_buckets.get(ident)
        if bucket is None:
            with self._lock:
                bucket = self._batch_buckets.setdefault(ident, [0.0, 0, 0, 0])
        bucket[0] += seconds
        bucket[1] += rows_in
        bucket[2] += rows_out
        bucket[3] += 1

    def to_span(self) -> Span:
        with self._lock:
            seconds = self.seconds
            rows_in = self.rows_in
            rows_out = self.rows_out
            batches = self.batches
            invocations = self.invocations
            for bucket in self._batch_buckets.values():
                seconds += bucket[0]
                rows_in += bucket[1]
                rows_out += bucket[2]
                batches += bucket[3]
                invocations += bucket[3]
            return Span(
                name=self.name,
                kind="operator",
                seconds=seconds,
                node_id=self.node_id,
                operator=self.operator,
                detail=self.detail,
                rows_in=rows_in,
                rows_out=rows_out,
                batches=batches,
                bytes_processed=self.bytes_processed,
                invocations=invocations,
                inclusive=self.inclusive,
            )


@dataclass
class QueryTrace:
    """The immutable result of tracing one query execution."""

    query_text: str
    tier: str
    predicted_tier: str | None
    elapsed_seconds: float
    phases: list[Span] = field(default_factory=list)
    operators: list[Span] = field(default_factory=list)
    #: ``None`` for completed queries; the resilience diagnostic code
    #: (``RES001`` timeout, ``RES002`` cancel, ...) when the traced
    #: execution was aborted — its spans cover only the work done so far.
    aborted: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "query": self.query_text,
            "tier": self.tier,
            "predicted_tier": self.predicted_tier,
            "elapsed_seconds": self.elapsed_seconds,
            "aborted": self.aborted,
            "phases": [span.to_dict() for span in self.phases],
            "operators": [span.to_dict() for span in self.operators],
        }

    def operator_span(self, name: str) -> Span | None:
        for span in self.operators:
            if span.name == name:
                return span
        return None


class TraceBuilder:
    """Collects the spans of one query execution.

    Operator spans are keyed by ``(node ordinal, span name)`` — the ordinal
    is the operator's position in the plan's post-order ``walk()``, which is
    deterministic per plan shape, so every tier attributes work to the same
    key.
    """

    def __init__(self, query_text: str, plan: "PhysicalPlan | None") -> None:
        self.query_text = query_text
        self.plan = plan
        self._node_ids: dict[int, int] = {}
        if plan is not None:
            for index, node in enumerate(plan.walk()):
                self._node_ids[id(node)] = index
        self.phase_spans: list[Span] = []
        self._operators: dict[tuple[int | None, str], SpanAccumulator] = {}
        self._lock = make_lock("TraceBuilder._lock")

    # -- phases ----------------------------------------------------------------

    def add_phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self.phase_spans.append(Span(name=name, kind="phase", seconds=seconds))

    # -- operators -------------------------------------------------------------

    def node_ordinal(self, node: object) -> int | None:
        return self._node_ids.get(id(node))

    def operator(
        self,
        name: str,
        node: object = None,
        detail: str = "",
        inclusive: bool = False,
    ) -> SpanAccumulator:
        """The (get-or-created) accumulator of one operator span.

        ``node`` is the physical-plan node the span measures; when it is a
        node of the traced plan the span inherits its walk ordinal, otherwise
        (or when ``None``) the span is keyed by name alone.
        """
        node_id = self.node_ordinal(node) if node is not None else None
        operator = type(node).__name__ if node is not None else None
        key = (node_id, name)
        with self._lock:
            accumulator = self._operators.get(key)
            if accumulator is None:
                accumulator = SpanAccumulator(
                    name,
                    node_id=node_id,
                    operator=operator,
                    detail=detail,
                    inclusive=inclusive,
                )
                self._operators[key] = accumulator
            return accumulator

    def operator_spans(self) -> list[Span]:
        with self._lock:
            accumulators = list(self._operators.values())
        spans = [accumulator.to_span() for accumulator in accumulators]
        spans.sort(key=lambda span: (span.node_id is None, span.node_id or 0, span.name))
        return spans

    # -- assembly --------------------------------------------------------------

    def finish(
        self,
        profile: "ExecutionProfile | None",
        elapsed_seconds: float,
        aborted: str | None = None,
    ) -> QueryTrace:
        order = {name: index for index, name in enumerate(PHASES)}
        phases = sorted(
            self.phase_spans, key=lambda span: order.get(span.name, len(order))
        )
        return QueryTrace(
            query_text=self.query_text,
            tier=profile.execution_tier if profile is not None else "unknown",
            predicted_tier=profile.predicted_tier if profile is not None else None,
            elapsed_seconds=elapsed_seconds,
            phases=phases,
            operators=self.operator_spans(),
            aborted=aborted,
        )


class _ThreadTracing(threading.local):
    """One thread's tracing state (see :class:`Tracer`)."""

    def __init__(self) -> None:
        #: Inside :meth:`Tracer.force` on this thread.
        self.forced = False
        #: The last trace an execution on this thread finished.
        self.finished: QueryTrace | None = None


class Tracer:
    """The engine's tracing switchboard and bounded trace ring buffer.

    Tracing is on for every thread when the engine passes
    ``enable_tracing=True``, and on for one thread inside :meth:`force`
    (``explain(analyze=True)``).  The force flag and the last finished trace
    are per thread, so concurrent sessions never see each other's; phases
    measured before an execution starts come in through :meth:`begin`.
    """

    def __init__(
        self, capacity: int = DEFAULT_TRACE_CAPACITY, enabled: bool = False
    ) -> None:
        self._enabled = enabled
        self._traces: deque[QueryTrace] = deque(maxlen=max(int(capacity), 1))
        self._local = _ThreadTracing()
        self._lock = make_lock("Tracer._lock")

    @property
    def enabled(self) -> bool:
        """Is tracing on for the calling thread?"""
        return self._enabled or self._local.forced

    # -- recording -------------------------------------------------------------

    def begin(
        self,
        query_text: str,
        plan: "PhysicalPlan | None",
        phases: Iterable[tuple[str, float]] = (),
    ) -> TraceBuilder | None:
        """Start tracing one execution, which reports ``phases`` measured
        before it started (its shape's frontend phases); ``None`` when
        tracing is disabled."""
        if not self.enabled:
            return None
        builder = TraceBuilder(query_text, plan)
        for name, seconds in phases:
            builder.add_phase(name, seconds)
        return builder

    def finish(
        self,
        builder: TraceBuilder,
        profile: "ExecutionProfile | None",
        elapsed_seconds: float,
        aborted: str | None = None,
    ) -> QueryTrace:
        trace = builder.finish(profile, elapsed_seconds, aborted=aborted)
        with self._lock:
            self._traces.append(trace)
        self._local.finished = trace
        return trace

    # -- inspection ------------------------------------------------------------

    def traces(self) -> list[QueryTrace]:
        with self._lock:
            return list(self._traces)

    def last(self) -> QueryTrace | None:
        """The last trace finished on any thread."""
        with self._lock:
            return self._traces[-1] if self._traces else None

    def last_on_this_thread(self) -> QueryTrace | None:
        """The last trace an execution on the calling thread finished."""
        return self._local.finished

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    @contextmanager
    def force(self) -> Iterator[None]:
        """Enable tracing on the calling thread for the block
        (``explain(analyze=True)``)."""
        local = self._local
        previous = local.forced
        local.forced = True
        try:
            yield
        finally:
            local.forced = previous
