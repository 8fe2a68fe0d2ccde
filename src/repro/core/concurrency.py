"""Concurrency runtime: named locks, a debug lock-order sanitizer, and the
repo's declarative thread-safety contract.

The engine is served to concurrent clients (ROADMAP item 1), so its shared
state — plug-in structural indexes, the adaptive cache, the prepared-statement
and compiled-program caches, the metrics registry, the morsel scheduler — is
protected by a small set of hand-placed locks.  This module makes that lock
discipline *checkable* instead of folklore, in two layers:

**Runtime layer** (this module's classes).  Every lock in the engine is
created through :func:`make_lock`, which returns a plain ``threading.Lock``
when debugging is off — identical cost to before — and a :class:`DebugLock`
when it is on (``PROTEUS_DEBUG_LOCKS=1`` or :func:`set_debug_locks`; the
test suite's ``--stress`` mode enables it).  A :class:`DebugLock` records
every *held-lock → acquired-lock* pair into the process-wide
:class:`LockOrderGraph` and raises :class:`LockOrderError` immediately on

* **same-lock re-entry** — acquiring a non-reentrant lock a thread already
  holds, the single-thread self-deadlock, and
* **lock-order cycles** — an acquisition that closes a cycle in the global
  order graph, the two-thread deadlock *even if the interleaving that would
  actually deadlock never happened in this run*.

**Static layer** (``tools/concurrency_lint.py``).  An AST analyzer proves,
repo-wide, that every mutation of shared mutable state happens under the
declared lock, and that the statically-derivable lock graph is acyclic.  Its
ground truth is the declaration tables at the bottom of this module — the
same pattern as ``SPAN_EXEMPT_OPERATORS``: every shared attribute must be
declared in exactly one table, and stale declarations fail the lint.

The tables are documentation with teeth; see each table's docstring for its
exact contract.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from types import TracebackType
from typing import Callable, Iterator, Sequence, TypeVar

from repro.errors import ProteusError

__all__ = [
    "LockOrderError",
    "LockOrderGraph",
    "DebugLock",
    "make_lock",
    "make_rlock",
    "set_debug_locks",
    "debug_locks_enabled",
    "global_lock_graph",
    "reset_lock_order",
    "assert_lock_order_acyclic",
    "run_concurrently",
    "switch_interval",
    "SHARED_CLASSES",
    "GUARDED_BY",
    "THREAD_LOCAL",
    "IMMUTABLE_AFTER_INIT",
    "BENIGN_RACES",
    "EXTERNALLY_GUARDED",
]

#: Aggressive thread switch interval (seconds) used by the ``--stress`` test
#: mode: ~1000x more preemption points than CPython's default 5ms, so racy
#: interleavings that would hide for years surface in one CI run.
STRESS_SWITCH_INTERVAL = 5e-6


class LockOrderError(ProteusError):
    """A lock-discipline violation observed at runtime (re-entry or cycle)."""


class LockOrderGraph:
    """The process-wide directed graph of observed lock acquisition orders.

    Nodes are lock names (``"Class._lock"``); an edge ``a -> b`` means some
    thread acquired ``b`` while holding ``a``.  The graph must stay acyclic:
    a cycle means two threads can each hold one lock of the cycle while
    waiting for the next — a deadlock waiting for the right interleaving.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        self._cycles: list[tuple[str, ...]] = []
        # The meta-lock guarding the graph itself; deliberately a plain lock
        # (wrapping it in a DebugLock would recurse).
        self._lock = threading.Lock()

    def record(self, held: Sequence[str], acquired: str) -> None:
        """Record edges ``h -> acquired`` for every held lock, raising
        :class:`LockOrderError` when an edge closes a cycle."""
        with self._lock:
            for source in held:
                if source == acquired:
                    continue
                targets = self._edges.setdefault(source, set())
                if acquired in targets:
                    continue
                cycle = self._path(acquired, source)
                targets.add(acquired)
                if cycle is not None:
                    full = (source, *cycle)
                    self._cycles.append(full)
                    raise LockOrderError(
                        "lock-order cycle: " + " -> ".join(full)
                    )

    def _path(self, start: str, goal: str) -> tuple[str, ...] | None:
        """A path ``start -> ... -> goal`` in the current graph, or ``None``.
        Called with the meta-lock held."""
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for target in self._edges.get(node, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append((target, path + (target,)))
        return None

    def edges(self) -> dict[str, set[str]]:
        """A snapshot of the observed acquisition-order edges."""
        with self._lock:
            return {source: set(targets) for source, targets in self._edges.items()}

    def cycles(self) -> list[tuple[str, ...]]:
        """Every cycle ever observed (normally raised at the closing edge)."""
        with self._lock:
            return list(self._cycles)

    def clear(self) -> None:
        with self._lock:
            self._edges.clear()
            self._cycles.clear()


#: The process-wide graph every :class:`DebugLock` records into.
_GRAPH = LockOrderGraph()

#: Master switch; flipped by :func:`set_debug_locks` / ``PROTEUS_DEBUG_LOCKS``.
_DEBUG_ENABLED = os.environ.get("PROTEUS_DEBUG_LOCKS", "") not in ("", "0")

_HELD = threading.local()


def _held_stack() -> list[str]:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = []
        _HELD.stack = stack
    return stack


class DebugLock:
    """A named, order-checking wrapper around ``threading.Lock``.

    Acquisition appends the lock's name to a per-thread held stack and records
    the (held, acquired) pairs into the global :class:`LockOrderGraph`;
    re-entry by the owning thread raises :class:`LockOrderError` instead of
    deadlocking silently.  ``reentrant=True`` wraps an ``RLock`` and permits
    re-entry (order edges are still recorded on first acquisition).
    """

    __slots__ = ("name", "reentrant", "_inner")

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self._inner: threading.Lock | threading.RLock = (
            threading.RLock() if reentrant else threading.Lock()
        )

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = _held_stack()
        first = self.name not in held
        if not first and not self.reentrant:
            raise LockOrderError(
                f"re-entrant acquisition of non-reentrant lock {self.name}: "
                f"held stack {held}"
            )
        ok = self._inner.acquire(blocking, timeout)
        if not ok:
            # A failed non-blocking / timed acquire never held the lock, so
            # it must leave no trace: no held-stack entry and no order edge.
            return False
        if first:
            try:
                _GRAPH.record(held, self.name)
            except LockOrderError:
                self._inner.release()
                raise
        held.append(self.name)
        return True

    def release(self) -> None:
        held = _held_stack()
        if self.name in held:
            # Remove the most recent acquisition (locks release LIFO in every
            # ``with`` block; a stray out-of-order release still unwinds).
            for index in range(len(held) - 1, -1, -1):
                if held[index] == self.name:
                    del held[index]
                    break
        self._inner.release()

    def locked(self) -> bool:
        inner = self._inner
        return inner.locked() if isinstance(inner, type(threading.Lock())) else True

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()


def make_lock(name: str) -> "threading.Lock | DebugLock":
    """The lock constructor every engine component uses.

    Returns a plain ``threading.Lock`` when debug checking is off (the
    default — zero overhead over constructing the lock directly) and a
    :class:`DebugLock` named ``name`` when it is on.  ``name`` is, by
    convention, ``"ClassName.attr"`` — the key the lock-order graph and the
    static analyzer's ``GUARDED_BY`` table both use.
    """
    if _DEBUG_ENABLED:
        return DebugLock(name)
    return threading.Lock()


def make_rlock(name: str) -> "threading.RLock | DebugLock":
    """Reentrant variant of :func:`make_lock`."""
    if _DEBUG_ENABLED:
        return DebugLock(name, reentrant=True)
    return threading.RLock()


def set_debug_locks(enabled: bool) -> None:
    """Flip the debug-lock switch.

    Affects locks created *after* the call: enable before constructing the
    engines under test (the ``--stress`` conftest fixture does this at
    session start).
    """
    global _DEBUG_ENABLED
    _DEBUG_ENABLED = enabled


def debug_locks_enabled() -> bool:
    return _DEBUG_ENABLED


def global_lock_graph() -> LockOrderGraph:
    """The process-wide lock-order graph DebugLocks record into."""
    return _GRAPH


def reset_lock_order() -> None:
    """Clear the recorded lock-order graph (test isolation)."""
    _GRAPH.clear()


def assert_lock_order_acyclic() -> None:
    """Raise :class:`LockOrderError` if any cycle was ever observed."""
    cycles = _GRAPH.cycles()
    if cycles:
        rendered = "; ".join(" -> ".join(cycle) for cycle in cycles)
        raise LockOrderError(f"observed lock-order cycle(s): {rendered}")


# ---------------------------------------------------------------------------
# Stress harness helpers
# ---------------------------------------------------------------------------

T = TypeVar("T")


def run_concurrently(
    task: Callable[[int], T], threads: int, *, name: str = "stress"
) -> list[T]:
    """Run ``task(thread_index)`` from ``threads`` barrier-aligned threads.

    All threads block on one barrier and start their work in the same
    scheduler quantum — the worst case for check-then-act races on cold
    shared state (every thread sees the caches empty at once).  Returns the
    per-thread results in thread-index order; the first exception raised by
    any thread is re-raised on the calling thread after every thread joined.
    """
    barrier = threading.Barrier(threads)
    results: list[T | None] = [None] * threads
    errors: list[BaseException] = []

    def runner(index: int) -> None:
        try:
            barrier.wait()
            results[index] = task(index)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    spawned = [
        threading.Thread(target=runner, args=(index,), name=f"{name}-{index}")
        for index in range(threads)
    ]
    for thread in spawned:
        thread.start()
    for thread in spawned:
        thread.join()
    if errors:
        raise errors[0]
    return results  # type: ignore[return-value]


@contextmanager
def switch_interval(seconds: float = STRESS_SWITCH_INTERVAL) -> Iterator[None]:
    """Temporarily shrink the interpreter's thread switch interval.

    ``sys.setswitchinterval(5e-6)`` preempts threads ~1000x more often than
    the default, turning latent interleaving bugs into reproducible failures;
    the previous interval is always restored.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


# ---------------------------------------------------------------------------
# The declarative thread-safety contract
# ---------------------------------------------------------------------------
#
# ``tools/concurrency_lint.py`` checks every class that owns a lock — owning
# a lock is a claim of thread-safety — plus every class listed in
# SHARED_CLASSES.  Within a checked class, *every* mutation of shared state
# (`self.x[...] = `, `.setdefault`/`.update`/`.pop`/`.append`/…, `del`,
# attribute rebinds, augmented assignment) outside ``__init__`` must be
# covered by exactly one declaration below; an undeclared mutation, a
# GUARDED_BY mutation outside its lock, and a stale declaration (class or
# attribute that no longer exists) each fail the build.

#: Classes whose instances are shared across threads but do not own a lock of
#: their own (lock-owning classes are checked automatically).  Value: why the
#: class is in the checked set — usually the thread entry point that reaches
#: it.  ``tools/concurrency_lint.py`` also requires every class that spawns
#: ``threading.Thread`` workers to appear in the checked set.
SHARED_CLASSES: dict[str, str] = {
    "ProteusEngine": (
        "one engine serves concurrent sessions (ROADMAP item 1): prepare()/"
        "query()/execute() run from many client threads over shared caches"
    ),
    "PreparedQuery": (
        "the per-text prepared cache hands the same PreparedQuery to every "
        "thread calling engine.query() with one query text"
    ),
    "QueryShape": (
        "a PreparedQuery's shape is read by every thread executing it; its "
        "two writes after construction, the generated module and the "
        "pipeline program, are published by PreparedQuery._publish_module / "
        "_publish_program under PreparedQuery._lock"
    ),
    "PipelineProgram": (
        "one shape's program is run by every thread executing the shape; it "
        "is immutable once published — each execution's state lives in its "
        "own VectorizedExecutor"
    ),
    "_NestRoot": (
        "a group-by root is part of its shape's program, shared by every "
        "execution: a driver keeps a range's chunks in its own locals, and "
        "the kernels chosen go to the execution's profile"
    ),
    "CacheManager": (
        "shared by every query thread's batch pipeline: one probe per "
        "execution, and stores of what its scans, unnests, joins and chains "
        "built"
    ),
    "CacheStatistics": (
        "mutated on every CacheManager lookup/store from any query thread"
    ),
    "WorkerPool": (
        "spawns the morsel worker threads (proteus-worker-N); run() is the "
        "thread entry point of the batch executor's morsel fan-out"
    ),
    "AdmissionController": (
        "the admission gate is shared by every client thread entering "
        "engine._execute; it synchronizes on a threading.Condition, which "
        "the lint does not recognize as a lock factory"
    ),
    "ScanCoalescer": (
        "the keyed in-flight scan table is probed by every query thread "
        "entering engine._execute over a cold dataset; waiters block on "
        "per-key Events outside the lock"
    ),
    "StatementRegistry": (
        "server-side prepared-statement handles are created/resolved/closed "
        "by concurrent HTTP worker threads"
    ),
    "ActiveQueryRegistry": (
        "cancellation tokens are registered by the executing worker thread "
        "and tripped by a different thread serving DELETE /v1/query/<id>"
    ),
    "ProteusServer": (
        "owns the event-loop thread (proteus-http-serve-<port>) and the "
        "worker pool (proteus-http-<n>); started/stopped from the owning "
        "application thread while the workers read its engine and registries "
        "and open/close connections"
    ),
    "Planner": (
        "one planner per engine lowers the plans of every prepare() from "
        "concurrent client threads: per-plan state lives in locals"
    ),
    "StatisticsManager": (
        "one estimator per engine, read by every concurrent Planner.plan(): "
        "bound parameters are arguments, never attributes"
    ),
    "Connection": (
        "a client socket and its receive buffer travel loop -> worker -> loop "
        "through the server's SimpleQueues; exactly one thread owns a "
        "Connection at any time"
    ),
}

#: ``"Class.attr" -> "lock attribute"``: the attribute is mutated only while
#: ``with self.<lock attribute>`` is held.  The analyzer verifies every
#: mutation site; lock-free *reads* of these attributes are permitted (the
#: double-checked publish idiom the plug-ins use: readers race only against
#: idempotent publication of immutable values).
GUARDED_BY: dict[str, str] = {
    # engine-level shared caches (ProteusEngine serves concurrent sessions)
    "ProteusEngine._compiled": "_lock",
    "ProteusEngine._drivers": "_lock",
    "ProteusEngine._prepared_cache": "_lock",
    # shape templates: two first texts of one shape race to prepare in full
    # and publish; _lru_publish keeps the first template under _lock
    "ProteusEngine._shapes": "_lock",
    "ProteusEngine._catalog_epoch": "_lock",
    "PreparedQuery._state": "_lock",
    "PreparedQuery.comprehension": "_lock",
    "PreparedQuery._logical": "_lock",
    # adaptive cache
    "ScanCoalescer._inflight": "_lock",
    "CacheManager._entries": "_lock",
    "CacheManager._clock": "_lock",
    # GreedyDual's floor: raised to each victim's priority on eviction
    "CacheManager._floor": "_lock",
    "CacheManager.used_bytes": "_lock",
    "CacheManager.stats": "_lock",
    # plug-in state
    "InputPlugin.scan_seconds": "_metrics_lock",
    "InputPlugin.scan_bytes": "_metrics_lock",
    "InputPlugin.scan_calls": "_metrics_lock",
    "InputPlugin._states": "_state_lock",
    # batch-pipeline cache recorders (shared by morsel workers)
    "_CoverageRecorder._chunks": "_lock",
    # morsel scheduler
    "WorkStealingQueue.dispatched": "_lock",
    "WorkStealingQueue.stolen": "_lock",
    # observability
    "MetricsRegistry._metrics": "_lock",
    "MetricsRegistry._slow_queries": "_lock",
    "Counter._values": "_lock",
    "Histogram._counts": "_lock",
    "Histogram._sum": "_lock",
    "Histogram._count": "_lock",
    "Tracer._traces": "_lock",
    "TraceBuilder.phase_spans": "_lock",
    "TraceBuilder._operators": "_lock",
    "SpanAccumulator.seconds": "_lock",
    "SpanAccumulator.rows_in": "_lock",
    "SpanAccumulator.rows_out": "_lock",
    "SpanAccumulator.batches": "_lock",
    "SpanAccumulator.bytes_processed": "_lock",
    "SpanAccumulator.invocations": "_lock",
    "SpanAccumulator._batch_buckets": "_lock",
    # resilience subsystem (context shared by every tier + pool workers)
    # the execution's profile: the context mutates it only under its lock —
    # a morsel worker's merge (QueryContext.merge) and a retry charge; the
    # calling thread writes it unlocked only while no worker of the query runs
    "QueryContext.profile": "_lock",
    "FaultInjector._calls": "_lock",
    "FaultInjector._fired": "_lock",
    "FaultInjector._injected": "_lock",
    # HTTP serving layer (handles + cancellation shared across worker threads)
    "StatementRegistry._statements": "_lock",
    "StatementRegistry._counter": "_lock",
    "ActiveQueryRegistry._tokens": "_lock",
    "ProteusServer._threads": "_lock",
    "ProteusServer._stopping": "_lock",
    "ProteusServer._connections": "_lock",
    # this module's own graph
    "LockOrderGraph._edges": "_lock",
    "LockOrderGraph._cycles": "_lock",
}

#: ``"Class.attr" -> why``: state that is only ever touched by one thread
#: (per-thread buckets, thread-local stacks) and therefore needs no lock.
THREAD_LOCAL: dict[str, str] = {
    "DebugLock.name": (
        "assigned in __init__ only; listed because the held-stack bookkeeping "
        "reads it from the owning thread's local stack"
    ),
    "Connection._buffer": (
        "filled and consumed only by the thread that currently owns the "
        "connection (hand-over happens through a SimpleQueue, which orders "
        "the accesses)"
    ),
    "Tracer._local": (
        "a threading.local: the force() flag and the last finished trace "
        "each belong to the thread that wrote them"
    ),
}

#: ``"Class.attr" -> why``: state built in ``__init__`` and never mutated
#: afterwards — published by the constructing thread, read-only to every
#: other thread.  The analyzer flags any post-``__init__`` mutation.
IMMUTABLE_AFTER_INIT: dict[str, str] = {
    "TraceBuilder._node_ids": (
        "the plan-walk ordinal map is frozen at builder construction; worker "
        "threads only read it through node_ordinal()"
    ),
    "WorkStealingQueue._deques": (
        "the deque *list* is frozen after preloading; the deques themselves "
        "are popped only under self._lock inside next_task()"
    ),
}

#: ``"Class.attr" -> why``: racy by construction and documented harmless —
#: single GIL-atomic reference rebinds where the last writer legitimately
#: wins and readers only introspect.
BENIGN_RACES: dict[str, str] = {
    "ProteusEngine.last_plan": (
        "per-query introspection; concurrent queries race to publish and the "
        "last writer wins — callers inspecting it own the engine call"
    ),
    "ProteusEngine.last_generated_source": (
        "same introspection contract as last_plan; one atomic rebind per query"
    ),
    "ProteusEngine.last_profile": (
        "same introspection contract as last_plan; one atomic rebind per query"
    ),
    "WorkerPool.last_dispatched": (
        "written by run() on the coordinating thread before workers start and "
        "after they join; never concurrent with the workers it profiles"
    ),
    "WorkerPool.last_stolen": (
        "written by run() on the coordinating thread before workers start and "
        "after they join; never concurrent with the workers it profiles"
    ),
    "InputPlugin.fault_injector": (
        "installed (one atomic rebind) by the chaos harness before queries "
        "run against the plugin; query threads only read the reference"
    ),
}

#: ``"Class.attr" -> why``: mutable state whose every mutation path runs
#: under some *other* object's lock (the analyzer cannot see that statically,
#: so these are audited suppressions, stale-checked like the rest).
EXTERNALLY_GUARDED: dict[str, str] = {
    "ProteusEngine.cache_manager": (
        "the binding is immutable after __init__; mutating calls "
        "(clear_caches -> CacheManager.clear) are serialized by "
        "CacheManager._lock inside the manager itself"
    ),
    "CacheStatistics.lookups": "mutated only by CacheManager under its _lock",
    "CacheStatistics.hits": "mutated only by CacheManager under its _lock",
    "CacheStatistics.stores": "mutated only by CacheManager under its _lock",
    "CacheStatistics.evictions": "mutated only by CacheManager under its _lock",
    "CacheStatistics.rejected": "mutated only by CacheManager under its _lock",
    "CacheEntry.last_used": (
        "written only by touch() and CacheManager.lookup_many, both under "
        "the CacheManager's _lock"
    ),
    "CacheEntry.hits": (
        "written only by touch() and CacheManager.lookup_many, both under "
        "the CacheManager's _lock"
    ),
    "CacheEntry.priority": (
        "written only by touch() and CacheManager.lookup_many, both under "
        "the CacheManager's _lock"
    ),
    "AdmissionController._active": (
        "mutated only while holding self._condition (a threading.Condition)"
    ),
    "AdmissionController._reserved_bytes": (
        "mutated only while holding self._condition (a threading.Condition)"
    ),
    "AdmissionController._admitted_total": (
        "mutated only while holding self._condition (a threading.Condition)"
    ),
    "AdmissionController._rejected_total": (
        "mutated only while holding self._condition (a threading.Condition)"
    ),
}
