"""Cooperative per-query context: deadline, cancellation token, progress.

A :class:`QueryContext` is created once per query in ``engine._execute`` and
threaded through every execution tier.  Cancellation is *cooperative*: no
thread is ever killed.  Instead each tier calls :meth:`QueryContext.check` at
a natural unit of work — once per batch in the batch pipeline (through
:meth:`QueryContext.note_batch`, the one context call of
``CompiledPipeline.process``, which also records progress), per morsel in
the fan-out scheduler (where workers also observe :meth:`should_stop`
alongside the error-cancel event so pool teardown drains cleanly) and every
:data:`VOLCANO_STRIDE` tuples in the Volcano interpreter — and the check
raises a coded
:class:`~repro.errors.QueryTimeoutError` / :class:`~repro.errors.QueryCancelledError`
on the worker where the work is happening.

The context also carries the per-query I/O retry budget consumed by
:func:`repro.resilience.retry.retry_io` and a progress ledger (batches, rows,
morsels, Volcano tuples) that the engine copies into the profile when a query
is aborted, so callers can see how far it got.

Because plugins are reached from every tier and from pool worker threads,
the active context travels in a ``threading.local`` slot: the engine (and
each pool worker) wraps execution in :func:`activate_context`, and the plugin
I/O layer recovers it with :func:`get_active_context`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.core.concurrency import make_lock
from repro.errors import QueryCancelledError, QueryTimeoutError

if TYPE_CHECKING:
    from repro.resilience.retry import RetryPolicy

#: Tuples between deadline checks in the Volcano interpreter (read by each
#: ``VolcanoExecutor`` when it is constructed).
VOLCANO_STRIDE = 1024
#: Transient-I/O retries a single query may consume across all its scans.
DEFAULT_RETRY_BUDGET = 16


class CancellationToken:
    """A thread-safe flag a client sets to cancel an in-flight query.

    Tokens are handed to ``execute(..., cancel=token)`` and may be shared by
    several queries; ``cancel()`` can be called from any thread, any number
    of times.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class QueryContext:
    """Deadline + cancellation token + progress ledger for one query.

    The deadline and token are fixed at construction (immutable afterwards);
    only the progress ledger and retry counter mutate, always under
    ``_lock``.  :meth:`check` is the hot path — two attribute tests when the
    context is passive — so a default-configured engine pays nothing
    measurable for always-on resilience (the overhead gate of
    ``benchmarks/run_all.py`` bounds a configured deadline too).
    """

    def __init__(
        self,
        *,
        timeout_seconds: float | None = None,
        token: CancellationToken | None = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        retry_policy: "RetryPolicy | None" = None,
    ) -> None:
        self.timeout_seconds = timeout_seconds
        self.deadline = (
            time.monotonic() + timeout_seconds if timeout_seconds is not None else None
        )
        self.token = token
        self.retry_budget = max(int(retry_budget), 0)
        self.retry_policy = retry_policy
        self._lock = make_lock("QueryContext._lock")
        self._io_retries = 0
        self._progress: dict[str, int] = {}

    # ------------------------------------------------------------------ state

    @property
    def active(self) -> bool:
        """True when a deadline or a cancellation token is attached."""
        return self.deadline is not None or self.token is not None

    def should_stop(self) -> bool:
        """Non-raising probe used in pool worker loops."""
        token = self.token
        if token is not None and token.cancelled:
            return True
        deadline = self.deadline
        return deadline is not None and time.monotonic() >= deadline

    def check(self) -> None:
        """Raise the coded error if the query must stop; otherwise no-op."""
        token = self.token
        if token is not None and token.cancelled:
            raise QueryCancelledError("query cancelled by client token")
        deadline = self.deadline
        if deadline is not None and time.monotonic() >= deadline:
            raise QueryTimeoutError(
                f"query deadline of {self.timeout_seconds}s expired",
                timeout_seconds=self.timeout_seconds,
            )

    # --------------------------------------------------------------- progress

    def count(self, key: str, amount: int = 1) -> None:
        """Accumulate a partial-progress counter (thread-safe)."""
        with self._lock:
            self._progress[key] = self._progress.get(key, 0) + amount

    def note_batch(self, rows: int) -> None:
        """The batch pipeline's one call per scan batch: check, then count
        the batch and its rows."""
        self.check()
        with self._lock:
            self._progress["batches"] = self._progress.get("batches", 0) + 1
            self._progress["rows"] = self._progress.get("rows", 0) + rows

    def progress_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._progress)

    # ------------------------------------------------------------ retry budget

    def consume_retry(self) -> bool:
        """Charge one transient-I/O retry; False once the budget is spent."""
        with self._lock:
            if self._io_retries >= self.retry_budget:
                return False
            self._io_retries += 1
            return True

    @property
    def io_retries(self) -> int:
        with self._lock:
            return self._io_retries


_ACTIVE = threading.local()


def get_active_context() -> QueryContext | None:
    """The context of the query running on this thread, if any."""
    return getattr(_ACTIVE, "context", None)


@contextmanager
def activate_context(context: QueryContext | None) -> Iterator[QueryContext | None]:
    """Publish ``context`` as this thread's active query context.

    The engine activates on the calling thread; :class:`WorkerPool` activates
    on each worker thread, so plugin I/O reached from any tier can find the
    per-query retry budget without new parameters on every call path.
    """
    previous = getattr(_ACTIVE, "context", None)
    _ACTIVE.context = context
    try:
        yield context
    finally:
        _ACTIVE.context = previous
