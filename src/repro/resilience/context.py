"""Cooperative per-query context: deadline, cancellation token, profile.

A :class:`QueryContext` is created once per query in ``engine._execute`` and
threaded through every execution tier.  Cancellation is *cooperative*: no
thread is ever killed.  Instead each tier calls :meth:`QueryContext.check` at
a natural unit of work — once per scan batch in the batch pipeline
(each generated driver), per morsel in the fan-out scheduler (where
workers also observe :meth:`should_stop` alongside the error-cancel event so
pool teardown drains cleanly) and every :data:`VOLCANO_STRIDE` tuples in the
Volcano interpreter — and the check raises a coded
:class:`~repro.errors.QueryTimeoutError` / :class:`~repro.errors.QueryCancelledError`
on the worker where the work is happening.

The context keeps no ledger of its own: it carries the execution's
:class:`~repro.core.profile.ExecutionProfile`, which the tiers write as they
work — each morsel worker merges its own counters into it through
:meth:`QueryContext.merge`, under the context's lock.  The per-query I/O
retry budget that :func:`repro.resilience.retry.retry_io` consumes is
charged to the profile's ``io_retries`` the same way.  When a query aborts,
the engine marks that same profile, so callers see how far it got.

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
    from repro.core.profile import ExecutionCounters, ExecutionProfile

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
    """Deadline + cancellation token + the profile of one query.

    The deadline and token are fixed at construction (immutable afterwards);
    the context itself mutates the profile only under ``_lock`` (a morsel's
    counters, a retry).  :meth:`check` is the hot path — two attribute tests
    when the context is passive — so a default-configured engine pays
    nothing measurable for always-on resilience (the overhead gate of
    ``benchmarks/run_all.py`` bounds a configured deadline too).
    """

    def __init__(
        self,
        profile: "ExecutionProfile",
        *,
        timeout_seconds: float | None = None,
        token: CancellationToken | None = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ) -> None:
        self.timeout_seconds = timeout_seconds
        self.deadline = (
            time.monotonic() + timeout_seconds if timeout_seconds is not None else None
        )
        self.token = token
        self.retry_budget = max(int(retry_budget), 0)
        #: The execution's one ledger (see :mod:`repro.core.profile`).
        self.profile = profile
        self._lock = make_lock("QueryContext._lock")

    # ------------------------------------------------------------------ state

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

    # ----------------------------------------------------------------- ledger

    def merge(self, counters: "ExecutionCounters") -> None:
        """Fold one morsel's counters into the profile (any worker thread)."""
        with self._lock:
            self.profile.merge(counters)

    def consume_retry(self) -> bool:
        """Charge one transient-I/O retry; False once the budget is spent."""
        with self._lock:
            if self.profile.io_retries >= self.retry_budget:
                return False
            self.profile.io_retries += 1
            return True


_ACTIVE = threading.local()


def get_active_context() -> QueryContext | None:
    """The context of the query running on this thread, if any."""
    return getattr(_ACTIVE, "context", None)


def swap_context(context: QueryContext | None) -> QueryContext | None:
    """Publish ``context`` as this thread's active query context; returns
    the one it replaces, which the caller publishes back when it is done
    (:func:`activate_context` is the ``with`` form)."""
    previous = getattr(_ACTIVE, "context", None)
    _ACTIVE.context = context
    return previous


@contextmanager
def activate_context(context: QueryContext | None) -> Iterator[QueryContext | None]:
    """Publish ``context`` as this thread's active query context.

    The engine activates on the calling thread; :class:`WorkerPool` activates
    on each worker thread, so plugin I/O reached from any tier can find the
    per-query retry budget without new parameters on every call path.
    """
    previous = swap_context(context)
    try:
        yield context
    finally:
        _ACTIVE.context = previous
