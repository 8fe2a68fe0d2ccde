"""Work-stealing scheduler of the batch executor's morsel fan-out.

The executor enqueues its work items (morsels of a root pipeline or of a
join build side) into a :class:`WorkStealingQueue`: every worker owns a deque that
is preloaded with a contiguous block of items (sequential ranges keep scans
cache- and readahead-friendly), consumes it front-to-back, and — once its own
deque runs dry — steals from the *back* of the most loaded peer.  Stealing is
what keeps all cores busy when selectivity skew makes some morsels far
cheaper than others.

:class:`WorkerPool` wraps the queue with a thread-per-worker execution model.
Threads (rather than processes) are the right fit here: the heavy lifting —
NumPy slicing, predicate kernels, join probes and sorts — releases the GIL,
and threads share the memory-mapped inputs, the structural indexes and the
materialized join build sides without any serialization.  Results are
returned **in submission order**, which is what makes parallel execution
deterministic: downstream merges see morsel results exactly as the serial
executor would have produced them, regardless of which worker ran what.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Sequence

from repro.core.concurrency import make_lock
from repro.resilience.context import activate_context


class WorkStealingQueue:
    """Per-worker deques with block preloading and back-stealing."""

    def __init__(self, items: Sequence[Any], num_workers: int):
        if num_workers < 1:
            raise ValueError("the queue needs at least one worker")
        self._deques: list[deque] = [deque() for _ in range(num_workers)]
        self._lock = make_lock("WorkStealingQueue._lock")
        self.dispatched = 0
        self.stolen = 0
        # Block distribution: worker w gets the w-th contiguous slice, so a
        # worker's own queue walks the input sequentially.
        total = len(items)
        block = -(-total // num_workers) if total else 0  # ceil
        for worker_id in range(num_workers):
            for position, item in enumerate(
                items[worker_id * block : (worker_id + 1) * block]
            ):
                self._deques[worker_id].append(
                    (worker_id * block + position, item)
                )

    def next_task(self, worker_id: int) -> tuple[int, Any] | None:
        """Pop the next (index, item) for ``worker_id``; ``None`` when every
        deque is empty.  Own work comes from the front; steals come from the
        back of the most loaded victim."""
        with self._lock:
            own = self._deques[worker_id]
            if own:
                self.dispatched += 1
                return own.popleft()
            victim = max(
                (q for q in self._deques if q), key=len, default=None
            )
            if victim is None:
                return None
            self.dispatched += 1
            self.stolen += 1
            return victim.pop()

    @property
    def remaining(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._deques)


class WorkerPool:
    """Execute a task function over items with work-stealing worker threads.

    ``run`` returns results **in item order** (the order-preserving collector
    of the morsel fan-out); the first exception raised by any worker cancels
    the remaining work and is re-raised on the calling thread, so executor
    errors propagate exactly as they do from an inline run.  When several workers fail concurrently the first
    exception is the one raised, with the complete list attached as its
    ``errors`` attribute so no failure vanishes.

    A :class:`~repro.resilience.context.QueryContext` passed to ``run`` is
    observed alongside the error-cancel event: workers stop pulling tasks
    once the deadline/token fires, every thread is still joined, and the
    coded timeout/cancel error is raised on the calling thread after the
    pool has drained cleanly.
    """

    def __init__(self, num_workers: int):
        self.num_workers = max(int(num_workers), 1)
        #: Items handed to a worker / obtained by stealing in the most recent
        #: :meth:`run`, final once it returns or raises (for profiling).
        self.last_dispatched = 0
        self.last_stolen = 0

    def run(
        self,
        items: Sequence[Any],
        task: Callable[[Any, int], Any],
        context: Any = None,
    ) -> list[Any]:
        items = list(items)
        self.last_dispatched = self.last_stolen = 0
        if not items:
            return []
        workers = min(self.num_workers, len(items))
        if workers <= 1:
            serial: list[Any] = []
            for item in items:
                if context is not None:
                    context.check()
                self.last_dispatched += 1
                serial.append(task(item, 0))
            return serial
        queue = WorkStealingQueue(items, workers)
        results: list[Any] = [None] * len(items)
        errors: list[BaseException] = []
        cancel = threading.Event()

        def work(worker_id: int) -> None:
            # Re-publish the query context on this worker thread so plugin
            # I/O (retry budget) and nested checks can find it.
            with activate_context(context):
                while not cancel.is_set():
                    if context is not None and context.should_stop():
                        return
                    entry = queue.next_task(worker_id)
                    if entry is None:
                        return
                    index, item = entry
                    try:
                        results[index] = task(item, worker_id)
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        errors.append(exc)  # list.append is atomic
                        cancel.set()
                        return

        threads = [
            threading.Thread(
                target=work, args=(worker_id,), name=f"proteus-worker-{worker_id}",
                daemon=True,
            )
            for worker_id in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.last_dispatched = queue.dispatched
        self.last_stolen = queue.stolen
        if errors:
            primary = errors[0]
            # Concurrent failures from other workers must not vanish: attach
            # the full list (primary included) to the exception we raise.
            primary.errors = list(errors)  # type: ignore[attr-defined]
            raise primary
        if context is not None:
            # Workers drained early because the deadline/token fired while
            # no task was raising; surface the coded error here.
            context.check()
        return results
