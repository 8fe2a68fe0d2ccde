"""Morsel fan-out driver of the batch executor.

:class:`repro.core.executor.vectorized.VectorizedExecutor` opens one
pipeline from its shape's program and takes one root task per query; when
:func:`repro.core.parallel.morsels.plan_fanout` splits the driving scan (or a
join build side's scan) into morsels, it hands them to this driver instead
of running the scan inline:

* every worker of the work-stealing pool runs the executor's per-morsel
  function over whichever morsels it obtains — the **same** immutable
  pipeline object and root task serve all of them, batch-native unnest
  stages and join probes included,
* partial results come back in **morsel index order** (the pool's
  order-preserving collector), never in completion or worker order, so the
  executor's merges are deterministic: repeated runs return identical rows,
  and for integer data the rows are bit-identical to an inline run.
  (Floating-point sums may differ from an inline run in the last ulp because
  addition is reassociated across morsels; they remain deterministic
  run-to-run.)

A join's table is built on the calling thread in one O(N) pass over the
materialized build side (a ``bincount`` over a dense key range, one stable
sort otherwise); only the scan feeding the build side fans out.

The driver writes its own part of the execution's profile (the
:class:`~repro.resilience.context.QueryContext` carries it):
``parallel_workers``, ``morsels_dispatched`` and ``morsels_stolen``, once the
pool has drained — also when a morsel failed or the query was aborted, so
an abort's ``partial_progress`` counts the morsels handed out.  The
counters of the work inside a morsel are the worker's to merge.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.parallel.morsels import Morsel
from repro.core.parallel.scheduler import WorkerPool
from repro.resilience.context import QueryContext


class ParallelVectorizedExecutor:
    """Runs one batch-executor fan-out over a work-stealing worker pool."""

    def __init__(self, num_workers: int, context: QueryContext):
        self.num_workers = max(int(num_workers), 1)
        #: Per-query resilience context: the pool observes its token next to
        #: the error-cancel event so teardown drains cleanly, and its profile
        #: takes the dispatch counters.
        self.context = context
        self._pool = WorkerPool(self.num_workers)

    def execute(
        self, morsels: Sequence[Morsel], run_morsel: Callable[[Morsel, int], Any]
    ) -> list[Any]:
        """Run ``run_morsel(morsel, worker_id)`` over every morsel on the
        pool; results are returned in morsel order.  The first worker failure
        cancels the remaining morsels and is re-raised here."""
        pool = self._pool
        try:
            return pool.run(morsels, run_morsel, context=self.context)
        finally:
            profile = self.context.profile
            profile.parallel_workers = self.num_workers
            profile.morsels_dispatched += pool.last_dispatched
            profile.morsels_stolen += pool.last_stolen
