"""Morsel fan-out subsystem of the batch executor.

:func:`plan_fanout` decides — from the worker count, the driving scan's row
count in whole morsels and whether the root groups — whether a compiled batch
pipeline runs inline or is split into one-batch morsels; the
:class:`ParallelVectorizedExecutor` driver then dispatches the morsels to a
pool of worker threads through a work-stealing queue and returns the
per-morsel partial results in morsel order, so the executor's merges stay
deterministic.  See :mod:`repro.core.parallel.executor` for the execution
model and :mod:`repro.core.parallel.scheduler` for the scheduling model.
"""

from repro.core.parallel.executor import ParallelVectorizedExecutor
from repro.core.parallel.morsels import Morsel, plan_fanout, plan_morsels
from repro.core.parallel.scheduler import WorkerPool, WorkStealingQueue

__all__ = [
    "Morsel",
    "ParallelVectorizedExecutor",
    "WorkStealingQueue",
    "WorkerPool",
    "plan_fanout",
    "plan_morsels",
]
