"""Resilience subsystem: deadlines, cancellation, admission control, retry.

The paper's engine executes directly over raw external files, so every query
is exposed to I/O faults, corrupt inputs and unbounded work that a loaded
warehouse never sees.  This package supplies the serving-layer plumbing that
ROADMAP item 1 requires before a multi-client service can exist:

* :class:`QueryContext` — a cooperative deadline + cancellation token
  created once per query in ``engine._execute``, carrying the execution's
  profile to every tier and worker, and observed per batch (batch
  pipeline), per morsel (fan-out) and on a tuple stride (Volcano),
* :class:`AdmissionController` — bounds concurrent queries and reserved
  bytes, queueing within the query's deadline before a coded rejection,
* :func:`retry_io` — exponential-backoff retry for transient raw-data I/O,
  charged against a per-query retry budget,
* :class:`FaultInjector` / :class:`FaultPlan` — a deterministic fault
  harness the chaos suite uses to prove every injected fault terminates in a
  correct result or a coded :class:`~repro.errors.ProteusError`.
"""

from repro.resilience.admission import AdmissionController, AdmissionSlot
from repro.resilience.context import (
    CancellationToken,
    QueryContext,
    activate_context,
    get_active_context,
)
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_io

__all__ = [
    "AdmissionController",
    "AdmissionSlot",
    "CancellationToken",
    "QueryContext",
    "activate_context",
    "get_active_context",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "retry_io",
]
