"""Admission control: bound concurrent queries and reserved bytes.

Motivated by the workload-isolation half of the serving story (ROADMAP item
1): a query is *admitted* before execution, reserving a slot and an
estimated number of bytes against the engine's memory budget, and releases
both in a ``finally`` when it completes or fails.  When the controller is
full, new arrivals queue on a condition variable until the query's own
deadline or :data:`MAX_QUEUE_SECONDS`, whichever comes first; past that they
are rejected with a coded :class:`~repro.errors.AdmissionRejectedError`
(RES003).  An estimate that could *never* fit the byte budget is rejected
immediately with :class:`~repro.errors.MemoryBudgetError` (RES004) — waiting
would not help.

Synchronisation: every mutable field is touched only while holding
``_condition`` (a :class:`threading.Condition`), declared EXTERNALLY_GUARDED
in :mod:`repro.core.concurrency` because the lint recognises lock factories,
not condition variables.
"""

from __future__ import annotations

import threading
import time

from repro.errors import AdmissionRejectedError, MemoryBudgetError

#: Longest a query waits for a slot, even when its deadline is further away
#: (or it has none).
MAX_QUEUE_SECONDS = 5.0


class AdmissionSlot:
    """A granted admission: releases its slot + byte reservation once."""

    __slots__ = ("_controller", "reserved_bytes", "_released")

    def __init__(self, controller: "AdmissionController", reserved_bytes: int):
        self._controller = controller
        self.reserved_bytes = reserved_bytes
        self._released = False

    def release(self) -> None:
        """Idempotent: the engine calls this in a ``finally``."""
        if self._released:
            return
        self._released = True
        self._controller._release(self)


class AdmissionController:
    """Max-concurrency + byte-budget gate in front of ``engine._execute``."""

    def __init__(
        self,
        *,
        max_concurrent: int | None = None,
        memory_budget_bytes: int | None = None,
    ):
        self.max_concurrent = max_concurrent
        self.memory_budget_bytes = memory_budget_bytes
        self._condition = threading.Condition()
        self._active = 0
        self._reserved_bytes = 0
        self._admitted_total = 0
        self._rejected_total = 0

    # ---------------------------------------------------------------- admit

    def admit(
        self, estimated_bytes: int = 0, deadline: float | None = None
    ) -> AdmissionSlot:
        """Grant a slot, queueing until ``deadline`` (a ``time.monotonic()``
        instant, the query's own) or :data:`MAX_QUEUE_SECONDS` from now,
        whichever comes first; raise RES003/RES004."""
        estimated = max(int(estimated_bytes), 0)
        budget = self.memory_budget_bytes
        if budget is not None and estimated > budget:
            with self._condition:
                self._rejected_total += 1
            raise MemoryBudgetError(
                f"query needs an estimated {estimated} bytes but the "
                f"admission byte budget is {budget}"
            )
        started = time.monotonic()
        give_up = started + MAX_QUEUE_SECONDS
        if deadline is not None:
            give_up = min(give_up, deadline)
        with self._condition:
            while not self._fits(estimated):
                remaining = give_up - time.monotonic()
                if remaining <= 0:
                    self._rejected_total += 1
                    raise AdmissionRejectedError(
                        "admission queue timed out after "
                        f"{max(give_up - started, 0.0):.3g}s "
                        f"({self._active} active, "
                        f"{self._reserved_bytes} bytes reserved)"
                    )
                self._condition.wait(remaining)
            self._active += 1
            self._reserved_bytes += estimated
            self._admitted_total += 1
        return AdmissionSlot(self, estimated)

    def _fits(self, estimated: int) -> bool:
        if self.max_concurrent is not None and self._active >= self.max_concurrent:
            return False
        budget = self.memory_budget_bytes
        if budget is not None and self._reserved_bytes + estimated > budget:
            return False
        return True

    def _release(self, slot: AdmissionSlot) -> None:
        with self._condition:
            self._active -= 1
            self._reserved_bytes -= slot.reserved_bytes
            self._condition.notify_all()

    # ------------------------------------------------------------- snapshots

    @property
    def active(self) -> int:
        with self._condition:
            return self._active

    @property
    def reserved_bytes(self) -> int:
        with self._condition:
            return self._reserved_bytes

    @property
    def admitted_total(self) -> int:
        with self._condition:
            return self._admitted_total

    @property
    def rejected_total(self) -> int:
        with self._condition:
            return self._rejected_total
