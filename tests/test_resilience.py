"""Resilience subsystem: deadlines, cancellation, admission control, the
worker pool's failure semantics and the DebugLock acquire fix.

The fault-injection chaos coverage lives in ``test_chaos.py``; this module
covers the deterministic behaviours — a zero deadline aborts every tier at
its first check, cancellation interrupts mid-flight work, admission bounds
concurrency and memory, failures land in the metrics registry, and no worker
thread outlives an aborted query.
"""

from __future__ import annotations

import threading
import time

import pytest

from tests.conftest import FANOUT_BATCH_SIZE, make_engine
from repro.errors import (
    AdmissionRejectedError,
    MemoryBudgetError,
    ProteusError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.resilience import (
    AdmissionController,
    CancellationToken,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.resilience import admission as admission_module
from repro.resilience import context as context_module
from repro.serve.mapping import engine_error_response
from repro.storage.catalog import DataFormat

#: Engine configurations that pin each of the two execution tiers (the
#: codegen tier inline in one batch, inline over two-row batches and fanned
#: out over morsels).
TIER_CONFIGS = {
    "codegen": {},
    "codegen-batched": {"vectorized_batch_size": FANOUT_BATCH_SIZE},
    "codegen-fanout": {
        "parallel_workers": 2,
        "vectorized_batch_size": FANOUT_BATCH_SIZE,
    },
    "volcano": {"enable_codegen": False},
}


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
def test_zero_timeout_aborts_every_tier(paths, tier, monkeypatch):
    """``timeout=0`` expires at the first cooperative check of every tier:
    per morsel and per batch (the batch pipeline, fanned out and inline), per
    stride (volcano, checking every tuple here)."""
    monkeypatch.setattr(context_module, "VOLCANO_STRIDE", 1)
    engine = make_engine(paths, enable_caching=False, **TIER_CONFIGS[tier])
    with pytest.raises(QueryTimeoutError) as info:
        engine.query("select sum(price) from items_csv where qty > 1", timeout=0)
    assert "[RES001]" in str(info.value)
    profile = engine.last_profile
    assert profile.execution_tier == "aborted"
    assert profile.aborted == "RES001"


def test_engine_default_timeout_applies(paths):
    engine = make_engine(paths, query_timeout_seconds=0, enable_caching=False)
    with pytest.raises(QueryTimeoutError):
        engine.query("select id from items_csv")
    # A per-call timeout overrides the engine default.
    result = engine.query("select count(*) from items_csv", timeout=30.0)
    assert result.rows == [(120,)]


def test_timeout_is_not_a_tier_demotion(paths):
    """A deadline on the codegen tier must surface as RES001 — never be
    retried on a lower tier (which would turn a 0s deadline into a
    successful slow query)."""
    engine = make_engine(paths, enable_caching=False)
    with pytest.raises(QueryTimeoutError):
        engine.query("select sum(price) from items_csv", timeout=0)
    reasons = engine.last_profile.tier_decline_reasons
    assert all("TIER009" not in reason for reason in reasons.values())


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_parallel_timeout_differential(paths, workers):
    """The coded abort is identical at every worker count, and so is the
    successful result — the resilience checks must not perturb the parallel
    tier's deterministic merge."""
    engine = make_engine(
        paths,
        enable_caching=False,
        parallel_workers=workers,
        vectorized_batch_size=FANOUT_BATCH_SIZE,
    )
    with pytest.raises(QueryTimeoutError):
        engine.query("select sum(price) from items_bin where qty > 1", timeout=0)
    assert engine.last_profile.aborted == "RES001"
    result = engine.query("select sum(price) from items_bin where qty > 1")
    assert result.rows == [
        (sum(i * 1.5 for i in range(120) if i % 10 > 1),)
    ]


def test_no_leaked_worker_threads_after_abort(paths):
    engine = make_engine(
        paths,
        enable_caching=False,
        parallel_workers=4,
        vectorized_batch_size=FANOUT_BATCH_SIZE,
    )
    with pytest.raises(QueryTimeoutError):
        engine.query("select sum(price) from items_bin", timeout=0)
    # WorkerPool.run joins every thread before re-raising, so nothing named
    # proteus-worker-* may survive the abort.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("proteus-worker")
        ]
        if not leaked:
            break
        time.sleep(0.01)
    assert leaked == []


def test_volcano_stride_bounds_check_latency(paths, monkeypatch):
    """The Volcano tier checks every ``VOLCANO_STRIDE`` tuples, so an
    expired deadline is noticed within one stride of scan progress."""
    monkeypatch.setattr(context_module, "VOLCANO_STRIDE", 10)
    engine = make_engine(
        paths, enable_codegen=False, enable_caching=False
    )
    with pytest.raises(QueryTimeoutError):
        engine.query("select id from items_csv", timeout=0)
    assert engine.last_profile.partial_progress["rows"] == 10


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def test_precancelled_token_aborts_immediately(paths):
    engine = make_engine(paths, enable_caching=False)
    token = CancellationToken()
    token.cancel()
    with pytest.raises(QueryCancelledError) as info:
        engine.query("select id from items_csv", cancel=token)
    assert "[RES002]" in str(info.value)
    assert engine.last_profile.aborted == "RES002"


def test_cancellation_interrupts_mid_query(paths):
    """Cancel deterministically *between* batches: a scripted slow fault's
    sleep hook trips the token, so the very next per-batch check aborts with
    partial progress already recorded."""
    token = CancellationToken()
    injector = FaultInjector(
        FaultPlan([FaultSpec(kind="slow", at_call=3, delay_seconds=0.0)]),
        sleep=lambda seconds: token.cancel(),
    )
    engine = make_engine(
        paths, enable_caching=False, vectorized_batch_size=16
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    with pytest.raises(QueryCancelledError):
        engine.query("select sum(price) from items_csv", cancel=token)
    assert engine.last_profile.aborted == "RES002"
    assert engine.last_profile.partial_progress.get("batches", 0) >= 1
    # The token is sticky: re-running with it still aborts; a fresh execution
    # without it completes.
    with pytest.raises(QueryCancelledError):
        engine.query("select sum(price) from items_csv", cancel=token)
    assert engine.query("select count(*) from items_csv").rows == [(120,)]


@pytest.mark.parametrize("workers", [1, 2])
def test_abort_profile_is_the_execution_ledger(paths, workers):
    """One ledger: the profile a cancelled execution carries is the one its
    scans counted into — inline, and with the group-by fanned out over
    16-row morsels, where each morsel merges its counters when it ends — so
    its counters and its ``partial_progress`` agree."""
    query = "select qty, count(*) as n from items_csv group by qty"
    engine = make_engine(
        paths,
        enable_caching=False,
        parallel_workers=workers,
        vectorized_batch_size=16,
    )
    completed = engine.query(query).profile
    assert (completed.morsels_dispatched > 0) == (workers > 1)
    assert completed.batches_processed == 8 and completed.rows_scanned == 120
    token = CancellationToken()
    injector = FaultInjector(
        FaultPlan([FaultSpec(kind="slow", at_call=3, delay_seconds=0.0)]),
        sleep=lambda seconds: token.cancel(),
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    with pytest.raises(QueryCancelledError) as info:
        engine.query(query, cancel=token)
    profile = info.value.profile
    assert profile is engine.last_profile
    assert profile.execution_tier == "aborted" and profile.aborted == "RES002"
    progress = profile.partial_progress
    assert profile.batches_processed == progress["batches"] >= 1
    assert profile.rows_scanned == progress["rows"]
    assert 0 < progress["rows"] <= 16 * progress["batches"]
    assert progress["batches"] < completed.batches_processed
    assert progress["morsels"] == profile.morsels_dispatched


def test_cancellation_from_another_thread(paths):
    """The documented client pattern: a second thread trips the token while
    the query is scanning (persistent slow faults keep the scan busy long
    enough for the cancel to land mid-flight)."""
    token = CancellationToken()
    scanning = threading.Event()

    def slow_sleep(seconds: float) -> None:
        scanning.set()
        time.sleep(seconds)

    injector = FaultInjector(
        FaultPlan(
            [
                FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=0.02)
                for call in range(1, 9)
            ]
        ),
        sleep=slow_sleep,
    )
    engine = make_engine(
        paths, enable_caching=False, vectorized_batch_size=16
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)

    def canceller() -> None:
        scanning.wait(5.0)
        token.cancel()

    thread = threading.Thread(target=canceller)
    thread.start()
    try:
        with pytest.raises(QueryCancelledError):
            engine.query("select sum(price) from items_csv", cancel=token)
    finally:
        thread.join(5.0)
    assert engine.last_profile.aborted == "RES002"


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def test_admission_controller_concurrency_bound(monkeypatch):
    controller = AdmissionController(max_concurrent=1)
    slot = controller.admit()
    assert controller.active == 1
    # The caller's deadline bounds the queue wait ...
    with pytest.raises(AdmissionRejectedError) as info:
        controller.admit(deadline=time.monotonic() + 0.05)
    assert "[RES003]" in str(info.value)
    # ... and so does the cap, for a caller without one.
    monkeypatch.setattr(admission_module, "MAX_QUEUE_SECONDS", 0.05)
    with pytest.raises(AdmissionRejectedError):
        controller.admit()
    slot.release()
    slot.release()  # idempotent
    second = controller.admit()
    second.release()
    assert controller.active == 0
    assert controller.admitted_total == 2
    assert controller.rejected_total == 2


def test_admission_controller_memory_budget():
    controller = AdmissionController(memory_budget_bytes=1024)
    # Larger than the whole budget: queueing can never help, reject at once.
    with pytest.raises(MemoryBudgetError) as info:
        controller.admit(estimated_bytes=4096)
    assert "[RES004]" in str(info.value)
    slot = controller.admit(estimated_bytes=800)
    assert controller.reserved_bytes == 800
    # Fits the budget but not the current headroom: queue, then reject.
    with pytest.raises(AdmissionRejectedError):
        controller.admit(estimated_bytes=800, deadline=time.monotonic() + 0.01)
    slot.release()
    assert controller.reserved_bytes == 0
    controller.admit(estimated_bytes=800).release()


def test_admission_queueing_admits_when_slot_frees():
    controller = AdmissionController(max_concurrent=1)
    slot = controller.admit()
    admitted = []

    def waiter() -> None:
        second = controller.admit()
        admitted.append(second)
        second.release()

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)  # let the waiter queue up on the condition
    slot.release()
    thread.join(5.0)
    assert len(admitted) == 1
    assert controller.rejected_total == 0


def test_engine_admission_rejects_when_full(paths):
    """End-to-end: while one query holds the engine's single admission slot
    (parked inside a scripted slow fault), a second query is rejected with
    RES003 — and admission recovers once the first query finishes."""
    engine = make_engine(
        paths, max_concurrent_queries=1, enable_caching=False
    )
    entered = threading.Event()
    release = threading.Event()

    def parked_sleep(seconds: float) -> None:
        entered.set()
        release.wait(10.0)

    injector = FaultInjector(
        FaultPlan([FaultSpec(kind="slow", at_call=1, delay_seconds=0.01)]),
        sleep=parked_sleep,
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    failures: list[BaseException] = []

    def holder() -> None:
        try:
            engine.query("select sum(price) from items_csv")
        except BaseException as exc:  # pragma: no cover - surfaced by assert
            failures.append(exc)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert entered.wait(10.0)
        with pytest.raises(AdmissionRejectedError):
            engine.query("select count(*) from items_csv", timeout=0.05)
        assert engine.admission.rejected_total == 1
    finally:
        release.set()
        thread.join(10.0)
    assert failures == []
    # The holder's slot was released in the engine's finally: admitted again.
    assert engine.query("select count(*) from items_csv").rows == [(120,)]


def test_admission_queue_honours_the_query_deadline(paths):
    """A query queues for a slot no longer than its own deadline: with the
    only slot held, a 0.05 s query is refused with RES003 well before the
    queue cap runs out."""
    engine = make_engine(paths, max_concurrent_queries=1, enable_caching=False)
    slot = engine.admission.admit()
    try:
        started = time.monotonic()
        with pytest.raises(AdmissionRejectedError) as info:
            engine.query("select count(*) from items_csv", timeout=0.05)
        elapsed = time.monotonic() - started
    finally:
        slot.release()
    assert "[RES003]" in str(info.value)
    assert elapsed < 0.5


@pytest.mark.parametrize(
    ("limits", "error", "status"),
    [
        ({"max_concurrent_queries": 1}, AdmissionRejectedError, 429),
        ({"query_memory_budget_bytes": 8}, MemoryBudgetError, 503),
    ],
)
def test_admission_refusal_takes_the_one_abort_path(paths, limits, error, status):
    """A query admission refuses (RES003 full, RES004 never fits) fails like
    any aborted execution: its one profile is marked, attached to the error
    and published as ``last_profile``, so the HTTP body carries it too."""
    engine = make_engine(paths, enable_caching=False, **limits)
    engine.analyze("items_csv")  # the memory estimate needs a cardinality
    slot = engine.admission.admit() if "max_concurrent_queries" in limits else None
    try:
        with pytest.raises(error) as info:
            engine.query("select count(*) from items_csv", timeout=0.05)
    finally:
        if slot is not None:
            slot.release()
    code = info.value.code
    profile = info.value.profile
    assert profile is engine.last_profile
    assert profile.execution_tier == "aborted" and profile.aborted == code
    assert profile.partial_progress == {"batches": 0, "rows": 0, "morsels": 0}
    mapped, body = engine_error_response(info.value)
    assert mapped == status
    assert body["profile"]["aborted"] == code
    assert body["partial_progress"] == profile.partial_progress


# ---------------------------------------------------------------------------
# Failure metrics (satellite: queries_failed by code, failures in latency)
# ---------------------------------------------------------------------------


def test_failed_queries_counted_by_code(paths):
    engine = make_engine(paths, enable_caching=False, slow_query_seconds=0.0)
    with pytest.raises(QueryTimeoutError):
        engine.query("select id from items_csv", timeout=0)
    failed = engine.metrics.counter("proteus_queries_failed_total")
    assert failed.value(code="RES001") == 1.0
    # Failed queries spent wall-clock too: they land in the latency histogram
    # and (a query that burned its deadline is slow by definition) the log.
    histogram = engine.metrics.histogram("proteus_query_seconds")
    assert histogram.to_dict()["count"] >= 1
    entries = engine.metrics.slow_queries()
    assert any(
        entry.get("tier") == "aborted" and "RES001" in entry.get("error", "")
        for entry in entries
    )


def test_prepare_failures_are_counted(paths):
    engine = make_engine(paths, enable_caching=False)
    with pytest.raises(ProteusError):
        engine.prepare("select nosuch_column from items_csv")
    failed = engine.metrics.counter("proteus_queries_failed_total")
    assert sum(value for _, value in failed.samples()) >= 1.0


def test_trace_marks_aborted_queries(paths):
    engine = make_engine(paths, enable_caching=False, enable_tracing=True)
    with pytest.raises(QueryTimeoutError):
        engine.query("select id from items_csv", timeout=0)
    trace = engine.tracer.last()
    assert trace is not None
    assert trace.aborted == "RES001"
    assert trace.to_dict()["aborted"] == "RES001"
    engine.query("select count(*) from items_csv")
    assert engine.tracer.last().aborted is None


def test_io_retries_recorded_in_profile_and_metrics(paths):
    engine = make_engine(paths, enable_caching=False)
    injector = FaultInjector(
        FaultPlan([FaultSpec(kind="io-error", at_call=1)]), sleep=lambda s: None
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    result = engine.query("select sum(price) from items_csv")
    assert result.rows == [(sum(i * 1.5 for i in range(120)),)]
    assert engine.last_profile.io_retries == 1
    retries = engine.metrics.counter("proteus_io_retries_total")
    assert retries.value() == 1.0


# ---------------------------------------------------------------------------
# WorkerPool failure semantics (satellite: no swallowed concurrent errors)
# ---------------------------------------------------------------------------


def test_worker_pool_attaches_all_concurrent_failures():
    from repro.core.parallel.scheduler import WorkerPool

    pool = WorkerPool(4)
    barrier = threading.Barrier(4, timeout=5.0)

    def failing_task(item: int, worker_id: int) -> None:
        barrier.wait()  # make all four workers fail concurrently
        raise ValueError(f"boom-{item}")

    with pytest.raises(ValueError) as info:
        pool.run(list(range(4)), failing_task)
    attached = info.value.errors
    assert len(attached) == 4
    assert info.value in attached
    assert {str(exc) for exc in attached} == {f"boom-{i}" for i in range(4)}


def test_worker_pool_single_failure_still_plain():
    from repro.core.parallel.scheduler import WorkerPool

    pool = WorkerPool(2)

    def failing_task(item: int, worker_id: int) -> int:
        if item == 3:
            raise ValueError("boom-3")
        return item

    with pytest.raises(ValueError) as info:
        pool.run(list(range(8)), failing_task)
    assert str(info.value) == "boom-3"
    assert info.value in info.value.errors


# ---------------------------------------------------------------------------
# DebugLock acquire semantics (satellite: failed acquire leaves no trace)
# ---------------------------------------------------------------------------


def test_debug_lock_failed_acquire_leaves_no_trace():
    from repro.core.concurrency import DebugLock, global_lock_graph

    outer = DebugLock("test_resilience.outer")
    contended = DebugLock("test_resilience.contended")
    acquired = threading.Event()
    release = threading.Event()

    def holder() -> None:
        contended.acquire()
        acquired.set()
        release.wait(10.0)
        contended.release()

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert acquired.wait(10.0)
        with outer:
            assert contended.acquire(blocking=False) is False
            assert contended.acquire(timeout=0.01) is False
        # No held-edge may be recorded for an acquisition that never held
        # the lock (the old bug recorded outer -> contended here, poisoning
        # the lock-order graph with edges that never existed).
        edges = global_lock_graph().edges()
        assert "test_resilience.contended" not in edges.get(
            "test_resilience.outer", set()
        )
    finally:
        release.set()
        thread.join(10.0)
    # ... and no phantom held-stack entry: a later blocking acquire by this
    # thread must not be mistaken for re-entry.
    assert contended.acquire() is True
    contended.release()
