"""Concurrency correctness: the static lint (seeded violations + the real
repo), the runtime DebugLock sanitizer, and engine-level races — concurrent
``prepare()`` / ``query()`` from many threads against the shared prepared
cache, codegen program cache and cache manager."""

from __future__ import annotations

import json
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import ProteusEngine
from repro.core.concurrency import (
    DebugLock,
    LockOrderError,
    assert_lock_order_acyclic,
    debug_locks_enabled,
    global_lock_graph,
    make_lock,
    make_rlock,
    reset_lock_order,
    run_concurrently,
    set_debug_locks,
    switch_interval,
)
from repro.core.profile import ExecutionCounters, ExecutionProfile
from repro.resilience.context import QueryContext

from tests.conftest import ITEMS_SCHEMA, expected_items, make_engine
from tests.test_unnest import ORDERS_SCHEMA, expected_orders

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import concurrency_lint  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def debug_locks():
    """Enable DebugLock for the test, restoring state and graph after."""
    previous = debug_locks_enabled()
    reset_lock_order()
    set_debug_locks(True)
    yield
    set_debug_locks(previous)
    reset_lock_order()


# ---------------------------------------------------------------------------
# Runtime sanitizer: DebugLock + lock-order graph
# ---------------------------------------------------------------------------


def test_make_lock_is_plain_lock_when_disabled():
    previous = debug_locks_enabled()
    set_debug_locks(False)
    try:
        lock = make_lock("Test.disabled")
        assert not isinstance(lock, DebugLock)
        with lock:
            pass
    finally:
        set_debug_locks(previous)


def test_make_lock_is_debug_lock_when_enabled(debug_locks):
    lock = make_lock("Test.enabled")
    assert isinstance(lock, DebugLock)
    with lock:
        pass


def test_debug_lock_rejects_reentry(debug_locks):
    lock = make_lock("Test.reentry")
    with lock:
        with pytest.raises(LockOrderError, match="re-ent|already held"):
            lock.acquire()


def test_debug_rlock_allows_reentry(debug_locks):
    lock = make_rlock("Test.rlock")
    with lock:
        with lock:
            pass


def test_lock_order_cycle_detected(debug_locks):
    a = make_lock("Test.a")
    b = make_lock("Test.b")
    with a:
        with b:
            pass
    with pytest.raises(LockOrderError, match="cycle|order"):
        with b:
            with a:
                pass
    with pytest.raises(LockOrderError):
        assert_lock_order_acyclic()


def test_lock_order_graph_records_edges(debug_locks):
    a = make_lock("Test.outer")
    b = make_lock("Test.inner")
    with a:
        with b:
            pass
    assert "Test.inner" in global_lock_graph().edges().get("Test.outer", set())
    assert_lock_order_acyclic()


def test_run_concurrently_preserves_order_and_raises():
    results = run_concurrently(lambda i: i * i, 8)
    assert results == [i * i for i in range(8)]

    def boom(i: int) -> int:
        if i == 3:
            raise ValueError("worker 3 failed")
        return i

    with pytest.raises(ValueError, match="worker 3"):
        run_concurrently(boom, 8)


def test_switch_interval_restores():
    before = sys.getswitchinterval()
    with switch_interval(1e-4):
        assert sys.getswitchinterval() == pytest.approx(1e-4)
    assert sys.getswitchinterval() == pytest.approx(before)


# ---------------------------------------------------------------------------
# Static lint: seeded violations against synthetic repos
# ---------------------------------------------------------------------------

DECLARATION_TEMPLATE = """\
SHARED_CLASSES = {shared}
GUARDED_BY = {guarded}
THREAD_LOCAL = {thread_local}
IMMUTABLE_AFTER_INIT = {immutable}
BENIGN_RACES = {benign}
EXTERNALLY_GUARDED = {external}
"""


def seed_repo(
    tmp_path: Path,
    module_source: str,
    *,
    shared: dict | None = None,
    guarded: dict | None = None,
    thread_local: dict | None = None,
    immutable: dict | None = None,
    benign: dict | None = None,
    external: dict | None = None,
) -> Path:
    """A minimal checked tree: the declaration module plus one library."""
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "concurrency.py").write_text(
        DECLARATION_TEMPLATE.format(
            shared=shared or {},
            guarded=guarded or {},
            thread_local=thread_local or {},
            immutable=immutable or {},
            benign=benign or {},
            external=external or {},
        ),
        encoding="utf-8",
    )
    (tmp_path / "src" / "repro" / "lib.py").write_text(
        textwrap.dedent(module_source), encoding="utf-8"
    )
    return tmp_path


GUARDED_PLUGIN = """
    import threading

    class Plugin:
        def __init__(self):
            self._states = {}
            self._state_lock = threading.Lock()

        def publish(self, name, state):
            with self._state_lock:
                self._states.setdefault(name, state)

        def invalidate(self, name):
            with self._state_lock:
                self._states.pop(name, None)
"""


def test_lint_accepts_guarded_mutations(tmp_path):
    root = seed_repo(
        tmp_path,
        GUARDED_PLUGIN,
        guarded={"Plugin._states": "_state_lock"},
    )
    assert concurrency_lint.run(root) == []


@pytest.mark.parametrize(
    "mutation",
    [
        "self._states[name] = state",
        "self._states.setdefault(name, state)",
        "self._states.update({name: state})",
        "self._states.pop(name, None)",
        "del self._states[name]",
        "self._states = {}",
    ],
)
def test_lint_flags_unguarded_mutation_forms(tmp_path, mutation):
    # The non-subscript forms here are exactly what the old tier_lint
    # lock-discipline rule missed.
    root = seed_repo(
        tmp_path,
        f"""
        import threading

        class Plugin:
            def __init__(self):
                self._states = {{}}
                self._state_lock = threading.Lock()

            def publish(self, name, state):
                {mutation}
        """,
        guarded={"Plugin._states": "_state_lock"},
    )
    violations = concurrency_lint.run(root)
    assert len(violations) == 1
    assert "_states" in violations[0]
    assert "outside" in violations[0]


def test_lint_flags_undeclared_mutation(tmp_path):
    root = seed_repo(
        tmp_path,
        """
        import threading

        class Plugin:
            def __init__(self):
                self._states = {}
                self._lock = threading.Lock()

            def publish(self, name, state):
                with self._lock:
                    self._states[name] = state

            def sneak(self, value):
                self.extra = value
        """,
        guarded={"Plugin._states": "_lock"},
    )
    violations = concurrency_lint.run(root)
    assert len(violations) == 1
    assert "undeclared mutation of Plugin.extra" in violations[0]


def test_lint_flags_immutable_after_init_mutation(tmp_path):
    root = seed_repo(
        tmp_path,
        """
        import threading

        class Table:
            def __init__(self):
                self._lock = threading.Lock()
                self._columns = []

            def rebuild(self):
                self._columns.append(1)
        """,
        immutable={"Table._columns": "built once in __init__"},
    )
    violations = concurrency_lint.run(root)
    assert len(violations) == 1
    assert "IMMUTABLE_AFTER_INIT" in violations[0]


def test_lint_flags_lock_order_inversion(tmp_path):
    root = seed_repo(
        tmp_path,
        """
        import threading

        class Transfer:
            def __init__(self):
                self._accounts = threading.Lock()
                self._journal = threading.Lock()

            def deposit(self):
                with self._accounts:
                    with self._journal:
                        pass

            def audit(self):
                with self._journal:
                    with self._accounts:
                        pass
        """,
    )
    violations = concurrency_lint.run(root)
    assert any("lock-order cycle" in violation for violation in violations)
    assert any("Transfer._accounts" in violation for violation in violations)


def test_lint_flags_self_deadlock_through_call(tmp_path):
    root = seed_repo(
        tmp_path,
        """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def evict(self, key):
                with self._lock:
                    self._entries.pop(key, None)

            def store(self, key, value):
                with self._lock:
                    self._entries[key] = value
                    self.evict(key)
        """,
        guarded={"Cache._entries": "_lock"},
    )
    violations = concurrency_lint.run(root)
    assert any("re-acquires" in violation for violation in violations)


def test_lint_flags_unlocked_call_to_locked_helper(tmp_path):
    root = seed_repo(
        tmp_path,
        """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def _evict_locked(self, key):
                self._entries.pop(key, None)

            def evict(self, key):
                self._evict_locked(key)
        """,
        guarded={"Cache._entries": "_lock"},
    )
    violations = concurrency_lint.run(root)
    assert len(violations) == 1
    assert "_evict_locked" in violations[0]
    assert "without holding a lock" in violations[0]


def test_lint_flags_stale_declarations(tmp_path):
    root = seed_repo(
        tmp_path,
        """
        import threading

        class Plugin:
            def __init__(self):
                self._states = {}
                self._lock = threading.Lock()
        """,
        guarded={
            "Plugin._gone": "_lock",  # attribute does not exist
            "Ghost._states": "_lock",  # class does not exist
            "Plugin._states": "_missing_lock",  # lock does not exist
        },
        benign={"Plugin._states": "duplicate declaration"},
    )
    violations = concurrency_lint.run(root)
    assert any("stale GUARDED_BY entry 'Plugin._gone'" in v for v in violations)
    assert any("no class named Ghost" in v for v in violations)
    assert any("'_missing_lock'" in v for v in violations)
    assert any("declared in both" in v for v in violations)


def test_lint_flags_thread_spawn_in_unchecked_class(tmp_path):
    root = seed_repo(
        tmp_path,
        """
        import threading

        class Pool:
            def run(self, task):
                worker = threading.Thread(target=task)
                worker.start()
                worker.join()
        """,
    )
    violations = concurrency_lint.run(root)
    assert len(violations) == 1
    assert "spawns" in violations[0]
    assert "Pool" in violations[0]


def test_lint_repo_is_clean():
    assert concurrency_lint.run(REPO_ROOT) == []


def test_lint_cli(capsys):
    assert concurrency_lint.main(["--root", str(REPO_ROOT)]) == 0
    assert "concurrency_lint: ok" in capsys.readouterr().out
    assert concurrency_lint.main(["--root", str(REPO_ROOT), "--inventory"]) == 0
    inventory = capsys.readouterr().out
    assert "thread entry points" in inventory
    assert "WorkerPool" in inventory
    assert "static lock-order edges" in inventory


# ---------------------------------------------------------------------------
# Engine races: concurrent prepare/query against the shared caches
# ---------------------------------------------------------------------------

QUERIES = [
    "SELECT COUNT(*) FROM items_csv WHERE qty < 5",
    "SELECT SUM(price) FROM items_json WHERE qty > 2",
    "SELECT MAX(price) FROM items_bin WHERE id < 50",
    "SELECT COUNT(*) FROM items_rowbin WHERE category = 'cat2'",
]


@pytest.mark.parametrize("threads", [2, 8])
def test_concurrent_queries_on_cold_engine(paths, threads, debug_locks):
    """Many threads race first-touch scans, the per-text prepared cache, the
    codegen program cache and the cache manager on one shared engine."""
    engine = make_engine(paths)
    reference = make_engine(paths)
    expected = [reference.query(text).scalar() for text in QUERIES]

    with switch_interval():
        results = run_concurrently(
            lambda i: engine.query(QUERIES[i % len(QUERIES)]).scalar(),
            threads * len(QUERIES),
        )
    for index, value in enumerate(results):
        assert value == pytest.approx(expected[index % len(QUERIES)])
    assert_lock_order_acyclic()


@pytest.mark.parametrize("threads", [2, 8])
def test_concurrent_prepare_shares_one_prepared_query(paths, threads, debug_locks):
    engine = make_engine(paths)
    text = "SELECT id, price FROM items_csv WHERE qty > ?"

    with switch_interval():
        prepared = run_concurrently(
            lambda _: engine._prepare_cached(text), threads
        )
    assert all(p is prepared[0] for p in prepared)
    rows = expected_items()
    expected = sorted(
        (row["id"], row["price"]) for row in rows if row["qty"] > 7
    )
    result = sorted(tuple(row) for row in prepared[0].execute(7).rows)
    assert result == [
        (identifier, pytest.approx(price)) for identifier, price in expected
    ]
    assert_lock_order_acyclic()


def test_concurrent_prepare_and_catalog_churn(paths, debug_locks):
    """Re-registration bumps the catalog epoch while other threads execute
    prepared queries; every result must be consistent with some epoch."""
    engine = make_engine(paths)
    text = "SELECT COUNT(*) FROM items_csv WHERE qty < 5"
    expected = engine.query(text).scalar()
    prepared = engine.prepare(text)

    def task(i: int):
        if i % 4 == 3:
            engine.register_csv(
                "items_csv", paths["items_csv"], schema=ITEMS_SCHEMA
            )
            return expected
        return prepared.execute().scalar()

    with switch_interval():
        results = run_concurrently(task, 8)
    assert all(value == expected for value in results)
    assert_lock_order_acyclic()


@pytest.mark.parametrize("threads", [2, 8])
def test_concurrent_metrics_scrape_during_queries(paths, threads, debug_locks):
    engine = make_engine(paths)

    def task(i: int):
        if i % 2:
            return engine.metrics.render_prometheus()
        return engine.query(QUERIES[i % len(QUERIES)]).scalar()

    with switch_interval():
        results = run_concurrently(task, threads * 2)
    assert all(result is not None for result in results)
    assert_lock_order_acyclic()


def test_worker_pool_under_debug_locks(debug_locks):
    from repro.core.parallel.scheduler import WorkerPool

    pool = WorkerPool(4)
    with switch_interval():
        results = pool.run(list(range(64)), lambda item, worker: item * 2)
    assert results == [item * 2 for item in range(64)]
    assert_lock_order_acyclic()


def test_context_merge_loses_no_count(debug_locks):
    """Morsel workers fold their counters into the execution's one profile
    through ``QueryContext.merge``: eight threads (more than there are
    cores) merging under aggressive preemption lose no count."""
    profile = ExecutionProfile()
    context = QueryContext(profile)
    morsel = ExecutionCounters(rows_scanned=16, batches_processed=1)

    def worker(_: int) -> None:
        for _ in range(2000):
            context.merge(morsel)

    with switch_interval():
        run_concurrently(worker, 8)
    assert profile.batches_processed == 8 * 2000
    assert profile.rows_scanned == 16 * 8 * 2000
    assert_lock_order_acyclic()


#: A plan that needs per-plan planner state: ``l.subs`` must become an element
#: column of the ``o.lines`` unnest (nested-in-nested).
NESTED_QUERY = "for { o <- orders, l <- o.lines, s <- l.subs, s.s > 10 } yield count"
FLAT_QUERIES = [
    "SELECT COUNT(*) FROM orders WHERE okey < 100",
    "SELECT SUM(total) FROM orders WHERE okey > 10",
    "SELECT MAX(total) FROM orders",
]
#: Prepares per thread: with per-plan state kept on the shared planner,
#: about 70 % of the nested plans lose their element column.
PREPARES_PER_THREAD = 30


def test_concurrent_prepare_keeps_per_plan_state(tmp_path, monkeypatch):
    """One planner serves every session: nested-in-nested plans prepared
    while other threads plan flat queries equal the serially prepared plan
    and run on the batch pipeline.  Every plan-node conversion yields the
    interpreter to the other threads, so state that one ``plan()`` call left
    on the shared planner is overwritten by another before it is read."""
    path = tmp_path / "orders.json"
    path.write_text("".join(json.dumps(order) + "\n" for order in expected_orders()))
    engine = ProteusEngine(enable_caching=False, vectorized_batch_size=8)
    engine.register_json("orders", str(path), schema=ORDERS_SCHEMA)
    serial = engine.prepare(NESTED_QUERY)
    expected = serial.execute()
    assert expected.tier == "codegen"
    convert = engine.planner._convert

    def yielding_convert(*args, **kwargs):
        time.sleep(1e-5)
        return convert(*args, **kwargs)

    monkeypatch.setattr(engine.planner, "_convert", yielding_convert)

    def task(index: int) -> list:
        if index == 0:
            return [engine.prepare(NESTED_QUERY) for _ in range(PREPARES_PER_THREAD)]
        for _ in range(PREPARES_PER_THREAD):
            engine.prepare(FLAT_QUERIES[index - 1])
        return []

    with switch_interval():
        nested = run_concurrently(task, 1 + len(FLAT_QUERIES))[0]
    lost = [p.plan.pretty() for p in nested if p.plan.pretty() != serial.plan.pretty()]
    assert not lost, f"{len(lost)} of {len(nested)} plans differ, e.g.\n{lost[0]}"
    for prepared in nested:
        executed = prepared.execute()
        assert executed.tier == "codegen"
        assert executed.rows == expected.rows
