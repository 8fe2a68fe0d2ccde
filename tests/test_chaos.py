"""Chaos suite: deterministic fault injection across plugins and tiers.

Every test scripts faults through :class:`~repro.resilience.FaultInjector`
(installed beneath the retry layer of the plugin I/O path) and asserts the
resilience contract: a seeded fault always terminates in either the correct
result (transients recovered by retry) or a coded ``RES00x`` error — never a
hang, a leaked worker or a poisoned cache.  The error-path cache-consistency
coverage (satellite of the resilience PR) lives here too.
"""

from __future__ import annotations

import pytest

from tests.conftest import FANOUT_BATCH_SIZE, make_engine
from repro import ProteusEngine
from repro.errors import CorruptDataError, ProteusError, ScanIOError, error_code
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.storage.catalog import DataFormat

#: dataset name -> the plugin (DataFormat key) serving it.
DATASET_FORMATS = {
    "items_csv": DataFormat.CSV,
    "items_json": DataFormat.JSON,
    "items_bin": DataFormat.BINARY_COLUMN,
    "items_rowbin": DataFormat.BINARY_ROW,
}

#: Engine configurations pinning each tier — the codegen tier inline in one
#: batch, inline over two-row batches and fanned out over morsels (mirrors
#: test_resilience.py).
TIER_CONFIGS = {
    "codegen": {},
    "codegen-batched": {"vectorized_batch_size": FANOUT_BATCH_SIZE},
    "codegen-fanout": {
        "parallel_workers": 2,
        "vectorized_batch_size": FANOUT_BATCH_SIZE,
    },
    "volcano": {"enable_codegen": False},
}

EXPECTED_FILTERED_SUM = sum(i * 1.5 for i in range(120) if i % 10 > 1)
EXPECTED_ORDERS_TOTAL = sum(i * 2.5 for i in range(60))


def _install(engine, dataset: str, specs) -> FaultInjector:
    injector = FaultInjector(FaultPlan(specs), sleep=lambda seconds: None)
    engine.plugins[DATASET_FORMATS[dataset]].install_fault_injector(injector)
    return injector


def _clear(engine) -> None:
    for plugin in engine.plugins.values():
        plugin.install_fault_injector(None)


# ---------------------------------------------------------------------------
# Scripted single faults, per plugin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dataset", sorted(DATASET_FORMATS))
def test_transient_io_fault_recovered_by_retry(paths, dataset):
    """A one-shot OSError on any plugin's I/O path is absorbed by the retry
    layer: the query still returns the exact result and the recovery is
    visible in ``profile.io_retries``."""
    engine = make_engine(paths, enable_caching=False)
    injector = _install(
        engine, dataset, [FaultSpec(kind="io-error", at_call=1)]
    )
    result = engine.query(f"select sum(price) from {dataset} where qty > 1")
    assert result.rows == [(EXPECTED_FILTERED_SUM,)]
    assert injector.injected == [(1, "io-error")]
    assert engine.last_profile.io_retries >= 1


@pytest.mark.parametrize("dataset", sorted(DATASET_FORMATS))
def test_persistent_truncation_exhausts_into_res005(paths, dataset):
    """A fault that keeps failing across attempts exhausts the retry policy
    into a coded :class:`ScanIOError`; removing the fault restores exact
    results on the same engine (no poisoned plugin state)."""
    engine = make_engine(paths, enable_caching=False)
    _install(
        engine, dataset, [FaultSpec(kind="truncated", at_call=1, times=None)]
    )
    with pytest.raises(ScanIOError) as info:
        engine.query(f"select sum(price) from {dataset} where qty > 1")
    assert "[RES005]" in str(info.value)
    assert engine.last_profile.aborted == "RES005"
    _clear(engine)
    result = engine.query(f"select sum(price) from {dataset} where qty > 1")
    assert result.rows == [(EXPECTED_FILTERED_SUM,)]


@pytest.mark.parametrize("tier", ["codegen", "codegen-batched", "codegen-fanout"])
def test_binary_row_faults_fire_at_the_range_checkpoint(paths, tier):
    """Row tables are scanned through the per-range checkpoint of every other
    format, inline in one batch or many and over morsels: a fault scripted
    for that checkpoint fires and the retry layer absorbs it."""
    engine = make_engine(paths, enable_caching=False, **TIER_CONFIGS[tier])
    injector = _install(
        engine,
        "items_rowbin",
        [FaultSpec(kind="io-error", at_call=1, operation="scan-range")],
    )
    result = engine.query("select sum(price) from items_rowbin where qty > 1")
    assert result.rows == [(EXPECTED_FILTERED_SUM,)]
    assert injector.injected == [(1, "io-error")]
    assert engine.last_profile.io_retries >= 1
    assert (result.profile.morsels_dispatched > 0) == (tier == "codegen-fanout")


def test_corrupt_data_surfaces_res006_and_is_never_retried(paths):
    engine = make_engine(paths, enable_caching=False)
    injector = _install(
        engine, "items_csv", [FaultSpec(kind="corrupt", at_call=2)]
    )
    with pytest.raises(CorruptDataError) as info:
        engine.query("select sum(price) from items_csv")
    assert "[RES006]" in str(info.value)
    # Corruption is not transient: no retry was charged for it.
    assert engine.last_profile.io_retries == 0
    assert injector.injected == [(2, "corrupt")]
    _clear(engine)
    assert engine.query("select count(*) from items_csv").rows == [(120,)]


#: Malformed raw files (no injected fault): name -> (format, bytes, query).
MALFORMED_FILES = {
    "truncated_json": ("json", b'{"a": 1}\n{"a": 2', "select sum(a) from bad"),
    "bad_scalar_json": ("json", b'{"a": 1x}\n', "select sum(a) from bad"),
    "top_level_array_json": ("json", b"[1, 2]\n", "select sum(a) from bad"),
    "array_missing_comma_json": ("json", b'{"a": 1, "b": [1 2]}\n', "select sum(a) from bad"),
    "array_empty_element_json": ("json", b'{"a": 1, "b": [,]}\n', "select sum(a) from bad"),
    "array_trailing_comma_json": ("json", b'{"a": 1, "b": [1,]}\n', "select sum(a) from bad"),
    "nested_array_json": ("json", b'{"a": 1, "b": [[1], [2 3]]}\n', "select sum(a) from bad"),
    "short_csv_row": ("csv", b"a,b\n1,2\n3\n", "select sum(b) from bad"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
@pytest.mark.parametrize("tier", ["codegen", "volcano"])
def test_malformed_raw_file_is_res006_naming_the_dataset(tmp_path, case, tier):
    """Parse corruption in the file itself — not only an injected one — is a
    coded RES006 naming the dataset, on every tier, and is counted as such."""
    fmt, content, query = MALFORMED_FILES[case]
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(content)
    engine = ProteusEngine(enable_caching=False, **TIER_CONFIGS[tier])
    register = engine.register_json if fmt == "json" else engine.register_csv
    register("bad", str(path), schema={"a": "int", "b": "int"})
    with pytest.raises(CorruptDataError) as info:
        engine.query(query)
    assert error_code(info.value) == "RES006"
    assert info.value.dataset == "bad" and "'bad'" in str(info.value)
    failed = engine.metrics.to_dict()["proteus_queries_failed_total"]["values"]
    assert failed == {"{code=RES006}": 1.0}


@pytest.mark.parametrize("tier", ["codegen", "volcano"])
def test_a_malformed_array_beyond_the_schema_sample_fails_at_first_touch(tmp_path, tier):
    """One object past the objects schema inference samples holds a
    malformed array.  Registered with its schema, the file is first read by
    the first query: a COUNT(*) that reads no field fails as RES006, and so
    does a query on that object — neither answers, nor raises the JSON
    decoder's own error.  Registered without one, inference reads it and
    fails the same way."""
    lines = [f'{{"id": {i}, "a": [{i}, {i + 1}]}}' for i in range(201)]
    lines.append('{"id": 999, "a": [1 2]}')
    path = tmp_path / "feed.json"
    path.write_text("\n".join(lines) + "\n")
    engine = ProteusEngine(enable_caching=False, **TIER_CONFIGS[tier])
    for query in ("SELECT COUNT(*) FROM t", "SELECT t.id FROM t WHERE t.id = 999"):
        engine.register_json("t", str(path), schema={"id": "int", "a": ["int"]})
        with pytest.raises(CorruptDataError) as info:
            engine.query(query)
        assert error_code(info.value) == "RES006" and info.value.dataset == "t"
        engine.unregister("t")
    with pytest.raises(CorruptDataError):
        engine.register_json("t", str(path))


def test_retry_budget_exhaustion_is_coded(paths):
    """With a zero per-query retry budget even a recoverable transient
    surfaces as RES005 — the budget bounds total stall time per query."""
    engine = make_engine(paths, enable_caching=False, io_retry_budget=0)
    _install(engine, "items_csv", [FaultSpec(kind="io-error", at_call=1)])
    with pytest.raises(ScanIOError) as info:
        engine.query("select sum(price) from items_csv")
    assert "retry budget" in str(info.value)


# ---------------------------------------------------------------------------
# Seeded chaos sweeps: every fault terminates in a result or a coded error
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
@pytest.mark.parametrize("seed", range(4))
def test_seeded_chaos_terminates_cleanly(paths, tier, seed):
    """The core chaos property, per tier: under a reproducible random fault
    plan every query either returns the exact expected result or raises a
    coded resilience error — and once the faults are lifted the same engine
    serves exact results again (caches, locks and plugin state intact)."""
    engine = make_engine(paths, enable_caching=True, **TIER_CONFIGS[tier])
    for offset, data_format in enumerate(
        (DataFormat.CSV, DataFormat.JSON, DataFormat.BINARY_COLUMN)
    ):
        injector = FaultInjector(
            FaultPlan.seeded(seed * 16 + offset, faults=3, max_call=6),
            sleep=lambda seconds: None,
        )
        engine.plugins[data_format].install_fault_injector(injector)
    battery = [
        ("select sum(price) from items_csv where qty > 1", EXPECTED_FILTERED_SUM),
        ("select sum(price) from items_json where qty > 1", EXPECTED_FILTERED_SUM),
        ("select count(*) from items_bin", 120),
        ("select sum(total) from orders", EXPECTED_ORDERS_TOTAL),
    ]
    for text, expected in battery:
        try:
            result = engine.query(text)
        except ProteusError as exc:
            code = getattr(exc, "code", "")
            assert isinstance(code, str) and code.startswith("RES"), (
                f"fault must surface as a coded resilience error, got {exc!r}"
            )
        else:
            assert result.rows == [(expected,)]
    _clear(engine)
    for text, expected in battery:
        assert engine.query(text).rows == [(expected,)]
    manager = engine.cache_manager
    if manager is not None:
        assert manager.used_bytes == sum(
            entry.size_bytes for entry in manager.entries()
        )


# ---------------------------------------------------------------------------
# Error-path cache consistency (satellite)
# ---------------------------------------------------------------------------


def test_midscan_failure_leaves_caches_consistent(paths):
    """A query failing mid-scan must not corrupt shared prepare-time state:
    compiled programs, the prepared cache, the cache manager's byte
    accounting and the catalog epoch all stay consistent, and every dataset
    still serves exact results afterwards."""
    engine = make_engine(paths)
    warm = engine.query("select sum(price) from items_csv where qty > 1")
    assert warm.rows == [(EXPECTED_FILTERED_SUM,)]
    compiled_before = len(engine._compiled)
    prepared_before = len(engine._prepared_cache)
    epoch_before = engine._catalog_epoch
    _install(engine, "items_json", [FaultSpec(kind="corrupt", at_call=1)])
    with pytest.raises(CorruptDataError):
        engine.query("select sum(price) from items_json where qty > 1")
    # Shared state after the failure: byte accounting exact, epoch untouched,
    # caches only ever grew (a failed execution never evicts or corrupts).
    manager = engine.cache_manager
    assert manager is not None
    assert manager.used_bytes == sum(
        entry.size_bytes for entry in manager.entries()
    )
    assert engine._catalog_epoch == epoch_before
    assert len(engine._compiled) >= compiled_before
    assert len(engine._prepared_cache) >= prepared_before
    _clear(engine)
    assert engine.query("select sum(price) from items_json where qty > 1").rows == [
        (EXPECTED_FILTERED_SUM,)
    ]
    # The warm shape was not poisoned by the unrelated failure.
    assert (
        engine.query("select sum(price) from items_csv where qty > 1").rows
        == warm.rows
    )


@pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
def test_every_tier_recovers_after_fault(paths, tier):
    """Per tier: fail one query with an injected persistent fault, lift the
    fault, and assert the same engine instance returns exact results — the
    abort path released every resource the tier acquired."""
    engine = make_engine(paths, **TIER_CONFIGS[tier])
    _install(
        engine, "items_csv", [FaultSpec(kind="truncated", at_call=1, times=None)]
    )
    with pytest.raises(ScanIOError):
        engine.query("select sum(price) from items_csv where qty > 1")
    _clear(engine)
    result = engine.query("select sum(price) from items_csv where qty > 1")
    assert result.rows == [(EXPECTED_FILTERED_SUM,)]
    assert engine.last_profile.aborted is None


def test_warm_state_scan_still_crosses_the_guarded_layer(tmp_path):
    """When schema inference at registration pre-builds the plug-in state,
    the default label's scan path (the pipeline's ``scan_batch_ranges`` and
    lazy ``scan_columns_at``) must still pass through a guarded I/O step — an
    injector installed
    *after* registration fires and the retry layer absorbs it."""
    path = tmp_path / "warm.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,qty,price\n")
        for i in range(120):
            handle.write(f"{i},{i % 10},{i * 1.5}\n")
    from repro import ProteusEngine

    engine = ProteusEngine(enable_caching=False)
    engine.register_csv("warm", str(path))  # inferred schema builds the index
    injector = FaultInjector(FaultPlan([FaultSpec(kind="io-error", at_call=1)]))
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    result = engine.query("select sum(price) from warm where qty > 1")
    assert result.tier == "codegen"
    assert result.rows == [(EXPECTED_FILTERED_SUM,)]
    assert injector.injected == [(1, "io-error")]
    assert engine.last_profile.io_retries >= 1


def test_cache_eviction_between_plan_and_scan_falls_back_to_source(paths):
    """A plan prepared while its columns are cached can outlive them: an
    eviction (or concurrent invalidation) can remove the entries before its
    next scan runs.  The scan operator looks the cache up itself at scan time
    and must read the raw source instead of surfacing a spurious
    ``PluginError`` — the race the churn stress test hits
    nondeterministically, reproduced here deterministically."""
    engine = make_engine(paths, enable_caching=True)
    expected = sum(i * 1.5 for i in range(120))
    # An unfiltered scan: the full price column is materialized and cached.
    query = "select sum(price) from items_csv"
    assert engine.query(query).rows == [(expected,)]
    prepared = engine.prepare(query)
    warm = prepared.execute()
    assert warm.rows == [(expected,)]
    assert warm.profile.values_from_cache > 0
    assert engine.cache_manager is not None
    # Simulate the race: the module cache was flushed (its LRU bound does
    # this) and every cached entry vanishes after planning.
    # Plain eviction does not bump the catalog epoch, so the prepared plan
    # stays in use.
    engine._compiled.clear()
    for entry in engine.cache_manager.entries():
        engine.cache_manager.evict(entry.key)
    assert engine.cache_manager.used_bytes == 0
    assert prepared.execute().rows == [(expected,)]
