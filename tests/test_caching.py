"""Tests of the adaptive caching subsystem: manager, policies, matching,
eviction and engine-level behaviour."""

import numpy as np
import pytest

from repro.caching.manager import CacheManager, estimate_size
from repro.caching.matching import field_cache_key, join_side_cache_key, unnest_cache_key
from repro.caching.policies import CachingPolicy
from repro.core.columns import EncodedColumn
from repro.storage.memory import CacheArena

from tests.conftest import expected_items, make_engine


# -- policies ------------------------------------------------------------------


def test_policy_caches_fields_of_verbose_sources_only():
    """The one §6 rule set: fields of verbose sources (strings as dictionary
    codes), never binary sources (join sides and unnest output are always
    kept)."""
    policy = CachingPolicy()
    assert policy.should_cache_field("json")
    assert policy.should_cache_field("csv")
    for source_format in ("binary_column", "binary_row", "cache"):
        assert not policy.should_cache_field(source_format)


def test_policy_format_bias_ordering():
    policy = CachingPolicy()
    assert policy.format_bias("json") > policy.format_bias("csv") > policy.format_bias("binary_column")


# -- manager --------------------------------------------------------------------


def test_cache_store_lookup_and_stats():
    manager = CacheManager(CacheArena(1 << 20))
    key = field_cache_key("ds", ("x",))
    assert manager.lookup(key) is None
    manager.store(key, np.arange(10), kind="field", dataset="ds", source_format="json")
    entry = manager.lookup(key)
    assert entry is not None and entry.hits == 1
    assert manager.stats.stores == 1
    assert manager.stats.hits == 1
    assert manager.stats.misses == 1
    assert 0 < manager.stats.hit_rate < 1


def test_cache_store_is_idempotent():
    manager = CacheManager(CacheArena(1 << 20))
    key = field_cache_key("ds", ("x",))
    first = manager.store(key, np.arange(10), kind="field", dataset="ds", source_format="csv")
    second = manager.store(key, np.arange(10), kind="field", dataset="ds", source_format="csv")
    assert first is second
    assert manager.stats.stores == 1


def test_cache_eviction_is_format_biased():
    # Arena fits only two of the three entries; the CSV-backed one (lower
    # bias) must be evicted before the JSON-backed ones.
    array = np.arange(100, dtype=np.int64)  # 800 bytes
    manager = CacheManager(CacheArena(1700))
    manager.store(field_cache_key("c", ("a",)), array, kind="field",
                  dataset="c", source_format="csv")
    manager.store(field_cache_key("j", ("a",)), array, kind="field",
                  dataset="j", source_format="json")
    manager.store(field_cache_key("j", ("b",)), array, kind="field",
                  dataset="j", source_format="json")
    keys = {entry.key for entry in manager.entries()}
    assert field_cache_key("c", ("a",)) not in keys
    assert field_cache_key("j", ("a",)) in keys
    assert manager.stats.evictions == 1


def test_cache_rejects_oversized_entries():
    manager = CacheManager(CacheArena(100))
    entry = manager.store(field_cache_key("d", ("x",)), np.arange(1000),
                          kind="field", dataset="d", source_format="json")
    assert entry is None
    assert manager.stats.rejected == 1


def test_cache_invalidate_dataset_and_clear():
    manager = CacheManager(CacheArena(1 << 20))
    manager.store(field_cache_key("a", ("x",)), np.arange(5), kind="field",
                  dataset="a", source_format="json")
    manager.store(field_cache_key("b", ("x",)), np.arange(5), kind="field",
                  dataset="b", source_format="json")
    assert manager.invalidate_dataset("a") == 1
    assert [entry.dataset for entry in manager.entries()] == ["b"]
    manager.clear()
    assert manager.entries() == []
    assert manager.used_bytes == 0


def test_estimate_size_variants():
    assert estimate_size(np.arange(10, dtype=np.int64)) == 80
    assert estimate_size({"a": np.arange(2)}) > 16
    assert estimate_size("hello") == 5
    assert estimate_size(object()) == 64


def test_cache_keys_are_distinct():
    assert field_cache_key("d", ("x",)) != field_cache_key("d", ("y",))
    assert unnest_cache_key("d", ("arr",), [("a",)]) != unnest_cache_key("d", ("arr",), [("b",)])
    assert join_side_cache_key(("scan",), ("key1",)) != join_side_cache_key(("scan",), ("key2",))


# -- engine-level behaviour ---------------------------------------------------------


def test_engine_populates_and_reuses_field_caches(paths):
    engine = make_engine(paths, enable_caching=True)
    first = engine.query("SELECT COUNT(*) FROM items_json WHERE qty < 5")
    entries = engine.cache_entries()
    assert any(entry.kind == "field" for entry in entries)
    stats_before = engine.cache_stats.hits
    second = engine.query("SELECT COUNT(*) FROM items_json WHERE qty < 5")
    assert second.scalar() == first.scalar()
    assert engine.cache_stats.hits > stats_before
    assert second.profile.values_from_cache > 0


def test_engine_caches_strings_as_dictionary_codes(paths):
    engine = make_engine(paths, enable_caching=True)
    engine.query("SELECT COUNT(*) FROM items_json WHERE category = 'cat1' AND qty < 10")
    (entry,) = [
        e for e in engine.cache_entries() if e.description == "items_json.category"
    ]
    assert isinstance(entry.data, EncodedColumn)
    assert entry.data.codes.dtype == np.int32
    assert list(entry.data.values) == ["cat0", "cat1", "cat2", "cat3"]


def test_engine_join_side_cache_reuse(paths):
    engine = make_engine(paths, enable_caching=True)
    # Aggregate arguments reading both inputs probe a build-side table.
    engine.query(
        "SELECT COUNT(*), SUM(i.qty + c.qty) FROM items_bin i JOIN items_csv c "
        "ON i.id = c.id WHERE c.qty < 9"
    )
    assert any(entry.kind == "join_side" for entry in engine.cache_entries())
    # A different query over the same join side reuses the materialization.
    hits_before = engine.cache_stats.hits
    engine.query(
        "SELECT MAX(i.price + c.qty) FROM items_bin i JOIN items_csv c "
        "ON i.id = c.id WHERE c.qty < 9"
    )
    assert engine.cache_stats.hits > hits_before


def test_engine_unnest_cache(paths):
    engine = make_engine(paths, enable_caching=True)
    first = engine.query("for { o <- orders, l <- o.lines, l.qty > 1 } yield count")
    assert any(entry.kind == "unnest" for entry in engine.cache_entries())
    second = engine.query("for { o <- orders, l <- o.lines, l.qty > 1 } yield count")
    assert second.scalar() == first.scalar()


def test_engine_cache_results_stay_correct(paths):
    engine = make_engine(paths, enable_caching=True)
    cached_engine_counts = []
    for _ in range(3):
        cached_engine_counts.append(
            engine.query("SELECT SUM(price) FROM items_json WHERE qty < 5").scalar()
        )
    expected = sum(row["price"] for row in expected_items() if row["qty"] < 5)
    assert all(value == pytest.approx(expected) for value in cached_engine_counts)


def test_clear_caches(paths):
    engine = make_engine(paths, enable_caching=True)
    engine.query("SELECT COUNT(*) FROM items_json WHERE qty < 5")
    assert engine.cache_entries()
    engine.clear_caches()
    assert engine.cache_entries() == []


def test_caching_disabled_engine_has_no_entries(paths):
    engine = make_engine(paths, enable_caching=False)
    engine.query("SELECT COUNT(*) FROM items_json WHERE qty < 5")
    assert engine.cache_entries() == []
    assert engine.cache_stats is None


def test_victim_is_the_first_of_the_bias_then_recency_order():
    """The single-pass victim pick evicts exactly what sorting every entry by
    (bias, last_used) would: same victims, same order, ties included."""
    rng = np.random.RandomState(7)
    formats = ["json", "csv", "binary_column"]
    array = np.arange(8, dtype=np.int64)  # 64 bytes
    manager = CacheManager(CacheArena(64 * 12))
    reference: dict[tuple, tuple[float, int]] = {}
    evicted_expected: list[tuple] = []
    evicted_seen: list[tuple] = []
    evict = manager._evict_locked

    def recording_evict(key):
        evicted_seen.append(key)
        evict(key)

    manager._evict_locked = recording_evict
    for step in range(200):
        key = field_cache_key(f"d{step}", ("x",))
        source_format = formats[rng.randint(len(formats))]
        for live in rng.choice(len(reference), size=min(3, len(reference)), replace=False):
            touched = list(reference)[live]
            assert manager.lookup(touched) is not None
            reference[touched] = (reference[touched][0], manager._clock)
        if len(reference) == 12:
            victim = sorted(reference, key=lambda k: reference[k])[0]
            evicted_expected.append(victim)
            del reference[victim]
        manager.store(key, array, kind="field", dataset=f"d{step}",
                      source_format=source_format)
        reference[key] = (manager.policy.format_bias(source_format), manager._clock)
    assert evicted_seen == evicted_expected
    assert manager.stats.evictions == len(evicted_expected) == 188
