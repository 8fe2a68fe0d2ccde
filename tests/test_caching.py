"""Tests of the adaptive caching subsystem: manager, policies, matching,
eviction and engine-level behaviour."""

import numpy as np
import pytest

from repro.caching.manager import CacheManager, estimate_size
from repro.caching.matching import field_cache_key, join_side_cache_key, unnest_cache_key
from repro.caching import policies
from repro.core.columns import EncodedColumn
from repro.errors import StorageError

from tests.conftest import expected_items, make_engine


# -- policies ------------------------------------------------------------------


def test_policy_caches_fields_of_verbose_sources_only():
    """The one §6 rule set: fields of verbose sources (strings as dictionary
    codes), never binary sources (join sides and unnest output are always
    kept)."""
    assert policies.keeps_fields("json")
    assert policies.keeps_fields("csv")
    for source_format in ("binary_column", "binary_row", "cache"):
        assert not policies.keeps_fields(source_format)


def test_policy_format_bias_ordering():
    def bias(source_format):
        return policies.entry_bias([("d", source_format)])

    assert bias("json") > bias("csv") > bias("binary_column")
    # An entry built from several sources is as dear as the most verbose.
    assert policies.entry_bias([("b", "binary_column"), ("j", "json")]) == bias("json")


def test_policy_keeps_fields_as_primitive_columns_only():
    """A field of mixed-type or nested values (an object array) is not kept."""
    manager = CacheManager(1 << 20)
    mixed = np.array([1, "a", None], dtype=object)
    assert manager.store(field_cache_key("ds", ("x",)), mixed, [("ds", "json")]) is None
    assert manager.entries() == [] and manager.stats.rejected == 0
    assert manager.store(field_cache_key("ds", ("y",)), np.arange(3), [("ds", "json")])


# -- manager --------------------------------------------------------------------


def test_cache_store_lookup_and_stats():
    manager = CacheManager(1 << 20)
    key = field_cache_key("ds", ("x",))
    assert manager.lookup(key) is None
    manager.store(key, np.arange(10), [("ds", "json")])
    entry = manager.lookup(key)
    assert entry is not None and entry.hits == 1
    assert manager.stats.stores == 1
    assert manager.stats.hits == 1
    assert manager.stats.misses == 1
    assert 0 < manager.stats.hit_rate < 1


def test_cache_store_is_idempotent():
    manager = CacheManager(1 << 20)
    key = field_cache_key("ds", ("x",))
    first = manager.store(key, np.arange(10), [("ds", "csv")])
    second = manager.store(key, np.arange(10), [("ds", "csv")])
    assert first is second
    assert manager.stats.stores == 1


def test_cache_eviction_is_format_biased():
    # Arena fits only two of the three entries; the CSV-backed one (lower
    # bias) must be evicted before the JSON-backed ones.
    array = np.arange(100, dtype=np.int64)  # 800 bytes
    manager = CacheManager(1700)
    manager.store(field_cache_key("c", ("a",)), array, [("c", "csv")])
    manager.store(field_cache_key("j", ("a",)), array, [("j", "json")])
    manager.store(field_cache_key("j", ("b",)), array, [("j", "json")])
    keys = {entry.key for entry in manager.entries()}
    assert field_cache_key("c", ("a",)) not in keys
    assert field_cache_key("j", ("a",)) in keys
    assert manager.stats.evictions == 1


def test_cache_rejects_oversized_entries():
    manager = CacheManager(100)
    entry = manager.store(field_cache_key("d", ("x",)), np.arange(1000), [("d", "json")])
    assert entry is None
    assert manager.stats.rejected == 1


def test_cache_invalidate_dataset_and_clear():
    manager = CacheManager(1 << 20)
    manager.store(field_cache_key("a", ("x",)), np.arange(5), [("a", "json")])
    manager.store(field_cache_key("b", ("x",)), np.arange(5), [("b", "json")])
    # Owned by its first source, dropped with any of them.
    joined = manager.store(("join_side", "ba"), np.arange(5), [("b", "json"), ("a", "csv")])
    assert joined.kind == "join_side" and joined.dataset == "b"
    assert manager.invalidate_dataset("a") == 2
    assert [entry.dataset for entry in manager.entries()] == ["b"]
    manager.clear()
    assert manager.entries() == []
    assert manager.used_bytes == 0


def test_cache_refuses_entries_beyond_its_budget():
    manager = CacheManager(1000)
    first = field_cache_key("d", ("a",))
    manager.store(first, b"x" * 400, [("d", "json")])
    manager.store(field_cache_key("d", ("b",)), b"x" * 500, [("d", "json")])
    assert manager.used_bytes == 900
    # 200 more bytes fit only by evicting the least recently used entry.
    manager.store(field_cache_key("d", ("c",)), b"x" * 200, [("d", "json")])
    assert first not in manager and manager.used_bytes == 700
    assert manager.store(field_cache_key("d", ("huge",)), b"x" * 5000, [("d", "json")]) is None
    assert manager.stats.rejected == 1 and manager.used_bytes == 700


@pytest.mark.parametrize("budget", [0, -1])
def test_cache_rejects_a_non_positive_budget(budget):
    with pytest.raises(StorageError):
        CacheManager(budget)


def test_cache_used_bytes_is_the_sum_of_entry_sizes():
    manager = CacheManager(64 * 6)

    def check():
        assert manager.used_bytes == sum(e.size_bytes for e in manager.entries())

    for index in range(10):  # the later stores evict the earlier ones
        source_format = ("json", "csv")[index % 2]
        manager.store(field_cache_key(source_format, (str(index),)),
                      np.arange(8, dtype=np.int64), [(source_format, source_format)])
        check()
    assert manager.stats.evictions == 4
    manager.evict(manager.entries()[0].key)
    check()
    manager.invalidate_dataset("csv")
    check()
    assert manager.used_bytes > 0
    manager.clear()
    check()
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


def test_a_join_side_over_several_datasets_is_as_dear_as_the_most_verbose(paths):
    """A build side that is itself a join of a binary and a JSON dataset is
    owned by the binary one (its first scan) but biased as JSON: it outlives
    a binary entry used as recently."""
    engine = make_engine(paths, enable_caching=True)
    engine.query(
        "SELECT b.id, j.qty, c.price FROM items_bin b JOIN items_json j ON b.id = j.id "
        "JOIN items_csv c ON c.id = j.id WHERE b.qty < 2"
    )
    (side,) = [
        e for e in engine.cache_entries() if e.kind == "join_side" and len(e.sources) == 2
    ]
    assert side.sources == (("items_bin", "binary_column"), ("items_json", "json"))
    assert side.dataset == "items_bin"
    assert side.bias == policies.FORMAT_BIAS["json"]
    manager = engine.cache_manager
    binary = manager.store(("join_side", "binary"), np.arange(8), [("items_bin", "binary_column")])
    for entry in manager.entries():
        if entry.key not in (side.key, binary.key):
            manager.evict(entry.key)
    binary.last_used = side.last_used
    # One more byte than is free: exactly one entry must go.
    manager.budget_bytes = manager.used_bytes + binary.size_bytes
    manager.store(("result", "newcomer"), b"", [("items_csv", "csv")], size_bytes=binary.size_bytes + 1)
    assert side.key in manager and binary.key not in manager


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


def test_greedy_dual_ages_an_entry_nobody_reads():
    """A JSON entry outlives CSV entries only while it is read: each
    eviction raises the floor, every later store or read of a CSV entry
    lifts it to the JSON entry's priority, and the JSON entry — read by no
    one since — goes first among equals.  Dropping a dataset's entries
    leaves the floor where it was."""
    array = np.arange(8, dtype=np.int64)  # 64 bytes
    manager = CacheManager(64 * 3)
    json_key = field_cache_key("feed0", ("x",))
    manager.store(json_key, array, [("feed0", "json")])
    for step in range(1, 5):
        manager.store(field_cache_key(f"csv{step}", ("x",)), array, [(f"csv{step}", "csv")])
    # csv1 and csv2 went (floor 2.0); csv3 and csv4 were stored at 4.0.
    assert manager._floor == 2.0
    assert json_key in manager
    assert manager.lookup(field_cache_key("csv3", ("x",))) is not None
    manager.store(field_cache_key("csv5", ("x",)), array, [("csv5", "csv")])
    assert json_key not in manager
    assert manager._floor == 4.0
    manager.invalidate_dataset("csv3")
    assert manager._floor == 4.0
    assert manager.peek(field_cache_key("csv5", ("x",))).priority == 6.0


def test_victim_is_the_first_of_the_bias_then_recency_order():
    """The single-pass victim pick evicts exactly what sorting every entry by
    its GreedyDual (priority, last_used) would — a priority being the floor
    when the entry was stored or last read plus its format bias, the floor
    the priority of the last victim: same victims, same order, ties
    included."""
    rng = np.random.RandomState(7)
    formats = ["json", "csv", "binary_column"]
    array = np.arange(8, dtype=np.int64)  # 64 bytes
    manager = CacheManager(64 * 12)
    reference: dict[tuple, tuple[float, int]] = {}
    bias: dict[tuple, float] = {}
    floor = 0.0
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
            reference[touched] = (floor + bias[touched], manager._clock)
        if len(reference) == 12:
            victim = sorted(reference, key=lambda k: reference[k])[0]
            evicted_expected.append(victim)
            floor = reference.pop(victim)[0]
        manager.store(key, array, [(f"d{step}", source_format)])
        bias[key] = policies.FORMAT_BIAS[source_format]
        reference[key] = (floor + bias[key], manager._clock)
    assert evicted_seen == evicted_expected
    assert manager.stats.evictions == len(evicted_expected) == 188
