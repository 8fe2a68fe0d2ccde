"""Tests for the batch executor's morsel fan-out.

Covers:

* a differential suite asserting Volcano, the batch pipeline run inline and
  the batch pipeline fanned out over morsels return identical rows (nulls,
  NaN, big ints, ORDER BY, LIMIT, joins, group-bys, unnest, empty morsels)
  across worker counts 1 / 2 / 8,
* the merged-tier matrix: every plan-root shape x worker count x input kind
  (raw CSV / binary row table / single morsel) is served by tier
  ``codegen`` with the profile reflecting the executor's fan-out decision
  and the one sort-strategy label of each shape, Volcano's included,
* binary row tables fan out like every other format and return the rows of
  their binary-column twin,
* determinism: repeated fanned-out runs return identical row orderings, and
  integer results are bit-identical to an inline run,
* the fan-out decision for single-morsel inputs, and the Volcano fallback
  for non-vectorizable shapes,
* the batch pipeline's use of the adaptive cache (hits and
  materializations),
* unit coverage of morsel planning, the work-stealing scheduler, the join
  table of a fanned-out build side and the plug-in ``scan_batch_ranges``
  API.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro import ProteusEngine
from repro.caching.manager import estimate_size
from repro.core import types as t
from repro.core.executor import radix
from repro.core.parallel import Morsel, WorkerPool, WorkStealingQueue, plan_morsels
from repro.core.columns import EncodedColumn, dictionary_nbytes
from repro.storage.binary_format import write_column_table, write_row_table

SAILOR_COUNT = 600
SHIP_COUNT = 250
NULL_COUNT = 300

SAILORS_SCHEMA = t.make_schema(
    {"sid": "int", "sname": "string", "rating": "int", "age": "float"}
)
NULLS_SCHEMA = t.make_schema({"id": "int", "val": "float", "tag": "string"})
ORDERS_SCHEMA = t.make_schema(
    {
        "okey": "int",
        "total": "float",
        "origin": {"country": "string"},
        "lines": [{"item": "int", "qty": "int", "subs": [{"s": "int"}]}],
    }
)

#: A morsel is one batch: batches this small make even the 90-row dataset
#: span the ``LINEAR_ROOT_MORSELS`` a projection / aggregate / build-side
#: root needs before it fans out (group-bys need two).
BATCH_SIZE = 4


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("parallel_workloads")

    with open(directory / "sailors.csv", "w", encoding="utf-8") as handle:
        handle.write("sid,sname,rating,age\n")
        for i in range(SAILOR_COUNT):
            handle.write(f"{i},sailor{i % 7},{i % 10},{18.0 + (i * 3) % 40}\n")

    ships_schema = t.make_schema(
        {"shid": "int", "owner": "int", "tons": "float", "built": "int"}
    )
    write_column_table(
        str(directory / "ships_columns"),
        {
            "shid": np.arange(SHIP_COUNT, dtype=np.int64),
            "owner": (np.arange(SHIP_COUNT) * 3 % SAILOR_COUNT).astype(np.int64),
            "tons": np.round(50.0 + np.arange(SHIP_COUNT) * 7.5, 2),
            "built": (1980 + np.arange(SHIP_COUNT) % 30).astype(np.int64),
        },
        ships_schema,
    )

    with open(directory / "nulls.json", "w", encoding="utf-8") as handle:
        for i in range(NULL_COUNT):
            record = {
                "id": i,
                "val": None if i % 3 == 0 else i * 2.0,
                "tag": None if i % 5 == 0 else f"t{i % 2}",
            }
            handle.write(json.dumps(record) + "\n")

    with open(directory / "nanvals.csv", "w", encoding="utf-8") as handle:
        handle.write("id,val\n")
        for i in range(120):
            handle.write(f"{i},{'nan' if i % 4 == 0 else i * 1.5}\n")

    big = 2**53 + 1
    with open(directory / "bigints.csv", "w", encoding="utf-8") as handle:
        handle.write("g,k\n")
        for i in range(200):
            handle.write(f"{i % 3},{big + i}\n")

    with open(directory / "orders.json", "w", encoding="utf-8") as handle:
        for i in range(180):
            record = {
                "okey": i,
                "total": round(i * 2.5, 2),
                "origin": {"country": "CH" if i % 2 else "US"},
                "lines": [
                    {
                        "item": j,
                        "qty": j + 1,
                        "subs": [{"s": i + k} for k in range((i + j) % 3)],
                    }
                    for j in range(i % 4)
                ],
            }
            handle.write(json.dumps(record) + "\n")

    write_row_table(
        str(directory / "rows.bin"),
        {"rid": np.arange(200, dtype=np.int64)},
        t.make_schema({"rid": "int"}),
    )

    # The sailors once more, as a row table and as its binary-column twin.
    sids = np.arange(SAILOR_COUNT, dtype=np.int64)
    sailors = {
        "sid": sids,
        "sname": np.asarray([f"sailor{i % 7}" for i in range(SAILOR_COUNT)], dtype=object),
        "rating": sids % 10,
        "age": 18.0 + (sids * 3) % 40,
    }
    write_row_table(str(directory / "sailors_rows.bin"), sailors, SAILORS_SCHEMA)
    write_column_table(str(directory / "sailors_columns"), sailors, SAILORS_SCHEMA)

    # Integers beyond int64: an object column only the comparator can sort.
    with open(directory / "huge.json", "w", encoding="utf-8") as handle:
        for i in range(90):
            handle.write(json.dumps({"id": i, "big": 2**70 + (i * 37) % 50}) + "\n")

    with open(directory / "empty.csv", "w", encoding="utf-8") as handle:
        handle.write("id,v\n")

    return str(directory)


def _make_engine(workload_dir: str, **kwargs) -> ProteusEngine:
    kwargs.setdefault("vectorized_batch_size", BATCH_SIZE)
    engine = ProteusEngine(enable_caching=False, **kwargs)
    engine.register_csv(
        "sailors", os.path.join(workload_dir, "sailors.csv"), schema=SAILORS_SCHEMA
    )
    engine.register_binary_columns(
        "ships", os.path.join(workload_dir, "ships_columns")
    )
    engine.register_json(
        "nulls", os.path.join(workload_dir, "nulls.json"), schema=NULLS_SCHEMA
    )
    engine.register_csv(
        "nanvals",
        os.path.join(workload_dir, "nanvals.csv"),
        schema=t.make_schema({"id": "int", "val": "float"}),
    )
    engine.register_csv(
        "bigints",
        os.path.join(workload_dir, "bigints.csv"),
        schema=t.make_schema({"g": "int", "k": "int"}),
    )
    engine.register_json(
        "orders", os.path.join(workload_dir, "orders.json"), schema=ORDERS_SCHEMA
    )
    engine.register_binary_rows("rowtable", os.path.join(workload_dir, "rows.bin"))
    engine.register_binary_rows(
        "sailors_rows", os.path.join(workload_dir, "sailors_rows.bin")
    )
    engine.register_binary_columns(
        "sailors_cols", os.path.join(workload_dir, "sailors_columns")
    )
    engine.register_json("huge", os.path.join(workload_dir, "huge.json"))
    engine.register_csv(
        "empty",
        os.path.join(workload_dir, "empty.csv"),
        schema=t.make_schema({"id": "int", "v": "int"}),
    )
    return engine


@pytest.fixture(scope="module")
def volcano_engine(workload_dir):
    return _make_engine(workload_dir, enable_codegen=False)


@pytest.fixture(scope="module")
def serial_engine(workload_dir):
    return _make_engine(workload_dir)


@pytest.fixture(scope="module")
def parallel_engine(workload_dir):
    return _make_engine(workload_dir, parallel_workers=4)


def _assert_rows_match(actual, expected, query="", ordered=True):
    """Row equality, with float cells compared to 1e-12 relative tolerance
    (the merge of per-batch and per-morsel partial sums reassociates float
    additions, so a float SUM or AVG may move in the last ulp, and only
    where the order of its partial sums changes); everything else must be
    identical, type included (``42.0 == 42`` does not pass).
    ``ordered=False`` compares as multisets — the Volcano interpreter's row
    order legitimately differs from the batch tier's (first-seen vs
    lexicographic group order).
    """
    assert len(actual) == len(expected), (query, len(actual), len(expected))
    if not ordered:
        actual = sorted(actual, key=repr)
        expected = sorted(expected, key=repr)
    for row_index, (left, right) in enumerate(zip(actual, expected)):
        assert len(left) == len(right), (query, row_index)
        for a, b in zip(left, right):
            if isinstance(a, float) and isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) or (
                    math.isnan(a) and math.isnan(b)
                ), (query, row_index, a, b)
            else:
                assert type(a) is type(b), (query, row_index, a, b)
                assert a == b, (query, row_index, a, b)


DIFFERENTIAL_QUERIES = [
    # Selections, projections, ORDER BY, LIMIT.
    "SELECT sid, age FROM sailors WHERE rating >= 7 ORDER BY sid LIMIT 9",
    "SELECT sid, sname FROM sailors WHERE age < 30 ORDER BY sid DESC",
    "SELECT 7 AS c FROM sailors WHERE rating > 7",
    # Empty morsels: the filter keeps only the first few rows, so every
    # later morsel produces nothing.
    "SELECT sid FROM sailors WHERE sid < 3",
    # ORDER BY + LIMIT where every morsel but the last is empty: the empty
    # ranges must not turn the int column into floats.
    "SELECT sid, age FROM sailors WHERE sid >= 590 ORDER BY age DESC LIMIT 5",
    # No morsel survives at all.
    "SELECT sid FROM sailors WHERE rating > 1000",
    # Global aggregates (one-group partials + the group-by merge).
    "SELECT COUNT(*) FROM sailors WHERE rating > 4",
    "SELECT COUNT(*), SUM(age), MIN(age), MAX(age) FROM sailors",
    "SELECT SUM(age) / COUNT(*) FROM sailors WHERE rating < 9",
    "SELECT MAX(tons), MIN(built) FROM ships WHERE built >= 1990",
    # Group-by (partial grouping + grouped merge), including aggregate
    # arithmetic in the heads.
    "SELECT rating, COUNT(*), MAX(age) FROM sailors GROUP BY rating",
    "SELECT sname, COUNT(*) FROM sailors GROUP BY sname ORDER BY sname",
    "SELECT built, SUM(tons) / COUNT(*) FROM ships GROUP BY built",
    "SELECT rating, MAX(age) > 30 AND MIN(age) > 18 FROM sailors GROUP BY rating",
    # Joins across formats (shared build side, morsel-parallel probe).
    "SELECT COUNT(*) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.rating > 2",
    "SELECT SUM(h.tons) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.age < 40 AND h.built > 1985",
    "SELECT s.rating, COUNT(*) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "GROUP BY s.rating",
    # Empty build side: produces nothing without demoting the tier.
    "SELECT s.sid, h.tons FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.rating > 1000",
    # Nulls and NaN: missing values must not qualify predicates and must be
    # skipped by aggregates, in every tier.
    "SELECT COUNT(*) FROM nulls WHERE val > 10",
    "SELECT COUNT(*) FROM nulls WHERE val != 4",
    "SELECT COUNT(*) FROM nulls WHERE tag = 't1'",
    "SELECT SUM(val), MIN(val), MAX(val) FROM nulls WHERE id >= 0",
    "SELECT MAX(val), MIN(val) FROM nulls WHERE id < 1",
    "SELECT id, val FROM nulls ORDER BY val",
    "SELECT id FROM nulls WHERE val",
    "SELECT SUM(val), MIN(val), MAX(val) FROM nanvals",
    "SELECT COUNT(*) FROM nanvals WHERE val != 1.5",
    "SELECT id FROM nanvals WHERE NOT val",
    # Big ints: exact sums/extrema above 2**53 across morsel merges.
    "SELECT g, MAX(k), SUM(k) FROM bigints GROUP BY g",
    "SELECT SUM(k) FROM bigints",
    # Nested JSON: unnest runs inside every worker.
    "SELECT origin.country, COUNT(*) FROM orders GROUP BY origin.country",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield count",
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)",
    # Empty dataset (zero morsels).
    "SELECT COUNT(*) FROM empty",
    "SELECT id FROM empty WHERE v > 0",
]


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_volcano_inline_and_fanout_return_identical_rows(
    volcano_engine, serial_engine, parallel_engine, query
):
    reference = volcano_engine.query(query)
    assert reference.tier == "volcano"
    serial = serial_engine.query(query)
    assert serial.tier in ("codegen", "volcano")
    assert serial.profile.morsels_dispatched == 0
    parallel = parallel_engine.query(query)
    assert parallel.tier == serial.tier
    # Volcano orders rows first-seen; the batch tier may differ — multiset.
    _assert_rows_match(serial.rows, reference.rows, query, ordered=False)
    # A fanned-out run must reproduce the inline run's order exactly.
    _assert_rows_match(parallel.rows, serial.rows, query)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_worker_counts_return_identical_rows(workload_dir, serial_engine, workers):
    engine = _make_engine(workload_dir, parallel_workers=workers)
    for query in DIFFERENTIAL_QUERIES:
        expected = serial_engine.query(query)
        actual = engine.query(query)
        _assert_rows_match(actual.rows, expected.rows, query)


def test_integer_results_are_bit_identical_to_serial(workload_dir, serial_engine):
    """For integer data the ordered morsel merge reproduces the serial rows
    exactly — including row order — not merely as a multiset."""
    engine = _make_engine(workload_dir, parallel_workers=4)
    for query in (
        "SELECT sid, rating FROM sailors WHERE rating >= 5",
        "SELECT rating, COUNT(*) FROM sailors GROUP BY rating",
        "SELECT s.sid, h.shid FROM sailors s JOIN ships h ON s.sid = h.owner",
        "SELECT g, MAX(k), SUM(k) FROM bigints GROUP BY g",
    ):
        actual = engine.query(query)
        assert actual.tier == "codegen", query
        assert actual.profile.morsels_dispatched > 1, query
        assert actual.rows == serial_engine.query(query).rows, query


def test_repeated_parallel_runs_are_deterministic(workload_dir):
    engine = _make_engine(workload_dir, parallel_workers=8)
    queries = [
        "SELECT s.rating, SUM(h.tons), COUNT(*) FROM sailors s "
        "JOIN ships h ON s.sid = h.owner GROUP BY s.rating",
        "SELECT sid, age FROM sailors WHERE rating > 3",
        "SELECT SUM(val), MAX(val) FROM nulls",
    ]
    for query in queries:
        runs = [engine.query(query).rows for _ in range(4)]
        assert runs[0] == runs[1] == runs[2] == runs[3], query


def test_fanout_attribution_and_profile(parallel_engine):
    result = parallel_engine.query("SELECT COUNT(*) FROM sailors WHERE rating > 4")
    assert result.tier == "codegen"
    profile = result.profile
    assert profile.execution_tier == "codegen"
    assert profile.parallel_workers == 4
    assert profile.morsels_dispatched > 1
    assert profile.rows_scanned == SAILOR_COUNT
    assert profile.batches_processed >= profile.morsels_dispatched


def test_row_table_scan_fans_out(parallel_engine):
    # A row table serves row ranges like every other format: its 200 rows
    # are 50 morsels, enough for a global aggregate to fan out.
    result = parallel_engine.query("SELECT COUNT(*) FROM rowtable WHERE rid < 50")
    assert result.tier == "codegen"
    assert result.profile.parallel_workers == 4
    assert result.profile.morsels_dispatched > 1
    assert result.rows == [(50,)]


def test_single_morsel_input_runs_inline(workload_dir):
    engine = _make_engine(workload_dir, parallel_workers=4)
    engine.vectorized_batch_size = 4096  # one morsel covers all 600 rows
    result = engine.query("SELECT COUNT(*) FROM sailors")
    assert result.tier == "codegen"
    assert result.profile.morsels_dispatched == 0
    assert result.rows == [(SAILOR_COUNT,)]


def test_row_table_probe_and_build_side_both_fan_out(workload_dir):
    # One decision per scan: the row-table probe side and the column-table
    # build side are each split into morsels.
    engine = _make_engine(workload_dir, parallel_workers=4)
    query = (
        "SELECT COUNT(*) FROM sailors_rows r JOIN ships h ON r.sid = h.owner"
    )
    result = engine.query(query)
    assert result.tier == "codegen"
    assert result.profile.parallel_workers == 4
    assert result.profile.morsels_dispatched > -(-SHIP_COUNT // BATCH_SIZE)
    assert result.rows == _make_engine(workload_dir).query(query).rows


def test_null_group_keys_stay_on_the_pipeline(volcano_engine, parallel_engine):
    """A null group key is one group, ``None``, on the fanned-out pipeline
    too: no tier change, Volcano's rows."""
    query = "SELECT tag, COUNT(*) FROM nulls GROUP BY tag"
    reference = volcano_engine.query(query)
    result = parallel_engine.query(query)
    assert result.tier == "codegen"
    assert result.profile.tier_decline_reasons == {}
    assert sorted(result.rows, key=repr) == sorted(reference.rows, key=repr)


def test_parallel_workers_flag_defaults_to_serial(workload_dir):
    engine = _make_engine(workload_dir)  # no parallel_workers argument
    assert engine.parallel_workers == 1
    result = engine.query("SELECT COUNT(*) FROM sailors")
    assert result.tier == "codegen"
    assert result.profile.morsels_dispatched == 0
    # ``parallel_workers=1`` is the one way to keep execution serial (the
    # constructor's parameter list is pinned in test_engine.py).


# ---------------------------------------------------------------------------
# The merged tier: root shape x worker count x input kind
# ---------------------------------------------------------------------------

#: (table, batch size) per input kind.  ``{t}`` in the shape queries is the
#: table; the batch size decides how many morsels its 600 rows span.
INPUT_KINDS = {
    "splittable": ("sailors", BATCH_SIZE),
    "row-table": ("sailors_rows", BATCH_SIZE),
    "single-morsel": ("sailors", 4096),
}

#: shape -> (query, ordered?, sort strategy).  The engine's epilogue runs
#: every sort, so a label depends on the shape only — never on fan-out.
ROOT_SHAPES = {
    "projection": ("SELECT sid, rating FROM {t} WHERE rating >= 5", True, None),
    "pure-limit": ("SELECT sid FROM {t} LIMIT 7", True, None),
    "order-by-1": (
        "SELECT sid, age FROM {t} ORDER BY age DESC",
        True, "lexsort",
    ),
    "order-by-1-limit": (
        "SELECT sid, age FROM {t} ORDER BY age LIMIT 9",
        True, "topk",
    ),
    "order-by-2": (
        "SELECT sid, rating FROM {t} ORDER BY rating, sid DESC",
        True, "lexsort",
    ),
    "order-by-2-limit": (
        "SELECT sid, rating FROM {t} ORDER BY rating DESC, sid LIMIT 11",
        True, "topk",
    ),
    "limit-0": ("SELECT sid, age FROM {t} ORDER BY sid LIMIT 0", True, "topk"),
    "global-aggregate": (
        "SELECT COUNT(*), SUM(rating), MAX(age) FROM {t} WHERE rating > 2",
        True, None,
    ),
    "global-aggregate-empty": (
        "SELECT COUNT(*), SUM(rating), MIN(age), MAX(age), AVG(age), COUNT(age) "
        "FROM {t} WHERE rating > 100",
        True, None,
    ),
    "global-aggregate-heads": (
        "SELECT SUM(rating) / COUNT(*), MAX(age) > 30, COUNT(*) + 1, 7 AS seven "
        "FROM {t}",
        True, None,
    ),
    "global-aggregate-strings": (
        "SELECT MIN(sname), MAX(sname), COUNT(sname) FROM {t}", True, None,
    ),
    "group-by": (
        "SELECT rating, COUNT(*), MAX(sid) FROM {t} GROUP BY rating",
        False, None,
    ),
    "string-group-by": (
        "SELECT sname, COUNT(*), MIN(age) FROM {t} GROUP BY sname",
        False, None,
    ),
    "hash-join": (
        "SELECT s.sid, h.rating FROM {t} s JOIN {t} h ON s.sid = h.sid "
        "WHERE h.rating > 6",
        False, None,
    ),
}

#: Nested and non-encodable data only exists as JSON.
JSON_SHAPES = {
    "inner-unnest": (
        "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)",
        False, None,
    ),
    "outer-unnest": (
        "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)",
        False, None,
    ),
    "nested-unnest": (
        "for { o <- orders, l <- o.lines, s <- l.subs } yield bag (o.okey, s.s)",
        False, None,
    ),
    "order-by-object": (
        "SELECT id, big FROM huge ORDER BY big DESC",
        True, "object-fallback",
    ),
}

MERGED_TIER_CASES = [
    (shape, kind) for shape in ROOT_SHAPES for kind in INPUT_KINDS
] + [
    (shape, kind)
    for shape in JSON_SHAPES
    for kind in ("splittable", "single-morsel")
]


@pytest.fixture(scope="module")
def engine_for(workload_dir):
    """Engines by (pipeline workers or None for Volcano, batch size)."""
    engines: dict[tuple, ProteusEngine] = {}

    def get(workers: int | None, batch_size: int) -> ProteusEngine:
        key = (workers, batch_size)
        if key not in engines:
            config = (
                {"enable_codegen": False}
                if workers is None
                else {"parallel_workers": workers}
            )
            engines[key] = _make_engine(
                workload_dir, vectorized_batch_size=batch_size, **config
            )
        return engines[key]

    return get


@pytest.mark.parametrize("shape,kind", MERGED_TIER_CASES)
def test_merged_tier_matrix(engine_for, shape, kind):
    query, ordered, strategy = {**ROOT_SHAPES, **JSON_SHAPES}[shape]
    table, batch_size = INPUT_KINDS[kind]
    query = query.replace("{t}", table)
    reference = engine_for(None, batch_size).query(query)
    assert reference.tier == "volcano"
    assert reference.profile.sort_strategy == strategy
    rows_by_workers = {}
    for workers in (1, 2, 8):
        result = engine_for(workers, batch_size).query(query)
        label = (shape, kind, workers)
        assert result.tier == "codegen", label
        _assert_rows_match(result.rows, reference.rows, query, ordered=ordered)
        profile = result.profile
        if workers > 1 and kind != "single-morsel":
            assert profile.parallel_workers == workers, label
            assert profile.morsels_dispatched > 1, label
        else:
            assert profile.parallel_workers == 0, label
            assert profile.morsels_dispatched == 0, label
            assert profile.morsels_stolen == 0, label
        assert profile.sort_strategy == strategy, label
        rows_by_workers[workers] = result.rows
        if kind == "row-table":
            # Its binary-column twin holds the same sailors.
            twin = engine_for(workers, batch_size).query(
                query.replace(table, "sailors_cols")
            )
            assert result.rows == twin.rows, label
    # No float sums among the shapes: bit-identical at every worker count,
    # row order included.
    assert rows_by_workers[1] == rows_by_workers[2] == rows_by_workers[8]


# ---------------------------------------------------------------------------
# Adaptive caching from the batch tier
# ---------------------------------------------------------------------------


def _caching_engine(workload_dir: str, **kwargs) -> ProteusEngine:
    engine = ProteusEngine(
        enable_caching=True,
        vectorized_batch_size=BATCH_SIZE,
        **kwargs,
    )
    engine.register_csv(
        "sailors", os.path.join(workload_dir, "sailors.csv"), schema=SAILORS_SCHEMA
    )
    return engine


@pytest.mark.parametrize("workers", [1, 4])
def test_pipeline_populates_and_hits_the_cache(workload_dir, workers):
    engine = _caching_engine(workload_dir, parallel_workers=workers)
    query = "SELECT SUM(sid) FROM sailors WHERE rating > 2"
    first = engine.query(query)
    # The scan materialized the predicate's column into the adaptive cache;
    # ``sid`` was converted lazily, for the surviving rows only, and a
    # selective extraction never enters the cache.
    descriptions = {entry.description for entry in engine.cache_entries()}
    assert "sailors.rating" in descriptions
    assert "sailors.sid" not in descriptions
    hits_before = engine.cache_stats.hits
    second = engine.query(query)
    assert engine.cache_stats.hits > hits_before
    assert second.profile.values_from_cache > 0
    assert second.rows == first.rows


def test_string_columns_are_cached_encoded(workload_dir):
    """§6: strings are cached as dictionary codes — one ``int32`` per row
    plus the distinct values, sized exactly — served to the next query and
    released by eviction; a cacheless engine keeps nothing."""
    query = "SELECT sname, COUNT(*) FROM sailors GROUP BY sname"
    engine = _caching_engine(workload_dir, parallel_workers=4)
    first = engine.query(query)
    assert first.profile.morsels_dispatched > 0  # morsel dictionaries, unioned
    (entry,) = [e for e in engine.cache_entries() if e.description == "sailors.sname"]
    column = entry.data
    assert isinstance(column, EncodedColumn)
    assert list(column.values) == [f"sailor{i}" for i in range(7)]
    assert column.tolist() == [f"sailor{i % 7}" for i in range(SAILOR_COUNT)]
    assert entry.size_bytes == 4 * SAILOR_COUNT + dictionary_nbytes(column.values)
    assert entry.size_bytes == column.nbytes < estimate_size(column.decode())
    second = engine.query(query)
    assert second.profile.values_from_cache == SAILOR_COUNT
    assert second.profile.values_extracted == 0
    assert second.rows == first.rows
    used = engine.cache_manager.used_bytes
    engine.cache_manager.evict(entry.key)
    assert engine.cache_manager.used_bytes == used - entry.size_bytes
    assert not [e for e in engine.cache_entries() if e.description == "sailors.sname"]
    assert engine.query(query).profile.values_from_cache == 0
    cacheless = ProteusEngine(enable_caching=False, vectorized_batch_size=BATCH_SIZE)
    cacheless.register_csv(
        "sailors", os.path.join(workload_dir, "sailors.csv"), schema=SAILORS_SCHEMA
    )
    cacheless.query(query)
    assert cacheless.cache_entries() == []
    assert cacheless.query(query).profile.values_from_cache == 0


def test_incomplete_scans_are_not_cached(workload_dir):
    engine = _caching_engine(workload_dir)
    # The inner join's build side is empty, so the probe-side scan never
    # runs; nothing incomplete may be admitted for the probe side's columns.
    engine.query(
        "SELECT s.sid, h.age FROM sailors s JOIN sailors h ON s.sid = h.sid "
        "WHERE h.rating > 1000 AND s.age > 0"
    )
    for entry in engine.cache_entries():
        if entry.kind == "field":
            assert len(entry.data) == SAILOR_COUNT, entry.description


# ---------------------------------------------------------------------------
# Morsel planning and the work-stealing scheduler
# ---------------------------------------------------------------------------


def test_plan_morsels_are_whole_batches():
    morsels = plan_morsels(total_rows=1000, batch_size=64)
    assert [morsel.rows for morsel in morsels] == [64] * 15 + [40]
    assert morsels[0].start == 0
    assert morsels[-1].stop == 1000
    for previous, current in zip(morsels, morsels[1:]):
        assert current.start == previous.stop


def test_plan_morsels_edge_cases():
    assert plan_morsels(0, 4096) == []
    # Never shrunk to manufacture parallelism: one batch is one morsel.
    assert plan_morsels(10, 4096) == [Morsel(0, 0, 10)]


def test_work_stealing_queue_dispatches_everything_once():
    queue = WorkStealingQueue(list(range(10)), num_workers=3)
    seen = []
    # Worker 2 drains everything: its own block first, then steals.
    while True:
        task = queue.next_task(2)
        if task is None:
            break
        seen.append(task)
    assert sorted(index for index, _ in seen) == list(range(10))
    assert queue.dispatched == 10
    assert queue.stolen > 0
    assert queue.next_task(0) is None


def test_worker_pool_preserves_submission_order():
    pool = WorkerPool(num_workers=4)
    results = pool.run(list(range(50)), lambda item, worker: item * 2)
    assert results == [item * 2 for item in range(50)]


def test_worker_pool_propagates_errors():
    pool = WorkerPool(num_workers=4)

    def explode(item, worker):
        if item == 13:
            raise ValueError("boom")
        return item

    with pytest.raises(ValueError, match="boom"):
        pool.run(list(range(40)), explode)


#: An aggregate argument reading both inputs keeps each join probing a
#: build-side table (an aggregate of one input per argument runs per key).
@pytest.mark.parametrize(
    "query,kernel",
    [
        (
            "SELECT COUNT(*), MAX(s.sid + h.sid) FROM sailors s JOIN sailors h "
            "ON s.sid = h.rating",
            radix.KERNEL_DENSE,
        ),
        (
            "SELECT COUNT(*), MAX(s.sid + h.sid) FROM sailors s JOIN sailors h "
            "ON s.sname = h.sname WHERE h.sid < 40",
            radix.KERNEL_DENSE,  # on the dictionary codes of the names
        ),
        (
            "SELECT COUNT(*), MAX(s.sid + h.sid) FROM sailors s JOIN sailors h "
            "ON s.age = h.age WHERE h.sid < 40",
            radix.KERNEL_SORTED,  # float keys
        ),
    ],
)
def test_fanned_out_build_side_table_matches_serial(workload_dir, query, kernel):
    """A build side materialized by morsels yields exactly the key slots of
    an inline build: the morsels concatenate in order and the slots
    themselves are one pass on the calling thread."""
    tables = []
    for workers in (1, 4):
        engine = _caching_engine(workload_dir, parallel_workers=workers)
        result = engine.query(query)
        assert result.profile.join_kernels == [kernel]
        assert (result.profile.morsels_dispatched > 0) == (workers > 1)
        (entry,) = [e for e in engine.cache_entries() if e.kind == "join_side"]
        tables.append(entry.data)
    serial, fanned = tables
    assert serial.kernel == fanned.kernel == kernel
    assert (serial.build_size, serial.size, serial.lo) == (
        fanned.build_size, fanned.size, fanned.lo
    )
    assert serial.unique == fanned.unique
    for name in ("lookup", "distinct", "slots", "order", "offsets"):
        ours, theirs = getattr(serial, name), getattr(fanned, name)
        assert (ours is None) == (theirs is None), name
        assert ours is None or np.array_equal(ours, theirs), name
    # String builds: morsel dictionaries union into the inline one.
    assert (serial.values is None) == (fanned.values is None)
    if serial.values is not None:
        assert list(serial.values) == list(fanned.values)


# ---------------------------------------------------------------------------
# scan_batch_ranges plug-in API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dataset,paths_requested",
    [
        ("sailors", [("sid",), ("age",), ("sname",)]),
        ("nulls", [("id",), ("val",)]),
        ("ships", [("shid",), ("tons",)]),
        ("sailors_rows", [("sid",), ("sname",), ("age",)]),
    ],
)
def test_scan_batch_ranges_matches_scan_batches(
    parallel_engine, dataset, paths_requested
):
    registered = parallel_engine.catalog.get(dataset)
    plugin = parallel_engine.plugins[registered.format]
    total = plugin.scan_row_count(registered)
    assert total > 0
    full = plugin.scan_columns(registered, paths_requested)
    mid = total // 2
    pieces = list(
        plugin.scan_batch_ranges(registered, paths_requested, 0, mid, batch_size=17)
    ) + list(
        plugin.scan_batch_ranges(registered, paths_requested, mid, total, batch_size=17)
    )
    assert sum(piece.count for piece in pieces) == total
    oids = np.concatenate([piece.oids for piece in pieces])
    assert oids.tolist() == list(range(total))
    for path in paths_requested:
        merged = np.concatenate([piece.column(tuple(path)) for piece in pieces])
        reference = full.column(tuple(path))
        assert len(merged) == len(reference), path
        for a, b in zip(merged, reference):
            if isinstance(a, float) and isinstance(b, float) and \
                    math.isnan(a) and math.isnan(b):
                continue
            assert a == b, path


def test_scan_batch_ranges_clamps_to_row_count(parallel_engine):
    registered = parallel_engine.catalog.get("sailors")
    plugin = parallel_engine.plugins[registered.format]
    pieces = list(
        plugin.scan_batch_ranges(
            registered, [("sid",)], SAILOR_COUNT - 5, SAILOR_COUNT + 100, batch_size=3
        )
    )
    assert sum(piece.count for piece in pieces) == 5


def test_row_table_plugin_serves_ranges(parallel_engine):
    registered = parallel_engine.catalog.get("rowtable")
    plugin = parallel_engine.plugins[registered.format]
    assert plugin.scan_row_count(registered) == 200
    pieces = list(plugin.scan_batch_ranges(registered, [("rid",)], 190, 300, batch_size=4))
    assert [piece.count for piece in pieces] == [4, 4, 2]
    assert np.concatenate([piece.column(("rid",)) for piece in pieces]).tolist() == list(
        range(190, 200)
    )
