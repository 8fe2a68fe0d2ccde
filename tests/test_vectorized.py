"""Tests for the vectorized batch executor and the result-assembly fixes.

Covers:

* regression tests for three engine bugs (ORDER BY on a non-projected column,
  stale compiled programs after re-registration, silent broadcast/None-fill in
  result assembly),
* a differential suite asserting the codegen and Volcano tiers return
  identical rows on the Sailors/Ships and JSON workloads,
* unit coverage of the plug-in ``scan_batches`` API (the whole-range
  ``scan_batch_ranges`` of every format).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import ProteusEngine
from repro.core import types as t
from repro.core.engine import ResultSet, _normalize_result_columns
from repro.errors import ExecutionError
from repro.storage.binary_format import write_column_table

from tests.conftest import make_engine

SAILOR_COUNT = 40
SHIP_COUNT = 25

SAILORS_SCHEMA = t.make_schema(
    {"sid": "int", "sname": "string", "rating": "int", "age": "float"}
)
SHIPS_SCHEMA = t.make_schema(
    {"shid": "int", "owner": "int", "tons": "float", "built": "int"}
)
NULLS_SCHEMA = t.make_schema({"id": "int", "val": "float", "tag": "string"})


def sailors() -> list[dict]:
    return [
        {
            "sid": i,
            "sname": f"sailor{i % 7}",
            "rating": i % 10,
            "age": 18.0 + (i * 3) % 40,
        }
        for i in range(SAILOR_COUNT)
    ]


def ships() -> list[dict]:
    return [
        {
            "shid": i,
            "owner": (i * 3) % SAILOR_COUNT,
            "tons": round(50.0 + i * 7.5, 2),
            "built": 1980 + i % 30,
        }
        for i in range(SHIP_COUNT)
    ]


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("vectorized_workloads")

    with open(directory / "sailors.csv", "w", encoding="utf-8") as handle:
        handle.write("sid,sname,rating,age\n")
        for row in sailors():
            handle.write(f"{row['sid']},{row['sname']},{row['rating']},{row['age']}\n")

    rows = ships()
    columns = {
        "shid": np.asarray([r["shid"] for r in rows], dtype=np.int64),
        "owner": np.asarray([r["owner"] for r in rows], dtype=np.int64),
        "tons": np.asarray([r["tons"] for r in rows], dtype=np.float64),
        "built": np.asarray([r["built"] for r in rows], dtype=np.int64),
    }
    write_column_table(str(directory / "ships_columns"), columns, SHIPS_SCHEMA)

    with open(directory / "nanvals.csv", "w", encoding="utf-8") as handle:
        handle.write("id,val\n1,1.5\n2,nan\n3,2.5\n")

    with open(directory / "nulls.json", "w", encoding="utf-8") as handle:
        for i in range(30):
            record = {
                "id": i,
                "val": None if i % 3 == 0 else i * 2.0,
                "tag": None if i % 5 == 0 else f"t{i % 2}",
            }
            handle.write(json.dumps(record) + "\n")

    return str(directory)


def _tier_engine(paths, workload_dir, **kwargs) -> ProteusEngine:
    engine = make_engine(paths, enable_caching=False, **kwargs)
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
    return engine


@pytest.fixture
def tier_engines(paths, workload_dir):
    """(codegen, volcano) engines over the same datasets."""
    return (
        _tier_engine(paths, workload_dir),
        _tier_engine(paths, workload_dir, enable_codegen=False),
    )


def _normalized(rows):
    out = []
    for row in rows:
        out.append(
            tuple(
                round(float(v), 6)
                if isinstance(v, (int, float)) and not isinstance(v, bool)
                else v
                for v in row
            )
        )
    return sorted(out, key=repr)


# ---------------------------------------------------------------------------
# Regression tests for the three engine bugs
# ---------------------------------------------------------------------------


def test_order_by_missing_column_raises(engine):
    with pytest.raises(ExecutionError, match="price"):
        engine.query("SELECT id FROM items_bin ORDER BY price")


def test_order_by_projected_column_still_works(engine):
    result = engine.query("SELECT id FROM items_bin WHERE id < 5 ORDER BY id DESC")
    assert [row[0] for row in result.rows] == [4, 3, 2, 1, 0]


def test_reregister_invalidates_compiled_programs(tmp_path):
    path_a = tmp_path / "a.csv"
    path_a.write_text("k,v\n" + "".join(f"{i},{i}\n" for i in range(10)))
    path_b = tmp_path / "b.csv"
    path_b.write_text("k,v\n" + "".join(f"{i},{i * 100}\n" for i in range(10)))
    schema = t.make_schema({"k": "int", "v": "int"})

    engine = ProteusEngine(enable_caching=False)
    engine.register_csv("swap", str(path_a), schema=schema)
    assert engine.query("SELECT SUM(v) FROM swap").scalar() == sum(range(10))
    # Re-registering the same name with a different file must not serve the
    # stale compiled program (which bakes the old Dataset in as a constant).
    engine.register_csv("swap", str(path_b), schema=schema)
    assert engine.query("SELECT SUM(v) FROM swap").scalar() == sum(range(10)) * 100


def test_reregister_invalidates_caches(tmp_path):
    path_a = tmp_path / "a.csv"
    path_a.write_text("k,v\n" + "".join(f"{i},{i}\n" for i in range(10)))
    path_b = tmp_path / "b.csv"
    path_b.write_text("k,v\n" + "".join(f"{i},{i + 7}\n" for i in range(10)))
    schema = t.make_schema({"k": "int", "v": "int"})

    engine = ProteusEngine(enable_caching=True)
    engine.register_csv("swap", str(path_a), schema=schema)
    assert engine.query("SELECT SUM(v) FROM swap").scalar() == sum(range(10))
    engine.register_csv("swap", str(path_b), schema=schema)
    assert engine.query("SELECT SUM(v) FROM swap").scalar() == sum(range(10)) + 70


def _result_rows(names, columns):
    """Rows of a ResultSet assembled from raw executor output columns."""
    length, data = _normalize_result_columns(names, columns)
    return ResultSet(names, data, tier="codegen", length=length).rows


def test_normalize_result_columns_missing_column_raises():
    with pytest.raises(ExecutionError, match="missing"):
        _normalize_result_columns(["present", "missing"], {"present": [1, 2]})


def test_normalize_result_columns_mismatched_lengths_raise():
    with pytest.raises(ExecutionError, match="mismatched"):
        _normalize_result_columns(["a", "b"], {"a": [1, 2, 3], "b": [1]})
    with pytest.raises(ExecutionError, match="mismatched"):
        _normalize_result_columns(
            ["a", "b"], {"a": np.arange(3), "b": np.arange(2)}
        )


def test_normalize_result_columns_broadcasts_genuine_scalars():
    # Scalar aggregates / literals broadcast across the row count ...
    rows = _result_rows(["n", "x"], {"n": 7, "x": [10, 20, 30]})
    assert rows == [(7, 10), (7, 20), (7, 30)]
    rows = _result_rows(["n", "x"], {"n": np.asarray(7), "x": np.arange(2)})
    assert rows == [(7, 0), (7, 1)]
    # ... and an all-scalar result is a single row.
    assert _result_rows(["a", "b"], {"a": 1, "b": 2.5}) == [(1, 2.5)]


# ---------------------------------------------------------------------------
# Differential suite: codegen vs Volcano
# ---------------------------------------------------------------------------

DIFFERENTIAL_QUERIES = [
    # Sailors/Ships (CSV + binary columns): selections, ORDER BY, LIMIT.
    "SELECT COUNT(*) FROM sailors WHERE rating > 4",
    # Constant-only projections keep the selected row count.
    "SELECT 7 AS c FROM sailors WHERE rating > 7",
    "SELECT sid, age FROM sailors WHERE rating >= 7 ORDER BY sid LIMIT 5",
    "SELECT sid, sname FROM sailors WHERE age < 30 ORDER BY sid DESC",
    "SELECT MAX(tons), MIN(built) FROM ships WHERE built >= 1990",
    # Joins across formats.
    "SELECT COUNT(*) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.rating > 2",
    "SELECT SUM(h.tons) FROM sailors s JOIN ships h ON s.sid = h.owner "
    "WHERE s.age < 40 AND h.built > 1985",
    # Group-by over each side.
    "SELECT rating, COUNT(*), MAX(age) FROM sailors GROUP BY rating",
    "SELECT built, SUM(tons) FROM ships GROUP BY built",
    "SELECT sname, COUNT(*) FROM sailors GROUP BY sname ORDER BY sname",
    # Aggregate arithmetic and logical combinations in group-by heads.
    "SELECT SUM(tons) / COUNT(*) FROM ships WHERE built < 2005",
    "SELECT rating, MAX(age) > 30 AND MIN(age) > 18 FROM sailors GROUP BY rating",
    "SELECT built, SUM(tons) / COUNT(*) FROM ships GROUP BY built",
    # A constant column beside the aggregates stays on the pipeline.
    "SELECT built, COUNT(*), 'x' AS tag FROM ships GROUP BY built",
    # JSON workloads (flat and nested).
    "SELECT COUNT(*) FROM items_json WHERE qty < 5",
    "SELECT qty, COUNT(*), MAX(price) FROM items_json GROUP BY qty ORDER BY qty",
    "SELECT origin.country, COUNT(*) FROM orders GROUP BY origin.country",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield count",
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)",
    # Null handling: missing JSON values must not qualify predicates and must
    # be skipped by aggregates in every tier.
    "SELECT COUNT(*) FROM nulls WHERE val > 10",
    "SELECT COUNT(*) FROM nulls WHERE val != 4",
    "SELECT COUNT(*) FROM nulls WHERE val != tag",
    "SELECT COUNT(*) FROM nulls WHERE tag = 't1'",
    "SELECT COUNT(*) FROM nulls WHERE tag != 't0'",
    "SELECT SUM(val), MIN(val), MAX(val) FROM nulls WHERE id >= 0",
    # All-missing extrema are None (not NaN) in every tier, and arithmetic
    # over them propagates None instead of crashing.
    "SELECT MAX(val), MIN(val) FROM nulls WHERE id < 1",
    "SELECT MAX(val) + 1 FROM nulls WHERE id < 1",
    "SELECT id, MAX(val) + 1 FROM nulls GROUP BY id",
    # Division by a zero aggregate follows NumPy semantics in every tier.
    "SELECT SUM(val) / MIN(id - 1) FROM nanvals",
    # Bare truthiness predicates: missing values are false in every tier.
    "SELECT id FROM nulls WHERE val",
    "SELECT id FROM nulls WHERE tag",
    # Projected / ordered missing numerics surface as None in every tier.
    "SELECT id, val FROM nulls",
    "SELECT id, val FROM nulls ORDER BY val",
    # Genuine NaN values in raw float data behave as missing in every tier.
    "SELECT SUM(val), MIN(val), MAX(val) FROM nanvals",
    "SELECT COUNT(*) FROM nanvals WHERE val != 1.5",
    "SELECT id FROM nanvals WHERE val",
    "SELECT id FROM nanvals WHERE NOT val",
    "SELECT id FROM nanvals WHERE val AND id > 0",
    "SELECT id FROM nanvals WHERE val OR id > 2",
]


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_tiers_return_identical_rows(tier_engines, query):
    codegen_engine, volcano_engine = tier_engines
    reference = volcano_engine.query(query)
    assert reference.tier == "volcano"
    generated = codegen_engine.query(query)
    assert generated.tier == "codegen", query
    assert _normalized(generated.rows) == _normalized(reference.rows), query


def test_batch_pipeline_actually_runs(tier_engines):
    codegen_engine, _ = tier_engines
    result = codegen_engine.query("SELECT COUNT(*) FROM sailors WHERE rating > 4")
    assert result.tier == "codegen"
    assert result.profile is not None
    assert result.profile.execution_tier == "codegen"
    assert result.profile.batches_processed >= 1
    assert result.profile.rows_scanned == SAILOR_COUNT


def test_vectorized_matches_volcano_with_tiny_batches(paths, workload_dir):
    """Multi-batch execution (joins, grouping, unnest) with batch_size 7."""
    small = _tier_engine(paths, workload_dir, vectorized_batch_size=7)
    volcano = _tier_engine(paths, workload_dir, enable_codegen=False)
    for query in DIFFERENTIAL_QUERIES:
        expected = volcano.query(query)
        actual = small.query(query)
        assert _normalized(actual.rows) == _normalized(expected.rows), query


@pytest.mark.parametrize(
    "query",
    [
        # Object keys with None and float keys with NaN-encoded nulls.
        "SELECT tag, COUNT(*) FROM nulls GROUP BY tag",
        "SELECT val, COUNT(*) FROM nulls GROUP BY val",
    ],
)
def test_null_group_keys_stay_on_the_pipeline(tier_engines, query):
    codegen_engine, volcano_engine = tier_engines
    reference = volcano_engine.query(query)
    # The missing keys of a column are one group whose key reads None (not
    # NaN), as in Volcano; the pipeline serves the query.
    result = codegen_engine.query(query)
    assert result.tier == "codegen"
    assert None in [row[0] for row in result.rows]
    assert _normalized(result.rows) == _normalized(reference.rows)


def test_null_join_keys_match_nothing_on_the_pipeline(tier_engines):
    codegen_engine, volcano_engine = tier_engines
    # NaN-encoded missing float keys join nothing — no nan join rows — on
    # both tiers.
    query = (
        "SELECT a.val AS av, b.val AS bv FROM nulls a JOIN nulls b "
        "ON a.val = b.val"
    )
    reference = volcano_engine.query(query)
    assert all(value is not None for row in reference.rows for value in row)
    result = codegen_engine.query(query)
    assert result.tier == "codegen"
    assert _normalized(result.rows) == _normalized(reference.rows)


def test_duplicate_output_names_rejected(tier_engines):
    from repro.errors import PlanningError

    codegen_engine, _ = tier_engines
    # Two different expressions under one output name would silently shadow
    # each other in every executor's name-keyed result columns.
    with pytest.raises(PlanningError, match="sid"):
        codegen_engine.query(
            "SELECT s.sid, h.shid AS sid FROM sailors s "
            "JOIN ships h ON s.sid = h.owner"
        )
    # The same expression repeated under one name is fine — on every tier.
    for engine_under_test in tier_engines:
        result = engine_under_test.query("SELECT sid, sid FROM sailors WHERE sid < 2")
        assert result.rows == [(0, 0), (1, 1)], result.tier


def test_scan_preserves_large_int_precision(tmp_path):
    """CSV/JSON numeric fast paths must not round ints above 2**53 through
    float64 at scan time."""
    big = 2**53 + 1
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(f"g,k\n0,{big}\n0,5\n")
    json_path = tmp_path / "big.json"
    json_path.write_text(
        json.dumps({"g": 0, "k": big}) + "\n" + json.dumps({"g": 0, "k": 5}) + "\n"
    )
    huge = 2**70  # beyond int64: lands in an object buffer, stays exact
    huge_csv = tmp_path / "huge.csv"
    huge_csv.write_text(f"g,k\n0,{huge}\n0,5\n")
    schema = t.make_schema({"g": "int", "k": "int"})
    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_caching=False, enable_codegen=enable_codegen)
        engine.register_csv("bigc", str(csv_path), schema=schema)
        engine.register_json("bigj", str(json_path), schema=schema)
        engine.register_csv("huge", str(huge_csv), schema=schema)
        for source in ("bigc", "bigj"):
            result = engine.query(f"SELECT g, MAX(k) FROM {source} GROUP BY g")
            assert result.rows == [(0, big)], (source, result.tier)
        result = engine.query("SELECT g, MAX(k) FROM huge GROUP BY g")
        assert result.rows == [(0, huge)], result.tier
    # The lazy (scan_columns_at) path must stay exact beyond int64 too.
    dataset = engine.catalog.get("huge")
    lazy = engine.plugins["csv"].scan_columns_at(
        dataset, [("k",)], np.asarray([0], dtype=np.int64)
    )
    assert lazy.column(("k",)).tolist() == [huge]


def test_mixed_type_group_keys_stay_on_the_pipeline(tmp_path):
    """Heterogeneous raw JSON with a key field of mixed types groups by
    Python's equality on the pipeline, as Volcano's dict does — no crash in
    np.unique/argsort, no tier change."""
    path = tmp_path / "het.json"
    path.write_text(
        json.dumps({"k": 0, "v": 1.0}) + "\n" + json.dumps({"k": "a", "v": 2.0}) + "\n"
    )
    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_caching=False, enable_codegen=enable_codegen)
        engine.register_json(
            "het", str(path), schema=t.make_schema({"k": "string", "v": "float"})
        )
        result = engine.query("SELECT k, COUNT(*) FROM het GROUP BY k")
        assert result.tier == ("codegen" if enable_codegen else "volcano")
        assert set(result.rows) == {(0, 1), ("a", 1)}


def test_big_int_arithmetic_and_sums_match_across_tiers(tmp_path):
    """Arithmetic near int64 limits and sums of >2**53 ints must not wrap or
    round on the columnar tiers."""
    near_max = 9_000_000_000_000_000_000  # fits int64; doubling would wrap
    exact = 2**53 + 1
    path = tmp_path / "bigmath.csv"
    path.write_text(f"id,k,v\n1,{near_max},{exact}\n2,5,{exact}\n3,7,{exact}\n")
    schema = t.make_schema({"id": "int", "k": "int", "v": "int"})
    engines = []
    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_caching=False, enable_codegen=enable_codegen)
        engine.register_csv("bigmath", str(path), schema=schema)
        engines.append(engine)
    for query, expected in (
        ("SELECT k * 2 AS dbl FROM bigmath WHERE id = 1", [(near_max * 2,)]),
        ("SELECT SUM(v) FROM bigmath", [(3 * exact,)]),
        ("SELECT id, SUM(v) FROM bigmath GROUP BY id",
         [(1, exact), (2, exact), (3, exact)]),
        ("SELECT SUM(k) FROM bigmath WHERE id >= 2", [(12,)]),
    ):
        for engine in engines:
            result = engine.query(query)
            assert sorted(result.rows) == expected, (query, result.tier, result.rows)


def test_int64_sum_does_not_wrap(tmp_path):
    near_max = 9_000_000_000_000_000_000
    path = tmp_path / "wrap.csv"
    path.write_text(f"id,k\n1,{near_max}\n2,{near_max}\n")
    schema = t.make_schema({"id": "int", "k": "int"})
    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_caching=False, enable_codegen=enable_codegen)
        engine.register_csv("wrap", str(path), schema=schema)
        assert engine.query("SELECT SUM(k) FROM wrap").scalar() == 2 * near_max
        result = engine.query("SELECT id - id, SUM(k) FROM wrap GROUP BY id - id")
        assert result.rows == [(0, 2 * near_max)]


def test_empty_sum_is_integer_zero_on_every_tier(tier_engines):
    for engine in tier_engines:
        result = engine.query("SELECT SUM(val) FROM nulls WHERE id < 0")
        assert result.rows == [(0,)], result.tier
        assert isinstance(result.rows[0][0], int), result.tier


def test_nan_probe_keys_stay_on_the_pipeline(tmp_path):
    """NaN probe keys against an integer build side are pre-filtered by the
    pipeline's join stage — not a Volcano demotion (the
    separate generated runtime used to reject them at the kernel)."""
    build = tmp_path / "b.csv"
    build.write_text("bid,x\n1,10\n2,20\n")
    probe = tmp_path / "r.json"
    probe.write_text(
        json.dumps({"rid": 1, "ref": 1.0}) + "\n"
        + json.dumps({"rid": 2, "ref": None}) + "\n"
    )
    engine = ProteusEngine(enable_caching=False)
    engine.register_csv("b", str(build), schema=t.make_schema({"bid": "int", "x": "int"}))
    engine.register_json("r", str(probe), schema=t.make_schema({"rid": "int", "ref": "float"}))
    result = engine.query("SELECT r.rid, b.x FROM b JOIN r ON b.bid = r.ref")
    assert result.tier == "codegen"
    assert result.profile.tier_decline_reasons == {}
    assert result.rows == [(1, 10)]


def test_json_nullable_big_ints_stay_exact(tmp_path):
    big = 2**53 + 1
    path = tmp_path / "nbig.json"
    path.write_text(
        json.dumps({"g": 0, "k": big}) + "\n" + json.dumps({"g": 0, "k": None}) + "\n"
    )
    schema = t.make_schema({"g": "int", "k": "int"})
    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_caching=False, enable_codegen=enable_codegen)
        engine.register_json("nbig", str(path), schema=schema)
        result = engine.query("SELECT g, MAX(k) FROM nbig GROUP BY g")
        assert result.rows == [(0, big)], result.tier


def test_builtin_attribute_names_do_not_leak(tmp_path):
    """Field names colliding with builtin attributes over non-record values
    resolve to None (not bound methods) on every tier."""
    path = tmp_path / "attr.json"
    path.write_text(
        json.dumps({"id": 1, "a": {"count": 7}}) + "\n"
        + json.dumps({"id": 2, "a": [1, 2]}) + "\n"
    )
    schema = t.make_schema({"id": "int", "a": {"count": "int"}})
    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_caching=False, enable_codegen=enable_codegen)
        engine.register_json("h", str(path), schema=schema)
        result = engine.query("SELECT id FROM h WHERE a.count")
        assert result.rows == [(1,)], result.tier


def test_column_from_values_keeps_huge_ints_exact():
    from repro.core.columns import column_from_values

    for values in ([2**70, 5], [2**70, None, 5]):
        column = column_from_values(values, "int")
        assert column.dtype == object
        assert column.tolist() == values


def test_null_safe_negation_and_arithmetic_helpers():
    from repro.core.executor import radix

    assert radix.null_safe_neg(np.asarray([True, False])).tolist() == [-1, 0]
    boxed = np.asarray([2.0, None], dtype=object)
    assert radix.null_safe_neg(boxed).tolist() == [-2.0, None]
    assert radix.null_safe_arith("+", boxed, 1).tolist() == [3.0, None]


def test_group_extrema_preserve_int64_precision():
    from repro.core.executor import radix

    values = np.asarray([2**53 + 1, 5], dtype=np.int64)
    result = radix.group_aggregate("max", np.asarray([0, 0]), 1, values)
    assert result.dtype == np.int64
    assert int(result[0]) == 2**53 + 1
    result = radix.group_aggregate("min", np.asarray([0, 1]), 2, values)
    assert result.tolist() == [2**53 + 1, 5]


def test_empty_join_build_side_stays_on_the_pipeline(tier_engines):
    codegen_engine, volcano_engine = tier_engines
    # The filter eliminates every build-side row; the join must produce an
    # empty result without demoting the query to the Volcano tier.
    query = (
        "SELECT s.sid, h.tons FROM sailors s JOIN ships h ON s.sid = h.owner "
        "WHERE s.rating > 1000"
    )
    result = codegen_engine.query(query)
    assert result.tier == "codegen"
    assert result.rows == volcano_engine.query(query).rows == []
    # A global aggregate over the empty join still answers its one row.
    query = (
        "SELECT COUNT(*), SUM(h.tons), SUM(s.rating), MAX(s.age) FROM sailors s "
        "JOIN ships h ON s.sid = h.owner WHERE s.rating > 1000"
    )
    result = codegen_engine.query(query)
    assert result.tier == "codegen"
    assert result.profile.output_rows == 1
    expected = volcano_engine.query(query).rows
    assert repr(result.rows) == repr(expected) == "[(0, 0, 0, None)]"


@pytest.mark.parametrize(
    "build_keys,kernel",
    [([2**53, 2**53 + 1], "dense"), ([2**53, 2**53 + 1, 0], "sorted")],
)
def test_large_int_join_keys_do_not_collide(build_keys, kernel):
    """Join keys above 2**53 must not be collapsed through a float64 cast."""
    from repro.core.executor import radix

    space = radix.key_slots(np.asarray(build_keys, dtype=np.int64))
    assert space.kernel == kernel
    left_positions, _ = radix.probe(space, np.asarray([2**53 + 1], dtype=np.int64))
    assert left_positions.tolist() == [1]


def test_int_probe_keys_against_float_build_side():
    """The mirrored direction: int probe keys not exactly representable in
    float64 must not round onto float build keys."""
    from repro.core.executor import radix

    space = radix.key_slots(np.asarray([float(2**53), 3.0]))
    left_positions, right_positions = radix.probe(
        space, np.asarray([2**53 + 1, 3], dtype=np.int64)
    )
    # 2**53 + 1 would round onto the 2**53 build key under a blanket cast.
    assert left_positions.tolist() == [1]
    assert right_positions.tolist() == [1]


def test_int64_min_join_keys_match_in_both_directions():
    """INT64_MIN is a valid, exactly-representable key; the precision guards
    must not drop it."""
    from repro.core.executor import radix

    imin = -(2**63)
    # A sparse range (sorted kernel) and a dense one at the int64 limit;
    # 2**63 is integral but outside int64 and must not wrap onto INT64_MIN.
    for build, kernel, matches in (
        ([imin, 5], "sorted", [0, 1]),
        ([imin, imin + 1], "dense", [0]),
    ):
        space = radix.key_slots(np.asarray(build, dtype=np.int64))
        assert space.kernel == kernel
        left_positions, right_positions = radix.probe(
            space, np.asarray([float(imin), 5.0, 2.0**63])
        )
        assert left_positions.tolist() == matches
        assert right_positions.tolist() == matches
    space = radix.key_slots(np.asarray([float(imin), 5.0]))
    left_positions, _ = radix.probe(space, np.asarray([imin, 5], dtype=np.int64))
    assert sorted(left_positions.tolist()) == [0, 1]


def test_group_code_capacity_guard():
    """Multi-key groupings whose combined code space would wrap int64 are
    re-numbered before it does: distinct key combinations never merge."""
    from repro.core.executor import radix

    rng = np.random.default_rng(7)
    # Four keys of 2**19 distinct values each, every row twice: 2**76 codes.
    keys = [np.tile(rng.permutation(2**19), 2) for _ in range(4)]
    grouping = radix.radix_group(keys)
    distinct, inverse = np.unique(np.stack(keys, axis=1), axis=0, return_inverse=True)
    assert grouping.num_groups == len(distinct) == 2**19
    assert np.array_equal(grouping.group_ids, inverse.ravel())
    assert np.array_equal(np.stack(grouping.key_arrays, axis=1), distinct)
    # Each key alone is dense; the product of the ranges is not, so the
    # grouping takes the factorizing kernel.
    assert radix.radix_group(keys[:1]).kernel == "dense"
    assert radix.radix_group(keys[:2]).kernel == "sorted"


@pytest.mark.parametrize(
    "build_keys,kernel", [([3, 4], "dense"), ([3, 4, 10**15], "sorted")]
)
def test_float_probe_keys_against_int_build_side(build_keys, kernel):
    """Non-integral (and NaN) float probe keys cannot match integer build
    keys; integral ones must, with positions mapped back correctly."""
    from repro.core.executor import radix

    space = radix.key_slots(np.asarray(build_keys, dtype=np.int64))
    assert space.kernel == kernel
    left_positions, right_positions = radix.probe(space, np.asarray([3.5, np.nan, 3.0]))
    assert left_positions.tolist() == [0]
    assert right_positions.tolist() == [2]


def test_flipping_enable_codegen_between_queries_switches_the_tier(tier_engines):
    codegen_engine, _ = tier_engines
    # The verdict cache is keyed by the flag: the same plan runs the
    # generated program, then Volcano once code generation is switched off.
    result = codegen_engine.query("SELECT sid FROM sailors WHERE rating > 8")
    assert result.tier == "codegen"
    codegen_engine.enable_codegen = False
    result = codegen_engine.query("SELECT sid FROM sailors WHERE rating > 8")
    assert result.tier == "volcano"


# ---------------------------------------------------------------------------
# scan_batches plug-in API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dataset,paths_requested",
    [
        ("items_csv", [("id",), ("price",), ("category",)]),
        ("items_json", [("id",), ("qty",)]),
        ("items_bin", [("id",), ("category",)]),
        ("items_rowbin", [("id",), ("category",)]),
        ("orders", [("okey",), ("origin", "country")]),
    ],
)
def test_scan_batches_matches_scan_columns(engine, dataset, paths_requested):
    registered = engine.catalog.get(dataset)
    plugin = engine.plugins[registered.format]
    full = plugin.scan_columns(registered, paths_requested)
    batches = list(plugin.scan_batches(registered, paths_requested, batch_size=32))
    assert sum(batch.count for batch in batches) == full.count
    oids = np.concatenate([batch.oids for batch in batches])
    assert oids.tolist() == list(range(full.count))
    for path in paths_requested:
        merged = np.concatenate([batch.column(tuple(path)) for batch in batches])
        assert [v for v in merged] == [v for v in full.column(tuple(path))]


def test_scan_batches_respects_batch_size(engine):
    registered = engine.catalog.get("items_bin")
    plugin = engine.plugins[registered.format]
    batches = list(plugin.scan_batches(registered, [("id",)], batch_size=50))
    assert [batch.count for batch in batches] == [50, 50, 20]
