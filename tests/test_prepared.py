"""Tests for Engine API v2: prepared parameterized queries + lazy ResultSet.

Covers:

* parsing of ``?`` positional and ``:name`` named placeholders in both
  frontends (including ``LIMIT ?``),
* prepared executions matching literal queries on both execution tiers
  (the codegen tier both inline and fanned out over morsels),
  with exactly one code generation across different parameter values,
* the lazy columnar :class:`ResultSet` (``column_array`` with no rows
  round-trip, incremental ``fetch_batches``, lazy ``rows``),
* parameter-binding errors, ``executemany``, the parameterized join
  build-side cache,
* invalidation of outstanding :class:`PreparedQuery` objects by
  re-registration / unregistration,
* the NULLS LAST ordering fix,
* ``explain()``'s tier-cascade report,
* one query shape across dataset names: shape templates, which prepare a
  text without parsing, planning or analysis, and the module cache keyed by
  the plan's expressions.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pytest

from repro import ProteusEngine
from repro.core import types as t
from repro.core.comprehension_parser import parse_comprehension
from repro.core.concurrency import run_concurrently
from repro.core.engine import ResultSet
from repro.core.expressions import Parameter
from repro.core.sort import sort_columns
from repro.core.sql_parser import parse_sql
from repro.errors import ExecutionError, ProteusError
from tests.conftest import (
    FANOUT_BATCH_SIZE,
    ITEM_COUNT,
    ITEMS_SCHEMA,
    expected_items,
    make_engine,
)


# -- parsing -----------------------------------------------------------------


def test_sql_positional_and_named_parameters():
    comp = parse_sql("SELECT id FROM items WHERE qty < ? AND price > :p AND id != ?")
    assert comp.parameters() == [0, "p", 1]


def test_comprehension_parameters():
    comp = parse_comprehension(
        "for { x <- Data, x.qty < ?, x.price > :lo } yield sum x.price"
    )
    assert comp.parameters() == [0, "lo"]


def test_limit_parameter():
    comp = parse_sql("SELECT id FROM items ORDER BY id LIMIT :n")
    assert isinstance(comp.limit, Parameter)
    assert comp.parameters() == ["n"]


def test_parameter_fingerprint_abstracts_value():
    a = parse_sql("SELECT id FROM items WHERE qty < ?")
    b = parse_sql("SELECT id FROM items WHERE qty < ?")
    c = parse_sql("SELECT id FROM items WHERE qty < 5")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# -- differential correctness across tiers -----------------------------------


TIER_CONFIGS = [
    pytest.param("codegen", {}, id="codegen"),
    pytest.param(
        "codegen", {"vectorized_batch_size": FANOUT_BATCH_SIZE}, id="codegen-batched"
    ),
    pytest.param(
        "codegen",
        {"parallel_workers": 4, "vectorized_batch_size": FANOUT_BATCH_SIZE},
        id="codegen-fanout",
    ),
    pytest.param("volcano", {"enable_codegen": False}, id="volcano"),
]


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_prepared_matches_literal_on_every_tier(paths, tier, config):
    engine = make_engine(paths, enable_caching=False, **config)
    prepared = engine.prepare(
        "SELECT COUNT(*) AS n, SUM(price) AS total FROM items_csv WHERE qty < ?"
    )
    for threshold in (5, 3, 8):
        bound = prepared.execute(threshold)
        literal = engine.query(
            f"SELECT COUNT(*) AS n, SUM(price) AS total FROM items_csv "
            f"WHERE qty < {threshold}"
        )
        assert bound.rows == literal.rows, (tier, threshold)
        assert bound.tier == tier
    # Parameters in the heads over the aggregates.
    heads = engine.prepare(
        "SELECT SUM(price) * :rate AS scaled, MAX(price) > ? AS above, COUNT(*) "
        "FROM items_csv WHERE qty < :q"
    )
    for threshold, bar in ((5, 100.0), (3, 200.0), (0, 1.0)):
        bound = heads.execute(bar, rate=2, q=threshold)
        literal = engine.query(
            f"SELECT SUM(price) * 2 AS scaled, MAX(price) > {bar} AS above, COUNT(*) "
            f"FROM items_csv WHERE qty < {threshold}"
        )
        assert repr(bound.rows) == repr(literal.rows), (tier, threshold)
        assert bound.tier == tier
        assert "TIER009" not in str(bound.profile.tier_decline_reasons)


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_prepared_group_by_with_parameter_in_head(paths, tier, config):
    engine = make_engine(paths, enable_caching=False, **config)
    prepared = engine.prepare(
        "SELECT qty, SUM(price) * :rate AS scaled FROM items_json "
        "GROUP BY qty ORDER BY qty"
    )
    for rate in (1.0, 2.5):
        result = prepared.execute(rate=rate)
        rows = expected_items()
        assert len(result.rows) == 10
        for qty, scaled in result.rows:
            expected = sum(r["price"] for r in rows if r["qty"] == qty) * rate
            assert scaled == pytest.approx(expected), (tier, rate)


def test_prepared_join_with_parameterized_build_side(paths):
    # The build side of the join is filtered by the parameter; categories all
    # have the same cardinality, so a stale cached build table (keyed without
    # the bound value) would go unnoticed by size checks and return the
    # previous category's rows.  Caching is ON to exercise that path.
    engine = make_engine(paths, enable_caching=True)
    prepared = engine.prepare(
        "SELECT SUM(i.id) FROM items_bin i JOIN items_csv c ON i.id = c.id "
        "WHERE i.category = :cat"
    )
    for category in ("cat1", "cat2", "cat1"):
        expected = sum(
            r["id"] for r in expected_items() if r["category"] == category
        )
        assert prepared.execute(cat=category).scalar() == expected, category


def test_parameterized_limit_execution(engine):
    prepared = engine.prepare(
        "SELECT id FROM items_bin WHERE id < 20 ORDER BY id DESC LIMIT ?"
    )
    assert [row[0] for row in prepared.execute(3)] == [19, 18, 17]
    assert len(prepared.execute(7)) == 7


def test_limit_parameter_rejects_non_integers(engine):
    prepared = engine.prepare("SELECT id FROM items_bin ORDER BY id LIMIT :n")
    with pytest.raises(ProteusError, match="LIMIT parameter"):
        prepared.execute(n=None)
    with pytest.raises(ProteusError, match="LIMIT parameter"):
        prepared.execute(n="abc")
    with pytest.raises(ProteusError, match="LIMIT parameter"):
        prepared.execute(n=2.5)
    assert len(prepared.execute(n=3.0)) == 3  # integral floats are fine
    assert len(prepared.execute(n=np.int64(4))) == 4


def test_column_array_is_read_only_view(tmp_path):
    # On the codegen tier the buffer may alias the adaptive cache; a
    # writable view would let user code corrupt later query results.
    path = tmp_path / "vals.csv"
    path.write_text("k,v\n" + "".join(f"{i},{i * 1.5}\n" for i in range(20)))
    engine = ProteusEngine(enable_caching=True)
    engine.register_csv("vals", str(path), schema=t.make_schema({"k": "int", "v": "float"}))
    engine.query("SELECT v FROM vals")  # populates the cache
    result = engine.query("SELECT v FROM vals")  # served from the cache
    arr = result.column_array("v")
    with pytest.raises(ValueError):
        arr[0] = 9999.0
    assert engine.query("SELECT v FROM vals").column("v")[0] == 0.0


def test_unnest_with_parameter(engine):
    prepared = engine.prepare(
        "for { o <- orders, l <- o.lines, l.qty > ? } yield count"
    )
    from tests.conftest import expected_orders

    for threshold in (1, 2):
        expected = sum(
            1
            for order in expected_orders()
            for line in order["lines"]
            if line["qty"] > threshold
        )
        assert prepared.execute(threshold).scalar() == expected


# -- compile-once acceptance ---------------------------------------------------


def test_one_codegen_across_parameter_values(paths):
    engine = make_engine(paths, enable_caching=False)
    prepared = engine.prepare("SELECT COUNT(*) FROM items_bin WHERE qty < ?")
    assert len(engine._compiled) == 0  # codegen is lazy, not at prepare
    first = prepared.execute(5)
    assert first.tier == "codegen"
    assert len(engine._compiled) == 1
    assert first.profile.compiled_from_cache is False
    second = prepared.execute(3)
    assert len(engine._compiled) == 1  # no second code generation
    assert second.profile.compiled_from_cache is True
    assert first.scalar() != second.scalar()


def test_executemany_reuses_one_program(paths):
    engine = make_engine(paths, enable_caching=False)
    prepared = engine.prepare("SELECT COUNT(*) FROM items_bin WHERE qty < ?")
    results = prepared.executemany([(2,), (4,), {0: 6}, 8])
    expected = [
        sum(1 for r in expected_items() if r["qty"] < value) for value in (2, 4, 6, 8)
    ]
    assert [r.scalar() for r in results] == expected
    assert len(engine._compiled) == 1


def test_query_sugar_accepts_parameters(engine):
    expected = sum(1 for r in expected_items() if r["qty"] < 4)
    assert engine.query(
        "SELECT COUNT(*) FROM items_csv WHERE qty < ?", 4
    ).scalar() == expected
    assert engine.query(
        "SELECT COUNT(*) FROM items_csv WHERE qty < :q", q=4
    ).scalar() == expected


# -- parameter binding errors --------------------------------------------------


def test_binding_errors(engine):
    prepared = engine.prepare(
        "SELECT COUNT(*) FROM items_csv WHERE qty < ? AND price > :lo"
    )
    assert prepared.parameters == [0, "lo"]
    with pytest.raises(ProteusError, match="missing value"):
        prepared.execute(5)
    with pytest.raises(ProteusError, match="unknown named parameter"):
        prepared.execute(5, hi=3)
    with pytest.raises(ProteusError, match="positional"):
        prepared.execute(5, 6, lo=1.0)
    # Unbound parameters also fail through the query() sugar.
    with pytest.raises(ProteusError, match="missing value"):
        engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < ?")


# -- lazy columnar ResultSet ---------------------------------------------------


def test_column_array_without_rows_round_trip(engine):
    result = engine.query("SELECT id, price FROM items_bin WHERE id < 50")
    prices = result.column_array("price")
    assert isinstance(prices, np.ndarray)
    assert prices.dtype == np.float64
    assert result._rows is None  # no tuples were materialized
    assert prices.tolist() == [r["price"] for r in expected_items() if r["id"] < 50]
    # Row access still works afterwards, lazily.
    assert len(result.rows) == 50
    with pytest.raises(ExecutionError):
        result.column_array("missing")


def test_fetch_batches_is_incremental(engine):
    result = engine.query("SELECT id FROM items_bin")
    batches = result.fetch_batches(32)
    first = next(batches)
    assert [row[0] for row in first] == list(range(32))
    assert result._rows is None  # prefix consumption does not materialize all
    sizes = [len(first)] + [len(batch) for batch in batches]
    assert sizes == [32, 32, 32, 24]
    with pytest.raises(ExecutionError):
        next(result.fetch_batches(0))


def test_result_set_row_surface(engine):
    result = engine.query("SELECT id, qty FROM items_bin WHERE id < 3")
    assert isinstance(result, ResultSet)
    assert len(result) == 3
    assert result.column("qty") == [0, 1, 2]
    assert result.to_dicts()[0] == {"id": 0, "qty": 0}
    assert list(iter(result)) == result.rows


# -- NULLS LAST ordering fix ---------------------------------------------------


def test_order_by_descending_nulls_last_unit():
    data = {"v": [3.0, None, 1.0, None, 2.0]}
    length, ordered, _ = sort_columns(["v"], 5, dict(data), [("v", False)], None)
    assert ordered["v"] == [3.0, 2.0, 1.0, None, None]
    length, ordered, _ = sort_columns(["v"], 5, dict(data), [("v", True)], None)
    assert ordered["v"] == [1.0, 2.0, 3.0, None, None]


@pytest.mark.parametrize("tier,config", TIER_CONFIGS)
def test_order_by_nulls_last_both_directions(tmp_path, tier, config):
    path = tmp_path / "with_nulls.json"
    with open(path, "w", encoding="utf-8") as handle:
        for record in (
            {"id": 1, "v": 3.0},
            {"id": 2},
            {"id": 3, "v": 1.0},
            {"id": 4},
            {"id": 5, "v": 2.0},
        ):
            handle.write(json.dumps(record) + "\n")
    engine = ProteusEngine(enable_caching=False, **config)
    engine.register_json("x", str(path), schema=t.make_schema({"id": "int", "v": "float"}))
    descending = engine.query("SELECT id, v FROM x ORDER BY v DESC")
    assert [row[1] for row in descending.rows] == [3.0, 2.0, 1.0, None, None]
    ascending = engine.query("SELECT id, v FROM x ORDER BY v ASC")
    assert [row[1] for row in ascending.rows] == [1.0, 2.0, 3.0, None, None]


# -- invalidation of outstanding prepared queries ------------------------------


def test_reregistration_invalidates_prepared_queries(tmp_path):
    path_a = tmp_path / "a.csv"
    path_a.write_text("k,v\n" + "".join(f"{i},{i}\n" for i in range(10)))
    path_b = tmp_path / "b.csv"
    path_b.write_text("k,v\n" + "".join(f"{i},{i * 100}\n" for i in range(10)))
    schema = t.make_schema({"k": "int", "v": "int"})

    engine = ProteusEngine(enable_caching=True)
    engine.register_csv("swap", str(path_a), schema=schema)
    prepared = engine.prepare("SELECT SUM(v) FROM swap WHERE k < ?")
    assert prepared.execute(10).scalar() == sum(range(10))
    # Re-registering the same name must invalidate the outstanding prepared
    # query (its plan bakes the old Dataset in); the next execution
    # transparently re-prepares against the new file.
    engine.register_csv("swap", str(path_b), schema=schema)
    assert prepared.execute(10).scalar() == sum(range(10)) * 100
    # Different parameter values keep working after the re-prepare.
    assert prepared.execute(5).scalar() == sum(range(5)) * 100


def test_unregister_fails_outstanding_prepared_queries(tmp_path):
    path = tmp_path / "gone.csv"
    path.write_text("k\n1\n2\n")
    engine = ProteusEngine(enable_caching=False)
    engine.register_csv("gone", str(path), schema=t.make_schema({"k": "int"}))
    prepared = engine.prepare("SELECT COUNT(*) FROM gone WHERE k < ?")
    assert prepared.execute(10).scalar() == 2
    engine.unregister("gone")
    with pytest.raises(ProteusError):
        prepared.execute(10)


def test_reregistration_reanalyzes_but_reuses_the_module(tmp_path):
    """A new declared type for a field the query reads: the next execution
    re-analyzes against the new schema, and the generated module — a
    function of the plan's expressions, never of a schema — is reused."""
    path = tmp_path / "typed.csv"
    path.write_text("k,v\n" + "".join(f"{i},{i}\n" for i in range(10)))
    engine = ProteusEngine(enable_caching=True)
    engine.register_csv("typed", str(path), schema=t.make_schema({"k": "int", "v": "int"}))
    prepared = engine.prepare("SELECT v FROM typed WHERE k < 5")
    first = prepared.execute()
    assert first.tier == "codegen" and not first.profile.compiled_from_cache
    assert prepared.analysis.column("v").dtype == t.INT
    engine.register_csv(
        "typed", str(path), schema=t.make_schema({"k": "int", "v": "float"})
    )
    again = prepared.execute()
    assert prepared.analysis.column("v").dtype == t.FLOAT
    assert again.tier == "codegen" and again.profile.compiled_from_cache
    assert again.column("v") == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert len(engine._compiled) == 1


def test_warm_executions_compute_no_plan_fingerprint(engine, monkeypatch):
    """A prepared query owns everything derived from its plan: a warm
    execution looks nothing up by the plan's fingerprint."""
    prepared = engine.prepare("SELECT COUNT(*) FROM items_csv WHERE qty > 2")
    prepared.execute()  # the first execution generates the module
    root = prepared.plan
    calls = []
    original = type(root).fingerprint

    def counting(node):
        if node is root:
            calls.append(node)
        return original(node)

    monkeypatch.setattr(type(root), "fingerprint", counting)
    for _ in range(100):
        assert prepared.execute().tier == "codegen"
    assert calls == []


# -- explain tier cascade ------------------------------------------------------


def test_explain_reports_tier_cascade(engine):
    text = engine.explain("SELECT COUNT(*) FROM items_bin WHERE qty < ?")
    assert "== tier cascade ==" in text
    assert "codegen: serves this plan  <- selected" in text
    assert "volcano: would serve" in text
    assert "== vectorized fan-out ==" in text
    assert "serial: parallel_workers=1" in text


def test_explain_cascade_for_volcano_only_shape(engine):
    # A group-by output column that is neither a group key nor an aggregate
    # is only served by the Volcano interpreter.
    text = engine.explain(
        "SELECT qty + 1 AS q1, COUNT(*) FROM items_bin GROUP BY qty"
    )
    assert "codegen: declines" in text
    assert "volcano: serves this plan  <- selected" in text


def test_explain_cascade_with_codegen_disabled(paths):
    # enable_codegen=False is the static engine: the cascade has no batch
    # tier left to offer, whatever the fan-out configuration.
    engine = make_engine(paths, enable_codegen=False, parallel_workers=4)
    text = engine.explain("SELECT COUNT(*) FROM items_bin WHERE qty < ?")
    assert "codegen: declines -- disabled (enable_codegen=False) [TIER001]" in text
    assert "volcano: serves this plan  <- selected" in text
    assert "vectorized:" not in text


def test_explain_reports_planned_fanout(paths):
    engine = make_engine(
        paths, parallel_workers=4, enable_caching=False, vectorized_batch_size=8
    )
    # Binary tables are analyzed at registration: the morsel count is known
    # statically, and the root kind sets how many a fan-out needs.
    text = engine.explain("SELECT COUNT(*) FROM items_rowbin WHERE qty < 5")
    assert "codegen: serves this plan  <- selected" in text
    assert (
        "items_rowbin (binary_row): serial: 120 rows are 15 morsel(s) of 8; "
        "a linear root fans out from 16"
    ) in text
    text = engine.explain("SELECT qty, COUNT(*) FROM items_rowbin GROUP BY qty")
    assert "items_rowbin (binary_row): fan-out: 15 morsels" in text
    text = engine.explain("SELECT COUNT(*) FROM items_bin WHERE qty < 5")
    assert (
        "items_bin (binary_column): serial: 120 rows are 15 morsel(s) of 8; "
        "a linear root fans out from 16"
    ) in text
    text = engine.explain("SELECT qty, COUNT(*) FROM items_bin GROUP BY qty")
    assert "items_bin (binary_column): fan-out: 15 morsels" in text
    assert "across 4 workers (grouping root)" in text
    # Raw files without collected statistics: decided when the scan opens.
    text = engine.explain("SELECT COUNT(*) FROM items_csv WHERE qty < 5")
    assert "items_csv (csv): decided when the scan opens" in text


# -- bounded text-keyed caches --------------------------------------------------


def test_text_keyed_caches_are_bounded_lrus(engine, monkeypatch):
    """Clients that inline literals send an endless stream of distinct texts,
    each its own shape: the prepared-query, shape-template and module caches
    stay at capacity, texts in use stay hot, and an evicted PreparedQuery
    keeps working for whoever holds it."""
    from repro.core import engine as engine_module

    capacity = 8
    monkeypatch.setattr(engine_module, "SHAPE_CACHE_CAPACITY", capacity)
    hot = "select count(*) from items_csv where qty < 5"
    hot_prepared = engine._prepare_cached(hot)
    first_cold = engine._prepare_cached("select count(*) from items_csv where qty < 100")
    for literal in range(5 * capacity):
        text = f"select count(*) from items_csv i where i.id < {literal}"
        assert engine.query(text).scalar() == min(literal, ITEM_COUNT)
        # A dashboard keeps asking the hot text between the one-off ones.
        assert engine._prepare_cached(hot) is hot_prepared
        assert len(engine._prepared_cache) <= capacity
        assert len(engine._shapes) <= capacity
        assert len(engine._compiled) <= capacity
    assert len(engine._prepared_cache) == len(engine._compiled) == capacity
    assert len(engine._shapes) == capacity
    assert hot in engine._prepared_cache
    # Evicted long ago, still a valid statement for its holder.
    assert first_cold._source not in engine._prepared_cache
    assert first_cold.execute().scalar() == ITEM_COUNT


# -- one query shape across dataset names ---------------------------------------

#: The queries one arrival of the e2e ``raw_feed_arrival`` workload runs: first
#: touch per format, follow-ups, an unnest and a JSON-CSV join.
FEED_QUERIES = (
    "Q16", "Q9", "Q17", "Q18", "Q19", "Q20", "Q21",
    "Q10", "Q11", "Q12", "Q13", "Q15", "Q22", "Q36",
)


def _feed_texts(files, csv_name: str, json_name: str) -> list[str]:
    """The feed queries' texts over the given dataset names."""
    from dataclasses import replace

    from repro.workloads import symantec
    from repro.workloads.query_spec import TableRef

    by_name = {query.spec.name: query.spec for query in symantec.symantec_workload(files)}
    renamed = {"classification": csv_name, "spam_mails": json_name}
    return [
        replace(
            by_name[name],
            tables=[
                TableRef(renamed[table.dataset], table.alias)
                for table in by_name[name].tables
            ],
        ).to_text()
        for name in FEED_QUERIES
    ]


@pytest.fixture(scope="module")
def feed_files(tmp_path_factory):
    """Two feeds of equal sizes (so equal query texts) and other data."""
    from repro.workloads import symantec

    return [
        symantec.materialize(
            str(tmp_path_factory.mktemp("feed")),
            num_json=40, num_csv=100, num_binary=10, seed=seed,
        )
        for seed in (1234, 99)
    ]


def _feed_engine(feeds, **options) -> ProteusEngine:
    """An engine with two equal-schema feeds: ``a_csv``/``a_json`` and
    ``b_csv``/``b_json``."""
    from repro.workloads import symantec

    engine = ProteusEngine(**options)
    for name, files in zip("ab", feeds):
        engine.register_csv(
            f"{name}_csv", files.csv_path, schema=symantec.CLASSIFICATION_CSV_SCHEMA
        )
        engine.register_json(
            f"{name}_json", files.json_path, schema=symantec.SPAM_JSON_SCHEMA
        )
    return engine


def _cached_prepare(engine: ProteusEngine, text: str):
    """``engine``'s prepared query for ``text`` through the per-text cache,
    and whether it was prepared in full (``prepare()`` ran) rather than from
    its shape's template."""
    calls = []
    full_prepare = engine.prepare

    def counting(*args, **kwargs):
        calls.append(args[0])
        return full_prepare(*args, **kwargs)

    engine.prepare = counting
    try:
        prepared = engine._prepare_cached(text)
    finally:
        del engine.prepare
    return prepared, bool(calls)


def _same_rows(got, expected) -> bool:
    """Row equality up to group order and float reassociation."""
    got, expected = sorted(got, key=repr), sorted(expected, key=repr)
    return len(got) == len(expected) and all(
        len(a) == len(b)
        and all(
            x == y
            or (isinstance(x, float) and math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12))
            for x, y in zip(a, b)
        )
        for a, b in zip(got, expected)
    )


def _assert_full_prepare(engine, text: str):
    """``text`` is prepared in full (no template serves it); its result."""
    prepared, full = _cached_prepare(engine, text)
    assert full, text
    return prepared.execute()


def _assert_template_hit(engine, volcano, text: str, *args):
    """``text`` is prepared from its shape's template, its plan is node for
    node the plan of a full prepare, and its rows are Volcano's."""
    prepared, full = _cached_prepare(engine, text)
    assert not full, text
    assert prepared.plan.pretty() == engine.prepare(text).plan.pretty(), text
    result = prepared.execute(*args)
    assert result.tier == "codegen" and result.profile.compiled_from_cache, text
    assert _same_rows(result.rows, volcano.query(text, *args).rows), text
    return result


@pytest.mark.parametrize(
    "config",
    [{}, {"parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE}],
    ids=["inline", "fanout"],
)
def test_feed_shapes_prepare_from_their_templates(feed_files, config):
    """Every feed query over a second pair of equal-schema datasets is the
    first pair's plan with its scans renamed: no parse, plan, analysis or
    code generation, and the same rows as Volcano."""
    engine = _feed_engine(feed_files, **config)
    volcano = _feed_engine(feed_files, enable_codegen=False, enable_caching=False)
    for text in _feed_texts(feed_files[0], "a_csv", "a_json"):
        result = _assert_full_prepare(engine, text)
        assert _same_rows(result.rows, volcano.query(text).rows), text
    for text in _feed_texts(feed_files[0], "b_csv", "b_json"):
        _assert_template_hit(engine, volcano, text)
        # What the hit shares with the template names no dataset.
        shape = engine._prepare_cached(text)._state[3]
        shared = f"{shape.analysis(True)!r} {shape.analysis(False)!r} {shape.generated.source}"
        assert "a_csv" not in shared and "a_json" not in shared, text
    assert len(engine._shapes) == len(FEED_QUERIES)
    assert len(engine._compiled) == len(FEED_QUERIES)


@pytest.fixture
def other_items_csv(tmp_path) -> str:
    """An items CSV of the same schema with other rows and values."""
    path = tmp_path / "other_items.csv"
    path.write_text(
        "id,qty,price,category\n"
        + "".join(
            f"{row['id']},{(row['qty'] + 3) % 10},{row['price'] * 2},{row['category']}\n"
            for row in expected_items()
            if row["id"] % 3
        )
    )
    return str(path)


def _items_engine(paths, other_csv, names, **options) -> ProteusEngine:
    """``make_engine`` plus CSV datasets ``names`` of one schema, every
    other one over ``other_csv``."""
    engine = make_engine(paths, **options)
    for index, name in enumerate(names):
        path = other_csv if index % 2 else paths["items_csv"]
        engine.register_csv(name, path, schema=ITEMS_SCHEMA)
    return engine


def test_no_template_across_datasets_with_other_plan_facts(
    paths, other_items_csv, tmp_path
):
    """A template serves only datasets whose format, schema, options and
    statistics equal its own."""
    from repro.storage.binary_format import write_column_table

    half = expected_items()[: ITEM_COUNT // 2]
    write_column_table(
        str(tmp_path / "half"),
        {
            name: np.asarray([row[name] for row in half], dtype=dtype)
            for name, dtype in (
                ("id", np.int64), ("qty", np.int64), ("price", np.float64),
                ("category", object),
            )
        },
        ITEMS_SCHEMA,
    )
    engine = _items_engine(paths, other_items_csv, ["csv_a", "csv_b"])
    volcano = _items_engine(
        paths, other_items_csv, ["csv_a", "csv_b"], enable_codegen=False
    )
    engine.register_csv("csv_stride", paths["items_csv"], schema=ITEMS_SCHEMA, stride=2)
    engine.register_csv(
        "csv_float_id",
        paths["items_csv"],
        schema=t.make_schema(
            {"id": "float", "qty": "int", "price": "float", "category": "string"}
        ),
    )
    for each in (engine, volcano):
        each.register_binary_columns("bin_half", str(tmp_path / "half"))
        each.register_binary_columns("bin_again", paths["items_columns"])
    shape = "SELECT COUNT(*) AS n, SUM(i.price) AS s FROM {} i WHERE i.qty < 5"
    _assert_full_prepare(engine, shape.format("csv_a"))
    for other in ("items_json", "csv_stride", "csv_float_id"):
        _assert_full_prepare(engine, shape.format(other))
    _assert_template_hit(engine, volcano, shape.format("csv_b"))
    # Two analyzed binary tables: their statistics differ, so their plans
    # may; the same table analyzed twice has equal statistics.
    _assert_full_prepare(engine, shape.format("items_bin"))
    half = _assert_full_prepare(engine, shape.format("bin_half"))
    assert half.rows == volcano.query(shape.format("bin_half")).rows
    _assert_template_hit(engine, volcano, shape.format("bin_again"))


def test_no_template_for_an_unaliased_source(paths, other_items_csv):
    """An unaliased source binds the dataset's name, which the plan's
    expressions then carry: each dataset prepares in full."""
    engine = _items_engine(paths, other_items_csv, ["csv_a", "csv_b"])
    volcano = _items_engine(
        paths, other_items_csv, ["csv_a", "csv_b"], enable_codegen=False
    )
    for name in ("csv_a", "csv_b"):
        text = f"SELECT COUNT(*) FROM {name} WHERE qty < 5"
        assert _assert_full_prepare(engine, text).rows == volcano.query(text).rows
    assert len(engine._shapes) == 0


def test_no_template_when_a_field_or_alias_is_spelled_like_a_dataset(
    paths, other_items_csv
):
    """An identifier spelled like a registered dataset but not read as a
    dataset source keeps its text out of the template cache."""
    names = ["csv_a", "csv_b", "qty"]
    engine = _items_engine(paths, other_items_csv, names)
    volcano = _items_engine(paths, other_items_csv, names, enable_codegen=False)
    for shape in (
        "SELECT COUNT(*) FROM {} i WHERE i.qty < 5",  # a field
        "SELECT COUNT(*) FROM {} items_json WHERE items_json.id < 9",  # an alias
    ):
        for name in ("csv_a", "csv_b"):
            text = shape.format(name)
            assert _assert_full_prepare(engine, text).rows == volcano.query(text).rows
    assert len(engine._shapes) == 0


def test_join_shapes_prepare_from_their_templates(paths, other_items_csv):
    """A two-input join and a three-input chain over one dataset pair (or
    triple) serve another; a self-join's template serves only self-joins."""
    names = ["j0", "j1", "j2", "j3", "j4", "j5"]
    engine = _items_engine(paths, other_items_csv, names)
    volcano = _items_engine(paths, other_items_csv, names, enable_codegen=False)
    join = (
        "SELECT COUNT(*) AS n, SUM(y.price) AS s FROM {} x JOIN {} y ON x.id = y.id "
        "WHERE x.qty < 5"
    )
    chain = (
        "SELECT x.category AS category, COUNT(*) AS n FROM {} x JOIN {} y ON x.id = y.id "
        "JOIN {} z ON y.id = z.id WHERE z.qty > 2 GROUP BY x.category"
    )
    _assert_full_prepare(engine, join.format("j0", "j1"))
    _assert_template_hit(engine, volcano, join.format("j3", "j2"))
    _assert_template_hit(engine, volcano, join.format("j5", "j4"))
    _assert_full_prepare(engine, chain.format("j0", "j1", "j2"))
    result = _assert_template_hit(engine, volcano, chain.format("j3", "j4", "j5"))
    assert result.profile.join_kernels == ["factorized", "factorized"]
    # One dataset on both sides is another shape than two datasets.
    _assert_full_prepare(engine, join.format("j0", "j0"))
    _assert_template_hit(engine, volcano, join.format("j3", "j3"))


def test_parameterized_shape_prepares_from_its_template(paths, other_items_csv):
    """A template instance re-plans with its first bound values from its own
    text, like any prepared query."""
    engine = _items_engine(paths, other_items_csv, ["csv_a", "csv_b"])
    volcano = _items_engine(
        paths, other_items_csv, ["csv_a", "csv_b"], enable_codegen=False
    )
    shape = "SELECT SUM(i.price) AS s FROM {} i WHERE i.qty < ? AND i.category = :c"
    first = engine.query(shape.format("csv_a"), 5, c="cat1").scalar()
    assert math.isclose(first, volcano.query(shape.format("csv_a"), 5, c="cat1").scalar())
    text = shape.format("csv_b")
    prepared, full = _cached_prepare(engine, text)
    assert not full and prepared.parameters == [0, "c"]
    for qty in (5, 3):
        result = prepared.execute(qty, c="cat1")
        assert _same_rows(result.rows, volcano.query(text, qty, c="cat1").rows)
        assert result.profile.compiled_from_cache
    assert prepared.comprehension is not None  # derived by the re-plan


def test_no_template_from_a_prepare_that_raced_a_registration(paths, other_items_csv):
    """A registration writes the catalog before it moves the epoch: a full
    prepare that saw the new dataset in that window keys no template under
    the facts read before it."""
    from repro.storage.catalog import Dataset, DataFormat

    engine = _items_engine(paths, other_items_csv, ["csv_a"])
    full_prepare = engine.prepare

    def racing(*args, **kwargs):
        schema = t.make_schema(
            {"id": "float", "qty": "int", "price": "float", "category": "string"}
        )
        options = dict(engine.catalog.get("csv_a").options)
        engine.catalog.register(
            Dataset("csv_a", DataFormat.CSV, paths["items_csv"], schema, options),
            replace=True,
        )
        return full_prepare(*args, **kwargs)

    engine.prepare = racing
    prepared = engine._prepare_cached("SELECT COUNT(*) FROM csv_a i WHERE i.qty < 5")
    del engine.prepare
    assert prepared.execute().scalar() == sum(
        1 for row in expected_items() if row["qty"] < 5
    )
    assert len(engine._shapes) == 0


def test_one_module_across_datasets(paths):
    """The module cache is keyed by the plan's expressions: one aliased
    shape over two datasets — even of two formats — runs one module."""
    engine = make_engine(paths, enable_caching=False)
    first = engine.prepare("SELECT COUNT(*) FROM items_csv i WHERE i.qty < 5")
    second = engine.prepare("SELECT COUNT(*) FROM items_json i WHERE i.qty < 5")
    assert first.execute().profile.compiled_from_cache is False
    result = second.execute()
    assert result.profile.compiled_from_cache is True
    assert result.scalar() == sum(1 for row in expected_items() if row["qty"] < 5)
    assert first._state[3].generated is second._state[3].generated
    assert len(engine._compiled) == 1


def test_concurrent_first_texts_of_one_shape_publish_one_template(tmp_path):
    """Two threads first-query one shape over two datasets at once: each
    gets its own rows, and exactly one template is published."""
    schema = t.make_schema({"k": "int", "v": "int"})
    for name, scale in (("a", 1), ("b", 100)):
        (tmp_path / f"{name}.csv").write_text(
            "k,v\n" + "".join(f"{i},{i * scale}\n" for i in range(50))
        )
    for _ in range(4):
        engine = ProteusEngine()
        for name in ("a", "b"):
            engine.register_csv(name, str(tmp_path / f"{name}.csv"), schema=schema)
        results = run_concurrently(
            lambda index: engine.query(
                f"SELECT SUM(x.v) AS s FROM {'ab'[index]} x WHERE x.k < 10"
            ).scalar(),
            2,
        )
        assert results == [45, 4500]
        assert len(engine._shapes) == 1



# -- the pipeline program: built once per shape ------------------------------


@pytest.fixture(scope="module")
def symantec_smoke(tmp_path_factory):
    from repro.workloads import symantec

    files = symantec.materialize(
        str(tmp_path_factory.mktemp("symantec")), num_json=300, num_csv=1_200, num_binary=1_500
    )
    return files, [query.spec.to_text() for query in symantec.symantec_workload(files)]


def _symantec_engine(files) -> ProteusEngine:
    from repro.workloads import symantec

    engine = ProteusEngine(parallel_workers=2)
    engine.register_binary_columns("mail_log", files.binary_dir)
    engine.register_csv(
        "classification", files.csv_path, schema=symantec.CLASSIFICATION_CSV_SCHEMA
    )
    engine.register_json("spam_mails", files.json_path, schema=symantec.SPAM_JSON_SCHEMA)
    return engine


def _classes(base: type) -> set[type]:
    found = {base}
    for subclass in base.__subclasses__():
        found |= _classes(subclass)
    return found


def test_warm_executions_derive_nothing_from_the_plan(symantec_smoke, monkeypatch):
    """A warm, untraced execution of every Symantec text runs its shape's
    program: no plan walk and no expression fingerprint."""
    from repro.core import expressions, physical

    files, texts = symantec_smoke
    engine = _symantec_engine(files)
    for _ in range(2):
        for text in texts:
            assert engine.query(text).tier == "codegen", text
    calls: list[str] = []
    for cls in _classes(expressions.Expression) | _classes(physical.PhysicalPlan):
        for name in ("walk", "fingerprint"):
            if name in vars(cls) and (name == "walk" or issubclass(cls, expressions.Expression)):
                original = vars(cls)[name]

                def counting(*args, _original=original, _name=f"{cls.__name__}.{name}", **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(cls, name, counting)
    for text in texts:
        engine.query(text).rows
        assert calls == [], (text, calls)


def test_a_warm_scan_probes_the_field_cache_once(symantec_smoke, monkeypatch):
    """A warm execution of every Symantec text asks the cache for a scan's
    fields in one call, and the statistics still count every key: a lookup
    each, a hit each that the cache held."""
    from repro.caching.manager import CacheManager
    from repro.core.executor.vectorized import ScanOperator

    files, texts = symantec_smoke
    engine = _symantec_engine(files)
    for _ in range(2):
        for text in texts:
            engine.query(text).rows
    counts = {"scans": 0, "field_probes": 0, "keys": 0, "hits": 0}

    def counted(keys, entries):
        counts["keys"] += len(keys)
        counts["hits"] += sum(entry is not None for entry in entries)
        counts["field_probes"] += any(key[0] == "field" for key in keys)
        return entries

    lookup, lookup_many, scan_init = (
        CacheManager.lookup, CacheManager.lookup_many, ScanOperator.__init__
    )
    monkeypatch.setattr(
        CacheManager, "lookup", lambda self, key: counted([key], [lookup(self, key)])[0]
    )
    monkeypatch.setattr(
        CacheManager, "lookup_many", lambda self, keys: counted(keys, lookup_many(self, keys))
    )

    def counting_init(self, *args, **kwargs):
        counts["scans"] += 1
        scan_init(self, *args, **kwargs)

    monkeypatch.setattr(ScanOperator, "__init__", counting_init)
    stats = engine.cache_stats
    warm_hits = 0
    for text in texts:
        counts.update(scans=0, field_probes=0, keys=0, hits=0)
        lookups, hits = stats.lookups, stats.hits
        engine.query(text).rows
        assert counts["field_probes"] <= counts["scans"], (text, counts)
        assert stats.lookups - lookups == counts["keys"], (text, counts)
        assert stats.hits - hits == counts["hits"], (text, counts)
        warm_hits += counts["hits"]
    assert warm_hits > 0


@pytest.mark.parametrize(
    "config",
    [
        pytest.param({}, id="inline"),
        pytest.param(
            {"parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE}, id="fanout"
        ),
    ],
)
def test_one_program_serves_concurrent_bindings(paths, config):
    """Two threads run one shape's program with different bound values:
    each gets its own rows and its own profile counters."""
    engine = make_engine(paths, enable_caching=False, **config)
    prepared = engine.prepare(
        "SELECT category, COUNT(*) AS n, SUM(price) * :rate AS s FROM items_csv "
        "WHERE qty < :q GROUP BY category"
    )
    prepared.execute(q=1, rate=1.0)
    program = prepared._state[3].program
    assert program is not None
    bindings = [{"q": 3, "rate": 1.0}, {"q": 8, "rate": 2.0}]
    expected = []
    for binding in bindings:
        groups: dict[str, list[float]] = {}
        for row in expected_items():
            if row["qty"] < binding["q"]:
                groups.setdefault(row["category"], []).append(row["price"])
        expected.append({
            category: (len(prices), sum(prices) * binding["rate"])
            for category, prices in groups.items()
        })

    def run(index: int) -> None:
        for _ in range(60):
            result = prepared.execute(**bindings[index])
            got = {category: (n, s) for category, n, s in result.rows}
            assert got.keys() == expected[index].keys()
            for category, (n, s) in got.items():
                assert n == expected[index][category][0]
                assert math.isclose(s, expected[index][category][1], rel_tol=1e-9)
            profile = result.profile
            assert profile.rows_scanned == ITEM_COUNT
            assert profile.output_rows == profile.groups_built == len(got)
            if config:
                assert profile.morsels_dispatched > 0

    run_concurrently(run, 2)
    assert prepared._state[3].program is program


_TRACED_SHAPES = [
    "SELECT COUNT(*), SUM(price) FROM items_csv WHERE qty < 4",
    "SELECT category, MAX(price) FROM items_json GROUP BY category",
    "SELECT id, price FROM items_bin WHERE qty > 6 ORDER BY price DESC LIMIT 5",
    # a probing join (each build key once), and a three-input chain
    "SELECT SUM(b.price) FROM items_csv c JOIN items_bin b ON c.id = b.id WHERE c.qty < 5",
    "SELECT c.category, COUNT(*), SUM(j.qty) FROM items_csv c JOIN items_bin b "
    "ON c.id = b.id JOIN items_json j ON c.id = j.id GROUP BY c.category",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield sum l.qty",
]


def _span_shapes(engine) -> list[tuple]:
    trace = engine.tracer.last_on_this_thread()
    return [
        (span.node_id, span.name, span.operator, span.detail, span.rows_in,
         span.rows_out, span.batches, span.invocations)
        for span in trace.operators
    ]


def _explain_nodes(report: str) -> list[str]:
    nodes = report.split("== plan: estimated vs actual ==")[1]
    return [re.sub(r"\d+\.\d{3} ms", "T", line) for line in nodes.splitlines()]


@pytest.mark.parametrize("text", _TRACED_SHAPES)
def test_a_traced_warm_execution_records_the_cold_spans(paths, text):
    """Spans are made per execution: a traced run after warm untraced ones
    records the operator spans, and renders the ``explain(analyze=True)``
    nodes, of a cold traced run."""
    cold = make_engine(paths, enable_caching=False)
    cold_report = cold.explain(text, analyze=True)
    cold_spans = _span_shapes(cold)
    warm = make_engine(paths, enable_caching=False)
    for _ in range(3):
        assert warm.query(text).tier == "codegen"
    warm_report = warm.explain(text, analyze=True)
    assert _span_shapes(warm) == cold_spans
    assert _explain_nodes(warm_report) == _explain_nodes(cold_report)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param({}, id="inline"),
        pytest.param(
            {"parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE}, id="fanout"
        ),
    ],
)
def test_reregistration_with_other_rows_rebuilds_the_program(tmp_path, config):
    """Re-registering a dataset over another file with another row count
    moves the epoch: the next execution re-plans, builds a new program over
    the new dataset and answers like Volcano."""
    schema = t.make_schema({"k": "int", "g": "string", "v": "int"})

    def write(rows: int) -> str:
        path = tmp_path / f"grow{rows}.csv"
        path.write_text(
            "k,g,v\n" + "".join(f"{i % 37},g{i % 5},{i}\n" for i in range(rows))
        )
        return str(path)

    texts = [
        "SELECT g, COUNT(*), SUM(v) FROM grow WHERE v > ? GROUP BY g",
        "SELECT COUNT(*), SUM(a.v), MAX(b.v) FROM grow a JOIN grow b ON a.k = b.k "
        "WHERE a.v > ?",
    ]
    engine = ProteusEngine(**config)
    volcano = ProteusEngine(enable_codegen=False)
    path = write(40)
    for target in (engine, volcano):
        target.register_csv("grow", path, schema=schema)
    prepared = [engine.prepare(text) for text in texts]
    programs = []
    for query in prepared:
        assert query.execute(3).tier == "codegen"
        programs.append(query._state[3].program)
    path = write(300)
    for target in (engine, volcano):
        target.register_csv("grow", path, schema=schema)
    for query, text, program in zip(prepared, texts, programs):
        for threshold in (3, 100):
            result = query.execute(threshold)
            expected = volcano.query(text, threshold)
            assert result.tier == "codegen" and expected.tier == "volcano"
            assert sorted(map(repr, result.rows)) == sorted(map(repr, expected.rows)), text
        assert query._state[3].program is not program
    if config:
        assert prepared[0].execute(3).profile.morsels_dispatched > 0
