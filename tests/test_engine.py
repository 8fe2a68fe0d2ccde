"""End-to-end tests of the public engine API over every supported format."""

import inspect

import pytest

from repro import ProteusEngine
from repro.errors import ExecutionError, ProteusError, SchemaError

from tests.conftest import ITEM_COUNT, expected_items, expected_orders, make_engine


def test_count_and_filter_consistent_across_formats(engine):
    expected = sum(1 for row in expected_items() if row["qty"] < 5)
    for dataset in ("items_csv", "items_json", "items_bin", "items_rowbin"):
        result = engine.query(f"SELECT COUNT(*) FROM {dataset} WHERE qty < 5")
        assert result.scalar() == expected, dataset


def test_aggregates_match_reference(engine):
    rows = expected_items()
    expected_max = max(row["price"] for row in rows if row["id"] < 50)
    expected_sum = sum(row["qty"] for row in rows if row["id"] < 50)
    result = engine.query("SELECT MAX(price), SUM(qty) FROM items_bin WHERE id < 50")
    assert result.rows[0][0] == pytest.approx(expected_max)
    assert result.rows[0][1] == pytest.approx(expected_sum)


def test_projection_rows_and_order_by(engine):
    result = engine.query(
        "SELECT id, price FROM items_csv WHERE id < 5 ORDER BY id DESC LIMIT 3"
    )
    assert result.columns == ["id", "price"]
    assert [row[0] for row in result.rows] == [4, 3, 2]


def test_group_by_with_multiple_aggregates(engine):
    result = engine.query(
        "SELECT qty, COUNT(*), MAX(price) FROM items_json GROUP BY qty ORDER BY qty"
    )
    assert len(result.rows) == 10
    rows = expected_items()
    for qty, count, max_price in result.rows:
        matching = [row for row in rows if row["qty"] == qty]
        assert count == len(matching)
        assert max_price == pytest.approx(max(row["price"] for row in matching))


def test_heterogeneous_join_csv_binary(engine):
    expected = sum(row["price"] for row in expected_items() if row["qty"] < 5)
    result = engine.query(
        "SELECT SUM(i.price) FROM items_bin i JOIN items_csv c ON i.id = c.id "
        "WHERE c.qty < 5"
    )
    assert result.scalar() == pytest.approx(expected)


def test_heterogeneous_join_json_csv(engine):
    expected = sum(1 for row in expected_items() if row["qty"] < 3)
    result = engine.query(
        "SELECT COUNT(*) FROM items_json j JOIN items_csv c ON j.id = c.id "
        "WHERE j.qty < 3"
    )
    assert result.scalar() == expected


def test_unnest_count_and_projection(engine):
    orders = expected_orders()
    expected_count = sum(
        1 for order in orders for line in order["lines"] if line["qty"] > 1
    )
    result = engine.query("for { o <- orders, l <- o.lines, l.qty > 1 } yield count")
    assert result.scalar() == expected_count

    bag = engine.query("for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)")
    expected_rows = sum(len(order["lines"]) for order in orders)
    assert len(bag.rows) == expected_rows


def test_nested_field_group_by(engine):
    result = engine.query(
        "SELECT origin.country, COUNT(*) FROM orders GROUP BY origin.country"
    )
    counts = dict(result.rows)
    orders = expected_orders()
    assert counts["US"] == sum(1 for o in orders if o["origin"]["country"] == "US")
    assert counts["CH"] == sum(1 for o in orders if o["origin"]["country"] == "CH")


def test_aggregate_arithmetic_in_output(engine):
    rows = [r for r in expected_items() if r["id"] < 40]
    expected = sum(r["price"] for r in rows) / len(rows)
    result = engine.query("SELECT SUM(price) / COUNT(*) FROM items_bin WHERE id < 40")
    assert result.scalar() == pytest.approx(expected)


def test_string_predicates(engine):
    expected = sum(1 for row in expected_items() if row["category"] == "cat2")
    for dataset in ("items_csv", "items_json", "items_bin"):
        result = engine.query(f"SELECT COUNT(*) FROM {dataset} WHERE category = 'cat2'")
        assert result.scalar() == expected, dataset


def test_explain_shows_plan_and_generated_code(engine):
    text = engine.explain("SELECT COUNT(*) FROM items_csv WHERE qty < 5")
    assert "physical plan" in text
    assert "Scan(items_csv" in text
    assert "== generated code ==" in text
    assert "def select_" in text  # the predicate's fused function


def test_query_result_helpers(engine):
    result = engine.query("SELECT id, qty FROM items_bin WHERE id < 3")
    assert len(result) == 3
    assert result.column("qty") == [0, 1, 2]
    assert result.to_dicts()[0] == {"id": 0, "qty": 0}
    with pytest.raises(ExecutionError):
        result.column("missing")
    with pytest.raises(ExecutionError):
        result.scalar()


def test_invalid_queries_raise(engine):
    with pytest.raises(ProteusError):
        engine.query("DELETE FROM items_csv")
    with pytest.raises(SchemaError):
        engine.query("SELECT nonexistent FROM items_csv")
    with pytest.raises(ProteusError):
        engine.query("SELECT COUNT(*) FROM unknown_dataset")


def test_unregister_clears_state(engine):
    engine.query("SELECT COUNT(*) FROM items_csv")
    engine.unregister("items_csv")
    with pytest.raises(ProteusError):
        engine.query("SELECT COUNT(*) FROM items_csv")
    # Unregistering twice is a no-op.
    engine.unregister("items_csv")


def test_analyze_populates_statistics(engine):
    engine.analyze("items_bin")
    stats = engine.catalog.statistics("items_bin")
    assert stats is not None
    assert stats.cardinality == ITEM_COUNT
    assert stats.max_values["id"] == ITEM_COUNT - 1


def test_structural_index_info(engine):
    info = engine.structural_index_info("orders")
    assert info["objects"] == len(expected_orders())
    with pytest.raises(ProteusError):
        engine.structural_index_info("items_bin")


def test_schema_inference_on_registration(paths):
    engine = ProteusEngine()
    engine.register_csv("items", paths["items_csv"])
    engine.register_json("orders", paths["orders_json"])
    assert engine.catalog.get("items").schema.has_field("price")
    assert engine.catalog.get("orders").schema.has_field("okey")
    result = engine.query("SELECT COUNT(*) FROM items WHERE qty < 5")
    assert result.scalar() == sum(1 for r in expected_items() if r["qty"] < 5)


def test_codegen_disabled_falls_back_to_volcano(paths):
    engine = make_engine(paths, enable_codegen=False)
    result = engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 5")
    assert result.tier == "volcano"
    assert result.scalar() == sum(1 for r in expected_items() if r["qty"] < 5)


def test_profile_counters_populated(engine):
    result = engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 5")
    assert result.profile is not None
    assert result.profile.rows_scanned >= ITEM_COUNT
    assert result.execution_seconds > 0


def test_quickstart_example_runs():
    """``examples/quickstart.py`` is the first thing a new user runs: keep it
    running, end to end, as its own process."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    environment = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    completed = subprocess.run(
        [sys.executable, os.path.join(root, "examples", "quickstart.py")],
        capture_output=True, text=True, timeout=120, env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    assert "served by tier: codegen" in completed.stdout
    assert "compiled_from_cache=True" in completed.stdout
    assert "-> tier volcano" in completed.stdout


def test_constructor_takes_only_the_knobs_callers_set():
    """The constructor's parameters are pinned — the ablation flags the
    paper's figures use and the deployment limits of a served engine — so a
    knob cannot come back without changing this list on purpose."""
    assert list(inspect.signature(ProteusEngine.__init__).parameters)[1:] == [
        "cache_budget_bytes",
        "enable_caching",
        "enable_codegen",
        "parallel_workers",
        "vectorized_batch_size",
        "enable_tracing",
        "enable_metrics",
        "slow_query_seconds",
        "query_timeout_seconds",
        "max_concurrent_queries",
        "query_memory_budget_bytes",
        "io_retry_budget",
    ]
