"""Differential tests for the batch-native unnest subsystem.

Covers:

* inner and outer unnest over the JSON plug-in on both execution tiers
  (codegen — inline and fanned out over morsels — and volcano), asserting
  identical results and the expected tier attribution,
* empty and explicitly-null nested collections,
* nested-in-nested unnest (a collection inside an already-unnested element,
  flattened column-backed by the batch tier),
* unnest under joins and under global / grouped aggregates,
* worker counts 1/2/8: the fan-out's morsel-ordered assembly must
  reproduce an inline run's row order exactly,
* unit coverage of the ``scan_unnest_batch`` plug-in API (the JSON
  offset-vector implementation against the Volcano interpreter's
  ``iterate_rows`` records) and of the nullable-bool materialization fix.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro import ProteusEngine
from repro.core import types as t
from repro.core.physical import PhysUnnest
from repro.errors import ExecutionError
from repro.plugins.base import flatten_collections
from repro.plugins.json_plugin import JsonPlugin

ORDER_COUNT = 240

ORDERS_SCHEMA = t.make_schema(
    {
        "okey": "int",
        "total": "float",
        "origin": {"country": "string"},
        "lines": [
            {
                "item": "int",
                "qty": "int",
                "price": "float",
                "subs": [{"s": "int"}],
            }
        ],
    }
)

ITEMS_SCHEMA = t.make_schema({"id": "int", "label": "string"})

FLAGS_SCHEMA = t.make_schema({"id": "int", "active": "bool"})

#: Small batches so the small datasets exercise many batches and morsels.
BATCH_SIZE = 8


def expected_orders() -> list[dict]:
    orders = []
    for i in range(ORDER_COUNT):
        lines = [
            {
                "item": j,
                "qty": j + 1,
                "price": round((j + 1) * 3.0, 2),
                "subs": [{"s": j * 10 + k} for k in range(j % 3)],
            }
            for j in range(i % 5)
        ]
        if i % 7 == 0:
            lines = []  # empty collection
        order = {
            "okey": i,
            "total": round(i * 2.5, 2),
            "origin": {"country": "CH" if i % 2 else "US"},
            "lines": lines,
        }
        if i % 11 == 0:
            order["lines"] = None  # explicit null collection
        orders.append(order)
    return orders


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("unnest_workloads")
    with open(directory / "orders.json", "w", encoding="utf-8") as handle:
        for order in expected_orders():
            handle.write(json.dumps(order) + "\n")
    with open(directory / "items.json", "w", encoding="utf-8") as handle:
        for i in range(6):
            handle.write(json.dumps({"id": i, "label": f"item{i}"}) + "\n")
    with open(directory / "flags.json", "w", encoding="utf-8") as handle:
        for i in range(150):
            record = {"id": i, "active": None if i % 3 == 0 else (i % 2 == 0)}
            if i % 5 == 0:
                record.pop("active")  # field absent entirely
            handle.write(json.dumps(record) + "\n")
    return str(directory)


def _make_engine(workload_dir: str, **kwargs) -> ProteusEngine:
    engine = ProteusEngine(
        enable_caching=False, vectorized_batch_size=BATCH_SIZE, **kwargs
    )
    engine.register_json(
        "orders", os.path.join(workload_dir, "orders.json"), schema=ORDERS_SCHEMA
    )
    engine.register_json(
        "items", os.path.join(workload_dir, "items.json"), schema=ITEMS_SCHEMA
    )
    engine.register_json(
        "flags", os.path.join(workload_dir, "flags.json"), schema=FLAGS_SCHEMA
    )
    return engine


@pytest.fixture(scope="module")
def volcano_engine(workload_dir):
    return _make_engine(workload_dir, enable_codegen=False)


@pytest.fixture(scope="module")
def parallel_engine(workload_dir):
    return _make_engine(workload_dir, parallel_workers=4)


@pytest.fixture(scope="module")
def codegen_engine(workload_dir):
    return _make_engine(workload_dir)


def _assert_rows_match(actual, expected, query="", ordered=True):
    assert len(actual) == len(expected), (query, len(actual), len(expected))
    if not ordered:
        actual = sorted(actual, key=repr)
        expected = sorted(expected, key=repr)
    for index, (left, right) in enumerate(zip(actual, expected)):
        assert len(left) == len(right), (query, index)
        for a, b in zip(left, right):
            if isinstance(a, float) and isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) or (
                    math.isnan(a) and math.isnan(b)
                ), (query, index, a, b)
            else:
                assert a == b, (query, index, a, b)


INNER_QUERIES = [
    # Plain inner unnest: projection and element predicate.
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item, l.qty)",
    "for { o <- orders, l <- o.lines, l.qty > 2 } yield bag (o.okey, l.item)",
    # Unnest under global aggregates.
    "for { o <- orders, l <- o.lines } yield count",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield sum (l.price)",
    # Nested-in-nested (column-backed in the batch tier).
    "for { o <- orders, l <- o.lines, s <- l.subs } yield bag (o.okey, s.s)",
    "for { o <- orders, l <- o.lines, s <- l.subs, s.s > 10 } yield count",
]

OUTER_QUERIES = [
    # Outer unnest keeps parents with empty / null collections.
    "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)",
    "for { o <- orders, l <- outer o.lines } yield count",
    # A filter over the element after an outer unnest drops the null rows
    # (missing comparisons are false) — standard LEFT JOIN + WHERE semantics.
    "for { o <- orders, l <- outer o.lines, l.qty > 2 } yield bag (o.okey, l.item)",
    # Outer-in-outer nested unnest.
    "for { o <- orders, l <- outer o.lines, s <- outer l.subs } "
    "yield bag (o.okey, s.s)",
]

JOIN_QUERIES = [
    # Unnest under a join: the unnested element joins a second dataset.
    "for { o <- orders, l <- o.lines, i <- items, l.item = i.id } "
    "yield bag (o.okey, i.label)",
    "for { o <- orders, l <- o.lines, i <- items, l.item = i.id, l.qty > 1 } "
    "yield count",
]


def grouped_queries():
    """Unnest under grouped aggregates — the comprehension frontend has no
    GROUP BY clause, so the comprehensions are built programmatically."""
    from repro.core.calculus import Comprehension, DatasetSource, Generator, PathSource
    from repro.core.expressions import AggregateCall, FieldRef, OutputColumn

    generators = [
        Generator("o", DatasetSource("orders")),
        Generator("l", PathSource("o", ("lines",))),
    ]
    by_parent = Comprehension(
        monoid="bag",
        head=[
            OutputColumn("okey", FieldRef("o", ("okey",))),
            OutputColumn("n", AggregateCall("count", FieldRef("l", ("item",)))),
        ],
        qualifiers=list(generators),
        group_by=[FieldRef("o", ("okey",))],
    )
    by_element = Comprehension(
        monoid="bag",
        head=[
            OutputColumn("qty", FieldRef("l", ("qty",))),
            OutputColumn("total", AggregateCall("sum", FieldRef("l", ("price",)))),
        ],
        qualifiers=list(generators),
        group_by=[FieldRef("l", ("qty",))],
    )
    return [("group-by-parent", by_parent), ("group-by-element", by_element)]


@pytest.mark.parametrize("query", INNER_QUERIES + OUTER_QUERIES)
def test_every_tier_agrees(volcano_engine, parallel_engine, codegen_engine, query):
    reference = volcano_engine.query(query)
    assert reference.tier == "volcano"
    parallel = parallel_engine.query(query)
    assert parallel.tier == "codegen", query
    assert parallel.profile.morsels_dispatched > 1, query
    codegen = codegen_engine.query(query)
    # One pipeline: outer and nested-in-nested unnest run on generated
    # expression functions like everything else.
    assert codegen.tier == "codegen", query
    _assert_rows_match(codegen.rows, reference.rows, query, ordered=False)
    # A fanned-out run must reproduce the inline run's order exactly.
    _assert_rows_match(parallel.rows, codegen.rows, query)


@pytest.mark.parametrize("query", JOIN_QUERIES)
def test_unnest_under_joins(volcano_engine, parallel_engine, codegen_engine, query):
    reference = volcano_engine.query(query)
    parallel = parallel_engine.query(query)
    # (The optimizer may flip the probe side onto the tiny joined table, in
    # which case the driving scan legitimately fits one morsel and only the
    # build side fans out.)
    assert parallel.tier == "codegen", query
    codegen = codegen_engine.query(query)
    assert codegen.tier == "codegen", query
    _assert_rows_match(codegen.rows, reference.rows, query, ordered=False)
    _assert_rows_match(parallel.rows, codegen.rows, query)


@pytest.mark.parametrize(
    "label,comprehension", grouped_queries(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_unnest_under_grouped_aggregates(
    volcano_engine, parallel_engine, codegen_engine, label, comprehension
):
    reference = volcano_engine.query(comprehension)
    assert reference.tier == "volcano"
    parallel = parallel_engine.query(comprehension)
    assert parallel.tier == "codegen", label
    assert parallel.profile.morsels_dispatched > 1, label
    codegen = codegen_engine.query(comprehension)
    assert codegen.tier == "codegen", label
    _assert_rows_match(codegen.rows, reference.rows, label, ordered=False)
    _assert_rows_match(parallel.rows, codegen.rows, label)


def test_outer_unnest_is_served_by_the_codegen_label(codegen_engine):
    result = codegen_engine.query(
        "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)"
    )
    assert result.tier == "codegen"
    # Parents with empty/null collections surface a null child row.
    null_rows = [row for row in result.rows if row[1] is None]
    empties = sum(
        1 for order in expected_orders() if not order["lines"]
    )
    assert len(null_rows) == empties
    assert result.profile.unnest_output_rows == len(result.rows)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_worker_counts_reproduce_serial_order(
    workload_dir, codegen_engine, workers
):
    engine = _make_engine(workload_dir, parallel_workers=workers)
    for query in INNER_QUERIES + OUTER_QUERIES + JOIN_QUERIES:
        expected = codegen_engine.query(query)
        actual = engine.query(query)
        _assert_rows_match(actual.rows, expected.rows, query)
    for label, comprehension in grouped_queries():
        expected = codegen_engine.query(comprehension)
        actual = engine.query(comprehension)
        _assert_rows_match(actual.rows, expected.rows, label)


def test_explain_reports_unnest_strategy(codegen_engine):
    text = codegen_engine.explain(
        "for { o <- orders, l <- outer o.lines, s <- l.subs } "
        "yield bag (o.okey, s.s)"
    )
    assert "== unnest strategy ==" in text
    assert "l <- o.lines (outer): offset-vector" in text
    assert "s <- l.subs (inner): column-backed" in text
    assert "== tier cascade ==" in text  # tier cascade section still present


def test_unnest_profile_counter(codegen_engine):
    result = codegen_engine.query(
        "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)"
    )
    flattened = sum(len(o["lines"] or ()) for o in expected_orders())
    assert result.profile.unnest_output_rows == flattened
    assert len(result.rows) == flattened


# ---------------------------------------------------------------------------
# Plug-in API unit coverage
# ---------------------------------------------------------------------------


@pytest.fixture()
def json_plugin_and_dataset(workload_dir):
    engine = _make_engine(workload_dir)
    plugin = engine.plugins["json"]
    dataset = engine.catalog.get("orders")
    return plugin, dataset


def test_scan_unnest_batch_repeats(json_plugin_and_dataset):
    plugin, dataset = json_plugin_and_dataset
    oids = np.arange(ORDER_COUNT, dtype=np.int64)
    batch = plugin.scan_unnest_batch(dataset, ("lines",), [("item",)], oids)
    orders = expected_orders()
    expected_repeats = [len(o["lines"] or ()) for o in orders]
    assert batch.repeats.tolist() == expected_repeats
    assert batch.count == sum(expected_repeats)
    flat_items = [
        line["item"] for o in orders for line in (o["lines"] or ())
    ]
    assert batch.column(("item",)).tolist() == flat_items
    # The derived per-element positions match one np.repeat broadcast.
    positions = batch.parent_positions()
    assert len(positions) == batch.count
    assert positions.tolist() == [
        slot for slot, n in enumerate(expected_repeats) for _ in range(n)
    ]


def test_scan_unnest_batch_outer_null_rows(json_plugin_and_dataset):
    plugin, dataset = json_plugin_and_dataset
    oids = np.arange(ORDER_COUNT, dtype=np.int64)
    batch = plugin.scan_unnest_batch(
        dataset, ("lines",), [("item",)], oids, outer=True
    )
    assert (batch.repeats >= 1).all()
    items = batch.column(("item",))
    orders = expected_orders()
    empties = sum(1 for o in orders if not o["lines"])
    missing = (
        np.isnan(items).sum()
        if items.dtype.kind == "f"
        else sum(1 for v in items.tolist() if v is None)
    )
    assert missing == empties


def test_batch_unnest_matches_iterate_rows(json_plugin_and_dataset):
    """The offset-vector path flattens exactly the collections the Volcano
    interpreter reads from ``iterate_rows`` records, inner and outer."""
    plugin, dataset = json_plugin_and_dataset
    records = list(plugin.iterate_rows(dataset))
    oids = np.arange(0, ORDER_COUNT, 3, dtype=np.int64)
    for outer in (False, True):
        batch = plugin.scan_unnest_batch(
            dataset, ("lines",), [("item",), ("qty",)], oids, outer=outer
        )
        collections = [records[oid]["lines"] or [] for oid in oids.tolist()]
        if outer:
            collections = [lines or [None] for lines in collections]
        assert batch.repeats.tolist() == [len(lines) for lines in collections]
        assert batch.count == sum(len(lines) for lines in collections)
        for path in (("item",), ("qty",)):
            expected = [
                None if line is None else line[path[0]]
                for lines in collections
                for line in lines
            ]
            # Missing may be NaN in a float buffer — normalize through the
            # engine-wide missing rule.
            actual = [
                None if t.is_missing(v) else v for v in batch.column(path).tolist()
            ]
            assert actual == expected


def test_flatten_collections_kernel():
    collections = [[{"x": 1}, {"x": 2}], [], None, [{"x": 3}]]
    inner = flatten_collections(collections, [("x",)], ["int"])
    assert inner.repeats.tolist() == [2, 0, 0, 1]
    assert inner.column(("x",)).dtype == np.int64
    assert inner.column(("x",)).tolist() == [1, 2, 3]
    outer = flatten_collections(collections, [("x",)], ["int"], outer=True)
    assert outer.repeats.tolist() == [2, 1, 1, 1]
    assert outer.column(("x",)).tolist() == [1, 2, None, None, 3]
    # Values that do not fit the declared type keep their Python form.
    mixed = flatten_collections([[{"x": 1}, {"x": 2.5}]], [("x",)], ["int"])
    assert mixed.column(("x",)).tolist() == [1, 2.5]


def test_scan_unnest_batch_whole_dataset(json_plugin_and_dataset):
    plugin, dataset = json_plugin_and_dataset
    parents = np.arange(ORDER_COUNT, dtype=np.int64)
    batch = plugin.scan_unnest_batch(dataset, ("lines",), [("qty",)], parents)
    orders = expected_orders()
    expected = [l["qty"] for o in orders for l in (o["lines"] or ())]
    assert batch.count == len(expected)
    assert batch.column(("qty",)).tolist() == expected
    assert len(batch.parent_positions()) == batch.count


def test_unnest_planned_mode(codegen_engine):
    codegen_engine.query(
        "for { o <- orders, l <- o.lines, s <- l.subs } yield count"
    )
    plan = codegen_engine.last_plan
    modes = {
        node.var: node.planned_mode()[0]
        for node in plan.walk()
        if isinstance(node, PhysUnnest)
    }
    assert modes == {"l": "offset-vector", "s": "column-backed"}


def test_outer_modifier_parses_only_for_paths(workload_dir):
    engine = _make_engine(workload_dir)
    with pytest.raises(Exception, match="outer modifier"):
        engine.query("for { o <- outer orders } yield count")


# ---------------------------------------------------------------------------
# Nullable-bool materialization (ROADMAP "known gap")
# ---------------------------------------------------------------------------


NULLABLE_BOOL_QUERIES = [
    "SELECT COUNT(*) FROM flags WHERE active",
    "SELECT COUNT(*) FROM flags WHERE NOT active",
    "SELECT COUNT(*) FROM flags WHERE active = false",
    "SELECT id, active FROM flags ORDER BY active, id LIMIT 12",
    "SELECT id, active FROM flags ORDER BY active DESC, id",
]


@pytest.mark.parametrize("query", NULLABLE_BOOL_QUERIES)
def test_nullable_bool_agrees_across_tiers(
    volcano_engine, parallel_engine, codegen_engine, query
):
    reference = volcano_engine.query(query)
    for engine in (parallel_engine, codegen_engine):
        result = engine.query(query)
        _assert_rows_match(result.rows, reference.rows, query, ordered=False)


def test_missing_bool_surfaces_as_none(codegen_engine):
    result = codegen_engine.query("SELECT id, active FROM flags")
    by_id = dict(result.rows)
    assert by_id[0] is None  # absent field
    assert by_id[3] is None  # explicit null
    assert by_id[2] is True
    assert by_id[7] is False


@pytest.mark.parametrize(
    "query",
    [
        "for { r <- bad, x <- r.xs } yield bag (r.id, x.v)",
        "for { r <- bad, x <- r.xs, y <- x.ys } yield bag (r.id, y.w)",
    ],
    ids=["scan-backed", "nested-in-nested"],
)
def test_unnest_over_a_non_collection_fails_as_in_volcano(tmp_path, query):
    """A collection field holding a scalar fails on the pipeline with the
    error Volcano raises, and nothing reruns it on another tier."""
    path = tmp_path / "bad.json"
    records = [
        {"id": 1, "xs": [{"v": 1, "ys": [{"w": 2}]}]},
        {"id": 2, "xs": [{"v": 3, "ys": 4}]} if "ys" in query else {"id": 2, "xs": 5},
    ]
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    schema = t.make_schema({"id": "int", "xs": [{"v": "int", "ys": [{"w": "int"}]}]})
    errors = []
    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_caching=False, enable_codegen=enable_codegen)
        engine.register_json("bad", str(path), schema=schema)
        with pytest.raises(ExecutionError) as raised:
            engine.query(query)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    assert "is not a collection" in errors[0]
