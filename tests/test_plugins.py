"""Unit tests for the input plug-ins (CSV, JSON, binary row/column, cache)
and the output plug-ins."""

import numpy as np
import pytest

from repro import ProteusEngine
from repro.caching.manager import CacheManager
from repro.caching.matching import field_cache_key
from repro.core import types as t
from repro.errors import PluginError
from repro.plugins import (
    BinaryColumnPlugin,
    BinaryRowPlugin,
    CachePlugin,
    CsvPlugin,
    JsonPlugin,
)
from repro.plugins.output import BinaryColumnOutput, PositionalOutput
from repro.storage.catalog import DataFormat, Dataset
from repro.storage.memory import MemoryManager

from tests.conftest import ITEMS_SCHEMA, ORDERS_SCHEMA, ITEM_COUNT, ORDER_COUNT, expected_items, expected_orders


@pytest.fixture
def memory():
    return MemoryManager()


def _dataset(name, fmt, path, schema, **options):
    return Dataset(name=name, format=fmt, path=path, schema=schema, options=options)


# -- CSV plug-in --------------------------------------------------------------------


def test_csv_scan_columns(paths, memory):
    plugin = CsvPlugin(memory)
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    buffers = plugin.scan_columns(dataset, [("id",), ("price",), ("category",)])
    assert buffers.count == ITEM_COUNT
    assert buffers.column(("id",)).dtype == np.int64
    assert buffers.column(("price",)).dtype == np.float64
    assert buffers.column(("category",))[5] == "cat1"
    expected = expected_items()
    assert buffers.column(("price",))[10] == pytest.approx(expected[10]["price"])


def test_csv_scan_columns_at_is_selective(paths, memory):
    plugin = CsvPlugin(memory)
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    oids = np.asarray([3, 17, 40])
    buffers = plugin.scan_columns_at(dataset, [("qty",)], oids)
    assert list(buffers.column(("qty",))) == [3 % 10, 17 % 10, 40 % 10]


def test_csv_infer_schema_and_stats(paths, memory):
    plugin = CsvPlugin(memory)
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], None)
    schema = plugin.infer_schema(dataset)
    assert schema.field_type("id") is t.INT
    assert schema.field_type("price") is t.FLOAT
    assert schema.field_type("category") is t.STRING
    dataset.schema = schema
    stats = plugin.collect_statistics(dataset)
    assert stats.cardinality == ITEM_COUNT
    assert stats.min_values["id"] == 0
    assert stats.max_values["id"] == ITEM_COUNT - 1


def test_csv_read_value_and_iterate(paths, memory):
    plugin = CsvPlugin(memory)
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    assert plugin.read_value(dataset, 7, ("category",)) == "cat3"
    rows = list(plugin.iterate_rows(dataset, [("id",), ("qty",)]))
    assert len(rows) == ITEM_COUNT
    assert rows[12] == {"id": 12, "qty": 2}


def test_csv_unknown_column(paths, memory):
    plugin = CsvPlugin(memory)
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    with pytest.raises(PluginError):
        plugin.scan_columns(dataset, [("missing",)])


def test_csv_index_info(paths, memory):
    plugin = CsvPlugin(memory)
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    info = plugin.index_info(dataset)
    assert info["rows"] == ITEM_COUNT
    assert 0 < info["size_bytes"]
    assert info["build_seconds"] >= 0


def test_csv_crlf_line_ends_stay_out_of_values(tmp_path, memory):
    """A ``\\r\\n`` file reads like its ``\\n`` twin: the ``\\r`` ends the
    row, it is not part of the last field."""
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"id,label\r\n1,pharma\r\n2,casino\r\n\r\n3,pharma\r\n")
    schema = t.make_schema({"id": "int", "label": "string"})
    plugin = CsvPlugin(memory)
    dataset = _dataset("crlf", DataFormat.CSV, str(path), schema)
    assert list(plugin.scan_columns(dataset, [("label",)]).column(("label",))) == [
        "pharma", "casino", "pharma",
    ]
    assert plugin.read_value(dataset, 2, ("label",)) == "pharma"
    assert [row["label"] for row in plugin.iterate_rows(dataset)] == ["pharma", "casino", "pharma"]
    engine = ProteusEngine()
    engine.register_csv("crlf", str(path), schema=schema)
    assert engine.query("SELECT COUNT(*) FROM crlf WHERE label = 'pharma'").rows == [(2,)]


# -- JSON plug-in ---------------------------------------------------------------------


def test_json_scan_flat_and_nested_fields(paths, memory):
    plugin = JsonPlugin(memory)
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    buffers = plugin.scan_columns(dataset, [("okey",), ("origin", "country")])
    assert buffers.count == ORDER_COUNT
    assert buffers.column(("okey",))[3] == 3
    assert buffers.column(("origin", "country"))[3] == "CH"


def test_json_scan_unnest(paths, memory):
    plugin = JsonPlugin(memory)
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    buffers = plugin.scan_unnest(dataset, ("lines",), [("qty",)])
    expected_total = sum(len(o["lines"]) for o in expected_orders())
    assert buffers.count == expected_total
    assert buffers.column(("qty",)).dtype.kind in "if"
    # parent positions point back into the order stream
    assert buffers.parent_positions.max() < ORDER_COUNT


def test_json_scan_unnest_subset_of_parents(paths, memory):
    plugin = JsonPlugin(memory)
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    parent_oids = np.asarray([5, 6, 7])
    buffers = plugin.scan_unnest(dataset, ("lines",), [("item",)], parent_oids)
    expected_total = sum(len(expected_orders()[i]["lines"]) for i in (5, 6, 7))
    assert buffers.count == expected_total
    # positions index into the *given* parent list
    assert set(buffers.parent_positions.tolist()) <= {0, 1, 2}


def test_json_columns_convert_in_bulk_per_type(tmp_path, memory):
    """Columns convert in bulk per value type and equal ``json.loads`` of each
    object: strings with escapes and non-ASCII text, mixed types, arrays;
    missing fields are None."""
    import json

    texts = ["plain", 'quote " inside', "back\\slash", "tab\there", "é raw", " ", "", "{[:,]}"]
    objects = [
        {"s": text, "mixed": [i, i] if i % 3 else (i if i % 2 else text), "pair": [i, -i]}
        for i, text in enumerate(texts)
    ]
    lines = [json.dumps(o, ensure_ascii=i % 2 == 0) for i, o in enumerate(objects)]
    path = tmp_path / "values.json"
    path.write_text("\n".join(lines + ['{"other": 1}']) + "\n", encoding="utf-8")
    plugin = JsonPlugin(memory)
    schema = t.make_schema({"s": "string", "mixed": "string", "pair": ["int"]})
    dataset = _dataset("values", DataFormat.JSON, str(path), schema)
    buffers = plugin.scan_columns(dataset, [("s",), ("mixed",), ("pair",)])
    for name in ("s", "mixed", "pair"):
        assert list(buffers.column((name,))) == [o.get(name) for o in objects + [{}]]
    picked = plugin.scan_columns_at(dataset, [("s",)], np.asarray([8, 2, 1]))
    assert list(picked.column(("s",))) == [None, texts[2], texts[1]]


def test_json_unnest_requires_array(paths, memory):
    plugin = JsonPlugin(memory)
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    with pytest.raises(PluginError):
        plugin.scan_unnest(dataset, ("origin",), [("country",)])


def test_json_read_value_and_missing_fields(paths, memory):
    plugin = JsonPlugin(memory)
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    assert plugin.read_value(dataset, 2, ("total",)) == pytest.approx(5.0)
    assert plugin.read_value(dataset, 2, ("origin", "zone")) == 2
    assert plugin.read_value(dataset, 2, ("nonexistent",)) is None


def test_json_infer_schema(paths, memory):
    plugin = JsonPlugin(memory)
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], None,
                       sample_size=20)
    schema = plugin.infer_schema(dataset)
    assert schema.has_field("okey")
    assert isinstance(schema.field_type("origin"), t.RecordType)


def test_json_index_info_and_unnest_iterator(paths, memory):
    plugin = JsonPlugin(memory)
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    info = plugin.index_info(dataset)
    assert info["objects"] == ORDER_COUNT
    assert info["fixed_schema"]  # every order has the same field order
    state = plugin.unnest_init(dataset, 5, ("lines",))
    count = 0
    while plugin.unnest_has_next(state):
        element = plugin.unnest_get_next(state)
        assert "item" in element
        count += 1
    assert count == len(expected_orders()[5]["lines"])


# -- binary plug-ins -------------------------------------------------------------------


def test_binary_column_plugin(paths, memory):
    plugin = BinaryColumnPlugin(memory)
    dataset = _dataset("items", DataFormat.BINARY_COLUMN, paths["items_columns"], ITEMS_SCHEMA)
    assert plugin.infer_schema(dataset).field_names() == ITEMS_SCHEMA.field_names()
    buffers = plugin.scan_columns(dataset, [("id",), ("price",)])
    assert buffers.count == ITEM_COUNT
    stats = plugin.collect_statistics(dataset)
    assert stats.max_values["id"] == ITEM_COUNT - 1
    assert plugin.read_value(dataset, 3, ("price",)) == pytest.approx(4.5)


def test_binary_row_plugin(paths, memory):
    plugin = BinaryRowPlugin(memory)
    dataset = _dataset("items", DataFormat.BINARY_ROW, paths["items_rows"], ITEMS_SCHEMA)
    buffers = plugin.scan_columns(dataset, [("qty",), ("category",)])
    assert buffers.count == ITEM_COUNT
    assert buffers.column(("category",))[1] == "cat1"
    rows = list(plugin.iterate_rows(dataset, [("id",)]))
    assert rows[4] == {"id": 4}


def test_binary_plugins_cost_below_text_formats(memory):
    assert BinaryColumnPlugin(memory).field_access_cost < CsvPlugin(memory).field_access_cost
    assert CsvPlugin(memory).field_access_cost < JsonPlugin(memory).field_access_cost


# -- cache plug-in ---------------------------------------------------------------------


def test_cache_plugin_serves_cached_fields(memory):
    manager = CacheManager(memory.arena)
    values = np.arange(50, dtype=np.int64)
    manager.store(field_cache_key("ds", ("x",)), values, kind="field",
                  dataset="ds", source_format="json")
    plugin = CachePlugin(memory, manager)
    dataset = Dataset("ds", DataFormat.CACHE, "", t.make_schema({"x": "int"}))
    assert plugin.can_serve("ds", [("x",)])
    assert not plugin.can_serve("ds", [("y",)])
    buffers = plugin.scan_columns(dataset, [("x",)])
    assert np.array_equal(buffers.column(("x",)), values)
    with pytest.raises(PluginError):
        plugin.scan_columns(dataset, [("y",)])
    assert plugin.read_value(dataset, 7, ("x",)) == 7
    stats = plugin.collect_statistics(dataset)
    assert stats.cardinality == 50


# -- output plug-ins ----------------------------------------------------------------------


def test_binary_column_output_flush_and_cache():
    output = BinaryColumnOutput()
    columns = {"a": np.asarray([1, 2, 3]), "b": np.asarray([1.5, 2.5, 3.5])}
    rows = output.flush_rows(["a", "b"], columns)
    assert rows == [(1, 1.5), (2, 2.5), (3, 3.5)]
    cache = output.materialize_cache(columns["a"], np.arange(3), "a column")
    assert cache.eagerness == "eager"
    assert cache.size_bytes == columns["a"].nbytes


def test_positional_output_is_lazy():
    output = PositionalOutput()
    cache = output.materialize_cache(np.asarray([9.0, 8.0]), np.asarray([4, 5]), "lazy")
    assert cache.eagerness == "lazy"
    assert np.array_equal(cache.data, np.asarray([4, 5]))
