"""Unit tests for the input plug-ins (CSV, JSON, binary row/column) and the
columns the batch pipeline's scan serves from the cache."""

import numpy as np
import pytest

from repro import ProteusEngine
from repro.caching.manager import CacheManager
from repro.caching.matching import field_cache_key
from repro.core import types as t
from repro.core.columns import EncodedColumn
from repro.core.executor.vectorized import ScanStep, open_scan, scan_batches, store_scan
from repro.core.physical import PhysScan
from repro.core.profile import ExecutionCounters
from repro.errors import PluginError, StorageError
from repro.plugins import (
    BinaryColumnPlugin,
    BinaryRowPlugin,
    CsvPlugin,
    JsonPlugin,
)
from repro.storage.catalog import DataFormat, Dataset

from tests.conftest import ITEMS_SCHEMA, ORDERS_SCHEMA, ITEM_COUNT, ORDER_COUNT, expected_items, expected_orders


def _dataset(name, fmt, path, schema, **options):
    return Dataset(name=name, format=fmt, path=path, schema=schema, options=options)


# -- CSV plug-in --------------------------------------------------------------------


def test_csv_scan_columns(paths):
    plugin = CsvPlugin()
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    buffers = plugin.scan_columns(dataset, [("id",), ("price",), ("category",)])
    assert buffers.count == ITEM_COUNT
    assert buffers.column(("id",)).dtype == np.int64
    assert buffers.column(("price",)).dtype == np.float64
    assert buffers.column(("category",))[5] == "cat1"
    expected = expected_items()
    assert buffers.column(("price",))[10] == pytest.approx(expected[10]["price"])


def test_csv_scan_columns_at_is_selective(paths):
    plugin = CsvPlugin()
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    oids = np.asarray([3, 17, 40])
    buffers = plugin.scan_columns_at(dataset, [("qty",)], oids)
    assert list(buffers.column(("qty",))) == [3 % 10, 17 % 10, 40 % 10]


def test_csv_infer_schema_and_stats(paths):
    plugin = CsvPlugin()
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


def test_csv_iterate_rows(paths):
    plugin = CsvPlugin()
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    rows = list(plugin.iterate_rows(dataset))
    assert len(rows) == ITEM_COUNT
    assert rows == expected_items()
    assert rows[7]["category"] == "cat3"


def test_csv_unknown_column(paths):
    plugin = CsvPlugin()
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    with pytest.raises(PluginError):
        plugin.scan_columns(dataset, [("missing",)])


def test_csv_index_info(paths):
    plugin = CsvPlugin()
    dataset = _dataset("items", DataFormat.CSV, paths["items_csv"], ITEMS_SCHEMA)
    info = plugin.index_info(dataset)
    assert info["rows"] == ITEM_COUNT
    assert 0 < info["size_bytes"]
    assert info["build_seconds"] >= 0


def test_csv_crlf_line_ends_stay_out_of_values(tmp_path):
    """A ``\\r\\n`` file reads like its ``\\n`` twin: the ``\\r`` ends the
    row, it is not part of the last field."""
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"id,label\r\n1,pharma\r\n2,casino\r\n\r\n3,pharma\r\n")
    schema = t.make_schema({"id": "int", "label": "string"})
    plugin = CsvPlugin()
    dataset = _dataset("crlf", DataFormat.CSV, str(path), schema)
    assert list(plugin.scan_columns(dataset, [("label",)]).column(("label",))) == [
        "pharma", "casino", "pharma",
    ]
    picked = plugin.scan_columns_at(dataset, [("label",)], np.asarray([2]))
    assert list(picked.column(("label",))) == ["pharma"]
    assert [row["label"] for row in plugin.iterate_rows(dataset)] == ["pharma", "casino", "pharma"]
    engine = ProteusEngine()
    engine.register_csv("crlf", str(path), schema=schema)
    assert engine.query("SELECT COUNT(*) FROM crlf WHERE label = 'pharma'").rows == [(2,)]


# -- JSON plug-in ---------------------------------------------------------------------


def test_json_scan_flat_and_nested_fields(paths):
    plugin = JsonPlugin()
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    buffers = plugin.scan_columns(dataset, [("okey",), ("origin", "country")])
    assert buffers.count == ORDER_COUNT
    assert buffers.column(("okey",))[3] == 3
    assert buffers.column(("origin", "country"))[3] == "CH"


def test_json_scan_unnest_batch(paths):
    plugin = JsonPlugin()
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    parents = np.arange(ORDER_COUNT, dtype=np.int64)
    batch = plugin.scan_unnest_batch(dataset, ("lines",), [("qty",)], parents)
    expected_total = sum(len(o["lines"]) for o in expected_orders())
    assert batch.count == expected_total
    assert batch.column(("qty",)).dtype.kind in "if"
    # one repeat count per parent; positions point back into the order stream
    assert batch.repeats.tolist() == [len(o["lines"]) for o in expected_orders()]
    assert batch.parent_positions().max() < ORDER_COUNT


def test_json_scan_unnest_batch_subset_of_parents(paths):
    plugin = JsonPlugin()
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    parent_oids = np.asarray([5, 6, 7])
    batch = plugin.scan_unnest_batch(dataset, ("lines",), [("item",)], parent_oids)
    expected_total = sum(len(expected_orders()[i]["lines"]) for i in (5, 6, 7))
    assert batch.count == expected_total
    # positions index into the *given* parent list
    assert set(batch.parent_positions().tolist()) <= {0, 1, 2}


def test_json_columns_convert_in_bulk_per_type(tmp_path):
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
    plugin = JsonPlugin()
    schema = t.make_schema({"s": "string", "mixed": "string", "pair": ["int"]})
    dataset = _dataset("values", DataFormat.JSON, str(path), schema)
    buffers = plugin.scan_columns(dataset, [("s",), ("mixed",), ("pair",)])
    for name in ("s", "mixed", "pair"):
        assert list(buffers.column((name,))) == [o.get(name) for o in objects + [{}]]
    picked = plugin.scan_columns_at(dataset, [("s",)], np.asarray([8, 2, 1]))
    assert list(picked.column(("s",))) == [None, texts[2], texts[1]]


def test_json_unnest_requires_array(paths):
    plugin = JsonPlugin()
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    with pytest.raises(PluginError):
        plugin.scan_unnest_batch(
            dataset, ("origin",), [("country",)], np.arange(ORDER_COUNT)
        )


def test_json_scan_columns_at_nested_and_missing_fields(paths):
    plugin = JsonPlugin()
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    fields = [("total",), ("origin", "zone"), ("nonexistent",)]
    picked = plugin.scan_columns_at(dataset, fields, np.asarray([2]))
    assert picked.column(("total",))[0] == pytest.approx(5.0)
    assert picked.column(("origin", "zone"))[0] == 2
    assert t.is_missing(picked.column(("nonexistent",))[0])
    record = list(plugin.iterate_rows(dataset))[2]
    assert record == expected_orders()[2]
    assert "nonexistent" not in record


def test_json_infer_schema(paths):
    plugin = JsonPlugin()
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], None,
                       sample_size=20)
    schema = plugin.infer_schema(dataset)
    assert schema.has_field("okey")
    assert isinstance(schema.field_type("origin"), t.RecordType)


def test_json_index_info_and_one_parent_unnest(paths):
    plugin = JsonPlugin()
    dataset = _dataset("orders", DataFormat.JSON, paths["orders_json"], ORDERS_SCHEMA)
    info = plugin.index_info(dataset)
    assert info["objects"] == ORDER_COUNT
    assert info["fixed_schema"]  # every order has the same field order
    batch = plugin.scan_unnest_batch(dataset, ("lines",), [("item",)], np.asarray([5]))
    expected = [line["item"] for line in expected_orders()[5]["lines"]]
    assert batch.repeats.tolist() == [len(expected)]
    assert batch.column(("item",)).tolist() == expected


# -- binary plug-ins -------------------------------------------------------------------


def test_binary_column_plugin(paths):
    plugin = BinaryColumnPlugin()
    dataset = _dataset("items", DataFormat.BINARY_COLUMN, paths["items_columns"], ITEMS_SCHEMA)
    assert plugin.infer_schema(dataset).field_names() == ITEMS_SCHEMA.field_names()
    buffers = plugin.scan_columns(dataset, [("id",), ("price",)])
    assert buffers.count == ITEM_COUNT
    stats = plugin.collect_statistics(dataset)
    assert stats.max_values["id"] == ITEM_COUNT - 1
    assert list(plugin.iterate_rows(dataset))[3]["price"] == pytest.approx(4.5)


def test_binary_row_plugin(paths):
    plugin = BinaryRowPlugin()
    dataset = _dataset("items", DataFormat.BINARY_ROW, paths["items_rows"], ITEMS_SCHEMA)
    buffers = plugin.scan_columns(dataset, [("qty",), ("category",)])
    assert buffers.count == ITEM_COUNT
    # Fixed-width strings come back dictionary-encoded, like a column table's.
    category = buffers.column(("category",))
    assert isinstance(category, EncodedColumn)
    assert category.values.tolist() == ["cat0", "cat1", "cat2", "cat3"]
    assert category[1] == "cat1"
    rows = list(plugin.iterate_rows(dataset))
    assert rows == expected_items()
    assert type(rows[4]["id"]) is int and type(rows[4]["category"]) is str


@pytest.mark.parametrize("plugin_class,fmt,path_key", [
    (CsvPlugin, DataFormat.CSV, "items_csv"),
    (BinaryColumnPlugin, DataFormat.BINARY_COLUMN, "items_columns"),
    (BinaryRowPlugin, DataFormat.BINARY_ROW, "items_rows"),
])
def test_flat_formats_have_no_nested_collections(paths, plugin_class, fmt, path_key):
    plugin = plugin_class()
    dataset = _dataset("items", fmt, paths[path_key], ITEMS_SCHEMA)
    with pytest.raises(PluginError, match="does not contain nested collections"):
        plugin.scan_unnest_batch(dataset, ("id",), [()], np.arange(3))


# -- cached fields ---------------------------------------------------------------------


def _probed(step, manager) -> dict:
    """What ``manager`` holds of ``step``'s fields: an execution's probe."""
    entries = manager.lookup_many(step.keys)
    return {key: entry.data for key, entry in zip(step.keys, entries) if entry is not None}


def test_cache_plugin_serves_cached_fields(tmp_path):
    """The cache is the batch pipeline's access path: a scan serves the
    fields the manager holds and asks the plug-in only for the rest."""
    path = tmp_path / "ds.json"
    path.write_text("".join(f'{{"x": {i}, "y": {2 * i}}}\n' for i in range(50)))
    dataset = _dataset("ds", DataFormat.JSON, str(path), t.make_schema({"x": "int", "y": "int"}))
    plugin = JsonPlugin()
    manager = CacheManager(1 << 28)
    values = np.arange(50, dtype=np.int64)
    manager.store(field_cache_key("ds", ("x",)), values, [("ds", "json")])

    step = ScanStep.of(PhysScan("ds", "d", [("x",)]), dataset, plugin)
    cached = open_scan(step, _probed(step, manager), recording=True)
    assert not cached.uncached and cached.total_rows == 50
    counters = ExecutionCounters()
    batches = list(scan_batches(cached, 40, 50, counters, 4, None))
    assert [batch.count for batch in batches] == [4, 4, 2]
    assert np.concatenate([b.columns[("d", ("x",))] for b in batches]).tolist() == list(range(40, 50))
    assert np.concatenate([b.oids["d"] for b in batches]).tolist() == list(range(40, 50))
    assert counters.values_from_cache == 10 and counters.values_extracted == 0

    # A field the manager does not hold is read from the raw file; the cached
    # one still comes from the cache.
    step = ScanStep.of(PhysScan("ds", "d", [("x",), ("y",)]), dataset, plugin)
    mixed = open_scan(step, _probed(step, manager), recording=True)
    assert mixed.uncached == [("y",)]
    counters = ExecutionCounters()
    batches = list(scan_batches(mixed, None, None, counters, 16, None))
    assert np.concatenate([b.columns[("d", ("x",))] for b in batches]).tolist() == list(range(50))
    assert np.concatenate([b.columns[("d", ("y",))] for b in batches]).tolist() == list(range(0, 100, 2))
    assert counters.values_from_cache == 50 and counters.values_extracted == 50


# -- the column contract ----------------------------------------------------------------

#: One field per declared type, with a missing value at position 2.
_CONTRACT_VALUES = {
    "int": [3, -(2**63), None, 2**63 - 1, 2**53 + 1, 0],
    "date": [0, 18262, None, -5, 7, 7],
    "bool": [True, False, None, True, True, False],
    "float": [1.5, -2.0, None, 1e300, 0.0, 2.5],
    "string": ["a", "é", None, "", "a", "z"],
}

#: Not a plug-in format: the columns a warm scan reads from the
#: cache that a cold scan of the JSON table populated.
CACHED = "cache"

#: The dictionary / buffer kind of each declared type's column.
_KINDS = {"int": "i", "date": "i", "bool": "b", "float": "f", "string": "O"}


def _contract_text(type_name, value):
    """A value as CSV text (dates as ISO days, which the converter parses)."""
    if type_name == "date":
        import datetime

        return (datetime.date(1970, 1, 1) + datetime.timedelta(days=value)).isoformat()
    if type_name == "bool":
        return "true" if value else "false"
    return str(value)


def _contract_dataset(tmp_path, fmt, type_name, values):
    """A one-field table ``x`` of ``values`` in ``fmt`` and its plug-in."""
    import json

    from repro.storage.binary_format import write_column_table, write_row_table

    schema = t.make_schema({"id": "int", "x": type_name})
    path = str(tmp_path / "table")
    ids = list(range(len(values)))
    if fmt in (DataFormat.JSON, CACHED):
        with open(path, "w", encoding="utf-8") as handle:
            for index, value in enumerate(values):
                # Missing values alternate between null and an absent field.
                record = {"id": index}
                if value is not None or index % 2 == 0:
                    record["x"] = value
                handle.write(json.dumps(record) + "\n")
        plugin = JsonPlugin()
    elif fmt == DataFormat.CSV:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,x\n")
            for index, value in enumerate(values):
                handle.write(f"{index},{_contract_text(type_name, value)}\n")
        plugin = CsvPlugin()
    elif fmt == DataFormat.BINARY_COLUMN:
        write_column_table(path, {"id": ids, "x": values}, schema)
        plugin = BinaryColumnPlugin()
    else:
        write_row_table(path, {"id": ids, "x": values}, schema)
        plugin = BinaryRowPlugin()
    dataset = _dataset("table", DataFormat.JSON if fmt == CACHED else fmt, path, schema)
    return plugin, dataset


def _column_batches(plugin, dataset, fmt, batch_size):
    """``(oids, column of x)`` per batch: the plug-in's own scan, or for
    :data:`CACHED` the batches of a warm scan over the column a
    cold scan stored in the cache manager."""
    if fmt != CACHED:
        for batch in plugin.scan_batches(dataset, [("x",)], batch_size=batch_size):
            yield batch.oids, batch.column(("x",))
        return
    manager = CacheManager(1 << 28)
    step = ScanStep.of(PhysScan("table", "r", [("x",)]), dataset, plugin)
    cold = open_scan(step, _probed(step, manager), recording=True)
    for _ in scan_batches(cold, None, None, ExecutionCounters(), batch_size, None):
        pass
    store_scan(cold, manager)
    warm = open_scan(step, _probed(step, manager), recording=True)
    assert not warm.uncached
    counters = ExecutionCounters()
    for batch in scan_batches(warm, None, None, counters, batch_size, None):
        yield batch.oids["r"], batch.columns[("r", ("x",))]
    assert counters.values_from_cache == warm.total_rows
    assert counters.values_extracted == 0


@pytest.mark.parametrize("type_name", sorted(_CONTRACT_VALUES))
@pytest.mark.parametrize(
    "fmt,missing",
    [
        (DataFormat.CSV, False),
        (DataFormat.JSON, False),
        (DataFormat.JSON, True),
        (DataFormat.BINARY_COLUMN, False),
        (DataFormat.BINARY_ROW, False),
        (CACHED, True),
    ],
)
def test_every_plugin_yields_the_declared_column_form(tmp_path, fmt, missing, type_name):
    """The one form per declared type (``repro.core.columns``):
    ``int``/``date``/``bool`` plain when the converted column has no missing
    value and encoded over a typed dictionary when it has — the raw formats
    convert batch by batch, the cache serves the whole column it kept —;
    ``float`` always ``float64``; ``string`` always encoded.  No typed field
    ever comes out as a ``U``/``S`` or an object buffer.  CSV and binary
    tables cannot hold a missing value."""
    values = _CONTRACT_VALUES[type_name]
    if not missing:
        values = [value for value in values if value is not None]
    plugin, dataset = _contract_dataset(tmp_path, fmt, type_name, values)
    kind = _KINDS[type_name]
    decoded = []
    for oids, column in _column_batches(plugin, dataset, fmt, batch_size=2):
        converted = values if fmt == CACHED else [values[i] for i in oids]
        has_missing = None in converted
        if type_name == "string" or (has_missing and type_name != "float"):
            assert isinstance(column, EncodedColumn), (type(column), oids)
            assert column.values.dtype.kind == kind
        else:
            assert isinstance(column, np.ndarray) and column.dtype.kind == kind
        decoded += [None if t.is_missing(v) else v for v in column.tolist()]
    assert decoded == values



# -- one contract, every format ----------------------------------------------------------

#: One table, written in each format: ``x`` has a missing value (an empty CSV
#: field, a JSON null, a binary NaN).
_SHARED_SCHEMA = t.make_schema({"id": "int", "n": "int", "x": "float", "s": "string"})
_SHARED = {
    "id": list(range(7)),
    "n": [3, -1, 4, 1, -5, 9, 2],
    "x": [0.5, None, 2.0, -1.25, 3.0, 1.5, 0.0],
    "s": ["b", "a", "", "é", "a", "c", "b"],
}
_PLUGINS = {
    DataFormat.CSV: CsvPlugin,
    DataFormat.JSON: JsonPlugin,
    DataFormat.BINARY_COLUMN: BinaryColumnPlugin,
    DataFormat.BINARY_ROW: BinaryRowPlugin,
}


def _write_shared(path, fmt, columns):
    """``columns`` (a dict of equal-length lists, ``None`` = missing) as a
    file of ``fmt`` at ``path``."""
    import json

    from repro.storage.binary_format import write_column_table, write_row_table

    names = list(columns)
    rows = list(zip(*columns.values()))
    if fmt == DataFormat.CSV:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(names) + "\n")
            for row in rows:
                handle.write(",".join("" if v is None else str(v) for v in row) + "\n")
    elif fmt == DataFormat.JSON:
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(dict(zip(names, row))) + "\n")
    else:
        write = write_column_table if fmt == DataFormat.BINARY_COLUMN else write_row_table
        binary = {name: [float("nan") if v is None else v for v in values]
                  for name, values in columns.items()}
        write(path, binary, _SHARED_SCHEMA)


def _values(column):
    """A column's values, missing ones as ``None``."""
    return [None if t.is_missing(value) else value for value in column.tolist()]


@pytest.mark.parametrize("fmt", sorted(_PLUGINS))
def test_every_format_serves_one_contract(tmp_path, fmt):
    """Every plug-in answers the base's calls alike over the same table:
    equal statistics field by field (they feed plan facts and shape-template
    keys), range batches that tile the whole-column scan over an odd split,
    OID fetches equal to a gather, no batch from an empty file, and the
    same exception for a missing file."""
    plugin = _PLUGINS[fmt]()
    path = str(tmp_path / "shared")
    _write_shared(path, fmt, _SHARED)
    dataset = _dataset("shared", fmt, path, _SHARED_SCHEMA)

    statistics = plugin.collect_statistics(dataset)
    assert statistics.cardinality == 7
    assert statistics.null_counts == {"id": 0, "n": 0, "x": 1, "s": 0}
    assert statistics.min_values == {"id": 0, "n": -5, "x": -1.25}
    assert statistics.max_values == {"id": 6, "n": 9, "x": 3.0}
    assert statistics.distinct_estimates == {}

    paths = [(name,) for name in _SHARED]
    whole = plugin.scan_columns(dataset, paths)
    assert whole.count == plugin.scan_row_count(dataset) == 7
    for path in paths:
        assert _values(whole.column(path)) == _SHARED[path[0]]
    batches = list(plugin.scan_batch_ranges(dataset, paths, 1, 6, batch_size=2))
    assert [(batch.first, batch.count) for batch in batches] == [(1, 2), (3, 2), (5, 1)]
    assert np.concatenate([batch.oids for batch in batches]).tolist() == [1, 2, 3, 4, 5]
    for path in paths:
        tiled = [value for batch in batches for value in _values(batch.column(path))]
        assert tiled == _values(whole.column(path))[1:6]

    oids = np.asarray([5, 0, 3, 3], dtype=np.int64)
    picked = plugin.scan_columns_at(dataset, paths, oids)
    assert picked.oids.tolist() == oids.tolist()
    for path in paths:
        expected = _values(whole.column(path))
        assert _values(picked.column(path)) == [expected[oid] for oid in oids]

    empty_path = str(tmp_path / "empty")
    _write_shared(empty_path, fmt, {name: [] for name in _SHARED})
    empty = _dataset("empty", fmt, empty_path, _SHARED_SCHEMA)
    assert plugin.scan_row_count(empty) == 0
    assert list(plugin.scan_batches(empty, paths)) == []
    assert plugin.collect_statistics(empty).cardinality == 0

    missing = _dataset("missing", fmt, str(tmp_path / "missing"), _SHARED_SCHEMA)
    with pytest.raises(StorageError):
        plugin.scan_row_count(missing)
