"""Unit tests for the storage substrates: binary formats, structural indexes
and the catalog."""

import json
import os
import re

import numpy as np
import pytest

from repro.core import types as t
from repro.errors import CatalogError, StorageError
from repro.storage import binary_format as bf
from repro.storage.catalog import Catalog, DataFormat, Dataset, DatasetStatistics
from repro.storage import structural_index as si


# -- binary column/row formats --------------------------------------------------


def test_column_file_roundtrip_numeric(tmp_path):
    path = str(tmp_path / "x.col")
    values = np.arange(100, dtype=np.int64)
    bf.write_column_file(path, values, "int")
    loaded = bf.read_column_file(path)
    assert np.array_equal(np.asarray(loaded), values)


def test_column_file_roundtrip_strings(tmp_path):
    path = str(tmp_path / "s.col")
    values = ["alpha", "", "gamma", "δelta"]
    bf.write_column_file(path, values, "string")
    loaded = bf.read_column_file(path)
    assert list(loaded) == values


def test_column_file_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.col")
    with open(path, "wb") as handle:
        handle.write(b"not a column file at all")
    with pytest.raises(StorageError):
        bf.read_column_file(path)


def test_column_table_roundtrip(tmp_path):
    schema = t.make_schema({"a": "int", "b": "float", "c": "string"})
    columns = {
        "a": np.arange(10),
        "b": np.linspace(0, 1, 10),
        "c": np.asarray([f"v{i}" for i in range(10)], dtype=object),
    }
    directory = str(tmp_path / "table")
    bf.write_column_table(directory, columns, schema)
    table = bf.read_column_table(directory)
    assert table.row_count == 10
    assert np.allclose(table.column("b"), columns["b"])
    assert list(table.column("c")) == list(columns["c"])
    with pytest.raises(StorageError):
        table.column("missing")


def test_column_table_length_mismatch(tmp_path):
    schema = t.make_schema({"a": "int", "b": "int"})
    with pytest.raises(StorageError):
        bf.write_column_table(str(tmp_path / "bad"), {"a": [1, 2], "b": [1]}, schema)


def test_row_table_roundtrip(tmp_path):
    schema = t.make_schema({"a": "int", "s": "string"})
    path = str(tmp_path / "rows.bin")
    bf.write_row_table(path, {"a": [1, 2, 3], "s": ["x", "yy", "zzz"]}, schema)
    table = bf.read_row_table(path)
    assert table.row_count == 3
    assert list(table.column("a")) == [1, 2, 3]
    assert list(table.column("s")) == ["x", "yy", "zzz"]


def test_binary_formats_reject_nested_schema(tmp_path):
    nested = t.make_schema({"a": {"b": "int"}})
    with pytest.raises(StorageError):
        bf.schema_to_dict(nested)


# -- CSV structural index ----------------------------------------------------------


CSV_DATA = b"id,qty,price,name\n" + b"".join(
    f"{i},{i % 7},{i * 1.5:.2f},item{i}\n".encode() for i in range(50)
)


def test_csv_index_field_spans():
    index = si.build_csv_index(CSV_DATA, stride=2)
    assert index.num_rows == 50
    assert index.field_count == 4
    for row in (0, 7, 49):
        start, end = index.field_span(CSV_DATA, row, 3)
        assert CSV_DATA[start:end].decode() == f"item{row}"
        start, end = index.field_span(CSV_DATA, row, 1)
        assert CSV_DATA[start:end].decode() == str(row % 7)


def test_csv_index_stride_tradeoff():
    dense = si.build_csv_index(CSV_DATA, stride=1)
    sparse = si.build_csv_index(CSV_DATA, stride=4)
    assert dense.size_bytes > sparse.size_bytes
    # Both must return identical spans.
    assert dense.field_span(CSV_DATA, 10, 2) == sparse.field_span(CSV_DATA, 10, 2)


def test_csv_index_out_of_range_field():
    index = si.build_csv_index(CSV_DATA)
    with pytest.raises(StorageError):
        index.field_span(CSV_DATA, 0, 10)


def test_csv_index_no_header():
    data = b"1,2,3\n4,5,6\n"
    index = si.build_csv_index(data, has_header=False)
    assert index.num_rows == 2
    start, end = index.field_span(data, 1, 2)
    assert data[start:end] == b"6"


class _Unsearchable(bytes):
    """Raw bytes whose delimiter search fails the test."""

    def find(self, *args):
        raise AssertionError("searched the bytes of a row")


def test_csv_default_stride_extracts_columns_without_a_byte_search(tmp_path, monkeypatch):
    """At the default stride every field is anchored: the spans of a row
    range, of OIDs or of one row come from the index alone, and a query
    through the plug-in converts its columns without searching a row."""

    def searched(*args):
        raise AssertionError("searched the bytes of rows")

    monkeypatch.setattr(si.CsvStructuralIndex, "_spans_of", searched)
    index = si.build_csv_index(CSV_DATA)
    unsearchable = _Unsearchable(CSV_DATA)
    picked = np.arange(index.num_rows)[::-3]
    for field in range(index.field_count):
        starts, ends = index.field_spans(CSV_DATA, range(index.num_rows), field)
        some_starts, some_ends = index.field_spans(CSV_DATA, picked, field)
        assert some_starts.tolist() == starts[picked].tolist()
        assert some_ends.tolist() == ends[picked].tolist()
        for row in range(index.num_rows):
            assert index.field_span(unsearchable, row, field) == (starts[row], ends[row])
    path = tmp_path / "items.csv"
    path.write_bytes(CSV_DATA)
    from repro import ProteusEngine

    engine = ProteusEngine(enable_caching=False)
    engine.register_csv("items", str(path))
    rows = engine.query("SELECT id, qty, price, name FROM items WHERE qty = 3").rows
    assert rows == [(i, 3, i * 1.5, f"item{i}") for i in range(50) if i % 7 == 3]


# -- JSON structural index -----------------------------------------------------------


def _json_bytes(objects):
    return ("\n".join(json.dumps(o) for o in objects) + "\n").encode()


def test_json_index_fixed_schema_detection():
    objects = [{"a": i, "b": {"c": i * 2}, "tags": [1, 2]} for i in range(20)]
    index = si.build_json_index(_json_bytes(objects))
    assert index.num_objects == 20
    assert index.fixed_schema
    assert (index.column_spans("a")[2] == si.TYPE_NUMBER).all()
    assert (index.column_spans("b.c")[2] == si.TYPE_NUMBER).all()


def test_json_index_flexible_schema_level0():
    objects = [{"a": 1, "b": 2}, {"b": 5, "a": 6, "extra": "x"}, {"a": 9}]
    index = si.build_json_index(_json_bytes(objects))
    assert not index.fixed_schema
    assert index.column_spans("extra")[2].tolist() == [
        si.TYPE_MISSING, si.TYPE_STRING, si.TYPE_MISSING
    ]
    assert index.column_spans("b")[2][2] == si.TYPE_MISSING
    assert {"a", "b", "extra"} <= index.paths()


def test_json_index_arrays_excluded_from_level0_navigation():
    objects = [{"a": 1, "items": [{"x": 1}, {"x": 2}]}] * 3
    data = _json_bytes(objects)
    index = si.build_json_index(data)
    starts, ends, types = index.column_spans("items")
    assert (types == si.TYPE_ARRAY).all()
    # Array element fields are not registered as paths of their own.
    assert "items.x" not in index.paths()
    # The recorded span parses back to the array.
    assert json.loads(data[starts[0]:ends[0]]) == [{"x": 1}, {"x": 2}]


def test_json_index_value_spans_roundtrip():
    objects = [{"s": 'he said "hi"', "n": -1.5e3, "b": True, "z": None}]
    data = _json_bytes(objects)
    index = si.build_json_index(data)
    starts, ends, types = index.column_spans("s")
    assert json.loads(data[starts[0]:ends[0]]) == 'he said "hi"'
    assert types[0] == si.TYPE_STRING
    assert index.column_spans("b")[2][0] == si.TYPE_BOOL
    assert index.column_spans("z")[2][0] == si.TYPE_NULL


def test_json_index_rejects_non_object_stream():
    with pytest.raises(StorageError):
        si.build_json_index(b"[1, 2, 3]")


#: The byte the earliest error names, where it names one.
_ERROR_BYTES = {
    b'"text"\n': 0,
    b'{"a": 1} junk {"a": 2}': 9,
    b'{"a": 1, 2: 3}': 9,
    b'{"a" 1}': 5,
    b'{"a": 1x}': 6,
    b'{"a": nul}': 6,
    b'{"a": }': 6,
}


@pytest.mark.parametrize(
    "data,message",
    [
        (b'{"a": "xx', "unterminated string"),
        (b'{"a": {"b": 1}', "unterminated container"),
        (b'"text"\n', "expected '{'"),
        (b'{"a": 1} junk {"a": 2}', "expected '{'"),
        (b'{"a": 1, 2: 3}', "expected field name"),
        (b'{"a" 1}', "expected ':'"),
        (b'{"a": 1x}', "invalid JSON value"),
        (b'{"a": nul}', "invalid JSON value"),
        (b'{"a": }', "invalid JSON value"),
    ],
)
def test_json_index_rejects_malformed_streams(data, message):
    """The earliest error is reported, at its byte."""
    if data in _ERROR_BYTES:
        message = f"{message} at byte {_ERROR_BYTES[data]}"
    with pytest.raises(StorageError, match=re.escape(message) + r"\b"):
        si.build_json_index(data)


def test_json_index_transient_memory_is_bounded_by_the_block(monkeypatch):
    """Building the index of a ~4 MB stream keeps, besides the index itself,
    a few dozen blocks' worth of transient arrays — however large the file."""
    import random
    import tracemalloc

    rng = random.Random(7)
    lines = [
        json.dumps({"id": i, "name": f"n{rng.randrange(999)}", "flag": rng.random() < 0.5,
                    "o": {"x": rng.random(), "y": [1, {"z": "q"}]}, "tags": ["a", "b"][: i % 3]})
        for i in range(500)
    ]
    data = ("\n".join(lines * 70) + "\n").encode()
    assert len(data) > 3_500_000
    for block in (si.BLOCK_BYTES, si.BLOCK_BYTES // 4):
        monkeypatch.setattr(si, "BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            index = si.build_json_index(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.num_objects == 35_000
        assert peak < 2 * index.size_bytes + 32 * block


def test_json_index_size_is_fraction_of_file():
    objects = [
        {"a": i, "b": i * 2, "c": "padding-" * 40 + str(i), "d": [1, 2, 3],
         "body": "lorem ipsum dolor sit amet " * 8}
        for i in range(100)
    ]
    data = _json_bytes(objects)
    index = si.build_json_index(data)
    assert 0 < index.size_bytes < len(data)


# -- catalog ----------------------------------------------------------------------------


def test_catalog_register_and_lookup():
    catalog = Catalog()
    schema = t.make_schema({"a": "int"})
    dataset = Dataset("d", DataFormat.CSV, "/tmp/d.csv", schema)
    catalog.register(dataset)
    assert "d" in catalog
    assert catalog.get("d").schema is schema
    assert catalog.element_types() == {"d": schema}
    with pytest.raises(CatalogError):
        catalog.register(dataset)
    catalog.register(dataset, replace=True)
    with pytest.raises(CatalogError):
        catalog.get("missing")


def test_catalog_statistics_and_unknown_format():
    catalog = Catalog()
    schema = t.make_schema({"a": "int"})
    with pytest.raises(CatalogError):
        catalog.register(Dataset("x", "parquet", "p", schema))
    catalog.register(Dataset("d", DataFormat.JSON, "p", schema))
    stats = DatasetStatistics(cardinality=10, min_values={"a": 0}, max_values={"a": 9})
    catalog.set_statistics("d", stats)
    assert catalog.statistics("d").value_range("a") == (0, 9)
    assert catalog.statistics("d").value_range("missing") is None
