"""Dictionary-encoded string columns against the Volcano interpreter.

The CSV and JSON plug-ins hand a ``string`` field to the batch pipeline as
``int32`` codes into a sorted dictionary (:mod:`repro.core.strings`), and
the kernels filter, group, join and sort on the codes; Volcano still reads
one ``str`` per value.  Hypothesis draws string columns — missing values,
``""``, text whose UTF-8 order matters, JSON escapes, a NUL byte, a number
in a JSON ``string`` field — and every query must answer exactly as Volcano
does (in order where ORDER BY fixes it, raising the same error where Volcano
raises) under ``codegen`` / ``vectorized`` x cold / cached x inline / fanned
out over two-row morsels, whose dictionaries all differ.
"""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ProteusEngine
from repro.core import types as t
from repro.core.strings import StringColumn, concat_strings, encode_spans
from tests.conftest import FANOUT_BATCH_SIZE

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SCHEMA = t.make_schema({"id": "int", "s": "string"})

#: Strings ordered by code point across case, accents, CJK and emoji (one
#: to four UTF-8 bytes a character), plus the characters JSON escapes.
_POOL = ["", "a", "z", "Z", "é", "éz", "中", "中文", "😀", "a😀", 'q"t', "b\\s", "a b"]
STRINGS = st.one_of(
    st.sampled_from(_POOL), st.text(alphabet='aZz é中😀"\\', max_size=3)
)

#: Pipeline configurations (label -> engine kwargs); each runs cold and
#: cached.
CONFIGS = {
    "codegen": {},
    "vectorized": {"enable_codegen": False},
    "codegen-fanout": {"parallel_workers": 4, "vectorized_batch_size": FANOUT_BATCH_SIZE},
    "vectorized-fanout": {
        "enable_codegen": False,
        "parallel_workers": 4,
        "vectorized_batch_size": FANOUT_BATCH_SIZE,
    },
}

OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def _tables(draw):
    """The string column of one CSV and one JSON table (JSON: ``None`` is a
    null or an absent field), and a literal to compare them with."""
    values = draw(st.lists(STRINGS, min_size=1, max_size=40))
    if draw(st.booleans()) and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] += "\x00"
    json_values = draw(
        st.lists(st.one_of(st.sampled_from(values), STRINGS), min_size=1, max_size=40)
    )
    if draw(st.booleans()):
        json_values = [draw(st.sampled_from([value, value, None])) for value in json_values]
    if draw(st.booleans()) and draw(st.booleans()):
        json_values[draw(st.integers(0, len(json_values) - 1))] = 7
    literal = draw(st.one_of(st.sampled_from(values), STRINGS))
    return values, json_values, literal, draw(st.sampled_from(OPS))


def _write(directory, csv_values, json_values) -> None:
    with open(os.path.join(directory, "c.csv"), "w", encoding="utf-8") as handle:
        handle.write("id,s\n")
        for index, value in enumerate(csv_values):
            handle.write(f"{index},{value}\n")
    with open(os.path.join(directory, "j.json"), "w", encoding="utf-8") as handle:
        for index, value in enumerate(json_values):
            record = {"id": index, "s": value}
            if value is None and index % 2:
                del record["s"]  # absent and null are both missing
            handle.write(json.dumps(record, ensure_ascii=index % 3 == 0) + "\n")


def _engine(directory, **kwargs) -> ProteusEngine:
    engine = ProteusEngine(**kwargs)
    engine.register_csv("c", os.path.join(directory, "c.csv"), schema=SCHEMA)
    engine.register_json("j", os.path.join(directory, "j.json"), schema=SCHEMA)
    return engine


def _outcome(engine, sql, args):
    try:
        return "rows", engine.query(sql, *args).rows
    except Exception as exc:  # the pipeline must fail where Volcano fails
        return "error", type(exc).__name__


def _unordered(outcome):
    kind, value = outcome
    return (kind, sorted(value, key=repr)) if kind == "rows" else outcome


def _queries(literal, op):
    """(SQL, args, ordered?) per query family, over both tables."""
    queries = [
        ("SELECT c.id, j.id FROM c JOIN j ON c.s = j.s", (), False),
        # Every string is >= '': the filter drops only the missing keys.
        ("SELECT c.s, COUNT(*) FROM c JOIN j ON c.s = j.s WHERE j.s >= '' "
         "GROUP BY c.s", (), False),
        ("SELECT j.s, COUNT(*) FROM j JOIN c ON j.s = c.s WHERE j.s >= '' "
         "GROUP BY j.s", (), False),
    ]
    for table in ("c", "j"):
        compared = ", ".join(f"s {o} ? AS q{i}" for i, o in enumerate(OPS))
        queries += [
            (f"SELECT id FROM {table} WHERE s {op} '{literal}'", (), False),
            (f"SELECT id FROM {table} WHERE s {op} ?", (literal,), False),
            (f"SELECT id, {compared} FROM {table}", (literal,) * len(OPS), True),
            (f"SELECT s, COUNT(*) FROM {table} GROUP BY s", (), False),
            (f"SELECT id, s FROM {table} ORDER BY s, id", (), True),
            (f"SELECT s, id FROM {table} ORDER BY s DESC, id", (), True),
            (f"SELECT s, id FROM {table} ORDER BY s, id LIMIT 3", (), True),
            (f"SELECT MIN(s), MAX(s), COUNT(s), COUNT(*) FROM {table}", (), True),
        ]
    return queries


@SETTINGS
@given(tables=_tables())
def test_string_queries_match_volcano(tmp_path_factory, tables):
    csv_values, json_values, literal, op = tables
    directory = str(tmp_path_factory.mktemp("strings"))
    _write(directory, csv_values, json_values)
    volcano = _engine(
        directory, enable_codegen=False, enable_vectorized=False, enable_caching=False
    )
    engines = {}
    for label, kwargs in CONFIGS.items():
        engines[label] = _engine(directory, enable_caching=False, **kwargs)
        cached = engines[f"{label}-cached"] = _engine(directory, **kwargs)
        for table in ("c", "j"):
            cached.query(f"SELECT id, s FROM {table}")  # caches every column
    for sql, args, ordered in _queries(literal, op):
        expected = _outcome(volcano, sql, args)
        for label, engine in engines.items():
            got = _outcome(engine, sql, args)
            if not ordered:
                got, expected = _unordered(got), _unordered(expected)
            assert got == expected, (label, sql, args)


def test_mixed_type_columns_are_not_cached(tmp_path):
    """A JSON string field holding a number takes the object path and has no
    primitive form to cache; a NUL byte still encodes, and the encoded
    columns are cached."""
    _write(str(tmp_path), ["b", "a", "b\x00"], ["é", 7, "a\\\x00"])
    engine = _engine(str(tmp_path))
    assert engine.query("SELECT s FROM c").column("s") == ["b", "a", "b\x00"]
    assert engine.query("SELECT s FROM j").column("s") == ["é", 7, "a\\\x00"]
    cached = {entry.description: entry.data for entry in engine.cache_entries()}
    assert "j.s" not in cached
    assert list(cached["c.s"].values) == ["a", "b", "b\x00"]
    _write(str(tmp_path), ["b", "a"], ["é", None, "a"])
    engine = _engine(str(tmp_path))
    engine.query("SELECT s FROM j")
    (entry,) = [e for e in engine.cache_entries() if e.description == "j.s"]
    assert isinstance(entry.data, StringColumn)
    assert entry.data.tolist() == ["é", None, "a"]


@SETTINGS
@given(values=st.lists(st.text(max_size=4), max_size=30))
def test_encode_spans_orders_like_python(values):
    data = "".join(values).encode("utf-8", "surrogatepass")
    lengths = [len(value.encode("utf-8", "surrogatepass")) for value in values]
    ends = np.cumsum(lengths, dtype=np.int64)
    column = encode_spans(data, ends - lengths, ends)
    assert list(column.values) == sorted(set(values))
    assert column.tolist() == values
    # Two dictionaries (the second half's own), one column under their union.
    half = len(values) // 2
    second = encode_spans(data, (ends - lengths)[half:], ends[half:])
    assert concat_strings([column[:half], second]).tolist() == values


def test_a_trailing_nul_sorts_after_its_prefix(tmp_path):
    """Codes and the Volcano sort agree that ``"a" < "a\\x00" < "b"``."""
    _write(str(tmp_path), ["a\x00", "b", "a", "\x00", ""], ["b", "a\x00", "a"])
    volcano = _engine(str(tmp_path), enable_codegen=False, enable_vectorized=False)
    for engine in (volcano, _engine(str(tmp_path))):
        assert engine.query("SELECT s FROM c ORDER BY s").column("s") == [
            "", "\x00", "a", "a\x00", "b"
        ]
        assert engine.query("SELECT s FROM j ORDER BY s DESC").column("s") == [
            "b", "a\x00", "a"
        ]


def test_one_long_value_keeps_encoding_proportional_to_the_bytes(tmp_path):
    """A long value among short ones would pad every value to its width
    (here ~100 MB); the column decodes value by value instead."""
    values = ["ab", "c", "é"] * 700 + ["x" * 50_000]
    data = "".join(values).encode("utf-8")
    lengths = np.asarray([len(value.encode("utf-8")) for value in values])
    ends = np.cumsum(lengths)
    tracemalloc.start()
    try:
        column = encode_spans(data, ends - lengths, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(data)
    assert list(column.values) == sorted(set(values))
    assert column.tolist() == values
    with open(tmp_path / "c.csv", "w", encoding="utf-8") as handle:
        handle.write("id,s\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values)))
    engine = ProteusEngine()
    engine.register_csv("c", str(tmp_path / "c.csv"), schema=SCHEMA)
    result = engine.query("SELECT s, COUNT(*) FROM c GROUP BY s ORDER BY s")
    assert result.rows == [("ab", 700), ("c", 700), ("x" * 50_000, 1), ("é", 700)]


def test_results_leave_the_engine_decoded(tmp_path):
    _write(str(tmp_path), ["b", "a", "é"], ["é", None, "a"])
    engine = _engine(str(tmp_path))
    result = engine.query("SELECT s, id FROM c ORDER BY s")
    assert result.rows == [("a", 1), ("b", 0), ("é", 2)]
    array = result.column_array("s")
    assert isinstance(array, np.ndarray) and array.dtype == object
    assert array.tolist() == ["a", "b", "é"]
    assert list(result.fetch_batches(2)) == [[("a", 1), ("b", 0)], [("é", 2)]]
    assert engine.query("SELECT MAX(s) FROM j").scalar() == "é"
    assert engine.query("SELECT s FROM j").column("s") == ["é", None, "a"]


@pytest.mark.parametrize("op", OPS)
def test_compare_codes_against_a_missing_scalar_is_false(op):
    from repro.core.executor import radix

    column = StringColumn(
        np.asarray([0, -1, 1], dtype=np.int32), np.asarray(["a", "b"], dtype=object)
    )
    assert not radix.null_safe_compare(op, column, None).any()
    assert radix.null_safe_compare(op, "a", column).tolist() == [
        radix.null_safe_compare(op, "a", value).item() for value in ("a", None, "b")
    ]
