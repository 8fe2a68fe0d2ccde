"""One column per declared type, against the Volcano interpreter.

Every plug-in hands the batch pipeline a field in the one form its declared
type prescribes (:mod:`repro.core.columns`): ``int64`` / ``bool`` when
nothing is missing, ``int32`` codes into a sorted dictionary when something
is — and always for strings —, NaN-encoded ``float64``, and an object column
for values that do not fit the declared type.  The kernels filter, group,
join and sort on the codes; Volcano still reads one Python value per field.

Hypothesis draws the columns — strings with missing values, ``""``, text
whose UTF-8 order matters, JSON escapes, a NUL byte, a number in a JSON
``string`` field; nullable JSON ``int`` fields holding ±2**53 and the int64
extremes, or floats, or bools; nullable ``bool`` fields; CSV ``int`` fields
holding decimals; binary column-table and row-table strings; JSON unnest
elements, nested-in-nested included — and every query must answer exactly as
Volcano does, compared by ``repr`` so that ``10.0`` is not ``10`` (in order
where ORDER BY fixes it, raising the same error where Volcano raises), under
``codegen`` x cold / cached x inline / fanned out over two-row morsels,
whose dictionaries all differ.  Grouping and joining on missing, NaN and
mixed-type keys (an int key against a str key included) stays on
``codegen``: no query changes tier.
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
from repro.core.columns import EncodedColumn, concat_encoded, encode_spans
from repro.storage.binary_format import write_column_table, write_row_table
from tests.conftest import FANOUT_BATCH_SIZE

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SCHEMA = t.make_schema({"id": "int", "s": "string"})
CSV_SCHEMA = t.make_schema({"id": "int", "s": "string", "n": "int"})
BINARY_SCHEMA = t.make_schema({"id": "int", "s": "string", "n": "int", "x": "float"})
JSON_SCHEMA = t.make_schema(
    {
        "id": "int",
        "s": "string",
        "n": "int",
        "b": "bool",
        "xs": [{"v": "int", "ys": [{"w": "int"}]}],
        # Declared, never written: every value is missing.
        "m": "int",
        "f": "float",
        "x": "float",
    }
)

#: Strings ordered by code point across case, accents, CJK and emoji (one
#: to four UTF-8 bytes a character), plus the characters JSON escapes.
_POOL = ["", "a", "z", "Z", "é", "éz", "中", "中文", "😀", "a😀", 'q"t', "b\\s", "a b"]
STRINGS = st.one_of(
    st.sampled_from(_POOL), st.text(alphabet='aZz é中😀"\\', max_size=3)
)

#: Integers float64 cannot hold exactly, and the int64 extremes.
_BIG = [2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]

#: What a nullable JSON ``int`` field holds, per example: big ints, or small
#: ints beside non-integral floats (exact in any summation order), or small
#: ints beside bools (none equal to ``True`` or ``False``).
JSON_INTS = {
    "big": st.one_of(st.none(), st.integers(-50, 50), st.sampled_from(_BIG)),
    "float": st.one_of(st.none(), st.integers(-20, 20), st.sampled_from([2.5, -0.5, 7.25])),
    "bool": st.one_of(st.none(), st.sampled_from([2, 3, -4, 5, True, False])),
}

#: A nullable float (NaN in a float column) — a join and group key too.
FLOATS = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 2.5, -0.5, 3.0]))

#: The text of a CSV ``int`` field: Volcano truncates a decimal toward zero.
CSV_INTS = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["3.5", "-2.25", "10.0", "007", *map(str, _BIG)]),
)

#: Pipeline configurations (label -> engine kwargs); each runs cold and
#: cached.
CONFIGS = {
    "codegen": {},
    "codegen-fanout": {"parallel_workers": 4, "vectorized_batch_size": FANOUT_BATCH_SIZE},
}

OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def _tables(draw):
    """The columns of one CSV, one JSON, one binary column table and one
    binary row table (JSON: ``None`` is a null or an absent field), and a
    literal to compare the strings with."""
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
    ints = JSON_INTS[draw(st.sampled_from(sorted(JSON_INTS)))]
    count = len(json_values)
    elements = st.fixed_dictionaries(
        {"v": ints, "ys": st.lists(st.fixed_dictionaries({"w": ints}), max_size=2)}
    )
    numbers = {
        "n": draw(st.lists(ints, min_size=count, max_size=count)),
        "b": draw(st.lists(st.sampled_from([True, False, None]), min_size=count, max_size=count)),
        "xs": draw(
            st.lists(st.one_of(st.none(), st.lists(elements, max_size=3)),
                     min_size=count, max_size=count)
        ),
        "csv_n": draw(st.lists(CSV_INTS, min_size=len(values), max_size=len(values))),
        "binary_n": draw(
            st.lists(st.one_of(st.integers(-50, 50), st.sampled_from(_BIG)),
                     min_size=len(values), max_size=len(values))
        ),
        "x": draw(st.lists(FLOATS, min_size=count, max_size=count)),
        "binary_x": draw(st.lists(FLOATS, min_size=len(values), max_size=len(values))),
    }
    literal = draw(st.one_of(st.sampled_from(values), STRINGS))
    return values, json_values, numbers, literal, draw(st.sampled_from(OPS))


def _write(directory, csv_values, json_values, numbers=None) -> None:
    """The CSV and JSON tables, their numeric fields from ``numbers`` and —
    when it has ``binary_n`` — the two binary tables."""
    numbers = numbers or {}
    csv_n = numbers.get("csv_n")
    with open(os.path.join(directory, "c.csv"), "w", encoding="utf-8") as handle:
        handle.write("id,s,n\n")
        for index, value in enumerate(csv_values):
            handle.write(f"{index},{value},{csv_n[index] if csv_n else index}\n")
    with open(os.path.join(directory, "j.json"), "w", encoding="utf-8") as handle:
        for index, value in enumerate(json_values):
            record = {"id": index, "s": value}
            for name in ("n", "b", "xs", "x"):
                if name in numbers:
                    record[name] = numbers[name][index]
            for name, field in list(record.items()):
                if field is None and index % 2:
                    del record[name]  # absent and null are both missing
            handle.write(json.dumps(record, ensure_ascii=index % 3 == 0) + "\n")
    if "binary_n" in numbers:
        ids = list(range(len(csv_values)))
        binary_x = [float("nan") if x is None else x for x in numbers["binary_x"]]
        write_column_table(
            os.path.join(directory, "bc"),
            {"id": ids, "s": csv_values, "n": numbers["binary_n"], "x": binary_x},
            BINARY_SCHEMA,
        )
        write_row_table(
            os.path.join(directory, "br.bin"),
            {"id": ids, "s": csv_values[::-1]},
            SCHEMA,
        )


def _engine(directory, **kwargs) -> ProteusEngine:
    engine = ProteusEngine(**kwargs)
    engine.register_csv("c", os.path.join(directory, "c.csv"), schema=CSV_SCHEMA)
    engine.register_json("j", os.path.join(directory, "j.json"), schema=JSON_SCHEMA)
    if os.path.exists(os.path.join(directory, "bc")):
        engine.register_binary_columns("bc", os.path.join(directory, "bc"))
        engine.register_binary_rows("br", os.path.join(directory, "br.bin"))
    return engine


def _outcome(engine, sql, args, ordered):
    """The rows as their ``repr``s (sorted unless ORDER BY fixes the order),
    or the error's type where the query fails.  A pipeline engine answers
    on ``codegen``: missing, NaN and mixed-type keys never change the tier."""
    try:
        result = engine.query(sql, *args)
        rows = [repr(row) for row in result.rows]
    except Exception as exc:  # the pipeline must fail where Volcano fails
        return "error", type(exc).__name__
    if engine.enable_codegen:
        reasons = result.profile.tier_decline_reasons
        assert result.tier == "codegen" and not reasons, (sql, reasons)
    return "rows", rows if ordered else sorted(rows)


def _queries(literal, op):
    """(SQL, args, ordered?) per query family, over every table."""
    queries = [
        ("SELECT c.id, j.id FROM c JOIN j ON c.s = j.s", (), False),
        # Every string is >= '': the filter drops only the missing keys.
        ("SELECT c.s, COUNT(*) FROM c JOIN j ON c.s = j.s WHERE j.s >= '' "
         "GROUP BY c.s", (), False),
        ("SELECT j.s, COUNT(*) FROM j JOIN c ON j.s = c.s WHERE j.s >= '' "
         "GROUP BY j.s", (), False),
        ("SELECT c.id, bc.id FROM c JOIN bc ON c.s = bc.s", (), False),
        ("SELECT br.id, j.id FROM br JOIN j ON br.s = j.s", (), False),
        ("SELECT c.id, j.id FROM c JOIN j ON c.n = j.n", (), False),
        # Mixed-type keys (a number in ``s``, floats or bools in ``n``) match
        # by Python's equality, missing ones match nothing.
        ("SELECT a.id, b.id FROM j a JOIN j b ON a.n = b.n", (), False),
        ("SELECT a.id, b.id FROM j a JOIN j b ON a.s = b.s", (), False),
        # An int key against a str key: only a number in ``s`` can match.
        ("SELECT c.id, j.id FROM c JOIN j ON c.n = j.s", (), False),
        ("SELECT c.id, bc.id FROM c JOIN bc ON c.s = bc.n", (), False),
        # NaN keys — JSON and binary — match nothing, ints meet floats.
        ("SELECT a.id, b.id FROM j a JOIN j b ON a.x = b.x", (), False),
        ("SELECT j.id, bc.id FROM j JOIN bc ON j.x = bc.x", (), False),
        ("SELECT c.id, bc.id FROM c JOIN bc ON c.n = bc.x", (), False),
        ("SELECT COUNT(*), SUM(j.id) FROM c JOIN j ON c.s = j.s JOIN bc ON j.s = bc.s",
         (), True),
        ("SELECT j.n, COUNT(*) FROM c JOIN j ON c.n = j.n JOIN bc ON j.n = bc.n "
         "GROUP BY j.n", (), False),
        # Missing and NaN group keys are one group; several keys at once.
        ("SELECT x, COUNT(*) FROM j GROUP BY x", (), False),
        ("SELECT x, COUNT(*), SUM(id) FROM bc GROUP BY x", (), False),
        ("SELECT s, n, x, COUNT(*) FROM j GROUP BY s, n, x", (), False),
    ]
    for table in ("c", "j", "bc", "br"):
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
    for table in ("c", "j", "bc"):
        queries += [
            (f"SELECT id, n, n + 1 FROM {table}", (), False),
            (f"SELECT id FROM {table} WHERE n {op} ?", (3,), False),
            (f"SELECT SUM(n), AVG(n), MIN(n), MAX(n), COUNT(n) FROM {table}", (), True),
            (f"SELECT n, COUNT(*), SUM(id) FROM {table} GROUP BY n", (), False),
            (f"SELECT n, id FROM {table} ORDER BY n DESC, id", (), True),
            # Past int64 from two rows on: an exact Python int, as in Volcano.
            (f"SELECT SUM(id + 9223372036854775000), COUNT(*) FROM {table}", (), True),
        ]
    queries += [
        ("SELECT id, b FROM j WHERE b", (), False),
        ("SELECT id FROM j WHERE b = ?", (False,), False),
        ("SELECT b, COUNT(*) FROM j GROUP BY b", (), False),
        ("SELECT MIN(b), MAX(b), COUNT(b) FROM j", (), True),
        ("SELECT SUM(m), AVG(m), MIN(m), MAX(m), COUNT(m), SUM(f), AVG(f), MIN(f), "
         "COUNT(*) FROM j", (), True),
        ("SELECT b, id FROM j ORDER BY b, id", (), True),
        ("for { r <- j, x <- r.xs } yield sum (x.v)", (), True),
        ("for { r <- j, x <- r.xs } yield bag (r.id, x.v)", (), False),
        ("for { r <- j, x <- outer r.xs } yield bag (r.id, x.v)", (), False),
        ("for { r <- j, x <- r.xs, y <- x.ys } yield bag (r.id, y.w)", (), False),
        ("for { r <- j, x <- r.xs, y <- x.ys } yield sum (y.w)", (), True),
    ]
    return queries


def _assert_like_volcano(directory, queries) -> None:
    """Every query answers as Volcano does under every configuration, cold
    and cached."""
    volcano = _engine(
        directory, enable_codegen=False, enable_caching=False
    )
    engines = {}
    for label, kwargs in CONFIGS.items():
        engines[label] = _engine(directory, enable_caching=False, **kwargs)
        cached = engines[f"{label}-cached"] = _engine(directory, **kwargs)
        cached.query("SELECT id, s, n FROM c")  # caches every column
        cached.query("SELECT id, s, n, b, x FROM j")
    for sql, args, ordered in queries:
        expected = _outcome(volcano, sql, args, ordered)
        for label, engine in engines.items():
            assert _outcome(engine, sql, args, ordered) == expected, (label, sql, args)


@SETTINGS
@given(tables=_tables())
def test_queries_match_volcano_on_every_column_form(tmp_path_factory, tables):
    csv_values, json_values, numbers, literal, op = tables
    directory = str(tmp_path_factory.mktemp("columns"))
    _write(directory, csv_values, json_values, numbers)
    # Volcano reads what was written: the binary tables' strings and ints
    # (a row table's fixed-width strings drop trailing NULs).
    volcano = _engine(directory, enable_codegen=False)
    assert volcano.query("SELECT id, s, n FROM bc").rows == list(
        zip(range(len(csv_values)), csv_values, numbers["binary_n"])
    )
    assert [s for _, s in volcano.query("SELECT id, s FROM br").rows] == [
        value.rstrip("\x00") for value in csv_values[::-1]
    ]
    _assert_like_volcano(directory, _queries(literal, op))


@pytest.mark.parametrize(
    "numbers,query",
    [
        ({"n": [10, None, 7]}, "SELECT id, n FROM j"),
        (
            {"xs": [[{"v": 10}, {"v": 2.5}], None, [{"v": 3}]]},
            "for { r <- j, x <- r.xs } yield sum (x.v)",
        ),
        ({"csv_n": ["1", "3.5", "4"]}, "SELECT id, n FROM c"),
    ],
    ids=["json-int-with-missing", "int-element-holding-a-float", "csv-int-holding-a-decimal"],
)
def test_values_keep_the_types_volcano_reads(tmp_path, numbers, query):
    """``10`` stays an int beside a missing value (not ``10.0``), ``2.5`` in
    an ``int`` element is not truncated (SUM 15.5, not 15), and a CSV
    ``int`` field truncates ``3.5`` like Volcano's converter (``3``, not
    ``3.5``)."""
    _write(str(tmp_path), ["a", "b", "c"], ["x", "y", "z"], numbers)
    _assert_like_volcano(str(tmp_path), [(query, (), True)])


def test_declared_float_json_numbers_read_as_floats_on_every_tier(tmp_path):
    """A JSON field inferred ``float`` from ints beside a ``1.5`` — top
    level, in a nested record and in a collection's elements — reads floats
    on every tier, cold and cached, as its CSV twin does: ``0.0``, never
    ``0``; so does an int beside a string in a declared ``float`` field
    (an object column)."""
    numbers = [0, 1, 2, 3, 1.5]
    with open(tmp_path / "m.json", "w", encoding="utf-8") as handle:
        for index, g in enumerate(numbers):
            record = {"id": index, "k": index % 2, "g": g, "o": {"g": g}, "xs": [{"g": g}]}
            handle.write(json.dumps(record) + "\n")
    with open(tmp_path / "m.csv", "w", encoding="utf-8") as handle:
        handle.write("id,k,g\n")
        handle.writelines(f"{index},{index % 2},{g}\n" for index, g in enumerate(numbers))
    with open(tmp_path / "o.json", "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps({"id": i, "g": g}) + "\n" for i, g in enumerate([0, "a", 1.5]))
    queries = [
        ("SELECT MIN(g), MAX(g), SUM(g) FROM {t}", (), True),
        ("SELECT k, MIN(g), MAX(g) FROM {t} GROUP BY k", (), False),
        ("SELECT id, g FROM {t}", (), False),
        ("SELECT id FROM {t} WHERE g < ?", (2,), False),
    ]
    nested = [
        ("SELECT id, g FROM o", (), False),
        ("for { r <- m } yield bag (r.id, r.o.g)", (), False),
        ("for { r <- m, x <- r.xs } yield bag (r.id, x.g)", (), False),
        ("for { r <- m, x <- r.xs } yield sum (x.g)", (), True),
    ]
    engines = {"volcano": ProteusEngine(enable_codegen=False, enable_caching=False)}
    for label, kwargs in CONFIGS.items():
        engines[label] = ProteusEngine(enable_caching=False, **kwargs)
        engines[f"{label}-cached"] = ProteusEngine(**kwargs)
    for engine in engines.values():
        engine.register_json("m", str(tmp_path / "m.json"), analyze=True)
        engine.register_csv("c", str(tmp_path / "m.csv"), analyze=True)
        engine.register_json("o", str(tmp_path / "o.json"), schema={"id": "int", "g": "float"})
        if engine.cache_manager is not None:
            engine.query("SELECT id, k, g FROM m")  # caches every column
    volcano = engines["volcano"]
    assert _outcome(volcano, queries[0][0].format(t="m"), (), True) == (
        "rows", ["(0.0, 3.0, 7.5)"]
    )
    for sql, args, ordered in queries:
        expected = _outcome(volcano, sql.format(t="c"), args, ordered)
        for label, engine in engines.items():
            for table in ("m", "c"):
                outcome = _outcome(engine, sql.format(t=table), args, ordered)
                assert outcome == expected, (label, table, sql)
    for sql, args, ordered in nested:
        expected = _outcome(volcano, sql, args, ordered)
        assert "(0, 0.0)" in expected[1] or ordered
        for label, engine in engines.items():
            assert _outcome(engine, sql, args, ordered) == expected, (label, sql)


def test_empty_csv_numbers_are_missing_values(tmp_path):
    """An empty field of a CSV ``int``, ``float`` or ``date`` column is a
    missing value on every tier, as an absent JSON field is — not a
    conversion error — and statistics collection reads it too."""
    path = tmp_path / "empty.csv"
    path.write_text("id,n,f,d\n0,1,1.5,2020-01-02\n1,,,\n2,4,2.5,2020-01-01\n")
    dated = t.make_schema({"id": "int", "n": "int", "f": "float", "d": "date"})
    for kwargs in ({"enable_codegen": False}, *CONFIGS.values()):
        engine = ProteusEngine(enable_caching=False, **kwargs)
        engine.register_csv("e", str(path), analyze=True)  # inferred schema
        engine.register_csv("dated", str(path), schema=dated)
        rows = engine.query("SELECT id, n FROM e").rows
        assert repr(rows) == repr([(0, 1), (1, None), (2, 4)]), kwargs
        assert engine.query("SELECT SUM(n) FROM e").rows == [(5,)], kwargs
        assert engine.query("SELECT f FROM e WHERE id = 1").rows == [(None,)], kwargs
        ordered = engine.query("SELECT id, f FROM e ORDER BY f DESC").column("id")
        assert ordered == [2, 0, 1], kwargs
        assert engine.query("SELECT d FROM dated").column("d") == [18263, None, 18262], kwargs


def test_blank_csv_numbers_are_missing_values(tmp_path):
    """A field holding only blanks reads like an empty one: a missing
    ``int``, ``float`` or ``date`` on every tier, inferred and declared
    schemas alike, statistics collection included."""
    path = tmp_path / "blank.csv"
    path.write_text("id,n,f,d\n0,1,1.5,2020-01-02\n1, ,  , \n2,4,2.5,2020-01-01\n")
    dated = t.make_schema({"id": "int", "n": "int", "f": "float", "d": "date"})
    for kwargs in ({"enable_codegen": False}, *CONFIGS.values()):
        engine = ProteusEngine(enable_caching=False, **kwargs)
        engine.register_csv("e", str(path), analyze=True)  # inferred schema
        engine.register_csv("dated", str(path), schema=dated, analyze=True)
        for name in ("e", "dated"):
            rows = engine.query(f"SELECT id, n, f FROM {name}").rows
            assert repr(rows) == repr([(0, 1, 1.5), (1, None, None), (2, 4, 2.5)]), kwargs
            assert engine.query(f"SELECT SUM(n), COUNT(f) FROM {name}").rows == [(5, 2)]
        assert engine.query("SELECT d FROM dated").column("d") == [18263, None, 18262], kwargs


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
    assert isinstance(entry.data, EncodedColumn)
    assert entry.data.tolist() == ["é", None, "a"]


def test_missing_ints_and_bools_are_encoded_and_cached(tmp_path):
    """A nullable ``int`` or ``bool`` field is encoded over a typed
    dictionary (ints stay exact past 2**53) and cached as codes; the same
    field without a missing value is a plain typed column."""
    big = 2**53 + 1
    numbers = {"n": [big, None, 10], "b": [True, None, False]}
    _write(str(tmp_path), ["b", "a", "c"], ["é", "x", "a"], numbers)
    engine = _engine(str(tmp_path))
    result = engine.query("SELECT n, b FROM j")
    assert result.rows == [(big, True), (None, None), (10, False)]
    assert repr(result.rows[2]) == "(10, False)"
    cached = {entry.description: entry.data for entry in engine.cache_entries()}
    assert cached["j.n"].values.dtype == np.int64
    assert cached["j.n"].values.tolist() == [10, big]
    assert cached["j.b"].values.tolist() == [False, True]
    assert engine.query("SELECT SUM(n), MAX(n) FROM j").rows == [(big + 10, big)]
    _write(str(tmp_path), ["b"], ["é", "x"], {"n": [1, 2], "b": [True, False]})
    engine = _engine(str(tmp_path))
    engine.query("SELECT n, b FROM j")
    cached = {entry.description: entry.data for entry in engine.cache_entries()}
    assert cached["j.n"].dtype == np.int64 and cached["j.b"].dtype == np.bool_


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
    assert concat_encoded([column[:half], second]).tolist() == values


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=9)


@SETTINGS
@given(
    texts=st.lists(
        st.tuples(st.sampled_from(["", "-"]), _DIGITS, st.one_of(st.none(), _DIGITS)),
        min_size=1, max_size=20,
    )
)
def test_parse_numbers_is_exact(texts):
    """Plain ``[-]digits`` parse to the exact int, plain decimals of at most
    15 digits to ``float(text)``; anything else takes the per-value path."""
    from repro.core.columns import parse_numbers

    spans = [sign + whole + ("" if point is None else "." + point) for sign, whole, point in texts]
    data = "".join(spans).encode()
    ends = np.cumsum([len(span) for span in spans])
    starts = ends - [len(span) for span in spans]
    integral = parse_numbers(data, starts, ends, integral=True)
    if all(point is None for _, _, point in texts):
        assert integral.tolist() == [int(span) for span in spans]
    else:
        assert integral is None
    floats = parse_numbers(data, starts, ends, integral=False)
    digits = [len(whole) + len(point or "") for _, whole, point in texts]
    if max(digits) <= 15:
        assert floats.tolist() == [float(span) for span in spans]


def test_a_trailing_nul_sorts_after_its_prefix(tmp_path):
    """Codes and the Volcano sort agree that ``"a" < "a\\x00" < "b"``."""
    _write(str(tmp_path), ["a\x00", "b", "a", "\x00", ""], ["b", "a\x00", "a"])
    volcano = _engine(str(tmp_path), enable_codegen=False)
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
@pytest.mark.parametrize(
    "dictionary,scalar",
    [(["a", "b"], "a"), ([3, 10], 3), ([3, 10], 5.5), ([3, 10], 2**70), ([False, True], True)],
)
def test_compare_codes_against_a_missing_scalar_is_false(op, dictionary, scalar):
    """Codes compare like the decoded values, against any dictionary kind."""
    from repro.core.executor import radix

    column = EncodedColumn(np.asarray([0, -1, 1], dtype=np.int32), np.asarray(dictionary))
    if column.values.dtype.kind == "U":
        column.values = column.values.astype(object)
    assert not radix.null_safe_compare(op, column, None).any()
    decoded = [dictionary[0], None, dictionary[1]]
    assert radix.null_safe_compare(op, scalar, column).tolist() == [
        radix.null_safe_compare(op, scalar, value).item() for value in decoded
    ]
