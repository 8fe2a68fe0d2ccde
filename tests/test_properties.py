"""Property-based tests (hypothesis) on the core data structures and on the
equivalence of the execution back-ends."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ProteusEngine
from repro.core import types as t
from repro.core.columns import EncodedColumn, column_from_values
from repro.core.types import is_missing
from repro.core.executor import radix
from repro.core.expressions import BinaryOp, FieldRef, Literal
from repro.core.normalizer import fold_constants
from repro.errors import CorruptDataError, StorageError, error_code
from repro.storage import structural_index as si
from repro.storage.binary_format import write_column_table
from tests import json_reference

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ---------------------------------------------------------------------------
# Join / grouping kernels vs naive reference
# ---------------------------------------------------------------------------


@st.composite
def _key_pool(draw):
    """A few distinct int64 keys from one range, anywhere in int64: narrow
    ranges take the dense kernels, wide ones the sorted kernels."""
    width = draw(st.sampled_from([0, 3, 40, 2**20, 2**62]))
    low = draw(st.integers(min_value=-(2**63), max_value=2**63 - 1 - width))
    keys = st.integers(min_value=low, max_value=low + width)
    return draw(st.lists(keys, min_size=1, max_size=10, unique=True))


_INT64_LIMITS = [-(2**63), 2**63 - 1]


@st.composite
def _join_sides(draw):
    """Build and probe key lists of one kind — with the dtype or column
    form each side arrives in — the build keys unique or duplicated, the
    probe keys partly outside the build side's.  Missing keys (``None``,
    NaN) and object columns mixing types take the Volcano interpreter's
    rules: a missing key matches nothing, and Python's equality holds
    across types (``1 == 1.0 == True``, never ``1 == "1"``)."""
    kind = draw(st.sampled_from([
        "int", "uint-probe", "uint-build", "float-probe", "string",
        "missing", "nan", "mixed", "mixed-build", "mixed-probe",
    ]))
    if kind.startswith("mixed"):
        pool = [0, 1, 2, 1.0, 2.5, True, False, "a", "1", "", None, float("nan")]
        build = draw(st.lists(st.sampled_from(pool), max_size=40))
        probe = draw(st.lists(st.sampled_from(pool), max_size=40))
        if kind == "mixed-build":  # probed by an encoded string column
            probe = [key for key in probe if key is None or isinstance(key, str)]
            return kind, _objects(build), column_from_values(probe, "string"), build, probe
        if kind == "mixed-probe":  # probing plain ints
            build = [key for key in build if type(key) is int]
            return kind, np.asarray(build, dtype=np.int64), _objects(probe), build, probe
        return kind, _objects(build), _objects(probe), build, probe
    if kind in ("missing", "nan"):
        pool = draw(_key_pool()) + [None]
        build = draw(st.lists(st.sampled_from(pool), max_size=40))
        probe = draw(st.lists(st.sampled_from(pool + [0, -1]), max_size=40))
        if kind == "missing":  # encoded int columns, code -1 = missing
            return kind, column_from_values(build, "int"), column_from_values(probe, "int"), build, probe
        build, probe = ([float("nan") if key is None else float(key) for key in keys]
                        for keys in (build, probe))
        return kind, np.asarray(build), np.asarray(probe), build, probe
    if kind == "string":
        pool = draw(st.lists(st.text("abcd", max_size=3), min_size=1, max_size=6, unique=True))
        strays = ["zz", "", "b"]  # probe values the build dictionary may lack
    elif kind == "uint-build":
        # uint64 builds past int64, probed by int64 keys (negatives too).
        pool = draw(st.lists(
            st.sampled_from([0, 1, 7, 2**62, 2**63, 2**63 + 1, 2**64 - 1]),
            min_size=1, max_size=5, unique=True,
        ))
        strays = [-1, -(2**63), 2**63 - 1]
    else:
        pool = draw(_key_pool())
        if kind == "uint-probe":
            # Neighbours at the top of int64: searched through float64 they
            # would round together.
            pool = sorted(set(pool) | {2**63 - 2, 2**63 - 1})
        strays = [0, -1, *_INT64_LIMITS, min(pool) - 1, max(pool) + 1]
        strays = [key for key in strays if -(2**63) <= key < 2**63]
    if draw(st.booleans()):
        build = draw(st.lists(st.sampled_from(pool), max_size=40, unique=True))
    else:
        build = draw(st.lists(st.sampled_from(pool), max_size=40))
    probe = draw(st.lists(st.sampled_from(pool + strays), max_size=40))
    if kind == "string":
        return kind, column_from_values(build, "string"), column_from_values(probe, "string"), build, probe
    if kind == "uint-probe":
        # int64 builds probed by uint64 keys past int64 as well.
        probe = [key % 2**64 for key in probe] + [2**63, 2**64 - 1]
        return kind, np.asarray(build, dtype=np.int64), np.asarray(probe, dtype=np.uint64), build, probe
    if kind == "uint-build":
        # A key past int64 probes as its int64 wrap, which must not match.
        probe = [key - 2**64 if key >= 2**63 else key for key in probe]
        return kind, np.asarray(build, dtype=np.uint64), np.asarray(probe, dtype=np.int64), build, probe
    if kind == "float-probe":
        # Only integral floats inside int64 can equal an int build key.
        probe = [float(key) for key in probe] + [0.5, float("nan"), 2.0**63, -(2.0**64)]
        return kind, np.asarray(build, dtype=np.int64), np.asarray(probe), build, probe
    return kind, np.asarray(build, dtype=np.int64), np.asarray(probe, dtype=np.int64), build, probe


def _objects(values: list) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


_NEIGHBOURS = [2**63 - 2, 2**63 - 1, 0]
_BOTTOM = [-(2**63), 1 - 2**63]


@SETTINGS
@given(sides=_join_sides())
@example(sides=(  # sorted: int64 neighbours that float64 rounds together
    "uint-probe",
    np.asarray(_NEIGHBOURS, dtype=np.int64),
    np.asarray(_NEIGHBOURS, dtype=np.uint64),
    _NEIGHBOURS,
    _NEIGHBOURS,
))
@example(sides=(  # dense from INT64_MIN, probed past int64
    "uint-probe",
    np.asarray(_BOTTOM, dtype=np.int64),
    np.asarray([5, 2**63], dtype=np.uint64),
    _BOTTOM,
    [5, 2**63],
))
def test_radix_join_equivalent_to_naive(sides):
    """A probe of the build side's key slots matches a dict of lists: every
    (build, probe) position pair in probe order, then build order within a
    key — the Volcano order — after the probe's key alignment."""
    _, build, probe, build_values, probe_values = sides
    space = radix.key_slots(build)
    keyed = [key for key in build_values if not is_missing(key)]
    assert space.unique == (len(set(keyed)) == len(keyed))
    assert space.build_size == len(build_values)
    li, ri = radix.probe(space, probe)
    rows: dict[object, list[int]] = {}
    for position, key in enumerate(build_values):
        if not is_missing(key):
            rows.setdefault(key, []).append(position)
    expected = [
        (i, j)
        for j, key in enumerate(probe_values)
        if not is_missing(key)
        for i in rows.get(key, [])
    ]
    assert list(zip(li.tolist(), ri.tolist())) == expected


@SETTINGS
@given(data=st.data(), pool=_key_pool())
def test_key_slots_number_the_keys_of_one_side(data, pool):
    """Equal keys share a slot, on either side; a key the first side lacks
    has none — also at the ends of int64, where ``key - lo`` wraps."""
    left = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    right = data.draw(
        st.lists(st.sampled_from(pool + [0, -1, -(2**63), 2**63 - 1]), max_size=60)
    )
    space = radix.key_slots(np.asarray(left, dtype=np.int64))
    rows = np.arange(len(left)) if space.slots is None else space.slots
    slot_of = dict(zip(left, rows.tolist()))
    assert len(set(slot_of.values())) == len(slot_of)
    assert all(0 <= slot < space.size for slot in slot_of.values())
    assert space.unique == (len(slot_of) == len(left))
    slots = radix.slots_of(space, np.asarray(right, dtype=np.int64))
    assert slots.tolist() == [slot_of.get(key, -1) for key in right]
    # uint64 keys beyond int64 would wrap onto negative ones.
    unsigned = [key for key in right if key >= 0] + [2**64 - 1, 2**64 + min(left)]
    unsigned = [key for key in unsigned if 0 <= key < 2**64]
    slots = radix.slots_of(space, np.asarray(unsigned, dtype=np.uint64))
    assert slots.tolist() == [slot_of.get(key, -1) for key in unsigned]


@SETTINGS
@given(data=st.data(), pools=st.lists(_key_pool(), min_size=1, max_size=2))
def test_radix_group_counts_and_sums(data, pools):
    length = data.draw(st.integers(min_value=1, max_value=80))
    key_lists = [
        data.draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
        for pool in pools
    ]
    keys = list(zip(*key_lists))
    values = np.asarray(
        data.draw(st.lists(st.floats(-1e6, 1e6), min_size=length, max_size=length))
    )
    grouping = radix.radix_group([np.asarray(k, dtype=np.int64) for k in key_lists])
    counts = radix.group_aggregate("count", grouping.group_ids, grouping.num_groups)
    sums = radix.group_aggregate("sum", grouping.group_ids, grouping.num_groups, values)
    reference_counts: dict[tuple, int] = {}
    reference_sums: dict[tuple, float] = {}
    for key, value in zip(keys, values.tolist()):
        reference_counts[key] = reference_counts.get(key, 0) + 1
        reference_sums[key] = reference_sums.get(key, 0.0) + value
    # Groups ascend in key order; each sum accumulates in input order, so
    # it is bit-identical to the sequential reference.
    grouped_keys = list(zip(*(array.tolist() for array in grouping.key_arrays)))
    assert grouped_keys == sorted(reference_counts)
    assert counts.tolist() == [reference_counts[key] for key in grouped_keys]
    assert sums.tolist() == [reference_sums[key] for key in grouped_keys]


@st.composite
def _group_key(draw, length: int):
    """One group key column of ``length`` rows: int64 keys from a narrow or
    wide range, often at an end of int64; an encoded column whose
    dictionary is sometimes wider than
    :data:`~repro.core.executor.radix.DENSE_GROUP_CODES_PER_ROW` codes a
    row (code -1 missing); floats with NaN; or an object column mixing
    types and missing values (``1 == 1.0 == True`` are one key)."""
    kind = draw(st.sampled_from(["int", "encoded", "float", "mixed"]))
    if kind == "int":
        width = draw(st.sampled_from([0, 3, 40, 2**62]))
        low = draw(st.one_of(
            st.sampled_from([-(2**63), 2**63 - 1 - width]),
            st.integers(-(2**63), 2**63 - 1 - width),
        ))
        keys = st.integers(low, low + width)
        return np.asarray(draw(st.lists(keys, min_size=length, max_size=length)), dtype=np.int64)
    if kind == "encoded":
        size = draw(st.one_of(
            st.integers(1, 6),
            st.integers(1, 20).map(lambda extra: radix.DENSE_GROUP_CODES_PER_ROW * length + extra),
        ))
        codes = st.integers(-1, min(size - 1, 8))
        return EncodedColumn(
            np.asarray(draw(st.lists(codes, min_size=length, max_size=length)), dtype=np.int32),
            np.asarray([f"v{code:05d}" for code in range(size)], dtype=object),
        )
    if kind == "float":
        keys = st.sampled_from([0.5, -2.25, 3.0, 1e300, float("nan")])
        return np.asarray(draw(st.lists(keys, min_size=length, max_size=length)))
    keys = st.sampled_from([1, 1.0, True, "a", "1", 2.5, None, float("nan")])
    values = np.empty(length, dtype=object)
    values[:] = draw(st.lists(keys, min_size=length, max_size=length))
    return values


def _dense_by_ranges(key_arrays) -> bool:
    """The kernel rule from the keys' own ranges: every key integer (an
    encoded key on its codes) and their product at most
    :data:`~repro.core.executor.radix.DENSE_GROUP_CODES_PER_ROW` codes a row."""
    codes = [keys.codes if isinstance(keys, EncodedColumn) else keys for keys in key_arrays]
    if len(codes[0]) == 0 or any(array.dtype.kind not in "iu" for array in codes):
        return False
    space = 1
    for array in codes:
        space *= int(array.max()) - int(array.min()) + 1
    return space <= radix.DENSE_GROUP_CODES_PER_ROW * len(codes[0])


def _key_values(column) -> list:
    """A key column's Python values, ``None`` for a missing one."""
    values = column.decode() if isinstance(column, EncodedColumn) else column
    return [None if is_missing(value) else value for value in values.tolist()]


@SETTINGS
@given(data=st.data(), count=st.integers(1, 3))
def test_radix_group_is_group_codes_renumbered_by_occupied_code(data, count):
    """``radix_group`` is the numbering of ``group_codes`` compacted: its
    ids are the codes renumbered by occupied code, its keys the keys of the
    occupied codes, and the kernel the key ranges choose.  Every row's code
    decodes to its own key, and rows share a code exactly when their keys
    are equal."""
    length = data.draw(st.integers(0, 40))
    key_arrays = [data.draw(_group_key(length)) for _ in range(count)]
    codes, span, keys_of, kernel = radix.group_codes(key_arrays)
    grouping = radix.radix_group(key_arrays)
    assert kernel == grouping.kernel == ("dense" if _dense_by_ranges(key_arrays) else "sorted")
    assert codes.dtype.kind == "i" and len(codes) == length
    assert np.all((codes >= 0) & (codes < span))
    occupied = np.unique(codes)
    assert grouping.num_groups == len(occupied)
    assert grouping.group_ids.tolist() == np.searchsorted(occupied, codes).tolist()
    columns = zip(grouping.key_arrays, keys_of(occupied), keys_of(codes), key_arrays)
    for grouped, decoded, per_row, keys in columns:
        assert type(grouped) is type(decoded) is type(keys)
        assert repr(_key_values(grouped)) == repr(_key_values(decoded))
        assert _key_values(per_row) == _key_values(keys)
    rows = list(zip(*(_key_values(keys) for keys in key_arrays)))
    assert len(occupied) == len(set(rows))


# ---------------------------------------------------------------------------
# Structural indexes
# ---------------------------------------------------------------------------

_json_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=10),
)

_json_objects = st.lists(
    st.fixed_dictionaries(
        {"a": _json_values, "b": _json_values},
        optional={"c": _json_values, "nested": st.fixed_dictionaries({"x": _json_values})},
    ),
    min_size=1,
    max_size=15,
)


@SETTINGS
@given(objects=_json_objects)
def test_json_structural_index_spans_roundtrip(objects):
    data = ("\n".join(json.dumps(o) for o in objects) + "\n").encode()
    index = si.build_json_index(data)
    assert index.num_objects == len(objects)
    for name in ("a", "b", "c"):
        starts, ends, types = index.column_spans(name)
        for position, record in enumerate(objects):
            if name not in record:
                assert types[position] == si.TYPE_MISSING
                continue
            assert types[position] != si.TYPE_MISSING
            assert json.loads(data[starts[position]:ends[position]]) == record[name]
    _, _, types = index.column_spans("not_a_field")
    assert (types == si.TYPE_MISSING).all()


@contextlib.contextmanager
def _block_bytes(size):
    """Run the index builders with ``size``-byte blocks."""
    saved = si.BLOCK_BYTES
    si.BLOCK_BYTES = size
    try:
        yield
    finally:
        si.BLOCK_BYTES = saved


@SETTINGS
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.text(alphabet="abcdefgh", min_size=0, max_size=8),
            # Fields past the header's four; a negative count drops fields.
            st.sampled_from([0, 0, 0, 2, -1, -2]),
        ),
        min_size=1,
        max_size=30,
    ),
    stride=st.sampled_from([1, 2, 3, 4, 5, 9]),
    block=st.sampled_from([1, 7, 64, si.BLOCK_BYTES]),
    line_end=st.sampled_from(["\n", "\r\n"]),
    terminated=st.booleans(),
)
# A short row next to a long one, and a short last row with no line end.
@example(rows=[(1, 1.0, "a", -2), (2, 2.0, "b", 2)], stride=1, block=si.BLOCK_BYTES,
         line_end="\n", terminated=True)
@example(rows=[(1, 1.0, "a", 2), (2, 2.0, "b", -2)], stride=1, block=si.BLOCK_BYTES,
         line_end="\n", terminated=False)
def test_csv_structural_index_spans_roundtrip(rows, stride, block, line_end, terminated):
    """Every field of every row, for a row range and for OIDs, at strides
    below, at and above the field count: ``field_spans`` and ``field_span``
    agree on the span, a field past the header's reads as its own field, and
    a field the row lacks is a ``StorageError`` (RES006 through the plug-in)."""
    expected = [
        ([str(a), str(a % 7), f"{b:.3f}", c] + [f"e{n}" for n in range(extra)])[: 4 + extra]
        for a, b, c, extra in rows
    ]
    text = line_end.join(["w,x,y,z"] + [",".join(fields) for fields in expected])
    text += line_end if terminated else ""
    data = text.encode()
    with _block_bytes(block):
        index = si.build_csv_index(data, stride=stride)
        assert index.num_rows == len(rows)
        for field in range(4):
            for selection in (range(len(rows)), np.arange(len(rows))[::-2]):
                if any(len(expected[row]) <= field for row in selection):
                    with pytest.raises(StorageError):
                        index.field_spans(data, selection, field)
                    continue
                starts, ends = index.field_spans(data, selection, field)
                for row, start, end in zip(selection, starts, ends):
                    assert data[start:end].decode() == expected[row][field]
                    assert index.field_span(data, int(row), field) == (start, end)
            for row in range(len(rows)):
                if len(expected[row]) <= field:
                    with pytest.raises(StorageError):
                        index.field_span(data, row, field)
    if any(len(fields) < 4 for fields in expected):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "short.csv")
            with open(path, "wb") as handle:
                handle.write(data)
            engine = ProteusEngine(enable_caching=False)
            engine.register_csv("short", path, stride=stride, schema={
                "w": "int", "x": "int", "y": "float", "z": "string"})
            with pytest.raises(CorruptDataError) as info:
                engine.query("SELECT w, x, y, z FROM short")
            assert error_code(info.value) == "RES006"


# -- the JSON index against the byte-at-a-time reference tokenizer ------------

_keys = st.text(alphabet='ab."\\{}[]:, é', max_size=3)
_strings = st.text(alphabet='xy"\\{}[]:,\té\u2028', max_size=6)
_scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    _strings,
)


def _json_trees(depth):
    """Values as ("object", [(key, value), ...]) / ("array", [...]) trees, so
    an object may repeat a key."""
    if depth == 0:
        return _scalars
    inner = _json_trees(depth - 1)
    return st.one_of(
        _scalars,
        st.tuples(st.just("object"), st.lists(st.tuples(_keys, inner), max_size=4)),
        st.tuples(st.just("array"), st.lists(inner, max_size=3)),
    )


def _render(value, draw, pad):
    """Serialize a value tree with drawn whitespace between tokens."""
    if isinstance(value, tuple) and value[0] == "object":
        items = [
            json.dumps(key, ensure_ascii=False) + draw(pad) + ":" + draw(pad)
            + _render(item, draw, pad)
            for key, item in value[1]
        ]
        return "{" + draw(pad) + f"{draw(pad)},{draw(pad)}".join(items) + draw(pad) + "}"
    if isinstance(value, tuple):
        return "[" + ",".join(_render(item, draw, pad) for item in value[1]) + "]"
    return json.dumps(value)


@st.composite
def _json_streams(draw):
    """Object streams: escapes and backslash runs, brackets inside strings,
    arrays of objects, nesting past ``max_depth``, flexible field order,
    duplicate keys, and pretty-printed multi-line objects."""
    pad = st.sampled_from(["", " ", "\n", "\n  ", "\t"])
    shared = draw(st.lists(st.tuples(_keys, _json_trees(3)), max_size=5))
    objects = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            fields = list(shared)  # same fields: a fixed schema, if all do
        else:
            fields = draw(st.lists(st.tuples(_keys, _json_trees(3)), max_size=5))
            fields = draw(st.permutations(fields))
        objects.append(_render(("object", fields), draw, pad))
    separator = draw(st.sampled_from(["\n", " ", "\n\n", "\r\n"]))
    return (separator.join(objects) + draw(pad)).encode()


def _assert_matches_reference(data, max_depth):
    spans, fields = json_reference.reference_index(data, max_depth)
    index = si.build_json_index(data, max_depth)
    assert [index.object_span(i) for i in range(index.num_objects)] == spans
    paths = set().union(*fields) if fields else set()
    assert index.paths() == paths
    for path in paths | {"not_a_field"}:
        starts, ends, types = index.column_spans(path)
        for position, mapping in enumerate(fields):
            expected = mapping.get(path)
            if expected is None:
                assert types[position] == si.TYPE_MISSING
            else:
                assert (starts[position], ends[position], types[position]) == expected
        # A gather at some positions equals the full column at them.
        picked = np.arange(index.num_objects)[::-2]
        for some, full in zip(index.column_spans(path, picked), (starts, ends, types)):
            assert np.array_equal(some, full[picked])
    sequences = json_reference.reference_sequences(data, max_depth)
    assert index.fixed_schema == (bool(sequences) and len(set(sequences)) == 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=_json_streams(),
    max_depth=st.integers(min_value=1, max_value=4),
    block=st.sampled_from([1, 16, 64, si.BLOCK_BYTES]),
)
def test_json_index_matches_reference_tokenizer(data, max_depth, block):
    """Blocks as small as one byte split objects anywhere: the builder must
    widen its window and agree with the reference on every span."""
    with _block_bytes(block):
        _assert_matches_reference(data, max_depth)


@SETTINGS
@given(data=_json_streams(), cut=st.integers(min_value=0), garbage=st.sampled_from(
    ["", "x", "}", "]", "1", '"', ",", ":", "{", "tru"]))
def test_json_index_rejects_what_the_reference_rejects(data, cut, garbage):
    """Every stream the reference tokenizer rejects — here, truncated or with
    a stray byte — the builder rejects too."""
    cut %= len(data) + 1
    broken = data[:cut] + garbage.encode() + data[cut:]
    try:
        json_reference.reference_index(broken)
    except (StorageError, UnicodeDecodeError):
        with pytest.raises((StorageError, UnicodeDecodeError)):
            si.build_json_index(broken)


def _stream(*objects) -> bytes:
    return ("\n".join(o if isinstance(o, str) else json.dumps(o) for o in objects) + "\n").encode()


#: Streams that reach the corners of the builder's passes.
_TARGETED_STREAMS = {
    # Escapes in some blocks and none in others: an escaped quote, an escaped
    # backslash before a closing quote, and backslash runs long enough that a
    # small block's edge cuts them.
    "backslashes": _stream(
        *({"a": i, "s": "plain"} for i in range(4)),
        {"s": 'say "hi"', "t": 1},
        {"s": "dir\\", "u": "x"},
        {"r": "\\" * 21 + '"' + "\\" * 8, "n": {"m": "\\"}},
        *({"a": i, "s": "plain again"} for i in range(4)),
        {"q": '"' * 7, "k\\": 2},
    ),
    # Keys longer than the words compared at once, and keys that share their
    # first 8 and 16 bytes (top level and nested).
    "keys": _stream(*(
        {
            "abcdefgh": i, "abcdefgh_one": i, "abcdefgh_two": -i,
            "abcdefghijklmnop": "x", "abcdefghijklmnop_x": [i], "abcdefghijklmnop_y": None,
            "k" * (8 * si._KEY_WORDS): 1, "k" * (8 * si._KEY_WORDS + 1): 2,
            "k" * (8 * si._KEY_WORDS + 9): {"k" * 40: True, "k" * 39: i},
            "nest": {"abcdefgh_one": i, "abcdefgh_onf": {"abcdefghijklmnop_x": i}},
        } for i in range(5)
    )),
    # A key repeated in one object keeps its first occurrence.
    "duplicates": _stream(
        '{"a": 1, "b": 2, "a": "three"}',
        '{"o": {"x": 1, "y": 0, "x": [2]}, "x": 0, "o": 5}',
        '{"a": {"a": {"a": 1, "a": 2}}, "a": null}',
        {"a": 4, "o": {"x": 9}},
    ),
    # A map-like object: one block holds over 1 000 distinct paths.
    "map-like": _stream(
        {f"k{i}": i for i in range(1_100)},
        {"k5": "five", "other": {f"n{i}": i for i in range(60)}},
        {f"k{i}": [i] for i in range(0, 1_100, 7)},
    ),
}


@pytest.mark.parametrize("block", [16, 64, si.BLOCK_BYTES])
@pytest.mark.parametrize("name", sorted(_TARGETED_STREAMS))
def test_json_index_matches_reference_on_targeted_streams(name, block):
    """Each stream agrees with the reference, and every stray byte the
    reference rejects at a spread of cuts is rejected too."""
    data = _TARGETED_STREAMS[name]
    with _block_bytes(block):
        _assert_matches_reference(data, 3)
        for cut in range(0, len(data) + 1, max(1, len(data) // 24)):
            for garbage in ("x", "}", "]", '"', ",", ":", "{", "tru", "\\"):
                broken = data[:cut] + garbage.encode() + data[cut:]
                try:
                    json_reference.reference_index(broken)
                except (StorageError, UnicodeDecodeError):
                    with pytest.raises((StorageError, UnicodeDecodeError)):
                        si.build_json_index(broken)


def test_json_index_duplicate_keys_keep_their_first_occurrence():
    data = _TARGETED_STREAMS["duplicates"]
    index = si.build_json_index(data)
    starts, ends, _ = index.column_spans("a")
    assert [data[s:e] for s, e in zip(starts[[0, 2, 3]], ends[[0, 2, 3]])] == [
        b"1", b'{"a": {"a": 1, "a": 2}}', b"4"
    ]
    starts, ends, _ = index.column_spans("a.a.a")
    assert data[starts[2]:ends[2]] == b"1"
    starts, ends, types = index.column_spans("o.x")
    assert data[starts[1]:ends[1]] == b"1" and types[2] == si.TYPE_MISSING


@pytest.mark.parametrize("name", ["keys", "map-like", "duplicates"])
def test_json_index_numbers_keys_exactly_when_hashes_collide(monkeypatch, name):
    """Every key hashing alike must still get its own path."""
    data = _TARGETED_STREAMS[name]
    expected = si.build_json_index(data, 3)
    monkeypatch.setattr(si, "_key_hash", lambda lengths, words: np.zeros(len(lengths), np.uint64))
    for block in (64, si.BLOCK_BYTES):
        with _block_bytes(block):
            _assert_matches_reference(data, 3)
            index = si.build_json_index(data, 3)
            assert index.paths() == expected.paths()


# ---------------------------------------------------------------------------
# Constant folding preserves semantics
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    a=st.integers(min_value=-100, max_value=100),
    b=st.integers(min_value=1, max_value=100),
    op=st.sampled_from(["+", "-", "*", "<", "<=", ">", ">=", "="]),
)
def test_fold_constants_matches_evaluation(a, b, op):
    expression = BinaryOp(op, Literal(a), Literal(b))
    folded = fold_constants(expression)
    assert isinstance(folded, Literal)
    assert folded.value == expression.evaluate({})


# ---------------------------------------------------------------------------
# Generated code vs Volcano interpreter vs NumPy reference on random data
# ---------------------------------------------------------------------------


@st.composite
def _filter_queries(draw):
    threshold_a = draw(st.integers(min_value=0, max_value=50))
    threshold_b = draw(st.integers(min_value=0, max_value=50))
    op_a = draw(st.sampled_from(["<", "<=", ">", ">="]))
    conjunction = draw(st.booleans())
    return threshold_a, op_a, threshold_b, conjunction


@SETTINGS
@given(
    values=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
    query=_filter_queries(),
)
def test_engine_filter_aggregate_matches_reference(tmp_path_factory, values, query):
    threshold_a, op_a, threshold_b, conjunction = query
    directory = tmp_path_factory.mktemp("prop")
    columns = {
        "a": np.asarray(values, dtype=np.int64),
        "b": np.asarray([(v * 7) % 53 for v in values], dtype=np.int64),
    }
    schema = t.make_schema({"a": "int", "b": "int"})
    write_column_table(str(directory / "table"), columns, schema)

    where = f"a {op_a} {threshold_a}"
    if conjunction:
        where += f" AND b < {threshold_b}"
    sql = f"SELECT COUNT(*), SUM(b) FROM data WHERE {where}"

    ops = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}
    mask = ops[op_a](columns["a"], threshold_a)
    if conjunction:
        mask &= columns["b"] < threshold_b
    expected_count = int(mask.sum())
    expected_sum = float(columns["b"][mask].sum())

    for enable_codegen in (True, False):
        engine = ProteusEngine(enable_codegen=enable_codegen, enable_caching=False)
        engine.register_binary_columns("data", str(directory / "table"))
        result = engine.query(sql)
        assert result.rows[0][0] == expected_count
        assert float(result.rows[0][1]) == pytest.approx(expected_sum)
