"""Inner joins return their rows in the Volcano interpreter's order.

Without ORDER BY the order of a join's output is still observable, and every
execution path must agree on it: the interpreter iterates the probe (right)
side and, per probe row, the build rows with its key in build order.  The
batch pipeline's join kernels emit exactly that — probe order, then build
order within a key — whichever kernel (``dense`` / ``sorted``) the build
side's key range selects, inline and fanned out over morsels.  Rows are compared **unsorted**.
"""

from __future__ import annotations

import pytest

from tests.conftest import FANOUT_BATCH_SIZE, make_engine

#: Configuration label -> engine kwargs.
CONFIGS = {
    "codegen": {},
    "codegen-fanout": {
        "parallel_workers": 4,
        "vectorized_batch_size": FANOUT_BATCH_SIZE,
    },
    "volcano": {"enable_codegen": False},
}

#: (query, join kernels the batch pipeline runs, in plan walk order).
JOIN_SHAPES = [
    # Equi-join on a unique integer key.
    ("SELECT a.id, b.category FROM items_csv a JOIN items_bin b ON a.id = b.id",
     ["dense"]),
    # Duplicate build keys plus a residual predicate over both sides.
    ("SELECT a.id AS x, b.id AS y FROM items_csv a JOIN items_bin b "
     "ON a.qty = b.qty WHERE a.id < 30 AND b.id > a.id", ["dense"]),
    # Three-way: the outer join's build side is the inner join's output.
    ("SELECT a.id AS x, b.id AS y, c.id AS z FROM items_csv a "
     "JOIN items_bin b ON a.id = b.id JOIN items_json c ON b.qty = c.qty "
     "WHERE c.id < 40", ["dense", "dense"]),
    # int <-> float key alignment, both directions.
    ("SELECT a.id AS x, b.id AS y FROM items_csv a JOIN items_bin b "
     "ON a.qty = b.price", ["sorted"]),
    ("SELECT a.id AS x, b.id AS y FROM items_csv a JOIN items_bin b "
     "ON a.price = b.qty", ["dense"]),
    # String keys with duplicates on both sides (dense on dictionary codes).
    ("SELECT a.id AS x, b.id AS y FROM items_csv a JOIN items_bin b "
     "ON a.category = b.category WHERE a.id < 10", ["dense"]),
    # Sparse integer range: the sorted kernel on integers.
    ("SELECT a.id AS x, b.id AS y FROM items_csv a JOIN items_bin b "
     "ON a.id * 1000000000 = b.id * 1000000000 WHERE b.qty < 4", ["sorted"]),
    # A theta join (nested loops) keeps the same probe-major order.
    ("SELECT a.id AS x, b.id AS y FROM items_bin a JOIN items_csv b "
     "ON a.id < b.qty", []),
]


@pytest.fixture(scope="module")
def engines(request):
    import os

    data_dir = request.getfixturevalue("data_dir")
    paths = {
        "items_csv": os.path.join(data_dir, "items.csv"),
        "items_json": os.path.join(data_dir, "items.json"),
        "orders_json": os.path.join(data_dir, "orders.json"),
        "items_columns": os.path.join(data_dir, "items_columns"),
        "items_rows": os.path.join(data_dir, "items_rows.bin"),
    }
    return {
        label: make_engine(paths, enable_caching=False, **kwargs)
        for label, kwargs in CONFIGS.items()
    }


@pytest.mark.parametrize("query,kernels", JOIN_SHAPES)
def test_join_rows_come_in_volcano_order(engines, query, kernels):
    reference = engines["volcano"].query(query)
    assert reference.tier == "volcano"
    assert reference.rows, query
    for label, engine in engines.items():
        if label == "volcano":
            continue
        result = engine.query(query)
        assert result.tier == label.partition("-")[0], (label, query)
        assert (result.profile.morsels_dispatched > 0) == label.endswith("fanout")
        assert result.profile.join_kernels == kernels, (label, query)
        assert result.rows == reference.rows, (label, query)


def test_join_side_cache_hit_keeps_the_order(engines, paths):
    """A build side served from the join-side cache probes the same table."""
    engine = make_engine(paths)
    query = JOIN_SHAPES[1][0]
    first = engine.query(query)
    (entry,) = [e for e in engine.cache_entries() if e.kind == "join_side"]
    assert entry.size_bytes == entry.data.size_bytes > 0
    assert entry.description == "join build side (dense)"
    second = engine.query(query)
    assert second.profile.join_build_rows == 0  # served from the cache
    assert first.rows == second.rows == engines["volcano"].query(query).rows


# ---------------------------------------------------------------------------
# Aggregates over join chains that share one key: run per key value
# ---------------------------------------------------------------------------
#
# An aggregate over inner equi-joins whose keys are one field per input, with
# every group key and aggregate argument reading one input, runs without
# building joined rows (``join_kernels`` says ``factorized``).  Its answers
# must be Volcano's: ints and strings exactly, float SUM/AVG to the last-ulp
# tolerance of reassociated float additions (the per-key products add in
# key order, not in joined-row order).  Every pipeline configuration runs
# the same per-key arithmetic, so they agree bit for bit.

import json
import math
import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ProteusEngine
from repro.core import types as t
from repro.core.columns import EncodedColumn
from repro.core.executor import vectorized
from repro.core.executor.vectorized import _SLOT, factorized_chain
from repro.core.physical import PhysHashJoin, PhysScan
from repro.core.profile import ExecutionCounters
from repro.storage.binary_format import write_column_table

CHAIN_SCHEMA = t.make_schema(
    {"id": "int", "k": "int", "x": "int", "y": "float", "g": "string"}
)

#: Pipeline configurations of the differential (label -> engine kwargs).
#: The caching one runs every query twice: the second run finds the first
#: input's key slots cached and reads that input only for what the
#: aggregates need beyond its row counts.
CHAIN_CONFIGS = {
    "codegen": {},
    "codegen-fanout-2": {"parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE},
    "codegen-fanout-8": {"parallel_workers": 8, "vectorized_batch_size": FANOUT_BATCH_SIZE},
    "codegen-cached": {"enable_caching": True},
}

_CHAIN = "FROM fc c JOIN fj j ON c.k = j.k JOIN fb b ON j.k = b.k"

#: (query, number of joins): every one runs per key value on the pipeline —
#: but for a two-input join whose first input holds each key once, which
#: has nothing to factor out and probes a table.
CHAIN_QUERIES = [
    (f"SELECT COUNT(*), SUM(c.x), AVG(j.y), MIN(b.x), MAX(c.y), COUNT(j.x) {_CHAIN}", 2),
    (f"SELECT c.g, COUNT(*), SUM(j.x), MAX(b.y), AVG(b.x) {_CHAIN} GROUP BY c.g", 2),
    (f"SELECT j.g, COUNT(*), SUM(b.x), AVG(c.x), MIN(c.y) {_CHAIN} GROUP BY j.g", 2),
    (f"SELECT b.g, COUNT(*), MIN(c.x), SUM(j.y), COUNT(c.y) {_CHAIN} GROUP BY b.g", 2),
    (f"SELECT MIN(c.g) AS c0, MAX(j.g) AS j1, MAX(b.g) AS b1, MIN(b.g) AS b0 "
     f"{_CHAIN}", 2),
    (f"SELECT COUNT(*), SUM(c.x), MAX(j.g) {_CHAIN} WHERE j.x > 1000", 2),
    (f"SELECT COUNT(*), SUM(b.y) {_CHAIN} WHERE c.x < 0 AND b.y >= 0", 2),
    # The filtered input, first in the plan, is read for its row counts only.
    (f"SELECT COUNT(*), SUM(j.x), MAX(b.y) {_CHAIN} WHERE c.x > 0", 2),
    (f"SELECT j.g, COUNT(*), SUM(b.x), AVG(j.y) {_CHAIN} WHERE c.y > 0 GROUP BY j.g", 2),
    ("SELECT COUNT(*), SUM(b.x), MAX(c.y) FROM fc c JOIN fb b ON c.k = b.k "
     "WHERE c.x < 10", 1),
    ("SELECT c.g, SUM(c.x), COUNT(*) FROM fb b JOIN fc c ON b.k = c.k "
     "GROUP BY c.g", 1),
    # String keys, grouped by the key itself.
    ("SELECT j.g, COUNT(*), SUM(j.x), MAX(c.y) FROM fj j JOIN fc c ON j.g = c.g "
     "GROUP BY j.g", 1),
    # Several keys; a float key (the sorted kernel); a CSV int key with
    # missing cells; extrema of the grouped input's own fields.
    (f"SELECT b.g, b.x, COUNT(*), MIN(b.y), MAX(c.x), SUM(j.x) {_CHAIN} GROUP BY b.g, b.x", 2),
    (f"SELECT b.y, COUNT(*), SUM(c.x), MIN(j.g) {_CHAIN} GROUP BY b.y", 2),
    (f"SELECT c.x, COUNT(*), MAX(c.y), MIN(b.g), AVG(j.y) {_CHAIN} GROUP BY c.x", 2),
    (f"SELECT j.g, MIN(j.x), MAX(j.y), MIN(c.g), COUNT(*) {_CHAIN} GROUP BY j.g", 2),
]

_VALUES = st.one_of(st.none(), st.integers(-60, 60))
_FLOATS = st.one_of(st.none(), st.integers(-400, 400).map(lambda n: n / 4))


_GROUPS = st.sampled_from(["a", "b", "c", "dd"])


@st.composite
def _chain_rows(draw, missing: bool):
    """The rows of one input: duplicate keys in a small range, missing
    arguments and group keys unless the format cannot hold them."""
    count = draw(st.integers(0, 40))
    return [
        {
            "k": draw(st.integers(0, 6)),
            "x": draw(_VALUES if missing else st.integers(-60, 60)),
            "y": draw(_FLOATS if missing else st.integers(-400, 400).map(lambda n: n / 4)),
            "g": draw(st.one_of(st.none(), _GROUPS) if missing else _GROUPS),
        }
        for _ in range(count)
    ]


def _write_chain(directory: str, csv_rows, json_rows, binary_rows) -> None:
    def cell(value) -> str:
        return "" if value is None else str(value)

    with open(os.path.join(directory, "fc.csv"), "w", encoding="utf-8") as handle:
        handle.write("id,k,x,y,g\n")
        for index, row in enumerate(csv_rows):
            handle.write(
                f"{index},{cell(row['k'])},{cell(row['x'])},{cell(row['y'])},{cell(row['g'])}\n"
            )
    with open(os.path.join(directory, "fj.json"), "w", encoding="utf-8") as handle:
        for index, row in enumerate(json_rows):
            record = {"id": index, **row}
            if index % 2:  # absent and null are both missing
                record = {name: value for name, value in record.items() if value is not None}
            handle.write(json.dumps(record) + "\n")
    write_column_table(
        os.path.join(directory, "fb"),
        {
            "id": list(range(len(binary_rows))),
            **{name: [row[name] for row in binary_rows] for name in ("k", "x", "y", "g")},
        },
        CHAIN_SCHEMA,
    )


def _chain_engine(directory: str, **kwargs) -> ProteusEngine:
    engine = ProteusEngine(**{"enable_caching": False, **kwargs})
    engine.register_csv("fc", os.path.join(directory, "fc.csv"), schema=CHAIN_SCHEMA)
    engine.register_json("fj", os.path.join(directory, "fj.json"), schema=CHAIN_SCHEMA)
    engine.register_binary_columns("fb", os.path.join(directory, "fb"))
    return engine


def _cells_match(cell, expected) -> bool:
    """The pipeline's cell against Volcano's: of the same type and equal,
    floats to the last ulp.  The one difference allowed is a grouped float
    SUM with no value on any joined row: ``0.0`` against Volcano's integer
    ``0``, as in every group-by."""
    if type(cell) is float and type(expected) is int:
        return cell == expected == 0
    if type(cell) is not type(expected):
        return False
    if isinstance(cell, float):
        if math.isnan(cell) or math.isnan(expected):
            return math.isnan(cell) and math.isnan(expected)
        return math.isclose(cell, expected, rel_tol=1e-12, abs_tol=1e-12)
    return cell == expected


def _assert_matches_volcano(rows, reference, query) -> None:
    rows, reference = sorted(rows, key=repr), sorted(reference, key=repr)
    assert len(rows) == len(reference), (query, rows, reference)
    for row, expected in zip(rows, reference):
        assert all(map(_cells_match, row, expected)), (query, row, expected)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    csv_rows=_chain_rows(missing=True),
    json_rows=_chain_rows(missing=True),
    binary_rows=_chain_rows(missing=False),
)
def test_one_key_join_chains_run_per_key_like_volcano(
    tmp_path_factory, csv_rows, json_rows, binary_rows
):
    directory = str(tmp_path_factory.mktemp("chain"))
    _write_chain(directory, csv_rows, json_rows, binary_rows)
    volcano = _chain_engine(directory, enable_codegen=False)
    engines = {
        label: _chain_engine(directory, **kwargs) for label, kwargs in CHAIN_CONFIGS.items()
    }
    for query, joins in CHAIN_QUERIES:
        reference = volcano.query(query).rows
        results = {}
        for label, engine in engines.items():
            runs = 2 if engine.cache_manager is not None else 1
            for run in range(runs):
                result = engine.query(query)
                assert result.tier == "codegen", (label, run, query)
                kernels = result.profile.join_kernels
                assert kernels == ["factorized"] * joins or (
                    joins == 1 and kernels in (["dense"], ["sorted"])
                ), (label, run, query, kernels)
                results[label, run] = (kernels, [repr(row) for row in result.rows])
                _assert_matches_volcano(result.rows, reference, (label, run, query))
        inline = results.pop(("codegen", 0))
        assert all(result == inline for result in results.values()), query


def test_integer_products_past_int64_are_exact(tmp_path):
    """Key products that pass 2**63 are taken in exact Python ints, as
    Volcano's sums over the joined rows are: a per-key sum past int64 (four
    2**62 on one key) and one that fits (two 2**61) but whose product with
    the other input's count does not."""
    big = 2**62
    csv_rows = [{"k": 0, "x": 1, "y": 1.0, "g": "a"}] * 4
    binary_rows = [{"k": 0, "x": big, "y": 1.0, "g": "a"}] * 4 + [
        {"k": 1, "x": big // 2, "y": 1.0, "g": "b"}
    ] * 2
    csv_rows += [dict(row, k=1) for row in csv_rows]
    _write_chain(str(tmp_path), csv_rows, [], binary_rows)
    volcano = _chain_engine(str(tmp_path), enable_codegen=False)
    for label, kwargs in CHAIN_CONFIGS.items():
        engine = _chain_engine(str(tmp_path), **kwargs)
        for query in (
            "SELECT COUNT(*), SUM(b.x) FROM fc c JOIN fb b ON c.k = b.k",
            "SELECT COUNT(*), SUM(b.x) FROM fc c JOIN fb b ON c.k = b.k WHERE b.k = 1",
            "SELECT c.g, SUM(b.x) FROM fc c JOIN fb b ON c.k = b.k GROUP BY c.g",
        ):
            result = engine.query(query)
            assert result.tier == "codegen", (label, query)
            assert result.profile.join_kernels == ["factorized"], (label, query)
            reference = volcano.query(query).rows
            assert repr(sorted(result.rows)) == repr(sorted(reference)), (label, query)
    assert volcano.query(
        "SELECT COUNT(*), SUM(b.x) FROM fc c JOIN fb b ON c.k = b.k"
    ).rows == [(24, 20 * big)]


def test_streamed_ranges_without_a_slot_keep_int_sums_int(tmp_path):
    """A fanned-out streamed input (the 40-row CSV and JSON files behind the
    4-row binary first input) whose 2-row morsels often keep no row — their
    keys miss the first input, or a filter drops them — still sums ints to
    an int: a morsel without rows adds no sum."""
    binary_rows = [{"k": key, "x": 1, "y": 1.0, "g": "a"} for key in (0, 0, 1, 1)]
    streamed = [
        {"k": key, "x": 2**40 + index, "y": 0.5, "g": "b"}
        for index, key in enumerate(([0, 1] + [9] * 6) * 5)
    ]
    _write_chain(str(tmp_path), streamed, streamed, binary_rows)
    volcano = _chain_engine(str(tmp_path), enable_codegen=False)
    engine = _chain_engine(
        str(tmp_path), parallel_workers=2, vectorized_batch_size=FANOUT_BATCH_SIZE
    )
    for query in (
        "SELECT COUNT(*), SUM(c.x), AVG(c.x) FROM fc c JOIN fb b ON c.k = b.k",
        "SELECT COUNT(*), SUM(j.x), MAX(j.x) FROM fj j JOIN fb b ON j.k = b.k",
        "SELECT b.g, SUM(c.x) FROM fc c JOIN fb b ON c.k = b.k GROUP BY b.g",
        "SELECT SUM(c.x) FROM fc c JOIN fb b ON c.k = b.k WHERE c.x % 3 = 0",
    ):
        result = engine.query(query)
        assert result.profile.join_kernels == ["factorized"], query
        assert result.profile.morsels_dispatched >= 16, query  # the streamed input
        assert repr(result.rows) == repr(volcano.query(query).rows), query


def test_first_input_with_unique_keys_builds_its_key_space_once(paths, monkeypatch):
    """A two-input join whose first input holds each key once probes it:
    the key slots that told it apart are the probe's build side, built once
    on the first execution and cached as one entry the second one hits."""
    from repro.core.executor import radix

    builds = []
    key_slots = radix.key_slots
    monkeypatch.setattr(radix, "key_slots", lambda keys: builds.append(1) or key_slots(keys))
    query = "SELECT COUNT(*), SUM(b.qty) FROM items_csv a JOIN items_bin b ON a.id = b.id"
    engine = make_engine(paths)
    reference = make_engine(paths, enable_codegen=False).query(query).rows
    first = engine.query(query)
    assert len(builds) == 1
    entries = [e for e in engine.cache_entries() if e.kind == "join_side"]
    assert [e.description for e in entries] == ["join build side (dense)"]
    assert entries[0].data.unique
    second = engine.query(query)
    assert len(builds) == 1  # the second execution hit the cached slots
    assert first.profile.join_kernels == second.profile.join_kernels == ["dense"]
    assert first.rows == second.rows == reference
    assert first.profile.join_build_rows == 120
    assert second.profile.join_build_rows == 0
    assert [e.description for e in engine.cache_entries() if e.kind == "join_side"] == [
        "join build side (dense)"
    ]


def test_per_key_chain_leaves_the_probe_order_unsorted(paths):
    """An aggregate run per key value reads the slots and their counts only:
    the CSR order of duplicate build keys is sorted by the first probe, and
    the cache entry accounts for it from the start."""
    import numpy as np

    from repro.core.executor import radix

    query = "SELECT COUNT(*), SUM(b.price) FROM items_csv a JOIN items_bin b ON a.qty = b.qty"
    engine = make_engine(paths)
    result = engine.query(query)
    assert result.profile.join_kernels == ["factorized"]
    assert result.rows == make_engine(paths, enable_codegen=False).query(query).rows
    (entry,) = [e for e in engine.cache_entries() if e.kind == "join_side"]
    space = entry.data
    assert not space.unique and "order" not in vars(space)
    assert entry.size_bytes == space.size_bytes
    build, _ = radix.probe(space, np.arange(10, dtype=np.int64))
    assert np.array_equal(space.order, np.argsort(space.slots, kind="stable"))
    assert len(build) and space.size_bytes == entry.size_bytes


@pytest.mark.parametrize("holder", ["first input (CSV)", "streamed input (JSON)"])
def test_missing_join_key_matches_nothing(tmp_path, holder):
    """A row whose join key is missing matches nothing, as in Volcano —
    in the input materialized as the key slots and in one streamed onto
    them: the chain runs per key value on the pipeline, no TIER009."""
    rows = [{"k": key, "x": 1, "y": 1.0, "g": "a"} for key in (0, 1, None, 1)]
    if holder.startswith("first"):
        _write_chain(str(tmp_path), rows, rows[:2], rows[:2])
    else:
        _write_chain(str(tmp_path), rows[:2], rows, rows[:2])
    query = f"SELECT COUNT(*), SUM(j.x) {_CHAIN}"
    reference = _chain_engine(str(tmp_path), enable_codegen=False).query(query)
    for label, kwargs in CHAIN_CONFIGS.items():
        result = _chain_engine(str(tmp_path), **kwargs).query(query)
        assert result.tier == "codegen", label
        assert result.profile.tier_decline_reasons == {}, label
        assert result.profile.join_kernels == ["factorized"] * 2, label
        assert result.rows == reference.rows == [(3, 3)], label


def test_sum_over_joined_rows_without_values_is_volcano_zero(tmp_path):
    """A float SUM whose argument is missing on every joined row is
    Volcano's integer ``0`` (its accumulators start there), although the
    input has values on a key that two of the three inputs hold."""
    csv_rows = [{"k": 0, "x": None, "y": None, "g": "a"}] * 2 + [
        {"k": 5, "x": 3, "y": 2.5, "g": "b"}
    ]
    json_rows = [{"k": 0, "x": 1, "y": 1.0, "g": "a"}] * 2
    binary_rows = json_rows + [{"k": 5, "x": 1, "y": 1.0, "g": "b"}]
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    query = f"SELECT SUM(c.y), SUM(c.x), COUNT(c.y), COUNT(*) {_CHAIN}"
    reference = _chain_engine(str(tmp_path), enable_codegen=False).query(query).rows
    assert repr(reference) == repr([(0, 0, 0, 8)])
    for label, kwargs in CHAIN_CONFIGS.items():
        result = _chain_engine(str(tmp_path), **kwargs).query(query)
        assert result.profile.join_kernels == ["factorized"] * 2, label
        assert repr(result.rows) == repr(reference), label


def _per_key_like_volcano(directory: str, queries: list[str]) -> dict[str, list]:
    """Run ``queries`` in every chain configuration: per key value, equal
    to Volcano, and the same rows inline, fanned out (the streamed inputs
    dispatch morsels) and on the cached second run.  Those rows by query."""
    volcano = _chain_engine(directory, enable_codegen=False)
    engines = {
        label: _chain_engine(directory, **kwargs) for label, kwargs in CHAIN_CONFIGS.items()
    }
    rows = {}
    for query in queries:
        reference = volcano.query(query).rows
        answers = set()
        for label, engine in engines.items():
            for run in range(2 if engine.cache_manager is not None else 1):
                result = engine.query(query)
                assert result.tier == "codegen", (label, query)
                assert set(result.profile.join_kernels) == {"factorized"}, (label, query)
                if "fanout" in label:
                    assert result.profile.morsels_dispatched > 0, (label, query)
                _assert_matches_volcano(result.rows, reference, (label, run, query))
                answers.add(tuple(repr(row) for row in result.rows))
        assert len(answers) == 1, (query, answers)
        rows[query] = result.rows
    return rows


def _keyed(keys, **values) -> list[dict]:
    """One chain row per key, every other field from ``values`` (a callable
    takes the key)."""
    return [
        {
            "k": key,
            **{
                name: value(key) if callable(value) else value
                for name, value in {"x": 1, "y": 1.0, "g": "a", **values}.items()
            },
        }
        for key in keys
    ]


def test_global_sum_past_int64_through_the_other_inputs_rows_is_exact(tmp_path):
    """A per-slot sum that fits int64 but whose dot with the product of the
    other inputs' rows (100 per key) does not is taken in Python ints, as
    Volcano's sum over the joined rows is — globally, and per group on a
    key of the first input and of the last."""
    big = {0: 2**60, 1: 2**60 - 1, 2: -(2**59), 3: 2**60}
    csv_rows = _keyed([index % 4 for index in range(40)], x=2**40, g=lambda key: "ab"[key % 2])
    json_rows = _keyed([index % 4 for index in range(40)], x=2**56)
    binary_rows = _keyed(range(4), x=big.__getitem__)
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    answers = _per_key_like_volcano(str(tmp_path), [
        f"SELECT COUNT(*), SUM(b.x) AS b, AVG(b.x), SUM(c.x) AS c, SUM(j.x) AS j {_CHAIN}",
        f"SELECT c.g, SUM(b.x), COUNT(*) {_CHAIN} GROUP BY c.g",
        f"SELECT c.g, SUM(j.x) {_CHAIN} GROUP BY c.g",
        f"SELECT b.g, SUM(j.x) {_CHAIN} GROUP BY b.g",
    ])
    ((count, total, *_),), _, by_c, by_b = answers.values()
    assert (count, total) == (400, 100 * sum(big.values())) and total > 2**63
    assert sorted(by_c) == [("a", 200 * 2**56), ("b", 200 * 2**56)]
    assert by_b == [("a", 400 * 2**56)]


def test_avg_over_held_slots_without_argument_values(tmp_path):
    """The keys every input holds carry no ``c.y`` (other keys of ``c``
    do): AVG is missing, SUM Volcano's integer 0, COUNT 0."""
    csv_rows = _keyed(
        [index % 4 for index in range(40)], y=lambda key: None if key < 2 else 2.5
    )
    json_rows = _keyed([index % 2 for index in range(40)], y=0.5)
    binary_rows = _keyed(range(4), g=lambda key: "ab"[key % 2])
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    answers = _per_key_like_volcano(str(tmp_path), [
        f"SELECT AVG(c.y) AS c, SUM(c.y), COUNT(c.y), AVG(j.y) AS j, COUNT(*) {_CHAIN}",
        f"SELECT b.g, AVG(c.y), COUNT(c.y), COUNT(*) {_CHAIN} GROUP BY b.g",
    ])
    assert repr(list(answers.values())[0]) == repr([(None, 0, 0, 0.5, 400)])


@pytest.mark.parametrize("distinct_keys", [2, 30])
def test_grouped_chain_over_few_and_many_keys(tmp_path, distinct_keys):
    """A grouped chain gathers each per-slot weight at the grouped rows and
    adds it up per code: ``b``'s 40 rows under 5 string codes (four values
    and the missing one) over 2 or 30 join keys, so that many rows share a
    slot or few do.  The dense integer key ``b.x`` alike, and the float key
    ``b.y`` on the codes of the sorted kernel."""
    keys = [index % distinct_keys for index in range(40)]
    csv_rows = _keyed(keys, x=lambda key: key - 7)
    json_rows = _keyed(keys[::-1], x=lambda key: key * 3, y=lambda key: key / 4)
    binary_rows = [
        dict(row, g="abcd"[index % 4], x=index % 3, y=(index % 5) / 4)
        for index, row in enumerate(_keyed(keys))
    ]
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    kernels = {
        f"SELECT b.g, COUNT(*), SUM(c.x) AS c, AVG(j.y), SUM(b.x) AS b, COUNT(j.x) {_CHAIN} "
        "GROUP BY b.g": "dense",
        f"SELECT b.x, COUNT(*), SUM(j.x), AVG(b.y) {_CHAIN} GROUP BY b.x": "dense",
        f"SELECT b.y, COUNT(*), SUM(j.x), MAX(c.x) {_CHAIN} GROUP BY b.y": "sorted",
    }
    _per_key_like_volcano(str(tmp_path), list(kernels))
    engine = _chain_engine(str(tmp_path))
    for query, kernel in kernels.items():
        assert engine.query(query).profile.group_kernel == kernel, query


def test_extrema_where_one_input_lacks_most_keys(tmp_path):
    """``j`` holds 2 of the 20 keys: a MIN/MAX reads its owner's rows at
    those keys only, globally and per group — the other keys' rows hold the
    smaller and larger values."""
    csv_rows = _keyed(
        [index % 20 for index in range(40)], y=lambda key: float(key), g=lambda key: "abc"[key % 3]
    )
    json_rows = _keyed([3 if index % 2 else 7 for index in range(40)], x=lambda key: key)
    binary_rows = _keyed(range(20), x=lambda key: 100 - key, y=lambda key: -float(key))
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    answers = _per_key_like_volcano(str(tmp_path), [
        f"SELECT MIN(b.x), MAX(c.y), MIN(c.g), MAX(j.x), COUNT(*) {_CHAIN}",
        f"SELECT c.g, MIN(b.x), MAX(b.y), COUNT(*) {_CHAIN} GROUP BY c.g",
    ])
    assert repr(list(answers.values())[0]) == repr([(93, 7.0, "a", 7, 80)])


def test_empty_key_intersection_answers_one_row(tmp_path):
    """No key is held by every input: the global aggregate is still one
    row — COUNT 0, SUM 0, AVG/MIN/MAX missing."""
    csv_rows = _keyed([index % 2 for index in range(40)])
    json_rows = _keyed([2 + index % 2 for index in range(40)])
    binary_rows = _keyed(range(4))
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    answers = _per_key_like_volcano(str(tmp_path), [
        f"SELECT COUNT(*), SUM(b.x), SUM(c.y), AVG(j.y), MIN(b.x), MAX(c.g) {_CHAIN}",
    ])
    assert repr(list(answers.values())) == repr([[(0, 0, 0, None, None, None)]])


def test_key_slots_are_kept_like_a_join_table(paths):
    """The first input's key slots are the join build side the adaptive
    cache keeps — one structure, probed or reduced per slot — keyed by the
    bound parameter values."""
    query = (
        "SELECT b.qty, COUNT(*), SUM(c.price) FROM items_csv a "
        "JOIN items_bin b ON a.id = b.id JOIN items_json c ON b.id = c.id "
        "WHERE b.qty < ? GROUP BY b.qty"  # on the first input, b
    )
    engine = make_engine(paths)
    volcano = make_engine(paths, enable_codegen=False)
    for bound in (5, 3, 5):
        result = engine.query(query, bound)
        assert result.profile.join_kernels == ["factorized"] * 2
        reference = volcano.query(query, bound).rows
        assert sorted(result.rows) == sorted(reference), bound
    entries = [e for e in engine.cache_entries() if e.kind == "join_side"]
    assert [e.description for e in entries] == ["join build side (dense)"] * 2
    assert result.profile.join_build_rows == 0  # the third run hit the cache


def test_cached_first_input_needed_for_counts_only_is_not_read(tmp_path):
    """A first input the aggregate needs only the row counts of — a filtered
    CSV under ``COUNT(*)`` — is not read once its key slots are cached, and
    the other inputs' per-slot row counts are cached too: the second
    execution processes no batch at all, with the same answer."""
    rows = [
        {"k": index % 5, "x": index - 20, "y": index / 4, "g": "abc"[index % 3]}
        for index in range(40)
    ]
    _write_chain(str(tmp_path), rows, rows[::2], rows[::3])
    query = f"SELECT COUNT(*) {_CHAIN} WHERE c.x > 0"
    batch_size = 8
    engine = _chain_engine(str(tmp_path), enable_caching=True, vectorized_batch_size=batch_size)
    first, second = engine.query(query), engine.query(query)
    chain = factorized_chain(engine.last_plan)
    (scan,) = [node for node in chain.inputs[0].walk() if isinstance(node, PhysScan)]
    assert scan.dataset == "fc"  # the filtered CSV is the first input
    assert first.profile.join_kernels == second.profile.join_kernels == ["factorized"] * 2
    assert first.profile.batches_processed > math.ceil(len(rows) / batch_size)
    assert second.profile.batches_processed == 0
    reference = _chain_engine(str(tmp_path), enable_codegen=False).query(query).rows
    assert first.rows == second.rows == reference


def test_reregistered_first_input_is_read_again(tmp_path):
    """Re-registering the first input's dataset drops the key slots built
    from its old rows — as many rows as the new ones, on other keys: the
    next execution answers over the new rows."""
    rows = [{"k": index % 4, "x": index, "y": 1.0, "g": "a"} for index in range(12)]
    _write_chain(str(tmp_path), rows, rows, rows)
    query = f"SELECT COUNT(*), SUM(j.x) {_CHAIN} WHERE c.x < 9"
    engine = _chain_engine(str(tmp_path), enable_caching=True)
    before = engine.query(query)
    (scan,) = [
        node
        for node in factorized_chain(engine.last_plan).inputs[0].walk()
        if isinstance(node, PhysScan)
    ]
    assert scan.dataset == "fc"  # the filtered CSV is the first input
    changed = tmp_path / "changed"
    changed.mkdir()
    _write_chain(str(changed), [dict(row, k=row["k"] // 2) for row in rows], [], [])
    volcano = _chain_engine(str(tmp_path), enable_codegen=False)
    for registry in (engine, volcano):
        registry.register_csv("fc", str(changed / "fc.csv"), schema=CHAIN_SCHEMA)
    after = engine.query(query)
    assert after.profile.join_kernels == ["factorized"] * 2
    assert after.rows == volcano.query(query).rows != before.rows


def test_reregistered_second_dataset_of_a_joined_build_side_drops_its_slots(tmp_path):
    """The key slots of a join's build side that is itself a join belong to
    both datasets it scans: re-registering the one scanned second — as many
    rows, other keys, so the side keeps its cardinality — drops them too,
    and the next execution answers over the new rows."""
    rows = [{"k": index % 4, "x": index % 6, "y": 1.0, "g": "a"} for index in range(12)]
    _write_chain(str(tmp_path), rows, rows, rows)
    query = (
        "SELECT c.id AS ci, j.id AS ji, b.id AS bi "
        "FROM fc c JOIN fj j ON c.k = j.k JOIN fb b ON j.x = b.x"
    )
    engine = _chain_engine(str(tmp_path), enable_caching=True)
    before = engine.query(query)
    (outer,) = [
        node
        for node in engine.last_plan.walk()
        if isinstance(node, PhysHashJoin) and isinstance(node.left, PhysHashJoin)
    ]
    scans = [node.dataset for node in outer.left.walk() if isinstance(node, PhysScan)]
    assert scans == ["fb", "fj"]  # the outer join's build key is j.k
    changed = tmp_path / "changed"
    changed.mkdir()
    _write_chain(str(changed), [], [dict(row, k=(row["k"] + 1) % 4) for row in rows], [])
    volcano = _chain_engine(str(tmp_path), enable_codegen=False)
    for registry in (engine, volcano):
        registry.register_json("fj", str(changed / "fj.json"), schema=CHAIN_SCHEMA)
    after = engine.query(query)
    assert after.profile.join_kernels == ["dense", "dense"]
    assert after.rows == volcano.query(query).rows != before.rows


# ---------------------------------------------------------------------------
# Per-slot partials in the adaptive cache
# ---------------------------------------------------------------------------
#
# Every chain input but the grouped one reduces to per-slot partials the
# adaptive cache keeps: a later execution over the same slot space, plan and
# bound values reads no row of it.  Each case runs uncached inline and fanned
# out (``_per_key_like_volcano``) and three times on caching engines, inline
# and fanned out: the second and third runs answer from the cache.

#: Caching configurations, each run three times per query.
CACHED_CONFIGS = {
    "cached": {"enable_caching": True},
    "cached-fanout": {
        "enable_caching": True, "parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE,
    },
}


def _partial_entries(engine) -> list:
    return [entry for entry in engine.cache_entries() if entry.kind == "chain_partial"]


def _cached_runs(engine, volcano, query, *args, runs: int = 3, fresh: bool = True) -> list:
    """Run ``query`` ``runs`` times on a caching engine: per key value,
    equal to Volcano, the same rows every time; a fanned-out engine
    dispatches morsels on the first run when that one is ``fresh`` (finds
    nothing cached).  The results."""
    reference = volcano.query(query, *args).rows
    results = [engine.query(query, *args) for _ in range(runs)]
    for run, result in enumerate(results):
        assert result.tier == "codegen", (run, query)
        assert set(result.profile.join_kernels) == {"factorized"}, (run, query)
        _assert_matches_volcano(result.rows, reference, (run, query, args))
        assert repr(result.rows) == repr(results[0].rows), (run, query)
    if fresh and engine.parallel_workers > 1:
        assert results[0].profile.morsels_dispatched > 0, query
    return results


def _partials_like_volcano(directory: str, queries: list[str]) -> dict[str, list]:
    """``_per_key_like_volcano``, then three runs of every query on each
    caching engine: the rows equal the inline run's, and the second and
    third runs of these global chains read no batch — every input's
    partials, and the slot space, come from the cache."""
    rows = _per_key_like_volcano(directory, queries)
    volcano = _chain_engine(directory, enable_codegen=False)
    for label, kwargs in CACHED_CONFIGS.items():
        engine = _chain_engine(directory, **kwargs)
        for query in queries:
            results = _cached_runs(engine, volcano, query)
            assert repr(results[0].rows) == repr(rows[query]), (label, query)
            assert [result.profile.batches_processed for result in results[1:]] == [0, 0], (
                label, query,
            )
        assert _partial_entries(engine), label
    return rows


def test_global_extrema_per_slot_like_volcano(tmp_path):
    """Global MIN/MAX reduce per slot like COUNT and SUM: over int64 values
    at both ends of the range, floats with NaN, encoded strings and encoded
    ints with missing values — and key 9, held by ``b`` alone, whose rows
    hold the widest values and must not count."""
    top, bottom = 2**63 - 1, -(2**63)
    csv_rows = _keyed(
        [index % 4 for index in range(40)],
        x=lambda key: None if key == 1 else key * 3 - 5,
        y=lambda key: None if key == 2 else key / 4,
        g=lambda key: None if key == 3 else "pqrs"[key],
    )
    json_rows = _keyed(
        [index % 5 for index in range(40)],
        x=lambda key: key - 2,
        y=lambda key: None if key % 2 else -key / 8,
        g=lambda key: "wxyzv"[key],
    )
    binary_rows = _keyed(
        [0, 1, 2, 3, 9, 9],
        x=lambda key: {0: top - 1, 1: bottom + 1, 2: 5, 3: -7, 9: top}[key],
        y=lambda key: float("nan") if key == 3 else key * 1.5,
    ) + _keyed([9], x=bottom, y=-1e300) + _keyed([2], x=top - 2, y=2.25)
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    answers = _partials_like_volcano(str(tmp_path), [
        f"SELECT MIN(b.x) AS b0, MAX(b.x) AS b1, MIN(b.y), MAX(b.y), COUNT(*) {_CHAIN}",
        f"SELECT MIN(c.x), MAX(c.x), MIN(c.y), MAX(c.y), MIN(c.g), MAX(c.g) {_CHAIN}",
        f"SELECT MIN(j.g), MAX(j.g), MAX(j.x), MIN(j.y), SUM(b.x), COUNT(c.x) {_CHAIN}",
        f"SELECT MAX(b.x), MIN(c.g) {_CHAIN} WHERE j.x > 0",
    ])
    assert list(answers.values())[0] == [(bottom + 1, top - 1, 0.0, 3.0, 400)]


def test_global_extrema_over_an_empty_key_intersection(tmp_path):
    """No key is held by every input — ``b`` holds keys 0-3, ``j`` only
    2-3 and ``c`` only 0-1 —: every MIN/MAX reads missing, over a slot
    space whose every slot some input holds."""
    csv_rows = _keyed([index % 2 for index in range(40)], x=2**62)
    json_rows = _keyed([2 + index % 2 for index in range(40)], g="j")
    binary_rows = _keyed(range(4), x=-(2**63))
    _write_chain(str(tmp_path), csv_rows, json_rows, binary_rows)
    answers = _partials_like_volcano(str(tmp_path), [
        f"SELECT MIN(b.x), MAX(c.x), MIN(j.g), MAX(c.y), COUNT(*) {_CHAIN}",
    ])
    assert list(answers.values()) == [[(None, None, None, None, 0)]]


def test_fanned_out_extrema_of_ranges_in_different_forms(tmp_path, monkeypatch):
    """``c.x`` has missing cells in every other block of rows: a fanned-out
    range over such a block reduces it encoded, the others typed ``int64``,
    whose identities at the slots a range lacks sit beside values near both
    ends of the int64 range."""
    top, bottom = 2**63 - 1, -(2**63)
    csv_rows = _keyed(
        [index % 4 for index in range(40)],
        x=lambda key: [top - 1, bottom + 1, 5, -5][key],
    )
    for index in range(40):
        if (index // 8) % 2:
            csv_rows[index]["x"] = None
    rows = _keyed([index % 4 for index in range(8)])
    _write_chain(str(tmp_path), csv_rows, rows, rows)
    forms = set()
    finish = vectorized._SlotRoot.finish_morsel

    def spy(self, state, counters):
        partials = finish(self, state, counters)
        forms.update(
            type(extremum[0]).__name__ for (_, func), extremum in partials.sums.items()
            if func == "max"
        )
        return partials

    monkeypatch.setattr(vectorized._SlotRoot, "finish_morsel", spy)
    answers = _partials_like_volcano(str(tmp_path), [
        f"SELECT MIN(c.x), MAX(c.x), COUNT(c.x), COUNT(*) {_CHAIN}",
        f"SELECT MIN(c.x), MAX(c.x) {_CHAIN} WHERE j.k > 1",
    ])
    assert forms == {"EncodedColumn", "ndarray"}
    assert list(answers.values()) == [
        [(bottom + 1, top - 1, 96, 160)], [(-5, 5)],
    ]


def test_range_extrema_merge_only_the_slots_each_range_holds():
    """Ranges of one input hand their extrema over in different forms —
    typed ``int64``, object, encoded —, each holding values at some slots
    only.  A range's slot without a value holds the reduction's identity or
    reads missing in its own form; the merge re-reduces only the slots each
    range holds, so no identity meets another range's strings (a
    ``TypeError``) or enters a dictionary."""
    root = vectorized._SlotRoot(3, {"x": (None, ("count", "min", "max"))}, {}, frozenset())
    counters = ExecutionCounters()

    def merged(ranges) -> dict:
        return root.merge([
            root.finish_morsel({_SLOT: [np.array(slots)], "x": [values]}, counters)
            for slots, values in ranges
        ], counters).sums

    mixed = merged([
        ([1, 1], np.array([7, -(2**63)], dtype=np.int64)),
        ([2, 1], np.array(["b", None], dtype=object)),
        ([3, 2, 0], EncodedColumn(np.array([1, 0, 1], dtype=np.int32), np.array(["p", "q"]))),
    ])
    assert list(mixed[("x", "count")][1:]) == [2, 2, 1]
    assert list(mixed[("x", "min")][1:]) == [-(2**63), "b", "q"]
    assert list(mixed[("x", "max")][1:]) == [7, "p", "q"]
    ints = merged([
        ([1], np.array([4], dtype=np.int64)),
        ([2, 3], EncodedColumn(np.array([0, 1], dtype=np.int32), np.array([-3, 9]))),
    ])
    for func in ("min", "max"):
        column = ints[("x", func)]
        assert isinstance(column, EncodedColumn) and list(column.values) == [-3, 4, 9]
        assert [column[slot] for slot in (1, 2, 3)] == [4, -3, 9]


def test_cached_partials_are_read_only(tmp_path):
    """Every array of a cached partial is read-only: a combine that wrote
    into one would raise instead of corrupting a later answer."""
    rows = _keyed([index % 4 for index in range(12)], x=lambda key: key, g="ab")
    _write_chain(str(tmp_path), rows, rows, rows)
    engine = _chain_engine(str(tmp_path), enable_caching=True)
    volcano = _chain_engine(str(tmp_path), enable_codegen=False)
    _cached_runs(engine, volcano, f"SELECT COUNT(*), SUM(j.x), MAX(b.g), AVG(c.y) {_CHAIN}")
    entries = _partial_entries(engine)
    assert len(entries) == 3  # one per input: each reduces a part
    for entry in entries:
        arrays = entry.data.arrays()
        assert entry.data.rows is not None and not entry.data.kept
        assert entry.size_bytes >= sum(array.nbytes for array in arrays) > 0
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


@pytest.mark.parametrize("changed", ["fb", "fj"])
def test_reregistering_an_input_dataset_drops_its_partials(tmp_path, changed):
    """A partial belongs to every dataset its input or the first input
    scans.  Re-registering the first input's dataset (``fb``) drops every
    partial of the chain; re-registering another input's (``fj``) drops
    that input's and keeps the rest.  The next runs answer over the new
    rows — same cardinalities, other keys — like Volcano."""
    rows = [
        {"k": index % 4, "x": index, "y": index / 2, "g": "abc"[index % 3]}
        for index in range(40)
    ]
    _write_chain(str(tmp_path), rows, rows, rows)
    query = f"SELECT COUNT(*), SUM(j.x), MAX(c.y), MIN(b.g) {_CHAIN}"
    changed_dir = tmp_path / "changed"
    changed_dir.mkdir()
    moved = [dict(row, k=(row["k"] + 1) % 5) for row in rows]
    _write_chain(str(changed_dir), moved, moved, moved)
    for label, kwargs in CACHED_CONFIGS.items():
        engine = _chain_engine(str(tmp_path), **kwargs)
        volcano = _chain_engine(str(tmp_path), enable_codegen=False)
        before = _cached_runs(engine, volcano, query)
        inputs = [
            [node.dataset for node in subplan.walk() if isinstance(node, PhysScan)]
            for subplan in factorized_chain(engine.last_plan).inputs
        ]
        assert inputs == [["fb"], ["fj"], ["fc"]], label
        assert len(_partial_entries(engine)) == 3, label
        for registry in (engine, volcano):
            if changed == "fb":
                registry.register_binary_columns("fb", str(changed_dir / "fb"))
            else:
                registry.register_json("fj", str(changed_dir / "fj.json"), schema=CHAIN_SCHEMA)
        kept = {entry.description for entry in _partial_entries(engine)}
        assert kept == (
            set() if changed == "fb" else {"per-slot partials of fb", "per-slot partials of fc"}
        ), label
        after = _cached_runs(engine, volcano, query)
        assert repr(after[0].rows) != repr(before[0].rows), label
        assert after[1].profile.batches_processed == 0, label


def test_parameterized_chain_keeps_one_partial_per_bound_value(tmp_path):
    """A chain whose filter on ``j`` takes a parameter, run at 5, 3 and 5:
    ``j``'s partials are kept once per bound value and never shared across
    values; the slot space and the other inputs' partials are shared.  The
    third run reads no batch."""
    rows = [
        {"k": index % 6, "x": index % 11, "y": index / 3, "g": "abcd"[index % 4]}
        for index in range(40)
    ]
    _write_chain(str(tmp_path), rows, rows, rows)
    query = f"SELECT COUNT(*), SUM(j.x), MAX(c.y), MIN(b.g) {_CHAIN} WHERE j.x < ?"
    volcano = _chain_engine(str(tmp_path), enable_codegen=False)
    assert volcano.query(query, 5).rows != volcano.query(query, 3).rows
    for label, kwargs in CACHED_CONFIGS.items():
        engine = _chain_engine(str(tmp_path), **kwargs)
        for bound in (5, 3):
            _cached_runs(engine, volcano, query, bound, runs=1)
        (third,) = _cached_runs(engine, volcano, query, 5, runs=1, fresh=False)
        assert third.profile.batches_processed == 0, label
        described = sorted(entry.description for entry in _partial_entries(engine))
        assert described == [
            "per-slot partials of fb", "per-slot partials of fc",
            "per-slot partials of fj", "per-slot partials of fj",
        ], label


def test_threads_with_different_bound_values_keep_their_own_partials(tmp_path):
    """Two barrier-aligned threads run one parameterized chain at different
    bound values on one caching engine, under aggressive preemption: each
    gets its own rows, and the cache ends with one partial of the
    parameterized input per value."""
    from repro.core.concurrency import run_concurrently, switch_interval

    rows = [
        {"k": index % 6, "x": index % 11, "y": index / 3, "g": "abcd"[index % 4]}
        for index in range(40)
    ]
    _write_chain(str(tmp_path), rows, rows, rows)
    query = f"SELECT COUNT(*), SUM(j.x), MAX(c.y) {_CHAIN} WHERE j.x < ?"
    bounds = (4, 9)
    volcano = _chain_engine(str(tmp_path), enable_codegen=False)
    expected = [repr(volcano.query(query, bound).rows) for bound in bounds]
    assert expected[0] != expected[1]
    engine = _chain_engine(
        str(tmp_path), enable_caching=True, parallel_workers=2,
        vectorized_batch_size=FANOUT_BATCH_SIZE,
    )

    def task(index: int) -> list[str]:
        return [repr(engine.query(query, bounds[index]).rows) for _ in range(4)]

    with switch_interval():
        answers = run_concurrently(task, 2)
    assert answers == [[expected[0]] * 4, [expected[1]] * 4]
    # ``fb``, the first input, adds only its row counts: its slots hold them.
    described = [entry.description for entry in _partial_entries(engine)]
    assert sorted(described) == [
        "per-slot partials of fc", "per-slot partials of fj", "per-slot partials of fj",
    ]


# ---------------------------------------------------------------------------
# A join gathers only the columns read above it
# ---------------------------------------------------------------------------

#: Worker counts of the live-column differential (fanned out over 2-row
#: morsels above one).
LIVE_WORKERS = (1, 2, 8)

#: (query, the column keys of its joined batches, their OID bindings).
LIVE_SHAPES = [
    # The prices are read only by the residual; the keys by nothing above.
    ("SELECT a.id AS x FROM items_csv a JOIN items_bin b ON a.qty = b.qty "
     "WHERE b.price > a.price AND a.id < 30",
     {("a", ("id",)), ("a", ("price",)), ("b", ("price",))}, set()),
    # Join keys the root reads stay.
    ("SELECT a.id AS x, b.id AS y, b.category AS c FROM items_csv a "
     "JOIN items_bin b ON a.id = b.id",
     {("a", ("id",)), ("b", ("id",)), ("b", ("category",))}, set()),
    # Three inputs: the inner join (b ⋈ c on ``qty``) keeps ``b.id``, the
    # outer join's key, and drops its own ``qty`` keys, which nothing above
    # reads.
    ("SELECT a.id AS x, c.id AS z FROM items_csv a "
     "JOIN items_bin b ON a.id = b.id JOIN items_json c ON b.qty = c.qty "
     "WHERE c.id < 40",
     {("a", ("id",)), ("b", ("id",)), ("c", ("id",))}, set()),
    # ... and an inner join key the root reads stays live through both.
    ("SELECT a.id AS x, b.qty AS q FROM items_csv a "
     "JOIN items_bin b ON a.id = b.id JOIN items_json c ON b.qty = c.qty "
     "WHERE c.id < 40",
     {("a", ("id",)), ("b", ("id",)), ("b", ("qty",))}, set()),
    # An unnest over a join addresses its collection by the parent's OIDs.
    ("for { o <- orders, a <- items_csv, o.okey = a.id, l <- o.lines } "
     "yield bag (o.okey, a.qty, l.item)",
     {("o", ("okey",)), ("a", ("qty",))}, {"o"}),
]


@pytest.fixture
def joined_batches(monkeypatch):
    """Every batch a join stage gathers, recorded."""
    from repro.core.executor import vectorized

    batches = []
    gather = vectorized._gather_joined

    def recording(*args):
        batches.append(gather(*args))
        return batches[-1]

    monkeypatch.setattr(vectorized, "_gather_joined", recording)
    return batches


@pytest.mark.parametrize("query,columns,oids", LIVE_SHAPES)
def test_joins_gather_only_live_columns(paths, joined_batches, query, columns, oids):
    reference = make_engine(paths, enable_codegen=False).query(query).rows
    assert reference, query
    for workers in LIVE_WORKERS:
        engine = make_engine(
            paths, enable_caching=False, parallel_workers=workers,
            vectorized_batch_size=FANOUT_BATCH_SIZE,
        )
        joined_batches.clear()
        result = engine.query(query)
        assert result.tier == "codegen", workers
        assert repr(result.rows) == repr(reference), workers
        assert joined_batches, workers
        assert set().union(*(batch.columns for batch in joined_batches)) == columns
        assert set().union(*(batch.oids for batch in joined_batches)) == oids


def test_olap_join_gathers_two_columns_and_no_oids(tmp_path, joined_batches):
    """The OLAP ``join`` class reads one column of each side above its join:
    the joined batch holds exactly those, and no OIDs."""
    from repro.workloads import tpch

    tables = tpch.generate(scale=2, seed=7)
    engine = ProteusEngine(enable_caching=False)
    engine.register_binary_columns("lineitem", tpch.write_binary_columns(
        str(tmp_path / "lineitem"), tables.lineitem, tpch.LINEITEM_SCHEMA))
    engine.register_binary_columns("orders", tpch.write_binary_columns(
        str(tmp_path / "orders"), tables.orders, tpch.ORDERS_SCHEMA))
    result = engine.query(
        "SELECT COUNT(*), SUM(l_extendedprice), MAX(o_totalprice) FROM lineitem l "
        "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_orderpriority < 3"
    )
    assert result.profile.join_kernels == ["dense"]
    assert joined_batches
    for batch in joined_batches:
        assert set(batch.columns) == {("l", ("l_extendedprice",)), ("o", ("o_totalprice",))}
        assert not batch.oids


def test_scan_emits_oids_only_where_an_operator_above_reads_them(paths, monkeypatch):
    """A cached scan under a filter and nothing that addresses rows by OID
    emits no OIDs, so the filter gathers none; an unnest above a filtered
    cached scan still gets its parents' OIDs and answers like Volcano —
    inline and fanned out."""
    from repro.core.executor import vectorized

    taken: list[set[str]] = []
    take = vectorized.Batch.take

    def recording(batch, selector, *live):
        taken.append(set(batch.oids))
        return take(batch, selector, *live)

    monkeypatch.setattr(vectorized.Batch, "take", recording)
    volcano = make_engine(paths, enable_codegen=False)
    queries = {
        "SELECT SUM(price), COUNT(*) FROM items_json WHERE id % 2 = 0": set(),
        "SELECT SUM(price), COUNT(*) FROM items_csv WHERE id % 2 = 0": set(),
        "for { o <- orders, o.okey % 2 = 0, l <- o.lines } yield bag (o.okey, l.item)": {"o"},
    }
    for workers in LIVE_WORKERS:
        engine = make_engine(
            paths, parallel_workers=workers, vectorized_batch_size=FANOUT_BATCH_SIZE
        )
        # Whole scans put every field the queries read into the cache.
        engine.query("SELECT SUM(price), SUM(id) FROM items_json")
        engine.query("SELECT SUM(price), SUM(id) FROM items_csv")
        engine.query("for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)")
        for query, oids in queries.items():
            taken.clear()
            result = engine.query(query)
            assert result.tier == "codegen", (workers, query)
            # The scans read the cache only; the unnest fetches its elements
            # by the parents' OIDs.
            assert result.profile.values_from_cache > 0, (workers, query)
            assert bool(result.profile.values_extracted) == bool(oids), (workers, query)
            assert repr(result.rows) == repr(volcano.query(query).rows), (workers, query)
            assert taken, (workers, query)
            assert set().union(*taken) == oids, (workers, query)
