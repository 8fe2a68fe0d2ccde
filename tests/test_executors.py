"""Unit tests for the join/grouping kernels, the Volcano interpreter, the
optimizer stages and the code generator (cross-checked against each other)."""

import numpy as np
import pytest

from repro.core.algebra import Join, Scan, Select
from repro.core.columns import column_from_values
from repro.core.executor import radix
from repro.core.expressions import BinaryOp, FieldRef, Literal, conjunction
from repro.core.optimizer.join_order import choose_build_side, extract_equi_key
from repro.core.optimizer.rules import pushdown_selections, required_paths
from repro.core.physical import PhysHashJoin, PhysScan, PhysSelect, scans_of
from repro.errors import ExecutionError


# -- join / grouping kernels ------------------------------------------------------


def _naive_join(left, right):
    """Every matching (left, right) position pair, in the Volcano
    interpreter's order: right (probe) order, then left (build) order."""
    return [
        (i, j)
        for j, rv in enumerate(right)
        for i, lv in enumerate(left)
        if lv == rv
    ]


def _join(left, right):
    return radix.probe(radix.key_slots(np.asarray(left)), np.asarray(right))


def _joined(left, right):
    li, ri = _join(left, right)
    return list(zip(li.tolist(), ri.tolist()))


@pytest.mark.parametrize(
    "kernel,spread", [(radix.KERNEL_DENSE, 1), (radix.KERNEL_SORTED, 10**12)]
)
def test_radix_join_matches_naive_int(kernel, spread):
    rng = np.random.RandomState(0)
    left = rng.randint(0, 40, size=200) * spread
    right = rng.randint(0, 40, size=150) * spread
    assert radix.key_slots(left).kernel == kernel
    assert _joined(left, right) == _naive_join(left, right)


def test_radix_join_matches_naive_strings():
    left = np.asarray(["a", "b", "c", "a"], dtype=object)
    right = np.asarray(["c", "a", "d"], dtype=object)
    # Object keys take the sorted kernel; encoded strings — what every
    # plug-in produces for a string field — the dense kernel on codes, with
    # each probe batch's codes translated into the build dictionary.
    assert radix.key_slots(left).kernel == radix.KERNEL_SORTED
    assert _joined(left, right) == _naive_join(left, right)
    encoded = column_from_values(left.tolist(), "string")
    space = radix.key_slots(encoded)
    assert space.kernel == radix.KERNEL_DENSE
    li, ri = radix.probe(space, column_from_values(right.tolist(), "string"))
    assert list(zip(li.tolist(), ri.tolist())) == _naive_join(left, right)


def test_radix_join_empty_and_disjoint():
    li, ri = _join(np.asarray([1, 2, 3]), np.asarray([7, 8]))
    assert len(li) == 0 and len(ri) == 0
    li, ri = _join(np.asarray([], dtype=np.int64), np.asarray([1, 2]))
    assert len(li) == 0
    li, ri = _join(np.asarray([1, 2]), np.asarray([], dtype=np.int64))
    assert len(li) == 0 and len(ri) == 0


@pytest.mark.parametrize(
    "left,kernel",
    [
        ([1, 2, 2, 3], radix.KERNEL_DENSE),
        ([10**15, 2, 2, -(10**15)], radix.KERNEL_SORTED),
    ],
)
def test_key_slots_reuse(left, kernel):
    space = radix.key_slots(np.asarray(left))
    assert space.kernel == kernel
    assert space.build_size == 4
    assert not space.unique
    arrays = (space.lookup, space.distinct, space.slots, space.order, space.offsets)
    assert space.size_bytes == sum(a.nbytes for a in arrays if a is not None) > 0
    li, ri = radix.probe(space, np.asarray([2, 5]))
    # Duplicate build keys come back in build order.
    assert li.tolist() == [1, 2]
    assert ri.tolist() == [0, 0]
    li, ri = radix.probe(space, np.asarray([2, 2, left[0]]))
    assert li.tolist() == [1, 2, 1, 2, 0]
    assert ri.tolist() == [0, 0, 1, 1, 2]


def test_dense_join_duplicate_build_keys():
    left = np.asarray([7, 5, 7, 6, 7, 5], dtype=np.int64)
    assert radix.key_slots(left).kernel == radix.KERNEL_DENSE
    right = np.asarray([5, 8, 7, 4, 6, 7], dtype=np.int64)
    assert _joined(left, right) == _naive_join(left, right)
    # Unique build keys: the slot is the build row, one gather, same answer.
    unique = np.asarray([3, 9, 4, 6], dtype=np.int64)
    space = radix.key_slots(unique)
    assert space.unique and space.order is None and space.offsets is None
    assert space.size_bytes == space.lookup.nbytes
    assert _joined(unique, right) == _naive_join(unique, right)


def test_duplicate_build_keys_past_16_bit_slots():
    """The CSR runs of a side with more than 2**16 slots are sorted one
    16-bit digit at a time: still the stable order of the slots."""
    rng = np.random.RandomState(3)
    keys = rng.permutation(np.repeat(np.arange(70_000, dtype=np.int64), 2))
    space = radix.key_slots(keys)
    assert space.size == 70_000 and not space.unique
    assert np.array_equal(space.order, np.argsort(space.slots, kind="stable"))
    probe = np.asarray([69_999, 5, 70_000, 65_536, 5], dtype=np.int64)
    li, ri = radix.probe(space, probe)
    assert list(zip(li.tolist(), ri.tolist())) == [
        (i, j) for j, key in enumerate(probe.tolist()) for i in np.flatnonzero(keys == key)
    ]


def test_dense_join_probe_keys_outside_range_near_int64_limits():
    imin, imax = -(2**63), 2**63 - 1
    for left in ([imin, imin + 1, imin + 3], [imax - 2, imax, imax - 2]):
        build = np.asarray(left, dtype=np.int64)
        space = radix.key_slots(build)
        assert space.kernel == radix.KERNEL_DENSE
        probe = np.asarray([imin, imax, 0, -1, 1, imin + 1, imax - 2], dtype=np.int64)
        li, ri = radix.probe(space, probe)
        assert list(zip(li.tolist(), ri.tolist())) == _naive_join(
            build.tolist(), probe.tolist()
        )
    # uint64 probe keys above the int64 range never wrap onto build keys.
    space = radix.key_slots(np.asarray([-1, 0, 1], dtype=np.int64))
    li, ri = radix.probe(
        space, np.asarray([2**64 - 1, 2**63, 1, 0], dtype=np.uint64)
    )
    assert li.tolist() == [2, 1] and ri.tolist() == [2, 3]


@pytest.mark.parametrize(
    "left,right",
    [
        ([1, 2, 2, 3], [2.0, 3.5, 1.0, float(2**63)]),
        ([1.0, 2.0, 2.0, 2.5], [2, 1, 2**53 + 1]),
    ],
)
def test_radix_join_int_float_alignment(left, right):
    """Probe keys are aligned with the build side's dtype by the probe
    itself, then matched in Volcano order."""
    space = radix.key_slots(np.asarray(left))
    li, ri = radix.probe(space, np.asarray(right))
    assert list(zip(li.tolist(), ri.tolist())) == _naive_join(left, right)


@pytest.mark.parametrize(
    "keys,kernel",
    [
        ([3, 1, 3, 2, 1, 3], radix.KERNEL_DENSE),
        ([3 * 10**12, 1, 3 * 10**12, 2, 1, 3 * 10**12], radix.KERNEL_SORTED),
    ],
)
def test_radix_group_and_aggregates(keys, kernel):
    keys = np.asarray(keys)
    values = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    grouping = radix.radix_group([keys])
    assert grouping.kernel == kernel
    assert grouping.num_groups == 3
    assert grouping.key_arrays[0].tolist() == sorted(set(keys.tolist()))
    assert grouping.key_arrays[0].dtype == keys.dtype
    counts = radix.group_aggregate("count", grouping.group_ids, grouping.num_groups)
    sums = radix.group_aggregate("sum", grouping.group_ids, grouping.num_groups, values)
    maxima = radix.group_aggregate("max", grouping.group_ids, grouping.num_groups, values)
    by_key = {int(k): (int(c), float(s), float(m))
              for k, c, s, m in zip(grouping.key_arrays[0], counts, sums, maxima)}
    assert by_key[int(keys[0])] == (3, 10.0, 6.0)
    assert by_key[1] == (2, 7.0, 5.0)
    assert by_key[2] == (1, 4.0, 4.0)


def test_radix_group_multiple_keys():
    a = np.asarray([1, 1, 2, 2, 1])
    b = np.asarray(["x", "y", "x", "x", "x"], dtype=object)
    grouping = radix.radix_group([a, b])
    assert grouping.kernel == radix.KERNEL_SORTED
    assert grouping.num_groups == 3


def test_dense_grouping_multiple_keys():
    """Integer, narrow-integer and bool keys share one mixed-radix code;
    groups come out in lexicographic key order with their own dtypes."""
    rng = np.random.RandomState(3)
    a = rng.randint(-3, 3, size=400).astype(np.int64)
    b = rng.randint(-128, 128, size=400).astype(np.int8)
    c = rng.randint(0, 2, size=400).astype(bool)
    grouping = radix.radix_group([a, b, c])
    assert grouping.kernel == radix.KERNEL_DENSE
    combos = sorted(set(zip(a.tolist(), b.tolist(), c.tolist())))
    assert [arr.dtype for arr in grouping.key_arrays] == [a.dtype, b.dtype, c.dtype]
    assert list(zip(*(arr.tolist() for arr in grouping.key_arrays))) == combos
    assert [combos[g] for g in grouping.group_ids.tolist()] == list(
        zip(a.tolist(), b.tolist(), c.tolist())
    )
    # Keys at the int64 limits decode back exactly; uint64 keys (whose
    # ``key - lo`` may not fit int64) group through the sorted kernel.
    edge = np.asarray([-(2**63), -(2**63) + 2, -(2**63)], dtype=np.int64)
    top = np.asarray([2**63 - 1, 2**63 - 3, 2**63 - 1], dtype=np.int64)
    big = np.asarray([2**64 - 1, 2**64 - 3, 2**64 - 1], dtype=np.uint64)
    for keys, kernel in (([edge, top], "dense"), ([edge, big], "sorted")):
        grouping = radix.radix_group(keys)
        assert grouping.kernel == kernel
        assert [k.tolist() for k in grouping.key_arrays] == [
            [k[0], k[1]] for k in (keys[0].tolist(), keys[1].tolist())
        ]
        assert grouping.key_arrays[1].dtype == keys[1].dtype
        assert grouping.group_ids.tolist() == [0, 1, 0]


def test_radix_group_requires_keys_and_equal_lengths():
    with pytest.raises(ExecutionError):
        radix.radix_group([])
    with pytest.raises(ExecutionError):
        radix.radix_group([np.asarray([1, 2]), np.asarray([1])])


def test_group_aggregate_unknown_function():
    with pytest.raises(ExecutionError):
        radix.group_aggregate("median", np.asarray([0]), 1, np.asarray([1.0]))


# -- optimizer rules -------------------------------------------------------------------


def _field(binding, name):
    return FieldRef(binding, (name,))


def test_selection_pushdown_through_join():
    left = Scan("items", "i")
    right = Scan("orders", "o")
    join = Join(None, left, right)
    predicate = conjunction([
        BinaryOp("<", _field("i", "qty"), Literal(5)),
        BinaryOp(">", _field("o", "total"), Literal(10)),
        BinaryOp("=", _field("i", "id"), _field("o", "okey")),
    ])
    plan = pushdown_selections(Select(predicate, join))
    assert isinstance(plan, Join)
    # Join predicate holds the cross-binding conjunct.
    assert plan.predicate is not None and plan.predicate.bindings() == {"i", "o"}
    # Each side received its own selection.
    assert isinstance(plan.left, Select) and plan.left.predicate.bindings() == {"i"}
    assert isinstance(plan.right, Select) and plan.right.predicate.bindings() == {"o"}


def test_selection_merge_of_adjacent_selects():
    scan = Scan("items", "i")
    plan = Select(BinaryOp("<", _field("i", "a"), Literal(1)),
                  Select(BinaryOp(">", _field("i", "b"), Literal(0)), scan))
    pushed = pushdown_selections(plan)
    assert isinstance(pushed, Select)
    assert isinstance(pushed.child, Scan)
    assert len(pushed.predicate.bindings()) == 1


def test_required_paths_collects_all_references():
    from repro.core.algebra import Reduce
    from repro.core.expressions import AggregateCall, OutputColumn

    plan = Reduce(
        "agg",
        [OutputColumn("m", AggregateCall("max", _field("i", "price")))],
        Select(BinaryOp("<", _field("i", "qty"), Literal(3)), Scan("items", "i")),
    )
    required = required_paths(plan)
    assert required["i"] == {("price",), ("qty",)}


def test_extract_equi_key_and_residual():
    predicate = conjunction([
        BinaryOp("=", _field("o", "okey"), _field("l", "okey")),
        BinaryOp("<", _field("l", "qty"), Literal(3)),
    ])
    left_key, right_key, residual = extract_equi_key(predicate, {"o"}, {"l"})
    assert left_key.binding == "o"
    assert right_key.binding == "l"
    assert residual is not None and residual.bindings() == {"l"}
    assert extract_equi_key(None, {"o"}, {"l"}) == (None, None, None)


def test_choose_build_side():
    assert choose_build_side(1000, 10) is True
    assert choose_build_side(10, 1000) is False


# -- planner / engine integration --------------------------------------------------------


def test_planner_produces_hash_join_and_projection_pushdown(engine):
    engine.query("SELECT COUNT(*) FROM items_bin")  # warm catalog
    engine.query(
        "SELECT SUM(i.price) FROM items_bin i JOIN items_csv c ON i.id = c.id "
        "WHERE c.qty < 5"
    )
    plan = engine.last_plan
    joins = [node for node in plan.walk() if isinstance(node, PhysHashJoin)]
    assert len(joins) == 1
    scans = scans_of(plan)
    paths_by_dataset = {scan.dataset: set(map(tuple, scan.paths)) for scan in scans}
    # Only the fields the query touches are materialized by each scan.
    assert paths_by_dataset["items_bin"] == {("id",), ("price",)}
    assert paths_by_dataset["items_csv"] == {("id",), ("qty",)}


def test_planner_falls_back_to_nested_loop_for_non_equi_join(engine):
    engine.query(
        "SELECT COUNT(*) FROM items_bin i JOIN items_csv c ON i.id < c.id "
        "WHERE c.qty < 1 AND i.qty < 1"
    )
    from repro.core.physical import PhysNestedLoopJoin

    assert any(isinstance(node, PhysNestedLoopJoin) for node in engine.last_plan.walk())


# -- Volcano vs generated code -------------------------------------------------------------


QUERIES = [
    "SELECT COUNT(*) FROM items_csv WHERE qty < 5",
    "SELECT MAX(price), SUM(qty) FROM items_json WHERE id < 60",
    "SELECT qty, COUNT(*), MAX(price) FROM items_bin WHERE id < 100 GROUP BY qty",
    "SELECT SUM(i.price) FROM items_bin i JOIN items_csv c ON i.id = c.id WHERE c.qty < 4",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield count",
    "SELECT origin.country, COUNT(*) FROM orders GROUP BY origin.country",
]


def _normalized(rows):
    """Normalize numeric types so int/float representation differences between
    the vectorized and the interpreted executor do not matter."""
    out = []
    for row in rows:
        out.append(tuple(
            round(float(v), 6) if isinstance(v, (int, float)) and not isinstance(v, bool)
            else v
            for v in row
        ))
    return sorted(out, key=repr)


@pytest.mark.parametrize("query", QUERIES)
def test_generated_code_matches_volcano(engine, volcano_engine, query):
    generated = engine.query(query)
    interpreted = volcano_engine.query(query)
    assert generated.tier == "codegen"
    assert interpreted.tier != "codegen"
    assert _normalized(generated.rows) == _normalized(interpreted.rows)


def test_generated_source_is_exposed_and_specialized(engine):
    engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 5")
    source = engine.last_generated_source
    assert source is not None
    # One fused function per plan expression; the literal is inlined.
    assert "def select_" in source and "(batch):" in source
    assert "c[('items_csv', ('qty',))], 5)" in source
    # Only expressions the plan evaluates are generated; no other fields appear.
    assert "price" not in source
