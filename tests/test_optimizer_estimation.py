"""Unit tests for statistics-based estimation and join ordering."""

import numpy as np
import pytest

from repro.core import types as t
from repro.core.algebra import Join, Scan, Select
from repro.core.expressions import (
    BinaryOp,
    FieldRef,
    Literal,
    Parameter,
    UnaryOp,
    conjunction,
)
from repro.core.optimizer.join_order import collect_join_region, order_joins
from repro.core.optimizer.statistics import (
    DEFAULT_SELECTIVITY,
    StatisticsManager,
    _normalize_comparison,
)
from repro.storage.catalog import Catalog, DataFormat, Dataset, DatasetStatistics


def _catalog_with_stats() -> Catalog:
    catalog = Catalog()
    schema = t.make_schema({"key": "int", "value": "float"})
    small = Dataset("small", DataFormat.BINARY_COLUMN, "/tmp/small", schema)
    small.statistics = DatasetStatistics(
        cardinality=100, min_values={"key": 0}, max_values={"key": 100}
    )
    big = Dataset("big", DataFormat.BINARY_COLUMN, "/tmp/big", schema)
    big.statistics = DatasetStatistics(
        cardinality=100_000, min_values={"key": 0}, max_values={"key": 100}
    )
    other = Dataset("other", DataFormat.CSV, "/tmp/other.csv", schema)
    other.statistics = DatasetStatistics(cardinality=10_000)
    for dataset in (small, big, other):
        catalog.register(dataset)
    return catalog


def test_range_selectivity_uses_min_max():
    catalog = _catalog_with_stats()
    statistics = StatisticsManager(catalog)
    binding = {"b": "big"}
    predicate = BinaryOp("<", FieldRef("b", ("key",)), Literal(25))
    assert statistics.predicate_selectivity(predicate, binding) == pytest.approx(0.25, abs=0.05)
    predicate = BinaryOp(">", FieldRef("b", ("key",)), Literal(75))
    assert statistics.predicate_selectivity(predicate, binding) == pytest.approx(0.25, abs=0.05)
    flipped = BinaryOp(">", Literal(25), FieldRef("b", ("key",)))
    assert statistics.predicate_selectivity(flipped, binding) == pytest.approx(0.25, abs=0.05)
    # A parameter is estimated with the value bound for this call only.
    parameterized = BinaryOp("<", FieldRef("b", ("key",)), Parameter(0))
    assert statistics.predicate_selectivity(
        parameterized, binding, {0: 25}
    ) == pytest.approx(0.25, abs=0.05)
    assert statistics.predicate_selectivity(parameterized, binding) == pytest.approx(
        DEFAULT_SELECTIVITY
    )


def test_selectivity_defaults_and_combinators():
    catalog = _catalog_with_stats()
    statistics = StatisticsManager(catalog)
    binding = {"o": "other"}
    unknown = BinaryOp("<", FieldRef("o", ("value",)), Literal(1.0))
    assert statistics.predicate_selectivity(unknown, binding) == pytest.approx(DEFAULT_SELECTIVITY)
    conjunct = conjunction([unknown, unknown])
    assert statistics.predicate_selectivity(conjunct, binding) == pytest.approx(
        DEFAULT_SELECTIVITY ** 2
    )
    negated = UnaryOp("not", unknown)
    assert statistics.predicate_selectivity(negated, binding) == pytest.approx(
        1.0 - DEFAULT_SELECTIVITY
    )
    assert statistics.predicate_selectivity(None, binding) == 1.0


def test_estimate_rows_for_scan_select_join():
    catalog = _catalog_with_stats()
    statistics = StatisticsManager(catalog)
    binding = {"s": "small", "b": "big"}
    scan_small = Scan("small", "s")
    scan_big = Scan("big", "b")
    assert statistics.estimate_rows(scan_small, binding) == 100
    select = Select(BinaryOp("<", FieldRef("b", ("key",)), Literal(50)), scan_big)
    assert statistics.estimate_rows(select, binding) < 100_000
    join = Join(BinaryOp("=", FieldRef("s", ("key",)), FieldRef("b", ("key",))),
                scan_small, scan_big)
    cross = Join(None, scan_small, scan_big)
    assert statistics.estimate_rows(join, binding) < statistics.estimate_rows(cross, binding)


def test_normalize_comparison_orientation():
    field, literal, op = _normalize_comparison(
        BinaryOp("<", Literal(5), FieldRef("x", ("a",)))
    )
    assert field is not None and op == ">"
    field, literal, op = _normalize_comparison(
        BinaryOp("=", FieldRef("x", ("a",)), FieldRef("y", ("b",)))
    )
    assert field is None


def test_join_region_collection_and_greedy_order():
    catalog = _catalog_with_stats()
    statistics = StatisticsManager(catalog)
    binding = {"s": "small", "b": "big", "o": "other"}
    scan_s, scan_b, scan_o = Scan("small", "s"), Scan("big", "b"), Scan("other", "o")
    predicate_sb = BinaryOp("=", FieldRef("s", ("key",)), FieldRef("b", ("key",)))
    predicate_bo = BinaryOp("=", FieldRef("b", ("key",)), FieldRef("o", ("key",)))
    tree = Join(predicate_bo, Join(predicate_sb, scan_b, scan_s), scan_o)
    region = collect_join_region(tree)
    assert region is not None
    inputs, predicates = region
    assert len(inputs) == 3 and len(predicates) == 2
    ordered = order_joins(inputs, predicates, statistics, binding)
    # The greedy order starts from the smallest input ("small", 100 rows).
    assert isinstance(ordered, Join)
    leftmost = ordered
    while isinstance(leftmost, Join):
        leftmost = leftmost.left
    assert isinstance(leftmost, Scan) and leftmost.dataset == "small"
    # Every join in the rebuilt tree carries a predicate (no cartesian products).
    for node in ordered.walk():
        if isinstance(node, Join):
            assert node.predicate is not None
