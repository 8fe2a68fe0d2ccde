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
