"""Shared fixtures: small heterogeneous datasets and engine factories."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import ProteusEngine
from repro.core import types as t
from repro.storage.binary_format import write_column_table, write_row_table

def pytest_addoption(parser):
    parser.addoption(
        "--stress",
        action="store_true",
        default=False,
        help=(
            "run the suite under the concurrency sanitizer: DebugLock "
            "wrappers record the lock-order graph (asserted acyclic at "
            "session end) and sys.setswitchinterval is cranked down so racy "
            "interleavings surface"
        ),
    )


@pytest.fixture(scope="session", autouse=True)
def _concurrency_stress(request):
    """No-op by default; under ``--stress`` every ``make_lock`` created for
    the rest of the session is a :class:`DebugLock` and thread switches are
    ~1000x more frequent."""
    if not request.config.getoption("--stress"):
        yield
        return
    from repro.core.concurrency import (
        assert_lock_order_acyclic,
        reset_lock_order,
        set_debug_locks,
        switch_interval,
    )

    reset_lock_order()
    set_debug_locks(True)
    try:
        with switch_interval():
            yield
    finally:
        set_debug_locks(False)
    assert_lock_order_acyclic()


#: Number of rows in the small "items" dataset used across the test suite.
ITEM_COUNT = 120
#: Number of orders in the nested "orders" dataset.
ORDER_COUNT = 60
#: ``vectorized_batch_size`` at which every dataset above spans enough
#: morsels (a morsel is one batch) for *any* root to fan out — linear roots
#: need ``repro.core.parallel.morsels.LINEAR_ROOT_MORSELS`` of them.
FANOUT_BATCH_SIZE = 2


def expected_items() -> list[dict]:
    """The canonical contents of the items dataset (same in every format)."""
    rows = []
    for i in range(ITEM_COUNT):
        rows.append(
            {
                "id": i,
                "qty": i % 10,
                "price": round(i * 1.5, 2),
                "category": f"cat{i % 4}",
            }
        )
    return rows


def expected_orders() -> list[dict]:
    """The canonical contents of the nested orders dataset (JSON only)."""
    orders = []
    for i in range(ORDER_COUNT):
        orders.append(
            {
                "okey": i,
                "total": round(i * 2.5, 2),
                "origin": {"country": "CH" if i % 2 else "US", "zone": i % 3},
                "lines": [
                    {"item": j, "qty": j + 1, "price": round((j + 1) * 3.0, 2)}
                    for j in range(i % 4)
                ],
            }
        )
    return orders


ITEMS_SCHEMA = t.make_schema(
    {"id": "int", "qty": "int", "price": "float", "category": "string"}
)

ORDERS_SCHEMA = t.make_schema(
    {
        "okey": "int",
        "total": "float",
        "origin": {"country": "string", "zone": "int"},
        "lines": [{"item": "int", "qty": "int", "price": "float"}],
    }
)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory) -> str:
    """Materialize the test datasets once per session."""
    directory = tmp_path_factory.mktemp("datasets")
    items = expected_items()
    orders = expected_orders()

    csv_path = directory / "items.csv"
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write("id,qty,price,category\n")
        for row in items:
            handle.write(f"{row['id']},{row['qty']},{row['price']},{row['category']}\n")

    items_json_path = directory / "items.json"
    with open(items_json_path, "w", encoding="utf-8") as handle:
        for row in items:
            handle.write(json.dumps(row) + "\n")

    orders_json_path = directory / "orders.json"
    with open(orders_json_path, "w", encoding="utf-8") as handle:
        for order in orders:
            handle.write(json.dumps(order) + "\n")

    columns = {
        "id": np.asarray([row["id"] for row in items], dtype=np.int64),
        "qty": np.asarray([row["qty"] for row in items], dtype=np.int64),
        "price": np.asarray([row["price"] for row in items], dtype=np.float64),
        "category": np.asarray([row["category"] for row in items], dtype=object),
    }
    write_column_table(str(directory / "items_columns"), columns, ITEMS_SCHEMA)
    write_row_table(str(directory / "items_rows.bin"), columns, ITEMS_SCHEMA)
    return str(directory)


@pytest.fixture
def paths(data_dir) -> dict[str, str]:
    return {
        "items_csv": os.path.join(data_dir, "items.csv"),
        "items_json": os.path.join(data_dir, "items.json"),
        "orders_json": os.path.join(data_dir, "orders.json"),
        "items_columns": os.path.join(data_dir, "items_columns"),
        "items_rows": os.path.join(data_dir, "items_rows.bin"),
    }


def make_engine(paths: dict[str, str], **kwargs) -> ProteusEngine:
    """Create an engine with every test dataset registered."""
    engine = ProteusEngine(**kwargs)
    engine.register_csv("items_csv", paths["items_csv"], schema=ITEMS_SCHEMA)
    engine.register_json("items_json", paths["items_json"], schema=ITEMS_SCHEMA)
    engine.register_json("orders", paths["orders_json"], schema=ORDERS_SCHEMA)
    engine.register_binary_columns("items_bin", paths["items_columns"])
    engine.register_binary_rows("items_rowbin", paths["items_rows"])
    return engine


def tier_of(label: str) -> str:
    """The tier serving an engine-configuration label: ``codegen-fanout``
    (the batch pipeline with its morsel fan-out engaged) is tier
    ``codegen``."""
    return label.partition("-")[0]


@pytest.fixture
def engine(paths) -> ProteusEngine:
    return make_engine(paths)


@pytest.fixture
def volcano_engine(paths) -> ProteusEngine:
    return make_engine(
        paths, enable_codegen=False, enable_caching=False
    )
