"""TPC-H-derived synthetic data generator (§7.1).

The paper's micro-benchmarks run over the TPC-H ``lineitem`` and ``orders``
tables at SF10/SF100, materialized as JSON files and as binary column files,
with the rows shuffled to avoid interesting orders.  This module generates the
same schemas deterministically at laptop scale and materializes them in every
format the experiments need:

* CSV files,
* JSON object streams (optionally with the same field order in every object,
  which lets the structural index use its fixed-schema specialization),
* denormalized JSON (each order embeds its lineitems) for the unnest queries,
* binary column tables.

``scale`` 1.0 corresponds to 6,000 lineitems / 1,500 orders (the paper's SF10
is 60 M / 15 M; absolute sizes are out of scope, relative behaviour is not).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.core import types as t
from repro.storage.binary_format import write_column_table

LINEITEMS_PER_SCALE = 6_000
ORDERS_PER_SCALE = 1_500

LINEITEM_SPEC = {
    "l_orderkey": "int",
    "l_linenumber": "int",
    "l_quantity": "float",
    "l_extendedprice": "float",
    "l_discount": "float",
    "l_tax": "float",
    "l_partkey": "int",
    "l_suppkey": "int",
}

ORDERS_SPEC = {
    "o_orderkey": "int",
    "o_custkey": "int",
    "o_totalprice": "float",
    "o_orderpriority": "int",
    "o_shippriority": "int",
}

LINEITEM_SCHEMA = t.make_schema(LINEITEM_SPEC)

ORDERS_SCHEMA = t.make_schema(ORDERS_SPEC)

#: Schema of the denormalized orders file (each order embeds its lineitems).
DENORMALIZED_ORDERS_SCHEMA = t.make_schema({**ORDERS_SPEC, "lineitems": [LINEITEM_SPEC]})


@dataclass
class TpchTables:
    """Generated TPC-H columns plus the key bound used to pick selectivities."""

    lineitem: dict[str, np.ndarray]
    orders: dict[str, np.ndarray]
    num_orders: int
    num_lineitems: int

    def orderkey_threshold(self, selectivity: float) -> int:
        """The ``l_orderkey < X`` bound giving roughly ``selectivity``."""
        return max(1, int(round(selectivity * self.num_orders)) + 1)


def generate(scale: float = 0.1, seed: int = 42) -> TpchTables:
    """Generate shuffled lineitem/orders columns at the given scale."""
    rng = np.random.RandomState(seed)
    num_lineitems = max(int(LINEITEMS_PER_SCALE * scale), 10)
    num_orders = max(int(ORDERS_PER_SCALE * scale), 4)

    orderkeys = rng.randint(1, num_orders + 1, size=num_lineitems)
    quantity = rng.randint(1, 51, size=num_lineitems).astype(np.float64)
    extendedprice = np.round(quantity * rng.uniform(900, 1100, size=num_lineitems), 2)
    lineitem = {
        "l_orderkey": orderkeys.astype(np.int64),
        "l_linenumber": rng.randint(1, 8, size=num_lineitems).astype(np.int64),
        "l_quantity": quantity,
        "l_extendedprice": extendedprice,
        "l_discount": np.round(rng.uniform(0.0, 0.1, size=num_lineitems), 2),
        "l_tax": np.round(rng.uniform(0.0, 0.08, size=num_lineitems), 2),
        "l_partkey": rng.randint(1, 200_000, size=num_lineitems).astype(np.int64),
        "l_suppkey": rng.randint(1, 10_000, size=num_lineitems).astype(np.int64),
    }
    order_keys = np.arange(1, num_orders + 1, dtype=np.int64)
    orders = {
        "o_orderkey": order_keys,
        "o_custkey": rng.randint(1, max(num_orders // 10, 2), size=num_orders).astype(np.int64),
        "o_totalprice": np.round(rng.uniform(1_000, 500_000, size=num_orders), 2),
        "o_orderpriority": rng.randint(1, 6, size=num_orders).astype(np.int64),
        "o_shippriority": rng.randint(0, 2, size=num_orders).astype(np.int64),
    }

    # Shuffle both tables (the paper shuffles file contents to avoid noise
    # from interesting orders).
    lineitem_order = rng.permutation(num_lineitems)
    orders_order = rng.permutation(num_orders)
    lineitem = {name: values[lineitem_order] for name, values in lineitem.items()}
    orders = {name: values[orders_order] for name, values in orders.items()}
    return TpchTables(lineitem, orders, num_orders, num_lineitems)


# ---------------------------------------------------------------------------
# Materialization in the formats the experiments need
# ---------------------------------------------------------------------------


def write_csv(path: str, columns: dict[str, np.ndarray]) -> str:
    """Write columns as a CSV file with a header row."""
    names = list(columns)
    count = len(columns[names[0]]) if names else 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        for row in range(count):
            handle.write(",".join(_csv_value(columns[name][row]) for name in names) + "\n")
    return path


def write_json(
    path: str,
    columns: dict[str, np.ndarray],
    shuffle_field_order: bool = False,
    seed: int = 7,
) -> str:
    """Write columns as a JSON object stream (one object per line)."""
    rng = np.random.RandomState(seed)
    names = list(columns)
    count = len(columns[names[0]]) if names else 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in range(count):
            ordered = list(names)
            if shuffle_field_order:
                rng.shuffle(ordered)
            record = {name: _json_value(columns[name][row]) for name in ordered}
            handle.write(json.dumps(record) + "\n")
    return path


def write_denormalized_json(path: str, tables: TpchTables) -> str:
    """Write orders with their lineitems embedded as a nested array
    (the document-store-friendly layout used by the unnest experiment)."""
    lineitems_by_order: dict[int, list[dict]] = {}
    lineitem = tables.lineitem
    count = len(lineitem["l_orderkey"])
    for row in range(count):
        record = {name: _json_value(values[row]) for name, values in lineitem.items()}
        lineitems_by_order.setdefault(int(lineitem["l_orderkey"][row]), []).append(record)
    orders = tables.orders
    with open(path, "w", encoding="utf-8") as handle:
        for row in range(len(orders["o_orderkey"])):
            key = int(orders["o_orderkey"][row])
            record = {name: _json_value(values[row]) for name, values in orders.items()}
            record["lineitems"] = lineitems_by_order.get(key, [])
            handle.write(json.dumps(record) + "\n")
    return path


def write_binary_columns(directory: str, columns: dict[str, np.ndarray],
                         schema: t.RecordType) -> str:
    write_column_table(directory, columns, schema)
    return directory


@dataclass
class TpchFiles:
    """Paths of every materialization of one generated TPC-H instance."""

    lineitem_csv: str
    orders_csv: str
    lineitem_json: str
    orders_json: str
    orders_denormalized_json: str
    lineitem_columns: str
    orders_columns: str
    tables: TpchTables


def materialize(directory: str, scale: float = 0.1, seed: int = 42) -> TpchFiles:
    """Generate and write every format used by the benchmarks into
    ``directory`` (created if needed)."""
    os.makedirs(directory, exist_ok=True)
    tables = generate(scale=scale, seed=seed)
    files = TpchFiles(
        lineitem_csv=write_csv(os.path.join(directory, "lineitem.csv"), tables.lineitem),
        orders_csv=write_csv(os.path.join(directory, "orders.csv"), tables.orders),
        lineitem_json=write_json(os.path.join(directory, "lineitem.json"), tables.lineitem),
        orders_json=write_json(os.path.join(directory, "orders.json"), tables.orders),
        orders_denormalized_json=write_denormalized_json(
            os.path.join(directory, "orders_denorm.json"), tables
        ),
        lineitem_columns=write_binary_columns(
            os.path.join(directory, "lineitem_columns"), tables.lineitem, LINEITEM_SCHEMA
        ),
        orders_columns=write_binary_columns(
            os.path.join(directory, "orders_columns"), tables.orders, ORDERS_SCHEMA
        ),
        tables=tables,
    )
    return files


def _csv_value(value) -> str:
    if isinstance(value, (np.floating, float)):
        return f"{float(value):.2f}"
    return str(value)


def _json_value(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value
