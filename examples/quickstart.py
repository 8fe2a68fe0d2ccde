#!/usr/bin/env python3
"""Quickstart: query raw CSV, JSON and binary data through one engine.

This example generates a small heterogeneous data lake (a CSV file, a JSON
object stream and a binary column table), registers the three files with a
:class:`repro.ProteusEngine` — no loading step — and walks through what a
new user needs:

* ``engine.query(text, *params)`` — SQL or the comprehension syntax, over
  flat and nested data, across formats in one query,
* ``engine.prepare(text)`` — parse, bind and plan a query with ``?`` /
  ``:name`` placeholders **once**; ``pq.execute(value)`` binds constants and
  reuses the generated expression functions across calls,
* lazy columnar ``ResultSet`` objects — ``column_array`` hands out NumPy
  buffers with no rows round-trip, ``fetch_batches`` streams rows in chunks,
  ``rows`` materializes tuples only when first touched,
* ``engine.explain(text)`` — the plan, the generated code and which tier
  will serve the query.

Run it with::

    PYTHONPATH=src python examples/quickstart.py

(``tests/test_engine.py`` runs it on every test run.)  The other examples go
deeper: ``adaptive_caching.py`` (the cache at work), ``sailors_ships.py``
(the comprehension syntax), ``spam_analysis.py`` (the paper's workload).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from repro import ProteusEngine
from repro.core import types as t
from repro.storage.binary_format import write_column_table


def build_data_lake(directory: str) -> dict[str, str]:
    """Materialize a small heterogeneous data lake under ``directory``."""
    rng = np.random.RandomState(0)

    # 1. A CSV file of product sales (what an export job might drop).
    sales_csv = os.path.join(directory, "sales.csv")
    with open(sales_csv, "w", encoding="utf-8") as handle:
        handle.write("sale_id,product_id,quantity,amount\n")
        for sale_id in range(500):
            product_id = int(rng.randint(0, 50))
            quantity = int(rng.randint(1, 10))
            handle.write(f"{sale_id},{product_id},{quantity},{quantity * 19.99:.2f}\n")

    # 2. A JSON object stream of products with a nested list of reviews.
    products_json = os.path.join(directory, "products.json")
    with open(products_json, "w", encoding="utf-8") as handle:
        for product_id in range(50):
            record = {
                "product_id": product_id,
                "name": f"product-{product_id}",
                "price": round(float(rng.uniform(5, 120)), 2),
                "vendor": {"name": f"vendor-{product_id % 7}", "country": "CH"},
                "reviews": [
                    {"stars": int(rng.randint(1, 6)), "helpful": int(rng.randint(0, 40))}
                    for _ in range(int(rng.randint(0, 5)))
                ],
            }
            handle.write(json.dumps(record) + "\n")

    # 3. A binary column table of warehouse stock (a pre-existing DBMS table).
    stock_dir = os.path.join(directory, "stock_columns")
    schema = t.make_schema({"product_id": "int", "stock": "int", "reorder_level": "int"})
    write_column_table(
        stock_dir,
        {
            "product_id": np.arange(50, dtype=np.int64),
            "stock": rng.randint(0, 500, size=50).astype(np.int64),
            "reorder_level": rng.randint(10, 60, size=50).astype(np.int64),
        },
        schema,
    )
    return {"sales": sales_csv, "products": products_json, "stock": stock_dir}


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="proteus_quickstart_") as directory:
        run(build_data_lake(directory))


def run(paths: dict[str, str]) -> None:
    engine = ProteusEngine()
    engine.register_csv("sales", paths["sales"])          # raw CSV, no load step
    engine.register_json("products", paths["products"])   # raw JSON, no load step
    engine.register_binary_columns("stock", paths["stock"])

    print("== SQL over a raw CSV file ==")
    result = engine.query(
        "SELECT product_id, COUNT(*) AS sales, SUM(amount) AS revenue FROM sales "
        "WHERE quantity >= 8 GROUP BY product_id ORDER BY revenue DESC LIMIT 3"
    )
    for product_id, sales, revenue in result:
        print(f"  product {product_id:>3}  sales={sales:>3}  revenue={revenue:>9.2f}")
    print(f"  served by tier: {result.tier}")

    print("\n== Prepared statements: plan and generate once, execute many times ==")
    restock = engine.prepare(
        "SELECT COUNT(*) FROM sales s JOIN stock k ON s.product_id = k.product_id "
        "WHERE k.stock < ?"
    )
    for threshold in (50, 150):
        result = restock.execute(threshold)
        print(f"  sales of products with stock < {threshold:>3}: {result.scalar()} "
              f"(compiled_from_cache={result.profile.compiled_from_cache})")

    print("\n== Nested JSON: paths in SQL, unnest in the comprehension syntax ==")
    result = engine.query(
        "SELECT vendor.name, COUNT(*) FROM products WHERE price > :floor "
        "GROUP BY vendor.name",
        floor=20.0,
    )
    print(f"  products over 20.00 per vendor: {sorted(result.rows)[:3]} ...")
    result = engine.query(
        "for { p <- products, r <- p.reviews, r.stars >= 4 } yield count"
    )
    print(f"  reviews with 4+ stars: {result.scalar()}")

    print("\n== One query, three formats (CSV join JSON join binary) ==")
    result = engine.query(
        "SELECT p.name, SUM(s.amount) AS revenue, MAX(k.stock) AS stock "
        "FROM sales s JOIN products p ON s.product_id = p.product_id "
        "JOIN stock k ON s.product_id = k.product_id "
        "GROUP BY p.name ORDER BY revenue DESC LIMIT 3"
    )
    for name, revenue, stock in result:
        print(f"  {name:<11} revenue={revenue:>9.2f}  in stock={stock}")

    print("\n== Lazy columnar results ==")
    result = engine.query("SELECT product_id, quantity, amount FROM sales")
    amounts = result.column_array("amount")   # NumPy buffer, no row tuples built
    print(f"  column_array('amount'): {type(amounts).__name__}[{amounts.dtype}], "
          f"mean={amounts.mean():.2f}")
    first_batch = next(result.fetch_batches(5))  # stream rows in bounded chunks
    print(f"  first fetch_batches(5) chunk: {len(first_batch)} rows")

    print("\n== explain(): plan, generated code and the tier decision ==")
    text = engine.explain("SELECT COUNT(*) FROM sales WHERE quantity > 5")
    wanted = ("Scan(", "def select_", "return radix", "<- selected", "sales (csv):")
    for line in text.splitlines():
        if any(marker in line for marker in wanted):
            print(f"  {line.strip()}")
    # With code generation off the tuple-at-a-time Volcano baseline serves.
    flags = {"enable_codegen": False}
    other = ProteusEngine(**flags)
    other.register_csv("sales", paths["sales"])
    tier = other.query("SELECT COUNT(*) FROM sales WHERE quantity > 5").tier
    print(f"  ProteusEngine({flags}) -> tier {tier}")


if __name__ == "__main__":
    main()
