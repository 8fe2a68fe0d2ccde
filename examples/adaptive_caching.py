#!/usr/bin/env python3
"""Adaptive storage demonstration (§6 / Figure 13).

The same JSON dataset is queried repeatedly.  With caching disabled, every
query pays the raw-data access cost again; with caching enabled, the engine
materializes binary caches of the converted values as a side effect of the
first queries and serves later queries from them — every scan looks its
fields up in the cache when it runs and reads the raw file only for the rest.

The script prints the per-query times of a small query sequence under both
configurations and the contents of the cache at the end.

Run it with::

    python examples/adaptive_caching.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro import ProteusEngine
from repro.workloads import tpch

QUERIES = [
    ("Q1  selective filter",
     "SELECT COUNT(*) FROM lineitem WHERE l_orderkey < 150"),
    ("Q2  same predicate, more work",
     "SELECT MAX(l_extendedprice), SUM(l_quantity) FROM lineitem WHERE l_orderkey < 150"),
    ("Q3  different predicate, same columns",
     "SELECT MAX(l_extendedprice) FROM lineitem WHERE l_quantity < 25"),
    ("Q4  group-by over cached columns",
     "SELECT l_linenumber, COUNT(*), SUM(l_extendedprice) FROM lineitem "
     "WHERE l_orderkey < 300 GROUP BY l_linenumber"),
    ("Q5  repeat of Q2",
     "SELECT MAX(l_extendedprice), SUM(l_quantity) FROM lineitem WHERE l_orderkey < 150"),
]


def run_sequence(path: str, enable_caching: bool) -> list[float]:
    engine = ProteusEngine(enable_caching=enable_caching)
    engine.register_json("lineitem", path, schema=tpch.LINEITEM_SCHEMA)
    engine.structural_index_info("lineitem")  # build the structural index once
    timings = []
    for _, sql in QUERIES:
        started = time.perf_counter()
        engine.query(sql)
        timings.append(time.perf_counter() - started)
    if enable_caching:
        print("\nCaches materialized as a side effect of the workload:")
        for entry in engine.cache_entries():
            print(f"  [{entry.kind:<9}] {entry.description:<35} "
                  f"{entry.size_bytes:>8} bytes  bias={entry.bias}")
        stats = engine.cache_stats
        print(f"  lookups={stats.lookups} hits={stats.hits} "
              f"hit-rate={stats.hit_rate * 100:.0f}%")
    return timings


def main() -> None:
    directory = tempfile.mkdtemp(prefix="proteus_caching_")
    print("Generating a TPC-H lineitem JSON file...")
    tables = tpch.generate(scale=0.5)
    path = os.path.join(directory, "lineitem.json")
    tpch.write_json(path, tables.lineitem)

    print("\nRunning the query sequence with caching DISABLED:")
    cold = run_sequence(path, enable_caching=False)
    print("\nRunning the query sequence with caching ENABLED:")
    warm = run_sequence(path, enable_caching=True)

    print(f"\n{'query':<38}{'no caching':>14}{'caching':>14}{'speedup':>10}")
    for (label, _), baseline, cached in zip(QUERIES, cold, warm):
        speedup = baseline / cached if cached else float("inf")
        print(f"{label:<38}{baseline * 1000:>12.2f}ms{cached * 1000:>12.2f}ms"
              f"{speedup:>9.1f}x")
    print(f"\ntotal{'':<33}{sum(cold) * 1000:>12.2f}ms{sum(warm) * 1000:>12.2f}ms"
          f"{sum(cold) / sum(warm):>9.1f}x")


if __name__ == "__main__":
    main()
