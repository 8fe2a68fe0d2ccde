"""Input generation, run as its own process.

``run.py`` calls this file in a subprocess so the generator's arrays never
count towards the ``peak_rss_mb`` of the process that runs the engine, and
times it as ``bench.datagen_s``.  Everything is derived from the seed; the
program under test only ever sees the files written here.

Besides the files the engine reads, the TPC-H-shaped workloads get the
generated arrays as ``ref/<table>.<column>.npy`` — what the NumPy oracle
computes its reference answers on, without going through any reader of the
program.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

#: Input sizes per workload.  Chosen on the 2-core reference box so a run —
#: generation, three fresh starts, a 12 s timed window, the oracle — ends in
#: under 30 s (the driver makes ~90 runs inside one hour).
SIZES = {
    "symantec_mixed": {"num_json": 8_000, "num_csv": 32_000, "num_binary": 40_000},
    # Distinct feed files; arrivals cycle through them under new dataset names.
    "raw_feed_arrival": {"files": 4, "num_json": 4_000, "num_csv": 20_000},
    "binary_warm_olap": {"scale": 100},
    # Fresh servers per run: setup_s and first_pass_s are medians over them.
    "serve_dashboard": {"scale": 5, "server_starts": 9},
}
SMOKE_SIZES = {
    "symantec_mixed": {"num_json": 300, "num_csv": 1_200, "num_binary": 1_500},
    "raw_feed_arrival": {"files": 2, "num_json": 200, "num_csv": 1_000},
    "binary_warm_olap": {"scale": 4},
    "serve_dashboard": {"scale": 1, "server_starts": 3},
}


def sizes_for(workload: str, smoke: bool) -> dict:
    return dict((SMOKE_SIZES if smoke else SIZES)[workload])


def rng_seed(seed: int, stream: int = 0) -> int:
    """The ``RandomState`` seed of a run's ``stream``-th generator.  NumPy
    takes 32 bits; ``--seed`` may be any integer."""
    return (seed * 1000 + stream) % 2**32


def _symantec_manifest(files) -> dict:
    return {
        "json_path": files.json_path, "csv_path": files.csv_path,
        "binary_dir": files.binary_dir, "num_json": files.num_json,
        "num_csv": files.num_csv, "num_binary": files.num_binary,
    }


def generate_symantec(directory: str, seed: int, sizes: dict) -> dict:
    from repro.workloads import symantec

    files = symantec.materialize(directory, seed=rng_seed(seed), **sizes)
    return {"files": _symantec_manifest(files)}


def generate_feed(directory: str, seed: int, sizes: dict) -> dict:
    from repro.workloads import symantec

    feeds = []
    for index in range(sizes["files"]):
        files = symantec.materialize(
            os.path.join(directory, f"feed{index}"),
            num_json=sizes["num_json"], num_csv=sizes["num_csv"], num_binary=10,
            seed=rng_seed(seed, index),
        )
        feeds.append(_symantec_manifest(files))
    return {"feeds": feeds}


def _save_reference(directory: str, tables: dict) -> None:
    import numpy as np

    reference = os.path.join(directory, "ref")
    os.makedirs(reference, exist_ok=True)
    for table, columns in tables.items():
        for column, values in columns.items():
            np.save(os.path.join(reference, f"{table}.{column}.npy"), values)


def generate_tpch(directory: str, seed: int, sizes: dict, with_json: bool) -> dict:
    from repro.workloads import tpch

    tables = tpch.generate(scale=sizes["scale"], seed=rng_seed(seed))
    manifest = {
        "lineitem": tpch.write_binary_columns(
            os.path.join(directory, "lineitem_columns"), tables.lineitem, tpch.LINEITEM_SCHEMA
        ),
        "orders": tpch.write_binary_columns(
            os.path.join(directory, "orders_columns"), tables.orders, tpch.ORDERS_SCHEMA
        ),
        "num_lineitems": tables.num_lineitems,
        "num_orders": tables.num_orders,
    }
    if with_json:
        manifest["orders_json"] = tpch.write_json(
            os.path.join(directory, "orders.json"), tables.orders
        )
    _save_reference(directory, {"lineitem": tables.lineitem, "orders": tables.orders})
    return manifest


def generate(workload: str, directory: str, seed: int, smoke: bool) -> dict:
    os.makedirs(directory, exist_ok=True)
    sizes = sizes_for(workload, smoke)
    if workload == "symantec_mixed":
        manifest = generate_symantec(directory, seed, sizes)
    elif workload == "raw_feed_arrival":
        manifest = generate_feed(directory, seed, sizes)
    elif workload == "binary_warm_olap":
        manifest = generate_tpch(directory, seed, sizes, with_json=False)
    elif workload == "serve_dashboard":
        manifest = generate_tpch(directory, seed, sizes, with_json=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest["sizes"] = sizes
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def main(argv: list[str]) -> int:
    workload, directory, seed, smoke = argv
    generate(workload, directory, int(seed), smoke == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
