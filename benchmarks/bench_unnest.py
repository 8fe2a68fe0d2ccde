"""Batch-native unnest benchmark: offset-vector flattening vs per-parent
round-trips.

Before the batch-native unnest subsystem, nested collections reached the
batch tiers through per-parent ``scan_unnest`` round-trips (and outer unnest
was punted to the Volcano interpreter entirely).  The subsystem replaces that
with the ``InputPlugin.scan_unnest_batch`` offset-vector API: flattened child
buffers plus per-parent repeat counts, broadcast into each batch with a
single ``np.repeat``.

This benchmark gates the claims on a nested-JSON workload shaped like the
paper's hierarchical datasets (many parents, small nested arrays):

* the batch-native kernel must beat the per-parent ``scan_unnest``
  round-trip path by >= 5x,
* a morsel fan-out must produce **bit-identical** output to an inline
  vectorized run at workers 1, 2 and 8, for inner and outer unnest,
* inner and outer unnest queries must execute on the batch tier (verified
  via ``ResultSet.tier``) and agree with the Volcano reference.

It also reports (without gating) the batched generic per-parent fallback of
``plugins/base.py`` and the end-to-end tier timings with rows/sec.

Standalone script so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_unnest.py --quick

``--json PATH`` writes a perf-trajectory record (speedups, rows/sec, tier
attribution) consumed by ``benchmarks/run_all.py``.

Exits non-zero if a gate fails or any tier disagrees on results.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time


def build_dataset(directory: str, parents: int) -> str:
    path = f"{directory}/orders.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(parents):
            record = {
                "okey": i,
                "total": round(i * 2.5, 2),
                # Small, skewed nested arrays; every 7th parent is empty
                # (exercises the outer-unnest null row).
                "lines": [
                    {"item": j, "qty": j + 1} for j in range(i % 4)
                ]
                if i % 7
                else [],
            }
            handle.write(json.dumps(record) + "\n")
    return path


def make_engine(path: str, **kwargs):
    from repro import ProteusEngine
    from repro.core import types as t

    schema = t.make_schema(
        {
            "okey": "int",
            "total": "float",
            "lines": [{"item": "int", "qty": "int"}],
        }
    )
    engine = ProteusEngine(enable_caching=False, **kwargs)
    engine.register_json("orders", path, schema=schema)
    return engine


def best_of(repeats: int, fn, *args):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parents", type=int, default=200_000,
                        help="number of parent objects (default 200k)")
    parser.add_argument("--kernel-parents", type=int, default=8_000,
                        help="parents measured on the per-parent round-trip "
                             "path (it is too slow for the full input)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per measurement (best-of)")
    parser.add_argument("--speedup", type=float, default=5.0,
                        help="required batch-native-over-per-parent speedup")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 40k parents, same gates")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a perf-trajectory JSON record to PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.parents = min(args.parents, 40_000)

    import numpy as np

    from repro.plugins.base import InputPlugin

    failures: list[str] = []
    record: dict = {"name": "bench_unnest", "parents": args.parents}
    with tempfile.TemporaryDirectory() as directory:
        path = build_dataset(directory, args.parents)

        # -- kernel-level: offset-vector vs per-parent round-trips ----------
        engine = make_engine(path)
        plugin = engine.plugins["json"]
        dataset = engine.catalog.get("orders")
        element_paths = [("item",), ("qty",)]
        subset = np.arange(min(args.kernel_parents, args.parents), dtype=np.int64)

        native_seconds, native = best_of(
            args.repeats,
            plugin.scan_unnest_batch, dataset, ("lines",), element_paths, subset,
        )

        def per_parent_roundtrips():
            total = 0
            for oid in subset:
                buffers = plugin.scan_unnest(
                    dataset, ("lines",), element_paths, subset[oid : oid + 1]
                )
                total += buffers.count
            return total

        roundtrip_seconds, roundtrip_rows = best_of(1, per_parent_roundtrips)
        fallback_seconds, fallback = best_of(
            args.repeats,
            InputPlugin.scan_unnest_batch,
            plugin, dataset, ("lines",), element_paths, subset,
        )
        if native.count != roundtrip_rows or native.count != fallback.count:
            failures.append(
                f"kernel paths disagree on flattened rows: native {native.count}, "
                f"per-parent {roundtrip_rows}, generic fallback {fallback.count}"
            )
        if native.repeats.tolist() != fallback.repeats.tolist():
            failures.append("native and generic fallback disagree on repeat counts")

        speedup = roundtrip_seconds / native_seconds if native_seconds else float("inf")
        fallback_speedup = (
            fallback_seconds / native_seconds if native_seconds else float("inf")
        )
        native_rate = native.count / native_seconds if native_seconds else 0.0
        print(f"parents={args.parents}  kernel subset={len(subset)}  "
              f"flattened rows={native.count}")
        print(f"  per-parent scan_unnest   {roundtrip_seconds * 1e3:9.1f} ms")
        print(f"  generic batched fallback {fallback_seconds * 1e3:9.1f} ms  "
              f"({fallback_speedup:.1f}x slower than native, not gated)")
        print(f"  batch-native kernel      {native_seconds * 1e3:9.1f} ms  "
              f"({native_rate / 1e6:.2f} M rows/s; {speedup:.1f}x over "
              f"per-parent, gate >= {args.speedup:.0f}x)")
        if speedup < args.speedup:
            failures.append(
                f"batch-native speedup {speedup:.2f}x below the "
                f"{args.speedup:.1f}x gate"
            )
        record["kernel"] = {
            "flattened_rows": int(native.count),
            "native_seconds": native_seconds,
            "per_parent_seconds": roundtrip_seconds,
            "generic_fallback_seconds": fallback_seconds,
            "rows_per_sec": native_rate,
            "speedup_over_per_parent": speedup,
            "speedup_gate": args.speedup,
        }

        # -- end-to-end: inner + outer unnest across tiers ------------------
        queries = {
            "inner": "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item, l.qty)",
            "outer": "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)",
            "inner-agg": "for { o <- orders, l <- o.lines, l.qty > 1 } yield sum (l.qty)",
        }
        # A morsel is one batch: 1024-parent batches make the input span far
        # more morsels than a linear (collecting) root needs to fan out.
        fanned = {"enable_codegen": False, "vectorized_batch_size": 1024}
        configurations = [
            ("volcano", {"enable_codegen": False, "enable_vectorized": False}),
            ("vectorized", {"enable_codegen": False}),
            ("vectorized w2", {**fanned, "parallel_workers": 2}),
            ("vectorized w8", {**fanned, "parallel_workers": 8}),
        ]
        record["queries"] = {}
        print("end-to-end (best-of query time):")
        for name, query in queries.items():
            reference_rows = None
            serial_result = None
            entry = {}
            for label, config in configurations:
                engine = make_engine(path, **config)
                engine.query(query)  # warm the structural index
                seconds, result = best_of(args.repeats, engine.query, query)
                rate = len(result) / seconds if seconds else 0.0
                print(f"  {name:10s} {label:22s} {seconds * 1e3:8.1f} ms  "
                      f"[{result.tier}]  {rate / 1e6:6.2f} M rows/s")
                if result.tier != label.split()[0]:
                    failures.append(
                        f"{name}: {label} ran on tier {result.tier!r}"
                    )
                if ("parallel_workers" in config) != bool(
                    result.profile.morsels_dispatched
                ):
                    failures.append(f"{name}: {label}: unexpected fan-out decision")
                entry[label] = {
                    "seconds": seconds,
                    "tier": result.tier,
                    "rows": len(result),
                    "rows_per_sec": rate,
                }
                if label == "volcano":
                    reference_rows = sorted(result.rows, key=repr)
                elif label == "vectorized":
                    serial_result = result
                    if sorted(result.rows, key=repr) != reference_rows:
                        failures.append(
                            f"{name}: vectorized disagrees with Volcano"
                        )
                else:
                    # Bit-identical to an inline vectorized run: same backing
                    # buffers, same row order, at any worker count.
                    for column in result.columns:
                        left = serial_result.column_array(column)
                        right = result.column_array(column)
                        if left.dtype == object:
                            same = list(left) == list(right)
                        elif left.dtype.kind == "f":
                            # NaN encodes missing (outer-unnest null rows);
                            # bit-identical means NaN in the same positions.
                            same = np.array_equal(left, right, equal_nan=True)
                        else:
                            same = np.array_equal(left, right)
                        if not same:
                            failures.append(
                                f"{name}: {label} column {column!r} is not "
                                "bit-identical to the inline run"
                            )
            volcano_seconds = entry["volcano"]["seconds"]
            vectorized_seconds = entry["vectorized"]["seconds"]
            entry["speedup_over_volcano"] = (
                volcano_seconds / vectorized_seconds if vectorized_seconds else 0.0
            )
            record["queries"][name] = entry

    record["ok"] = not failures
    record["failures"] = failures
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ok: batch-native unnest holds its gate and every tier agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
