"""ORDER BY / LIMIT benchmark: columnar sort kernels vs the boxed seed sort.

The seed engine applied ORDER BY by boxing every buffer into Python objects
(``.tolist()``) and running ``list.sort`` with per-element lambda keys — even
when a ``LIMIT 10`` followed.  The columnar sort subsystem
(:mod:`repro.core.sort`) replaces that with dtype-specialized NumPy kernels,
a bounded streaming top-K when a LIMIT accompanies the sort, and per-morsel
sorted runs merged k-way under a morsel fan-out.

This benchmark gates the two specialization claims on binary-column data
(1M rows by default):

* the ``lexsort`` kernel must beat the boxed seed sort by >= 5x on a full
  numeric ORDER BY,
* the ``topk`` kernel must beat its own full sort by >= 10x for
  ORDER BY + LIMIT 10,

and checks the morsel fan-out end-to-end: per-morsel sort + k-way merge must
produce **bit-identical** output to an inline run at 1, 2 and 8 workers.

Standalone script (like ``bench_vectorized_fallback.py``) so CI can smoke
it::

    PYTHONPATH=src python benchmarks/bench_orderby_topk.py --quick

Exits non-zero if a speedup gate fails or any tier disagrees on results.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

import numpy as np

TOPK_LIMIT = 10


def build_dataset(directory: str, rows: int) -> str:
    from repro.core import types as t
    from repro.storage.binary_format import write_column_table

    rng = np.random.RandomState(29)
    schema = t.make_schema({"id": "int", "v": "float"})
    columns = {
        "id": np.arange(rows, dtype=np.int64),
        "v": rng.uniform(0.0, 1_000_000.0, size=rows),
    }
    path = f"{directory}/orderby_columns"
    write_column_table(path, columns, schema)
    return path


def make_engine(path: str, **kwargs):
    from repro import ProteusEngine

    engine = ProteusEngine(enable_caching=False, **kwargs)
    engine.register_binary_columns("events", path)
    return engine


def boxed_seed_sort(
    names: list[str],
    length: int,
    data: dict[str, np.ndarray],
    order_by: list[tuple[str, bool]],
    limit: int | None,
) -> dict[str, np.ndarray]:
    """The seed engine's ORDER BY epilogue, verbatim semantics: box every
    key buffer into Python objects and ``list.sort`` with lambda keys."""
    indices = list(range(length))
    for column, ascending in reversed(order_by):
        assert ascending, "the benchmark exercises the ascending seed path"
        values = [None if v != v else v for v in data[column].tolist()]
        indices.sort(key=lambda i: (values[i] is None, values[i]))
    if limit is not None:
        indices = indices[:limit]
    taken = np.asarray(indices, dtype=np.int64)
    return {name: buffer[taken] for name, buffer in data.items()}


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
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="table cardinality (default 1M)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per measurement (best-of)")
    parser.add_argument("--lexsort-speedup", type=float, default=5.0,
                        help="required lexsort-over-seed-sort speedup")
    parser.add_argument("--topk-speedup", type=float, default=10.0,
                        help="required top-K-over-full-sort speedup")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 300k rows, same gates")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a perf-trajectory JSON record to PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.rows = min(args.rows, 300_000)

    from repro.core import sort as sortlib

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as directory:
        path = build_dataset(directory, args.rows)

        # -- kernel-level: the sort stage itself, on the engine's buffers ----
        engine = make_engine(path)
        full = engine.query("SELECT id, v FROM events")
        names = list(full.columns)
        data = {name: full.column_array(name).copy() for name in names}
        order_by = [("v", True)]

        seed_seconds, seed_sorted = best_of(
            args.repeats, boxed_seed_sort, names, args.rows, data, order_by, None
        )
        lex_seconds, lex_result = best_of(
            args.repeats, sortlib.sort_columns, names, args.rows, data, order_by, None
        )
        _, lex_sorted, lex_strategy = lex_result
        topk_seconds, topk_result = best_of(
            args.repeats, sortlib.sort_columns, names, args.rows, data, order_by,
            TOPK_LIMIT,
        )
        _, topk_sorted, topk_strategy = topk_result

        if lex_strategy != sortlib.STRATEGY_LEXSORT:
            failures.append(f"full sort ran {lex_strategy!r}, expected lexsort")
        if topk_strategy != sortlib.STRATEGY_TOPK:
            failures.append(f"bounded sort ran {topk_strategy!r}, expected topk")
        for name in names:
            if not np.array_equal(seed_sorted[name], lex_sorted[name]):
                failures.append(f"lexsort disagrees with the seed sort on {name!r}")
            if not np.array_equal(lex_sorted[name][:TOPK_LIMIT], topk_sorted[name]):
                failures.append(f"topk disagrees with the full sort on {name!r}")

        lex_speedup = seed_seconds / lex_seconds if lex_seconds else float("inf")
        topk_speedup = lex_seconds / topk_seconds if topk_seconds else float("inf")
        print(f"rows={args.rows}  ORDER BY v (numeric, binary-column data)")
        print(f"  seed boxed sort      {seed_seconds * 1e3:9.1f} ms")
        print(f"  lexsort kernel       {lex_seconds * 1e3:9.1f} ms  "
              f"({lex_speedup:.1f}x over seed, gate >= {args.lexsort_speedup:.0f}x)")
        print(f"  topk kernel (K={TOPK_LIMIT})   {topk_seconds * 1e3:9.1f} ms  "
              f"({topk_speedup:.1f}x over full sort, gate >= {args.topk_speedup:.0f}x)")
        if lex_speedup < args.lexsort_speedup:
            failures.append(
                f"lexsort speedup {lex_speedup:.2f}x below the "
                f"{args.lexsort_speedup:.1f}x gate"
            )
        if topk_speedup < args.topk_speedup:
            failures.append(
                f"top-K speedup {topk_speedup:.2f}x below the "
                f"{args.topk_speedup:.1f}x gate"
            )

        # -- end-to-end: every tier, full sort and streaming top-K ----------
        print("end-to-end (query time, one run):")
        reference_full = None
        reference_topk = None
        # A morsel is one batch: 4096-row batches make the input span far
        # more morsels than a linear (sorting) root needs to fan out.
        fanned = {"enable_codegen": False, "vectorized_batch_size": 4096}
        configurations = [
            ("codegen", {}),
            ("vectorized", {"enable_codegen": False}),
            ("vectorized w2", {**fanned, "parallel_workers": 2}),
            ("vectorized w8", {**fanned, "parallel_workers": 8}),
        ]
        for label, config in configurations:
            engine = make_engine(path, **config)
            started = time.perf_counter()
            result_full = engine.query("SELECT id, v FROM events ORDER BY v")
            full_seconds = time.perf_counter() - started
            started = time.perf_counter()
            result_topk = engine.query(
                f"SELECT id, v FROM events ORDER BY v LIMIT {TOPK_LIMIT}"
            )
            topk_seconds = time.perf_counter() - started
            print(f"  {label:24s} full {full_seconds * 1e3:8.1f} ms "
                  f"[{result_full.profile.sort_strategy}]   "
                  f"top-{TOPK_LIMIT} {topk_seconds * 1e3:7.1f} ms "
                  f"[{result_topk.profile.sort_strategy}]")
            if ("parallel_workers" in config) != bool(
                result_full.profile.morsels_dispatched
                and result_topk.profile.morsels_dispatched
            ):
                failures.append(f"{label}: unexpected fan-out decision")
            # Bit-identical output across tiers and worker counts: compare
            # the backing buffers, not boxed rows.
            if reference_full is None:
                reference_full, reference_topk = result_full, result_topk
                continue
            for name in names:
                if not np.array_equal(
                    reference_full.column_array(name), result_full.column_array(name)
                ):
                    failures.append(
                        f"{label}: full ORDER BY column {name!r} differs from "
                        "the serial reference"
                    )
                if not np.array_equal(
                    reference_topk.column_array(name), result_topk.column_array(name)
                ):
                    failures.append(
                        f"{label}: top-{TOPK_LIMIT} column {name!r} differs "
                        "from the serial reference"
                    )

    if args.json_path:
        import json

        record = {
            "name": "bench_orderby_topk",
            "rows": args.rows,
            "kernels": {
                "seed_boxed_sort_seconds": seed_seconds,
                "lexsort_seconds": lex_seconds,
                "topk_seconds": topk_seconds,
                "lexsort_rows_per_sec": args.rows / lex_seconds if lex_seconds else 0.0,
            },
            "lexsort_speedup_over_seed": lex_speedup,
            "lexsort_speedup_gate": args.lexsort_speedup,
            "topk_speedup_over_full_sort": topk_speedup,
            "topk_speedup_gate": args.topk_speedup,
            "tiers": {
                "strategies": [lex_strategy, topk_strategy],
            },
            "ok": not failures,
            "failures": failures,
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ok: sort kernels hold their gates and every tier agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
