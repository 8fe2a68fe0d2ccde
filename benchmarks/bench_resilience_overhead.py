"""Resilience overhead benchmark: deadline checks must be ~free.

The resilience subsystem puts a cooperative check on every tier's hot path —
per batch in the batch pipeline (both NumPy labels), per morsel in the
parallel scheduler, every ``volcano_check_stride`` tuples in the
interpreter.  The design promise is that a *configured* deadline costs
noise-level overhead (the check is a token test plus one ``time.monotonic()``
per batch) and an *unconfigured* engine pays even less (two attribute loads).

This benchmark times the same prepared query on two engines — one bare, one
with a far-future ``query_timeout_seconds`` so every check actually consults
the clock — and gates the ratio:

* deadline-checked / bare  < 1.03   (noise-level overhead)

The workload runs the one batch pipeline as a default engine runs it: under
the codegen label (the per-batch ``note_batch`` check is the only deadline
hook either label has) at the default batch size.  A sanity probe asserts
the checks are real: the same engine with ``timeout=0`` must abort with
RES001.

Standalone script (like ``bench_obs_overhead.py``) so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py --quick

Exits non-zero if the overhead gate fails.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

import numpy as np

QUERY = (
    "SELECT SUM(v) AS s, MIN(w) AS mn, MAX(v) AS mx, AVG(w) AS av, "
    "COUNT(*) AS n FROM events WHERE v > 250000.0 AND w < 750000.0"
)


def build_dataset(directory: str, rows: int) -> str:
    from repro.core import types as t
    from repro.storage.binary_format import write_column_table

    rng = np.random.RandomState(31)
    schema = t.make_schema({"id": "int", "v": "float", "w": "float"})
    columns = {
        "id": np.arange(rows, dtype=np.int64),
        "v": rng.uniform(0.0, 1_000_000.0, size=rows),
        "w": rng.uniform(0.0, 1_000_000.0, size=rows),
    }
    path = f"{directory}/resilience_columns"
    write_column_table(path, columns, schema)
    return path


def make_engine(path: str, **kwargs):
    from repro import ProteusEngine

    # Caching is off so every execution re-scans (the path carrying the
    # per-batch checks).
    engine = ProteusEngine(enable_caching=False, parallel_workers=1, **kwargs)
    engine.register_binary_columns("events", path)
    return engine


def _median(values: list) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def paired_rounds(repeats: int, functions: dict) -> dict:
    """Per-configuration single-execution timings, taken in paired rounds
    (round-robin within each round so machine drift hits every configuration
    alike; overhead is judged on the median of per-round ratios)."""
    samples: dict = {name: [] for name in functions}
    for _ in range(repeats):
        for name, fn in functions.items():
            started = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - started)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="table cardinality (default 1M)")
    parser.add_argument("--repeats", type=int, default=40,
                        help="interleaved timing rounds")
    parser.add_argument("--gate", type=float, default=1.03,
                        help="max deadline-checked/bare ratio (default 1.03)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 400k rows, same gate")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a perf-trajectory JSON record to PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.rows = min(args.rows, 400_000)

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as directory:
        path = build_dataset(directory, args.rows)

        bare = make_engine(path)
        # A far-future deadline: every per-batch check consults the clock,
        # none ever fires — the steady-state cost of a configured deadline.
        checked = make_engine(path, query_timeout_seconds=3600.0)

        configurations = [("bare", bare), ("deadline", checked)]
        prepared = {}
        for name, engine in configurations:
            statement = engine.prepare(QUERY)
            statement.execute()  # warm-up: file mmap, plan cache
            prepared[name] = statement

        samples = paired_rounds(
            args.repeats,
            {name: prepared[name].execute for name, _ in configurations},
        )
        expected = prepared["bare"].execute().rows
        if prepared["deadline"].execute().rows != expected:
            failures.append("deadline-checked engine changed the query result")

        # Sanity: the measured checks are real — an expired deadline aborts.
        from repro.errors import QueryTimeoutError

        try:
            prepared["deadline"].execute(timeout=0)
        except QueryTimeoutError:
            pass
        else:
            failures.append("timeout=0 did not abort: checks are not wired")

    ratio = _median(
        [c / b for c, b in zip(samples["deadline"], samples["bare"])]
    )

    batches = -(-args.rows // bare.vectorized_batch_size)
    print(f"resilience overhead over {args.rows:,} rows "
          f"(~{batches} deadline checks/execution, median ratio over "
          f"{args.repeats} paired rounds)")
    for name, _ in [("bare", None), ("deadline", None)]:
        print(f"  {name:<9}{min(samples[name]) * 1e3:9.1f} ms (best)")
    print(f"  deadline / bare  {ratio:.3f}x  (gate < {args.gate:.2f}x)")

    if ratio >= args.gate:
        failures.append(
            f"deadline-check overhead {ratio:.3f}x exceeds the "
            f"{args.gate:.2f}x gate"
        )

    if args.json_path:
        import json

        record = {
            "name": "bench_resilience_overhead",
            "rows": args.rows,
            "bare_seconds": min(samples["bare"]),
            "deadline_seconds": min(samples["deadline"]),
            "ratio": ratio,
            "gate": args.gate,
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
    print("ok: deadline checks stay under the overhead gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
