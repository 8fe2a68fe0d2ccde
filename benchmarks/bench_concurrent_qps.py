"""Concurrent serving throughput: sustained QPS at 1 vs 8 clients, one engine.

The serving model (ROADMAP item 1) is many clients sharing ONE engine: the
HTTP layer in ``repro.serve`` serves requests from a fixed pool of worker
threads and every worker calls straight into the shared ``ProteusEngine``.  This
benchmark measures what that buys — aggregate queries/second over a fixed
wall-clock window with 1 client vs 8 concurrent clients, each looping a
warm analytical query through one shared :class:`PreparedQuery` (exactly
the object the per-text prepared cache hands to every HTTP session).

The NumPy kernels of the vectorized tier release the GIL, so on a
multi-core box concurrent clients genuinely overlap; the gate requires the
8-client aggregate to beat the single client by ``--min-scaling`` (2x by
default, matching the subsystem's acceptance bar; ``--quick`` relaxes it
for noisy shared CI runners).  Like the parallel-scaling gate, the bar only
applies when the machine has enough usable cores — a 1-core box can only
demonstrate serving *correctness* under concurrency, not speedup::

    PYTHONPATH=src python benchmarks/bench_concurrent_qps.py --quick

A second phase measures the HTTP front end the way dashboards use it
(ROADMAP item 2's gate): ``--http-clients`` (64) closed-loop clients, each
holding ONE keep-alive connection to a ``ProteusServer`` in a subprocess,
send a parameterised query whose parameter is Zipf-distributed, so most
requests repeat an earlier ``(shape, parameter)`` and are answered by the
cross-client result cache.  It records aggregate QPS, p50/p99 latency, the
result-cache hit rate and the connections used, and fails when an answer is
wrong, a request is refused, a client needed more than one connection or the
cache never hits; the latencies are recorded, not gated (one process
generates the load, so below ~4 cores they mostly measure the generator).

Exit status: non-zero when any client saw a wrong result or (on a gated
machine) the 8-client scaling missed the bar; zero otherwise.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

#: The scaling gate applies only with at least this many usable cores
#: (below that, GIL-released kernels cannot physically overlap enough).
GATE_MIN_CORES = 4


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_dataset(directory: str, rows: int) -> str:
    """Materialize a binary-column table shaped like a TPC-H lineitem slice."""
    import numpy as np

    from repro.core import types as t
    from repro.storage.binary_format import write_column_table

    rng = np.random.RandomState(11)
    schema = t.make_schema(
        {"id": "int", "qty": "int", "price": "float", "discount": "float"}
    )
    columns = {
        "id": np.arange(rows, dtype=np.int64),
        "qty": rng.randint(0, 100, size=rows).astype(np.int64),
        "price": np.round(rng.uniform(1.0, 1000.0, size=rows), 2),
        "discount": np.round(rng.uniform(0.0, 0.1, size=rows), 4),
    }
    path = f"{directory}/qps_columns"
    write_column_table(path, columns, schema)
    return path


def make_engine(path: str, *, batch_size: int):
    from repro import ProteusEngine

    # Serial vectorized execution per query: concurrency in this benchmark
    # comes from the *clients*, exactly like the HTTP serving layer — each
    # worker thread runs its query serially against the shared engine.
    engine = ProteusEngine(
        enable_caching=False,
        enable_codegen=False,
        parallel_workers=1,
        vectorized_batch_size=batch_size,
    )
    engine.register_binary_columns("lineitem", path)
    return engine


def rows_match(left, right) -> bool:
    if len(left) != len(right):
        return False
    for row_a, row_b in zip(left, right):
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) and isinstance(b, float):
                if not (math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                        or (math.isnan(a) and math.isnan(b))):
                    return False
            elif a != b:
                return False
    return True


def measure(prepared, reference_rows, clients: int, seconds: float):
    """Aggregate QPS of ``clients`` barrier-aligned threads looping the
    shared prepared query for a fixed wall-clock window."""
    barrier = threading.Barrier(clients + 1)
    counts = [0] * clients
    elapsed = [0.0] * clients
    failures: list[str] = []
    failures_lock = threading.Lock()

    def client(index: int) -> None:
        barrier.wait()
        deadline = time.monotonic() + seconds
        started = time.monotonic()
        completed = 0
        while time.monotonic() < deadline:
            result = prepared.execute()
            completed += 1
            if completed == 1 and not rows_match(result.rows, reference_rows):
                with failures_lock:
                    failures.append(f"client {index} saw wrong rows")
        counts[index] = completed
        elapsed[index] = time.monotonic() - started

    threads = [
        threading.Thread(target=client, args=(i,), name=f"qps-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    for thread in threads:
        thread.join()
    window = max(elapsed) if elapsed else seconds
    total = sum(counts)
    return (total / window if window else 0.0), total, failures


HTTP_QUERY = "SELECT COUNT(*) AS n, SUM(price) AS total FROM lineitem WHERE qty < ?"
#: Distinct parameter values of the HTTP phase, drawn Zipf(1.1).
HTTP_PARAMETERS = 64


def serve(path: str) -> int:
    """Subprocess entry (``--serve PATH``): a default engine — caching on, so
    the result cache is on — behind a ``ProteusServer``, until stdin closes."""
    from repro import ProteusEngine, ProteusServer

    engine = ProteusEngine()
    engine.register_binary_columns("lineitem", path)
    with ProteusServer(engine) as server:
        print(server.port, flush=True)
        sys.stdin.readline()
    return 0


def measure_http(path: str, reference, clients: int, seconds: float) -> dict:
    """``clients`` closed-loop keep-alive clients against a server subprocess;
    ``reference(parameter)`` is the expected single row."""
    import numpy as np

    weights = 1.0 / np.arange(1, HTTP_PARAMETERS + 1) ** 1.1
    weights /= weights.sum()
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve", path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    failures: list[str] = []
    latencies: list[list[float]] = [[] for _ in range(clients)]
    cached = [0] * clients
    connections = [0] * clients
    try:
        port = int(process.stdout.readline())
        barrier = threading.Barrier(clients + 1)

        def client(index: int) -> None:
            draws = np.random.RandomState(index).choice(
                HTTP_PARAMETERS, size=4096, p=weights
            ).tolist()
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            connection.connect()
            connections[index] = 1
            barrier.wait()
            deadline = time.monotonic() + seconds
            step = 0
            try:
                while time.monotonic() < deadline:
                    parameter = draws[step % len(draws)]
                    step += 1
                    body = json.dumps({"query": HTTP_QUERY, "args": [parameter]})
                    started = time.perf_counter()
                    if connection.sock is None:
                        connections[index] += 1
                    connection.request("POST", "/v1/query", body.encode())
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    latencies[index].append(time.perf_counter() - started)
                    if response.status != 200:
                        failures.append(f"client {index}: HTTP {response.status}")
                        return
                    row = (payload["data"]["n"][0], payload["data"]["total"][0])
                    if not rows_match([row], [reference(parameter)]):
                        failures.append(f"client {index} saw wrong rows for {parameter}")
                        return
                    cached[index] += bool(payload.get("cached"))
            except (OSError, http.client.HTTPException) as exc:
                failures.append(f"client {index}: {type(exc).__name__}: {exc}")
            finally:
                connection.close()

        threads = [
            threading.Thread(target=client, args=(i,), name=f"qps-http-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.monotonic()
        for thread in threads:
            thread.join()
        window = time.monotonic() - started
    finally:
        process.stdin.close()
        process.wait(timeout=60)
        process.stdout.close()
    merged = sorted(latency for per_client in latencies for latency in per_client)
    requests = len(merged)
    hit_rate = sum(cached) / requests if requests else 0.0
    if not failures and max(connections) > 1:
        failures.append(
            f"a keep-alive client needed {max(connections)} connections"
        )
    if not failures and hit_rate <= 0.5:
        failures.append(f"result-cache hit rate {hit_rate:.2f} — the cache is not serving")

    def percentile_ms(q: float) -> float:
        return merged[min(int(len(merged) * q), len(merged) - 1)] * 1000.0 if merged else 0.0

    return {
        "clients": clients,
        "requests": requests,
        "aggregate_qps": requests / window if window else 0.0,
        "p50_ms": percentile_ms(0.50),
        "p99_ms": percentile_ms(0.99),
        "result_cache_hit_rate": hit_rate,
        "connections": sum(connections),
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=400_000,
                        help="table cardinality (default 400k)")
    parser.add_argument("--clients", type=int, nargs="+", default=[1, 8],
                        help="concurrent client counts (default 1 8)")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="measured window per client count (default 2s)")
    parser.add_argument("--batch-size", type=int, default=65536,
                        help="vectorized batch size (large batches keep the "
                             "per-query Python overhead small)")
    parser.add_argument("--min-scaling", type=float, default=None,
                        help="required aggregate-QPS ratio at the highest "
                             "client count (default: 2.0, or 1.5 with "
                             "--quick for noisy shared runners)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 150k rows, 1s windows, relaxed "
                             "scaling bar")
    parser.add_argument("--http-clients", type=int, default=64,
                        help="keep-alive HTTP clients of the serving phase "
                             "(default 64; 0 skips the phase)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a perf-trajectory JSON record to PATH")
    parser.add_argument("--serve", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        return serve(args.serve)
    if args.quick:
        args.rows = min(args.rows, 150_000)
        args.seconds = min(args.seconds, 1.0)
    min_scaling = args.min_scaling
    if min_scaling is None:
        min_scaling = 1.5 if args.quick else 2.0

    query = ("SELECT COUNT(*), SUM(price), MAX(price) FROM lineitem "
             "WHERE discount < 0.08")
    cores = usable_cores()

    with tempfile.TemporaryDirectory() as directory:
        started = time.perf_counter()
        path = build_dataset(directory, args.rows)
        print(f"dataset: {args.rows} rows binary-column "
              f"({time.perf_counter() - started:.2f}s to materialize)")
        print(f"query:   {query}")
        print(f"cores:   {cores} usable")

        engine = make_engine(path, batch_size=args.batch_size)
        # One shared PreparedQuery for every client — the same sharing the
        # HTTP layer's per-text prepared cache provides.
        prepared = engine.prepare(query)
        reference = prepared.execute()
        if reference.tier != "vectorized":
            print(f"\nFAIL: expected tier 'vectorized', ran {reference.tier!r}")
            return 1

        failures: list[str] = []
        print(f"\n{'clients':>8} {'queries':>9} {'agg qps':>10} {'scaling':>9}")
        qps_by_clients: dict[int, float] = {}
        queries_by_clients: dict[int, int] = {}
        for clients in args.clients:
            qps, total, client_failures = measure(
                prepared, reference.rows, clients, args.seconds
            )
            failures.extend(client_failures)
            qps_by_clients[clients] = qps
            queries_by_clients[clients] = total
            baseline = qps_by_clients[min(qps_by_clients)]
            scaling = qps / baseline if baseline else float("inf")
            print(f"{clients:>8} {total:>9} {qps:>10.1f} {scaling:>8.2f}x")

        top_clients = max(args.clients)
        base_clients = min(args.clients)
        achieved = (
            qps_by_clients[top_clients] / qps_by_clients[base_clients]
            if qps_by_clients[base_clients]
            else float("inf")
        )
        gated = cores >= GATE_MIN_CORES
        if gated and achieved < min_scaling:
            failures.append(
                f"{achieved:.2f}x aggregate QPS at {top_clients} clients is "
                f"below the required {min_scaling:.1f}x"
            )
        served = None
        if args.http_clients > 0:
            references: dict[int, tuple] = {}

            def reference_row(parameter: int) -> tuple:
                if parameter not in references:
                    references[parameter] = engine.query(HTTP_QUERY, parameter).rows[0]
                return references[parameter]

            served = measure_http(path, reference_row, args.http_clients, args.seconds)
            failures.extend(served["failures"])
            print(f"\nHTTP keep-alive, {served['clients']} clients: "
                  f"{served['aggregate_qps']:.0f} qps, "
                  f"p50 {served['p50_ms']:.2f} ms, p99 {served['p99_ms']:.2f} ms, "
                  f"result-cache hit rate {served['result_cache_hit_rate']:.3f}, "
                  f"{served['connections']} connections for "
                  f"{served['requests']} requests")
        if args.json_path:
            record = {
                "name": "bench_concurrent_qps",
                "rows": args.rows,
                "query": query,
                "usable_cores": cores,
                "window_seconds": args.seconds,
                "clients": {
                    str(clients): {
                        "aggregate_qps": qps_by_clients[clients],
                        "queries_completed": queries_by_clients[clients],
                    }
                    for clients in args.clients
                },
                "scaling_at_top_clients": achieved,
                "scaling_gate": min_scaling if gated else None,
                "http_keep_alive": served,
                "ok": not failures,
                "failures": failures,
            }
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2)
        if failures:
            for failure in failures:
                print(f"\nFAIL: {failure}")
            return 1
        if not gated:
            print(f"\nOK (informational): only {cores} usable core(s) — "
                  f"correctness under {top_clients} concurrent clients "
                  f"verified; the {min_scaling:.1f}x scaling gate requires "
                  f">= {GATE_MIN_CORES} cores")
            return 0
        print(f"\nOK: one shared engine sustains {achieved:.2f}x aggregate "
              f"QPS at {top_clients} clients (gate {min_scaling:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
