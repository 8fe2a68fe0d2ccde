"""The server process of workload ``serve_dashboard``.

Boots one shared engine behind ``ProteusServer``, prints ``{"port", "pid"}``
on one line, serves until a line arrives on stdin (or stdin closes), stops the
server and prints one line of end-of-life statistics: cache counters, the
metrics registry, and the threads still alive after ``stop()`` — the parent
fails the run if any are.

With ``--trace PATH`` the same span wrappers as the in-process workloads are
installed before the engine is built and dumped to PATH on shutdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="directory datagen.py wrote")
    parser.add_argument("--cores", type=int, required=True)
    parser.add_argument("--trace", help="install span wrappers; dump them here on exit")
    args = parser.parse_args(argv)

    recorder = undo = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        undo = spans.install(recorder)

    from repro import ProteusEngine, ProteusServer
    from repro.workloads import tpch

    with open(os.path.join(args.data, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    engine = ProteusEngine(parallel_workers=args.cores)
    engine.register_binary_columns("lineitem", manifest["lineitem"])
    engine.register_binary_columns("orders", manifest["orders"])
    engine.register_json("orders_json", manifest["orders_json"], schema=tpch.ORDERS_SCHEMA)
    server = ProteusServer(engine).start()
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)

    sys.stdin.readline()
    server.stop()
    if recorder is not None:
        spans.uninstall(undo)
        recorder.dump(args.trace)
    stats = engine.cache_stats
    print(json.dumps({
        "cache": {"lookups": stats.lookups, "hits": stats.hits,
                  "evictions": stats.evictions},
        "cache_used_bytes": engine.cache_manager.used_bytes,
        "metrics": engine.metrics.to_dict(),
        "threads_left": [thread.name for thread in threading.enumerate()
                         if thread is not threading.main_thread()],
    }, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
