"""Black-box smoke of the HTTP serving layer, driven exactly like CI does.

Boots a :class:`repro.serve.ProteusServer` over a throwaway engine on an
ephemeral loopback port and drives it with plain ``urllib`` — no test
framework, no white-box access:

1. ``POST /v1/query`` returns 200 with the expected columnar rows,
2. an in-flight query (held open by scripted slow faults) is cancelled via
   ``DELETE /v1/query/<id>``: the cancel returns 200 and the query
   surfaces as 499 with ``RES002`` in the body, whose ``partial_progress``
   counts at least one batch — the same count as its ``profile`` (one
   ledger per execution),
3. ``GET /metrics`` returns 200 with the exact Prometheus v0.0.4 content
   type, a single trailing newline and the serving counters present,
4. two queries over ONE keep-alive connection to a caching engine: both
   answer 200 on the same socket and the second is served by the result
   cache (``"cached": true``); the connection is left open, parked,
5. after ``stop()`` — with that parked connection still open — no
   ``proteus-worker-*`` / ``proteus-http-*`` thread survives.

Any deviation exits non-zero, printing what failed.
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def request(url: str, method: str = "GET", payload: dict | None = None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def main() -> int:
    from repro import ProteusEngine, ProteusServer
    from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
    from repro.resilience import FaultInjector, FaultPlan, FaultSpec

    with tempfile.NamedTemporaryFile(
        "w", suffix=".csv", delete=False
    ) as handle:
        handle.write("id,qty,price\n")
        for i in range(240):
            handle.write(f"{i},{i % 7},{float(i)}\n")
        csv_path = handle.name

    engine = ProteusEngine(enable_caching=False, vectorized_batch_size=16)
    engine.register_csv("items", csv_path)

    server = ProteusServer(engine)
    server.start()
    print(f"serving on {server.url}")
    try:
        # 1. Plain query.
        status, _, body = request(
            server.url + "/v1/query",
            "POST",
            {"query": "select count(*) as n, sum(price) as total from items"},
        )
        payload = json.loads(body)
        check(status == 200, f"POST /v1/query -> {status}")
        check(
            payload.get("data") == {"n": [240], "total": [28680.0]},
            f"query rows: {payload.get('data')}",
        )

        # 2. Cancel an in-flight query from a second connection.  Persistent
        # slow faults keep the scan busy; the sleep hook tells us when the
        # query is actually scanning.
        scanning = threading.Event()

        def slow_sleep(seconds: float) -> None:
            scanning.set()
            time.sleep(seconds)

        engine.plugins["csv"].install_fault_injector(
            FaultInjector(
                FaultPlan(
                    [
                        FaultSpec(
                            kind="slow",
                            at_call=call,
                            times=None,
                            delay_seconds=0.02,
                        )
                        for call in range(1, 33)
                    ]
                ),
                sleep=slow_sleep,
            )
        )
        outcome: dict = {}

        def client() -> None:
            outcome["response"] = request(
                server.url + "/v1/query",
                "POST",
                {
                    "query": "select sum(price) as total from items",
                    "query_id": "smoke-1",
                },
            )

        thread = threading.Thread(target=client)
        thread.start()
        check(scanning.wait(10.0), "query started scanning")
        status, _, body = request(
            server.url + "/v1/query/smoke-1", method="DELETE"
        )
        check(status == 200, f"DELETE /v1/query/smoke-1 -> {status}")
        thread.join()
        status, _, body = outcome["response"]
        payload = json.loads(body)
        check(status == 499, f"cancelled query -> {status}")
        check(
            payload.get("error", {}).get("code") == "RES002",
            f"cancelled body code: {payload.get('error')}",
        )
        batches = payload.get("partial_progress", {}).get("batches", 0)
        counted = payload.get("profile", {}).get("batches_processed")
        check(
            batches >= 1 and batches == counted,
            f"cancelled body progress: {batches} batch(es), "
            f"profile batches_processed {counted}",
        )
        engine.plugins["csv"].install_fault_injector(None)

        # 3. Metrics scrape: exact wire bytes.
        status, headers, body = request(server.url + "/metrics")
        check(status == 200, f"GET /metrics -> {status}")
        check(
            headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE,
            f"content type: {headers.get('Content-Type')!r}",
        )
        check(
            body.endswith(b"\n") and not body.endswith(b"\n\n"),
            "exactly one trailing newline",
        )
        check(
            b"proteus_http_requests_total" in body,
            "serving counters exported",
        )

        status, _, body = request(server.url + "/healthz")
        check(status == 200, f"GET /healthz -> {status}")
    finally:
        server.stop()

    # 4. Keep-alive + result cache, against an engine with caching on (the
    # engine above runs uncached so the cancel step always finds a raw scan).
    cached_engine = ProteusEngine()
    cached_engine.register_csv("items", csv_path)
    cached_server = ProteusServer(cached_engine).start()
    connection = http.client.HTTPConnection(
        cached_server.host, cached_server.port, timeout=30
    )
    try:
        answers = []
        for _ in range(2):
            connection.request(
                "POST",
                "/v1/query",
                json.dumps(
                    {"query": "select count(*) as n from items where qty < ?",
                     "args": [3]}
                ),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            answers.append((response.status, json.loads(response.read())))
            check(
                connection.sock is not None and not response.will_close,
                "connection kept alive after the response",
            )
        check(
            [status for status, _ in answers] == [200, 200],
            f"two queries over one connection -> {[s for s, _ in answers]}",
        )
        check(
            answers[0][1].get("data") == answers[1][1].get("data") == {"n": [104]},
            f"keep-alive rows: {answers[1][1].get('data')}",
        )
        check(
            "cached" not in answers[0][1] and answers[1][1].get("cached") is True,
            "second query answered by the result cache",
        )
        check(
            cached_server.open_connections() == 1,
            f"one open connection for both ({cached_server.open_connections()})",
        )
    finally:
        # The connection is still open (parked) here, on purpose.
        cached_server.stop()
        connection.close()

    # 5. Leak check: nothing the servers or the engines spawned survives.
    deadline = time.monotonic() + 5.0
    prefixes = ("proteus-worker", "proteus-http")
    while time.monotonic() < deadline:
        leaked = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith(prefixes)
        ]
        if not leaked:
            break
        time.sleep(0.01)
    check(not leaked, f"no leaked threads at shutdown (found: {leaked})")

    if FAILURES:
        print(f"\nsmoke FAILED ({len(FAILURES)} check(s))")
        return 1
    print("\nsmoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
