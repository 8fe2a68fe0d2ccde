"""The HTTP serving layer: differential client/server suite, concurrency,
admission/deadline/cancellation translation, scan coalescing, wire bytes.

Every test drives a real :class:`repro.serve.ProteusServer` bound to an
ephemeral loopback port with stdlib ``urllib`` clients — the same black-box
posture as the CI smoke step — and asserts at teardown that the server
leaked no ``proteus-http-*`` / ``proteus-worker-*`` threads.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from tests.conftest import FANOUT_BATCH_SIZE, ITEMS_SCHEMA, make_engine
from repro.core.concurrency import run_concurrently
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.serve import ProteusServer, http11
from repro.serve import server as server_module
from repro.storage.catalog import DataFormat

# ---------------------------------------------------------------------------
# HTTP helpers (stdlib only, mirroring what real clients would do)
# ---------------------------------------------------------------------------


def _request(url, method="GET", payload=None, timeout=30.0):
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, (json.loads(body) if body else {})


def _post(server, endpoint, payload):
    return _request(server.url + endpoint, method="POST", payload=payload)


def _rows(body):
    """Reassemble row tuples from a columnar response body."""
    columns = [body["data"][name] for name in body["columns"]]
    return [tuple(values) for values in zip(*columns)] if columns else []


@contextmanager
def serving(engine):
    server = ProteusServer(engine)
    server.start()
    try:
        yield server
    finally:
        server.stop()
        deadline = time.monotonic() + 5.0
        prefixes = ("proteus-http", "proteus-worker")
        while time.monotonic() < deadline:
            leaked = [
                t.name
                for t in threading.enumerate()
                if t.name.startswith(prefixes)
            ]
            if not leaked:
                break
            time.sleep(0.01)
        assert not leaked, f"server leaked threads: {leaked}"


TIER_CONFIGS = [
    pytest.param({}, "codegen", id="codegen"),
    pytest.param(
        {"vectorized_batch_size": FANOUT_BATCH_SIZE}, "codegen", id="codegen-batched"
    ),
    pytest.param(
        {"parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE},
        "codegen",
        id="codegen-fanout",
    ),
    pytest.param({"enable_codegen": False}, "volcano", id="volcano"),
]

PROJECTION_QUERY = "select id, qty, price from items_csv where qty < 5 order by id"
AGGREGATE_QUERY = (
    "select category, sum(price) as total from items_csv "
    "group by category order by category"
)


# ---------------------------------------------------------------------------
# Differential client/server suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config,expected_tier", TIER_CONFIGS)
def test_http_and_direct_execution_identical(paths, config, expected_tier):
    """The same query through HTTP and engine.query() returns identical rows
    (and reports the same serving tier) on every execution tier."""
    engine = make_engine(paths, **config)
    for query in (PROJECTION_QUERY, AGGREGATE_QUERY):
        direct = engine.query(query)
        with serving(engine) as server:
            status, body = _post(server, "/v1/query", {"query": query})
        assert status == 200, body
        assert _rows(body) == direct.rows
        assert body["row_count"] == len(direct)
        assert body["columns"] == direct.columns
    assert direct.tier == expected_tier
    assert body["tier"] == expected_tier
    assert body["profile"]["execution_tier"] == expected_tier


def test_positional_and_named_parameters(engine):
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/query",
            {
                "query": (
                    "select id from items_csv "
                    "where qty >= ? and category = :cat order by id"
                ),
                "args": [5],
                "params": {"cat": "cat1"},
            },
        )
    assert status == 200, body
    direct = engine.query(
        "select id from items_csv where qty >= ? and category = :cat order by id",
        5,
        cat="cat1",
    )
    assert _rows(body) == direct.rows
    assert direct.rows  # the predicate actually selects something


def test_prepare_execute_and_close_handles(engine):
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/prepare",
            {"query": "select count(*) as n from items_csv where qty = :q"},
        )
        assert status == 200, body
        handle = body["handle"]
        assert body["parameters"] == ["q"]

        status, body = _post(
            server, "/v1/execute", {"handle": handle, "params": {"q": 2}}
        )
        assert status == 200, body
        expected = engine.query(
            "select count(*) as n from items_csv where qty = :q", q=2
        ).scalar()
        assert _rows(body) == [(expected,)]

        # Unknown handle -> 404/SRV003; close -> the handle disappears.
        status, body = _post(server, "/v1/execute", {"handle": "stmt-999"})
        assert (status, body["error"]["code"]) == (404, "SRV003")
        status, body = _request(
            server.url + f"/v1/statement/{handle}", method="DELETE"
        )
        assert (status, body) == (200, {"closed": True})
        status, body = _post(server, "/v1/execute", {"handle": handle})
        assert (status, body["error"]["code"]) == (404, "SRV003")


# ---------------------------------------------------------------------------
# Concurrency: many clients, one engine
# ---------------------------------------------------------------------------


def test_eight_barrier_aligned_concurrent_clients(paths):
    engine = make_engine(paths, parallel_workers=2)
    direct = engine.query(AGGREGATE_QUERY)
    with serving(engine) as server:
        results = run_concurrently(
            lambda i: _post(server, "/v1/query", {"query": AGGREGATE_QUERY}), 8
        )
        statuses = [status for status, _ in results]
        assert statuses == [200] * 8
        for _, body in results:
            assert _rows(body) == direct.rows
        # Request accounting: every hit landed in the HTTP counter.
        samples = engine.metrics.counter("proteus_http_requests_total").samples()
        by_key = {dict(key)["endpoint"]: value for key, value in samples}
        assert by_key["/v1/query"] >= 8


def test_scan_coalescing_n_clients_one_cold_parse(paths):
    """8 concurrent clients hit one cold CSV: exactly one parse happens (the
    leader's), everyone else coalesces on its in-flight materialization."""
    engine = make_engine(paths, vectorized_batch_size=16)
    plugin = engine.plugins[DataFormat.CSV]
    # Persistent slow faults stretch the leader's scan so the other clients
    # demonstrably arrive while it is still in flight.
    injector = FaultInjector(
        FaultPlan(
            [
                FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=0.05)
                for call in range(1, 17)
            ]
        )
    )
    plugin.install_fault_injector(injector)
    base_calls = plugin.scan_calls
    # Both fields sit in the predicate, so the scan converts (and caches)
    # them for every row; a field only the head reads would be fetched
    # lazily for the survivors, per client, and never enter the cache.
    query = "select sum(price) as total from items_csv where qty < 5 and price >= 0"
    with serving(engine) as server:
        results = run_concurrently(
            lambda i: _post(server, "/v1/query", {"query": query}), 8
        )
    assert [status for status, _ in results] == [200] * 8
    bodies = [body for _, body in results]
    assert len({json.dumps(body["data"]) for body in bodies}) == 1
    # One cold parse total — the raw file was not re-scanned per client —
    # and nobody burned I/O retries doing it.
    assert plugin.scan_calls - base_calls == 1
    assert all(body["profile"]["io_retries"] == 0 for body in bodies)
    coalesced = engine.metrics.counter("proteus_scans_coalesced_total")
    total = sum(value for _, value in coalesced.samples())
    assert total >= 1, "no client coalesced on the in-flight scan"


def test_scan_coalescing_of_a_cache_pinned_plan(paths):
    """A plan prepared while its columns are cached reads the raw file once
    the entries are evicted; 8 concurrent clients of that plan still pay one
    parse between them."""
    engine = make_engine(paths, vectorized_batch_size=16)
    plugin = engine.plugins[DataFormat.CSV]
    query = "select sum(price) as total from items_csv where qty < 5 and price >= 0"
    # Another query text over the same columns caches qty + price; the plan
    # of ``query`` is then made, and first run, while they are cached.
    engine.query("select sum(price) from items_csv where qty < 5 and price >= 0")
    pinned = engine._prepare_cached(query)
    assert pinned.execute().profile.values_from_cache > 0
    # Plain eviction keeps the catalog epoch, so the plan stays in use.
    for entry in engine.cache_manager.entries():
        engine.cache_manager.evict(entry.key)
    injector = FaultInjector(
        FaultPlan(
            [
                FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=0.05)
                for call in range(1, 17)
            ]
        )
    )
    plugin.install_fault_injector(injector)
    base_calls = plugin.scan_calls
    with serving(engine) as server:
        results = run_concurrently(
            lambda i: _post(server, "/v1/query", {"query": query}), 8
        )
    assert [status for status, _ in results] == [200] * 8
    assert len({json.dumps(body["data"]) for _, body in results}) == 1
    assert plugin.scan_calls - base_calls == 1


# ---------------------------------------------------------------------------
# Resilience translation: 429 / 408 / 499 / 409
# ---------------------------------------------------------------------------


def test_admission_queue_full_maps_to_429(paths):
    engine = make_engine(paths, max_concurrent_queries=1)
    with serving(engine) as server:
        slot = engine.admission.admit(0)
        try:
            # The request's deadline bounds its wait in the admission queue.
            status, body = _post(
                server,
                "/v1/query",
                {"query": "select count(*) from items_csv", "timeout_ms": 50},
            )
        finally:
            slot.release()
        assert status == 429
        assert body["error"]["code"] == "RES003"
        assert "RES003" in body["error"]["message"]
        # Slot released: the same request is admitted now.
        status, _ = _post(
            server, "/v1/query", {"query": "select count(*) from items_csv"}
        )
        assert status == 200


def test_request_timeout_maps_to_408_with_partial_progress(paths):
    engine = make_engine(
        paths, enable_caching=False, vectorized_batch_size=16
    )
    injector = FaultInjector(
        FaultPlan([FaultSpec(kind="slow", at_call=3, delay_seconds=0.3)])
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/query",
            {"query": "select sum(price) from items_csv", "timeout_ms": 100},
        )
    assert status == 408
    assert body["error"]["code"] == "RES001"
    assert body["profile"]["aborted"] == "RES001"
    # The deadline fired mid-scan: progress shows how far the query got.
    assert body["partial_progress"]["batches"] >= 1


def test_cancel_endpoint_maps_to_499(paths):
    engine = make_engine(
        paths, enable_caching=False, vectorized_batch_size=16
    )
    scanning = threading.Event()

    def slow_sleep(seconds):
        scanning.set()
        time.sleep(seconds)

    injector = FaultInjector(
        FaultPlan(
            [
                FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=0.02)
                for call in range(1, 33)
            ]
        ),
        sleep=slow_sleep,
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    with serving(engine) as server:
        outcome = {}

        def client():
            outcome["response"] = _post(
                server,
                "/v1/query",
                {"query": "select sum(price) from items_csv", "query_id": "q-1"},
            )

        thread = threading.Thread(target=client)
        thread.start()
        assert scanning.wait(5.0), "query never started scanning"
        status, body = _request(server.url + "/v1/query/q-1", method="DELETE")
        assert (status, body) == (200, {"cancelled": True})
        thread.join()
        status, body = outcome["response"]
        assert status == 499
        assert body["error"]["code"] == "RES002"
        # The id is gone once the query unwound: cancelling again is a 404.
        status, body = _request(server.url + "/v1/query/q-1", method="DELETE")
        assert (status, body["error"]["code"]) == (404, "SRV002")


def test_duplicate_query_id_maps_to_409(engine):
    with serving(engine) as server:
        token = server.queries.register("dup-1")
        try:
            status, body = _post(
                server,
                "/v1/query",
                {"query": "select count(*) from items_csv", "query_id": "dup-1"},
            )
            assert (status, body["error"]["code"]) == (409, "SRV004")
        finally:
            server.queries.release("dup-1", token)
        status, _ = _post(
            server,
            "/v1/query",
            {"query": "select count(*) from items_csv", "query_id": "dup-1"},
        )
        assert status == 200


# ---------------------------------------------------------------------------
# Protocol errors and analysis rejections
# ---------------------------------------------------------------------------


def test_analysis_rejection_maps_to_400_with_typ_code(engine):
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/query",
            {"query": "select qty + category from items_csv"},
        )
    assert status == 400
    assert body["error"]["code"].startswith("TYP")


def test_malformed_requests_map_to_400(engine):
    with serving(engine) as server:
        cases = [
            {"query": ""},
            {"query": 7},
            {},
            {"query": "select id from items_csv", "args": "nope"},
            {"query": "select id from items_csv", "params": [1]},
            {"query": "select id from items_csv", "timeout_ms": "fast"},
            {"query": "select id from items_csv", "timeout_ms": -1},
            {"query": "select id from items_csv", "query_id": ""},
        ]
        for payload in cases:
            status, body = _post(server, "/v1/query", payload)
            assert (status, body["error"]["code"]) == (400, "SRV001"), payload
        # Non-JSON body and non-object body are SRV001 too.
        req = urllib.request.Request(
            server.url + "/v1/query", data=b"not json", method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
            body = json.loads(exc.read())
        assert (status, body["error"]["code"]) == (400, "SRV001")


def test_unknown_endpoint_maps_to_404(engine):
    with serving(engine) as server:
        status, body = _post(server, "/v2/query", {"query": "select 1"})
        assert (status, body["error"]["code"]) == (404, "SRV002")
        status, body = _request(server.url + "/nope")
        assert (status, body["error"]["code"]) == (404, "SRV002")


def test_healthz(engine):
    with serving(engine) as server:
        assert _request(server.url + "/healthz") == (200, {"status": "ok"})


# ---------------------------------------------------------------------------
# /metrics wire bytes (Prometheus text exposition v0.0.4)
# ---------------------------------------------------------------------------


def test_metrics_endpoint_serves_exact_prometheus_wire_format(engine):
    engine.query("select count(*) from items_csv")
    with serving(engine) as server:
        _post(server, "/v1/query", {"query": "select count(*) from items_csv"})
        req = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200
            content_type = resp.headers["Content-Type"]
            body = resp.read()
    assert content_type == PROMETHEUS_CONTENT_TYPE
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    # Exactly one trailing newline after the last sample line.
    assert body.endswith(b"\n")
    assert not body.endswith(b"\n\n")
    text = body.decode("utf-8")
    assert "proteus_queries_total" in text
    assert "proteus_http_requests_total" in text
    # Every non-comment line is a sample: "name[{labels}] value".
    for line in text.rstrip("\n").split("\n"):
        assert line, "blank line inside the exposition"
        if not line.startswith("#"):
            assert " " in line


def test_render_prometheus_wire_contract_unit():
    registry = MetricsRegistry()
    assert registry.render_prometheus() == ""
    registry.counter("demo_total", "Demo.").inc()
    rendered = registry.render_prometheus()
    assert rendered.endswith("\n")
    assert not rendered.endswith("\n\n")
    assert rendered.count("demo_total") >= 2  # HELP/TYPE header + sample


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_server_lifecycle_is_single_use(engine):
    server = ProteusServer(engine)
    server.start()
    with pytest.raises(RuntimeError):
        server.start()
    server.stop()
    server.stop()  # idempotent


def test_context_manager_serves_and_stops(engine):
    with ProteusServer(engine) as server:
        status, _ = _request(server.url + "/healthz")
        assert status == 200
    leaked = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("proteus-http")
    ]
    assert not leaked


# ---------------------------------------------------------------------------
# HTTP/1.1 keep-alive front end
# ---------------------------------------------------------------------------


def _keep_alive_post(connection, endpoint, payload):
    """One request over an ``http.client.HTTPConnection`` that stays open."""
    connection.request(
        "POST",
        endpoint,
        json.dumps(payload).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response, json.loads(response.read())


def _raw_request(method, path, body=b"", version="HTTP/1.1", headers=()):
    lines = [f"{method} {path} {version}", "Host: test"]
    lines += list(headers)
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body


def _read_response(sock, buffer=b""):
    """(status, headers, JSON body, leftover bytes) of one framed response."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-response: {buffer!r}"
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    length = int(headers["Content-Length"])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        rest += chunk
    status = int(lines[0].split(" ")[1])
    return status, headers, json.loads(rest[:length]), rest[length:]


def _connect(server):
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _await(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return condition()


def _server_threads():
    return [t for t in threading.enumerate() if t.name.startswith("proteus-http")]


def test_many_requests_share_one_connection(engine):
    query = "select count(*) as n from items_csv where qty < ?"
    with serving(engine) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for qty in range(1, 21):
                response, body = _keep_alive_post(
                    connection, "/v1/query", {"query": query, "args": [qty % 10]}
                )
                assert response.status == 200, body
                assert not response.will_close
                assert response.getheader("Connection") == "keep-alive"
                expected = engine.query(query, qty % 10).scalar()
                assert body["data"] == {"n": [expected]}
                # Still the one socket the first request opened.
                assert connection.sock is not None
                assert server.open_connections() == 1
            gauge = engine.metrics.to_dict()["proteus_http_open_connections"]
            assert gauge == {"type": "gauge", "value": 1.0}
        finally:
            connection.close()
        assert _await(lambda: server.open_connections() == 0)


def test_connection_close_and_http10_requests_are_one_shot(engine):
    with serving(engine) as server:
        for request in (
            _raw_request("GET", "/healthz", headers=["Connection: close"]),
            _raw_request("GET", "/healthz", version="HTTP/1.0"),
            # HTTP/1.0 asking for keep-alive still gets one-shot semantics.
            _raw_request(
                "GET", "/healthz", version="HTTP/1.0", headers=["Connection: keep-alive"]
            ),
        ):
            sock = _connect(server)
            try:
                sock.sendall(request)
                status, headers, body, rest = _read_response(sock)
                assert (status, body) == (200, {"status": "ok"})
                assert headers["Connection"] == "close"
                assert rest == b"" and sock.recv(1) == b"", "server kept it open"
            finally:
                sock.close()


def test_expect_continue_is_answered_and_head_closes(engine):
    """What curl does with a large body (waits for ``100 Continue`` before
    sending it), and the one method whose answer cannot keep the stream."""
    body = json.dumps({"query": "select count(*) as n from items_csv"}).encode()
    head = (
        f"POST /v1/query HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n"
        "Expect: 100-continue\r\n\r\n"
    ).encode("ascii")
    with serving(engine) as server:
        sock = _connect(server)
        try:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            status, headers, answer, _ = _read_response(sock)
            assert (status, headers["Connection"]) == (200, "keep-alive")
            assert answer["data"] == {"n": [engine.query("select count(*) from items_csv").scalar()]}
            sock.sendall(_raw_request("HEAD", "/healthz"))
            status, headers, _, _ = _read_response(sock)
            assert (status, headers["Connection"]) == (404, "close")
            assert sock.recv(1) == b""
        finally:
            sock.close()


def test_pipelined_requests_are_answered_in_order(engine):
    query = "select count(*) as n from items_csv where qty < ?"
    first = json.dumps({"query": query, "args": [3]}).encode()
    second = json.dumps({"query": query, "args": [7]}).encode()
    with serving(engine) as server:
        sock = _connect(server)
        try:
            # Both requests in one segment: the second sits in the worker's
            # receive buffer while the first is served.
            sock.sendall(
                _raw_request("POST", "/v1/query", first)
                + _raw_request("POST", "/v1/query", second)
                + _raw_request("GET", "/healthz")
            )
            status, _, body, rest = _read_response(sock)
            assert (status, body["data"]["n"]) == (200, [engine.query(query, 3).scalar()])
            status, _, body, rest = _read_response(sock, rest)
            assert (status, body["data"]["n"]) == (200, [engine.query(query, 7).scalar()])
            status, headers, body, rest = _read_response(sock, rest)
            assert (status, body, rest) == (200, {"status": "ok"}, b"")
            assert headers["Connection"] == "keep-alive"
        finally:
            sock.close()


def test_idle_connection_is_closed_and_the_retry_succeeds(engine, monkeypatch):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_SECONDS", 0.1)
    with serving(engine) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read() == b'{"status": "ok"}'
            assert server.open_connections() == 1
            assert _await(lambda: server.open_connections() == 0), "never timed out"
            # What a keep-alive client does with a connection the server
            # dropped meanwhile: reconnect and resend.
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
            except (http.client.HTTPException, ConnectionError):
                connection.close()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
            assert (response.status, response.read()) == (200, b'{"status": "ok"}')
        finally:
            connection.close()


def test_parked_connections_cost_sockets_not_threads(engine):
    query = "select count(*) as n from items_csv where qty < ?"
    expected = {qty: engine.query(query, qty).scalar() for qty in range(10)}
    parked = []
    with serving(engine) as server:
        try:
            for _ in range(256):
                sock = _connect(server)
                sock.sendall(_raw_request("GET", "/healthz"))
                assert _read_response(sock)[0] == 200
                parked.append(sock)
            assert server.open_connections() == 256
            baseline = threading.active_count() - len(_server_threads())
            peak = []

            def client(index):
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=10
                )
                try:
                    for step in range(25):
                        qty = (index + step) % 10
                        response, body = _keep_alive_post(
                            connection, "/v1/query", {"query": query, "args": [qty]}
                        )
                        assert response.status == 200, body
                        assert body["data"] == {"n": [expected[qty]]}
                        peak.append(len(_server_threads()))
                finally:
                    connection.close()

            run_concurrently(client, 8)
            # The event loop plus the fixed pool, whatever is connected.
            assert max(peak) <= server.pool_size + 1
            assert threading.active_count() - baseline <= server.pool_size + 1
            # Every dashboard that sat idle meanwhile is still served.
            for sock in parked:
                sock.sendall(_raw_request("GET", "/healthz"))
                status, headers, body, _ = _read_response(sock)
                assert (status, body) == (200, {"status": "ok"})
                assert headers["Connection"] == "keep-alive"
        finally:
            for sock in parked:
                sock.close()


def test_stop_with_parked_half_sent_and_in_flight_connections(paths):
    engine = make_engine(
        paths, enable_caching=False, vectorized_batch_size=16
    )
    scanning = threading.Event()

    def slow_sleep(seconds):
        scanning.set()
        time.sleep(seconds)

    engine.plugins[DataFormat.CSV].install_fault_injector(
        FaultInjector(
            FaultPlan(
                [
                    FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=0.05)
                    for call in range(1, 9)
                ]
            ),
            sleep=slow_sleep,
        )
    )
    server = ProteusServer(engine).start()
    parked = _connect(server)
    half_sent = _connect(server)
    outcome = {}
    try:
        parked.sendall(_raw_request("GET", "/healthz"))
        assert _read_response(parked)[0] == 200
        half_sent.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")

        def client():
            sock = _connect(server)
            try:
                body = json.dumps({"query": "select sum(price) as t from items_csv"})
                sock.sendall(_raw_request("POST", "/v1/query", body.encode()))
                outcome["response"] = _read_response(sock)[:3]
                outcome["eof"] = sock.recv(1)
            finally:
                sock.close()

        thread = threading.Thread(target=client)
        thread.start()
        assert scanning.wait(5.0), "query never started scanning"
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
        thread.join(10.0)
        assert not thread.is_alive()
        # Bounded: the in-flight query finishes; nothing waits out an I/O
        # timeout on the half-sent request.
        assert elapsed < http11.IO_TIMEOUT_SECONDS / 2
        # The in-flight request was drained, answered, and then closed.
        status, headers, body = outcome["response"]
        assert (status, headers["Connection"]) == (200, "close")
        assert body["data"]["t"] == [engine.query("select sum(price) from items_csv").scalar()]
        assert outcome["eof"] == b""
        # The parked and the half-sent connection were closed.
        assert parked.recv(1) == b""
        assert half_sent.recv(1) == b""
        assert not _server_threads()
        assert server.open_connections() == 0
    finally:
        server.stop()
        parked.close()
        half_sent.close()


# ---------------------------------------------------------------------------
# Request framing on a persistent connection
# ---------------------------------------------------------------------------


def test_unknown_route_drains_its_body_before_the_next_request(engine):
    with serving(engine) as server:
        sock = _connect(server)
        try:
            junk = b'{"query": "GET /healthz HTTP/1.1"}' * 4
            sock.sendall(_raw_request("POST", "/v2/nope", junk))
            status, headers, body, rest = _read_response(sock)
            assert (status, body["error"]["code"]) == (404, "SRV002")
            assert headers["Connection"] == "keep-alive"
            # The body was consumed, not parsed as a request.
            sock.sendall(_raw_request("GET", "/healthz"))
            status, _, body, rest = _read_response(sock, rest)
            assert (status, body, rest) == (200, {"status": "ok"}, b"")
        finally:
            sock.close()


@pytest.mark.parametrize(
    "head,expected",
    [
        (b"POST /v1/query HTTP/1.1\r\n\r\n", (400, "SRV001")),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: ten\r\n\r\n", (400, "SRV001")),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: -1\r\n\r\n", (400, "SRV001")),
        (
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
            (400, "SRV001"),
        ),
        (
            b"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            (400, "SRV001"),
        ),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", (413, "SRV005")),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", (413, "SRV005")),
        (b"NONSENSE\r\n\r\n", (400, "SRV001")),
    ],
)
def test_unframeable_requests_are_answered_and_closed(engine, head, expected):
    with serving(engine) as server:
        sock = _connect(server)
        try:
            sock.sendall(head)
            status, headers, body, _ = _read_response(sock)
            assert (status, body["error"]["code"]) == expected
            assert headers["Connection"] == "close"
            assert sock.recv(1) == b""
        finally:
            sock.close()
        # The worker that answered is back in the pool.
        assert _request(server.url + "/healthz") == (200, {"status": "ok"})


def test_body_limit_applies_to_the_declared_length(engine, monkeypatch):
    monkeypatch.setattr(http11, "MAX_BODY_BYTES", 64)
    with serving(engine) as server:
        status, body = _post(server, "/v1/query", {"query": "select 1 " + " " * 64})
        assert (status, body["error"]["code"]) == (413, "SRV005")
        status, _ = _post(server, "/v1/query", {"query": "select count(*) from items_csv"})
        assert status == 200


def test_unknown_paths_share_one_metric_series(engine):
    with serving(engine) as server:
        for index in range(100):
            assert _request(server.url + f"/scan/{index}")[0] == 404
            assert _post(server, f"/x{index}/query", {})[0] == 404
        status, _ = _request(server.url + "/v1/nothing", method="DELETE")
        assert status == 404
    samples = engine.metrics.counter("proteus_http_requests_total").samples()
    endpoints = {dict(labels)["endpoint"] for labels, _ in samples}
    assert endpoints == {"<unknown>"}
    assert sum(value for _, value in samples) == 201


# ---------------------------------------------------------------------------
# Cross-client result cache
# ---------------------------------------------------------------------------

PARAM_QUERY = (
    "select category, count(*) as n, sum(price) as total from items_csv "
    "where qty < ? group by category order by category"
)


def _result_entries(engine):
    return [entry for entry in engine.cache_entries() if entry.kind == "result"]


def _cache_counters(engine):
    return tuple(
        engine.metrics.counter(f"proteus_result_cache_{name}_total").value()
        for name in ("hits", "misses")
    )


@pytest.mark.parametrize("config,expected_tier", TIER_CONFIGS)
def test_result_cache_hit_replays_the_execution(paths, config, expected_tier):
    engine = make_engine(paths, **config)
    direct = engine.query(PARAM_QUERY, 6)
    with serving(engine) as server:
        status, miss = _post(server, "/v1/query", {"query": PARAM_QUERY, "args": [6]})
        assert status == 200 and "cached" not in miss
        status, hit = _post(server, "/v1/query", {"query": PARAM_QUERY, "args": [6]})
        assert status == 200 and hit["cached"] is True
    assert _rows(hit) == _rows(miss) == direct.rows
    assert hit["tier"] == miss["tier"] == expected_tier
    for field in ("columns", "data", "row_count", "profile"):
        assert hit[field] == miss[field]
    # The hit reports its own (tiny) service time, not the execution's.
    assert 0 <= hit["execution_seconds"] < 0.05
    assert _cache_counters(engine) == (1.0, 1.0)
    assert len(_result_entries(engine)) == 1


def test_result_cache_keys_on_every_bound_value(engine):
    query = (
        "select count(*) as n from items_csv where qty < ? and category = :cat"
    )
    with serving(engine) as server:
        seen = {}
        for args, params in [
            ([5], {"cat": "cat1"}),
            ([6], {"cat": "cat1"}),
            ([5], {"cat": "cat2"}),
            # Same number, different JSON type: binds differently, keys apart.
            ([5.0], {"cat": "cat1"}),
        ]:
            payload = {"query": query, "args": args, "params": params}
            status, body = _post(server, "/v1/query", payload)
            assert status == 200 and "cached" not in body, payload
            expected = engine.query(query, *args, **params).scalar()
            assert body["data"] == {"n": [expected]}
            seen[json.dumps(payload)] = body["data"]
        for payload, data in seen.items():
            status, body = _post(server, "/v1/query", json.loads(payload))
            assert body["cached"] is True and body["data"] == data
        # Values that cannot key a cache entry execute every time.
        for _ in range(2):
            status, body = _post(
                server,
                "/v1/query",
                {"query": "select count(*) as n from items_csv where qty < ?",
                 "args": [[1, 2]]},
            )
            assert "cached" not in body
    assert _cache_counters(engine) == (4.0, 4.0)


def test_query_and_execute_of_one_shape_share_entries(engine):
    with serving(engine) as server:
        status, body = _post(server, "/v1/prepare", {"query": PARAM_QUERY})
        handle = body["handle"]
        status, first = _post(server, "/v1/execute", {"handle": handle, "args": [4]})
        assert status == 200 and "cached" not in first
        status, second = _post(server, "/v1/query", {"query": PARAM_QUERY, "args": [4]})
        assert status == 200 and second["cached"] is True
        assert _rows(second) == _rows(first)
        status, third = _post(server, "/v1/execute", {"handle": handle, "args": [4]})
        assert third["cached"] is True
    assert len(_result_entries(engine)) == 1


def test_reregistering_a_dataset_returns_fresh_rows(engine, tmp_path):
    query = "select count(*) as n, sum(price) as total from items_csv"
    replacement = tmp_path / "items_v2.csv"
    replacement.write_text("id,qty,price,category\n1,1,10.0,cat0\n2,2,32.5,cat1\n")
    with serving(engine) as server:
        _, before = _post(server, "/v1/query", {"query": query})
        assert _post(server, "/v1/query", {"query": query})[1]["cached"] is True
        engine.register_csv("items_csv", str(replacement), schema=ITEMS_SCHEMA)
        status, after = _post(server, "/v1/query", {"query": query})
        assert status == 200 and "cached" not in after
        assert after["data"] == {"n": [2], "total": [42.5]}
        assert after["data"] != before["data"]
        assert _post(server, "/v1/query", {"query": query})[1]["data"] == after["data"]
    # The old epoch's entry went with its dataset.
    assert len(_result_entries(engine)) == 1


def test_error_responses_are_never_cached(paths):
    engine = make_engine(
        paths,
        vectorized_batch_size=16,
        max_concurrent_queries=1,
    )
    query = "select sum(price) as total from items_csv where qty < ?"
    scanning = threading.Event()

    def slow_sleep(seconds):
        scanning.set()
        time.sleep(seconds)

    def slow_faults(delay):
        return FaultInjector(
            FaultPlan(
                [
                    FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=delay)
                    for call in range(1, 33)
                ]
            ),
            sleep=slow_sleep,
        )

    plugin = engine.plugins[DataFormat.CSV]
    with serving(engine) as server:
        payload = {"query": query, "args": [5]}
        # 400: analysis rejection.  429: admission.  408: deadline.  499: cancel.
        status, _ = _post(server, "/v1/query", {"query": "select qty + category from items_csv"})
        assert status == 400
        slot = engine.admission.admit(0)
        try:
            assert _post(server, "/v1/query", {**payload, "timeout_ms": 50})[0] == 429
        finally:
            slot.release()
        plugin.install_fault_injector(slow_faults(0.3))
        assert _post(server, "/v1/query", {**payload, "timeout_ms": 50})[0] == 408
        plugin.install_fault_injector(slow_faults(0.02))
        scanning.clear()
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(
                response=_post(server, "/v1/query", {**payload, "query_id": "c-1"})
            )
        )
        thread.start()
        assert scanning.wait(5.0)
        assert _request(server.url + "/v1/query/c-1", method="DELETE")[0] == 200
        thread.join()
        assert outcome["response"][0] == 499
        plugin.install_fault_injector(None)
        assert _result_entries(engine) == []
        assert _cache_counters(engine)[0] == 0.0
        # The same request, unhindered: executes (nothing was cached), then hits.
        status, body = _post(server, "/v1/query", payload)
        assert status == 200 and "cached" not in body
        assert body["data"] == {"total": [engine.query(query, 5).scalar()]}
        assert _post(server, "/v1/query", payload)[1]["cached"] is True


def test_tiny_budget_evicts_results_and_keeps_byte_accounting(paths):
    engine = make_engine(paths, cache_budget_bytes=8 * 1024)
    query = "select id, price from items_bin where qty < ? order by id"
    manager = engine.cache_manager
    with serving(engine) as server:
        for round_ in range(3):
            for qty in range(10):
                status, body = _post(server, "/v1/query", {"query": query, "args": [qty]})
                assert status == 200
                assert _rows(body) == engine.query(query, qty).rows, (round_, qty)
                entries = manager.entries()
                assert manager.used_bytes == sum(e.size_bytes for e in entries)
                assert manager.used_bytes <= 8 * 1024
    assert manager.stats.evictions > 0
    assert 0 < len(_result_entries(engine)) < 10


def test_caching_disabled_serves_without_a_result_cache(paths):
    engine = make_engine(paths, enable_caching=False)
    with serving(engine) as server:
        for _ in range(3):
            status, body = _post(server, "/v1/query", {"query": PARAM_QUERY, "args": [6]})
            assert status == 200 and "cached" not in body
            assert _rows(body) == engine.query(PARAM_QUERY, 6).rows
        scrape = urllib.request.urlopen(server.url + "/metrics", timeout=30).read()
    assert b"proteus_result_cache" not in scrape


def test_eight_aligned_clients_on_one_result_key(paths):
    """Concurrent first requests each execute (no in-flight de-duplication),
    one store wins, every later request hits — and under ``--stress`` the
    DebugLock sanitizer watches the lookup/store paths."""
    engine = make_engine(paths, parallel_workers=2)
    direct = engine.query(PARAM_QUERY, 7)
    with serving(engine) as server:
        payload = {"query": PARAM_QUERY, "args": [7]}
        for _ in range(3):
            results = run_concurrently(
                lambda i: _post(server, "/v1/query", payload), 8
            )
            assert [status for status, _ in results] == [200] * 8
            for _, body in results:
                assert _rows(body) == direct.rows
        assert all(body["cached"] is True for _, body in results)
        scrape = urllib.request.urlopen(server.url + "/metrics", timeout=30).read().decode()
    assert len(_result_entries(engine)) == 1
    hits, misses = _cache_counters(engine)
    assert hits + misses == 24 and hits >= 16
    assert f"proteus_result_cache_hits_total {int(hits)}" in scrape
    assert f"proteus_result_cache_misses_total {int(misses)}" in scrape
    assert "proteus_http_open_connections " in scrape
