"""The concurrent query service: one shared engine, many HTTP clients.

:class:`ProteusServer` mounts ONE shared
:class:`~repro.core.engine.ProteusEngine` behind a dependency-free HTTP/1.1
front end with persistent connections.  The engine already is the concurrency
story — thread-safe prepare/plan caches, admission control as the front door,
per-query deadlines and cancellation, cross-query scan coalescing — so the
server stays a thin translation layer:

========================  =================================================
``POST /v1/query``        one-shot execution through the engine's per-text
                          prepared cache (``timeout_ms`` → ``timeout=``,
                          ``query_id`` → a registered cancel token)
``POST /v1/prepare``      server-side statement handle (``stmt-N``)
``POST /v1/execute``      execute a handle with positional/named params
``DELETE /v1/query/<id>`` trip the cancellation token of an in-flight
                          execution registered under ``query_id``
``DELETE /v1/statement/<handle>``  close a statement handle
``GET /metrics``          Prometheus exposition of the engine registry
                          (exact v0.0.4 content type)
``GET /healthz``          liveness probe
========================  =================================================

Error translation is table-driven (:mod:`repro.serve.mapping`,
:data:`repro.errors.HTTP_STATUS_BY_CODE`): admission rejections surface as
429/503, deadline/cancellation as 408/499 with partial progress, analysis
rejections as 400 — the body always carries the engine's own error code.

Threads and connections
-----------------------

An idle dashboard costs a socket, not a thread.  One event-loop thread
(``proteus-http-serve-<port>``, a ``selectors`` loop) owns the listening
socket and every *parked* keep-alive connection.  When a parked connection
becomes readable the loop hands it to a fixed pool of worker threads
(``proteus-http-<n>``, sized from the core count).  A worker reads and frames
one request (:mod:`repro.serve.http11`), routes it through :class:`_Handler`,
writes the response with a single ``sendall``, and then either serves the
client's next request — already in its buffer, or arriving within
``LINGER_SECONDS`` while no other connection waits for a worker — or gives
the connection back to the loop to be parked again.  ``Connection: close``
and HTTP/1.0 requests are answered and closed; parked connections are closed
after ``IDLE_TIMEOUT_SECONDS``.

``stop()`` is a bounded join of everything the server ever spawned: the loop
closes the listener and every parked connection, readers blocked on a
half-sent request see end-of-stream, requests already executing finish and
are answered with ``Connection: close``, and every thread is joined.

Result cache
------------

``/v1/query`` and ``/v1/execute`` answer repeated ``(plan fingerprint, bound
parameters, catalog epoch)`` triples from :mod:`repro.serve.result_cache`: a
hit replays the encoded rows of the execution that produced them with
``"cached": true`` and this request's own ``execution_seconds``.  Only 200
responses are kept; the entries share the engine's cache budget.
"""

from __future__ import annotations

import os
import queue
import selectors
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.core.concurrency import make_lock
from repro.errors import ProteusError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.serve.http11 import Connection, FramingError, Request
from repro.serve.mapping import engine_error_response, protocol_error_response
from repro.serve.protocol import (
    BadRequestError,
    QueryRequest,
    encode_json,
    encode_result_head,
    finish_result_body,
    parse_body,
    parse_query_request,
)
from repro.serve.registry import (
    ActiveQueryRegistry,
    DuplicateQueryIdError,
    StatementRegistry,
)
from repro.serve.result_cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import PreparedQuery, ProteusEngine

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Seconds a parked keep-alive connection may stay silent before the event
#: loop closes it (the client reconnects on its next request).
IDLE_TIMEOUT_SECONDS = 30.0

#: After a response a worker waits this long on the same connection for the
#: client's next request before parking it — unless another connection is
#: waiting for a worker.  A dashboard in a request loop asks again within a
#: fraction of a millisecond; serving it from the thread that already holds
#: the connection saves two thread hand-overs (worker → loop → worker) and
#: the GIL traffic that goes with them, which under a few busy clients is
#: most of the per-request cost.  An idle dashboard costs a worker 2 ms per
#: request and nothing afterwards.
LINGER_SECONDS = 0.002

#: ``proteus_http_requests_total`` label of every request that matched no
#: route (or could not be framed): one series, however many paths a scanner
#: tries.
UNKNOWN_ENDPOINT = "<unknown>"


def _pool_size() -> int:
    """Worker threads of one server.  Workers mostly run GIL-bound query
    code, but a worker also blocks while its query waits (admission queue,
    coalesced scan, slow raw I/O), and the request that would cancel it must
    still find a free one — so several per core, and never fewer than 8."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return max(8, 4 * cores)


class _Response(NamedTuple):
    status: int
    content_type: str
    body: bytes


class _Handler:
    """Routes one framed request to its endpoint; one instance per server,
    called from every worker thread (it holds no per-request state)."""

    def __init__(self, proteus: "ProteusServer"):
        self.proteus = proteus
        engine = proteus.engine
        #: ``None`` with ``enable_caching=False``: no cache manager, no
        #: result cache.
        manager = engine.cache_manager
        self.results = ResultCache(engine, manager) if manager is not None else None

    # -- plumbing ----------------------------------------------------------

    def handle(self, request: Request) -> _Response:
        try:
            if request.method == "GET":
                return self.do_GET(request)
            if request.method == "POST":
                return self.do_POST(request)
            if request.method == "DELETE":
                return self.do_DELETE(request)
            return self._unknown(request)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return self._json(
                UNKNOWN_ENDPOINT,
                *protocol_error_response("internal", f"{type(exc).__name__}: {exc}"),
            )

    def _json(self, endpoint: str, status: int, payload: dict | bytes) -> _Response:
        body = payload if isinstance(payload, bytes) else encode_json(payload)
        # Count before writing: once the client has the response bytes it
        # must be able to observe its own request in a /metrics scrape.
        self.proteus.record_request(endpoint, status)
        return _Response(status, JSON_CONTENT_TYPE, body)

    def framing_error(self, exc: FramingError) -> _Response:
        """The answer to bytes that framed no request (sent with
        ``Connection: close``)."""
        return self._json(
            UNKNOWN_ENDPOINT, *protocol_error_response(exc.code, str(exc))
        )

    def _unknown(self, request: Request) -> _Response:
        return self._json(
            UNKNOWN_ENDPOINT,
            *protocol_error_response(
                "SRV002", f"unknown endpoint {request.method} {request.path!r}"
            ),
        )

    # -- routing -----------------------------------------------------------

    def do_GET(self, request: Request) -> _Response:
        if request.path == "/healthz":
            return self._json("/healthz", 200, {"status": "ok"})
        if request.path == "/metrics":
            self.proteus.record_request("/metrics", 200)
            body = self.proteus.engine.metrics.render_prometheus()
            return _Response(200, PROMETHEUS_CONTENT_TYPE, body.encode("utf-8"))
        return self._unknown(request)

    def do_POST(self, request: Request) -> _Response:
        route = {
            "/v1/query": self._post_query,
            "/v1/prepare": self._post_prepare,
            "/v1/execute": self._post_execute,
        }.get(request.path)
        if route is None:
            return self._unknown(request)
        payload: dict | bytes
        try:
            status, payload = route(parse_body(request.body))
        except BadRequestError as exc:
            status, payload = protocol_error_response("SRV001", str(exc))
        except DuplicateQueryIdError as exc:
            status, payload = protocol_error_response("SRV004", str(exc))
        except ProteusError as exc:
            status, payload = engine_error_response(exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, payload = protocol_error_response(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        return self._json(request.path, status, payload)

    def do_DELETE(self, request: Request) -> _Response:
        proteus = self.proteus
        path = request.path
        if path.startswith("/v1/query/"):
            query_id = path[len("/v1/query/"):]
            if proteus.queries.cancel(query_id):
                return self._json("/v1/query/<id>", 200, {"cancelled": True})
            return self._json(
                "/v1/query/<id>",
                *protocol_error_response(
                    "SRV002", f"no in-flight query with id {query_id!r}"
                ),
            )
        if path.startswith("/v1/statement/"):
            handle = path[len("/v1/statement/"):]
            if proteus.statements.close(handle):
                return self._json("/v1/statement/<handle>", 200, {"closed": True})
            return self._json(
                "/v1/statement/<handle>",
                *protocol_error_response(
                    "SRV003", f"unknown statement handle {handle!r}"
                ),
            )
        return self._unknown(request)

    # -- endpoints ---------------------------------------------------------

    def _post_query(self, body: dict) -> tuple[int, dict | bytes]:
        request = parse_query_request(body, require="query")
        # The per-text prepared cache: repeated texts share one PreparedQuery
        # (and its compiled program) across every client.
        prepared = self.proteus.engine._prepare_cached(request.query)
        return self._run(prepared, request)

    def _post_prepare(self, body: dict) -> tuple[int, dict | bytes]:
        request = parse_query_request(body, require="query")
        proteus = self.proteus
        prepared = proteus.engine.prepare(request.query)
        handle = proteus.statements.create(prepared)
        return 200, {"handle": handle, "parameters": prepared.parameters}

    def _post_execute(self, body: dict) -> tuple[int, dict | bytes]:
        request = parse_query_request(body, require="handle")
        proteus = self.proteus
        prepared = proteus.statements.get(request.handle)
        if prepared is None:
            return protocol_error_response(
                "SRV003", f"unknown statement handle {request.handle!r}"
            )
        return self._run(prepared, request)

    def _run(
        self, prepared: "PreparedQuery", request: QueryRequest
    ) -> tuple[int, bytes]:
        proteus = self.proteus
        results = self.results
        started = time.perf_counter()
        token = None
        try:
            if request.query_id is not None:
                token = proteus.queries.register(request.query_id)
            key = None
            if results is not None:
                key = prepared.result_key(request.args, request.params)
                head = results.lookup(key) if key is not None else None
                if head is not None:
                    return 200, finish_result_body(
                        head, time.perf_counter() - started, cached=True
                    )
            result = prepared.execute(
                *request.args,
                timeout=request.timeout_seconds,
                cancel=token,
                **request.params,
            )
            head = encode_result_head(result)
            if results is not None and key is not None:
                # Only a completed execution gets here: error answers are
                # never cached.
                results.store(key, prepared, head)
            return 200, finish_result_body(
                head, result.execution_seconds, cached=False
            )
        finally:
            if token is not None:
                proteus.queries.release(request.query_id, token)


class ProteusServer:
    """HTTP/1.1 keep-alive front end over one shared :class:`ProteusEngine`.

    Usage::

        server = ProteusServer(engine)          # port=0 -> ephemeral port
        server.start()
        ... http.client / urllib / any HTTP client against server.url ...
        server.stop()                           # bounded: joins all threads

    Also usable as a context manager.  The server is single-use: once
    stopped, the listening socket is closed and ``start()`` raises.
    """

    def __init__(
        self, engine: "ProteusEngine", host: str = "127.0.0.1", port: int = 0
    ):
        self.engine = engine
        self.statements = StatementRegistry()
        self.queries = ActiveQueryRegistry()
        #: Worker threads serving requests (idle connections use none).
        self.pool_size = _pool_size()
        self._lock = make_lock("ProteusServer._lock")
        self._threads: list[threading.Thread] = []
        self._stopping = False
        #: Every accepted connection not yet closed: parked, queued or being
        #: served.
        self._connections: set[Connection] = set()
        #: Loop → workers: readable connections (``None`` ends a worker).
        self._ready: queue.SimpleQueue[Connection | None] = queue.SimpleQueue()
        #: Workers → loop: connections to park again.
        self._returns: queue.SimpleQueue[Connection] = queue.SimpleQueue()
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._address: tuple[str, int] = self._listener.getsockname()[:2]
        #: Written to wake the loop out of ``select()``.
        self._wake_receive, self._wake_send = socket.socketpair()
        self._wake_receive.setblocking(False)
        self._wake_send.setblocking(False)
        self._handler = _Handler(self)
        self._requests = engine.metrics.counter(
            "proteus_http_requests_total",
            "HTTP requests served, labeled by endpoint and status.",
        )
        self._register_gauges()

    # -- metrics -----------------------------------------------------------

    def _register_gauges(self) -> None:
        metrics = self.engine.metrics
        if not metrics.enabled:
            return
        statements = self.statements
        queries = self.queries
        metrics.gauge_callback(
            "proteus_server_statements",
            lambda: float(statements.count()),
            "Open server-side prepared-statement handles.",
        )
        metrics.gauge_callback(
            "proteus_server_active_queries",
            lambda: float(queries.count()),
            "In-flight HTTP executions holding a cancellation token.",
        )
        metrics.gauge_callback(
            "proteus_http_open_connections",
            lambda: float(self.open_connections()),
            "Client connections currently open (parked or being served).",
        )

    def record_request(self, endpoint: str, status: int) -> None:
        if self.engine.metrics.enabled:
            self._requests.inc(endpoint=endpoint, status=str(status))

    def open_connections(self) -> int:
        with self._lock:
            return len(self._connections)

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ProteusServer":
        with self._lock:
            if self._threads or self._stopping:
                raise RuntimeError("server is already running or was stopped")
            self._threads = [
                threading.Thread(
                    target=self._loop, name=f"proteus-http-serve-{self.port}"
                )
            ] + [
                threading.Thread(target=self._work, name=f"proteus-http-{index}")
                for index in range(self.pool_size)
            ]
            threads = list(self._threads)
        for thread in threads:
            thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            threads, self._threads = self._threads, []
        if threads:
            self._wake()
            threads[0].join()  # the loop closed every parked connection
            with self._lock:
                in_flight = list(self._connections)
            for connection in in_flight:
                connection.shutdown_read()
            for _ in threads[1:]:
                self._ready.put(None)
            for thread in threads[1:]:
                thread.join()
        with self._lock:
            leftover = list(self._connections)
            self._connections.clear()
        for connection in leftover:  # returned for parking after the loop ended
            connection.close()
        self._listener.close()
        self._wake_receive.close()
        self._wake_send.close()

    def __enter__(self) -> "ProteusServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass  # a wake-up is already pending, or the server is stopped

    def _close(self, connection: Connection) -> None:
        with self._lock:
            self._connections.discard(connection)
        connection.close()

    # -- the event loop (one thread) ---------------------------------------

    def _loop(self) -> None:
        """Owns the listener and every parked connection: accepts, hands
        readable connections to the workers, parks the ones they return and
        closes the ones that stayed idle too long."""
        selector = selectors.DefaultSelector()
        #: Parked connections, longest-parked first (dicts keep insertion
        #: order and every park appends), so the idle sweep and the select
        #: timeout only ever look at the front.
        parked: dict[Connection, None] = {}
        selector.register(self._listener, selectors.EVENT_READ)
        selector.register(self._wake_receive, selectors.EVENT_READ)
        try:
            while not self._stopping:
                timeout = None
                if parked:
                    oldest = next(iter(parked))
                    timeout = max(oldest.idle_deadline - time.monotonic(), 0.0)
                for key, _events in selector.select(timeout):
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.fileobj is self._wake_receive:
                        try:
                            self._wake_receive.recv(4096)
                        except BlockingIOError:
                            pass
                    else:
                        # Request bytes, or the peer's FIN: a worker finds out.
                        connection = key.data
                        selector.unregister(connection)
                        del parked[connection]
                        self._ready.put(connection)
                while True:
                    try:
                        connection = self._returns.get_nowait()
                    except queue.Empty:
                        break
                    connection.idle_deadline = time.monotonic() + IDLE_TIMEOUT_SECONDS
                    selector.register(connection, selectors.EVENT_READ, connection)
                    parked[connection] = None
                now = time.monotonic()
                while parked:
                    oldest = next(iter(parked))
                    if oldest.idle_deadline > now:
                        break
                    selector.unregister(oldest)
                    del parked[oldest]
                    self._close(oldest)
        finally:
            for connection in parked:
                self._close(connection)
            selector.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _address = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed, or the peer reset before accept
            try:
                connection = Connection(sock)
            except OSError:  # reset between accept and setsockopt
                sock.close()
                continue
            with self._lock:
                self._connections.add(connection)
            # Parked first, not handed to a worker: a client that connects
            # and sends nothing must not hold a thread.
            self._returns.put(connection)

    # -- the workers (pool_size threads) -----------------------------------

    def _work(self) -> None:
        while True:
            connection = self._ready.get()
            if connection is None:
                return
            if self._serve(connection):
                self._returns.put(connection)
                self._wake()
            else:
                self._close(connection)

    def _serve(self, connection: Connection) -> bool:
        """Serve the request(s) available on a readable connection; True
        when the connection stays open and should be parked again."""
        try:
            while True:
                try:
                    request = connection.read_request()
                except FramingError as exc:
                    connection.send_response(
                        *self._handler.framing_error(exc), keep_alive=False
                    )
                    return False
                if request is None:
                    return False
                response = self._handler.handle(request)
                keep_alive = request.keep_alive and not self._stopping
                connection.send_response(*response, keep_alive=keep_alive)
                if not keep_alive:
                    return False
                if connection.has_buffered_bytes:
                    continue
                if not self._ready.empty() or not connection.await_bytes(
                    LINGER_SECONDS
                ):
                    return True
        except OSError:
            return False  # peer reset, or stalled past the I/O timeout
