"""Workload ``serve_dashboard``: short parameterised queries over HTTP.

``ProteusServer`` over one shared engine runs in a subprocess
(``serve_target.py``).  ``clients`` closed-loop threads — dashboards wait for
a reply before asking again — POST ``/v1/query`` with one of five
parameterised shapes; the parameter is drawn Zipf(1.1) over 64 values, so hot
(shape, parameter) pairs repeat and cold ones keep arriving.  The queries are
short, so per-request cost dominates: connection and thread spawn, JSON
encode, engine dispatch, per-execution analysis, prepared/compiled cache
look-ups, metrics recording.  Executor kernels must not move this workload.

The client asks for keep-alive and reconnects when the server closes the
connection (it does today: HTTP/1.0), so a later keep-alive server shows in
``serve.connections_per_request`` without a benchmark edit.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import harness
from datagen import rng_seed
from harness import Measurement, RunConfig, Slice
from oracle import load_reference_columns, rows_match

PARAMETERS = 64
ZIPF_EXPONENT = 1.1
#: Requests of the untimed warm-up each fresh server gets after its first
#: pass, split between the clients.  A count, not a duration, so that work a
#: change moves into warm-up shows in ``setup_s``.
WARMUP_REQUESTS = 200
#: The timed window is run in slices of this many seconds of load.
SLICE_SECONDS = 1.0
#: Length of each client's pre-drawn request stream (it wraps around).
STREAM_LENGTH = 20_000


def _shapes(columns: dict, rng: np.random.RandomState):
    """``(name, sql, parameters, reference(param) -> rows, ordered)`` per shape;
    parameters are ordered hottest first."""
    li = {name.split(".", 1)[1]: values for name, values in columns.items()
          if name.startswith("lineitem.")}
    od = {name.split(".", 1)[1]: values for name, values in columns.items()
          if name.startswith("orders.")}
    def thresholds(values) -> list[int]:
        # Above the minimum, so no filter is ever empty.  The value range is
        # cut into one stretch per rank, handed out in a fixed shuffled order:
        # how much the hot ranks select, which sets what the mix costs, is
        # then the same for every seed; the seed picks the value inside.
        edges = np.linspace(int(values.min()) + 1, int(values.max()) + 1,
                            PARAMETERS + 1).astype(int)
        return [int(rng.randint(edges[stretch], edges[stretch + 1]))
                for stretch in np.random.RandomState(0).permutation(PARAMETERS)]

    def point(param):
        mask = li["l_suppkey"] == param
        return [(int(mask.sum()), float(li["l_extendedprice"][mask].sum()))]

    def top20(param):
        mask = li["l_partkey"] < param
        price, key = li["l_extendedprice"][mask], li["l_orderkey"][mask]
        order = np.lexsort((key, -price))[:20]
        return [(float(p), int(k)) for p, k in zip(price[order], key[order])]

    def json_count(param):
        return [(int((od["o_custkey"] < param).sum()),)]

    def groupby(param):
        mask = od["o_custkey"] < param
        keys, inverse = np.unique(od["o_orderpriority"][mask], return_inverse=True)
        counts = np.bincount(inverse)
        sums = np.bincount(inverse, weights=od["o_totalprice"][mask])
        return [(int(k), int(n), float(s)) for k, n, s in zip(keys, counts, sums)]

    def join_point(param):
        # orders ⋈ orders_json on the unique order key: each matching JSON
        # order joins exactly its binary twin.
        mask = od["o_custkey"] == param
        return [(int(mask.sum()), float(od["o_totalprice"][mask].sum()))]

    suppliers = rng.choice(np.unique(li["l_suppkey"]), size=PARAMETERS, replace=False)
    customers = rng.choice(np.unique(od["o_custkey"]), size=PARAMETERS, replace=False)
    return [
        ("point",
         "SELECT COUNT(*) AS cnt, SUM(l_extendedprice) AS revenue FROM lineitem "
         "WHERE l_suppkey = ?", [int(s) for s in suppliers], point, False),
        ("top20",
         "SELECT l_extendedprice, l_orderkey FROM lineitem WHERE l_partkey < ? "
         "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 20",
         thresholds(li["l_partkey"]), top20, True),
        ("json_count",
         "SELECT COUNT(*) AS cnt FROM orders_json WHERE o_custkey < ?",
         thresholds(od["o_custkey"]), json_count, False),
        ("groupby",
         "SELECT o_orderpriority, COUNT(*) AS cnt, SUM(o_totalprice) AS total "
         "FROM orders WHERE o_custkey < ? GROUP BY o_orderpriority",
         thresholds(od["o_custkey"]), groupby, False),
        ("join_point",
         "SELECT COUNT(*) AS cnt, SUM(o.o_totalprice) AS total FROM orders o "
         "JOIN orders_json j ON o.o_orderkey = j.o_orderkey WHERE j.o_custkey = ?",
         [int(c) for c in customers], join_point, False),
    ]


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------


class Server:
    """One ``serve_target.py`` process; ``stop()`` returns its statistics."""

    def __init__(self, data_dir: str, trace_path: str | None = None):
        command = [sys.executable, os.path.join(harness.HERE, "serve_target.py"),
                   "--data", data_dir, "--cores", str(harness.usable_cores())]
        if trace_path:
            command += ["--trace", trace_path]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            hello = json.loads(self.process.stdout.readline())
            self.port, self.pid = hello["port"], hello["pid"]
            self._await_health()
        except BaseException:
            self.kill()
            raise

    def _await_health(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            client = Client(self.port)
            try:
                if client.get("/healthz")[0] == 200:
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
            finally:
                client.close()

    def stop(self) -> dict:
        """Ask the server to shut down; returns its end-of-life statistics
        and raises if the process does not end cleanly."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            stats = json.loads(self.process.stdout.readline())
            code = self.process.wait(timeout=60)
        except BaseException:
            self.kill()
            raise
        self._close_pipes()
        if code != 0:
            raise RuntimeError(f"server process exited with {code}")
        return stats

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.process.stdin.close()
        self.process.stdout.close()


# ---------------------------------------------------------------------------
# The load generator
# ---------------------------------------------------------------------------


class Client:
    """One closed-loop client: asks for keep-alive, reconnects when needed."""

    def __init__(self, port: int):
        self.port = port
        self.connections = 0
        self._connection: http.client.HTTPConnection | None = None

    def _request(self, method: str, path: str, body: bytes | None):
        headers = {"Connection": "keep-alive"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        for attempt in range(2):
            reused = self._connection is not None
            if not reused:
                self._connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=60
                )
                self.connections += 1
            try:
                self._connection.request(method, path, body, headers)
                response = self._connection.getresponse()
                payload = response.read()
            except (http.client.HTTPException, ConnectionError):
                # A kept-alive connection the server dropped meanwhile: retry
                # once on a new one.  A fresh connection failing is an error.
                self.close()
                if reused and attempt == 0:
                    continue
                raise
            if response.will_close:
                self.close()
            return response.status, payload
        raise AssertionError("unreachable")

    def post(self, path: str, body: bytes):
        return self._request("POST", path, body)

    def get(self, path: str):
        return self._request("GET", path, None)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class ClientLog:
    """What one client thread saw."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.overheads: list[float] = []
        self.sizes: list[int] = []
        self.attempted = 0
        self.non200 = 0
        self.connections = 0
        self.failures: list[str] = []
        #: First decoded answer per (shape, parameter rank), for the oracle.
        self.first: dict[tuple[int, int], list] = {}
        self.counters: Counter = Counter()

    def record(self, key, status: int, payload: bytes, latency: float) -> None:
        self.attempted += 1
        if status != 200:
            self.non200 += 1
            self.failures.append(f"{key}: HTTP {status}: {payload[:200]!r}")
            return
        body = json.loads(payload)
        rows = list(zip(*(body["data"][name] for name in body["columns"])))
        known = self.first.setdefault(key, rows)
        if rows != known:
            self.failures.append(f"{key}: answer changed between two requests")
            return
        self.latencies.append(latency)
        self.overheads.append(latency - body["execution_seconds"])
        self.sizes.append(len(payload))
        harness.count_execution(self.counters, body["tier"], body["profile"].get)


def _streams(seed: int, clients: int, shapes: int) -> list[list[tuple[int, int]]]:
    weights = 1.0 / np.arange(1, PARAMETERS + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    streams = []
    for index in range(clients):
        rng = np.random.RandomState(rng_seed(seed, 1 + index))
        shape = rng.randint(0, shapes, size=STREAM_LENGTH)
        rank = rng.choice(PARAMETERS, size=STREAM_LENGTH, p=weights)
        streams.append(list(zip(shape.tolist(), rank.tolist())))
    return streams


class LoadGenerator:
    """``clients`` closed-loop threads over pre-drawn request streams; the
    position in each stream carries over from one phase to the next."""

    def __init__(self, port: int, bodies, streams):
        self.port = port
        self.bodies = bodies
        self.streams = streams
        self.positions = [0] * len(streams)

    def run(self, *, requests_each: int | None = None, seconds: float | None = None):
        """Run every client for a request count or a duration; returns the
        per-client logs and the wall time of the phase."""
        logs = [ClientLog() for _ in self.streams]
        barrier = threading.Barrier(len(self.streams) + 1)

        def client_loop(index: int) -> None:
            client = Client(self.port)
            stream, log = self.streams[index], logs[index]
            position = self.positions[index]
            barrier.wait()
            deadline = None if seconds is None else time.perf_counter() + seconds
            sent = 0
            try:
                while (sent < requests_each if deadline is None
                       else time.perf_counter() < deadline):
                    key = stream[position % len(stream)]
                    position += 1
                    sent += 1
                    started = time.perf_counter()
                    try:
                        status, payload = client.post("/v1/query", self.bodies[key])
                    except (OSError, http.client.HTTPException) as exc:
                        log.attempted += 1
                        log.failures.append(f"{key}: {type(exc).__name__}: {exc}")
                        continue
                    log.record(key, status, payload, time.perf_counter() - started)
            finally:
                client.close()
                log.connections = client.connections
                self.positions[index] = position

        threads = [
            threading.Thread(target=client_loop, args=(index,), name=f"e2e-client-{index}")
            for index in range(len(self.streams))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        return logs, time.perf_counter() - started


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """One timed window of HTTP load."""

    log: ClientLog
    #: Its slices, at reference speed.
    slices: list[Slice]
    #: The load generator's share of the CPU the two processes used.
    client_cpu_share: float
    started: float
    ended: float
    #: Median host-speed factor divided out of the slices.
    host_speed: float


def _merge(logs: list[ClientLog]) -> ClientLog:
    merged = ClientLog()
    for log in logs:
        merged.latencies += log.latencies
        merged.overheads += log.overheads
        merged.sizes += log.sizes
        merged.attempted += log.attempted
        merged.non200 += log.non200
        merged.connections += log.connections
        merged.failures += log.failures
        merged.counters.update(log.counters)
    return merged


def run(config: RunConfig) -> Measurement:
    columns = load_reference_columns(config.data_dir)
    shapes = _shapes(columns, np.random.RandomState(rng_seed(config.seed)))
    clients = harness.client_count()
    streams = _streams(config.seed, clients, len(shapes))
    bodies = {
        (shape, rank): json.dumps({"query": sql, "args": [parameters[rank]]}).encode()
        for shape, (_name, sql, parameters, _ref, _ordered) in enumerate(shapes)
        for rank in range(PARAMETERS)
    }

    verified: list[tuple[tuple[int, int], list]] = []
    failures: list[str] = []
    attempted = 0

    def absorb(log: ClientLog) -> None:
        nonlocal attempted
        attempted += log.attempted
        failures.extend(log.failures)
        verified.extend(log.first.items())

    def boot(trace_path: str | None = None):
        """A fresh server: boot until /healthz answers, the first pass (each
        shape once, hottest parameter) and the warm-up requests.  Returns
        the server, its load generator, set-up and first-pass seconds (at
        reference speed) and the last host-speed reading."""
        speed_start = harness.host_speed()
        boot_started = time.perf_counter()
        server = Server(config.data_dir, trace_path)
        try:
            boot_seconds = time.perf_counter() - boot_started
            speed_booted = harness.host_speed()
            first_started = time.perf_counter()
            first_log = ClientLog()
            client = Client(server.port)
            for shape in range(len(shapes)):
                sent = time.perf_counter()
                status, payload = client.post("/v1/query", bodies[(shape, 0)])
                first_log.record((shape, 0), status, payload, time.perf_counter() - sent)
            client.close()
            first_seconds = time.perf_counter() - first_started
            speed_cold = harness.host_speed()
            generator = LoadGenerator(server.port, bodies, streams)
            warm_logs, warm_seconds = generator.run(requests_each=WARMUP_REQUESTS // clients)
            speed_warm = harness.host_speed()
        except BaseException:
            server.kill()
            raise
        for log in [first_log] + warm_logs:
            absorb(log)
        # Boot, first pass, warm-up: each at the mean of the speeds read around it.
        first_seconds /= (speed_booted + speed_cold) / 2.0
        setup_seconds = (boot_seconds / ((speed_start + speed_booted) / 2.0) + first_seconds
                         + warm_seconds / ((speed_cold + speed_warm) / 2.0))
        return server, generator, setup_seconds, first_seconds, speed_warm

    def timed(server: Server, generator: LoadGenerator, seconds: float,
              speed: float) -> Window:
        """One timed window, a slice of load at a time with a host-speed
        reading between slices (the server idles meanwhile)."""
        client_cpu = server_cpu = 0.0
        logs: list[ClientLog] = []
        window_slices: list[Slice] = []
        factors: list[float] = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            cpu_before = harness.cpu_seconds(), harness.cpu_seconds(server.pid)
            slice_logs, wall = generator.run(seconds=SLICE_SECONDS)
            client_cpu += harness.cpu_seconds() - cpu_before[0]
            server_cpu += harness.cpu_seconds(server.pid) - cpu_before[1]
            speed_after = harness.host_speed()
            factor = (speed + speed_after) / 2.0
            speed = speed_after
            factors.append(factor)
            window_slices.append(Slice(
                [latency / factor for log in slice_logs for latency in log.latencies],
                wall / factor,
            ))
            logs += slice_logs
        ended = time.perf_counter()
        for client_log in logs:
            absorb(client_log)
        share = client_cpu / (client_cpu + server_cpu) if client_cpu + server_cpu else 0.0
        return Window(_merge(logs), window_slices, share, started, ended,
                      statistics.median(factors))

    setup: list[float] = []
    first: list[float] = []
    slices: list[Slice] = []
    peak = 0.0
    traced = None
    # ``harness.FRESH_STARTS`` of the fresh servers, evenly spaced, also serve a
    # third of the timed window; the others stop after their warm-up.  The
    # first pass is a quarter of a second, most of it one JSON first touch: its
    # median over three servers spread 22 % over ten seeds, over nine 7-10 %.
    server_starts = config.manifest["sizes"]["server_starts"]
    for start in range(server_starts):
        window_index, boot_only = divmod(start, server_starts // harness.FRESH_STARTS)
        trace_this = config.traced and not boot_only and window_index == harness.TRACED_START
        server, generator, setup_seconds, first_seconds, speed = boot(
            config.trace_path if trace_this else None
        )
        try:
            setup.append(setup_seconds)
            first.append(first_seconds)
            if not boot_only:
                window = timed(server, generator, config.seconds / harness.FRESH_STARTS, speed)
                peak = max(peak, harness.peak_rss_mb(server.pid))
            if trace_this:
                client = Client(server.port)
                scrape_started = time.perf_counter()
                scrape_status, _ = client.get("/metrics")
                scrape_ms = (time.perf_counter() - scrape_started) * 1000.0
                client.close()
                if scrape_status != 200:
                    failures.append(f"GET /metrics answered {scrape_status}")
            stats = server.stop()
        except BaseException:
            server.kill()
            raise
        if stats["threads_left"]:
            failures.append(f"server left threads behind: {stats['threads_left']}")
        if trace_this:
            traced = (window, scrape_ms, stats)
        elif not boot_only:
            slices += window.slices

    # Oracle, outside every timed window: every distinct (shape, parameter)
    # each client saw first, against NumPy on the generated arrays.
    if config.inject_wrong_answer:
        key, rows = verified[0]
        verified[0] = (key, [tuple(0 for _ in row) for row in rows])
    references: dict[tuple[int, int], list] = {}
    for key, rows in verified:
        shape, rank = key
        _name, _sql, parameters, reference, ordered = shapes[shape]
        if key not in references:
            references[key] = reference(parameters[rank])
        if not rows_match(rows, references[key], ordered):
            failures.append(f"{shapes[shape][0]}({parameters[rank]}): answer differs "
                            "from the NumPy reference")

    layers: dict[str, float] = {}
    if traced is not None:
        window, scrape_ms, stats = traced
        traced_log = window.log
        with open(config.trace_path, encoding="utf-8") as handle:
            spans = [span for span in json.load(handle)["spans"]
                     if window.started <= span[2] and span[3] <= window.ended]
        layers = harness.span_layer_metrics(
            spans, len(traced_log.latencies), sum(traced_log.latencies)
        )
        layers.update(harness.counter_layer_metrics(traced_log.counters))
        cache = stats["cache"]
        metrics = stats["metrics"]
        queries = max(harness.counter_total(metrics, "proteus_queries_total"), 1.0)
        layers.update({
            "cache.hit_ratio": cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0,
            "cache.evictions": float(cache["evictions"]),
            "cache.used_mb": stats["cache_used_bytes"] / (1024.0 * 1024.0),
            "cache.coalesced_scans":
                harness.counter_total(metrics, "proteus_scans_coalesced_total"),
            "parallel.morsels_dispatched":
                harness.counter_total(metrics, "proteus_morsels_dispatched_total") / queries,
            "parallel.morsels_stolen":
                harness.counter_total(metrics, "proteus_morsels_stolen_total") / queries,
            "resilience.aborted": harness.counter_total(metrics, "proteus_queries_failed_total"),
            "serve.overhead_ms": harness.median_ms(traced_log.overheads),
            "serve.request_p99_ms": harness.percentile(traced_log.latencies, 99) * 1000.0,
            "serve.within_50ms_share":
                sum(latency <= 0.050 for latency in traced_log.latencies)
                / max(traced_log.attempted, 1),
            "serve.connections_per_request":
                traced_log.connections / max(traced_log.attempted, 1),
            "serve.response_bytes_p50": float(statistics.median(traced_log.sizes or [0])),
            "serve.non200": float(traced_log.non200),
            "obs.metrics_scrape_ms": scrape_ms,
            "obs.trace_overhead_ratio": harness.trace_overhead_ratio(window.slices, slices),
            "bench.client_cpu_share": window.client_cpu_share,
            "bench.timed_samples": float(len(traced_log.latencies)),
            "bench.host_speed": window.host_speed,
        })
    return Measurement(
        setup_s=setup, first_pass_s=first, slices=slices, attempted=attempted,
        failures=failures, peak_rss_mb=peak, layers=layers,
        notes={"clients": clients, "shapes": len(shapes), "parameters": PARAMETERS,
               "verified_answers": len(references),
               "client_cpu_share": round(window.client_cpu_share, 4)},
    )
