"""Measurement helpers shared by the four workloads.

Everything here observes the program from outside: wall-clock around public
calls, counters the program already exposes (``ResultSet.tier/.profile``,
``engine.cache_stats``), ``/proc`` for memory and CPU.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import math
import os
import pickle
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import spans as span_tools

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: Fresh engines / servers built per run.  ``setup_s`` and ``first_pass_s`` are
#: medians over them, and each serves a third of the timed window.
FRESH_STARTS = 3
#: The start whose window is traced on a ``--trace 1`` run; the windows of
#: the other starts are the overhead baseline.
TRACED_START = 1


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def client_count() -> int:
    """Closed-loop clients of the serving workload: one process generates the
    load, so more clients than cores would only measure the generator."""
    return min(usable_cores(), 4)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set of a process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU time a process has consumed so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may contain spaces; fields are counted after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: What ``reference_kernel()`` takes on the reference box at its usual speed.
#: Only a scale: it makes the reported times read as that box's milliseconds.
REFERENCE_KERNEL_SECONDS = 0.023

_KERNEL_KEYS = np.random.RandomState(0).randint(0, 10_000, size=200_000)
_KERNEL_WEIGHTS = np.random.RandomState(1).uniform(size=200_000)


def reference_kernel() -> float:
    """Seconds a fixed piece of work takes right now: an interpreter loop, a
    NumPy sort and scatter-add, a burst of small allocations — the mix the
    engine's own time is made of, and none of the engine's code."""
    started = time.perf_counter()
    total = 0
    for value in range(60_000):
        total += value * value
    np.argsort(_KERNEL_KEYS, kind="stable")
    np.bincount(_KERNEL_KEYS, weights=_KERNEL_WEIGHTS)
    _ = [(value, float(value)) for value in range(20_000)]
    return time.perf_counter() - started


def host_speed() -> float:
    """How much slower than the reference the host runs right now (1.0 = the
    reference box at its usual speed).

    The sandbox switches between two speeds ~25 % apart every few seconds,
    whatever the VM itself does; a run that happens to fall into the fast one
    reads 20 % better than its neighbour.  The workloads therefore run this
    kernel at every slice boundary and report each slice's times divided by
    the mean of the two readings around it: times at reference speed, which
    compare between runs.  ``bench.host_speed`` reports the factor that was
    divided out.
    """
    return reference_kernel() / REFERENCE_KERNEL_SECONDS


@dataclass(frozen=True)
class RunConfig:
    """What ``run.py`` hands to a workload's ``run(config)``."""

    data_dir: str
    manifest: dict
    seed: int
    seconds: float
    traced: bool
    trace_path: str
    #: Self-test hook: corrupt one collected answer before the oracle sees it.
    inject_wrong_answer: bool


@dataclass
class Slice:
    """One part of the timed window — a pass over the query list, a pair of
    arrivals, a second of HTTP load: the latencies of its correct operations
    and its wall time, both at reference speed (see :func:`host_speed`)."""

    latencies: list[float]
    wall_s: float


def over_slices(slices: list[Slice], statistic) -> float:
    """Median over the slices of ``statistic(slice)``: latency and throughput
    are computed inside each slice and the median is reported, so a burst of
    outside noise that hits one slice does not move them."""
    return statistics.median(statistic(piece) for piece in slices if piece.latencies)


def slice_p50(piece: Slice) -> float:
    return percentile(piece.latencies, 50)


def slice_p90(piece: Slice) -> float:
    return percentile(piece.latencies, 90)


def slice_rate(piece: Slice) -> float:
    return len(piece.latencies) / piece.wall_s


@dataclass
class Measurement:
    """What one workload run hands back to ``run.py``."""

    setup_s: list[float]
    first_pass_s: list[float]
    slices: list[Slice]
    attempted: int
    failures: list[str]
    peak_rss_mb: float
    #: Per-layer metrics; filled on traced runs only.
    layers: dict[str, float] = field(default_factory=dict)
    #: Sizes and sample counts, printed and stamped into the results file.
    notes: dict = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "first_pass_s": statistics.median(self.first_pass_s),
            "query_p50_ms": over_slices(self.slices, slice_p50) * 1000.0,
            "query_p90_ms": over_slices(self.slices, slice_p90) * 1000.0,
            "queries_per_s": over_slices(self.slices, slice_rate),
            "peak_rss_mb": self.peak_rss_mb,
        }

    @property
    def timed_samples(self) -> int:
        return sum(len(piece.latencies) for piece in self.slices)


# ---------------------------------------------------------------------------
# In-process operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One query the in-process workloads send: a stable key (which the
    oracle's references are stored under), the text and its parameters."""

    key: str
    text: str
    args: tuple = ()
    #: Reporting class (Symantec phase, OLAP query class, feed step).
    group: str = ""


class OpLog:
    """Latencies, failures and profile counters of a run of operations."""

    def __init__(self) -> None:
        #: Latencies of the closed slices, at reference speed.
        self.latencies: list[float] = []
        self.slices: list[Slice] = []
        self.speeds: list[float] = []
        self.by_group: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.counters: Counter = Counter()
        self.gc_seconds = 0.0
        #: Unscaled seconds spent in the operations of the closed slices.
        self.raw_seconds = 0.0
        #: ``(group, raw seconds)`` of the operations since the last cut.
        self._open: list[tuple[str, float]] = []

    def run(self, engine, op: Op, expect_rows: int | None = None):
        """Execute ``op`` as a caller would — the query plus pulling every
        row — and return the rows (``None`` when it raised)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = engine.query(op.text, *op.args)
            rows = result.rows
        except Exception:  # noqa: BLE001 - a raising operation is a counted failure
            self.failures.append(f"{op.key} raised: {traceback.format_exc(limit=3)}")
            return None
        elapsed = time.perf_counter() - started
        if expect_rows is not None and len(rows) != expect_rows:
            self.failures.append(
                f"{op.key} returned {len(rows)} rows, verified answer has {expect_rows}"
            )
            return rows
        self._open.append((op.group, elapsed))
        profile = result.profile
        count_execution(self.counters, result.tier,
                        lambda name, default: getattr(profile, name, default))
        return rows

    def cut(self, speed_before: float) -> tuple[list[tuple[str, float]], float]:
        """Close a slice: the operations logged since the previous cut.

        First a full garbage collection, outside every timed region.  When an
        automatic full collection starts depends on allocation counts, not on
        the query that happens to trip it, and with the heaps these workloads
        retain one costs tens of milliseconds: left alone they make single
        latencies vary 2x between identical passes.  Collecting at slice
        boundaries keeps them rare inside timed operations; what the
        collections cost is reported as ``bench.gc_collect_ms``.

        Then the host speed is read again; the slice's latencies are divided
        by the mean of ``speed_before`` and this reading.  Returns the
        slice's ``(group, seconds)`` pairs and the new reading, which is the
        next slice's ``speed_before``.
        """
        started = time.perf_counter()
        gc.collect()
        self.gc_seconds += time.perf_counter() - started
        speed_after = host_speed()
        speed = (speed_before + speed_after) / 2.0
        closed = [(group, raw / speed) for group, raw in self._open]
        self.raw_seconds += sum(raw for _group, raw in self._open)
        self._open = []
        latencies = [seconds for _group, seconds in closed]
        self.latencies += latencies
        for group, seconds in closed:
            self.by_group.setdefault(group, []).append(seconds)
        self.slices.append(Slice(latencies, sum(latencies)))
        self.speeds.append(speed)
        return closed, speed_after


def count_execution(counters: Counter, tier: str, profile_field) -> None:
    """Add one execution's tier and profile counters to ``counters``.
    ``profile_field(name, default)`` reads an ``ExecutionProfile`` field — off
    the object in process, off the response's ``profile`` dict over HTTP
    (which carries a subset)."""
    counters["ops"] += 1
    counters["tier:" + tier] += 1
    if tier == "codegen":
        counters["compiled_from_cache"] += bool(profile_field("compiled_from_cache", False))
    counters["runtime_demotions"] += sum(
        "TIER009" in reason for reason in profile_field("tier_decline_reasons", {}).values()
    )
    for name in ("values_extracted", "values_from_cache", "rows_sorted",
                 "morsels_dispatched", "morsels_stolen", "io_retries"):
        counters[name] += profile_field(name, 0)


class Answers:
    """Answers kept for the oracle.  They are pickled: a hundred result lists
    held as live tuples would be walked by every full garbage collection
    inside the timed window, and would count towards ``peak_rss_mb``."""

    def __init__(self) -> None:
        self._kept: list[tuple[str, bytes]] = []
        #: Row count per key, checked on every timed operation.
        self.row_counts: dict[str, int] = {}

    def add(self, key: str, rows: list | None) -> None:
        if rows is not None:
            self._kept.append((key, pickle.dumps(rows)))
            self.row_counts[key] = len(rows)

    def __len__(self) -> int:
        return len(self._kept)

    def mismatches(self, reference_for, matches, inject_wrong_answer: bool) -> list[str]:
        """Failure messages for every kept answer ``matches(rows, reference)``
        rejects.  ``inject_wrong_answer`` is the self-test hook: the first
        answer is replaced by rows no reference can equal."""
        failures = []
        for index, (key, blob) in enumerate(self._kept):
            rows = pickle.loads(blob)
            if inject_wrong_answer and index == 0:
                rows = [("wrong",)] + [tuple(0 for _ in row) for row in rows]
            if not matches(rows, reference_for(key)):
                failures.append(f"{key}: answer differs from the reference")
        return failures


def timed_passes(engine, ops: list[Op], seconds: float, log: OpLog,
                 expect_rows: dict[str, int], passes_per_slice: int = 1) -> None:
    """Whole passes over ``ops`` until ``seconds`` have gone by, so every
    slice times the same mix; one slice per ``passes_per_slice`` passes."""
    started = time.perf_counter()
    speed = host_speed()
    while True:
        for _ in range(passes_per_slice):
            for op in ops:
                log.run(engine, op, expect_rows.get(op.key))
        _, speed = log.cut(speed)
        if time.perf_counter() - started >= seconds:
            return


@contextlib.contextmanager
def tracing(enabled: bool, trace_path: str):
    """Span wrappers installed for the duration of the block; yields the
    recorder (``None`` when not ``enabled``) and writes the spans to
    ``trace_path`` at the end."""
    if not enabled:
        yield None
        return
    recorder = span_tools.Recorder()
    undo = span_tools.install(recorder)
    try:
        yield recorder
    finally:
        span_tools.uninstall(undo)
        recorder.dump(trace_path)


@dataclass
class EngineRun:
    """What :func:`run_engine_starts` measured."""

    setup_s: list[float] = field(default_factory=list)
    first_pass_s: list[float] = field(default_factory=list)
    #: Slices of the untraced timed windows.
    slices: list[Slice] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    answers: Answers = field(default_factory=Answers)
    peak_rss_mb: float = 0.0
    #: Traced runs only: the traced window's log and the layer metrics.
    traced_log: OpLog | None = None
    layers: dict[str, float] = field(default_factory=dict)


def run_engine_starts(config: RunConfig, make_engine, ops: list[Op],
                      raw_datasets: list[str], passes_per_slice: int = 1) -> EngineRun:
    """The shape of the in-process workloads with a fixed query list.

    ``FRESH_STARTS`` times: build an engine (construction + registration),
    run the first pass over ``ops`` (cold parse, index build, plan, codegen),
    one warm-up pass (plans switch to cached access paths and those shapes
    compile too), then a third of the timed window as whole warm passes.
    Spreading the window over the starts samples three stretches of wall
    time and three engine instances instead of one.

    On a traced run the window of start ``TRACED_START`` runs with the span
    wrappers installed and yields the layer metrics; the other two are the
    overhead baseline.  Cold and warm answers of every start are kept for
    the oracle.
    """
    run = EngineRun()
    for index in range(FRESH_STARTS):
        traced = config.traced and index == TRACED_START
        warm = OpLog()
        gc.collect()
        speed = host_speed()
        started = time.perf_counter()
        engine = make_engine()
        registered = time.perf_counter() - started
        for op in ops:
            run.answers.add(op.key, warm.run(engine, op))
        _, speed = warm.cut(speed)
        registered /= warm.speeds[-1]
        for op in ops:
            run.answers.add(op.key, warm.run(engine, op))
        warm.cut(speed)
        first_pass, warm_up = warm.slices
        run.setup_s.append(registered + first_pass.wall_s + warm_up.wall_s)
        run.first_pass_s.append(first_pass.wall_s)

        cache_before = snapshot_cache(engine)
        log = OpLog()
        with tracing(traced, config.trace_path) as recorder:
            timed_passes(engine, ops, config.seconds / FRESH_STARTS, log,
                         run.answers.row_counts, passes_per_slice)
        if traced:
            run.traced_log = log
            run.layers = in_process_layers(
                engine, log, recorder.spans, cache_before, raw_datasets
            )
        else:
            run.slices += log.slices
        run.attempted += warm.attempted + log.attempted
        run.failures += warm.failures + log.failures
        del engine
    if run.traced_log is not None:
        run.layers["obs.trace_overhead_ratio"] = trace_overhead_ratio(
            run.traced_log.slices, run.slices
        )
    run.peak_rss_mb = peak_rss_mb()
    return run


def trace_overhead_ratio(traced: list[Slice], plain: list[Slice]) -> float:
    return over_slices(traced, slice_p50) / over_slices(plain, slice_p50)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Layer metric -> the span names whose self time it sums.
SPAN_METRICS = {
    "frontend.prepare_ms": ("frontend.parse", "frontend.bind", "frontend.normalize",
                            "frontend.translate"),
    "optimizer.plan_ms": ("optimizer.plan",),
    "analysis.analyze_ms": ("analysis.analyze",),
    "engine.dispatch_self_ms": ("engine.query", "engine.prepare", "engine.execute"),
    "engine.materialize_ms": ("engine.materialize",),
    "codegen.generate_ms": ("codegen.generate",),
    "codegen.run_ms": ("codegen.run",),
    "executor.vectorized_ms": ("executor.vectorized",),
    "parallel.exec_ms": ("parallel.exec",),
    "executor.volcano_ms": ("executor.volcano",),
    "sort.sort_ms": ("sort.sort",),
    "plugins.json.scan_ms": ("plugins.json.scan",),
    "plugins.csv.scan_ms": ("plugins.csv.scan",),
    "plugins.binary_col.scan_ms": ("plugins.binary_col.scan",),
    "plugins.cache.scan_ms": ("plugins.cache.scan",),
    "index.json_build_ms": ("index.json_build",),
    "index.csv_build_ms": ("index.csv_build",),
    "cache.store_ms": ("cache.store",),
}

_RAW_ACCESS = ("index.json_build", "index.csv_build", "plugins.json.scan", "plugins.csv.scan")
_EXECUTION = ("codegen.run", "executor.vectorized", "parallel.exec", "executor.volcano",
              "sort.sort")


def span_layer_metrics(spans: list[list], operations: int, busy_seconds: float) -> dict:
    """Self time per layer, per operation, plus the two shares the workloads
    are designed around: raw access (index + JSON/CSV parse) and execution
    (executors + generated code + sort) over the busy time of the window."""
    self_by_name = span_tools.self_seconds_by_name(spans)
    counts = span_tools.count_by_name(spans)

    def self_seconds(names) -> float:
        return sum(self_by_name.get(name, 0.0) for name in names)

    per_op = 1000.0 / max(operations, 1)
    metrics = {metric: self_seconds(names) * per_op for metric, names in SPAN_METRICS.items()}
    busy = max(busy_seconds, 1e-9)
    metrics["layers.raw_access_share"] = self_seconds(_RAW_ACCESS) / busy
    metrics["layers.execution_share"] = self_seconds(_EXECUTION) / busy
    started = counts.get("engine.query", 0) + counts.get("serve.request", 0)
    if not started:
        started = counts.get("engine.execute", 0)
    metrics["engine.prepared_cache_hit_ratio"] = (
        1.0 - counts.get("engine.prepare", 0) / started if started else 0.0
    )
    return metrics


def counter_layer_metrics(counters: Counter) -> dict:
    """Layer metrics read off ``ResultSet.tier`` / ``.profile``, averaged
    per operation so whole passes repeat exactly."""
    ops = max(counters["ops"], 1)
    codegen_ops = counters["tier:codegen"]
    return {
        "tier.codegen_share": codegen_ops / ops,
        "tier.parallel_share": counters["tier:vectorized-parallel"] / ops,
        "tier.vectorized_share": counters["tier:vectorized"] / ops,
        "tier.volcano_share": counters["tier:volcano"] / ops,
        "tier.runtime_demotions": counters["runtime_demotions"] / ops,
        "codegen.compiled_cache_hit_ratio": (
            counters["compiled_from_cache"] / codegen_ops if codegen_ops else 0.0
        ),
        "parallel.morsels_dispatched": counters["morsels_dispatched"] / ops,
        "parallel.morsels_stolen": counters["morsels_stolen"] / ops,
        "sort.rows_sorted": counters["rows_sorted"] / ops,
        "plugins.values_extracted": counters["values_extracted"] / ops,
        "plugins.values_from_cache": counters["values_from_cache"] / ops,
        "resilience.io_retries": counters["io_retries"] / ops,
    }


def cache_layer_metrics(before, after, used_bytes: int) -> dict:
    """Cache layer over a window, from two ``CacheStatistics`` snapshots."""
    lookups = after.lookups - before.lookups
    return {
        "cache.hit_ratio": (after.hits - before.hits) / lookups if lookups else 0.0,
        "cache.evictions": float(after.evictions - before.evictions),
        "cache.used_mb": used_bytes / (1024.0 * 1024.0),
    }


def index_bytes_per_raw_byte(engine, datasets: list[str]) -> float:
    size = raw = 0
    for name in datasets:
        info = engine.structural_index_info(name)
        size += info["size_bytes"]
        raw += info["file_bytes"]
    return size / raw if raw else 0.0


def counter_total(metrics: dict, name: str) -> float:
    """A counter of ``engine.metrics.to_dict()``, summed over its labels."""
    metric = metrics.get(name, {})
    return float(metric.get("value", 0.0) + sum(metric.get("values", {}).values()))


def in_process_layers(engine, traced_log: OpLog, spans: list[list], cache_before,
                      raw_datasets: list[str]) -> dict:
    """Every layer metric an in-process workload can observe: span self
    times of the traced window, the profile counters of its operations and
    the engine's own counters."""
    layers = span_layer_metrics(spans, len(traced_log.latencies), traced_log.raw_seconds)
    layers.update(counter_layer_metrics(traced_log.counters))
    layers.update(cache_layer_metrics(
        cache_before, snapshot_cache(engine), engine.cache_manager.used_bytes
    ))
    layers["index.bytes_per_raw_byte"] = index_bytes_per_raw_byte(engine, raw_datasets)
    layers["resilience.aborted"] = counter_total(
        engine.metrics.to_dict(), "proteus_queries_failed_total"
    )
    layers["bench.timed_samples"] = float(len(traced_log.latencies))
    layers["bench.gc_collect_ms"] = traced_log.gc_seconds * 1000.0 / len(traced_log.slices)
    layers["bench.host_speed"] = statistics.median(traced_log.speeds)
    return layers


def snapshot_cache(engine):
    """A copy of the engine's cache statistics (the live object mutates)."""
    return copy.copy(engine.cache_stats)
