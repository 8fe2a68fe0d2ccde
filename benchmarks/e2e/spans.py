"""Benchmark-side spans around the program's layer boundaries.

The end-to-end numbers are measured with nothing installed.  A traced run
calls :func:`install`, which replaces the layer-boundary functions named in
``TARGETS`` with wrappers that record one span per call — name, start, end,
the span that caused it and the id of the operation (one query or one HTTP
request) it belongs to.  Spans stay in memory until :meth:`Recorder.dump`.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover (:func:`self_seconds_by_name`).  The engine's own
``enable_tracing`` stays off; these wrappers live entirely in the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (module, class or None, attribute, span name).  Module-level functions are
#: re-bound in every loaded ``repro`` module that imported them by name.
TARGETS = [
    ("repro.core.sql_parser", None, "parse_sql", "frontend.parse"),
    ("repro.core.comprehension_parser", None, "parse_comprehension", "frontend.parse"),
    ("repro.core.binder", None, "bind_comprehension", "frontend.bind"),
    ("repro.core.normalizer", None, "normalize", "frontend.normalize"),
    ("repro.core.translator", None, "translate", "frontend.translate"),
    ("repro.core.optimizer.planner", "Planner", "plan", "optimizer.plan"),
    ("repro.core.analysis", None, "analyze_schema", "analysis.analyze"),
    ("repro.core.analysis", None, "tier_verdicts", "analysis.analyze"),
    ("repro.core.engine", "ProteusEngine", "query", "engine.query"),
    ("repro.core.engine", "ProteusEngine", "prepare", "engine.prepare"),
    ("repro.core.engine", "PreparedQuery", "execute", "engine.execute"),
    ("repro.core.engine", "ResultSet", "rows", "engine.materialize"),
    ("repro.core.engine", "ResultSet", "column", "engine.materialize"),
    ("repro.core.engine", "ResultSet", "column_array", "engine.materialize"),
    ("repro.core.codegen.generator", "CodeGenerator", "generate", "codegen.generate"),
    ("repro.core.codegen.compiler", "GeneratedQuery", "__call__", "codegen.run"),
    ("repro.core.executor.vectorized", "VectorizedExecutor", "execute", "executor.vectorized"),
    ("repro.core.parallel", "ParallelVectorizedExecutor", "execute", "parallel.exec"),
    ("repro.core.executor.volcano", "VolcanoExecutor", "execute", "executor.volcano"),
    ("repro.core.sort", None, "sort_columns", "sort.sort"),
    ("repro.storage.structural_index", None, "build_json_index", "index.json_build"),
    ("repro.storage.structural_index", None, "build_csv_index", "index.csv_build"),
    ("repro.caching.manager", "CacheManager", "store", "cache.store"),
    ("repro.serve.server", "_Handler", "do_POST", "serve.request"),
] + [
    (module, cls, method, span)
    for module, cls, span in [
        ("repro.plugins.json_plugin", "JsonPlugin", "plugins.json.scan"),
        ("repro.plugins.csv_plugin", "CsvPlugin", "plugins.csv.scan"),
        ("repro.plugins.binary_col_plugin", "BinaryColumnPlugin", "plugins.binary_col.scan"),
        ("repro.plugins.cache_plugin", "CachePlugin", "plugins.cache.scan"),
    ]
    for method in ("scan_columns", "scan_columns_at", "scan_batches",
                   "scan_unnest", "scan_unnest_batch")
]

#: Spans that start an operation when nothing is open on their thread.
_ROOTS = frozenset({"engine.query", "engine.prepare", "engine.execute", "serve.request"})
#: The span worker-pool threads hang their spans under.
_FANOUT = "parallel.exec"
_WORKER_PREFIX = "proteus-worker-"

FIELDS = ("id", "name", "start", "end", "parent", "op", "thread")


class Recorder:
    """In-memory span store; one per traced window."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        #: The most recently opened, still open fan-out span.
        self._fanout: list | None = None

    def open(self, name: str) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.op = 0
        parent = 0
        if stack:
            parent, op = stack[-1][0], stack[-1][5]
        elif name in _ROOTS:
            op = local.op = next(self._ops)
        else:
            thread = threading.current_thread().name
            fanout = self._fanout
            if fanout is not None and thread.startswith(_WORKER_PREFIX):
                parent, op = fanout[0], fanout[5]
            else:
                # A caller pulling the result after the query returned, or
                # work outside any query (statistics at registration).
                op = local.op
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent, op,
                threading.current_thread().name]
        stack.append(span)
        if name == _FANOUT:
            self._fanout = span
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._local.stack.pop()
        if span is self._fanout:
            self._fanout = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans}, handle)


def _traced_iterator(recorder: Recorder, name: str, iterator):
    """Time each ``next()`` of a generator-returning layer function: the
    time between two yields belongs to the consumer, not to the layer."""
    try:
        while True:
            span = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.close(span)
            yield item
    finally:
        iterator.close()


def _wrap(recorder: Recorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if inspect.isgenerator(result):
            return _traced_iterator(recorder, name, result)
        return result

    return wrapper


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo: list[tuple] = []
    for module_name, class_name, attribute, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            original = inspect.getattr_static(owner, attribute)
            if isinstance(original, property):
                wrapped = property(_wrap(recorder, span_name, original.fget))
            else:
                # getattr: a method inherited from a base class is wrapped on
                # the subclass only, so each plug-in keeps its own span name.
                wrapped = _wrap(recorder, span_name, getattr(owner, attribute))
            had_own = attribute in vars(owner)
            setattr(owner, attribute, wrapped)
            undo.append((owner, attribute, original if had_own else None))
            continue
        original = getattr(module, attribute)
        wrapped = _wrap(recorder, span_name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            if vars(loaded).get(attribute) is original:
                setattr(loaded, attribute, wrapped)
                undo.append((loaded, attribute, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attribute, original in reversed(undo):
        if original is None:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


def self_seconds(spans: list[list]) -> dict[int, float]:
    """Self time of every span, by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4]:
            children[span[4]].append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2]) - _covered(children.get(span[0], []), span[2], span[3])
        for span in spans
    }


def self_seconds_by_name(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name."""
    by_id = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += by_id[span[0]]
    return dict(totals)


def count_by_name(spans: list[list]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[1]] += 1
    return dict(counts)
