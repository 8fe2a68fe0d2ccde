"""Engine-wide metrics registry: counters, gauges, histograms.

The registry is the scrape surface the upcoming query service will mount
(ROADMAP item 1): thread-safe, labeled counters/gauges/histograms with JSON
(``to_dict()``) and Prometheus text (``render_prometheus()``) exposition,
plus a bounded slow-query log that captures the active trace when one is
being recorded.

Gauges may be *callback-backed*: the engine registers closures over live
state (cache statistics, per-plugin scan counters) so every scrape reads the
current value without the hot path ever touching the registry.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Any, Callable, Mapping

from repro.core.concurrency import make_lock

#: Exact content type of the Prometheus text exposition format (v0.0.4).
#: Scrapers reject ``text/html`` or a bare ``text/plain`` without the
#: version parameter, so anything mounting :meth:`MetricsRegistry.
#: render_prometheus` over HTTP (``GET /metrics`` in ``repro.serve``) must
#: answer with this string verbatim.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Latency buckets (seconds) of the default query-duration histogram —
#: sub-millisecond cache hits up to multi-second cold scans.
DEFAULT_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Bounded length of the slow-query log.
SLOW_QUERY_LOG_CAPACITY = 64

LabelValues = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelValues:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelValues) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in labels)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing, optionally labeled metric."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: dict[LabelValues, float] = {}
        self._lock = make_lock("Counter._lock")

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(_label_key(labels), amount)

    def labeled(self, **labels: str) -> Callable[..., None]:
        """The ``inc`` of one labelled series, its label key built once: a
        hot path binds it ahead and pays one locked add per call.  Binding
        exports nothing — a series appears with its first increment."""
        return functools.partial(self._add, _label_key(labels))

    def _add(self, key: LabelValues, amount: float = 1.0) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[LabelValues, float]]:
        with self._lock:
            return sorted(self._values.items())

    def to_dict(self) -> dict[str, Any]:
        samples = self.samples()
        if len(samples) == 1 and not samples[0][0]:
            return {"type": self.kind, "value": samples[0][1]}
        return {
            "type": self.kind,
            "values": {
                "{" + ",".join(f"{k}={v}" for k, v in labels) + "}": value
                for labels, value in samples
            },
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help_text}", f"# TYPE {self.name} {self.kind}"]
        samples = self.samples() or [((), 0.0)]
        for labels, value in samples:
            lines.append(f"{self.name}{_render_labels(labels)} {_format_value(value)}")
        return lines


class Gauge(Counter):
    """A metric that can go up and down; optionally backed by a callback.

    A callback gauge reads its value(s) at scrape time from a closure that
    returns either a scalar or a ``{label-value: scalar}`` mapping keyed by
    ``callback_label``.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        callback: Callable[[], float | Mapping[str, float]] | None = None,
        callback_label: str = "source",
    ) -> None:
        super().__init__(name, help_text)
        self._callback = callback
        self._callback_label = callback_label

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def samples(self) -> list[tuple[LabelValues, float]]:
        if self._callback is not None:
            result = self._callback()
            if isinstance(result, Mapping):
                return sorted(
                    (((self._callback_label, str(label)),), float(value))
                    for label, value in result.items()
                )
            return [((), float(result))]
        return super().samples()


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = make_lock("Histogram._lock")

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, sum_ = self._count, self._sum
        cumulative: dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.buckets, counts):
            running += bucket_count
            cumulative[str(bound)] = running
        cumulative["+Inf"] = total
        return {
            "type": self.kind,
            "count": total,
            "sum": sum_,
            "buckets": cumulative,
        }

    def render(self) -> list[str]:
        data = self.to_dict()
        lines = [f"# HELP {self.name} {self.help_text}", f"# TYPE {self.name} {self.kind}"]
        for bound, running in data["buckets"].items():
            lines.append(f'{self.name}_bucket{{le="{bound}"}} {running}')
        lines.append(f"{self.name}_sum {_format_value(data['sum'])}")
        lines.append(f"{self.name}_count {data['count']}")
        return lines


class MetricsRegistry:
    """Thread-safe registry of the engine's metrics.

    ``enabled`` gates the engine's *recording* (the registry itself always
    answers scrapes); disabling it reduces the per-query metrics cost to one
    attribute check.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._slow_queries: deque[dict[str, Any]] = deque(
            maxlen=SLOW_QUERY_LOG_CAPACITY
        )
        self._lock = make_lock("MetricsRegistry._lock")

    # -- registration ----------------------------------------------------------

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help_text), Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help_text), Gauge)

    def gauge_callback(
        self,
        name: str,
        callback: Callable[[], float | Mapping[str, float]],
        help_text: str = "",
        callback_label: str = "source",
    ) -> Gauge:
        return self._get_or_create(
            name,
            lambda: Gauge(name, help_text, callback=callback, callback_label=callback_label),
            Gauge,
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets), Histogram
        )

    def _get_or_create(
        self, name: str, factory: Callable[[], Any], expected: type
    ) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, expected):
                raise ValueError(
                    f"metric {name!r} already registered as {type(metric).__name__}"
                )
            return metric

    # -- slow-query log --------------------------------------------------------

    def record_slow_query(self, entry: Mapping[str, Any]) -> None:
        with self._lock:
            self._slow_queries.append(dict(entry))

    def slow_queries(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._slow_queries)

    # -- exposition ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            metrics = dict(self._metrics)
            slow = list(self._slow_queries)
        out: dict[str, Any] = {
            name: metric.to_dict() for name, metric in sorted(metrics.items())
        }
        out["slow_queries"] = slow
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4).

        Wire contract (regression-tested; scrapers are strict about both):
        the exposition ends with exactly one newline after the last sample
        line, and an empty registry renders as the empty string rather than
        a lone blank line.  Serve it with :data:`PROMETHEUS_CONTENT_TYPE`.
        """
        with self._lock:
            metrics = dict(self._metrics)
        lines: list[str] = []
        for _, metric in sorted(metrics.items()):
            lines.extend(metric.render())
        if not lines:
            return ""
        return "\n".join(lines) + "\n"
