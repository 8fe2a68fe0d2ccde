"""Query observability: span tracing, EXPLAIN ANALYZE, metrics registry.

Three faces over one subsystem, plus its coverage inventory:

* :mod:`repro.obs.trace` — pay-for-what-you-use span tracing of query
  phases and physical operators, with a bounded ring buffer of recent
  :class:`QueryTrace` exports on the engine (``engine.tracer``),
* :mod:`repro.obs.explain` — the ``explain(analyze=True)`` report comparing
  the static analyzer's predictions against measured spans,
* :mod:`repro.obs.metrics` — the engine-wide :class:`MetricsRegistry`
  (``engine.metrics``) with JSON and Prometheus text exposition,
* :mod:`repro.obs.instrument` — where each physical operator's span comes
  from (or why it has none), the tables ``tools/tier_lint.py`` checks.
"""

from repro.obs.instrument import SPAN_EXEMPT_OPERATORS, SPAN_INSTRUMENTED_OPERATORS

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    QueryTrace,
    Span,
    SpanAccumulator,
    TraceBuilder,
    Tracer,
)

__all__ = [
    "SPAN_EXEMPT_OPERATORS",
    "SPAN_INSTRUMENTED_OPERATORS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
    "SpanAccumulator",
    "TraceBuilder",
    "Tracer",
]
