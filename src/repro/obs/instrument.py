"""The span coverage tables of the physical operators.

The batch pipeline has no instrumentation objects of its own: in a traced
run the execution hands each generated driver the span accumulator of
every operator it runs, and the driver's one hook
(:func:`~repro.core.executor.vectorized.span_batch`) times each operator per
batch; the scan's batch stream feeds the scan's span per stream.  Traced
and untraced runs run the same driver.  The Volcano interpreter wraps its
own iterators.

``SPAN_INSTRUMENTED_OPERATORS`` / ``SPAN_EXEMPT_OPERATORS`` are the
declarative coverage tables ``tools/tier_lint.py`` checks: every ``Phys*``
operator must either be span-instrumented (with a note saying where) or
explicitly exempted.
"""

from __future__ import annotations

#: Where each physical operator's span comes from, per executor.  Checked by
#: ``tools/tier_lint.py``: a ``Phys*`` class missing from both this table and
#: ``SPAN_EXEMPT_OPERATORS`` fails the lint.
SPAN_INSTRUMENTED_OPERATORS: dict[str, str] = {
    "PhysScan": "the scan's batch stream, cached streams included (batch "
                "pipeline); iterator wrapper (volcano)",
    "PhysSelect": "the driver's hook, lazy field fetches included (batch "
                  "pipeline); iterator wrapper (volcano)",
    "PhysUnnest": "the driver's hook (batch pipeline); iterator wrapper (volcano)",
    "PhysHashJoin": "the driver's hook on the probe, or on a per-key chain's "
                    "slot reduction, plus the key products on the chain's "
                    "root (batch pipeline); iterator wrapper (volcano)",
    "PhysNestedLoopJoin": "the driver's hook (batch pipeline); iterator "
                          "wrapper (volcano)",
    "PhysReduce": "engine-side root span around the executor's reduce",
    "PhysNest": "engine-side root span around the executor's grouping",
    "PhysSort": "engine-side sort span around the columnar epilogue, "
                "every tier",
}

#: Operators deliberately left without spans, with the reason why.
SPAN_EXEMPT_OPERATORS: dict[str, str] = {}
