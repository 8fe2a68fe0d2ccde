"""The span coverage tables of the physical operators.

The batch pipeline has no instrumentation objects of its own: in a traced
run the execution gives every stage and scan its span accumulator as its
program's steps open them, ``CompiledPipeline.process`` times each stage per
batch and the ``ScanOperator`` metering loop feeds the scan's span per
stream — traced and untraced runs apply the same stage objects.  The Volcano interpreter wraps
its own iterators.

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
    "PhysScan": "ScanOperator's metering loop, cached streams included "
                "(batch pipeline); iterator wrapper (volcano)",
    "PhysSelect": "CompiledPipeline.process times the SelectStage, lazy "
                  "field fetches included (batch pipeline); iterator "
                  "wrapper (volcano)",
    "PhysUnnest": "CompiledPipeline.process times the UnnestStage (batch "
                  "pipeline); iterator wrapper (volcano)",
    "PhysHashJoin": "CompiledPipeline.process times the HashJoinStage, or "
                    "of a per-key chain the SlotStage, plus the key products "
                    "on the chain's root (batch pipeline); iterator wrapper "
                    "(volcano)",
    "PhysNestedLoopJoin": "CompiledPipeline.process times the "
                          "NestedLoopJoinStage (batch pipeline); iterator "
                          "wrapper (volcano)",
    "PhysReduce": "engine-side root span around the executor's reduce",
    "PhysNest": "engine-side root span around the executor's grouping",
    "PhysSort": "engine-side sort span around the columnar epilogue, "
                "every tier",
}

#: Operators deliberately left without spans, with the reason why.
SPAN_EXEMPT_OPERATORS: dict[str, str] = {}
