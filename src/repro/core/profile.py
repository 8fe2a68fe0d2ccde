"""The one ledger of a query execution.

The engine builds one :class:`ExecutionProfile` when an execution starts
(before admission) and hands it to the execution's
:class:`~repro.resilience.context.QueryContext`, which every tier, the
morsel fan-out driver and every pool worker already reach.  The code that
does the work writes the counters straight into it (proxies for the
paper's hardware-counter discussion, §5): the inline batch pipeline and the
Volcano interpreter write the profile itself, each morsel worker counts into
its own :class:`ExecutionCounters` and merges them into the profile under the
context's lock when the morsel ends — finished or aborted.  Nothing is
copied afterwards, so an aborted execution's profile is exactly as far as
the query got, and :attr:`ExecutionProfile.partial_progress` is a read of
it.  The profile comes back on :class:`~repro.core.engine.ResultSet`, or on
the coded error as ``exc.profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class ExecutionCounters:
    """The additive counters of an execution.

    A stage or root writes into the counters object it is *passed*: the
    profile itself inline, a morsel's own counters under a fan-out, so
    concurrent workers never share one and :meth:`merge` folds them in."""

    rows_scanned: int = 0
    batches_processed: int = 0
    values_extracted: int = 0
    values_from_cache: int = 0
    join_build_rows: int = 0
    join_output_rows: int = 0
    groups_built: int = 0
    output_rows: int = 0
    #: Rows that entered a sort kernel (for streaming top-K this counts every
    #: pruned batch, so it can exceed the result size).
    rows_sorted: int = 0
    #: Rows emitted by batch-native unnest stages (flattened elements plus,
    #: under outer unnest, one null child row per empty collection).
    unnest_output_rows: int = 0

    def merge(self, other: "ExecutionCounters") -> None:
        """Add ``other``'s counters to these."""
        for counter in fields(ExecutionCounters):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class ExecutionProfile(ExecutionCounters):
    """Counters and tier attribution of one query execution."""

    #: Which tier served the query: "codegen" (the batch pipeline calling
    #: this plan's generated expression functions, inline or fanned out over
    #: morsels) or "volcano" (the tuple-at-a-time interpreter); "aborted"
    #: once the execution failed.
    execution_tier: str = "codegen"
    #: Workers the batch pipeline fanned out across (0 when every scan of
    #: the execution ran inline, and on the Volcano tier).
    parallel_workers: int = 0
    #: Morsels handed to a worker / obtained by stealing under a fan-out.
    morsels_dispatched: int = 0
    morsels_stolen: int = 0
    #: True when the codegen tier ran on already-compiled expression
    #: functions (no code generation happened on this call).
    compiled_from_cache: bool = False
    #: Which kernel of the engine's sort epilogue served the query's ORDER
    #: BY — the same on every tier and at any worker count: "lexsort" (one
    #: stable dtype-specialized permutation), "topk" (partition-bounded sort
    #: for ORDER BY + LIMIT), "object-fallback" (boxed comparator for object
    #: columns) — or None when the query has no ORDER BY.
    sort_strategy: str | None = None
    #: Which join kernel each hash join of the batch pipeline ran, in plan
    #: walk order: "dense" (direct-addressed over the build side's integer
    #: key range), "sorted" (one stable sort, two searchsorted per batch) or
    #: "factorized" (an aggregate over joins on one shared key, run per key
    #: value without joined rows).
    join_kernels: list[str] = field(default_factory=list)
    #: Which grouping kernel(s) a batch-pipeline group-by ran: "dense"
    #: (``bincount`` over the mixed-radix code of ``key - lo``), "sorted"
    #: (``np.unique`` factorization) or "dense+sorted" when the per-morsel
    #: and merge passes chose differently; ``None`` without a group-by.
    group_kernel: str | None = None
    #: The tier the static plan analyzer predicted would serve this query.
    predicted_tier: str | None = None
    #: Why each non-serving tier declined, keyed by tier name; values carry a
    #: machine-readable code prefix, e.g. ``"[TIER005] outer join is served
    #: by the Volcano interpreter"``.  A plan the code generator failed on is
    #: declined before execution with code ``TIER009``; data never changes
    #: the tier.
    tier_decline_reasons: dict[str, str] = field(default_factory=dict)
    #: Transient scan-I/O retries this query consumed, charged by
    #: :meth:`~repro.resilience.context.QueryContext.consume_retry` (RES005
    #: territory once the per-query budget runs out).
    io_retries: int = 0
    #: ``None`` for completed queries; the diagnostic code (``RES001`` ...)
    #: when the execution failed.
    aborted: str | None = None

    @property
    def partial_progress(self) -> dict[str, int]:
        """How far the execution got: scan batches, scanned rows (Volcano's
        included) and morsels dispatched — a read of the counters above."""
        return {
            "batches": self.batches_processed,
            "rows": self.rows_scanned,
            "morsels": self.morsels_dispatched,
        }
