"""Per-execution counters (proxies for the paper's hardware-counter
discussion) and tier attribution, filled by whichever execution path served
the query and returned on :class:`~repro.core.engine.ResultSet`."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExecutionProfile:
    """Counters describing one query execution (proxies for the paper's
    hardware-counter discussion)."""

    rows_scanned: int = 0
    values_extracted: int = 0
    values_from_cache: int = 0
    join_build_rows: int = 0
    join_output_rows: int = 0
    groups_built: int = 0
    output_rows: int = 0
    batches_processed: int = 0
    #: Which label served the query: "codegen" (the batch pipeline calling
    #: this plan's generated expression functions), "vectorized" (the same
    #: pipeline interpreting the expressions) or "volcano" (the
    #: tuple-at-a-time interpreter).  Both pipeline labels run inline or
    #: fanned out over morsels.
    execution_tier: str = "codegen"
    #: Workers the batch pipeline fanned out across (0 when every scan of
    #: the execution ran inline, and on the Volcano tier).
    parallel_workers: int = 0
    #: Morsels executed / obtained by stealing under a fan-out.
    morsels_dispatched: int = 0
    morsels_stolen: int = 0
    #: True when the codegen label ran on already-compiled expression
    #: functions (no code generation happened on this call).
    compiled_from_cache: bool = False
    #: Which sort kernel served the query's ORDER BY: "lexsort" (one stable
    #: dtype-specialized permutation), "topk" (bounded streaming top-K for
    #: ORDER BY + LIMIT), "parallel-merge" (per-morsel sorted runs merged
    #: k-way at the root), "object-fallback" (boxed comparator for object
    #: columns) — or None when the query has no ORDER BY.
    sort_strategy: str | None = None
    #: Which join kernel each hash join of the batch pipeline ran, in plan
    #: walk order: "dense" (direct-addressed over the build side's integer
    #: key range) or "sorted" (one stable sort, two searchsorted per batch).
    join_kernels: list[str] = field(default_factory=list)
    #: Which grouping kernel(s) a batch-pipeline group-by ran: "dense"
    #: (``bincount`` over the mixed-radix code of ``key - lo``), "sorted"
    #: (``np.unique`` factorization) or "dense+sorted" when the per-morsel
    #: and merge passes chose differently; ``None`` without a group-by.
    group_kernel: str | None = None
    #: Rows that entered a sort kernel (for streaming top-K this counts every
    #: pruned batch, so it can exceed the result size).
    rows_sorted: int = 0
    #: Rows emitted by batch-native unnest stages (flattened elements plus,
    #: under outer unnest, one null child row per empty collection).
    unnest_output_rows: int = 0
    #: The tier the static plan analyzer predicted would serve this query
    #: (``None`` for profiles built outside the engine's cascade).
    predicted_tier: str | None = None
    #: Why each non-serving tier declined, keyed by tier name; values carry a
    #: machine-readable code prefix, e.g. ``"[TIER005] outer join is served
    #: by the Volcano interpreter"``.  Tiers that declined *during* execution
    #: (data-dependent demotions the static analysis cannot rule out) appear
    #: with code ``TIER009``.
    tier_decline_reasons: dict[str, str] = field(default_factory=dict)
    #: Transient scan-I/O retries this query consumed (RES005 territory once
    #: the per-query budget runs out).
    io_retries: int = 0
    #: ``None`` for completed queries; the diagnostic code (``RES001`` ...)
    #: when the query was aborted by the resilience subsystem.
    aborted: str | None = None
    #: Partial-progress counters (batches/rows/morsels) captured
    #: from the :class:`~repro.resilience.context.QueryContext` when a query
    #: aborts; empty for completed queries.
    partial_progress: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "ExecutionProfile") -> None:
        self.rows_scanned += other.rows_scanned
        self.values_extracted += other.values_extracted
        self.values_from_cache += other.values_from_cache
        self.join_build_rows += other.join_build_rows
        self.join_output_rows += other.join_output_rows
        self.groups_built += other.groups_built
        self.output_rows += other.output_rows
        self.batches_processed += other.batches_processed
        self.parallel_workers = max(self.parallel_workers, other.parallel_workers)
        self.morsels_dispatched += other.morsels_dispatched
        self.morsels_stolen += other.morsels_stolen
        self.sort_strategy = self.sort_strategy or other.sort_strategy
        self.join_kernels = self.join_kernels + other.join_kernels
        self.group_kernel = self.group_kernel or other.group_kernel
        self.rows_sorted += other.rows_sorted
        self.unnest_output_rows += other.unnest_output_rows
        self.io_retries += other.io_retries
        self.aborted = self.aborted or other.aborted
        self.predicted_tier = self.predicted_tier or other.predicted_tier
        self.tier_decline_reasons.update(other.tier_decline_reasons)
        # Tier attribution is conservative: the merged profile reports the
        # *slowest* tier any fragment executed on (that tier bounds the
        # merged execution; generated code ran only if it is "codegen"), and
        # a cached compilation only if every fragment's program came from
        # the cache.
        if _TIER_RANK.get(other.execution_tier, -1) > _TIER_RANK.get(
            self.execution_tier, -1
        ):
            self.execution_tier = other.execution_tier
        self.compiled_from_cache = (
            self.compiled_from_cache and other.compiled_from_cache
        )


#: Cascade order used by :meth:`ExecutionProfile.merge` — higher rank means
#: a slower (more of a bottleneck) tier.
_TIER_RANK = {
    "codegen": 0,
    "vectorized": 1,
    "volcano": 2,
}
