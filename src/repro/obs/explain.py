"""EXPLAIN ANALYZE rendering: static predictions beside measured spans.

``engine.explain(text, analyze=True)`` executes the query under a forced
trace and hands the result here.  The report annotates every plan node with
the optimizer's *estimated* cardinality (the same formulas the cost model
uses for plan selection) next to the *actual* rows/time the span tracing
measured — plus the predicted-vs-served tier and the phase breakdown — so
the PR 6 static-analysis artifact becomes a self-checking feedback report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.trace import QueryTrace, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.profile import ExecutionProfile
    from repro.core.optimizer.statistics import StatisticsManager
    from repro.core.physical import PhysicalPlan

#: Mirrors ``CostModel._cost``'s unnest fan-out assumption.
UNNEST_FANOUT = 4.0


def estimate_cardinalities(
    plan: "PhysicalPlan", statistics: "StatisticsManager"
) -> dict[int, float]:
    """Estimated output rows per plan node, keyed by post-order walk ordinal.

    Replicates the row half of ``CostModel._cost`` (the optimizer's own
    estimates) so the EXPLAIN ANALYZE report compares actual cardinalities
    against exactly what plan selection believed.
    """
    from repro.core.physical import (
        PhysHashJoin,
        PhysNest,
        PhysNestedLoopJoin,
        PhysReduce,
        PhysScan,
        PhysSelect,
        PhysSort,
        PhysUnnest,
    )

    ordinals = {id(node): index for index, node in enumerate(plan.walk())}
    binding_datasets: dict[str, str] = {
        node.binding: node.dataset
        for node in plan.walk()
        if isinstance(node, PhysScan)
    }
    estimates: dict[int, float] = {}

    def visit(node: Any) -> float:
        if isinstance(node, PhysScan):
            rows = float(statistics.dataset_cardinality(node.dataset))
        elif isinstance(node, PhysSelect):
            rows = visit(node.child) * statistics.predicate_selectivity(
                node.predicate, binding_datasets
            )
        elif isinstance(node, PhysUnnest):
            rows = (
                visit(node.child)
                * UNNEST_FANOUT
                * statistics.predicate_selectivity(node.predicate, binding_datasets)
            )
        elif isinstance(node, PhysHashJoin):
            rows = max(visit(node.left), visit(node.right))
        elif isinstance(node, PhysNestedLoopJoin):
            rows = visit(node.left) * visit(node.right) * 0.1
        elif isinstance(node, PhysNest):
            rows = visit(node.child) * 0.1
        elif isinstance(node, PhysReduce):
            child_rows = visit(node.child)
            has_aggregate = any(
                _contains_aggregate(column.expression) for column in node.columns
            )
            rows = 1.0 if has_aggregate else child_rows
        elif isinstance(node, PhysSort):
            child_rows = visit(node.child)
            limit = node.limit if isinstance(node.limit, int) else None
            rows = child_rows if limit is None else float(min(child_rows, limit))
        else:
            children = node.children()
            rows = visit(children[0]) if children else 1.0
        estimates[ordinals[id(node)]] = rows
        return rows

    visit(plan)
    return estimates


def _contains_aggregate(expression: Any) -> bool:
    from repro.core.expressions import contains_aggregate

    return bool(contains_aggregate(expression))


def assign_spans(spans: list[Span]) -> tuple[dict[int, list[Span]], list[Span]]:
    """Group operator spans by the walk ordinal of the plan node they
    measured.  Every instrumentation site records against a plan node; a
    span that somehow was not is returned separately and rendered at the
    end, never dropped."""
    by_node: dict[int, list[Span]] = {}
    leftovers: list[Span] = []
    for span in spans:
        if span.node_id is not None:
            by_node.setdefault(span.node_id, []).append(span)
        else:
            leftovers.append(span)
    return by_node, leftovers


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f} ms"


def _fmt_rows(rows: float) -> str:
    if rows == int(rows):
        return str(int(rows))
    return f"{rows:.1f}"


def _span_actual(span: Span) -> str:
    parts = [f"{span.rows_out} rows", f"{_fmt_ms(span.seconds)}"]
    if span.batches:
        parts.append(f"{span.batches} batches")
    if span.bytes_processed:
        parts.append(f"{span.bytes_processed} bytes")
    if span.inclusive:
        parts.append("incl. children")
    text = ", ".join(parts)
    if span.detail:
        text += f" [{span.detail}]"
    return text


def render_explain_analyze(
    plan: "PhysicalPlan",
    trace: QueryTrace | None,
    profile: "ExecutionProfile",
    statistics: "StatisticsManager",
    result_rows: int,
    elapsed_seconds: float,
) -> str:
    """The EXPLAIN ANALYZE report for one executed, traced query."""
    estimates = estimate_cardinalities(plan, statistics)
    spans = trace.operators if trace is not None else []
    by_node, leftovers = assign_spans(spans)
    root_ordinal = len(list(plan.walk())) - 1

    parts: list[str] = ["== explain analyze =="]
    predicted = profile.predicted_tier or "?"
    marker = "as predicted" if predicted == profile.execution_tier else "DEMOTED"
    parts.append(
        f"tier: {profile.execution_tier} (predicted: {predicted}, {marker})"
    )
    estimated_root = estimates.get(root_ordinal)
    parts.append(
        f"rows: {result_rows} actual vs ~{_fmt_rows(estimated_root or 0.0)} "
        f"estimated; elapsed {_fmt_ms(elapsed_seconds)}"
    )
    if profile.sort_strategy:
        parts.append(f"sort strategy: {profile.sort_strategy}")
    if profile.join_kernels:
        parts.append(f"join kernels: {', '.join(profile.join_kernels)}")
    if profile.group_kernel:
        parts.append(f"group kernel: {profile.group_kernel}")

    if trace is not None and trace.phases:
        parts.extend(["", "== phases =="])
        for span in trace.phases:
            parts.append(f"  {span.name:<13}{_fmt_ms(span.seconds)}")

    parts.extend(["", "== plan: estimated vs actual =="])
    ordinals = {id(node): index for index, node in enumerate(plan.walk())}

    def render_node(node: Any, indent: int) -> None:
        pad = "  " * indent
        parts.append(pad + node.describe())
        ordinal = ordinals[id(node)]
        estimate = estimates.get(ordinal)
        annotation = f"{pad}  ~ est {_fmt_rows(estimate or 0.0)} rows"
        node_spans = by_node.get(ordinal)
        if node_spans:
            annotation += " | actual " + "; ".join(
                _span_actual(span) for span in node_spans
            )
        else:
            annotation += " | (no span recorded)"
        parts.append(annotation)
        for child in node.children():
            render_node(child, indent + 1)

    render_node(plan, 0)

    if leftovers:
        parts.extend(["", "== unattributed spans =="])
        for span in leftovers:
            parts.append(f"  {span.name}: {_span_actual(span)}")

    parts.extend(["", "== tier cascade =="])
    parts.append(f"{profile.execution_tier}: served this execution")
    reasons: Mapping[str, str] = profile.tier_decline_reasons or {}
    for tier, reason in reasons.items():
        parts.append(f"{tier}: declined -- {reason}")
    return "\n".join(parts)
