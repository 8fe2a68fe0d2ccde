"""Join ordering and build-side selection.

The optimizer follows a bottom-up strategy (§4): starting from the filtered
base inputs, it greedily joins the pair with the smallest estimated result,
preferring equi-join edges over cartesian products, and always materializes
the smaller input as the hash-join build side.  For the query shapes of the
paper's evaluation (two- and three-way joins) the greedy order coincides with
the optimal one; the module is written so a DP enumerator could replace the
greedy loop without touching the planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.algebra import Join, LogicalPlan
from repro.core.expressions import (
    Expression,
    conjunction,
    conjuncts,
    is_equi_join_predicate,
)
from repro.core.optimizer.statistics import StatisticsManager


@dataclass
class JoinInput:
    """One input of a join region: a plan fragment and its estimated rows."""

    plan: LogicalPlan
    rows: float


def collect_join_region(plan: LogicalPlan) -> tuple[list[LogicalPlan], list[Expression]] | None:
    """If ``plan`` is a tree of inner joins, return its inputs and predicates.

    Returns ``None`` when the plan is not a join (nothing to reorder).
    """
    if not isinstance(plan, Join) or plan.outer:
        return None
    inputs: list[LogicalPlan] = []
    predicates: list[Expression] = []

    def visit(node: LogicalPlan) -> None:
        if isinstance(node, Join) and not node.outer:
            if node.predicate is not None:
                predicates.extend(conjuncts(node.predicate))
            visit(node.left)
            visit(node.right)
        else:
            inputs.append(node)

    visit(plan)
    return inputs, predicates


def order_joins(
    inputs: Sequence[LogicalPlan],
    predicates: Sequence[Expression],
    statistics: StatisticsManager,
    binding_datasets: Mapping[str, str],
) -> LogicalPlan:
    """Greedily rebuild a left-deep join tree over ``inputs``.

    Each step joins the current tree with the unjoined input that (a) is
    connected to it by at least one predicate, and (b) has the smallest
    estimated cardinality; remaining predicates are attached as soon as all of
    their bindings are available.
    """
    remaining = [
        JoinInput(plan, statistics.estimate_rows(plan, binding_datasets)) for plan in inputs
    ]
    if not remaining:
        raise ValueError("join region has no inputs")
    pending = list(predicates)

    # Start from the smallest input.
    remaining.sort(key=lambda item: item.rows)
    current = remaining.pop(0)
    tree = current.plan
    tree_bindings = set(tree.bindings())

    while remaining:
        candidate_index = _pick_next(remaining, pending, tree_bindings)
        nxt = remaining.pop(candidate_index)
        applicable, pending = _split_applicable(
            pending, tree_bindings | set(nxt.plan.bindings())
        )
        tree = Join(conjunction(applicable), tree, nxt.plan)
        tree_bindings |= set(nxt.plan.bindings())

    if pending:
        # Predicates that still reference missing bindings should not exist in
        # a validated plan; attach them defensively to the top join.
        if isinstance(tree, Join):
            combined = conjunction(
                ([tree.predicate] if tree.predicate is not None else []) + pending
            )
            tree = Join(combined, tree.left, tree.right, tree.outer)
    return tree


def _pick_next(
    remaining: list[JoinInput], pending: list[Expression], tree_bindings: set[str]
) -> int:
    connected: list[int] = []
    for index, item in enumerate(remaining):
        bindings = tree_bindings | set(item.plan.bindings())
        for predicate in pending:
            if predicate.bindings() <= bindings and _spans(predicate, tree_bindings, item):
                connected.append(index)
                break
    candidates = connected if connected else list(range(len(remaining)))
    return min(candidates, key=lambda index: remaining[index].rows)


def _spans(predicate: Expression, tree_bindings: set[str], item: JoinInput) -> bool:
    refs = predicate.bindings()
    return bool(refs & tree_bindings) and bool(refs & set(item.plan.bindings()))


def _split_applicable(
    pending: list[Expression], available: set[str]
) -> tuple[list[Expression], list[Expression]]:
    applicable = [p for p in pending if p.bindings() <= available]
    rest = [p for p in pending if not (p.bindings() <= available)]
    return applicable, rest


def choose_build_side(
    left_rows: float, right_rows: float
) -> bool:
    """Return ``True`` when the sides should be swapped so that the smaller
    input becomes the hash-join build side."""
    return right_rows < left_rows


def extract_equi_key(
    predicate: Expression | None, left_bindings: set[str], right_bindings: set[str]
) -> tuple[Expression | None, Expression | None, Expression | None]:
    """Split a join predicate into (left key, right key, residual predicate)."""
    if predicate is None:
        return None, None, None
    residual: list[Expression] = []
    left_key: Expression | None = None
    right_key: Expression | None = None
    for conjunct in conjuncts(predicate):
        if left_key is None:
            pair = is_equi_join_predicate(conjunct, left_bindings, right_bindings)
            if pair is not None:
                left_key, right_key = pair
                continue
        residual.append(conjunct)
    return left_key, right_key, conjunction(residual)
