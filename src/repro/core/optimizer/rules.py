"""Rule-based logical rewrites.

The optimizer applies a small set of classical, always-beneficial rewrites
before any cost-based decision (§4):

* **selection pushdown** — predicates are split into conjuncts and pushed
  below joins and unnests towards the scans that bind their fields; conjuncts
  spanning both join sides are merged into the join predicate,
* **selection merging** — adjacent selections collapse into one conjunction,
* **projection pushdown** — the set of field paths each scan / unnest must
  materialize is computed from every expression in the plan, so plug-ins
  generate code that extracts only what the query needs (§5.2).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.algebra import (
    Join,
    LogicalPlan,
    Nest,
    Reduce,
    Select,
    Unnest,
)
from repro.core.expressions import Expression, conjunction, conjuncts
from repro.plugins.base import FieldPath


# ---------------------------------------------------------------------------
# Selection pushdown
# ---------------------------------------------------------------------------


def pushdown_selections(plan: LogicalPlan) -> LogicalPlan:
    """Push selection predicates as close to the scans as possible."""
    plan = _rewrite_children(plan)
    if isinstance(plan, Select):
        return _push_select(plan)
    return plan


def _rewrite_children(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, Select):
        return Select(plan.predicate, pushdown_selections(plan.child))
    if isinstance(plan, Join):
        return Join(
            plan.predicate,
            pushdown_selections(plan.left),
            pushdown_selections(plan.right),
            plan.outer,
        )
    if isinstance(plan, Unnest):
        return Unnest(
            plan.binding,
            plan.path,
            plan.var,
            pushdown_selections(plan.child),
            plan.predicate,
            plan.outer,
        )
    if isinstance(plan, Reduce):
        return Reduce(plan.monoid, plan.columns, pushdown_selections(plan.child), plan.predicate)
    if isinstance(plan, Nest):
        return Nest(plan.columns, plan.group_by, pushdown_selections(plan.child), plan.predicate)
    return plan


def _push_select(select: Select) -> LogicalPlan:
    child = select.child
    predicates = conjuncts(select.predicate)

    if isinstance(child, Select):
        merged = conjunction(predicates + conjuncts(child.predicate))
        assert merged is not None
        return _push_select(Select(merged, child.child))

    if isinstance(child, Join) and not child.outer:
        left_bindings = child.left.bindings()
        right_bindings = child.right.bindings()
        to_left: list[Expression] = []
        to_right: list[Expression] = []
        to_join: list[Expression] = []
        for predicate in predicates:
            refs = predicate.bindings()
            if refs and refs <= left_bindings:
                to_left.append(predicate)
            elif refs and refs <= right_bindings:
                to_right.append(predicate)
            else:
                to_join.append(predicate)
        left = child.left
        right = child.right
        if to_left:
            left = pushdown_selections(Select(conjunction(to_left), left))
        if to_right:
            right = pushdown_selections(Select(conjunction(to_right), right))
        join_predicate = conjunction(
            conjuncts(child.predicate) + to_join if child.predicate is not None else to_join
        )
        return Join(join_predicate, left, right, child.outer)

    if isinstance(child, Unnest) and not child.outer:
        below: list[Expression] = []
        above: list[Expression] = []
        for predicate in predicates:
            if child.var in predicate.bindings():
                above.append(predicate)
            else:
                below.append(predicate)
        new_child: LogicalPlan = child.child
        if below:
            new_child = pushdown_selections(Select(conjunction(below), new_child))
        unnest_predicate = conjunction(
            ([child.predicate] if child.predicate is not None else []) + above
        )
        return Unnest(
            child.binding, child.path, child.var, new_child, unnest_predicate, child.outer
        )

    return Select(select.predicate, child)


# ---------------------------------------------------------------------------
# Projection pushdown (required field paths per binding)
# ---------------------------------------------------------------------------


def required_paths(plan: LogicalPlan) -> dict[str, set[FieldPath]]:
    """Compute, for every binding, the set of field paths the plan reads.

    Unnest collection paths are *not* attributed to the source binding's scan
    buffers (the plug-in navigates to them directly); the returned mapping is
    used to populate :class:`~repro.core.physical.PhysScan.paths` and
    :class:`~repro.core.physical.PhysUnnest.element_paths`.
    """
    required: dict[str, set[FieldPath]] = defaultdict(set)

    def add_expression(expression: Expression | None) -> None:
        if expression is None:
            return
        for binding, path in expression.referenced_fields():
            required[binding].add(tuple(path))

    for node in plan.walk():
        if isinstance(node, Select):
            add_expression(node.predicate)
        elif isinstance(node, Join):
            add_expression(node.predicate)
        elif isinstance(node, Unnest):
            add_expression(node.predicate)
        elif isinstance(node, Reduce):
            add_expression(node.predicate)
            for column in node.columns:
                add_expression(column.expression)
        elif isinstance(node, Nest):
            add_expression(node.predicate)
            for column in node.columns:
                add_expression(column.expression)
            for expression in node.group_by:
                add_expression(expression)
    return dict(required)
