"""Physical planner.

The planner turns an optimized logical plan into a physical plan:

1. rule-based rewrites (selection pushdown, selection merging),
2. cost-based join reordering over inner-join regions (greedy bottom-up,
   driven by plug-in statistics),
3. physical operator selection — hash join for equi-joins (build side =
   smaller input), nested-loop join otherwise, Nest for grouping; the join
   and grouping *kernels* are not planned but picked at execution from the
   key range the executor observes (dense integer ranges are addressed
   directly, everything else is sorted — see
   :mod:`repro.core.executor.radix`),
4. projection pushdown into the scans (every scan lists exactly the field
   paths the query needs).  Whether a field is read from the §6 cache or from
   the raw file is not planned: the batch pipeline's scan asks the caching
   manager per field at execution time.

One planner serves every session of an engine, so :meth:`Planner.plan` keeps
its per-call state in locals and arguments, never on ``self``.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.algebra import (
    Join,
    LogicalPlan,
    Nest,
    Reduce,
    Scan,
    Select,
    Unnest,
)
from repro.core.optimizer import rules
from repro.core.optimizer.join_order import (
    choose_build_side,
    collect_join_region,
    extract_equi_key,
    order_joins,
)
from repro.core.optimizer.statistics import StatisticsManager
from repro.core.expressions import Expression
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysSort,
    PhysUnnest,
    PhysicalPlan,
)
from repro.core.sort import validate_limit, validate_order_columns
from repro.errors import PlanningError
from repro.plugins.base import FieldPath
from repro.storage.catalog import Catalog


class Planner:
    """Lowers logical plans to physical plans."""

    def __init__(self, catalog: Catalog, statistics: StatisticsManager):
        self.catalog = catalog
        self.statistics = statistics

    # -- entry point -------------------------------------------------------------

    def plan(
        self,
        logical: LogicalPlan,
        parameters: Mapping[int | str, object] | None = None,
        order_by: "list[tuple[str, bool]] | None" = None,
        limit: "int | Expression | None" = None,
    ) -> PhysicalPlan:
        """Lower ``logical`` to a physical plan.

        ``parameters`` optionally supplies bound query-parameter values: the
        selectivity formulas then estimate parameterized predicates with the
        concrete constants (join ordering, build-side choice), while the
        produced plan still carries the abstract ``Parameter`` nodes — its
        fingerprint, and therefore the compiled-program cache key, is
        independent of the values.

        ``order_by`` / ``limit`` place a :class:`PhysSort` above the plan
        root, making the query's ordering part of the plan (fingerprinted,
        explained, executed by the tier-specialized sort kernels).
        """
        logical = rules.pushdown_selections(logical)
        binding_datasets = self.binding_datasets(logical)
        logical = self._reorder_joins(logical, binding_datasets, parameters)
        required = rules.required_paths(logical)
        # Nested-in-nested: when the parent of an unnest is itself an unnest
        # variable, the inner collection cannot be reached through plug-in
        # OIDs — the parent unnest must materialize it as an element column
        # so the batch tier can flatten it in memory.
        unnest_vars = {node.var for node in logical.walk() if isinstance(node, Unnest)}
        for node in logical.walk():
            if isinstance(node, Unnest) and node.binding in unnest_vars:
                required.setdefault(node.binding, set()).add(tuple(node.path))
        physical = self._convert(logical, required, binding_datasets, parameters)
        if order_by or limit is not None:
            physical = self._attach_sort(physical, order_by or [], limit)
        return physical

    def _attach_sort(
        self,
        physical: PhysicalPlan,
        order_by: "list[tuple[str, bool]]",
        limit: "int | Expression | None",
    ) -> PhysSort:
        """Place the ORDER BY / LIMIT root, validating it at plan time: sort
        keys must name output columns, and a literal LIMIT must be
        non-negative (a parameterized one is validated identically when its
        value binds)."""
        if not isinstance(physical, (PhysReduce, PhysNest)):  # pragma: no cover
            raise PlanningError(
                f"cannot sort the output of plan root {physical.describe()}"
            )
        names = [column.name for column in physical.columns]
        validate_order_columns(names, names, order_by)
        if limit is not None and not isinstance(limit, Expression):
            limit = validate_limit(int(limit))
        return PhysSort(order_by, limit, physical)

    # -- helpers -------------------------------------------------------------------

    def binding_datasets(self, logical: LogicalPlan) -> dict[str, str]:
        """Map every binding to the dataset it (transitively) originates from."""
        mapping: dict[str, str] = {}
        for node in logical.walk():
            if isinstance(node, Scan):
                mapping[node.binding] = node.dataset
        changed = True
        while changed:
            changed = False
            for node in logical.walk():
                if isinstance(node, Unnest) and node.var not in mapping:
                    parent = mapping.get(node.binding)
                    if parent is not None:
                        mapping[node.var] = parent
                        changed = True
        return mapping

    def _reorder_joins(
        self,
        logical: LogicalPlan,
        binding_datasets: Mapping[str, str],
        parameters: Mapping[int | str, object] | None,
    ) -> LogicalPlan:
        def reorder(node: LogicalPlan) -> LogicalPlan:
            return self._reorder_joins(node, binding_datasets, parameters)

        if isinstance(logical, Join) and not logical.outer:
            region = collect_join_region(logical)
            if region is not None:
                inputs, predicates = region
                return order_joins(
                    [reorder(i) for i in inputs],
                    predicates,
                    self.statistics,
                    binding_datasets,
                    parameters,
                )
        if isinstance(logical, Select):
            return Select(logical.predicate, reorder(logical.child))
        if isinstance(logical, Unnest):
            return Unnest(
                logical.binding,
                logical.path,
                logical.var,
                reorder(logical.child),
                logical.predicate,
                logical.outer,
            )
        if isinstance(logical, Reduce):
            return Reduce(
                logical.monoid, logical.columns, reorder(logical.child), logical.predicate
            )
        if isinstance(logical, Nest):
            return Nest(
                logical.columns, logical.group_by, reorder(logical.child), logical.predicate
            )
        if isinstance(logical, Join):
            return Join(
                logical.predicate,
                reorder(logical.left),
                reorder(logical.right),
                logical.outer,
            )
        return logical

    # -- conversion ------------------------------------------------------------------

    def _convert(
        self,
        node: LogicalPlan,
        required: Mapping[str, set[FieldPath]],
        binding_datasets: Mapping[str, str],
        parameters: Mapping[int | str, object] | None,
    ) -> PhysicalPlan:
        def convert(child: LogicalPlan) -> PhysicalPlan:
            return self._convert(child, required, binding_datasets, parameters)

        if isinstance(node, Scan):
            paths = sorted(required.get(node.binding, set()))
            return PhysScan(node.dataset, node.binding, paths)
        if isinstance(node, Select):
            return PhysSelect(node.predicate, convert(node.child))
        if isinstance(node, Join):
            return self._convert_join(node, convert, binding_datasets, parameters)
        if isinstance(node, Unnest):
            return PhysUnnest(
                node.binding,
                node.path,
                node.var,
                sorted(required.get(node.var, set())),
                convert(node.child),
                node.predicate,
                node.outer,
            )
        if isinstance(node, Reduce):
            child = convert(node.child)
            if node.predicate is not None:
                child = PhysSelect(node.predicate, child)
            return PhysReduce(node.monoid, node.columns, child)
        if isinstance(node, Nest):
            child = convert(node.child)
            if node.predicate is not None:
                child = PhysSelect(node.predicate, child)
            return PhysNest(node.columns, node.group_by, child)
        raise PlanningError(f"cannot lower logical operator {node.describe()}")

    def _convert_join(
        self,
        node: Join,
        convert: Callable[[LogicalPlan], PhysicalPlan],
        binding_datasets: Mapping[str, str],
        parameters: Mapping[int | str, object] | None,
    ) -> PhysicalPlan:
        left_logical, right_logical = node.left, node.right
        left_key, right_key, residual = extract_equi_key(
            node.predicate, left_logical.bindings(), right_logical.bindings()
        )
        left = convert(left_logical)
        right = convert(right_logical)
        if left_key is None or right_key is None:
            return PhysNestedLoopJoin(node.predicate, left, right, node.outer)
        left_rows = self.statistics.estimate_rows(left_logical, binding_datasets, parameters)
        right_rows = self.statistics.estimate_rows(right_logical, binding_datasets, parameters)
        if choose_build_side(left_rows, right_rows) and not node.outer:
            left, right = right, left
            left_key, right_key = right_key, left_key
        return PhysHashJoin(left_key, right_key, left, right, residual, node.outer)
