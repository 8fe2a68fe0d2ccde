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
   paths the query needs) and access-path selection — a scan whose required
   fields are all served by the caching manager is routed to the cache
   plug-in instead of the raw file.
"""

from __future__ import annotations

from typing import Mapping

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
from repro.plugins.cache_plugin import CachePlugin
from repro.storage.catalog import Catalog


class Planner:
    """Lowers logical plans to physical plans."""

    def __init__(
        self,
        catalog: Catalog,
        statistics: StatisticsManager,
        cache_plugin: CachePlugin | None = None,
    ):
        self.catalog = catalog
        self.statistics = statistics
        self.cache_plugin = cache_plugin
        #: Per-plan() state: unnest variable -> nested collection paths its
        #: unnest must materialize as element columns (nested-in-nested).
        self._nested_collection_paths: dict[str, set[FieldPath]] = {}
        self._unnested_bindings: set[str] = set()

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
        self.statistics.parameter_values = parameters
        try:
            logical = rules.pushdown_selections(logical)
            binding_datasets = self.binding_datasets(logical)
            logical = self._reorder_joins(logical, binding_datasets)
            required = rules.required_paths(logical)
            self._unnested_bindings = {
                node.binding for node in logical.walk() if isinstance(node, Unnest)
            }
            # Nested-in-nested: when the parent of an unnest is itself an
            # unnest variable, the inner collection cannot be reached through
            # plug-in OIDs — the parent unnest must materialize it as an
            # element column so the batch tier can flatten it in memory.
            unnest_vars = {
                node.var for node in logical.walk() if isinstance(node, Unnest)
            }
            self._nested_collection_paths: dict[str, set[FieldPath]] = {}
            for node in logical.walk():
                if isinstance(node, Unnest) and node.binding in unnest_vars:
                    self._nested_collection_paths.setdefault(
                        node.binding, set()
                    ).add(tuple(node.path))
            physical = self._convert(logical, required, binding_datasets)
        finally:
            self.statistics.parameter_values = None
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
        self, logical: LogicalPlan, binding_datasets: Mapping[str, str]
    ) -> LogicalPlan:
        if isinstance(logical, Join) and not logical.outer:
            region = collect_join_region(logical)
            if region is not None:
                inputs, predicates = region
                inputs = [self._reorder_joins(i, binding_datasets) for i in inputs]
                return order_joins(inputs, predicates, self.statistics, binding_datasets)
        if isinstance(logical, Select):
            return Select(
                logical.predicate, self._reorder_joins(logical.child, binding_datasets)
            )
        if isinstance(logical, Unnest):
            return Unnest(
                logical.binding,
                logical.path,
                logical.var,
                self._reorder_joins(logical.child, binding_datasets),
                logical.predicate,
                logical.outer,
            )
        if isinstance(logical, Reduce):
            return Reduce(
                logical.monoid,
                logical.columns,
                self._reorder_joins(logical.child, binding_datasets),
                logical.predicate,
            )
        if isinstance(logical, Nest):
            return Nest(
                logical.columns,
                logical.group_by,
                self._reorder_joins(logical.child, binding_datasets),
                logical.predicate,
            )
        if isinstance(logical, Join):
            return Join(
                logical.predicate,
                self._reorder_joins(logical.left, binding_datasets),
                self._reorder_joins(logical.right, binding_datasets),
                logical.outer,
            )
        return logical

    # -- conversion ------------------------------------------------------------------

    def _convert(
        self,
        node: LogicalPlan,
        required: Mapping[str, set[FieldPath]],
        binding_datasets: Mapping[str, str],
    ) -> PhysicalPlan:
        if isinstance(node, Scan):
            return self._convert_scan(node, required)
        if isinstance(node, Select):
            return PhysSelect(
                node.predicate, self._convert(node.child, required, binding_datasets)
            )
        if isinstance(node, Join):
            return self._convert_join(node, required, binding_datasets)
        if isinstance(node, Unnest):
            element_paths = sorted(
                required.get(node.var, set())
                | self._nested_collection_paths.get(node.var, set())
            )
            return PhysUnnest(
                node.binding,
                node.path,
                node.var,
                element_paths,
                self._convert(node.child, required, binding_datasets),
                node.predicate,
                node.outer,
            )
        if isinstance(node, Reduce):
            child = self._convert(node.child, required, binding_datasets)
            if node.predicate is not None:
                child = PhysSelect(node.predicate, child)
            return PhysReduce(node.monoid, node.columns, child)
        if isinstance(node, Nest):
            child = self._convert(node.child, required, binding_datasets)
            if node.predicate is not None:
                child = PhysSelect(node.predicate, child)
            return PhysNest(node.columns, node.group_by, child)
        raise PlanningError(f"cannot lower logical operator {node.describe()}")

    def _convert_scan(
        self, node: Scan, required: Mapping[str, set[FieldPath]]
    ) -> PhysScan:
        paths = sorted(required.get(node.binding, set()))
        access_path = "raw"
        if (
            self.cache_plugin is not None
            and paths
            and node.binding not in self._unnested_bindings
            and self.cache_plugin.can_serve(node.dataset, paths)
        ):
            access_path = "cache"
        return PhysScan(node.dataset, node.binding, paths, access_path=access_path)

    def _convert_join(
        self,
        node: Join,
        required: Mapping[str, set[FieldPath]],
        binding_datasets: Mapping[str, str],
    ) -> PhysicalPlan:
        left_logical, right_logical = node.left, node.right
        left_key, right_key, residual = extract_equi_key(
            node.predicate, left_logical.bindings(), right_logical.bindings()
        )
        left = self._convert(left_logical, required, binding_datasets)
        right = self._convert(right_logical, required, binding_datasets)
        if left_key is None or right_key is None:
            return PhysNestedLoopJoin(node.predicate, left, right, node.outer)
        left_rows = self.statistics.estimate_rows(left_logical, binding_datasets)
        right_rows = self.statistics.estimate_rows(right_logical, binding_datasets)
        if choose_build_side(left_rows, right_rows) and not node.outer:
            left, right = right, left
            left_key, right_key = right_key, left_key
        return PhysHashJoin(left_key, right_key, left, right, residual, node.outer)
