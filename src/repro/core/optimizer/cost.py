"""Cost model.

Costing of data accesses is delegated to the input plug-ins (§5.2): each
plug-in exposes a per-value extraction cost and a ``scan_cost`` formula, which
the optimizer instantiates with the statistics held in the catalog.  On top of
the plug-in costs, the model adds textbook formulas for the engine's physical
operators (a hash join materializes both sides, grouping materializes its
input, selections and reductions stream).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.optimizer.statistics import StatisticsManager
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysUnnest,
    PhysicalPlan,
)
from repro.plugins.base import InputPlugin
from repro.storage.catalog import Catalog

#: Per-row processing cost of pipelined operators (relative units).
PIPELINE_ROW_COST = 0.01
#: Per-row cost of materializing into a hash table / partition.
MATERIALIZE_ROW_COST = 0.05
#: Cost of reading a cached binary column per row.
CACHE_ROW_COST = 0.002


class CostModel:
    """Estimates the execution cost of physical plans."""

    def __init__(
        self,
        catalog: Catalog,
        statistics: StatisticsManager,
        plugins: Mapping[str, InputPlugin],
    ):
        self.catalog = catalog
        self.statistics = statistics
        self.plugins = plugins

    # -- leaf costs --------------------------------------------------------------

    def scan_cost(self, scan: PhysScan) -> float:
        dataset = self.catalog.get(scan.dataset)
        cardinality = self.statistics.dataset_cardinality(scan.dataset)
        if scan.access_path == "cache":
            return cardinality * CACHE_ROW_COST * max(len(scan.paths), 1)
        plugin = self.plugins.get(dataset.format)
        if plugin is None:
            return cardinality * max(len(scan.paths), 1)
        return plugin.scan_cost(dataset, scan.paths, dataset.statistics)

    # -- plan costs ----------------------------------------------------------------

    def plan_cost(self, plan: PhysicalPlan, binding_datasets: Mapping[str, str]) -> float:
        """Total estimated cost of a physical plan."""
        rows, cost = self._cost(plan, binding_datasets)
        return cost

    def _cost(
        self, plan: PhysicalPlan, binding_datasets: Mapping[str, str]
    ) -> tuple[float, float]:
        if isinstance(plan, PhysScan):
            rows = float(self.statistics.dataset_cardinality(plan.dataset))
            return rows, self.scan_cost(plan)
        if isinstance(plan, PhysSelect):
            child_rows, child_cost = self._cost(plan.child, binding_datasets)
            selectivity = self.statistics.predicate_selectivity(
                plan.predicate, binding_datasets
            )
            return child_rows * selectivity, child_cost + child_rows * PIPELINE_ROW_COST
        if isinstance(plan, PhysUnnest):
            child_rows, child_cost = self._cost(plan.child, binding_datasets)
            fanout = 4.0
            selectivity = self.statistics.predicate_selectivity(
                plan.predicate, binding_datasets
            )
            rows = child_rows * fanout * selectivity
            return rows, child_cost + rows * PIPELINE_ROW_COST
        if isinstance(plan, PhysHashJoin):
            left_rows, left_cost = self._cost(plan.left, binding_datasets)
            right_rows, right_cost = self._cost(plan.right, binding_datasets)
            build = left_rows * MATERIALIZE_ROW_COST
            probe = right_rows * MATERIALIZE_ROW_COST
            output = max(left_rows, right_rows)
            return output, left_cost + right_cost + build + probe + output * PIPELINE_ROW_COST
        if isinstance(plan, PhysNestedLoopJoin):
            left_rows, left_cost = self._cost(plan.left, binding_datasets)
            right_rows, right_cost = self._cost(plan.right, binding_datasets)
            pairs = left_rows * right_rows
            return pairs * 0.1, left_cost + right_cost + pairs * PIPELINE_ROW_COST
        if isinstance(plan, PhysNest):
            child_rows, child_cost = self._cost(plan.child, binding_datasets)
            return child_rows * 0.1, child_cost + child_rows * MATERIALIZE_ROW_COST
        if isinstance(plan, PhysReduce):
            child_rows, child_cost = self._cost(plan.child, binding_datasets)
            return 1.0, child_cost + child_rows * PIPELINE_ROW_COST
        children = plan.children()
        if children:
            return self._cost(children[0], binding_datasets)
        return 1.0, 1.0
