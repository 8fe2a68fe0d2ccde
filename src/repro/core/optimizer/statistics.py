"""Statistics and selectivity estimation.

The metadata store keeps per-dataset cardinalities and min/max values per
attribute (§5.2); the input plug-ins collect them during cold accesses or when
a blocking operator materializes values.  The estimator below instantiates the
standard textbook formulas with those statistics — the paper's stated baseline
("assume that the default selectivity of a predicate is 10%", uniform ranges
for range predicates) — and is consulted by join ordering, build-side
selection and ``explain()``'s estimated cardinalities.

Bound query-parameter values arrive as the ``parameters`` argument of each
estimate: range/equality formulas then use the concrete constants of a
prepared execution, and ``None`` (or a missing key) falls back to the default
selectivities.  One manager serves every session of an engine, so it keeps no
per-estimate state.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.algebra import Join, LogicalPlan, Nest, Reduce, Scan, Select, Unnest
from repro.core.expressions import (
    BinaryOp,
    Expression,
    FieldRef,
    Literal,
    Parameter,
    UnaryOp,
    conjuncts,
)
from repro.errors import SchemaError
from repro.storage.catalog import Catalog, DatasetStatistics

#: Fallbacks used when no statistics are available.
DEFAULT_SELECTIVITY = 0.1
DEFAULT_EQUALITY_SELECTIVITY = 0.01
DEFAULT_CARDINALITY = 1_000_000
DEFAULT_UNNEST_FANOUT = 4.0


class StatisticsManager:
    """Estimates cardinalities and selectivities from catalog statistics."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- dataset level ---------------------------------------------------------

    def dataset_cardinality(self, dataset: str) -> int:
        statistics = self._statistics(dataset)
        if statistics is None:
            return DEFAULT_CARDINALITY
        return statistics.cardinality

    def _statistics(self, dataset: str) -> DatasetStatistics | None:
        if dataset in self.catalog:
            return self.catalog.get(dataset).statistics
        return None

    # -- predicate selectivity ----------------------------------------------------

    def predicate_selectivity(
        self,
        predicate: Expression | None,
        binding_datasets: Mapping[str, str],
        parameters: Mapping[int | str, object] | None = None,
    ) -> float:
        """Estimated fraction of input satisfying ``predicate``."""
        if predicate is None:
            return 1.0
        selectivity = 1.0
        for conjunct in conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(conjunct, binding_datasets, parameters)
        return max(min(selectivity, 1.0), 1e-6)

    def _conjunct_selectivity(
        self,
        predicate: Expression,
        binding_datasets: Mapping[str, str],
        parameters: Mapping[int | str, object] | None,
    ) -> float:
        def selectivity(operand: Expression) -> float:
            return self._conjunct_selectivity(operand, binding_datasets, parameters)

        if isinstance(predicate, Literal):
            return 1.0 if predicate.value else 0.0
        if isinstance(predicate, UnaryOp) and predicate.op == "not":
            return 1.0 - selectivity(predicate.operand)
        if isinstance(predicate, BinaryOp):
            if predicate.op == "or":
                left = selectivity(predicate.left)
                right = selectivity(predicate.right)
                return min(left + right - left * right, 1.0)
            if predicate.op == "and":
                return selectivity(predicate.left) * selectivity(predicate.right)
            return self._comparison_selectivity(predicate, binding_datasets, parameters)
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(
        self,
        predicate: BinaryOp,
        binding_datasets: Mapping[str, str],
        parameters: Mapping[int | str, object] | None,
    ) -> float:
        field, literal, op = _normalize_comparison(predicate, parameters)
        if field is None or literal is None:
            return (
                DEFAULT_EQUALITY_SELECTIVITY
                if predicate.op == "="
                else DEFAULT_SELECTIVITY
            )
        dataset = binding_datasets.get(field.binding)
        statistics = self._statistics(dataset) if dataset else None
        if statistics is None or not field.path:
            return DEFAULT_EQUALITY_SELECTIVITY if op == "=" else DEFAULT_SELECTIVITY
        field_name = ".".join(field.path)
        value_range = statistics.value_range(field_name) or statistics.value_range(
            field.path[0]
        )
        if value_range is None or not isinstance(literal.value, (int, float)):
            return DEFAULT_EQUALITY_SELECTIVITY if op == "=" else DEFAULT_SELECTIVITY
        low, high = value_range
        if high <= low:
            return DEFAULT_SELECTIVITY
        value = float(literal.value)
        span = high - low
        if op == "=":
            distinct = statistics.distinct_estimates.get(field_name)
            return 1.0 / distinct if distinct else DEFAULT_EQUALITY_SELECTIVITY
        if op in ("<", "<="):
            return min(max((value - low) / span, 0.0), 1.0)
        if op in (">", ">="):
            return min(max((high - value) / span, 0.0), 1.0)
        if op == "!=":
            return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
        return DEFAULT_SELECTIVITY

    # -- plan-level cardinality -----------------------------------------------------

    def estimate_rows(
        self,
        plan: LogicalPlan,
        binding_datasets: Mapping[str, str],
        parameters: Mapping[int | str, object] | None = None,
    ) -> float:
        """Rough output cardinality of a logical plan fragment."""

        def rows(node: LogicalPlan) -> float:
            return self.estimate_rows(node, binding_datasets, parameters)

        def selectivity(predicate: Expression | None) -> float:
            return self.predicate_selectivity(predicate, binding_datasets, parameters)

        if isinstance(plan, Scan):
            return float(self.dataset_cardinality(plan.dataset))
        if isinstance(plan, Select):
            return rows(plan.child) * selectivity(plan.predicate)
        if isinstance(plan, Join):
            left = rows(plan.left)
            right = rows(plan.right)
            if plan.predicate is None:
                return left * right
            join_selectivity = selectivity(plan.predicate)
            # Equi-join estimate: |L| * |R| / max(distinct) approximated with
            # the generic selectivity when distinct counts are unknown.
            return max(left * right * max(join_selectivity, 1.0 / max(left, right, 1.0)), 1.0)
        if isinstance(plan, Unnest):
            return rows(plan.child) * DEFAULT_UNNEST_FANOUT * selectivity(plan.predicate)
        if isinstance(plan, (Reduce, Nest)):
            return rows(plan.child)
        children = plan.children()
        if children:
            return rows(children[0])
        return float(DEFAULT_CARDINALITY)


def _normalize_comparison(
    predicate: BinaryOp,
    parameters: Mapping[int | str, object] | None = None,
) -> tuple[FieldRef | None, Literal | None, str]:
    """Orient a comparison as ``field op literal`` when possible.

    A :class:`Parameter` whose value is bound in ``parameters`` counts
    as a literal of that value, so prepared executions are estimated with the
    same formulas as literal queries."""

    def as_literal(expression: Expression) -> Literal | None:
        if isinstance(expression, Literal):
            return expression
        if (
            isinstance(expression, Parameter)
            and parameters is not None
            and expression.key in parameters
        ):
            try:
                return Literal(parameters[expression.key])
            except SchemaError:
                return None  # untypable value: fall back to defaults
        return None

    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    if isinstance(predicate.left, FieldRef):
        literal = as_literal(predicate.right)
        if literal is not None:
            return predicate.left, literal, predicate.op
    if isinstance(predicate.right, FieldRef):
        literal = as_literal(predicate.left)
        if literal is not None:
            return predicate.right, literal, flipped.get(predicate.op, predicate.op)
    return None, None, predicate.op
