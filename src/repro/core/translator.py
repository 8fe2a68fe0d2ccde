"""Calculus → nested relational algebra translation.

The translator walks the normalized comprehension's qualifiers in order and
builds a left-deep logical plan:

* a generator over a catalog dataset becomes a :class:`~repro.core.algebra.Scan`
  (joined to the plan built so far — initially as a cartesian product, later
  turned into an equi-join by the optimizer),
* a generator over a nested path becomes an :class:`~repro.core.algebra.Unnest`,
* a filter becomes a :class:`~repro.core.algebra.Select`,
* the head becomes a :class:`~repro.core.algebra.Reduce` (projection or global
  aggregation) or a :class:`~repro.core.algebra.Nest` (grouping).

This mirrors the paper's pipeline: the calculus is rewritten into an algebraic
tree that is then optimized with relational-style rules (§4).
"""

from __future__ import annotations

from repro.core.algebra import Join, LogicalPlan, Nest, Reduce, Scan, Select, Unnest
from repro.core.calculus import Comprehension, DatasetSource, Filter, Generator, PathSource
from repro.core.expressions import contains_aggregate
from repro.errors import TranslationError


def translate(comprehension: Comprehension) -> LogicalPlan:
    """Translate a validated comprehension into a logical plan."""
    comprehension.validate()
    plan: LogicalPlan | None = None

    for qualifier in comprehension.qualifiers:
        if isinstance(qualifier, Generator):
            plan = _translate_generator(qualifier, plan)
        elif isinstance(qualifier, Filter):
            if plan is None:
                raise TranslationError("filter appears before any generator")
            plan = Select(qualifier.predicate, plan)
        else:  # pragma: no cover - defensive
            raise TranslationError(f"unknown qualifier {qualifier!r}")

    if plan is None:
        raise TranslationError("query has no generators")

    return _translate_head(comprehension, plan)


def _translate_generator(generator: Generator, plan: LogicalPlan | None) -> LogicalPlan:
    source = generator.source
    if isinstance(source, DatasetSource):
        scan = Scan(source.dataset, generator.var)
        if plan is None:
            return scan
        # Cartesian product for now; the optimizer extracts equi-join
        # predicates from enclosing selections and reorders joins.
        return Join(None, plan, scan)
    if isinstance(source, PathSource):
        if plan is None:
            raise TranslationError(
                f"path generator {generator!r} cannot be the first generator"
            )
        if source.binding not in plan.bindings():
            raise TranslationError(
                f"path generator {generator!r} references binding "
                f"{source.binding!r} which is not produced by the plan so far"
            )
        return Unnest(
            source.binding, source.path, generator.var, plan, outer=generator.outer
        )
    raise TranslationError(f"unknown generator source {source!r}")


def _translate_head(comprehension: Comprehension, plan: LogicalPlan) -> LogicalPlan:
    has_aggregates = any(contains_aggregate(c.expression) for c in comprehension.head)

    if comprehension.group_by:
        if not has_aggregates:
            raise TranslationError("GROUP BY requires at least one aggregate output column")
        return Nest(comprehension.head, comprehension.group_by, plan)

    if has_aggregates:
        # Constants (literals, parameters) beside aggregates read no row.
        plain = [
            c.name
            for c in comprehension.head
            if not contains_aggregate(c.expression) and c.expression.referenced_fields()
        ]
        if plain:
            raise TranslationError(
                f"non-aggregate output columns {plain} require a GROUP BY clause"
            )
        return Reduce("agg", comprehension.head, plan)

    return Reduce(comprehension.monoid, comprehension.head, plan)
