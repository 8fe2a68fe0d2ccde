"""Helpers for evaluating output columns that mix aggregates and arithmetic.

An output column such as ``sum(l.extendedprice) / count(*)`` contains
aggregate calls nested inside ordinary expressions.  Both executors evaluate
the aggregates first (per group, or globally) and then substitute the results
back into the column expression before evaluating the remainder.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping, Sequence

from repro.core.expressions import (
    AggregateCall,
    BinaryOp,
    Expression,
    IfThenElse,
    Literal,
    OutputColumn,
    RecordConstruct,
    UnaryOp,
    iter_aggregates,
)


class AggregateAccumulators:
    """Shared state and finalization of running aggregates.

    Both interpreters accumulate into the same per-fingerprint state (sums as
    floats, extrema as Python values, missing inputs skipped, the bare
    ``count`` counting every row) — only the update granularity differs: one
    tuple at a time in the Volcano executor, one batch at a time in the
    vectorized executor.  Each subclass supplies its own ``update``; keeping
    the state and ``finalize`` here guarantees the tiers cannot drift apart.
    """

    def __init__(self, columns: Sequence[OutputColumn]):
        self.aggregates: list[AggregateCall] = []
        seen: set[tuple] = set()
        for column in columns:
            for aggregate in iter_aggregates(column.expression):
                fingerprint = aggregate.fingerprint()
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    self.aggregates.append(aggregate)
        self.count = 0
        # Sums start at integer 0 so integer inputs accumulate exactly
        # (Python ints are arbitrary precision); floats promote on first add.
        self.sums: dict[tuple, Any] = defaultdict(int)
        self.mins: dict[tuple, Any] = {}
        self.maxs: dict[tuple, Any] = {}
        self.bools_and: dict[tuple, bool] = defaultdict(lambda: True)
        self.bools_or: dict[tuple, bool] = defaultdict(lambda: False)
        self.counts: dict[tuple, int] = defaultdict(int)

    def merge(self, other: "AggregateAccumulators") -> None:
        """Fold another accumulator's partial state into this one.

        This is the combine step of the batch executor's morsel fan-out: each
        morsel accumulates independently and the partials are merged in
        morsel order afterwards.  Merging is defined on the shared state, so
        partials from any ``update`` granularity combine correctly.
        """
        self.count += other.count
        for fingerprint, count in other.counts.items():
            self.counts[fingerprint] += count
        for fingerprint, total in other.sums.items():
            self.sums[fingerprint] += total
        for fingerprint, value in other.maxs.items():
            current = self.maxs.get(fingerprint)
            self.maxs[fingerprint] = (
                value if current is None else max(current, value)
            )
        for fingerprint, value in other.mins.items():
            current = self.mins.get(fingerprint)
            self.mins[fingerprint] = (
                value if current is None else min(current, value)
            )
        for fingerprint, value in other.bools_and.items():
            self.bools_and[fingerprint] = self.bools_and[fingerprint] and value
        for fingerprint, value in other.bools_or.items():
            self.bools_or[fingerprint] = self.bools_or[fingerprint] or value

    def finalize(self) -> dict[tuple, Any]:
        results: dict[tuple, Any] = {}
        for aggregate in self.aggregates:
            fingerprint = aggregate.fingerprint()
            if aggregate.func == "count":
                results[fingerprint] = (
                    self.count if aggregate.argument is None else self.counts[fingerprint]
                )
            elif aggregate.func == "sum":
                results[fingerprint] = self.sums[fingerprint]
            elif aggregate.func == "avg":
                count = self.counts[fingerprint]
                results[fingerprint] = self.sums[fingerprint] / count if count else float("nan")
            elif aggregate.func == "max":
                results[fingerprint] = self.maxs.get(fingerprint)
            elif aggregate.func == "min":
                results[fingerprint] = self.mins.get(fingerprint)
            elif aggregate.func == "and":
                results[fingerprint] = self.bools_and[fingerprint]
            elif aggregate.func == "or":
                results[fingerprint] = self.bools_or[fingerprint]
        return results


def replace_aggregates(
    expression: Expression, results: Mapping[tuple, Expression]
) -> Expression:
    """Replace each aggregate call with the expression holding its result.

    ``results`` maps aggregate fingerprints to replacement expressions
    (usually literals holding the computed value).
    """
    if isinstance(expression, AggregateCall):
        replacement = results.get(expression.fingerprint())
        if replacement is None:
            raise KeyError(f"no result for aggregate {expression!r}")
        return replacement
    if isinstance(expression, BinaryOp):
        return BinaryOp(
            expression.op,
            replace_aggregates(expression.left, results),
            replace_aggregates(expression.right, results),
        )
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.op, replace_aggregates(expression.operand, results))
    if isinstance(expression, IfThenElse):
        return IfThenElse(
            replace_aggregates(expression.condition, results),
            replace_aggregates(expression.then, results),
            replace_aggregates(expression.otherwise, results),
        )
    if isinstance(expression, RecordConstruct):
        return RecordConstruct(
            [(name, replace_aggregates(expr, results)) for name, expr in expression.fields]
        )
    return expression


def literal_results(values: Mapping[tuple, object]) -> dict[tuple, Expression]:
    """Wrap computed aggregate values as literal expressions."""
    return {fingerprint: Literal(value) for fingerprint, value in values.items()}


def unique_output_columns(columns: Sequence[OutputColumn]) -> list[OutputColumn]:
    """First occurrence per output name.  Result columns are keyed by name,
    and the planner rejects duplicate names over *different* expressions, so
    evaluating the first occurrence covers every duplicate."""
    seen: dict[str, OutputColumn] = {}
    for column in columns:
        seen.setdefault(column.name, column)
    return list(seen.values())
