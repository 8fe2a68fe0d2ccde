"""Helpers for evaluating output columns that mix aggregates and arithmetic.

An output column such as ``sum(l.extendedprice) / count(*)`` contains
aggregate calls nested inside ordinary expressions.  Both executors compute
the aggregates first (per group; a global aggregate is one group) and then
substitute them back into the column expression before evaluating the
remainder: the Volcano interpreter substitutes each result as a literal, the
batch pipeline a reference to its per-group result column, so the head runs
as generated code.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.expressions import (
    AggregateCall,
    BinaryOp,
    Expression,
    IfThenElse,
    Literal,
    OutputColumn,
    RecordConstruct,
    UnaryOp,
)


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
