"""Expression generators (§5.2, "Expression Generation").

An expression generator turns an algebraic expression into the body of one
generated function over a columnar batch.  Field references become lookups
in the batch's virtual-buffer table (``c`` — the mapping from
``(binding, path)`` to the NumPy buffer the plug-in populated), literals are
inlined, parameters are looked up in the execution's bound values, and every
operator becomes a direct call of its null-aware kernel (the same semantics
as Volcano's per-row ``Expression.evaluate``), with no tree walk.
"""

from __future__ import annotations

import math

from repro.core.codegen.context import CodegenContext
from repro.core.expressions import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
    AggregateCall,
    BinaryOp,
    Expression,
    FieldRef,
    IfThenElse,
    Literal,
    Parameter,
    RecordConstruct,
    UnaryOp,
)
from repro.errors import CodegenError


def generate_expression(expression: Expression, ctx: CodegenContext) -> str:
    """Return Python/NumPy source evaluating ``expression`` inside a
    generated ``def f(batch)`` whose prologue bound ``c = batch.columns``."""
    if isinstance(expression, Literal):
        return _literal_source(expression.value, ctx)
    if isinstance(expression, Parameter):
        # Parameters stay lookups instead of inlined constants, so one
        # compiled module serves every parameter binding (the plan
        # fingerprint abstracts the value the same way).
        return f"param(batch.params, {expression.key!r})"
    if isinstance(expression, FieldRef):
        return f"c[{(expression.binding, tuple(expression.path))!r}]"
    if isinstance(expression, BinaryOp):
        left = generate_expression(expression.left, ctx)
        right = generate_expression(expression.right, ctx)
        if expression.op in ARITHMETIC_OPS:
            return f"radix.null_safe_arith({expression.op!r}, {left}, {right})"
        if expression.op in COMPARISON_OPS:
            return f"radix.null_safe_compare({expression.op!r}, {left}, {right})"
        # Operands go through mask() so bare (non-boolean) operands coerce
        # elementwise and missing values are false.
        if expression.op == "and":
            return f"(mask({left}, batch.count) & mask({right}, batch.count))"
        if expression.op == "or":
            return f"(mask({left}, batch.count) | mask({right}, batch.count))"
        raise CodegenError(f"unsupported binary operator {expression.op!r}")
    if isinstance(expression, UnaryOp):
        operand = generate_expression(expression.operand, ctx)
        if expression.op == "-":
            return f"radix.null_safe_neg({operand})"
        return f"(~mask({operand}, batch.count))"
    if isinstance(expression, IfThenElse):
        condition = generate_expression(expression.condition, ctx)
        then = generate_expression(expression.then, ctx)
        otherwise = generate_expression(expression.otherwise, ctx)
        return (
            f"np.where(mask({condition}, batch.count), "
            f"column({then}, batch.count), column({otherwise}, batch.count))"
        )
    if isinstance(expression, AggregateCall):
        raise CodegenError(
            "aggregate calls are folded by the pipeline's root tasks, not by "
            "the expression generator"
        )
    if isinstance(expression, RecordConstruct):
        raise CodegenError(
            "record construction in output columns is served by the Volcano "
            "executor fallback"
        )
    raise CodegenError(f"cannot generate code for expression {expression!r}")


def _literal_source(value: object, ctx: CodegenContext) -> str:
    """Inline a literal; values whose ``repr`` is not source (NaN, infinities,
    non-scalar objects) travel as registered module constants instead."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float) and math.isfinite(value):
        return repr(value)
    return ctx.register_constant("literal", value)


def supported_by_codegen(expression: Expression) -> bool:
    """Whether the expression generator can evaluate ``expression``."""
    if isinstance(expression, (Literal, FieldRef, Parameter)):
        return True
    if isinstance(expression, (BinaryOp, UnaryOp, IfThenElse)):
        return all(supported_by_codegen(child) for child in expression.children())
    if isinstance(expression, AggregateCall):
        return expression.argument is None or supported_by_codegen(expression.argument)
    return False
