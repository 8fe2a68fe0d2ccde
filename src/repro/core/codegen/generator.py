"""Per-query code generation (§5.1, "An Engine per Query").

The engine that runs a query is the batch pipeline of
:mod:`repro.core.executor.vectorized`: plug-in scans feed per-batch stages
and a root task.  What is *customized* per query is what the paper's
generators emit into that engine — the expressions (§5.2): the generator
traverses the physical plan once and emits one module holding one
straight-line NumPy function per select / unnest / join-residual predicate,
join key, group key, aggregate argument and output head of the plan.
Literals are inlined, parameters are looked up in the bound values (so one
module serves every binding), and every operator is a direct call of the
null-aware kernel — the decisions an interpreter would take per batch
(which node type, which operator, which operand shape) are taken exactly
once, here.

The module is compiled by :mod:`repro.core.codegen.compiler` into a
:class:`~repro.core.codegen.compiler.GeneratedQuery` and handed to the
pipeline, whose stages and root tasks evaluate every plan expression by
calling its function.  The generator reads expressions only, never a schema
or a dataset: one module serves every plan that evaluates the same
expressions (:func:`module_key`) — across catalog changes, and across plans
that scan other datasets under the same aliases (the engine's bounded module
cache and each prepared query's shape keep it).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.aggregate_utils import unique_output_columns
from repro.core.codegen.compiler import GeneratedQuery, compile_query
from repro.core.codegen.context import CodegenContext
from repro.core.codegen.expr_gen import generate_expression
from repro.core.executor.vectorized import (
    collect_nest_aggregates,
    grouping_keys,
    nest_heads,
)
from repro.core.expressions import Expression, to_string
from repro.core.physical import (
    PhysNest,
    PhysReduce,
    PhysicalPlan,
    expressions_of,
)
from repro.errors import CodegenError


#: One expression the pipeline evaluates: ``(role, expression, its
#: fingerprint)``.
PlanExpression = tuple[str, Expression, tuple]


def plan_expressions(plan: PhysicalPlan) -> list[PlanExpression]:
    """Every expression the batch pipeline evaluates per batch for ``plan``,
    as ``(role, expression, fingerprint)`` in plan order — one walk, which
    both :func:`module_key` and :meth:`CodeGenerator.generate` read."""
    return [
        (role, expression, expression.fingerprint())
        for role, expression in _roles(plan)
    ]


def _roles(plan: PhysicalPlan) -> Iterator[tuple[str, Expression]]:
    if not isinstance(plan, (PhysReduce, PhysNest)):
        raise CodegenError(f"plan root must be Reduce or Nest, got {plan.describe()}")
    for node in plan.child.walk():
        role = type(node).__name__.removeprefix("Phys").lower()
        for expression in expressions_of(node):
            yield role, expression
    keys = grouping_keys(plan)
    if keys is None:
        for column in unique_output_columns(plan.columns):
            yield f"out_{column.name}", column.expression
        return
    group_keys, aggregates = collect_nest_aggregates(plan)
    for expression in keys:
        yield "group_key", expression
    for name, head in nest_heads(plan, group_keys, aggregates):
        if not isinstance(head, int):
            yield f"out_{name}", head
    for aggregate in aggregates:
        if aggregate.argument is not None:
            yield f"{aggregate.func}_argument", aggregate.argument


def module_key(expressions: list[PlanExpression]) -> tuple:
    """The key of a plan's generated module: the fingerprint of every
    expression of its :func:`plan_expressions`, with its role.  The module
    is a function of exactly these, so plans that differ only in what their
    scans read share it."""
    return tuple((role, fingerprint) for role, _, fingerprint in expressions)


class CodeGenerator:
    """Generates the fused expression functions of one physical plan."""

    def generate(self, expressions: list[PlanExpression]) -> GeneratedQuery:
        """The module of a plan, given as its :func:`plan_expressions` (the
        list its :func:`module_key` is read from too)."""
        ctx = CodegenContext()
        ctx.emit("# One function per plan expression: columnar batch in, column")
        ctx.emit("# (or scalar, for constant expressions) out.")
        names: dict[tuple, str] = {}
        for role, expression, fingerprint in expressions:
            if fingerprint in names:
                continue
            name = names[fingerprint] = ctx.fresh(role)
            ctx.emit()
            ctx.emit()
            ctx.emit(f"def {name}(batch):  # {to_string(expression)}")
            ctx.emit("    c = batch.columns")
            ctx.emit(f"    return {generate_expression(expression, ctx)}")
        return compile_query(ctx, names)
