"""Name resolution for SQL queries.

The SQL parser leaves every column reference unresolved (binding ``"?"``)
because it does not know the catalog.  The binder rewrites each reference to a
concrete generator binding using the schemas of the referenced datasets:

* ``alias.column.path`` — the first path element names a generator alias,
* ``column.path`` — the column is looked up in the schema of every generator;
  exactly one generator must define it,
* ``SELECT *`` — expanded to every top-level field of every generator,
  in generator order.

The comprehension frontend produces fully-bound references, so it bypasses the
binder entirely.
"""

from __future__ import annotations

from typing import Mapping

from repro.core import types as t
from repro.core.calculus import Comprehension, DatasetSource, Filter, PathSource
from repro.core.expressions import (
    AggregateCall,
    BinaryOp,
    Expression,
    FieldRef,
    IfThenElse,
    Literal,
    OutputColumn,
    Parameter,
    RecordConstruct,
    UnaryOp,
)
from repro.core.sql_parser import UNRESOLVED
from repro.errors import SchemaError


def bind_comprehension(
    comprehension: Comprehension, catalog_types: Mapping[str, t.RecordType]
) -> Comprehension:
    """Resolve unqualified references and ``SELECT *`` against the catalog.

    ``catalog_types`` maps dataset names to their element record types.
    Returns a new, validated comprehension; the input is not modified.
    """
    scope = _generator_scope(comprehension, catalog_types)
    binder = _Binder(scope)

    qualifiers = []
    for qualifier in comprehension.qualifiers:
        if isinstance(qualifier, Filter):
            qualifiers.append(Filter(binder.bind(qualifier.predicate)))
        else:
            qualifiers.append(qualifier)

    head: list[OutputColumn] = []
    for column in comprehension.head:
        if column.name == "*" and isinstance(column.expression, FieldRef) \
                and column.expression.binding == UNRESOLVED \
                and column.expression.path == ("*",):
            head.extend(_expand_star(comprehension, scope))
        else:
            head.append(OutputColumn(column.name, binder.bind(column.expression)))

    group_by = [binder.bind(expression) for expression in comprehension.group_by]

    bound = Comprehension(
        monoid=comprehension.monoid,
        head=head,
        qualifiers=qualifiers,
        group_by=group_by,
        order_by=list(comprehension.order_by),
        limit=comprehension.limit,
    )
    bound.validate()
    return bound


def _generator_scope(
    comprehension: Comprehension, catalog_types: Mapping[str, t.RecordType]
) -> dict[str, t.RecordType]:
    scope: dict[str, t.RecordType] = {}
    for generator in comprehension.generators():
        source = generator.source
        if isinstance(source, DatasetSource):
            try:
                scope[generator.var] = catalog_types[source.dataset]
            except KeyError as exc:
                raise SchemaError(f"unknown dataset {source.dataset!r}") from exc
        elif isinstance(source, PathSource):
            base = scope.get(source.binding)
            if base is None:
                raise SchemaError(
                    f"path generator {generator!r} over unbound variable"
                )
            element = base.resolve_path(source.path)
            if isinstance(element, t.CollectionType):
                element = element.element
            if isinstance(element, t.RecordType):
                scope[generator.var] = element
            else:
                scope[generator.var] = t.RecordType([t.Field("value", element)])
    return scope


def _expand_star(
    comprehension: Comprehension, scope: Mapping[str, t.RecordType]
) -> list[OutputColumn]:
    columns: list[OutputColumn] = []
    used_names: set[str] = set()
    for generator in comprehension.generators():
        record = scope.get(generator.var)
        if record is None:
            continue
        for field in record.fields:
            if field.dtype.is_primitive():
                name = field.name
                if name in used_names:
                    name = f"{generator.var}_{field.name}"
                used_names.add(name)
                columns.append(OutputColumn(name, FieldRef(generator.var, (field.name,))))
    return columns


class _Binder:
    def __init__(self, scope: Mapping[str, t.RecordType]):
        self.scope = scope

    def bind(self, expression: Expression) -> Expression:
        if isinstance(expression, FieldRef):
            return self._bind_field(expression)
        if isinstance(expression, (Literal, Parameter)):
            # Parameters resolve to values at execution time, not to columns;
            # they pass through binding (and normalization) untouched.
            return expression
        if isinstance(expression, BinaryOp):
            return BinaryOp(expression.op, self.bind(expression.left), self.bind(expression.right))
        if isinstance(expression, UnaryOp):
            return UnaryOp(expression.op, self.bind(expression.operand))
        if isinstance(expression, AggregateCall):
            argument = self.bind(expression.argument) if expression.argument is not None else None
            return AggregateCall(expression.func, argument)
        if isinstance(expression, RecordConstruct):
            return RecordConstruct(
                [(name, self.bind(expr)) for name, expr in expression.fields]
            )
        if isinstance(expression, IfThenElse):
            return IfThenElse(
                self.bind(expression.condition),
                self.bind(expression.then),
                self.bind(expression.otherwise),
            )
        return expression

    def _bind_field(self, reference: FieldRef) -> FieldRef:
        if reference.binding != UNRESOLVED:
            return reference
        path = reference.path
        if not path:
            raise SchemaError("empty column reference")
        first = path[0]
        # Case 1: the first element is a generator alias.
        if first in self.scope:
            return FieldRef(first, path[1:])
        # Case 2: unqualified column — search generator schemas.
        owners = [
            var for var, record in self.scope.items() if record.has_field(first)
        ]
        if not owners:
            raise SchemaError(
                f"column {'.'.join(path)!r} not found in any dataset in scope "
                f"({sorted(self.scope)})"
            )
        if len(owners) > 1:
            raise SchemaError(
                f"column {first!r} is ambiguous; qualify it with one of {owners}"
            )
        return FieldRef(owners[0], path)
