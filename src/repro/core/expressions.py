"""Expression AST of the nested relational algebra.

Expressions appear in selection predicates, join predicates, projection /
aggregation heads, group-by keys and cache definitions.  They reference fields
of *bindings* — the variables introduced by generators in the calculus (and by
scans/unnests in the algebra) — through possibly nested paths, which is how
the engine reaches into JSON hierarchies.

Every expression supports three independent consumers:

* ``evaluate(env)`` — tuple-at-a-time interpretation, used by the Volcano
  executor and by the baseline engines,
* ``fingerprint()`` — a structural key used by the caching manager when
  matching plans against materialized caches,
* the expression generator (``repro.core.codegen.expr_gen``) walks the same
  AST to emit the NumPy function the batch pipeline calls per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core import types as t
from repro.errors import ExecutionError, SchemaError

# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


class Expression:
    """Base class of all expressions."""

    def children(self) -> tuple["Expression", ...]:
        return ()

    # -- analysis -----------------------------------------------------------

    def referenced_fields(self) -> set[tuple[str, tuple[str, ...]]]:
        """Return the set of ``(binding, path)`` pairs this expression reads."""
        refs: set[tuple[str, tuple[str, ...]]] = set()
        for child in self.children():
            refs |= child.referenced_fields()
        return refs

    def bindings(self) -> set[str]:
        """Return the names of all bindings this expression depends on."""
        return {binding for binding, _ in self.referenced_fields()}

    def fingerprint(self) -> tuple:
        """A hashable structural key identifying this expression."""
        raise NotImplementedError

    # -- transformation -----------------------------------------------------

    def substitute_binding(self, old: str, new: str) -> "Expression":
        """Return a copy with references to binding ``old`` renamed to ``new``."""
        return self._rebuild([c.substitute_binding(old, new) for c in self.children()])

    def _rebuild(self, children: Sequence["Expression"]) -> "Expression":
        if not children:
            return self
        raise NotImplementedError

    # -- interpretation -----------------------------------------------------

    def evaluate(self, env: Mapping[str, object]) -> object:
        """Evaluate the expression against an environment of bound values."""
        raise NotImplementedError

    # -- typing -------------------------------------------------------------

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        """Infer the result type given the record type of each binding."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return to_string(self)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: object, dtype: t.DataType | None = None):
        self.value = value
        self.dtype = dtype if dtype is not None else t.infer_type(value)

    def fingerprint(self) -> tuple:
        return ("lit", self.value, self.dtype.name)

    def evaluate(self, env: Mapping[str, object]) -> object:
        return self.value

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        return self.dtype


class FieldRef(Expression):
    """A reference to a (possibly nested) field of a binding.

    ``FieldRef("l", ("quantity",))`` is ``l.quantity``;
    ``FieldRef("s", ("address", "city"))`` is ``s.address.city``;
    ``FieldRef("x", ())`` denotes the bound value itself (useful after an
    unnest of a collection of primitives).
    """

    def __init__(self, binding: str, path: Sequence[str] = ()):
        self.binding = binding
        self.path = tuple(path)

    def fingerprint(self) -> tuple:
        return ("field", self.binding, self.path)

    def referenced_fields(self) -> set[tuple[str, tuple[str, ...]]]:
        return {(self.binding, self.path)}

    def substitute_binding(self, old: str, new: str) -> "Expression":
        if self.binding == old:
            return FieldRef(new, self.path)
        return self

    def evaluate(self, env: Mapping[str, object]) -> object:
        try:
            value = env[self.binding]
        except KeyError as exc:
            raise ExecutionError(f"unbound variable {self.binding!r}") from exc
        return t.dig_path(value, self.path)

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        try:
            base = scope[self.binding]
        except KeyError as exc:
            raise SchemaError(f"unknown binding {self.binding!r}") from exc
        if not self.path:
            return base
        if not isinstance(base, t.RecordType):
            raise SchemaError(f"binding {self.binding!r} is not a record")
        return base.resolve_path(self.path)

    def extend(self, step: str) -> "FieldRef":
        """Return a new reference one path step deeper."""
        return FieldRef(self.binding, self.path + (step,))


#: Reserved environment key under which bound parameter values travel through
#: tuple-at-a-time evaluation.  It is not a generator binding: parameters never
#: appear in ``referenced_fields``/``bindings`` analyses, so scoping validation
#: and projection pushdown ignore them.
PARAMS_BINDING = "__params__"


def parameter_env(params: Mapping[object, object] | None) -> dict[str, object]:
    """Wrap a parameter-value mapping as a tuple evaluation environment."""
    return {} if not params else {PARAMS_BINDING: params}


class Parameter(Expression):
    """A query parameter placeholder: ``?`` (positional) or ``:name`` (named).

    The node survives binding, normalization, translation and planning, so a
    plan's fingerprint abstracts over the constant (``("param", key)`` instead
    of a literal value) — one compiled program serves every binding of the
    parameter.  Evaluation reads the value from the parameter environment the
    executing tier provides (:data:`PARAMS_BINDING` for tuple-at-a-time
    evaluation, ``Batch.params`` in the batch pipeline — interpreted and
    generated expressions alike).
    """

    def __init__(self, key: int | str):
        self.key = key

    @property
    def display(self) -> str:
        return f"?{self.key}" if isinstance(self.key, int) else f":{self.key}"

    def fingerprint(self) -> tuple:
        return ("param", self.key)

    def evaluate(self, env: Mapping[str, object]) -> object:
        params = env.get(PARAMS_BINDING)
        if params is None or self.key not in params:
            raise ExecutionError(
                f"query parameter {self.display} is not bound; execute the "
                "query through PreparedQuery.execute() with a value for it"
            )
        return params[self.key]

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        raise SchemaError(
            f"the type of parameter {self.display} is unknown until a value is bound"
        )


def iter_parameters(expression: Expression) -> Iterator["Parameter"]:
    """Yield every parameter placeholder in the expression tree."""
    if isinstance(expression, Parameter):
        yield expression
        return
    for child in expression.children():
        yield from iter_parameters(child)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _divide(a, b):
    """Division matching the columnar tiers' NumPy semantics: a zero divisor
    yields ±inf / NaN instead of raising ZeroDivisionError."""
    try:
        return a / b
    except ZeroDivisionError:
        if a > 0:
            return float("inf")
        if a < 0:
            return float("-inf")
        return float("nan")


def _modulo(a, b):
    """Modulo matching NumPy: ``x % 0`` is 0 for ints and NaN for floats."""
    try:
        return a % b
    except ZeroDivisionError:
        if isinstance(a, int) and isinstance(b, int):
            return 0
        return float("nan")


_ARITHMETIC_OPS: dict[str, Callable[[object, object], object]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _divide,
    "%": _modulo,
}

_COMPARISON_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_LOGICAL_OPS = ("and", "or")

ARITHMETIC_OPS = tuple(_ARITHMETIC_OPS)
COMPARISON_OPS = tuple(_COMPARISON_OPS)
LOGICAL_OPS = _LOGICAL_OPS

#: Scalar arithmetic/comparison functions shared with the columnar kernels so
#: every tier evaluates operators identically (arithmetic carries the
#: NumPy-aligned zero-divisor semantics).
ARITHMETIC_FUNCS = dict(_ARITHMETIC_OPS)
COMPARISON_FUNCS = dict(_COMPARISON_OPS)


class BinaryOp(Expression):
    """A binary arithmetic, comparison or logical expression."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITHMETIC_OPS and op not in _COMPARISON_OPS and op not in _LOGICAL_OPS:
            raise SchemaError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _rebuild(self, children: Sequence[Expression]) -> Expression:
        return BinaryOp(self.op, children[0], children[1])

    def fingerprint(self) -> tuple:
        return ("bin", self.op, self.left.fingerprint(), self.right.fingerprint())

    def evaluate(self, env: Mapping[str, object]) -> object:
        if self.op == "and":
            return t.truthy(self.left.evaluate(env)) and t.truthy(self.right.evaluate(env))
        if self.op == "or":
            return t.truthy(self.left.evaluate(env)) or t.truthy(self.right.evaluate(env))
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if self.op in _ARITHMETIC_OPS:
            if left is None or right is None:
                return None
            return _ARITHMETIC_OPS[self.op](left, right)
        # Comparisons with a missing operand (None, or NaN in float data) are
        # false in every execution tier.
        if t.is_missing(left) or t.is_missing(right):
            return False
        return _COMPARISON_OPS[self.op](left, right)

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        if self.op in _COMPARISON_OPS or self.op in _LOGICAL_OPS:
            return t.BOOL
        left = self.left.result_type(scope)
        right = self.right.result_type(scope)
        if self.op == "/":
            return t.FLOAT
        return t.arithmetic_result_type(left, right)


class UnaryOp(Expression):
    """Unary negation (``-x``) or logical not (``not x``)."""

    def __init__(self, op: str, operand: Expression):
        if op not in ("-", "not"):
            raise SchemaError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def _rebuild(self, children: Sequence[Expression]) -> Expression:
        return UnaryOp(self.op, children[0])

    def fingerprint(self) -> tuple:
        return ("un", self.op, self.operand.fingerprint())

    def evaluate(self, env: Mapping[str, object]) -> object:
        value = self.operand.evaluate(env)
        if self.op == "-":
            return None if value is None else -value
        return not t.truthy(value)

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        if self.op == "not":
            return t.BOOL
        return self.operand.result_type(scope)


class RecordConstruct(Expression):
    """Construct a new record from named sub-expressions."""

    def __init__(self, fields: Mapping[str, Expression] | Sequence[tuple[str, Expression]]):
        items = fields.items() if isinstance(fields, Mapping) else fields
        self.fields: tuple[tuple[str, Expression], ...] = tuple(items)

    def children(self) -> tuple[Expression, ...]:
        return tuple(expr for _, expr in self.fields)

    def _rebuild(self, children: Sequence[Expression]) -> Expression:
        names = [name for name, _ in self.fields]
        return RecordConstruct(list(zip(names, children)))

    def fingerprint(self) -> tuple:
        return ("rec",) + tuple((name, expr.fingerprint()) for name, expr in self.fields)

    def evaluate(self, env: Mapping[str, object]) -> object:
        return {name: expr.evaluate(env) for name, expr in self.fields}

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        return t.RecordType(
            [t.Field(name, expr.result_type(scope)) for name, expr in self.fields]
        )


class IfThenElse(Expression):
    """A conditional expression."""

    def __init__(self, condition: Expression, then: Expression, otherwise: Expression):
        self.condition = condition
        self.then = then
        self.otherwise = otherwise

    def children(self) -> tuple[Expression, ...]:
        return (self.condition, self.then, self.otherwise)

    def _rebuild(self, children: Sequence[Expression]) -> Expression:
        return IfThenElse(children[0], children[1], children[2])

    def fingerprint(self) -> tuple:
        return (
            "if",
            self.condition.fingerprint(),
            self.then.fingerprint(),
            self.otherwise.fingerprint(),
        )

    def evaluate(self, env: Mapping[str, object]) -> object:
        if t.truthy(self.condition.evaluate(env)):
            return self.then.evaluate(env)
        return self.otherwise.evaluate(env)

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        return t.merge_types(self.then.result_type(scope), self.otherwise.result_type(scope))


class AggregateCall(Expression):
    """An aggregate over an input expression (``count`` may omit the argument).

    Aggregate calls only appear in the heads of Reduce and Nest operators; the
    planner rejects them anywhere else.
    """

    def __init__(self, func: str, argument: Expression | None = None):
        func = func.lower()
        if func not in t.AGGREGATE_MONOIDS:
            raise SchemaError(f"unknown aggregate {func!r}")
        if func != "count" and argument is None:
            raise SchemaError(f"aggregate {func!r} requires an argument")
        self.func = func
        self.argument = argument

    def children(self) -> tuple[Expression, ...]:
        return (self.argument,) if self.argument is not None else ()

    def _rebuild(self, children: Sequence[Expression]) -> Expression:
        return AggregateCall(self.func, children[0] if children else None)

    def substitute_binding(self, old: str, new: str) -> Expression:
        if self.argument is None:
            return self
        return AggregateCall(self.func, self.argument.substitute_binding(old, new))

    def fingerprint(self) -> tuple:
        arg = self.argument.fingerprint() if self.argument is not None else None
        return ("agg", self.func, arg)

    def evaluate(self, env: Mapping[str, object]) -> object:
        raise ExecutionError("aggregate calls cannot be evaluated tuple-at-a-time")

    def result_type(self, scope: Mapping[str, t.DataType]) -> t.DataType:
        if self.func == "count":
            return t.INT
        if self.func == "avg":
            return t.FLOAT
        assert self.argument is not None
        arg_type = self.argument.result_type(scope)
        if self.func in ("and", "or"):
            return t.BOOL
        return arg_type


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.op == "and":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


def conjunction(predicates: Iterable[Expression]) -> Expression | None:
    """Combine predicates into a single conjunction (``None`` when empty)."""
    result: Expression | None = None
    for predicate in predicates:
        result = predicate if result is None else BinaryOp("and", result, predicate)
    return result


def contains_aggregate(expression: Expression) -> bool:
    """Return True if the expression tree contains an :class:`AggregateCall`."""
    if isinstance(expression, AggregateCall):
        return True
    return any(contains_aggregate(child) for child in expression.children())


def iter_aggregates(expression: Expression) -> Iterator[AggregateCall]:
    """Yield every aggregate call contained in the expression tree."""
    if isinstance(expression, AggregateCall):
        yield expression
        return
    for child in expression.children():
        yield from iter_aggregates(child)


def is_equi_join_predicate(
    predicate: Expression, left_bindings: set[str], right_bindings: set[str]
) -> tuple[Expression, Expression] | None:
    """If ``predicate`` is ``left_expr = right_expr`` across the two binding
    sets, return the pair ``(left_expr, right_expr)`` oriented left/right;
    otherwise return ``None``."""
    if not isinstance(predicate, BinaryOp) or predicate.op != "=":
        return None
    a_bindings = predicate.left.bindings()
    b_bindings = predicate.right.bindings()
    if a_bindings and b_bindings:
        if a_bindings <= left_bindings and b_bindings <= right_bindings:
            return predicate.left, predicate.right
        if a_bindings <= right_bindings and b_bindings <= left_bindings:
            return predicate.right, predicate.left
    return None


def to_string(expression: Expression) -> str:
    """Render an expression as a readable string (used by EXPLAIN output)."""
    if isinstance(expression, Literal):
        return repr(expression.value)
    if isinstance(expression, FieldRef):
        if not expression.path:
            return expression.binding
        return expression.binding + "." + ".".join(expression.path)
    if isinstance(expression, Parameter):
        return expression.display
    if isinstance(expression, BinaryOp):
        return f"({to_string(expression.left)} {expression.op} {to_string(expression.right)})"
    if isinstance(expression, UnaryOp):
        return f"({expression.op} {to_string(expression.operand)})"
    if isinstance(expression, RecordConstruct):
        inner = ", ".join(f"{name}: {to_string(expr)}" for name, expr in expression.fields)
        return f"<{inner}>"
    if isinstance(expression, IfThenElse):
        return (
            f"if {to_string(expression.condition)} then {to_string(expression.then)} "
            f"else {to_string(expression.otherwise)}"
        )
    if isinstance(expression, AggregateCall):
        arg = to_string(expression.argument) if expression.argument is not None else "*"
        return f"{expression.func}({arg})"
    return object.__repr__(expression)


@dataclass(frozen=True)
class OutputColumn:
    """A named output column of a query: a label and the expression computing it."""

    name: str
    expression: Expression

    def fingerprint(self) -> tuple:
        return (self.name, self.expression.fingerprint())
