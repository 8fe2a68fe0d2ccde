"""SQL frontend.

Proteus exposes SQL for relational-style queries over flat data and desugars
each statement into a monoid comprehension (§3).  The supported subset covers
the evaluation workloads of the paper:

* ``SELECT`` lists with arithmetic expressions, aggregates (COUNT/SUM/MIN/MAX/
  AVG) and aliases,
* ``FROM`` with any number of comma-separated or ``JOIN ... ON`` table
  references and optional aliases,
* ``WHERE`` with conjunctions/disjunctions of comparisons over (possibly
  nested) field paths,
* ``GROUP BY``, ``ORDER BY`` and ``LIMIT``,
* query parameters: ``?`` (positional, 0-based in order of appearance) and
  ``:name`` (named) placeholders anywhere a scalar expression is allowed;
  they parse into :class:`~repro.core.expressions.Parameter` nodes and are
  bound to values at execution time through ``PreparedQuery.execute``.

Column references may be qualified by a table alias (``l.quantity``) or left
unqualified (``quantity``); unqualified names and JSON paths are resolved
against the catalog by :mod:`repro.core.binder`.
"""

from __future__ import annotations

from repro.core.calculus import Comprehension, DatasetSource, Filter, Generator
from repro.core.expressions import (
    AggregateCall,
    BinaryOp,
    Expression,
    FieldRef,
    Literal,
    OutputColumn,
    Parameter,
    UnaryOp,
)
from repro.core.lexer import IDENT, NUMBER, STRING, SYMBOL, Token, TokenStream

#: Placeholder binding used for unqualified column references until binding.
UNRESOLVED = "?"

_AGGREGATE_NAMES = ("count", "sum", "min", "max", "avg")

_KEYWORDS = {
    "select", "from", "where", "group", "order", "by", "limit", "join", "inner",
    "left", "outer", "on", "and", "or", "not", "as", "asc", "desc",
}


def parse_sql(text: str, tokens: list[Token] | None = None) -> Comprehension:
    """Parse a SQL statement (or its ``tokenize(text)``) into a (possibly
    unbound) comprehension."""
    stream = TokenStream(text, tokens)
    parser = _SqlParser(stream)
    comprehension = parser.parse_query()
    if not stream.at_end():
        raise stream.error(f"unexpected trailing input {stream.current.value!r}")
    return comprehension


class _SqlParser:
    def __init__(self, stream: TokenStream):
        self.stream = stream
        #: Number of ``?`` placeholders seen so far; each gets the next
        #: 0-based positional parameter index.
        self.positional_parameters = 0

    # -- query structure ----------------------------------------------------

    def parse_query(self) -> Comprehension:
        self.stream.expect(IDENT, "select")
        select_items = self._parse_select_list()
        self.stream.expect(IDENT, "from")
        qualifiers: list = []
        qualifiers.append(self._parse_table_ref())
        join_filters: list[Expression] = []
        while True:
            if self.stream.accept(SYMBOL, ","):
                qualifiers.append(self._parse_table_ref())
                continue
            joined = self._parse_join_clause()
            if joined is None:
                break
            generator, on_predicate = joined
            qualifiers.append(generator)
            join_filters.append(on_predicate)
        predicate = None
        if self.stream.accept_keyword("where"):
            predicate = self._parse_expression()
        group_by: list[Expression] = []
        if self.stream.accept_keyword("group"):
            self.stream.expect(IDENT, "by")
            group_by = self._parse_expression_list()
        order_by: list[tuple[str, bool]] = []
        if self.stream.accept_keyword("order"):
            self.stream.expect(IDENT, "by")
            order_by = self._parse_order_list()
        limit: int | Parameter | None = None
        if self.stream.accept_keyword("limit"):
            if self.stream.accept(SYMBOL, "?"):
                limit = Parameter(self.positional_parameters)
                self.positional_parameters += 1
            elif self.stream.accept(SYMBOL, ":"):
                limit = Parameter(self.stream.expect(IDENT).value)
            else:
                # A signed literal parses so that ``LIMIT -3`` fails the same
                # validation as a ``LIMIT ?`` bound to -3, instead of a
                # confusing token error.
                negative = self.stream.accept(SYMBOL, "-") is not None
                limit = int(self.stream.expect(NUMBER).value)
                if negative:
                    limit = -limit

        for join_filter in join_filters:
            qualifiers.append(Filter(join_filter))
        if predicate is not None:
            qualifiers.append(Filter(predicate))

        head = self._build_head(select_items)
        monoid = "bag"
        return Comprehension(
            monoid=monoid,
            head=head,
            qualifiers=qualifiers,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
        )

    def _parse_select_list(self) -> list[tuple[Expression | None, str | None]]:
        items: list[tuple[Expression | None, str | None]] = []
        if self.stream.accept(SYMBOL, "*"):
            return [(None, None)]
        while True:
            expression = self._parse_expression()
            alias = None
            if self.stream.accept_keyword("as"):
                alias = self.stream.expect(IDENT).value
            elif self.stream.current.kind == IDENT and \
                    self.stream.current.value.lower() not in _KEYWORDS:
                alias = self.stream.advance().value
            items.append((expression, alias))
            if not self.stream.accept(SYMBOL, ","):
                break
        return items

    def _build_head(
        self, items: list[tuple[Expression | None, str | None]]
    ) -> list[OutputColumn]:
        head: list[OutputColumn] = []
        for index, (expression, alias) in enumerate(items):
            if expression is None:
                # SELECT * — expanded during binding once schemas are known.
                head.append(OutputColumn("*", FieldRef(UNRESOLVED, ("*",))))
                continue
            name = alias if alias is not None else _default_name(expression, index)
            head.append(OutputColumn(name, expression))
        return head

    def _parse_table_ref(self) -> Generator:
        dataset = self.stream.expect(IDENT).value
        alias = dataset
        if self.stream.accept_keyword("as"):
            alias = self.stream.expect(IDENT).value
        elif self.stream.current.kind == IDENT and \
                self.stream.current.value.lower() not in _KEYWORDS:
            alias = self.stream.advance().value
        return Generator(alias, DatasetSource(dataset))

    def _parse_join_clause(self) -> tuple[Generator, Expression] | None:
        saved = self.stream.index
        if self.stream.accept_keyword("inner"):
            pass
        elif self.stream.accept_keyword("left"):
            self.stream.accept_keyword("outer")
        if not self.stream.accept_keyword("join"):
            self.stream.index = saved
            return None
        generator = self._parse_table_ref()
        self.stream.expect(IDENT, "on")
        predicate = self._parse_expression()
        return generator, predicate

    def _parse_expression_list(self) -> list[Expression]:
        expressions = [self._parse_expression()]
        while self.stream.accept(SYMBOL, ","):
            expressions.append(self._parse_expression())
        return expressions

    def _parse_order_list(self) -> list[tuple[str, bool]]:
        items: list[tuple[str, bool]] = []
        while True:
            name = self.stream.expect(IDENT).value
            ascending = True
            if self.stream.accept_keyword("desc"):
                ascending = False
            else:
                self.stream.accept_keyword("asc")
            items.append((name, ascending))
            if not self.stream.accept(SYMBOL, ","):
                break
        return items

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.stream.accept_keyword("or"):
            right = self._parse_and()
            left = BinaryOp("or", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.stream.accept_keyword("and"):
            right = self._parse_not()
            left = BinaryOp("and", left, right)
        return left

    def _parse_not(self) -> Expression:
        if self.stream.accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        for symbol, op in (
            ("<=", "<="), (">=", ">="), ("!=", "!="), ("<>", "!="),
            ("==", "="), ("=", "="), ("<", "<"), (">", ">"),
        ):
            if self.stream.accept(SYMBOL, symbol):
                right = self._parse_additive()
                return BinaryOp(op, left, right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self.stream.accept(SYMBOL, "+"):
                left = BinaryOp("+", left, self._parse_multiplicative())
            elif self.stream.accept(SYMBOL, "-"):
                left = BinaryOp("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            if self.stream.accept(SYMBOL, "*"):
                left = BinaryOp("*", left, self._parse_unary())
            elif self.stream.accept(SYMBOL, "/"):
                left = BinaryOp("/", left, self._parse_unary())
            elif self.stream.accept(SYMBOL, "%"):
                left = BinaryOp("%", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self.stream.accept(SYMBOL, "-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.stream.current
        if token.kind == NUMBER:
            self.stream.advance()
            if "." in token.value:
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.kind == STRING:
            self.stream.advance()
            return Literal(token.value)
        if token.kind == SYMBOL and token.value == "(":
            self.stream.advance()
            inner = self._parse_expression()
            self.stream.expect(SYMBOL, ")")
            return inner
        if token.kind == SYMBOL and token.value == "?":
            self.stream.advance()
            index = self.positional_parameters
            self.positional_parameters += 1
            return Parameter(index)
        if token.kind == SYMBOL and token.value == ":":
            self.stream.advance()
            name = self.stream.expect(IDENT).value
            return Parameter(name)
        if token.kind == IDENT:
            lowered = token.value.lower()
            if lowered in ("true", "false"):
                self.stream.advance()
                return Literal(lowered == "true")
            if lowered in _AGGREGATE_NAMES and self.stream.peek().matches(SYMBOL, "("):
                return self._parse_aggregate()
            return self._parse_path()
        raise self.stream.error(f"unexpected token {token.value!r} in expression")

    def _parse_aggregate(self) -> Expression:
        func = self.stream.expect(IDENT).value.lower()
        self.stream.expect(SYMBOL, "(")
        if self.stream.accept(SYMBOL, "*"):
            argument: Expression | None = None
            if func != "count":
                raise self.stream.error(f"aggregate {func!r} cannot take '*'")
        else:
            argument = self._parse_expression()
        self.stream.expect(SYMBOL, ")")
        return AggregateCall(func, argument)

    def _parse_path(self) -> Expression:
        first = self.stream.expect(IDENT).value
        path = [first]
        while self.stream.current.matches(SYMBOL, ".") and self.stream.peek().kind == IDENT:
            self.stream.advance()
            path.append(self.stream.expect(IDENT).value)
        # The first element may be a table alias or the first step of an
        # unqualified path; the binder disambiguates using catalog schemas.
        return FieldRef(UNRESOLVED, tuple(path))


def _default_name(expression: Expression, index: int) -> str:
    if isinstance(expression, FieldRef) and expression.path:
        return expression.path[-1]
    if isinstance(expression, AggregateCall):
        if isinstance(expression.argument, FieldRef) and expression.argument.path:
            return f"{expression.func}_{expression.argument.path[-1]}"
        return expression.func
    return f"col{index}"
