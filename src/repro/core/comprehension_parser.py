"""Comprehension-syntax frontend.

For queries over nested data (and for producing nested output), Proteus
exposes a query comprehension syntax (§3, Example 3.1):

.. code-block:: text

    for { s1 <- Sailor, c <- s1.children, s2 <- Ship,
          p <- s2.personnel, s1.id = p.id, c.age > 18 }
    yield bag (s1.id, s2.name, c.name)

Inside the braces, a comma-separated list of qualifiers mixes generators
(``var <- Dataset`` or ``var <- bound.path``) and filter predicates.  The
``yield`` clause names the output monoid — a collection monoid (``bag``,
``set``, ``list``) followed by a parenthesised list of output expressions, or
an aggregate monoid (``sum``, ``count``, ``max``, ``min``, ``avg``) followed
by a single expression (``count`` may stand alone).  Output columns can be
named with ``expr as name``.

Query parameters (``?`` positional / ``:name`` named) are accepted anywhere a
scalar expression is, mirroring the SQL frontend: they parse into
:class:`~repro.core.expressions.Parameter` nodes bound at execution time.
"""

from __future__ import annotations

from repro.core.calculus import (
    Comprehension,
    DatasetSource,
    Filter,
    Generator,
    PathSource,
)
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
from repro.core.types import AGGREGATE_MONOIDS, COLLECTION_MONOIDS
from repro.errors import ParseError


def parse_comprehension(
    text: str, tokens: list[Token] | None = None
) -> Comprehension:
    """Parse the comprehension syntax (or its ``tokenize(text)``) into a
    :class:`Comprehension`."""
    stream = TokenStream(text, tokens)
    parser = _ComprehensionParser(stream)
    comprehension = parser.parse()
    if not stream.at_end():
        raise stream.error(f"unexpected trailing input {stream.current.value!r}")
    comprehension.validate()
    return comprehension


class _ComprehensionParser:
    def __init__(self, stream: TokenStream):
        self.stream = stream
        self.bound_vars: set[str] = set()
        #: Number of ``?`` placeholders seen so far (0-based positional keys).
        self.positional_parameters = 0

    def parse(self) -> Comprehension:
        self.stream.expect(IDENT, "for")
        self.stream.expect(SYMBOL, "{")
        qualifiers = self._parse_qualifiers()
        self.stream.expect(SYMBOL, "}")
        self.stream.expect(IDENT, "yield")
        monoid, head = self._parse_yield()
        return Comprehension(monoid=monoid, head=head, qualifiers=qualifiers)

    # -- qualifiers ----------------------------------------------------------

    def _parse_qualifiers(self) -> list:
        qualifiers: list = []
        while True:
            qualifiers.append(self._parse_qualifier())
            if not self.stream.accept(SYMBOL, ","):
                break
        return qualifiers

    def _parse_qualifier(self):
        # ``ident <-`` introduces a generator; anything else is a filter.
        if self.stream.current.kind == IDENT and self.stream.peek().matches(SYMBOL, "<-"):
            var = self.stream.expect(IDENT).value
            self.stream.expect(SYMBOL, "<-")
            # ``var <- outer parent.path`` keeps parents with empty
            # collections (outer unnest).  The ``outer`` modifier only makes
            # sense before a source, so a following IDENT disambiguates it
            # from a source *named* outer (``x <- outer`` / ``x <- outer.f``).
            outer = False
            if (
                self.stream.current.kind == IDENT
                and self.stream.current.value.lower() == "outer"
                and self.stream.peek().kind == IDENT
            ):
                self.stream.advance()
                outer = True
            source = self._parse_source()
            if outer and not isinstance(source, PathSource):
                raise self.stream.error(
                    "the outer modifier applies to path generators only"
                )
            self.bound_vars.add(var)
            return Generator(var, source, outer)
        return Filter(self._parse_expression())

    def _parse_source(self):
        name = self.stream.expect(IDENT).value
        path: list[str] = []
        while self.stream.current.matches(SYMBOL, ".") and self.stream.peek().kind == IDENT:
            self.stream.advance()
            path.append(self.stream.expect(IDENT).value)
        if path:
            if name not in self.bound_vars:
                raise self.stream.error(
                    f"path generator over unbound variable {name!r}"
                )
            return PathSource(name, tuple(path))
        return DatasetSource(name)

    # -- yield clause --------------------------------------------------------

    def _parse_yield(self) -> tuple[str, list[OutputColumn]]:
        monoid_token = self.stream.expect(IDENT)
        monoid = monoid_token.value.lower()
        if monoid in COLLECTION_MONOIDS:
            self.stream.expect(SYMBOL, "(")
            head = self._parse_output_list()
            self.stream.expect(SYMBOL, ")")
            return "bag" if monoid == "bag" else monoid, head
        if monoid in AGGREGATE_MONOIDS:
            argument: Expression | None = None
            if self.stream.accept(SYMBOL, "("):
                if not self.stream.current.matches(SYMBOL, ")"):
                    argument = self._parse_expression()
                self.stream.expect(SYMBOL, ")")
            elif not self.stream.at_end():
                argument = self._parse_expression()
            if monoid != "count" and argument is None:
                raise self.stream.error(f"aggregate monoid {monoid!r} requires an argument")
            column = OutputColumn(monoid, AggregateCall(monoid, argument))
            return "bag", [column]
        raise ParseError(
            f"unknown output monoid {monoid!r}", monoid_token.position, self.stream.text
        )

    def _parse_output_list(self) -> list[OutputColumn]:
        columns: list[OutputColumn] = []
        index = 0
        while True:
            expression = self._parse_expression()
            name = None
            if self.stream.accept_keyword("as"):
                name = self.stream.expect(IDENT).value
            if name is None:
                name = _default_name(expression, index, [c.name for c in columns])
            columns.append(OutputColumn(name, expression))
            index += 1
            if not self.stream.accept(SYMBOL, ","):
                break
        return columns

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.stream.accept_keyword("or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.stream.accept_keyword("and"):
            left = BinaryOp("and", left, self._parse_not())
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
                return BinaryOp(op, left, self._parse_additive())
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
            return Literal(float(token.value) if "." in token.value else int(token.value))
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
            if lowered in AGGREGATE_MONOIDS and self.stream.peek().matches(SYMBOL, "("):
                func = self.stream.advance().value.lower()
                self.stream.expect(SYMBOL, "(")
                argument: Expression | None = None
                if not self.stream.current.matches(SYMBOL, ")"):
                    argument = self._parse_expression()
                self.stream.expect(SYMBOL, ")")
                return AggregateCall(func, argument)
            return self._parse_path()
        raise self.stream.error(f"unexpected token {token.value!r} in expression")

    def _parse_path(self) -> Expression:
        binding = self.stream.expect(IDENT).value
        if binding not in self.bound_vars:
            raise self.stream.error(
                f"reference to unbound variable {binding!r}; "
                f"bound variables are {sorted(self.bound_vars)}"
            )
        path: list[str] = []
        while self.stream.current.matches(SYMBOL, ".") and self.stream.peek().kind == IDENT:
            self.stream.advance()
            path.append(self.stream.expect(IDENT).value)
        return FieldRef(binding, tuple(path))


def _default_name(expression: Expression, index: int, taken: list[str]) -> str:
    if isinstance(expression, FieldRef) and expression.path:
        candidate = expression.path[-1]
    elif isinstance(expression, FieldRef):
        candidate = expression.binding
    elif isinstance(expression, AggregateCall):
        candidate = expression.func
    else:
        candidate = f"col{index}"
    if candidate in taken:
        suffix = 1
        while f"{candidate}_{suffix}" in taken:
            suffix += 1
        candidate = f"{candidate}_{suffix}"
    return candidate
