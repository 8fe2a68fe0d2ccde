"""Monoid comprehension calculus.

Queries — whether written in the SQL subset or in the comprehension syntax —
are first translated into a monoid comprehension: a *monoid* describing how
output is assembled (a bag of records, or an aggregate such as ``sum``), a
*head* describing what each output element looks like, and a sequence of
*qualifiers*: generators (``x <- Source``) that bind variables to elements of
datasets or of nested collections, and filters (boolean predicates).

This representation is the paper's unifying internal language (§3): it treats
flat relations and nested collections uniformly, and it is the input of the
normalizer and of the calculus→algebra translator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.expressions import (
    Expression,
    OutputColumn,
    conjuncts,
    iter_parameters,
    to_string,
)
from repro.errors import TranslationError

# ---------------------------------------------------------------------------
# Generator sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSource:
    """A generator source that iterates a named dataset from the catalog."""

    dataset: str

    def fingerprint(self) -> tuple:
        return ("dataset", self.dataset)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.dataset


@dataclass(frozen=True)
class PathSource:
    """A generator source that iterates a nested collection of a bound variable.

    ``PathSource("s", ("children",))`` corresponds to ``c <- s.children``.
    """

    binding: str
    path: tuple[str, ...]

    def fingerprint(self) -> tuple:
        return ("path", self.binding, self.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.binding + "." + ".".join(self.path)


Source = DatasetSource | PathSource


# ---------------------------------------------------------------------------
# Qualifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    """A generator qualifier: ``var <- source``.

    ``outer`` marks an *outer* path generator (``var <- outer parent.path``):
    parents whose collection is empty or missing still produce one row, with
    ``var`` bound to the missing value — the comprehension analogue of a left
    outer join against the nested collection.
    """

    var: str
    source: Source
    outer: bool = False

    def fingerprint(self) -> tuple:
        return ("gen", self.var, self.source.fingerprint(), self.outer)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        arrow = "<- outer" if self.outer else "<-"
        return f"{self.var} {arrow} {self.source!r}"


@dataclass(frozen=True)
class Filter:
    """A filter qualifier: a boolean predicate over previously bound variables."""

    predicate: Expression

    def fingerprint(self) -> tuple:
        return ("filter", self.predicate.fingerprint())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return to_string(self.predicate)


Qualifier = Generator | Filter


# ---------------------------------------------------------------------------
# Comprehension
# ---------------------------------------------------------------------------


@dataclass
class Comprehension:
    """A monoid comprehension: ``monoid { head | qualifiers }``.

    ``head`` is a list of named output columns; for aggregate queries the
    column expressions contain :class:`~repro.core.expressions.AggregateCall`
    nodes.  ``group_by`` holds the grouping expressions introduced by SQL's
    GROUP BY clause (empty for pure reductions and for collection output).
    ``order_by`` optionally names output columns to sort the final result by
    (the reproduction sorts the materialized result; ordering is not part of
    the monoid itself).  ``limit`` may be a literal int or a
    :class:`~repro.core.expressions.Parameter` bound at execution time.
    """

    monoid: str
    head: list[OutputColumn]
    qualifiers: list[Qualifier] = field(default_factory=list)
    group_by: list[Expression] = field(default_factory=list)
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    limit: "int | Expression | None" = None

    # -- convenience accessors ---------------------------------------------

    def generators(self) -> list[Generator]:
        return [q for q in self.qualifiers if isinstance(q, Generator)]

    def filters(self) -> list[Filter]:
        return [q for q in self.qualifiers if isinstance(q, Filter)]

    def datasets(self) -> list[str]:
        """Names of all catalog datasets referenced by the comprehension."""
        return [
            g.source.dataset
            for g in self.generators()
            if isinstance(g.source, DatasetSource)
        ]

    def parameters(self) -> list[int | str]:
        """Query-parameter keys referenced anywhere in the comprehension
        (filters, head, group-by), deduplicated in first-appearance order:
        positional ``?`` placeholders appear as 0-based ints, named ``:name``
        placeholders as strings."""
        seen: dict[int | str, None] = {}
        expressions: list[Expression] = [
            f.predicate for f in self.filters()
        ]
        expressions.extend(column.expression for column in self.head)
        expressions.extend(self.group_by)
        if isinstance(self.limit, Expression):
            expressions.append(self.limit)
        for expression in expressions:
            for parameter in iter_parameters(expression):
                seen.setdefault(parameter.key)
        return list(seen)

    def fingerprint(self) -> tuple:
        return (
            "comprehension",
            self.monoid,
            tuple(c.fingerprint() for c in self.head),
            tuple(q.fingerprint() for q in self.qualifiers),
            tuple(e.fingerprint() for e in self.group_by),
        )

    def validate(self) -> None:
        """Check scoping rules: every reference must be bound by a preceding
        generator, and generator variables must be unique."""
        bound: set[str] = set()
        for qualifier in self.qualifiers:
            if isinstance(qualifier, Generator):
                if qualifier.var in bound:
                    raise TranslationError(
                        f"generator variable {qualifier.var!r} bound more than once"
                    )
                if isinstance(qualifier.source, PathSource):
                    if qualifier.source.binding not in bound:
                        raise TranslationError(
                            f"path generator {qualifier!r} references unbound variable "
                            f"{qualifier.source.binding!r}"
                        )
                bound.add(qualifier.var)
            else:
                unbound = qualifier.predicate.bindings() - bound
                if unbound:
                    raise TranslationError(
                        f"filter {qualifier!r} references unbound variables {sorted(unbound)}"
                    )
        for column in self.head:
            unbound = column.expression.bindings() - bound
            if unbound:
                raise TranslationError(
                    f"output column {column.name!r} references unbound variables "
                    f"{sorted(unbound)}"
                )
        for expr in self.group_by:
            unbound = expr.bindings() - bound
            if unbound:
                raise TranslationError(
                    f"group-by expression references unbound variables {sorted(unbound)}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        quals = ", ".join(repr(q) for q in self.qualifiers)
        head = ", ".join(f"{c.name}={to_string(c.expression)}" for c in self.head)
        text = f"for {{ {quals} }} yield {self.monoid} ({head})"
        if self.group_by:
            text += " group by " + ", ".join(to_string(e) for e in self.group_by)
        return text


# ---------------------------------------------------------------------------
# Helpers used by the normalizer and the translator
# ---------------------------------------------------------------------------


def split_filters(qualifiers: Iterable[Qualifier]) -> list[Qualifier]:
    """Split every filter qualifier into one qualifier per conjunct.

    Splitting conjunctions is a prerequisite for selection pushdown: each
    conjunct can then be placed immediately after the last generator it
    depends on.
    """
    result: list[Qualifier] = []
    for qualifier in qualifiers:
        if isinstance(qualifier, Filter):
            result.extend(Filter(p) for p in conjuncts(qualifier.predicate))
        else:
            result.append(qualifier)
    return result
