"""The nested relational algebra (Table 1 of the paper).

The logical operators are:

* :class:`Scan` — iterate a catalog dataset, binding each element,
* :class:`Select` — σp(X), filtering,
* :class:`Join` / outer join — X ⋈p Y,
* :class:`Unnest` / outer unnest — µ path p(X), unrolling a nested collection
  field bound by the child,
* :class:`Reduce` — ∆⊕/e p, the overloaded projection/aggregation operator
  that assembles the query output (a bag of records or global aggregates),
* :class:`Nest` — Γ⊕/e/f p/g, the grouping operator.

The algebra resembles the relational one, so relational optimizations apply,
while unnesting of queries over nested data is expressed with first-class
operators instead of opaque BLOB functions.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.expressions import Expression, OutputColumn, to_string


class LogicalPlan:
    """Base class for logical operators."""

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def bindings(self) -> set[str]:
        """Names of the variables visible to operators above this one."""
        result: set[str] = set()
        for child in self.children():
            result |= child.bindings()
        return result

    def datasets(self) -> set[str]:
        """Names of catalog datasets reachable below this operator."""
        result: set[str] = set()
        for child in self.children():
            result |= child.datasets()
        return result

    def fingerprint(self) -> tuple:
        raise NotImplementedError

    def walk(self) -> Iterator["LogicalPlan"]:
        """Post-order traversal (children before parents)."""
        for child in self.children():
            yield from child.walk()
        yield self

    def pretty(self, indent: int = 0) -> str:
        lines = [("  " * indent) + self.describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.pretty()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogicalPlan) and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())


class Scan(LogicalPlan):
    """Iterate a catalog dataset, binding each element to ``binding``."""

    def __init__(self, dataset: str, binding: str):
        self.dataset = dataset
        self.binding = binding

    def bindings(self) -> set[str]:
        return {self.binding}

    def datasets(self) -> set[str]:
        return {self.dataset}

    def fingerprint(self) -> tuple:
        return ("scan", self.dataset, self.binding)

    def describe(self) -> str:
        return f"Scan({self.dataset} as {self.binding})"


class Select(LogicalPlan):
    """σp(X): keep elements of the child for which the predicate holds."""

    def __init__(self, predicate: Expression, child: LogicalPlan):
        self.predicate = predicate
        self.child = child

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def fingerprint(self) -> tuple:
        return ("select", self.predicate.fingerprint(), self.child.fingerprint())

    def describe(self) -> str:
        return f"Select({to_string(self.predicate)})"


class Join(LogicalPlan):
    """X ⋈p Y (inner) or left outer join when ``outer`` is True."""

    def __init__(
        self,
        predicate: Expression | None,
        left: LogicalPlan,
        right: LogicalPlan,
        outer: bool = False,
    ):
        self.predicate = predicate
        self.left = left
        self.right = right
        self.outer = outer

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def fingerprint(self) -> tuple:
        predicate = self.predicate.fingerprint() if self.predicate is not None else None
        return (
            "outerjoin" if self.outer else "join",
            predicate,
            self.left.fingerprint(),
            self.right.fingerprint(),
        )

    def describe(self) -> str:
        name = "OuterJoin" if self.outer else "Join"
        predicate = to_string(self.predicate) if self.predicate is not None else "true"
        return f"{name}({predicate})"


class Unnest(LogicalPlan):
    """µ path p(X): unroll the nested collection ``binding.path`` of the child,
    binding each element to ``var``; ``outer`` keeps parents with empty
    collections (binding ``var`` to null)."""

    def __init__(
        self,
        binding: str,
        path: Sequence[str],
        var: str,
        child: LogicalPlan,
        predicate: Expression | None = None,
        outer: bool = False,
    ):
        self.binding = binding
        self.path = tuple(path)
        self.var = var
        self.child = child
        self.predicate = predicate
        self.outer = outer

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def bindings(self) -> set[str]:
        return self.child.bindings() | {self.var}

    def fingerprint(self) -> tuple:
        predicate = self.predicate.fingerprint() if self.predicate is not None else None
        return (
            "outerunnest" if self.outer else "unnest",
            self.binding,
            self.path,
            self.var,
            predicate,
            self.child.fingerprint(),
        )

    def describe(self) -> str:
        name = "OuterUnnest" if self.outer else "Unnest"
        path = self.binding + "." + ".".join(self.path)
        suffix = f", {to_string(self.predicate)}" if self.predicate is not None else ""
        return f"{name}({self.var} <- {path}{suffix})"


class Reduce(LogicalPlan):
    """∆⊕/e p: assemble the final output of the (sub-)query.

    When ``monoid`` is ``"bag"`` the columns are plain expressions and the
    output is one record per qualifying child element; when the columns
    contain aggregate calls the output is a single record of aggregates.
    """

    def __init__(
        self,
        monoid: str,
        columns: Sequence[OutputColumn],
        child: LogicalPlan,
        predicate: Expression | None = None,
    ):
        self.monoid = monoid
        self.columns = list(columns)
        self.child = child
        self.predicate = predicate

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def fingerprint(self) -> tuple:
        predicate = self.predicate.fingerprint() if self.predicate is not None else None
        return (
            "reduce",
            self.monoid,
            tuple(c.fingerprint() for c in self.columns),
            predicate,
            self.child.fingerprint(),
        )

    def describe(self) -> str:
        columns = ", ".join(f"{c.name}={to_string(c.expression)}" for c in self.columns)
        return f"Reduce[{self.monoid}]({columns})"


class Nest(LogicalPlan):
    """Γ⊕/e/f p/g: group the child by ``group_by`` and aggregate per group."""

    def __init__(
        self,
        columns: Sequence[OutputColumn],
        group_by: Sequence[Expression],
        child: LogicalPlan,
        predicate: Expression | None = None,
    ):
        self.columns = list(columns)
        self.group_by = list(group_by)
        self.child = child
        self.predicate = predicate

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def fingerprint(self) -> tuple:
        predicate = self.predicate.fingerprint() if self.predicate is not None else None
        return (
            "nest",
            tuple(c.fingerprint() for c in self.columns),
            tuple(e.fingerprint() for e in self.group_by),
            predicate,
            self.child.fingerprint(),
        )

    def describe(self) -> str:
        columns = ", ".join(f"{c.name}={to_string(c.expression)}" for c in self.columns)
        keys = ", ".join(to_string(e) for e in self.group_by)
        return f"Nest(group by {keys}; {columns})"
