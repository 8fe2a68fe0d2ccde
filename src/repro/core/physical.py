"""Physical query plans.

The optimizer lowers the logical nested relational algebra into a physical
plan whose operators carry everything needed for execution and for code
generation:

* scans know which field paths they must place into virtual buffers
  (projection pushdown); whether a field comes from the §6 cache or the raw
  file is decided when the scan runs, so it is not part of the plan,
* joins are resolved to hash joins with explicit key expressions (plus an
  optional residual predicate) or to nested-loop joins when no equi-join
  key exists,
* unnests know which element fields they must flatten,
* the root is a Reduce (projection / global aggregation) or a Nest (grouping).

Both executors consume this representation: the batch pipeline runs it over
columnar batches (on per-query generated expression functions, §5.1), and
the Volcano interpreter walks it operator-at-a-tuple (the "static
general-purpose engine" the paper contrasts against).  The plan names
operators, not kernels: which join/grouping kernel runs is decided at
execution from the key range (:mod:`repro.core.executor.radix`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.expressions import Expression, OutputColumn, iter_parameters, to_string
from repro.plugins.base import FieldPath


class PhysicalPlan:
    """Base class of physical operators."""

    def children(self) -> tuple["PhysicalPlan", ...]:
        return ()

    def bindings(self) -> set[str]:
        result: set[str] = set()
        for child in self.children():
            result |= child.bindings()
        return result

    def walk(self) -> Iterator["PhysicalPlan"]:
        for child in self.children():
            yield from child.walk()
        yield self

    def fingerprint(self) -> tuple:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = [("  " * indent) + self.describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.pretty()


class PhysScan(PhysicalPlan):
    """Scan a dataset, materializing the requested field paths."""

    def __init__(self, dataset: str, binding: str, paths: Sequence[FieldPath]):
        self.dataset = dataset
        self.binding = binding
        self.paths = [tuple(path) for path in paths]

    def bindings(self) -> set[str]:
        return {self.binding}

    def fingerprint(self) -> tuple:
        return ("scan", self.dataset, self.binding, tuple(self.paths))

    def describe(self) -> str:
        fields = ", ".join(".".join(path) for path in self.paths) or "<none>"
        return f"Scan({self.dataset} as {self.binding}: {fields})"


class PhysSelect(PhysicalPlan):
    """Filter the child by a predicate."""

    def __init__(self, predicate: Expression, child: PhysicalPlan):
        self.predicate = predicate
        self.child = child

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def fingerprint(self) -> tuple:
        return ("select", self.predicate.fingerprint(), self.child.fingerprint())

    def describe(self) -> str:
        return f"Select({to_string(self.predicate)})"


class PhysUnnest(PhysicalPlan):
    """Unnest a nested collection field of ``binding`` into ``var``."""

    def __init__(
        self,
        binding: str,
        path: FieldPath,
        var: str,
        element_paths: Sequence[FieldPath],
        child: PhysicalPlan,
        predicate: Expression | None = None,
        outer: bool = False,
    ):
        self.binding = binding
        self.path = tuple(path)
        self.var = var
        self.element_paths = [tuple(p) for p in element_paths]
        self.child = child
        self.predicate = predicate
        self.outer = outer

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def bindings(self) -> set[str]:
        return self.child.bindings() | {self.var}

    def fingerprint(self) -> tuple:
        predicate = self.predicate.fingerprint() if self.predicate is not None else None
        return (
            "unnest",
            self.binding,
            self.path,
            self.var,
            tuple(self.element_paths),
            predicate,
            self.outer,
            self.child.fingerprint(),
        )

    def planned_mode(self) -> tuple[str, str]:
        """(mode, why) for the batch pipeline's batch-native unnest execution.

        ``offset-vector`` — the parent binding is scan-backed, so the plug-in
        flattens through ``scan_unnest_batch`` (per-parent repeat counts, one
        ``np.repeat`` parent broadcast per batch).  ``column-backed`` — the
        parent is itself an unnest variable (nested-in-nested); the collection
        column materialized by the parent unnest is flattened in memory.
        """
        scan_backed = any(
            isinstance(node, PhysScan) and node.binding == self.binding
            for node in self.child.walk()
        )
        if scan_backed:
            return (
                "offset-vector",
                "plug-in scan_unnest_batch returns flattened element buffers "
                "plus per-parent repeat counts",
            )
        return (
            "column-backed",
            "collection column materialized by the parent unnest is "
            "flattened in memory",
        )

    def describe(self) -> str:
        name = "OuterUnnest" if self.outer else "Unnest"
        fields = ", ".join(".".join(p) for p in self.element_paths) or "<value>"
        mode, _ = self.planned_mode()
        return (
            f"{name}({self.var} <- {self.binding}.{'.'.join(self.path)}: {fields})"
            f" [{mode}]"
        )


class PhysHashJoin(PhysicalPlan):
    """Hash join on equi-join keys, with an optional residual predicate.

    The left side is the build side (materialized first), the right side is
    probed; the build side's join table doubles as an implicit cache, as in
    the paper.  Matches come in probe order, then build order within a key,
    whichever kernel the build side's key range selects (direct-addressed
    over a dense integer range, sorted otherwise).
    """

    def __init__(
        self,
        left_key: Expression,
        right_key: Expression,
        left: PhysicalPlan,
        right: PhysicalPlan,
        residual: Expression | None = None,
        outer: bool = False,
    ):
        self.left_key = left_key
        self.right_key = right_key
        self.left = left
        self.right = right
        self.residual = residual
        self.outer = outer

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def fingerprint(self) -> tuple:
        residual = self.residual.fingerprint() if self.residual is not None else None
        return (
            "hashjoin",
            self.left_key.fingerprint(),
            self.right_key.fingerprint(),
            residual,
            self.outer,
            self.left.fingerprint(),
            self.right.fingerprint(),
        )

    def describe(self) -> str:
        name = "OuterHashJoin" if self.outer else "HashJoin"
        text = f"{name}({to_string(self.left_key)} = {to_string(self.right_key)})"
        if self.residual is not None:
            text += f" residual: {to_string(self.residual)}"
        return text


class PhysNestedLoopJoin(PhysicalPlan):
    """Fallback join for non-equi predicates (and the behaviour an optimizer
    blind to a data type falls back to, cf. the Q39 discussion in §7.2)."""

    def __init__(
        self,
        predicate: Expression | None,
        left: PhysicalPlan,
        right: PhysicalPlan,
        outer: bool = False,
    ):
        self.predicate = predicate
        self.left = left
        self.right = right
        self.outer = outer

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def fingerprint(self) -> tuple:
        predicate = self.predicate.fingerprint() if self.predicate is not None else None
        return (
            "nljoin",
            predicate,
            self.outer,
            self.left.fingerprint(),
            self.right.fingerprint(),
        )

    def describe(self) -> str:
        predicate = to_string(self.predicate) if self.predicate is not None else "true"
        return f"NestedLoopJoin({predicate})"


class PhysReduce(PhysicalPlan):
    """Final projection (bag output) or global aggregation."""

    def __init__(self, monoid: str, columns: Sequence[OutputColumn], child: PhysicalPlan):
        self.monoid = monoid
        self.columns = list(columns)
        self.child = child

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def fingerprint(self) -> tuple:
        return (
            "reduce",
            self.monoid,
            tuple(column.fingerprint() for column in self.columns),
            self.child.fingerprint(),
        )

    def describe(self) -> str:
        columns = ", ".join(
            f"{column.name}={to_string(column.expression)}" for column in self.columns
        )
        return f"Reduce[{self.monoid}]({columns})"


class PhysSort(PhysicalPlan):
    """Order (and optionally bound) the query output — the plan's root when
    the query carries ORDER BY and/or LIMIT.

    ``keys`` are ``(output column name, ascending)`` pairs over the child's
    output columns; ``limit`` is a non-negative int, a ``Parameter``
    expression bound at execution time, or ``None``.  Making the sort a plan
    operator (instead of an engine-side epilogue) means the planner places
    it, plan fingerprints cover it — a prepared ``LIMIT ?`` stays abstract —
    and ``explain()`` reports the chosen strategy.

    Every tier applies it once, in the engine's columnar epilogue (see
    :mod:`repro.core.sort`): dtype-specialized ``np.lexsort`` kernels, a
    top-K partition when a LIMIT accompanies the sort, and a boxed-comparator
    fallback for object columns the encoders cannot represent.  The batch
    pipeline only bounds what it hands over: a LIMIT prefix, or the streamed
    top-K candidates of each scan range.
    """

    def __init__(
        self,
        keys: Sequence[tuple[str, bool]],
        limit: "int | Expression | None",
        child: PhysicalPlan,
    ):
        self.keys = [(str(name), bool(ascending)) for name, ascending in keys]
        self.limit = limit
        self.child = child

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def fingerprint(self) -> tuple:
        if isinstance(self.limit, Expression):
            limit = self.limit.fingerprint()
        else:
            limit = self.limit
        return ("sort", tuple(self.keys), limit, self.child.fingerprint())

    def planned_strategy(self) -> tuple[str, str]:
        """(strategy, why) as planned — the data-independent choice.

        Execution refines it per key dtype: object columns demote to the
        comparator fallback.
        """
        if self.keys and self.limit is not None:
            return (
                "topk",
                "LIMIT bounds the sort; only the top K rows survive each batch",
            )
        if self.keys:
            return ("lexsort", "full stable sort via dtype-specialized kernels")
        return ("limit", "no sort keys; LIMIT truncates the output")

    def describe(self) -> str:
        keys = ", ".join(
            f"{name} {'ASC' if ascending else 'DESC'}" for name, ascending in self.keys
        )
        parts = [keys] if keys else []
        if self.limit is not None:
            if isinstance(self.limit, Expression):
                parts.append(f"limit={to_string(self.limit)}")
            else:
                parts.append(f"limit={self.limit}")
        strategy, _ = self.planned_strategy()
        return f"Sort({', '.join(parts)}) [strategy: {strategy}]"


def unwrap_sort(plan: PhysicalPlan) -> PhysicalPlan:
    """The plan beneath a root :class:`PhysSort` (identity otherwise)."""
    return plan.child if isinstance(plan, PhysSort) else plan


def driving_scan(plan: PhysicalPlan) -> "PhysScan | None":
    """The scan a batch pipeline over ``plan`` streams from: unary operators
    stream their child, joins stream their probe (right) side."""
    while not isinstance(plan, PhysScan):
        if isinstance(plan, (PhysHashJoin, PhysNestedLoopJoin)):
            plan = plan.right
        elif len(plan.children()) == 1:
            plan = plan.children()[0]
        else:
            return None
    return plan


class PhysNest(PhysicalPlan):
    """Grouping with per-group aggregates; groups come out in ascending key
    order (``bincount`` over a dense integer key range, ``np.unique``
    factorization otherwise)."""

    def __init__(
        self,
        columns: Sequence[OutputColumn],
        group_by: Sequence[Expression],
        child: PhysicalPlan,
    ):
        self.columns = list(columns)
        self.group_by = list(group_by)
        self.child = child

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def fingerprint(self) -> tuple:
        return (
            "nest",
            tuple(column.fingerprint() for column in self.columns),
            tuple(expression.fingerprint() for expression in self.group_by),
            self.child.fingerprint(),
        )

    def describe(self) -> str:
        columns = ", ".join(
            f"{column.name}={to_string(column.expression)}" for column in self.columns
        )
        keys = ", ".join(to_string(expression) for expression in self.group_by)
        return f"Nest(group by {keys}; {columns})"


def scans_of(plan: PhysicalPlan) -> list[PhysScan]:
    """All scan leaves of a physical plan, in traversal order."""
    return [node for node in plan.walk() if isinstance(node, PhysScan)]


def expressions_of(node: PhysicalPlan) -> list[Expression]:
    """Every expression carried by one physical operator (not its children)."""
    expressions: list[Expression] = []
    if isinstance(node, (PhysSelect, PhysNestedLoopJoin)):
        if node.predicate is not None:
            expressions.append(node.predicate)
    elif isinstance(node, PhysUnnest):
        if node.predicate is not None:
            expressions.append(node.predicate)
    elif isinstance(node, PhysHashJoin):
        expressions.extend((node.left_key, node.right_key))
        if node.residual is not None:
            expressions.append(node.residual)
    elif isinstance(node, PhysReduce):
        expressions.extend(column.expression for column in node.columns)
    elif isinstance(node, PhysNest):
        expressions.extend(column.expression for column in node.columns)
        expressions.extend(node.group_by)
    elif isinstance(node, PhysSort):
        if isinstance(node.limit, Expression):
            expressions.append(node.limit)
    return expressions


def parameters_of(plan: PhysicalPlan) -> list[int | str]:
    """Query-parameter keys referenced anywhere in the plan, deduplicated in
    first-appearance order."""
    seen: dict[int | str, None] = {}
    for node in plan.walk():
        for expression in expressions_of(node):
            for parameter in iter_parameters(expression):
                seen.setdefault(parameter.key)
    return list(seen)
