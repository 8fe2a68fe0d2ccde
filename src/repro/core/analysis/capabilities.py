"""Declarative tier-capability table and verdict computation.

One table — :data:`OPERATOR_CAPABILITIES` — declares, per cascade tier and
per physical operator class, whether the executor behind the tier covers
the operator and under which conditions it declines.  Each tier has one
executor and one row: ``codegen`` is the batch pipeline running generated
expression functions, ``volcano`` the tuple-at-a-time interpreter.
:func:`tier_verdicts` folds the table, the root-shape rules, the
expression-support rules and the engine configuration into one
:class:`TierVerdict` per tier in cascade order; the first serving verdict
is the one the engine's cascade will select.

The decline reasons name the tier that serves instead, so ``explain()``
output reads as a decision; each also carries a machine-readable
``TIER0xx`` code.  The verdicts are the only tier choice: the batch
pipeline serves every plan its verdict accepts, whatever the data (the one
exception, a generator failure, is declined before execution too).

``tools/tier_lint.py`` enforces the other direction of the contract: every
``Phys*`` operator class must either be handled by an executor module or have
an explicit entry here — a new operator cannot silently fall through a tier.
"""

from __future__ import annotations

from typing import Callable

from repro.core.codegen.expr_gen import supported_by_codegen
from repro.core.expressions import contains_aggregate, to_string
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysSort,
    PhysUnnest,
    PhysicalPlan,
    expressions_of,
    unwrap_sort,
)
from repro.core.analysis.model import (
    CASCADE_TIERS,
    TIER_CODEGEN,
    TIER_DISABLED,
    TIER_EXPRESSION,
    TIER_GROUP_COLUMN,
    TIER_OUTER_JOIN,
    TIER_OUTER_UNNEST_PREDICATE,
    TIER_PLAN_SHAPE,
    TIER_VOLCANO,
    TierVerdict,
)

#: A verdict fragment: ``None`` when the operator is covered, otherwise
#: ``(diagnostic code, human-readable reason)``.
Decline = tuple[str, str] | None

#: A per-operator condition over one plan node.
Check = Callable[[PhysicalPlan], Decline]


# -- per-operator conditions --------------------------------------------------


def _batch_unnest(node: PhysicalPlan) -> Decline:
    assert isinstance(node, PhysUnnest)
    if node.outer and node.predicate is not None:
        return (
            TIER_OUTER_UNNEST_PREDICATE,
            "outer unnest with an element predicate is served by the "
            "Volcano interpreter",
        )
    return None


def _no_outer_join(node: PhysicalPlan) -> Decline:
    assert isinstance(node, (PhysHashJoin, PhysNestedLoopJoin))
    if node.outer:
        return (TIER_OUTER_JOIN, "outer join is served by the Volcano interpreter")
    return None


def _batch_nest(node: PhysicalPlan) -> Decline:
    """A ``GROUP BY`` output column must be a group key, contain an
    aggregate or read no field (a literal, a parameter); anything else only
    the Volcano interpreter serves."""
    assert isinstance(node, PhysNest)
    group_key_fingerprints = {
        expression.fingerprint() for expression in node.group_by
    }
    for column in node.columns:
        if column.expression.fingerprint() in group_key_fingerprints:
            continue
        if not contains_aggregate(column.expression) and column.expression.referenced_fields():
            return (
                TIER_GROUP_COLUMN,
                f"group-by output column {column.name!r} is neither a group "
                "key nor an aggregate; served by the Volcano interpreter",
            )
    return None


#: The capability table: cascade tier -> operator class -> coverage
#: condition of the executor behind the tier.
#:
#: ``None`` means unconditionally covered.  Every ``Phys*`` class must appear
#: in every row — ``tools/tier_lint.py`` fails the build otherwise.
#: ``PhysSort`` is covered everywhere because a root ``ORDER BY`` / ``LIMIT``
#: runs in the engine's columnar sort epilogue on every tier, never inside an
#: operator interpreter; ``PhysReduce`` and
#: ``PhysNest`` conditions apply at the plan root — the planner never nests
#: them deeper.
OPERATOR_CAPABILITIES: dict[str, dict[type, Check | None]] = {
    # The batch pipeline.
    TIER_CODEGEN: {
        PhysScan: None,
        PhysSelect: None,
        PhysUnnest: _batch_unnest,
        PhysHashJoin: _no_outer_join,
        PhysNestedLoopJoin: _no_outer_join,
        PhysReduce: None,
        PhysNest: _batch_nest,
        PhysSort: None,
    },
    # The Volcano interpreter is the total fallback: it covers every operator
    # unconditionally (PhysSort through the engine's sort epilogue).
    TIER_VOLCANO: {
        PhysScan: None,
        PhysSelect: None,
        PhysUnnest: None,
        PhysHashJoin: None,
        PhysNestedLoopJoin: None,
        PhysReduce: None,
        PhysNest: None,
        PhysSort: None,
    },
}


def plan_verdict(tier: str, plan: PhysicalPlan) -> Decline:
    """The capability table's verdict for one tier over one plan.

    Configuration-independent: only the plan shape and its expressions are
    consulted.  Returns ``None`` when the tier covers the plan, otherwise
    ``(code, reason)`` for the first declining condition in plan order.
    """
    table = OPERATOR_CAPABILITIES[tier]
    root = unwrap_sort(plan)
    if tier != TIER_VOLCANO and not isinstance(root, (PhysReduce, PhysNest)):
        # The batch pipeline only accepts Reduce / Nest plan roots.
        return (
            TIER_PLAN_SHAPE,
            f"plan root {root.describe()} is served by the Volcano interpreter",
        )
    for node in plan.walk():
        check = table.get(type(node))
        if check is not None:
            decline = check(node)
            if decline is not None:
                return decline
    if tier == TIER_VOLCANO:
        return None
    # Record construction is the Volcano-only expression shape.
    for node in plan.walk():
        for expression in expressions_of(node):
            if not supported_by_codegen(expression):
                return (
                    TIER_EXPRESSION,
                    f"expression {to_string(expression)} is served by the "
                    "Volcano interpreter",
                )
    return None


#: The codegen verdict of an engine built with ``enable_codegen=False``: the
#: paper's static engine, Volcano, alone.
CODEGEN_DISABLED = TierVerdict(
    TIER_CODEGEN, serves=False, code=TIER_DISABLED,
    reason="disabled (enable_codegen=False)",
)


def tier_verdicts(
    physical: PhysicalPlan,
    *,
    enable_codegen: bool,
) -> tuple[TierVerdict, ...]:
    """One :class:`TierVerdict` per tier, in cascade order.

    A pure function of the plan and the engine's ablation flag — no catalog,
    plug-in or cache state is consulted.  The engine computes it once per
    plan with the flag on and swaps in :data:`CODEGEN_DISABLED` when the
    flag is off (``enable_codegen=False`` leaves the paper's static engine,
    Volcano).  (Whether the pipeline fans a scan out over morsels is
    decided inside the executor, not here.)
    """
    verdicts: list[TierVerdict] = []
    for tier in CASCADE_TIERS:
        if tier == TIER_CODEGEN and not enable_codegen:
            verdicts.append(CODEGEN_DISABLED)
            continue
        decline = plan_verdict(tier, physical)
        if decline is None:
            verdicts.append(TierVerdict(tier, serves=True))
        else:
            code, reason = decline
            verdicts.append(TierVerdict(tier, serves=False, code=code, reason=reason))
    return tuple(verdicts)
