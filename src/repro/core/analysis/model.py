"""Data model of the static plan analyzer.

The analyzer runs once per plan at ``prepare()`` time and produces a
:class:`PlanAnalysis` artifact with three layers:

* inferred output schema — dtype + nullability per output column
  (:class:`ColumnInfo`),
* tier-capability verdicts — one :class:`TierVerdict` per execution tier in
  cascade order, each carrying a machine-readable decline code,
* nullability hints (:class:`NullabilityHints`) — columns and aggregate
  arguments proven statically non-nullable, which let the batch pipeline
  and the sort kernels skip missing-mask construction.

Diagnostic codes are stable identifiers: ``TYP0xx`` for prepare-time type /
schema errors (raised as :class:`repro.errors.AnalysisError`), ``TIER0xx``
for capability verdicts (surfaced in ``explain()`` and
``profile.tier_decline_reasons``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import types as t

# -- diagnostic codes: prepare-time type & schema errors ----------------------

#: A field reference names a field the dataset schema does not have, or
#: descends through a non-record step.
TYP_UNKNOWN_FIELD = "TYP001"
#: An ordering comparison over incomparable operand types.
TYP_INCOMPARABLE = "TYP002"
#: An aggregate over an argument type the aggregate cannot consume.
TYP_BAD_AGGREGATE = "TYP003"
#: Arithmetic over a non-numeric operand.
TYP_BAD_ARITHMETIC = "TYP004"
#: An unnest over a path that does not denote a nested collection.
TYP_NOT_A_COLLECTION = "TYP005"

# -- diagnostic codes: tier-capability verdicts -------------------------------

#: The tier is switched off by engine configuration (ablation flags).
TIER_DISABLED = "TIER001"
#: The plan shape (root or an operator) is not covered by the tier.
TIER_PLAN_SHAPE = "TIER002"
#: An expression shape the tier cannot evaluate (e.g. record construction).
TIER_EXPRESSION = "TIER003"
#: A group-by output column that is neither a group key nor an aggregate.
TIER_GROUP_COLUMN = "TIER004"
#: Outer joins are served by the Volcano interpreter only.
TIER_OUTER_JOIN = "TIER005"
# TIER006 (driving scan not range-splittable) and TIER007 (input fits a
# single morsel) are retired: whether a scan fans out over morsels is decided
# inside the batch executor (``repro.core.parallel.plan_fanout``), not by a
# tier verdict.  The numbers are not reused.
#: An outer unnest with an element predicate (Volcano-only shape).
TIER_OUTER_UNNEST_PREDICATE = "TIER008"
#: Code generation failed on a plan the static verdict accepted; the plan is
#: declined before any batch runs.  Data never changes a tier.
TIER_CODEGEN_FAILED = "TIER009"

# -- execution tiers, in cascade order ---------------------------------------

TIER_CODEGEN = "codegen"
TIER_VOLCANO = "volcano"

#: The engine's cascade, most- to least-specialized: ``codegen`` is the batch
#: pipeline running this plan's generated expressions, ``volcano`` the
#: tuple-at-a-time interpreter.  One executor per tier, one capability row
#: each.
CASCADE_TIERS = (TIER_CODEGEN, TIER_VOLCANO)


@dataclass(frozen=True)
class ColumnInfo:
    """Statically inferred shape of one output column.

    ``dtype`` is ``None`` when the type depends on an unbound query
    parameter; such columns are conservatively nullable.
    """

    name: str
    dtype: t.DataType | None
    nullable: bool

    def render(self) -> str:
        dtype = self.dtype.name if self.dtype is not None else "unknown"
        return f"{self.name}: {dtype}{' (nullable)' if self.nullable else ''}"


@dataclass(frozen=True)
class TierVerdict:
    """Whether one execution tier can serve the plan, and if not, why.

    ``code``/``reason`` are ``None`` exactly when ``serves`` is true.
    """

    tier: str
    serves: bool
    code: str | None = None
    reason: str | None = None

    def render(self) -> str:
        if self.serves:
            return f"{self.tier}: serves"
        return f"{self.tier}: declines -- {self.reason} [{self.code}]"


@dataclass(frozen=True)
class NullabilityHints:
    """Statically proven non-nullable spots the executors may specialize on.

    ``non_null_columns`` — output column names whose values can never be
    missing; the sort kernels skip NaN / ``None`` scans for them.
    ``non_null_aggregate_args`` — fingerprints of aggregate calls whose
    argument can never be missing; the batch aggregators skip the per-batch
    valid-mask pass for them.

    Soundness: catalog schemas are authoritative.  CSV schemas are inferred
    without nullability and explicit ``make_schema`` schemas default to
    non-nullable, so a dataset whose raw data contains missing values under a
    non-nullable declared schema is outside the model (standard database
    practice: the declared schema is a contract).
    """

    non_null_columns: frozenset[str] = frozenset()
    non_null_aggregate_args: frozenset[tuple] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.non_null_columns or self.non_null_aggregate_args)


EMPTY_HINTS = NullabilityHints()


@dataclass(frozen=True)
class SchemaAnalysis:
    """The engine-configuration-independent half of a plan analysis: the
    inferred output schema and the nullability hints.  Computed once per
    plan and held by the prepared query's shape, next to the tier verdicts
    (a pure function of the plan and the engine's ablation flags)."""

    columns: tuple[ColumnInfo, ...]
    hints: NullabilityHints

    def column(self, name: str) -> ColumnInfo | None:
        for info in self.columns:
            if info.name == name:
                return info
        return None


@dataclass(frozen=True)
class PlanAnalysis:
    """The full static-analysis artifact for one physical plan."""

    columns: tuple[ColumnInfo, ...] = ()
    verdicts: tuple[TierVerdict, ...] = ()
    hints: NullabilityHints = field(default=EMPTY_HINTS)

    @property
    def predicted_tier(self) -> str:
        """The tier the cascade will select: the first serving verdict."""
        for verdict in self.verdicts:
            if verdict.serves:
                return verdict.tier
        return TIER_VOLCANO

    def verdict(self, tier: str) -> TierVerdict | None:
        for verdict in self.verdicts:
            if verdict.tier == tier:
                return verdict
        return None

    def column(self, name: str) -> ColumnInfo | None:
        for info in self.columns:
            if info.name == name:
                return info
        return None

    def decline_reasons(self) -> dict[str, str]:
        """Machine-readable decline reasons keyed by tier name."""
        return {
            verdict.tier: f"[{verdict.code}] {verdict.reason}"
            for verdict in self.verdicts
            if not verdict.serves
        }
