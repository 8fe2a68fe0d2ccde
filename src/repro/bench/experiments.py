"""Experiment drivers.

One function per table/figure of the paper's evaluation (§7).  Each driver
materializes the workload, attaches it to Proteus and to the simulated
comparators, runs the figure's query grid, cross-validates every system's
results against Proteus, and returns an
:class:`~repro.bench.reporting.ExperimentReport` whose shape mirrors the
paper's plot (systems × query instances).  The benchmark files under
``benchmarks/`` call these drivers and print the reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.baselines import (
    DbmsCLikeEngine,
    DbmsXLikeEngine,
    FederatedEngine,
    MongoLikeEngine,
    MonetLikeEngine,
    PostgresLikeEngine,
)
from repro.bench import data as bench_data
from repro.bench.reporting import ExperimentReport
from repro.bench.systems import (
    BaselineAdapter,
    ProteusAdapter,
    QueryMeasurement,
    SystemAdapter,
    results_match,
)
from repro.workloads import symantec, templates, tpch
from repro.workloads.query_spec import QuerySpec

PROTEUS = "proteus"
POSTGRES = "postgres_like"
DBMS_X = "dbms_x_like"
MONET = "monet_like"
DBMS_C = "dbms_c_like"
MONGO = "mongo_like"
FEDERATED = "federated_dbmsc_mongo"

JSON_SYSTEMS = (POSTGRES, DBMS_X, MONET, DBMS_C, MONGO, PROTEUS)
JSON_SYSTEMS_CORE = (POSTGRES, DBMS_X, MONGO, PROTEUS)
BINARY_SYSTEMS = (POSTGRES, DBMS_X, MONET, DBMS_C, PROTEUS)


# ---------------------------------------------------------------------------
# Generic runner
# ---------------------------------------------------------------------------


def run_queries(
    title: str,
    specs: Sequence[QuerySpec],
    adapters: Sequence[SystemAdapter],
    reference: str = PROTEUS,
    verify: bool = True,
    only: dict[str, Callable[[QuerySpec], bool]] | None = None,
) -> ExperimentReport:
    """Run every query on every adapter (skipping unsupported combinations),
    cross-validating results against the reference system."""
    measurements: list[QueryMeasurement] = []
    notes: list[str] = []
    reference_results: dict[str, list[tuple]] = {}
    reference_adapter = next((a for a in adapters if a.name == reference), None)
    if reference_adapter is not None:
        for spec in specs:
            measurement = reference_adapter.run(spec)
            measurements.append(measurement)
            reference_results[spec.name] = measurement.result
    for adapter in adapters:
        if adapter.name == reference:
            continue
        for spec in specs:
            if not adapter.supports(spec):
                continue
            if only is not None and adapter.name in only and not only[adapter.name](spec):
                continue
            measurement = adapter.run(spec)
            measurements.append(measurement)
            if verify and spec.name in reference_results:
                if not results_match(reference_results[spec.name], measurement.result):
                    notes.append(
                        f"result mismatch on {spec.name}: {adapter.name} vs {reference}"
                    )
    return ExperimentReport(title=title, measurements=measurements, notes=notes)


# ---------------------------------------------------------------------------
# Adapter construction
# ---------------------------------------------------------------------------


def _baseline(name: str) -> BaselineAdapter:
    engines = {
        POSTGRES: PostgresLikeEngine,
        DBMS_X: DbmsXLikeEngine,
        MONET: MonetLikeEngine,
        DBMS_C: DbmsCLikeEngine,
        MONGO: MongoLikeEngine,
        FEDERATED: FederatedEngine,
    }
    return BaselineAdapter(engines[name]())


def json_micro_adapters(
    files: tpch.TpchFiles,
    systems: Iterable[str] = JSON_SYSTEMS,
    with_orders: bool = False,
    with_denormalized: bool = False,
    enable_caching: bool = False,
) -> list[SystemAdapter]:
    """Adapters for the JSON micro-benchmarks (TPC-H lineitem/orders as JSON)."""
    adapters: list[SystemAdapter] = []
    for name in systems:
        if name == PROTEUS:
            adapter: SystemAdapter = ProteusAdapter(enable_caching=enable_caching)
            adapter.attach_json("lineitem", files.lineitem_json, schema=tpch.LINEITEM_SCHEMA)
            if with_orders:
                adapter.attach_json("orders", files.orders_json, schema=tpch.ORDERS_SCHEMA)
            if with_denormalized:
                adapter.attach_json(
                    "orders_denorm",
                    files.orders_denormalized_json,
                    schema=tpch.DENORMALIZED_ORDERS_SCHEMA,
                )
            adapter.warm_up("lineitem")
            if with_orders:
                adapter.warm_up("orders")
            if with_denormalized:
                adapter.warm_up("orders_denorm")
        else:
            adapter = _baseline(name)
            adapter.attach_json("lineitem", files.lineitem_json)
            if with_orders:
                adapter.attach_json("orders", files.orders_json)
            if with_denormalized:
                adapter.attach_json("orders_denorm", files.orders_denormalized_json)
        adapters.append(adapter)
    return adapters


def binary_micro_adapters(
    files: tpch.TpchFiles,
    systems: Iterable[str] = BINARY_SYSTEMS,
    with_orders: bool = False,
) -> list[SystemAdapter]:
    """Adapters for the binary micro-benchmarks (TPC-H as binary columns)."""
    adapters: list[SystemAdapter] = []
    for name in systems:
        if name == PROTEUS:
            adapter: SystemAdapter = ProteusAdapter()
            adapter.attach_binary_columns("lineitem", files.lineitem_columns)
            if with_orders:
                adapter.attach_binary_columns("orders", files.orders_columns)
        else:
            adapter = _baseline(name)
            adapter.attach_binary_columns("lineitem", files.lineitem_columns)
            if with_orders:
                adapter.attach_binary_columns("orders", files.orders_columns)
        adapters.append(adapter)
    return adapters


# ---------------------------------------------------------------------------
# Figures 5-12: TPC-H micro-benchmarks
# ---------------------------------------------------------------------------


def _thresholds(files: tpch.TpchFiles) -> dict[float, int]:
    return {s: files.tables.orderkey_threshold(s) for s in templates.SELECTIVITIES}


def figure5(scale: float = 0.3, systems: Sequence[str] = JSON_SYSTEMS,
            verify: bool = True) -> ExperimentReport:
    """Figure 5: projection-intensive queries over JSON data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = json_micro_adapters(files, systems)
    specs = [
        templates.projection_query("lineitem", threshold, variant, selectivity)
        for variant in templates.PROJECTION_VARIANTS
        for selectivity, threshold in _thresholds(files).items()
    ]
    return run_queries("Figure 5: JSON projections", specs, adapters, verify=verify)


def figure6(scale: float = 0.5, systems: Sequence[str] = BINARY_SYSTEMS,
            verify: bool = True) -> ExperimentReport:
    """Figure 6: projection-intensive queries over binary relational data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = binary_micro_adapters(files, systems)
    specs = [
        templates.projection_query("lineitem", threshold, variant, selectivity)
        for variant in templates.PROJECTION_VARIANTS
        for selectivity, threshold in _thresholds(files).items()
    ]
    return run_queries("Figure 6: binary projections", specs, adapters, verify=verify)


def figure7(scale: float = 0.3, systems: Sequence[str] = JSON_SYSTEMS_CORE,
            verify: bool = True) -> ExperimentReport:
    """Figure 7: selection queries over JSON data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = json_micro_adapters(files, systems)
    specs = [
        templates.selection_query("lineitem", threshold, predicates, selectivity)
        for predicates in templates.SELECTION_VARIANTS
        for selectivity, threshold in _thresholds(files).items()
    ]
    return run_queries("Figure 7: JSON selections", specs, adapters, verify=verify)


def figure8(scale: float = 0.5, systems: Sequence[str] = BINARY_SYSTEMS,
            verify: bool = True) -> ExperimentReport:
    """Figure 8: selection queries over binary relational data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = binary_micro_adapters(files, systems)
    specs = [
        templates.selection_query("lineitem", threshold, predicates, selectivity)
        for predicates in templates.SELECTION_VARIANTS
        for selectivity, threshold in _thresholds(files).items()
    ]
    return run_queries("Figure 8: binary selections", specs, adapters, verify=verify)


def figure9(scale: float = 0.2, systems: Sequence[str] = JSON_SYSTEMS_CORE,
            verify: bool = True) -> ExperimentReport:
    """Figure 9: join and unnest queries over JSON data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = json_micro_adapters(
        files, systems, with_orders=True, with_denormalized=True
    )
    thresholds = _thresholds(files)
    specs = [
        templates.join_query("orders", "lineitem", threshold, variant, selectivity)
        for variant in templates.JOIN_VARIANTS
        for selectivity, threshold in thresholds.items()
    ]
    specs += [
        templates.unnest_query("orders_denorm", threshold, selectivity)
        for selectivity, threshold in thresholds.items()
    ]
    # MongoDB has no join support: the paper reports it only for the first
    # join variant (as an indication) and for the unnest case.
    only = {
        MONGO: lambda spec: spec.name.startswith(("join_count", "unnest")),
    }
    return run_queries("Figure 9: JSON joins & unnest", specs, adapters,
                       verify=verify, only=only)


def figure10(scale: float = 0.5, systems: Sequence[str] = BINARY_SYSTEMS,
             verify: bool = True) -> ExperimentReport:
    """Figure 10: join queries over binary relational data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = binary_micro_adapters(files, systems, with_orders=True)
    specs = [
        templates.join_query("orders", "lineitem", threshold, variant, selectivity)
        for variant in templates.JOIN_VARIANTS
        for selectivity, threshold in _thresholds(files).items()
    ]
    return run_queries("Figure 10: binary joins", specs, adapters, verify=verify)


def figure11(scale: float = 0.3, systems: Sequence[str] = JSON_SYSTEMS_CORE,
             verify: bool = True) -> ExperimentReport:
    """Figure 11: aggregate (group-by) queries over JSON data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = json_micro_adapters(files, systems)
    specs = [
        templates.groupby_query("lineitem", threshold, aggregates, selectivity)
        for aggregates in templates.GROUPBY_VARIANTS
        for selectivity, threshold in _thresholds(files).items()
    ]
    return run_queries("Figure 11: JSON group-bys", specs, adapters, verify=verify)


def figure12(scale: float = 0.5, systems: Sequence[str] = BINARY_SYSTEMS,
             verify: bool = True) -> ExperimentReport:
    """Figure 12: aggregate (group-by) queries over binary relational data."""
    files = bench_data.tpch_files(scale=scale)
    adapters = binary_micro_adapters(files, systems)
    specs = [
        templates.groupby_query("lineitem", threshold, aggregates, selectivity)
        for aggregates in templates.GROUPBY_VARIANTS
        for selectivity, threshold in _thresholds(files).items()
    ]
    return run_queries("Figure 12: binary group-bys", specs, adapters, verify=verify)


# ---------------------------------------------------------------------------
# Figure 13: effect of caching
# ---------------------------------------------------------------------------


@dataclass
class CachingSpeedup:
    """One bar of Figure 13: the speedup of the cached-predicate configuration."""

    template: str
    selectivity: float
    baseline_seconds: float
    cached_seconds: float

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.cached_seconds if self.cached_seconds else 0.0


def figure13(scale: float = 0.3) -> list[CachingSpeedup]:
    """Figure 13: speedup from serving predicate columns out of the adaptive
    caches for a projection-heavy and a selection-heavy JSON query."""
    files = bench_data.tpch_files(scale=scale)
    thresholds = _thresholds(files)

    def build(enable_caching: bool) -> ProteusAdapter:
        adapter = ProteusAdapter(
            name="proteus_cached" if enable_caching else "proteus_baseline",
            enable_caching=enable_caching,
        )
        adapter.attach_json("lineitem", files.lineitem_json, schema=tpch.LINEITEM_SCHEMA)
        adapter.warm_up("lineitem")
        return adapter

    results: list[CachingSpeedup] = []
    for template_name in ("projection", "selection"):
        for selectivity, threshold in thresholds.items():
            if template_name == "projection":
                spec = templates.projection_query("lineitem", threshold, "4agg", selectivity)
                priming = templates.selection_query("lineitem", threshold, 1, selectivity)
            else:
                spec = templates.selection_query("lineitem", threshold, 4, selectivity)
                priming = templates.selection_query("lineitem", threshold, 4, selectivity)
            baseline = build(enable_caching=False)
            baseline_measurement = baseline.run(spec)
            cached = build(enable_caching=True)
            cached.run(priming)  # populates the caches with the predicate columns
            cached_measurement = cached.run(spec)
            results.append(
                CachingSpeedup(
                    template=template_name,
                    selectivity=selectivity,
                    baseline_seconds=baseline_measurement.seconds,
                    cached_seconds=cached_measurement.seconds,
                )
            )
    return results


# ---------------------------------------------------------------------------
# Figure 14 and Table 3: the Symantec workload
# ---------------------------------------------------------------------------


@dataclass
class SymantecResults:
    """Everything Figure 14 and Table 3 need."""

    report: ExperimentReport
    phases: dict[int, str]
    load_seconds: dict[tuple[str, str], float]
    middleware_seconds: dict[str, float]

    def phase_breakdown(self) -> dict[tuple[str, str], float]:
        """Accumulated per-system seconds per Table 3 column."""
        breakdown: dict[tuple[str, str], float] = {}
        for system, kind in self.load_seconds:
            column = "Load CSV" if kind == "csv" else "Load JSON"
            breakdown[(system, column)] = breakdown.get((system, column), 0.0) + \
                self.load_seconds[(system, kind)]
        for system, seconds in self.middleware_seconds.items():
            breakdown[(system, "Middleware")] = seconds
        for measurement in self.report.measurements:
            index = int(measurement.query[1:]) if measurement.query.startswith("Q") else 0
            column = "Q39" if index == 39 else "Queries (Rest)"
            key = (measurement.system, column)
            breakdown[key] = breakdown.get(key, 0.0) + measurement.seconds
        return breakdown

    def totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (system, _), seconds in self.phase_breakdown().items():
            totals[system] = totals.get(system, 0.0) + seconds
        return totals


def figure14(
    num_json: int = 1_200,
    num_csv: int = 5_000,
    num_binary: int = 6_000,
    verify: bool = True,
    cache_budget_bytes: int = 256 * 1024 * 1024,
) -> SymantecResults:
    """Figure 14 / Table 3: the 50-query Symantec spam-analysis workload,
    comparing (i) an RDBMS extended with JSON support, (ii) a federation of a
    column store and a document store, and (iii) Proteus with caching on."""
    files = bench_data.symantec_files(
        num_json=num_json, num_csv=num_csv, num_binary=num_binary
    )
    workload = symantec.symantec_workload(files)

    postgres = _baseline(POSTGRES)
    federated = _baseline(FEDERATED)
    proteus = ProteusAdapter(enable_caching=True, cache_budget_bytes=cache_budget_bytes)

    load_seconds: dict[tuple[str, str], float] = {}

    # Binary data is pre-existing in every approach (warm OS caches).
    for adapter in (postgres, federated, proteus):
        adapter.attach_binary_columns("mail_log", files.binary_dir)

    # CSV / JSON: the comparators must load them up front; Proteus registers
    # the raw files (with known schemas) and touches them during the queries.
    for adapter in (postgres, federated):
        before = adapter.load_seconds
        adapter.attach_csv("classification", files.csv_path)
        load_seconds[(adapter.name, "csv")] = adapter.load_seconds - before
        before = adapter.load_seconds
        adapter.attach_json("spam_mails", files.json_path)
        load_seconds[(adapter.name, "json")] = adapter.load_seconds - before
    proteus.attach_csv("classification", files.csv_path,
                       schema=symantec.CLASSIFICATION_CSV_SCHEMA)
    proteus.attach_json("spam_mails", files.json_path,
                        schema=symantec.SPAM_JSON_SCHEMA)
    load_seconds[(proteus.name, "csv")] = 0.0
    load_seconds[(proteus.name, "json")] = 0.0

    adapters: list[SystemAdapter] = [proteus, postgres, federated]
    specs = [query.spec for query in workload]
    report = run_queries("Figure 14: Symantec spam workload", specs, adapters,
                         verify=verify)
    phases = {query.index: query.phase for query in workload}
    middleware = {
        postgres.name: 0.0,
        proteus.name: 0.0,
        federated.name: federated.engine.middleware_seconds,  # type: ignore[attr-defined]
    }
    return SymantecResults(
        report=report,
        phases=phases,
        load_seconds=load_seconds,
        middleware_seconds=middleware,
    )


# ---------------------------------------------------------------------------
# In-text measurements and ablations
# ---------------------------------------------------------------------------


@dataclass
class IndexConstructionResult:
    """Structural-index size and build time versus document-store load time."""

    dataset: str
    file_bytes: int
    index_bytes: int
    index_ratio: float
    build_seconds: float
    mongo_load_seconds: float
    postgres_load_seconds: float


def index_construction(scale: float = 0.3) -> IndexConstructionResult:
    """§7.1 in-text claim: the JSON structural index is a fraction of the file
    size and is built faster than loading the data into the other systems."""
    files = bench_data.tpch_files(scale=scale)
    proteus = ProteusAdapter()
    proteus.attach_json("lineitem", files.lineitem_json, schema=tpch.LINEITEM_SCHEMA)
    started = time.perf_counter()
    info = proteus.engine.structural_index_info("lineitem")
    build_seconds = max(time.perf_counter() - started, info["build_seconds"])
    mongo = _baseline(MONGO)
    mongo.attach_json("lineitem", files.lineitem_json)
    postgres = _baseline(POSTGRES)
    postgres.attach_json("lineitem", files.lineitem_json)
    return IndexConstructionResult(
        dataset="lineitem.json",
        file_bytes=info["file_bytes"],
        index_bytes=info["size_bytes"],
        index_ratio=info["size_bytes"] / max(info["file_bytes"], 1),
        build_seconds=build_seconds,
        mongo_load_seconds=mongo.load_seconds,
        postgres_load_seconds=postgres.load_seconds,
    )


@dataclass
class AblationResult:
    """One ablation comparison: the same query under two configurations."""

    name: str
    baseline_label: str
    baseline_seconds: float
    variant_label: str
    variant_seconds: float

    @property
    def speedup(self) -> float:
        return (
            self.baseline_seconds / self.variant_seconds if self.variant_seconds else 0.0
        )


def ablation_codegen(scale: float = 0.2) -> AblationResult:
    """Engine-per-query ablation: generated code versus the Volcano interpreter
    on the same physical plan (JSON selection query)."""
    files = bench_data.tpch_files(scale=scale)
    threshold = files.tables.orderkey_threshold(0.5)
    spec = templates.selection_query("lineitem", threshold, 3, 0.5)

    def run(enable_codegen: bool) -> float:
        adapter = ProteusAdapter(
            name="proteus_codegen" if enable_codegen else "proteus_volcano",
            enable_caching=False,
            enable_codegen=enable_codegen,
        )
        adapter.attach_json("lineitem", files.lineitem_json, schema=tpch.LINEITEM_SCHEMA)
        adapter.warm_up("lineitem")
        return adapter.run(spec).seconds

    return AblationResult(
        name="codegen_vs_interpretation",
        baseline_label="Volcano interpreter",
        baseline_seconds=run(False),
        variant_label="generated engine-per-query",
        variant_seconds=run(True),
    )


def ablation_caching(scale: float = 0.2) -> AblationResult:
    """Adaptive-caching ablation: repeated JSON query with and without caches."""
    files = bench_data.tpch_files(scale=scale)
    threshold = files.tables.orderkey_threshold(0.2)
    spec = templates.projection_query("lineitem", threshold, "4agg", 0.2)

    def run(enable_caching: bool) -> float:
        adapter = ProteusAdapter(
            name="proteus_cached" if enable_caching else "proteus_no_cache",
            enable_caching=enable_caching,
        )
        adapter.attach_json("lineitem", files.lineitem_json, schema=tpch.LINEITEM_SCHEMA)
        adapter.warm_up("lineitem")
        adapter.run(spec)  # first execution (populates caches when enabled)
        return adapter.run(spec).seconds  # repeated execution

    return AblationResult(
        name="caching_repeated_query",
        baseline_label="caching disabled",
        baseline_seconds=run(False),
        variant_label="caching enabled (second execution)",
        variant_seconds=run(True),
    )


def ablation_csv_stride(scale: float = 0.3, strides: Sequence[int] = (1, 5, 20)) -> dict[int, float]:
    """CSV structural-index stride sweep: index size trade-off (§5.2)."""
    files = bench_data.tpch_files(scale=scale)
    sizes: dict[int, float] = {}
    for stride in strides:
        adapter = ProteusAdapter(name=f"proteus_stride{stride}")
        adapter.engine.register_csv(
            "lineitem", files.lineitem_csv, schema=tpch.LINEITEM_SCHEMA, stride=stride
        )
        info = adapter.engine.structural_index_info("lineitem")
        sizes[stride] = info["size_bytes"] / max(info["file_bytes"], 1)
    return sizes


def ablation_json_fixed_schema(scale: float = 0.2) -> AblationResult:
    """The paper's fixed-schema specialization, now subsumed: scanning a JSON
    file whose objects share field order versus an arbitrary-field-order
    twin.  Both read the same per-path position columns, so the two orders
    are expected to cost the same."""
    import os

    files = bench_data.tpch_files(scale=scale)
    shuffled_path = files.lineitem_json + ".shuffled"
    if not os.path.exists(shuffled_path):
        tpch.write_json(shuffled_path, files.tables.lineitem, shuffle_field_order=True)
    threshold = files.tables.orderkey_threshold(0.5)
    spec = templates.selection_query("lineitem", threshold, 1, 0.5)

    def run(path: str, label: str) -> float:
        adapter = ProteusAdapter(name=label, enable_caching=False)
        adapter.attach_json("lineitem", path, schema=tpch.LINEITEM_SCHEMA)
        adapter.warm_up("lineitem")
        return adapter.run(spec).seconds

    return AblationResult(
        name="json_fixed_schema_specialization",
        baseline_label="arbitrary field order",
        baseline_seconds=run(shuffled_path, "proteus_arbitrary_order"),
        variant_label="fixed field order",
        variant_seconds=run(files.lineitem_json, "proteus_fixed_schema"),
    )
