"""Observability subsystem tests: tracing, metrics, EXPLAIN ANALYZE, and
cross-tier profile-counter consistency.

The differential tests pin the counter contract the tracing layer reports
against: ``rows_scanned`` / ``output_rows`` / ``unnest_output_rows`` must be
*identical* across every engine configuration for the same query, so a span or
metric means the same thing no matter which tier served the execution.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ProteusError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import PHASES, TraceBuilder

from tests.conftest import FANOUT_BATCH_SIZE, make_engine, tier_of

# -- differential counter consistency -----------------------------------------

#: Configuration label -> engine kwargs; ``tier_of(label)`` is the tier that
#: serves.  ``codegen-batched`` runs the pipeline inline over two-row batches;
#: small batches and two workers make ``codegen-fanout`` actually split work
#: into morsels.
TIER_CONFIGS = {
    "codegen": {},
    "codegen-batched": {"vectorized_batch_size": FANOUT_BATCH_SIZE},
    "codegen-fanout": {
        "parallel_workers": 2,
        "vectorized_batch_size": FANOUT_BATCH_SIZE,
    },
    "volcano": {"enable_codegen": False},
}

#: Queries spanning scan/filter/aggregate/group-by/join/unnest shapes.  No
#: bare LIMIT queries: the scan counters deliberately count pre-predicate
#: work, which early termination makes tier-dependent.
DIFFERENTIAL_QUERIES = [
    "SELECT SUM(price) AS s, COUNT(*) AS n FROM items_json WHERE qty < 5",
    "SELECT qty, COUNT(*) AS n, MAX(price) AS m FROM items_bin "
    "GROUP BY qty ORDER BY qty",
    "SELECT COUNT(*) FROM items_json j JOIN items_csv c ON j.id = c.id "
    "WHERE j.qty < 3",
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item, l.qty)",
    "for { o <- orders, l <- o.lines, l.qty > 1 } yield sum (l.price)",
]


@pytest.fixture(scope="module")
def tier_engines(tmp_path_factory, request):
    # Rebuild the session datasets via the paths fixture indirectly: the
    # conftest data_dir fixture is session-scoped, so reuse it through a
    # module-scoped request.
    data_dir = request.getfixturevalue("data_dir")
    import os

    paths = {
        "items_csv": os.path.join(data_dir, "items.csv"),
        "items_json": os.path.join(data_dir, "items.json"),
        "orders_json": os.path.join(data_dir, "orders.json"),
        "items_columns": os.path.join(data_dir, "items_columns"),
        "items_rows": os.path.join(data_dir, "items_rows.bin"),
    }
    return {
        tier: make_engine(paths, enable_caching=False, **kwargs)
        for tier, kwargs in TIER_CONFIGS.items()
    }


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_profile_counters_identical_across_tiers(tier_engines, query):
    profiles = {}
    rows = {}
    for tier, engine in tier_engines.items():
        result = engine.query(query)
        assert result.profile is not None
        assert result.profile.execution_tier == tier_of(tier), (
            f"{tier} engine was served by {result.profile.execution_tier}"
        )
        assert (result.profile.morsels_dispatched > 0) == (
            tier == "codegen-fanout"
        )
        profiles[tier] = result.profile
        rows[tier] = sorted(map(repr, result.rows))
    reference = profiles["volcano"]
    for tier, profile in profiles.items():
        assert profile.rows_scanned == reference.rows_scanned, tier
        assert profile.output_rows == reference.output_rows, tier
        assert profile.unnest_output_rows == reference.unnest_output_rows, tier
        assert rows[tier] == rows["volcano"], tier


# -- span tracing --------------------------------------------------------------


def test_traced_engine_records_phases_and_operator_spans(paths):
    engine = make_engine(paths, enable_tracing=True, enable_caching=False)
    engine.query("SELECT SUM(price) AS s FROM items_bin WHERE qty < 5")
    trace = engine.tracer.last()
    assert trace is not None
    phase_names = {span.name for span in trace.phases}
    assert {"parse", "plan", "analyze", "execute", "materialize"} <= phase_names
    assert all(name in PHASES for name in phase_names)
    assert all(span.seconds >= 0.0 for span in trace.phases)
    assert trace.operators, "no operator spans recorded"
    scan = trace.operator_span("scan:items_bin")
    assert scan is not None
    assert scan.rows_out == 120
    assert trace.elapsed_seconds > 0.0
    exported = trace.to_dict()
    assert exported["tier"] == trace.tier
    assert len(exported["operators"]) == len(trace.operators)


def test_trace_ring_buffer_is_bounded(paths):
    engine = make_engine(paths, enable_caching=False)
    engine.tracer = Tracer(capacity=2, enabled=True)
    for bound in (2, 4, 6):
        engine.query(f"SELECT COUNT(*) FROM items_csv WHERE qty < {bound}")
    traces = engine.tracer.traces()
    assert len(traces) == 2
    assert "qty < 4" in traces[0].query_text
    assert "qty < 6" in traces[1].query_text
    assert engine.tracer.last() is traces[-1]


def test_tracing_disabled_records_nothing(paths):
    engine = make_engine(paths, enable_caching=False)
    engine.query("SELECT COUNT(*) FROM items_csv")
    assert engine.tracer.traces() == []
    assert engine.tracer.last() is None


def test_tracer_spans_cover_every_tier(paths):
    for tier, kwargs in TIER_CONFIGS.items():
        engine = make_engine(
            paths, enable_tracing=True, enable_caching=False, **kwargs
        )
        result = engine.query(
            "SELECT SUM(price) AS s FROM items_json WHERE qty < 7"
        )
        assert result.profile.execution_tier == tier_of(tier)
        trace = engine.tracer.last()
        assert trace is not None and trace.tier == tier_of(tier)
        assert trace.operators, f"{tier} recorded no operator spans"
        total_rows = sum(span.rows_out for span in trace.operators)
        assert total_rows > 0, f"{tier} spans carry no row counts"


def test_trace_builder_keys_spans_by_plan_node():
    builder = TraceBuilder("q", None)
    first = builder.operator("scan:a")
    again = builder.operator("scan:a")
    other = builder.operator("scan:b")
    assert first is again
    assert other is not first
    first.add(seconds=0.5, rows_out=10, batches=1)
    first.add_batch(0.25, 4, 4)
    spans = builder.operator_spans()
    span = next(s for s in spans if s.name == "scan:a")
    assert span.seconds == pytest.approx(0.75)
    assert span.rows_out == 14
    assert span.batches == 2


def test_tracer_force_is_temporary():
    tracer = Tracer(enabled=False)
    with tracer.force():
        assert tracer.enabled
        builder = tracer.begin("q", None)
        assert builder is not None
        tracer.finish(builder, None, 0.0)
    assert not tracer.enabled
    assert tracer.begin("q2", None) is None
    assert len(tracer.traces()) == 1


def _on_thread(function, *args):
    """Run ``function(*args)`` on a new thread; its result, or its error
    raised here."""
    outcome = {}

    def run():
        try:
            outcome["result"] = function(*args)
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def test_parked_phases_stay_on_the_preparing_thread(paths):
    engine = make_engine(paths, enable_tracing=True, enable_caching=False)
    warm = "SELECT COUNT(*) FROM items_csv WHERE qty < 3"
    engine.query(warm)
    # Parks parse/analyze/plan on this thread; nothing executes here.
    engine.prepare("SELECT SUM(price) AS s FROM items_csv WHERE qty < 4")
    _on_thread(engine.query, warm)
    phases = [span.name for span in engine.tracer.last().phases]
    assert "parse" not in phases, phases
    assert "execute" in phases, phases


def test_prepare_time_phases_belong_to_the_prepared_query(paths):
    """The frontend phases of a ``prepare()`` go to that prepared query's
    first execution, never to another query run next on the same thread,
    and never to a second execution."""
    engine = make_engine(paths, enable_tracing=True, enable_caching=False)
    warm = "SELECT COUNT(*) FROM items_csv WHERE qty < 3"
    engine.query(warm)
    prepared = engine.prepare("SELECT SUM(price) AS s FROM items_csv WHERE qty < 4")
    engine.query(warm)
    frontend = {"parse", "plan", "analyze", "codegen"}
    warm_phases = {span.name for span in engine.tracer.last().phases}
    assert not warm_phases & frontend, warm_phases
    prepared.execute()
    first = {span.name for span in engine.tracer.last().phases}
    assert frontend <= first, first
    prepared.execute()
    again = {span.name for span in engine.tracer.last().phases}
    assert not again & frontend and "execute" in again, again


def test_a_refused_first_execution_leaves_the_frontend_phases(paths):
    """A first execution that admission refuses reports nothing; the
    shape's frontend phases go to the execution that runs next."""
    engine = make_engine(
        paths, enable_tracing=True, enable_caching=False, max_concurrent_queries=1
    )
    prepared = engine.prepare("SELECT SUM(price) AS s FROM items_csv WHERE qty < 4")
    slot = engine.admission.admit()
    try:
        with pytest.raises(ProteusError, match="RES003"):
            prepared.execute(timeout=0.05)
    finally:
        slot.release()
    prepared.execute()
    phases = {span.name for span in engine.tracer.last().phases}
    assert {"parse", "plan", "analyze", "execute"} <= phases, phases


def test_force_traces_only_the_forcing_thread(paths):
    engine = make_engine(paths, enable_caching=False)
    with engine.tracer.force():
        _on_thread(engine.query, "SELECT COUNT(*) FROM items_csv")
    assert engine.tracer.traces() == []


@pytest.mark.parametrize(
    "config", ["codegen", "codegen-batched", "codegen-fanout"]
)
def test_scan_and_stage_spans_cover_cold_and_cached_runs(paths, config):
    engine = make_engine(
        paths, enable_tracing=True, enable_caching=True, **TIER_CONFIGS[config]
    )
    plugin = engine.plugins["json"]
    for run in ("cold", "cached"):
        calls = plugin.scan_calls
        result = engine.query("SELECT COUNT(*) AS n FROM items_json WHERE qty < 7")
        trace = engine.tracer.last()
        scan = trace.operator_span("scan:items_json")
        assert scan is not None, run
        assert scan.rows_out == 120, run
        assert scan.batches == result.profile.batches_processed, run
        stages = [span for span in trace.operators if span.detail.endswith("Stage")]
        assert stages, run
        assert all(span.batches >= 1 for span in stages), (run, stages)
        if run == "cold":
            assert plugin.scan_calls > calls
        else:
            assert result.profile.values_from_cache == 120
            assert plugin.scan_calls == calls


# -- metrics registry ----------------------------------------------------------


def test_metrics_count_queries_by_tier(paths):
    engine = make_engine(paths, enable_caching=False)
    engine.query("SELECT COUNT(*) FROM items_csv")
    engine.query("SELECT COUNT(*) FROM items_json WHERE qty < 5")
    counter = engine.metrics.counter("proteus_queries_total")
    assert counter.value(tier="codegen") == 2
    histogram = engine.metrics.histogram("proteus_query_seconds")
    assert histogram.count == 2
    assert histogram.sum > 0.0


def test_metrics_record_tier_declines_with_codes(paths):
    engine = make_engine(paths, enable_caching=False, enable_codegen=False)
    engine.query("SELECT COUNT(*) FROM items_csv")
    declines = engine.metrics.counter("proteus_tier_declines_total")
    samples = declines.samples()
    assert samples, "no tier declines recorded"
    tiers = {dict(key)["tier"] for key, _ in samples}
    assert "codegen" in tiers
    assert all(dict(key)["code"].startswith("TIER") for key, _ in samples)


def test_metrics_label_codegen_disabled_queries_volcano(paths):
    # enable_codegen=False is the static engine, even when the fan-out knobs
    # are set: every query is counted under tier="volcano", each with one
    # TIER001 decline of the codegen tier and no other tier label.
    engine = make_engine(
        paths, enable_caching=False, enable_codegen=False, parallel_workers=2,
        vectorized_batch_size=FANOUT_BATCH_SIZE,
    )
    engine.query("SELECT COUNT(*) FROM items_csv")
    engine.query("SELECT SUM(price) FROM items_json WHERE qty < 5")
    queries = engine.metrics.counter("proteus_queries_total")
    assert [(dict(key), value) for key, value in queries.samples()] == [
        ({"tier": "volcano"}, 2)
    ]
    declines = engine.metrics.counter("proteus_tier_declines_total")
    assert [(dict(key), value) for key, value in declines.samples()] == [
        ({"tier": "codegen", "code": "TIER001"}, 2)
    ]


def test_metrics_disabled_records_nothing(paths):
    engine = make_engine(paths, enable_metrics=False, enable_caching=False)
    engine.query("SELECT COUNT(*) FROM items_csv")
    exported = engine.metrics.to_dict()
    assert exported == {"slow_queries": []}


def test_cache_gauges_read_live_state(paths):
    engine = make_engine(paths)
    engine.query("SELECT SUM(price) FROM items_bin")
    engine.query("SELECT SUM(price) FROM items_bin")
    exported = engine.metrics.to_dict()
    assert exported["proteus_cache_lookups"]["value"] > 0
    assert 0.0 <= exported["proteus_cache_hit_rate"]["value"] <= 1.0
    scan_calls = exported["proteus_plugin_scan_calls"]["values"]
    assert any(value > 0 for value in scan_calls.values())


def test_slow_query_log_captures_trace(paths):
    engine = make_engine(
        paths,
        enable_tracing=True,
        enable_caching=False,
        slow_query_seconds=0.0,  # every query qualifies
    )
    engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 5")
    slow = engine.metrics.slow_queries()
    assert len(slow) == 1
    entry = slow[0]
    assert "items_csv" in entry["query"]
    assert entry["seconds"] >= 0.0
    assert entry["trace"]["operators"], "slow-query entry lost its trace"


def test_prometheus_rendering_shape():
    registry = MetricsRegistry()
    counter = registry.counter("proteus_test_total", "A test counter.")
    counter.inc(3, tier="codegen")
    counter.inc(1, tier="volcano")
    histogram = registry.histogram(
        "proteus_test_seconds", "A test histogram.", buckets=(0.1, 1.0)
    )
    histogram.observe(0.05)
    histogram.observe(5.0)
    text = registry.render_prometheus()
    assert "# TYPE proteus_test_total counter" in text
    assert 'proteus_test_total{tier="codegen"} 3' in text
    assert 'proteus_test_total{tier="volcano"} 1' in text
    assert "# TYPE proteus_test_seconds histogram" in text
    assert 'proteus_test_seconds_bucket{le="0.1"} 1' in text
    assert 'proteus_test_seconds_bucket{le="+Inf"} 2' in text
    assert "proteus_test_seconds_count 2" in text


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("proteus_thing")
    with pytest.raises(ValueError):
        registry.histogram("proteus_thing")


def test_gauge_callback_mapping_labels():
    registry = MetricsRegistry()
    registry.gauge_callback(
        "proteus_plugin_bytes",
        lambda: {"csv": 10.0, "json": 20.0},
        callback_label="format",
    )
    text = registry.render_prometheus()
    assert 'proteus_plugin_bytes{format="csv"} 10' in text
    assert 'proteus_plugin_bytes{format="json"} 20' in text


# -- EXPLAIN ANALYZE -----------------------------------------------------------


@pytest.mark.parametrize("tier", list(TIER_CONFIGS))
def test_explain_analyze_reports_every_tier(paths, tier):
    engine = make_engine(paths, enable_caching=False, **TIER_CONFIGS[tier])
    report = engine.explain(
        "SELECT SUM(price) AS s FROM items_json WHERE qty < 5", analyze=True
    )
    assert "== explain analyze ==" in report
    assert f"tier: {tier_of(tier)} " in report
    assert "== plan: estimated vs actual ==" in report
    assert "est" in report and "actual" in report
    assert "== phases ==" in report
    assert "== tier cascade ==" in report
    # Every tier sorts in the engine's epilogue, so the Sort node has a span.
    report = engine.explain(
        "SELECT id, price FROM items_json WHERE qty < 5 "
        "ORDER BY price DESC LIMIT 3",
        analyze=True,
    )
    lines = report.splitlines()
    sort_line = next(i for i, line in enumerate(lines) if line.startswith("Sort("))
    assert "actual 3 rows" in lines[sort_line + 1], report
    assert "(no span recorded)" not in lines[sort_line + 1], report


def test_explain_analyze_marks_prediction_agreement(engine):
    report = engine.explain("SELECT COUNT(*) FROM items_bin", analyze=True)
    assert "as predicted" in report or "DEMOTED" in report


def test_explain_analyze_leaves_tracing_disabled(paths):
    engine = make_engine(paths, enable_caching=False)
    assert not engine.tracer.enabled
    engine.explain("SELECT COUNT(*) FROM items_csv", analyze=True)
    assert not engine.tracer.enabled
    # The forced trace itself is retained for inspection.
    assert engine.tracer.last() is not None
    # Later ordinary queries are not traced.
    engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 2")
    assert len(engine.tracer.traces()) == 1


def test_explain_without_analyze_does_not_execute(paths):
    engine = make_engine(paths, enable_caching=False)
    report = engine.explain("SELECT COUNT(*) FROM items_csv")
    assert "== physical plan ==" in report
    assert "== explain analyze ==" not in report
    counter = engine.metrics.counter("proteus_queries_total")
    assert counter.samples() == []


# -- join / grouping kernel choice ---------------------------------------------

#: The seven warm OLAP query shapes of the end-to-end benchmark (TPC-H-shaped
#: binary columns) -> (join kernels, group kernel) the batch pipeline runs.
#: The join's build side holds every order key once, so it probes a table
#: rather than run per key value.
OLAP_SHAPES = {
    "SELECT COUNT(*), SUM(l_extendedprice), MAX(l_quantity) FROM lineitem "
    "WHERE l_discount < 0.05": ([], None),
    "SELECT l_linenumber, COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "WHERE l_quantity < 40 GROUP BY l_linenumber": ([], "dense"),
    "SELECT l_suppkey, COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "WHERE l_quantity < 40 GROUP BY l_suppkey": ([], "dense"),
    "SELECT COUNT(*), SUM(l_extendedprice), MAX(o_totalprice) FROM lineitem l "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_orderpriority < 3":
        (["dense"], None),
    "SELECT l_extendedprice, l_orderkey FROM lineitem WHERE l_discount < 0.05 "
    "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 100": ([], None),
    "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderpriority < 3 "
    "ORDER BY o_custkey, o_totalprice DESC": ([], None),
    "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem "
    "WHERE l_orderkey < 500": ([], None),
}


@pytest.fixture(scope="module")
def olap_engine(tmp_path_factory):
    from repro import ProteusEngine
    from repro.workloads import tpch

    directory = tmp_path_factory.mktemp("olap")
    # 120 k lineitems: two morsels of the default batch, so the group-bys
    # fan out over two workers exactly as they do at benchmark scale.
    tables = tpch.generate(scale=20, seed=7)
    engine = ProteusEngine(parallel_workers=2)
    engine.register_binary_columns("lineitem", tpch.write_binary_columns(
        str(directory / "lineitem"), tables.lineitem, tpch.LINEITEM_SCHEMA))
    engine.register_binary_columns("orders", tpch.write_binary_columns(
        str(directory / "orders"), tables.orders, tpch.ORDERS_SCHEMA))
    return engine


@pytest.mark.parametrize("query", list(OLAP_SHAPES))
def test_olap_shapes_take_the_dense_kernels(olap_engine, query):
    join_kernels, group_kernel = OLAP_SHAPES[query]
    profile = olap_engine.query(query).profile
    assert profile.execution_tier == "codegen"
    assert profile.join_kernels == join_kernels
    assert profile.group_kernel == group_kernel
    if group_kernel is not None:
        assert profile.morsels_dispatched == 2


def test_explain_names_the_olap_join_only_a_per_key_candidate(olap_engine):
    """``explain()`` reads the plan alone: the OLAP join is a one-key chain,
    but its build side holds every order key once, so it probes a table."""
    query = next(query for query, (joins, _) in OLAP_SHAPES.items() if joins)
    assert "join chain of 2 inputs may run per key value" in olap_engine.explain(query)
    assert olap_engine.query(query).profile.join_kernels == ["dense"]
    assert "join kernels: dense" in olap_engine.explain(query, analyze=True)


#: Symantec two-way joins whose build side is the JSON feed, which holds one
#: record per ``mail_id``: one joined row per matching row of the other side,
#: so they probe a table instead of running per key value.
SYMANTEC_UNIQUE_BUILD_SIDES = {"Q37", "Q39"}


def test_symantec_mail_id_joins_run_per_key(tmp_path):
    """Every Symantec join query aggregates over ``mail_id`` equi-joins with
    single-input filters: each runs per key value, without joined rows —
    unless two inputs join on keys the first holds once each."""
    from repro import ProteusEngine
    from repro.workloads import symantec

    files = symantec.materialize(
        str(tmp_path), num_json=800, num_csv=3200, num_binary=4000, seed=7
    )
    engine = ProteusEngine(enable_caching=False)
    engine.register_json("spam_mails", files.json_path)
    engine.register_csv("classification", files.csv_path)
    engine.register_binary_columns("mail_log", files.binary_dir)
    joins = [q for q in symantec.symantec_workload(files) if q.spec.joins]
    assert len(joins) == 25
    for query in joins:
        profile = engine.query(query.spec.to_text()).profile
        expected = ["factorized"] * len(query.spec.joins)
        if query.spec.name in SYMANTEC_UNIQUE_BUILD_SIDES:
            expected = ["dense"]
        assert profile.join_kernels == expected, query.spec.name


#: The Symantec queries grouping on a string field (``label``, ``lang``,
#: ``bot``, ``origin.country``).
SYMANTEC_STRING_GROUP_BYS = ["Q13", "Q19", "Q24", "Q30", "Q33", "Q38", "Q43", "Q47", "Q50"]


def test_symantec_string_group_bys_take_the_dense_kernel(tmp_path):
    """CSV and JSON string keys arrive dictionary-encoded; grouping runs
    ``bincount`` over their codes."""
    from repro import ProteusEngine
    from repro.workloads import symantec

    files = symantec.materialize(
        str(tmp_path), num_json=800, num_csv=3200, num_binary=4000, seed=7
    )
    engine = ProteusEngine(enable_caching=False)
    engine.register_json("spam_mails", files.json_path)
    engine.register_csv("classification", files.csv_path)
    engine.register_binary_columns("mail_log", files.binary_dir)
    queries = {q.spec.name: q.spec for q in symantec.symantec_workload(files)}
    for name in SYMANTEC_STRING_GROUP_BYS:
        text = queries[name].to_text()
        assert engine.query(text).profile.group_kernel == "dense", name
        assert "group kernel: dense" in engine.explain(text, analyze=True), name


def test_string_keyed_join_takes_the_dense_kernel(paths):
    """A CSV string key (dictionary-encoded) joined with a binary one (an
    object column, encoded at the join): both sides meet as codes.  The
    aggregate argument reads both inputs, so the join probes a table."""
    engine = make_engine(paths, enable_caching=False)
    query = (
        "SELECT a.category, COUNT(*), MAX(a.id + b.id) FROM items_csv a "
        "JOIN items_bin b ON a.category = b.category GROUP BY a.category"
    )
    result = engine.query(query)
    assert result.profile.join_kernels == ["dense"]
    assert result.profile.group_kernel == "dense"
    assert sorted(result.rows) == [(f"cat{i}", 30 * 30, 2 * (116 + i)) for i in range(4)]
    report = engine.explain(query, analyze=True)
    assert "join kernels: dense" in report
    assert "group kernel: dense" in report


def test_string_keyed_join_runs_per_key(paths):
    """The same string keys under an aggregate of one input: the keys of
    both inputs group as codes of one dictionary, without joined rows."""
    engine = make_engine(paths, enable_caching=False)
    query = (
        "SELECT a.category, COUNT(*) FROM items_csv a JOIN items_bin b "
        "ON a.category = b.category GROUP BY a.category"
    )
    result = engine.query(query)
    assert result.profile.join_kernels == ["factorized"]
    assert result.profile.group_kernel == "dense"
    assert sorted(result.rows) == [(f"cat{i}", 30 * 30) for i in range(4)]


def test_explain_analyze_spans_every_join_of_a_factorized_chain(paths):
    engine = make_engine(paths, enable_caching=False)
    query = (
        "SELECT b.qty, COUNT(*), SUM(c.price) FROM items_csv a "
        "JOIN items_bin b ON a.id = b.id JOIN items_json c ON b.id = c.id "
        "WHERE a.qty < 5 GROUP BY b.qty"
    )
    assert "join chain of 3 inputs may run per key value" in engine.explain(query)
    report = engine.explain(query, analyze=True)
    assert "join kernels: factorized, factorized" in report
    assert "group kernel: dense" in report
    lines = report.splitlines()
    joins = [i for i, line in enumerate(lines) if line.lstrip().startswith("HashJoin(")]
    assert len(joins) == 2, report
    for index in joins:
        assert "(no span recorded)" not in lines[index + 1], report
        assert "actual" in lines[index + 1], report


def test_explain_analyze_reports_dense_kernels(paths):
    engine = make_engine(paths, enable_caching=False)
    report = engine.explain(
        "SELECT b.qty, COUNT(*), SUM(a.qty + b.qty) FROM items_csv a "
        "JOIN items_bin b ON a.id = b.id GROUP BY b.qty",
        analyze=True,
    )
    assert "join kernels: dense" in report
    assert "group kernel: dense" in report
    report = engine.explain("SELECT COUNT(*) FROM items_bin", analyze=True)
    assert "join kernels" not in report and "group kernel" not in report


#: The query series of ``/metrics`` after :func:`_metric_sequence`, as the
#: engine exported them before it bound its per-query series once.
_SEQUENCE_PROMETHEUS = """\
# HELP proteus_codegen_compilations_total Generated-program executions, by program-cache outcome.
# TYPE proteus_codegen_compilations_total counter
proteus_codegen_compilations_total{outcome="cache-hit"} 1
proteus_codegen_compilations_total{outcome="fresh"} 3
# HELP proteus_queries_failed_total Failed queries, by error code (TYP/TIER/RES/internal).
# TYPE proteus_queries_failed_total counter
proteus_queries_failed_total{code="internal"} 2
# HELP proteus_queries_total Queries executed, by serving tier.
# TYPE proteus_queries_total counter
proteus_queries_total{tier="codegen"} 4
proteus_queries_total{tier="volcano"} 1
proteus_query_seconds_count 5
# HELP proteus_rows_returned_total Result rows returned to callers.
# TYPE proteus_rows_returned_total counter
proteus_rows_returned_total 11
# HELP proteus_tier_declines_total Tier declines, by tier and verdict code.
# TYPE proteus_tier_declines_total counter
proteus_tier_declines_total{code="TIER001",tier="codegen"} 1"""

_SEQUENCE_JSON = {
    "proteus_codegen_compilations_total": {
        "type": "counter", "values": {"{outcome=cache-hit}": 1.0, "{outcome=fresh}": 3.0},
    },
    "proteus_queries_failed_total": {"type": "counter", "values": {"{code=internal}": 2.0}},
    "proteus_queries_total": {
        "type": "counter", "values": {"{tier=codegen}": 4.0, "{tier=volcano}": 1.0},
    },
    "proteus_rows_returned_total": {"type": "counter", "value": 11.0},
    "proteus_tier_declines_total": {
        "type": "counter", "values": {"{code=TIER001,tier=codegen}": 1.0},
    },
}

_SEQUENCE_SERIES = (
    "proteus_queries_total", "proteus_rows_returned_total", "proteus_tier_declines_total",
    "proteus_codegen_compilations_total", "proteus_queries_failed_total",
    "proteus_query_seconds_count",
)


def _metric_sequence(engine) -> None:
    """Fresh and repeated codegen queries, a Volcano one and two failures."""
    for text in [
        "SELECT COUNT(*) FROM items_csv WHERE qty < 3",
        "SELECT COUNT(*) FROM items_csv WHERE qty < 3",
        "SELECT category, SUM(price) AS s FROM items_bin GROUP BY category",
        "SELECT id FROM items_json WHERE qty > 5 ORDER BY id LIMIT 4",
    ]:
        engine.query(text).rows
    engine.enable_codegen = False
    engine.query("SELECT COUNT(*) FROM items_csv WHERE qty < 3").rows
    engine.enable_codegen = True
    for text in ["SELECT nosuch FROM items_csv", "SELECT COUNT(*) FROM nowhere"]:
        with pytest.raises(ProteusError):
            engine.query(text)


def test_query_metrics_export_the_same_bytes(paths):
    """Per-query metrics record into series bound once per engine; the JSON
    and Prometheus exposition of a fixed query sequence are byte for byte
    what recording with labels per call exported."""
    engine = make_engine(paths)
    # Bound series export nothing until their first increment.
    assert "proteus_queries_total 0" in engine.metrics.render_prometheus().splitlines()
    _metric_sequence(engine)
    lines = [
        line
        for line in engine.metrics.render_prometheus().splitlines()
        if any(
            line.split("{")[0].split(" ")[0] == name or f" {name} " in line
            for name in _SEQUENCE_SERIES
        )
    ]
    assert "\n".join(lines) == _SEQUENCE_PROMETHEUS
    exported = engine.metrics.to_dict()
    assert json.dumps(
        {name: value for name, value in sorted(exported.items()) if name in _SEQUENCE_SERIES},
        sort_keys=True,
    ) == json.dumps(_SEQUENCE_JSON, sort_keys=True)
