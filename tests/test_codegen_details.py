"""Unit tests for the code-generation machinery — context, expression
generators, compiler, the fused functions a plan compiles to — and for the
mechanisms that moved from the deleted ``QueryRuntime`` into the one batch
pipeline (lazy field materialization, the unnest-output cache, the join
build-side cache), proven active inline and under a fan-out.

Removed with ``QueryRuntime`` (PR 16), and the tests that covered them:
``CodegenContext.push/pop`` (dead indentation API), the generation-time "no
buffer holds <field>" error (generated functions index the batch's column
table directly; unknown fields are rejected by the static analyzer at
prepare time), and ``rt.scan`` / ``rt.scan_selected`` / ``rt.radix_join`` /
``rt.radix_group`` as callable kernels — their behaviour is asserted below
at the pipeline level instead.
"""

import math

import numpy as np
import pytest

from repro.core.aggregate_utils import literal_results, replace_aggregates
from repro.core.codegen import CodeGenerator, plan_expressions
from repro.core.codegen.compiler import compile_query
from repro.core.codegen.context import CodegenContext
from repro.core.codegen.expr_gen import generate_expression, supported_by_codegen
from repro.core.executor.vectorized import Batch, materialize
from repro.core.expressions import (
    AggregateCall,
    BinaryOp,
    FieldRef,
    IfThenElse,
    Literal,
    Parameter,
    RecordConstruct,
    UnaryOp,
    parameter_env,
)
from repro.errors import CodegenError, ExecutionError
from repro.storage.catalog import DataFormat

from tests.conftest import FANOUT_BATCH_SIZE, expected_items, expected_orders, make_engine

#: Pipeline configurations every moved mechanism must be active under.
PIPELINE_CONFIGS = [
    pytest.param({}, "codegen", id="codegen"),
    pytest.param(
        {"vectorized_batch_size": FANOUT_BATCH_SIZE}, "codegen", id="codegen-batched"
    ),
    pytest.param(
        {"parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE},
        "codegen",
        id="codegen-fanout",
    ),
]


# -- codegen context ------------------------------------------------------------


def test_context_accumulates_module_source():
    ctx = CodegenContext()
    ctx.emit("x = 1")
    ctx.emit()
    ctx.emit("y = 2")
    assert ctx.source() == "x = 1\n\ny = 2\n"


def test_context_fresh_names_and_constants():
    ctx = CodegenContext()
    first = ctx.fresh("col_a")
    second = ctx.fresh("col_a")
    assert first != second
    payload = object()
    name_one = ctx.register_constant("plugin", payload)
    name_two = ctx.register_constant("plugin", payload)
    assert name_one == name_two  # same object registered once
    assert ctx.constants[name_one] is payload


def test_empty_module_compiles_to_no_functions():
    generated = compile_query(CodegenContext(), {})
    assert generated.functions == {}
    with pytest.raises(CodegenError):
        generated.function_for(Literal(1))


# -- expression generation ----------------------------------------------------------


def _fused(expression):
    """Compile one expression into its generated function."""
    ctx = CodegenContext()
    ctx.emit("def f(batch):")
    ctx.emit("    c = batch.columns")
    ctx.emit(f"    return {generate_expression(expression, ctx)}")
    return compile_query(ctx, {expression.fingerprint(): "f"}).function_for(expression)


def _batch(params=None, **columns):
    arrays = {("l", (name,)): np.asarray(values) for name, values in columns.items()}
    count = len(next(iter(arrays.values())))
    return Batch(count=count, columns=arrays, params=params)


EXPRESSIONS = [
    BinaryOp("<", BinaryOp("+", FieldRef("l", ("a",)), Literal(1)), FieldRef("l", ("b",))),
    BinaryOp(
        "and",
        BinaryOp(">", FieldRef("l", ("a",)), Literal(0)),
        UnaryOp("not", BinaryOp("=", FieldRef("l", ("b",)), Literal(3))),
    ),
    BinaryOp("or", FieldRef("l", ("a",)), BinaryOp("!=", FieldRef("l", ("b",)), Literal(3.0))),
    IfThenElse(BinaryOp(">", FieldRef("l", ("a",)), Literal(1)), Literal("hi"), Literal("lo")),
    UnaryOp("-", BinaryOp("*", FieldRef("l", ("a",)), Parameter("rate"))),
    BinaryOp("/", FieldRef("l", ("b",)), Parameter(0)),
    BinaryOp(">", Literal(2), Literal(1)),  # constant: a scalar, broadcast by the caller
    BinaryOp("<=", FieldRef("l", ("a",)), FieldRef("l", ("b",))),
    BinaryOp("-", FieldRef("l", ("b",)), FieldRef("l", ("a",))),
    BinaryOp(
        "or",
        BinaryOp("<", FieldRef("l", ("a",)), Literal(1)),
        BinaryOp(">", FieldRef("l", ("b",)), Literal(5)),
    ),
    UnaryOp("not", BinaryOp(">=", FieldRef("l", ("a",)), Parameter("rate"))),
    IfThenElse(
        BinaryOp("=", FieldRef("l", ("b",)), Literal(3)), FieldRef("l", ("a",)), Literal(-1.0)
    ),
]


def _missing_as_none(values):
    return [None if value != value else value for value in values]


@pytest.mark.parametrize("expression", EXPRESSIONS, ids=repr)
def test_generated_function_agrees_with_the_interpreter(expression):
    """The fused function computes what Volcano's per-row
    ``Expression.evaluate`` computes, missing-value semantics included, for
    every operator shape (a NaN in the batch is ``None`` in the row)."""
    batch = _batch(
        params={"rate": 2.5, 0: 4},
        a=[1.0, float("nan"), 0.0, 5.0],
        b=[3, 4, 3, 7],
    )
    generated = materialize(_fused(expression)(batch), batch.count).tolist()
    columns = {
        name: _missing_as_none(column.tolist())
        for (_, (name,)), column in batch.columns.items()
    }
    rows = [
        {"l": {name: values[row] for name, values in columns.items()}}
        for row in range(batch.count)
    ]
    params = parameter_env(batch.params)
    interpreted = [expression.evaluate({**row, **params}) for row in rows]
    assert _missing_as_none(generated) == pytest.approx(interpreted)


def test_generated_function_inlines_literals_and_looks_parameters_up():
    ctx = CodegenContext()
    source = generate_expression(
        BinaryOp("<", FieldRef("l", ("a",)), BinaryOp("+", Literal(5), Parameter("k"))), ctx
    )
    assert source == (
        "radix.null_safe_compare('<', c[('l', ('a',))], "
        "radix.null_safe_arith('+', 5, param(batch.params, 'k')))"
    )
    assert ctx.constants == {}  # nothing but inlined literals
    # A literal whose repr is not source travels as a module constant.
    source = generate_expression(Literal(float("nan")), ctx)
    assert math.isnan(ctx.constants[source])


def test_unbound_parameter_is_a_coded_execution_error():
    function = _fused(BinaryOp("<", FieldRef("l", ("a",)), Parameter(0)))
    with pytest.raises(ExecutionError, match=r"\?0 is not bound"):
        function(_batch(a=[1, 2]))


def test_generate_expression_errors():
    ctx = CodegenContext()
    with pytest.raises(CodegenError):
        generate_expression(AggregateCall("count"), ctx)
    with pytest.raises(CodegenError):
        generate_expression(RecordConstruct({"a": Literal(1)}), ctx)


def test_supported_by_codegen():
    assert supported_by_codegen(BinaryOp("+", Literal(1), FieldRef("l", ("a",))))
    assert not supported_by_codegen(RecordConstruct({"a": Literal(1)}))


# -- aggregate substitution -------------------------------------------------------------


def test_replace_aggregates():
    total = AggregateCall("sum", FieldRef("l", ("a",)))
    count = AggregateCall("count")
    expr = BinaryOp("/", total, count)
    replaced = replace_aggregates(expr, literal_results({
        total.fingerprint(): 10.0, count.fingerprint(): 4,
    }))
    assert replaced.evaluate({}) == pytest.approx(2.5)
    with pytest.raises(KeyError):
        replace_aggregates(expr, {})


# -- generated program inspection -------------------------------------------------------------


def test_generated_module_is_expression_functions_only(engine):
    """What is generated per query is the plan's expressions — data access,
    joins, grouping and caching belong to the one pipeline."""
    engine.query(
        "SELECT category, SUM(price) / COUNT(*) AS mean FROM items_json "
        "WHERE qty < 3 GROUP BY category"
    )
    source = engine.last_generated_source
    assert source is not None
    for name in ("def select_", "def group_key_", "def sum_argument_", "def out_mean_"):
        assert name in source
    assert "c[('items_json', ('qty',))], 3)" in source  # literal inlined
    assert "c[('__agg__', ('agg_0',))]" in source  # head over aggregate columns
    for gone in ("rt.", "scan(", "radix_join", "unnest(", "scan_selected"):
        assert gone not in source


def test_global_aggregate_heads_are_generated(engine):
    """A global aggregate is the group-by with no keys: its heads are
    generated functions over the one group's aggregate columns."""
    result = engine.prepare(
        "SELECT SUM(price) / COUNT(*) AS mean, MAX(qty) > ? AS big, 7 AS seven "
        "FROM items_json WHERE qty < 3"
    ).execute(1)
    assert result.tier == "codegen"
    assert result.profile.group_kernel is None
    assert result.profile.groups_built == 0
    source = engine.last_generated_source
    for name in ("def sum_argument_", "def out_mean_", "def out_big_", "def out_seven_"):
        assert name in source
    assert "c[('__agg__', ('agg_0',))]" in source
    assert "def group_key_" not in source


def test_generated_functions_cover_every_plan_expression(engine):
    prepared = engine.prepare(
        "SELECT j.id, c.price * :rate AS scaled FROM items_json j "
        "JOIN items_csv c ON j.id = c.id WHERE j.qty < :q AND c.price > 1"
    )
    generated = CodeGenerator().generate(plan_expressions(prepared.plan))
    assert "param(batch.params, 'rate')" in generated.source
    assert "param(batch.params, 'q')" in generated.source
    from repro.core.physical import expressions_of

    for node in prepared.plan.child.walk():
        for expression in expressions_of(node):
            assert callable(generated.function_for(expression))


def test_compiled_queries_are_cached_by_plan(engine):
    engine.query("SELECT COUNT(*) FROM items_bin WHERE qty < 5")
    compiled_before = len(engine._compiled)
    again = engine.query("SELECT COUNT(*) FROM items_bin WHERE qty < 5")
    assert len(engine._compiled) == compiled_before
    assert again.profile.compiled_from_cache
    other = engine.query("SELECT COUNT(*) FROM items_bin WHERE qty < 7")
    assert len(engine._compiled) == compiled_before + 1
    assert not other.profile.compiled_from_cache


def test_one_program_serves_every_limit_and_parameter_binding(engine):
    prepared = engine.prepare(
        "SELECT id, price FROM items_bin WHERE qty < ? ORDER BY price DESC LIMIT ?"
    )
    first = prepared.execute(5, 3)
    compiled = len(engine._compiled)
    second = prepared.execute(8, 7)
    third = engine.query("SELECT id, price FROM items_bin WHERE qty < ? ORDER BY id", 2)
    assert len(engine._compiled) == compiled  # ORDER BY / LIMIT variants share it
    assert not first.profile.compiled_from_cache
    assert second.profile.compiled_from_cache and third.profile.compiled_from_cache
    assert (len(first), len(second)) == (3, 7)
    assert first.tier == second.tier == third.tier == "codegen"


def test_enable_codegen_false_serves_volcano_with_tier001(paths):
    engine = make_engine(paths, enable_codegen=False)
    result = engine.query("SELECT COUNT(*) FROM items_bin WHERE qty < 5")
    assert result.tier == "volcano"
    assert result.profile.tier_decline_reasons == {
        "codegen": "[TIER001] disabled (enable_codegen=False)"
    }
    assert engine.last_generated_source is None
    assert engine._compiled == {}


def test_generation_failure_declines_before_execution(paths, monkeypatch):
    """Generation precedes execution: a generator that fails on a plan the
    static verdict accepted declines codegen with one TIER009 before the
    pipeline starts, and Volcano executes the query — once.  ``explain()``
    reports the same decline.  Nothing is cached, so the next query
    generates again."""
    engine = make_engine(paths)
    query = "SELECT COUNT(*) FROM items_bin WHERE qty < 5"
    calls = []
    started = []

    def failing(plan):
        calls.append(plan)
        raise CodegenError("generator drift")

    monkeypatch.setattr(engine.generator, "generate", failing)
    monkeypatch.setattr(engine, "_execute_pipeline", lambda *args: started.append(args))
    result = engine.query(query)
    assert calls and not started and result.tier == "volcano"
    assert result.profile.predicted_tier == "codegen"
    assert result.profile.tier_decline_reasons == {
        "codegen": "[TIER009] code generation failed: generator drift"
    }
    explained = engine.explain(query)
    assert "code generation unavailable: code generation failed: generator drift" in explained
    assert "declines -- code generation failed: generator drift [TIER009]" in explained
    assert result.scalar() == sum(1 for row in expected_items() if row["qty"] < 5)
    assert engine._compiled == {}
    monkeypatch.undo()
    again = engine.query(query)
    assert again.tier == "codegen" and again.rows == result.rows
    assert not again.profile.compiled_from_cache


# -- moved mechanism 1: lazy field materialization (§5.2) ---------------------------------


@pytest.mark.parametrize("config,label", PIPELINE_CONFIGS)
@pytest.mark.parametrize("dataset,data_format", [
    ("items_csv", DataFormat.CSV), ("items_json", DataFormat.JSON),
])
def test_select_over_raw_scan_fetches_deferred_fields_for_survivors_only(
    paths, monkeypatch, config, label, dataset, data_format
):
    engine = make_engine(paths, **config)
    plugin = engine.plugins[data_format]
    fetched = []
    original = plugin.scan_columns_at

    def spy(dataset_, paths_, oids):
        fetched.append(([tuple(path) for path in paths_], np.asarray(oids).tolist()))
        return original(dataset_, paths_, oids)

    monkeypatch.setattr(plugin, "scan_columns_at", spy)
    result = engine.query(f"SELECT SUM(price), MAX(category) FROM {dataset} WHERE qty = 3")
    assert result.tier == label
    survivors = [row["id"] for row in expected_items() if row["qty"] == 3]
    assert result.rows == [
        (sum(row["price"] for row in expected_items() if row["qty"] == 3), "cat3")
    ]
    assert fetched, "the deferred fields were never fetched lazily"
    assert all(sorted(paths_) == [("category",), ("price",)] for paths_, _ in fetched)
    assert sorted(oid for _, oids in fetched for oid in oids) == survivors
    # Only the predicate's field was converted for every row (and cached).
    assert result.profile.values_extracted == 120 + 2 * len(survivors)
    cached = {entry.description for entry in engine.cache_entries()}
    assert cached == {f"{dataset}.qty"}


# -- moved mechanisms 2 + 3: unnest-output and join build-side caches (§6) -----------------


@pytest.mark.parametrize("config,label", PIPELINE_CONFIGS)
def test_unnest_and_join_side_caches_fill_and_serve(paths, config, label):
    engine = make_engine(paths, **config)
    unnest = "for { o <- orders, l <- o.lines } yield sum (l.price)"
    # An aggregate argument reading both inputs probes a build-side table.
    join = (
        "SELECT COUNT(*), SUM(c.price + j.qty) FROM items_json j "
        "JOIN items_csv c ON j.id = c.id"
    )
    first = [engine.query(unnest), engine.query(join)]
    kinds = {entry.kind for entry in engine.cache_entries()}
    assert {"unnest", "join_side", "field"} <= kinds
    assert first[1].profile.join_build_rows == 120
    assert all(result.profile.values_extracted > 0 for result in first)
    second = [engine.query(unnest), engine.query(join)]
    for cold, warm in zip(first, second):
        assert warm.tier == cold.tier == label
        assert warm.rows == cold.rows
        assert warm.profile.values_extracted == 0
        assert warm.profile.values_from_cache > 0
    assert second[1].profile.join_build_rows == 0  # the table came from the cache
    flattened = sum(len(order["lines"]) for order in expected_orders())
    assert second[0].profile.unnest_output_rows == flattened


def test_outer_and_inner_unnest_never_share_a_cached_flattening(paths):
    engine = make_engine(paths)
    inner = engine.query("for { o <- orders, l <- o.lines } yield count")
    outer = engine.query("for { o <- orders, l <- outer o.lines } yield count")
    empties = sum(1 for order in expected_orders() if not order["lines"])
    assert outer.scalar() == inner.scalar() + empties
    assert engine.query("for { o <- orders, l <- outer o.lines } yield count").rows == outer.rows
    unnest_entries = [e for e in engine.cache_entries() if e.kind == "unnest"]
    assert len(unnest_entries) == 2


@pytest.mark.parametrize("config,label", PIPELINE_CONFIGS)
def test_cached_build_sides_are_keyed_by_bound_parameter_values(paths, config, label):
    """The plan fingerprint abstracts parameter values, and every ``qty``
    value selects 12 build rows: without the bound values in the cache key
    the second execution would probe the first one's (stale) table."""
    engine = make_engine(paths, **config)
    # An aggregate argument reading both inputs probes a build-side table.
    prepared = engine.prepare(
        "SELECT COUNT(*), MAX(c.price + j.qty) FROM items_json j JOIN items_csv c "
        "ON j.id = c.id WHERE j.qty = :q AND c.qty = :q"
    )
    for value in (3, 4, 3):
        result = prepared.execute(q=value)
        assert result.tier == label
        matching = [row["price"] for row in expected_items() if row["qty"] == value]
        assert result.rows == [(len(matching), max(matching) + value)]
    tables = [entry for entry in engine.cache_entries() if entry.kind == "join_side"]
    assert len(tables) == 2
    assert {entry.data.build_size for entry in tables} == {12}


# -- one scan path: a plan prepared over cached columns survives eviction ----------------------


def _pinned_plan_accounting(paths):
    """Run a prepared plan made while its columns were cached: warm
    (cache-resident), then again after the entries were evicted underneath
    it.  Returns the rows plus the cache-vs-raw accounting of both runs."""
    engine = make_engine(paths)
    query = "SELECT SUM(price) FROM items_json WHERE qty < 5 AND price >= 0"
    engine.query(query)  # converts and caches qty + price
    prepared = engine.prepare(query)
    raw = engine.plugins[DataFormat.JSON]
    accounting = []
    for evict in (False, True):
        if evict:
            assert engine.cache_manager.invalidate_dataset("items_json") == 2
        calls = raw.scan_calls
        result = prepared.execute()
        profile = result.profile
        accounting.append((
            result.rows,
            profile.rows_scanned,
            profile.values_extracted,
            profile.values_from_cache,
            raw.scan_calls - calls,
        ))
    return result.tier, accounting


def test_cache_pinned_plan_reads_through_one_scan_path(paths):
    expected = [(sum(row["price"] for row in expected_items() if row["qty"] < 5),)]
    tier, (warm, evicted) = _pinned_plan_accounting(paths)
    assert tier == "codegen"
    # Warm: both columns served from the cache, the raw plug-in untouched.
    assert warm == (expected, 0, 0, 240, 0)
    # Evicted underneath the prepared plan: the same plan answers from the
    # raw source in one scan stream.
    assert evicted == (expected, 120, 240, 0, 1)


#: The ``sha256`` of the 50 Symantec modules' sources and of their module
#: keys, taken while the generator still walked the plan itself.
SYMANTEC_SOURCES_DIGEST = "52907c533893cf619a134d2051eeb7b03f9bd2c4a2e9ccd713dcc8cab0b0f724"
SYMANTEC_KEYS_DIGEST = "6ca98e4b9966a35621997c4c039c53cba51594962328e27bb86af195fe16980f"


def test_one_walk_keys_and_generates_the_symantec_modules_unchanged(tmp_path):
    """The module key and the generator read one :func:`plan_expressions`
    list: the 50 Symantec modules come out byte for byte as before, under
    the same keys."""
    import hashlib

    from repro import ProteusEngine
    from repro.core.codegen import module_key
    from repro.core.physical import unwrap_sort
    from repro.workloads import symantec

    files = symantec.materialize(
        str(tmp_path), num_json=200, num_csv=800, num_binary=1000, seed=7
    )
    engine = ProteusEngine(enable_caching=False)
    engine.register_json("spam_mails", files.json_path)
    engine.register_csv("classification", files.csv_path)
    engine.register_binary_columns("mail_log", files.binary_dir)
    sources, keys = [], []
    for query in symantec.symantec_workload(files):
        plan = unwrap_sort(engine.prepare(query.spec.to_text()).plan)
        expressions = plan_expressions(plan)
        sources.append(CodeGenerator().generate(expressions).source)
        keys.append(module_key(expressions))
    assert len(sources) == 50
    assert hashlib.sha256("\n".join(sources).encode()).hexdigest() == SYMANTEC_SOURCES_DIGEST
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == SYMANTEC_KEYS_DIGEST
