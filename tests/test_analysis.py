"""Tests for the static plan analyzer: prepare-time diagnostics, tier
verdicts (differentially checked against the tiers that actually serve),
statistics-proven nullability hints and the tier-parity repo lint."""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core import types as t
from repro.errors import AnalysisError, ProteusError, SchemaError

from tests.conftest import FANOUT_BATCH_SIZE, make_engine

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import tier_lint  # noqa: E402


REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Prepare-time diagnostics (TYP001 .. TYP005)
# ---------------------------------------------------------------------------


def _prepare_error(engine, query) -> AnalysisError:
    with pytest.raises(ProteusError) as excinfo:
        engine.prepare(query)
    assert isinstance(excinfo.value, AnalysisError)
    return excinfo.value


def test_unknown_nested_output_field_raises_at_prepare(paths):
    """Regression: an unknown field referenced through a nested path used to
    surface as a raw KeyError inside whichever tier executed the query; it
    must be an AnalysisError naming field and dataset at prepare() time."""
    engine = make_engine(paths)
    error = _prepare_error(engine, "SELECT origin.nosuch AS x FROM orders")
    assert error.code == "TYP001"
    assert error.dataset == "orders"
    assert error.field == "origin.nosuch"
    assert "orders" in str(error) and "origin.nosuch" in str(error)
    # The same diagnostic through the comprehension front end.
    error = _prepare_error(
        engine, "for { o <- orders } yield bag (o.origin.nosuch)"
    )
    assert error.code == "TYP001"
    assert error.dataset == "orders"


def test_analysis_error_is_a_schema_error(paths):
    """AnalysisError subclasses SchemaError, so pre-existing callers that
    catch SchemaError keep working."""
    engine = make_engine(paths)
    with pytest.raises(SchemaError):
        engine.prepare("SELECT nonexistent FROM items_csv")


def test_mixed_type_comparison_raises_typ002(paths):
    engine = make_engine(paths)
    error = _prepare_error(
        engine, "SELECT id FROM items_csv WHERE price < category"
    )
    assert error.code == "TYP002"
    assert "float" in str(error) and "string" in str(error)


def test_non_numeric_aggregate_raises_typ003(paths):
    engine = make_engine(paths)
    error = _prepare_error(engine, "SELECT SUM(category) AS s FROM items_csv")
    assert error.code == "TYP003"
    assert "sum()" in str(error)


def test_non_numeric_arithmetic_raises_typ004(paths):
    engine = make_engine(paths)
    error = _prepare_error(engine, "SELECT category + 1 AS x FROM items_csv")
    assert error.code == "TYP004"


def test_unnest_of_scalar_field_raises_typ005(paths):
    engine = make_engine(paths)
    error = _prepare_error(
        engine, "for { o <- orders, l <- o.okey } yield bag (o.okey)"
    )
    assert error.code == "TYP005"
    assert error.dataset == "orders"
    assert error.field == "okey"


def test_errors_raised_before_any_execution(paths):
    """prepare() alone must raise — no execute() call needed."""
    engine = make_engine(paths)
    for query in [
        "SELECT origin.nosuch AS x FROM orders",
        "SELECT id FROM items_csv WHERE price < category",
        "SELECT SUM(category) AS s FROM items_csv",
    ]:
        with pytest.raises(AnalysisError):
            engine.prepare(query)


# ---------------------------------------------------------------------------
# Differential suite: predicted tier == observed tier
# ---------------------------------------------------------------------------

#: Query shapes spanning every operator the verdicts reason about.  None of
#: these hit a run-time demotion (the fixture data has no missing group or
#: join keys), so the static verdict must equal the observed tier exactly.
DIFFERENTIAL_QUERIES = [
    "SELECT id, price FROM items_csv WHERE qty > 5",
    "SELECT COUNT(*) FROM items_json WHERE price > 3",
    "SELECT category, SUM(price) AS total FROM items_csv GROUP BY category",
    "SELECT a.id, b.qty FROM items_csv a JOIN items_json b ON a.id = b.id "
    "WHERE b.qty > 2",
    "SELECT id, price FROM items_bin ORDER BY price DESC LIMIT 7",
    "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)",
    "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)",
    "SELECT category, COUNT(*) AS n FROM items_csv GROUP BY category "
    "ORDER BY n DESC",
]

CONFIGS = [
    {},
    {"enable_codegen": False},
    {"enable_codegen": False, "parallel_workers": 2,
     "vectorized_batch_size": FANOUT_BATCH_SIZE},  # fan-out knobs: still Volcano
    {"vectorized_batch_size": FANOUT_BATCH_SIZE},  # inline, many batches
    {"parallel_workers": 2, "vectorized_batch_size": FANOUT_BATCH_SIZE},
    {"parallel_workers": 8, "vectorized_batch_size": FANOUT_BATCH_SIZE},
    {"parallel_workers": 2},  # single morsel
]


@pytest.mark.parametrize("config", CONFIGS, ids=[str(c) for c in CONFIGS])
def test_predicted_tier_matches_observed(paths, config):
    engine = make_engine(paths, **config)
    for query in DIFFERENTIAL_QUERIES:
        prepared = engine.prepare(query)
        predicted = prepared.analysis.predicted_tier
        result = prepared.execute()
        assert result.tier == predicted, (query, config)
        assert result.profile.predicted_tier == predicted, (query, config)


def test_parameterized_query_verdicts(paths):
    engine = make_engine(
        paths, parallel_workers=2, vectorized_batch_size=FANOUT_BATCH_SIZE
    )
    prepared = engine.prepare("SELECT id FROM items_csv WHERE price > ?")
    assert prepared.analysis.predicted_tier == "codegen"
    for value in (1.0, 3.0, 100.0):
        result = prepared.execute(value)
        assert result.tier == "codegen"
        assert result.profile.parallel_workers == 2  # fanned out


def test_verdict_codes_for_declines(paths):
    engine = make_engine(paths)
    # Outer unnest: the batch pipeline serves it on generated code (the
    # codegen tier used to decline outer unnest with TIER002).
    analysis = engine.prepare(
        "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)"
    ).analysis
    assert analysis.decline_reasons() == {}
    assert analysis.predicted_tier == "codegen"

    # A disabled tier carries TIER001 with the exact configuration wording.
    serial = make_engine(paths, enable_codegen=False)
    analysis = serial.prepare("SELECT id FROM items_csv").analysis
    assert analysis.decline_reasons() == {
        "codegen": "[TIER001] disabled (enable_codegen=False)"
    }


def test_fanout_and_single_morsel_are_not_verdicts(paths):
    """The retired TIER006/TIER007: whether a scan fans out is the executor's
    decision — the verdicts are identical, only the profile differs."""
    engine = make_engine(
        paths, parallel_workers=2, vectorized_batch_size=FANOUT_BATCH_SIZE
    )
    # Binary row tables are range-split like every other format.
    analysis = engine.prepare("SELECT id FROM items_rowbin WHERE qty > 1").analysis
    assert analysis.decline_reasons() == {}
    result = engine.query("SELECT id FROM items_rowbin WHERE qty > 1")
    assert result.tier == "codegen"
    assert result.profile.parallel_workers == 2
    assert result.profile.morsels_dispatched > 1

    # Default batch size over 120 rows fits one morsel: served inline.
    single = make_engine(paths, parallel_workers=2)
    prepared = single.prepare("SELECT id FROM items_csv WHERE qty > 1")
    assert prepared.analysis.verdicts == analysis.verdicts
    assert prepared.execute().profile.morsels_dispatched == 0

    # The same query over a splittable, multi-morsel scan fans out.
    result = engine.query("SELECT id FROM items_csv WHERE qty > 1")
    assert result.tier == "codegen"
    assert result.profile.parallel_workers == 2
    assert result.profile.morsels_dispatched > 1


def test_plan_fanout_is_the_one_decision():
    from repro.core.parallel import plan_fanout

    from repro.core.parallel.morsels import (
        GROUPING_ROOT_MORSELS,
        LINEAR_ROOT_MORSELS,
    )

    assert plan_fanout(1, 10_000, 16, True) == (
        [], "serial: parallel_workers=1"
    )
    morsels, why = plan_fanout(4, None, 16, False)
    assert morsels == [] and "decided when the scan opens" in why
    # Morsels are whole batches, never shrunk to manufacture parallelism.
    morsels, why = plan_fanout(4, 10, 16, True)
    assert morsels == [] and "1 morsel(s) of 16" in why
    # The root kind sets the bar: the same scan fans out under a group-by
    # and runs inline under a linear root until it spans enough morsels.
    rows = 16 * (LINEAR_ROOT_MORSELS - 1)
    assert GROUPING_ROOT_MORSELS <= LINEAR_ROOT_MORSELS - 1
    morsels, why = plan_fanout(4, rows, 16, True)
    assert len(morsels) == LINEAR_ROOT_MORSELS - 1 and morsels[-1].stop == rows
    assert why == f"fan-out: {len(morsels)} morsels across 4 workers (grouping root)"
    morsels, why = plan_fanout(4, rows, 16, False)
    assert morsels == []
    assert f"a linear root fans out from {LINEAR_ROOT_MORSELS}" in why
    morsels, why = plan_fanout(4, rows + 16, 16, False)
    assert len(morsels) == LINEAR_ROOT_MORSELS
    assert why.endswith("(linear root)")


def test_outer_join_declines_the_codegen_tier(paths):
    """TIER005: outer joins are Volcano-only, predicted and observed."""
    from repro.core.analysis import tier_verdicts
    from repro.core.physical import PhysHashJoin

    engine = make_engine(
        paths, parallel_workers=2, vectorized_batch_size=FANOUT_BATCH_SIZE
    )
    prepared = engine.prepare(
        "SELECT a.id, b.qty FROM items_csv a JOIN items_json b ON a.id = b.id"
    )
    plan = prepared.plan
    joins = [n for n in plan.walk() if isinstance(n, PhysHashJoin)]
    assert joins, "planner should hash-join an equijoin"
    joins[0].outer = True
    codegen, volcano = tier_verdicts(plan, enable_codegen=True)
    assert not codegen.serves
    assert codegen.code == "TIER005"
    assert volcano.serves


# ---------------------------------------------------------------------------
# Missing group keys stay on the pipeline; decline recording in the profile
# ---------------------------------------------------------------------------


@pytest.fixture()
def null_group_engine(paths, tmp_path):
    engine = make_engine(paths)
    path = tmp_path / "nullg.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(50):
            record = {"g": None if i % 7 == 0 else f"g{i % 3}", "v": float(i)}
            handle.write(json.dumps(record) + "\n")
    engine.register_json(
        "nullg", str(path), schema=t.make_schema({"g": "string", "v": "float"})
    )
    return engine


def _volcano_rows(paths, engine, query: str) -> list:
    """``query``'s rows on a Volcano engine over ``engine``'s ``nullg``."""
    volcano = make_engine(paths, enable_codegen=False)
    dataset = engine.catalog.get("nullg")
    volcano.register_json("nullg", dataset.path, schema=dataset.schema)
    return volcano.query(query).rows


def test_null_group_keys_served_by_the_verdict_tier(paths, null_group_engine):
    """Null group keys are one group, ``None``: the pipeline the verdict
    chose serves the query, and the profile records no decline."""
    query = "SELECT g, SUM(v) AS s FROM nullg GROUP BY g"
    result = null_group_engine.query(query)
    assert result.tier == result.profile.predicted_tier == "codegen"
    assert result.profile.tier_decline_reasons == {}
    assert None in [g for g, _ in result.rows]
    assert sorted(result.rows, key=repr) == sorted(
        _volcano_rows(paths, null_group_engine, query), key=repr
    )


def test_null_group_keys_stay_on_the_pipeline_under_fanout(paths, null_group_engine):
    """Fanned out, the ``None`` group of every morsel merges into one: no
    TIER009, Volcano's rows."""
    query = "SELECT g, SUM(v) AS s FROM nullg GROUP BY g"
    engine = make_engine(paths, parallel_workers=4, vectorized_batch_size=8)
    dataset = null_group_engine.catalog.get("nullg")
    engine.register_json("nullg", dataset.path, schema=dataset.schema)
    result = engine.query(query)
    assert result.tier == "codegen"
    assert result.profile.morsels_dispatched > 0
    assert not any("TIER009" in r for r in result.profile.tier_decline_reasons.values())
    assert sorted(result.rows, key=repr) == sorted(
        _volcano_rows(paths, null_group_engine, query), key=repr
    )


def test_null_group_key_in_the_last_batch_joins_one_group(paths, tmp_path):
    """A null group key first met in the last of many inline batches is one
    more group beside those of the batches before it: the pipeline answers
    with Volcano's rows and counters."""
    path = tmp_path / "late_null.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(50):
            record = {"g": None if i == 47 else f"g{i % 3}", "v": float(i)}
            handle.write(json.dumps(record) + "\n")
    schema = t.make_schema({"g": "string", "v": "float"})
    query = "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM late_null GROUP BY g"
    engines = {}
    for label, config in (
        ("batched", {"vectorized_batch_size": 4}),
        ("volcano", {"enable_codegen": False}),
    ):
        engines[label] = make_engine(paths, enable_caching=False, **config)
        engines[label].register_json("late_null", str(path), schema=schema)
    reference = engines["volcano"].query(query)
    result = engines["batched"].query(query)
    assert result.tier == "codegen"
    assert result.profile.tier_decline_reasons == {}
    assert sorted(result.rows, key=repr) == sorted(reference.rows, key=repr)
    assert sum(n for _, _, n in result.rows) == 50
    assert result.profile.rows_scanned == reference.profile.rows_scanned
    assert result.profile.output_rows == reference.profile.output_rows == 4


def test_static_declines_recorded_in_profile(paths):
    engine = make_engine(paths, enable_codegen=False)
    result = engine.query(
        "for { o <- orders, l <- outer o.lines } yield bag (o.okey, l.item)"
    )
    assert result.tier == "volcano"
    assert result.profile.tier_decline_reasons == {
        "codegen": "[TIER001] disabled (enable_codegen=False)"
    }


def test_explain_shows_schema_and_codes(paths):
    engine = make_engine(paths)
    text = engine.explain(
        "SELECT category, COUNT(*) AS n FROM items_csv GROUP BY category"
    )
    assert "== inferred output schema ==" in text
    assert "category: string" in text
    assert "n: int" in text
    assert "codegen: serves this plan  <- selected" in text
    disabled = make_engine(paths, enable_codegen=False)
    assert "[TIER001]" in disabled.explain("SELECT id FROM items_csv")


# ---------------------------------------------------------------------------
# Statistics-proven nullability hints
# ---------------------------------------------------------------------------


def test_hints_require_statistics_proof(paths, tmp_path):
    engine = make_engine(paths)
    # Without analyze(), CSV/JSON nullability is unknown: no hints.
    analysis = engine.prepare("SELECT id, price FROM items_csv").analysis
    assert analysis.hints.non_null_columns == frozenset()
    assert all(column.nullable for column in analysis.columns)

    # analyze() proves the fixture columns are fully populated.
    engine.analyze("items_csv")
    analysis = engine.prepare("SELECT id, price FROM items_csv").analysis
    assert analysis.hints.non_null_columns == frozenset({"id", "price"})
    assert not analysis.column("id").nullable

    # A column with observed nulls is never proven, even after analyze().
    path = tmp_path / "holes.json"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(30):
            record = {"k": i, "v": None if i % 5 == 0 else float(i)}
            handle.write(json.dumps(record) + "\n")
    engine.register_json(
        "holes", str(path), schema=t.make_schema({"k": "int", "v": "float"}),
        analyze=True,
    )
    analysis = engine.prepare("SELECT k, v FROM holes").analysis
    assert analysis.column("k").nullable is False
    assert analysis.column("v").nullable is True
    assert "v" not in analysis.hints.non_null_columns


def test_hinted_aggregates_stay_correct_with_nulls(paths, tmp_path):
    """The hint machinery must never claim a column with nulls: SUM over a
    holey column returns the null-skipping total in every configuration."""
    path = tmp_path / "holes.json"
    expected = 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(40):
            value = None if i % 3 == 0 else float(i)
            if value is not None:
                expected += value
            handle.write(json.dumps({"k": i, "v": value}) + "\n")
    for analyze in (False, True):
        engine = make_engine(paths)
        engine.register_json(
            "holes", str(path),
            schema=t.make_schema({"k": "int", "v": "float"}), analyze=analyze,
        )
        result = engine.query("SELECT SUM(v) AS s FROM holes")
        assert result.rows == [(expected,)]


def test_hints_apply_after_analyze_and_results_match(paths):
    """Hinted (post-analyze) and unhinted runs of the same ORDER BY and
    GROUP BY queries return identical rows."""
    queries = [
        "SELECT id, category FROM items_csv ORDER BY category, id LIMIT 11",
        "SELECT category, SUM(price) AS total, AVG(qty) AS aq FROM items_csv "
        "GROUP BY category ORDER BY category",
    ]
    cold = make_engine(paths)
    hot = make_engine(paths)
    hot.analyze("items_csv")
    for query in queries:
        assert (
            hot.prepare(query).analysis.hints.non_null_columns != frozenset()
        )
        assert hot.query(query).rows == cold.query(query).rows


def test_prepared_analysis_exposes_verdicts(paths):
    engine = make_engine(paths)
    analysis = engine.prepare("SELECT id FROM items_csv WHERE qty > 2").analysis
    tiers = [verdict.tier for verdict in analysis.verdicts]
    assert tiers == ["codegen", "volcano"]
    assert analysis.verdict("codegen").serves
    assert analysis.verdict("volcano").serves


def test_verdicts_and_schema_are_computed_once_per_shape(paths, monkeypatch):
    """Verdicts and schema are computed once per plan and held by its shape:
    the execute path reads them, only a catalog-epoch bump recomputes them,
    and the codegen flag is applied to the held verdicts on every read."""
    from repro.core import engine as engine_module

    calls = {"tier_verdicts": 0, "analyze_schema": 0}

    def counting(name):
        original = getattr(engine_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(engine_module, name, counting(name))
    engine = make_engine(paths)
    prepared = engine.prepare("SELECT COUNT(*) FROM items_csv WHERE qty > 2")
    for _ in range(100):
        prepared.execute()
    assert calls == {"tier_verdicts": 1, "analyze_schema": 1}
    engine.analyze("items_csv")  # bumps the catalog epoch
    prepared.execute()
    prepared.execute()
    assert calls == {"tier_verdicts": 2, "analyze_schema": 2}
    # Flipping the ablation flag takes effect on the next execution, and
    # back, without recomputing anything.
    engine.enable_codegen = False
    result = prepared.execute()
    assert result.tier == "volcano"
    assert result.profile.tier_decline_reasons == {
        "codegen": "[TIER001] disabled (enable_codegen=False)"
    }
    assert prepared.analysis.predicted_tier == "volcano"
    engine.enable_codegen = True
    assert prepared.execute().tier == "codegen"
    assert calls == {"tier_verdicts": 2, "analyze_schema": 2}


@pytest.mark.parametrize("workers", [1, 4])
def test_prepare_analysis_and_explain_read_no_raw_data(paths, monkeypatch, workers):
    """prepare(), PreparedQuery.analysis and explain() are static: no
    structural index of a raw file is built at any worker count (the retired
    parallel precheck built one as soon as ``parallel_workers > 1``)."""
    from repro.plugins import csv_plugin, json_plugin

    builds = []
    for module, name in (
        (json_plugin, "build_json_index"),
        (csv_plugin, "build_csv_index"),
    ):
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            builds.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    engine = make_engine(paths, parallel_workers=workers)
    for query in (
        "SELECT id FROM items_json WHERE qty > 2 ORDER BY id LIMIT 3",
        "SELECT category, COUNT(*) FROM items_csv GROUP BY category",
        "for { o <- orders, l <- o.lines } yield bag (o.okey, l.item)",
    ):
        prepared = engine.prepare(query)
        assert prepared.analysis.verdicts
        assert "== tier cascade ==" in engine.explain(query)
    assert builds == []
    # The spy does observe execution-time index builds.
    engine.query("SELECT id FROM items_json WHERE qty > 2")
    assert builds == ["build_json_index"]


# ---------------------------------------------------------------------------
# tier_lint: passes on the repo, fails on seeded violations
# ---------------------------------------------------------------------------


def test_tier_lint_passes_on_repo():
    assert tier_lint.run(REPO_ROOT) == []


def _copy_linted_modules(tmp_path) -> Path:
    """A scratch repo root holding copies of every module tier_lint reads."""
    root = tmp_path / "repo"
    for relative in [
        tier_lint.PHYSICAL_MODULE,
        tier_lint.MODEL_MODULE,
        tier_lint.CAPABILITIES_MODULE,
        *tier_lint.EXECUTOR_MODULES.values(),
    ]:
        source = REPO_ROOT / relative
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(source, target)
    return root


def test_tier_lint_flags_unhandled_operator(tmp_path):
    root = _copy_linted_modules(tmp_path)
    physical = root / tier_lint.PHYSICAL_MODULE
    physical.write_text(
        physical.read_text(encoding="utf-8")
        + "\n\nclass PhysBogus(PhysicalPlan):\n    pass\n",
        encoding="utf-8",
    )
    violations = tier_lint.check_tier_parity(root)
    # One violation per cascade tier, each with its own executor module.
    assert len(violations) == len(tier_lint.EXECUTOR_MODULES) == 2
    assert len(set(tier_lint.EXECUTOR_MODULES.values())) == 2
    assert all("PhysBogus" in violation for violation in violations)


def test_tier_lint_flags_disagreeing_tier_lists(tmp_path):
    root = _copy_linted_modules(tmp_path)
    model = root / tier_lint.MODEL_MODULE
    model.write_text(
        model.read_text(encoding="utf-8").replace(
            "CASCADE_TIERS = (TIER_CODEGEN, TIER_VOLCANO)",
            "CASCADE_TIERS = (TIER_GPU, TIER_VOLCANO)",
        ),
        encoding="utf-8",
    )
    violations = tier_lint.check_tier_parity(root)
    assert sum("TIER_GPU is missing from" in v for v in violations) == 2
    assert sum("TIER_CODEGEN is not in CASCADE_TIERS" in v for v in violations) == 2


def test_tier_lint_flags_stale_capability_entry(tmp_path):
    root = _copy_linted_modules(tmp_path)
    capabilities = root / tier_lint.CAPABILITIES_MODULE
    text = capabilities.read_text(encoding="utf-8")
    capabilities.write_text(
        text.replace(
            "    TIER_VOLCANO: {\n        PhysScan: None,",
            "    TIER_VOLCANO: {\n        PhysGhost: None,\n        PhysScan: None,",
            1,
        ),
        encoding="utf-8",
    )
    violations = tier_lint.check_tier_parity(root)
    assert any("PhysGhost" in violation for violation in violations)


# Lock discipline is now checked repo-wide by tools/concurrency_lint.py
# (see tests/test_concurrency.py for its seeded-violation suite).


def test_tier_lint_cli(capsys):
    assert tier_lint.main(["--root", str(REPO_ROOT)]) == 0
    assert "tier_lint: ok" in capsys.readouterr().out
