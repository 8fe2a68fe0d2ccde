"""Ablations of the design choices called out in DESIGN.md / §5-§6:

* engine-per-query code generation versus Volcano-style interpretation of the
  same physical plan,
* adaptive caching on repeated queries over a verbose format,
* CSV structural-index stride (index size versus seek work),
* JSON field order: a fixed-schema file versus its arbitrary-order twin
  (the index's per-path position columns make both cost the same).
"""

import pytest

from benchmarks.conftest import scaled
from benchmarks.helpers import proteus_json_adapter, run_hot
from repro.bench import data as bench_data
from repro.bench import experiments
from repro.workloads import templates

SCALE = scaled(0.2)


@pytest.fixture(scope="module")
def codegen_ablation(report_sink):
    result = experiments.ablation_codegen(scale=SCALE)
    report_sink.append(
        f"Ablation: {result.name}\n"
        f"  {result.baseline_label:<40} {result.baseline_seconds:10.4f} s\n"
        f"  {result.variant_label:<40} {result.variant_seconds:10.4f} s\n"
        f"  speedup {result.speedup:8.2f}x"
    )
    return result


def test_ablation_codegen(benchmark, codegen_ablation):
    # Removing per-tuple interpretation is the paper's core claim: the
    # generated engine must beat the Volcano interpreter by a wide margin.
    assert codegen_ablation.speedup > 2.0

    files = bench_data.tpch_files(scale=SCALE)
    adapter = proteus_json_adapter(SCALE, {"lineitem": ""})
    spec = templates.selection_query(
        "lineitem", files.tables.orderkey_threshold(0.5), 3, 0.5
    )
    benchmark(run_hot(adapter, spec))


@pytest.fixture(scope="module")
def caching_ablation(report_sink):
    result = experiments.ablation_caching(scale=SCALE)
    report_sink.append(
        f"Ablation: {result.name}\n"
        f"  {result.baseline_label:<40} {result.baseline_seconds:10.4f} s\n"
        f"  {result.variant_label:<40} {result.variant_seconds:10.4f} s\n"
        f"  speedup {result.speedup:8.2f}x"
    )
    return result


def test_ablation_caching(benchmark, caching_ablation):
    # A repeated JSON query served from binary caches avoids re-extraction.
    assert caching_ablation.speedup > 1.5

    adapter = proteus_json_adapter(SCALE, {"lineitem": ""}, enable_caching=True)
    files = bench_data.tpch_files(scale=SCALE)
    spec = templates.projection_query(
        "lineitem", files.tables.orderkey_threshold(0.2), "4agg", 0.2
    )
    benchmark(run_hot(adapter, spec))


def test_ablation_csv_stride(benchmark, report_sink):
    sizes = experiments.ablation_csv_stride(scale=SCALE, strides=(1, 5, 20))
    report_sink.append(
        "Ablation: CSV structural-index stride (index bytes / file bytes)\n"
        + "\n".join(f"  stride {stride:>3}: {ratio * 100:6.2f}%" for stride, ratio in sizes.items())
    )
    assert sizes[1] > sizes[5] > sizes[20]
    benchmark(lambda: experiments.ablation_csv_stride(scale=SCALE, strides=(5,)))


def test_ablation_json_fixed_schema(benchmark, report_sink):
    result = experiments.ablation_json_fixed_schema(scale=SCALE)
    report_sink.append(
        f"Ablation: {result.name}\n"
        f"  {result.baseline_label:<50} {result.baseline_seconds:10.4f} s\n"
        f"  {result.variant_label:<50} {result.variant_seconds:10.4f} s"
    )
    # One index format serves both orders: the fixed order is no slower.
    assert result.variant_seconds <= result.baseline_seconds * 1.5
    files = bench_data.tpch_files(scale=SCALE)
    adapter = proteus_json_adapter(SCALE, {"lineitem": ""})
    spec = templates.selection_query(
        "lineitem", files.tables.orderkey_threshold(0.5), 1, 0.5
    )
    benchmark(run_hot(adapter, spec))
