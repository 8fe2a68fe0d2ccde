"""Workload ``binary_warm_olap``: warm analytical queries over binary columns.

TPC-H-shaped ``lineitem`` / ``orders`` as binary column tables; seven query
classes cycled warm.  The plug-in is an mmap and parse/plan are noise, so the
executors, ``core/sort``, the generated code and result materialization do
nearly all the work.  An index, serving or per-query-overhead change must not
move this workload.

Seven classes, not six: with an even number of equally frequent classes the
median of the pooled latencies falls in the gap between two classes and
jumps between them from run to run; with seven it sits inside the fourth.
"""

from __future__ import annotations

import numpy as np

import harness
from harness import Measurement, Op, RunConfig
from oracle import load_reference_columns, rows_match


#: Cycles per slice: 21 samples, so a slice's p90 is a real sample.
CYCLES_PER_SLICE = 3


def _classes(num_orders: int):
    """``(name, sql, reference(columns) -> rows, ordered)`` per query class."""
    project_bound = num_orders // 6 + 1

    def scan_agg(c):
        mask = c["lineitem.l_discount"] < 0.05
        return [(int(mask.sum()), float(c["lineitem.l_extendedprice"][mask].sum()),
                 float(c["lineitem.l_quantity"][mask].max()))]

    def grouped(key):
        def reference(c):
            mask = c["lineitem.l_quantity"] < 40
            keys, inverse = np.unique(c[key][mask], return_inverse=True)
            counts = np.bincount(inverse)
            sums = np.bincount(inverse, weights=c["lineitem.l_extendedprice"][mask])
            return [(int(k), int(n), float(s)) for k, n, s in zip(keys, counts, sums)]
        return reference

    def join(c):
        selected = np.zeros(num_orders + 1, dtype=bool)
        selected[c["orders.o_orderkey"][c["orders.o_orderpriority"] < 3]] = True
        price = np.zeros(num_orders + 1)
        price[c["orders.o_orderkey"]] = c["orders.o_totalprice"]
        matched = selected[c["lineitem.l_orderkey"]]
        return [(int(matched.sum()), float(c["lineitem.l_extendedprice"][matched].sum()),
                 float(price[c["lineitem.l_orderkey"][matched]].max()))]

    def topk(c):
        mask = c["lineitem.l_discount"] < 0.05
        price = c["lineitem.l_extendedprice"][mask]
        key = c["lineitem.l_orderkey"][mask]
        order = np.lexsort((key, -price))[:100]
        return [(float(p), int(k)) for p, k in zip(price[order], key[order])]

    def orderby(c):
        mask = c["orders.o_orderpriority"] < 3
        customer = c["orders.o_custkey"][mask]
        price = c["orders.o_totalprice"][mask]
        order = np.lexsort((-price, customer))
        return [(int(k), float(p)) for k, p in zip(customer[order], price[order])]

    def project(c):
        mask = c["lineitem.l_orderkey"] < project_bound
        return list(zip(c["lineitem.l_orderkey"][mask].tolist(),
                        c["lineitem.l_quantity"][mask].tolist(),
                        c["lineitem.l_extendedprice"][mask].tolist()))

    return [
        ("scan_agg",
         "SELECT COUNT(*), SUM(l_extendedprice), MAX(l_quantity) FROM lineitem "
         "WHERE l_discount < 0.05", scan_agg, False),
        ("groupby_small",
         "SELECT l_linenumber, COUNT(*), SUM(l_extendedprice) FROM lineitem "
         "WHERE l_quantity < 40 GROUP BY l_linenumber",
         grouped("lineitem.l_linenumber"), False),
        ("groupby",
         "SELECT l_suppkey, COUNT(*), SUM(l_extendedprice) FROM lineitem "
         "WHERE l_quantity < 40 GROUP BY l_suppkey", grouped("lineitem.l_suppkey"), False),
        ("join",
         "SELECT COUNT(*), SUM(l_extendedprice), MAX(o_totalprice) FROM lineitem l "
         "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_orderpriority < 3",
         join, False),
        ("topk",
         "SELECT l_extendedprice, l_orderkey FROM lineitem WHERE l_discount < 0.05 "
         "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 100", topk, True),
        ("orderby",
         "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderpriority < 3 "
         "ORDER BY o_custkey, o_totalprice DESC", orderby, True),
        ("project",
         "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem "
         f"WHERE l_orderkey < {project_bound}", project, False),
    ]


def run(config: RunConfig) -> Measurement:
    from repro import ProteusEngine

    manifest = config.manifest
    classes = _classes(manifest["num_orders"])
    ops = [Op(name, sql, (), name) for name, sql, _reference, _ordered in classes]

    def make_engine():
        engine = ProteusEngine(parallel_workers=harness.usable_cores())
        engine.register_binary_columns("lineitem", manifest["lineitem"])
        engine.register_binary_columns("orders", manifest["orders"])
        return engine

    run = harness.run_engine_starts(
        config, make_engine, ops, raw_datasets=[], passes_per_slice=CYCLES_PER_SLICE
    )

    # Oracle, outside every timed window.
    columns = load_reference_columns(config.data_dir)
    references = {name: (reference(columns), ordered)
                  for name, _sql, reference, ordered in classes}
    failures = run.failures + run.answers.mismatches(
        references.__getitem__, lambda rows, reference: rows_match(rows, *reference),
        config.inject_wrong_answer,
    )

    if run.traced_log is not None:
        for name, latencies in run.traced_log.by_group.items():
            run.layers[f"olap.{name}_ms"] = harness.median_ms(latencies)
    return Measurement(
        setup_s=run.setup_s, first_pass_s=run.first_pass_s, slices=run.slices,
        attempted=run.attempted, failures=failures, peak_rss_mb=run.peak_rss_mb,
        layers=run.layers,
        notes={"classes": len(ops), "verified_answers": len(run.answers)},
    )
