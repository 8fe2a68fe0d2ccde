"""Workload ``symantec_mixed``: the paper's §7.2 sequence.

The 50 ``symantec_workload`` queries run in order (BIN -> CSV -> JSON ->
2-way -> 3-way joins, unnests, group-bys) over one binary table, one CSV and
one JSON file.  The first pass on a fresh engine pays index build, cold parse,
plan and codegen; the timed passes are warm and the working set fits the
default 256 MiB cache, so the cache-hit path carries them.  One warm pass is
one slice of the timed window.
"""

from __future__ import annotations

import harness
from harness import Measurement, Op, RunConfig
from oracle import SymantecOracle

DATASETS = {"binary": "mail_log", "csv": "classification", "json": "spam_mails"}


def _workload(manifest: dict):
    from repro.workloads import symantec

    files = symantec.SymantecFiles(**manifest["files"])
    return symantec.symantec_workload(files)


def run(config: RunConfig) -> Measurement:
    from repro import ProteusEngine
    from repro.workloads import symantec

    files = config.manifest["files"]
    queries = _workload(config.manifest)
    ops = [Op(q.spec.name, q.spec.to_text(), (), q.phase) for q in queries]
    specs = {q.spec.name: q.spec for q in queries}

    def make_engine():
        engine = ProteusEngine(parallel_workers=harness.usable_cores())
        engine.register_binary_columns(DATASETS["binary"], files["binary_dir"])
        engine.register_csv(DATASETS["csv"], files["csv_path"],
                            schema=symantec.CLASSIFICATION_CSV_SCHEMA)
        engine.register_json(DATASETS["json"], files["json_path"],
                             schema=symantec.SPAM_JSON_SCHEMA)
        return engine

    run = harness.run_engine_starts(
        config, make_engine, ops, raw_datasets=[DATASETS["csv"], DATASETS["json"]]
    )

    # Oracle, outside every timed window.
    oracle = SymantecOracle()
    oracle.load(files, DATASETS["csv"], DATASETS["json"], DATASETS["binary"])
    references = {name: oracle.reference(spec) for name, spec in specs.items()}
    failures = run.failures + run.answers.mismatches(
        references.__getitem__, oracle.matches, config.inject_wrong_answer
    )

    if run.traced_log is not None:
        for phase in symantec.PHASES:
            run.layers[f"symantec.{phase}_ms"] = (
                sum(run.traced_log.by_group.get(phase, ())) * 1000.0
                / len(run.traced_log.slices)
            )
    return Measurement(
        setup_s=run.setup_s, first_pass_s=run.first_pass_s, slices=run.slices,
        attempted=run.attempted, failures=failures, peak_rss_mb=run.peak_rss_mb,
        layers=run.layers,
        notes={"queries": len(ops), "verified_answers": len(run.answers)},
    )
