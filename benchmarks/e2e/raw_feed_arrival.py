"""Workload ``raw_feed_arrival``: new raw files keep arriving.

An engine with a cache far smaller than what arrives.  Each arrival registers
a Symantec-shaped JSON + CSV feed under new dataset names, touches each format
once (structural index build, cold parse), runs follow-ups on columns not
touched yet, an unnest and a JSON-CSV join — then the feed is never read
again.  This is the write-like use of the layers that ``symantec_mixed`` reads
from: indexes are built, parsed columns are stored and evicted rather than
hit.  Work moved from query time into first touch shows here as
``first_pass_s`` and ``peak_rss_mb``.

The generator writes a few distinct feed files; arrivals cycle through them
under fresh names, which the engine cannot tell from new files (indexes and
caches are per dataset name).  Like every workload, the run is three engine
lifetimes; each gets a warm-up feed and then a third of the arrivals.  The
number of arrivals is fixed by ``--seconds`` (``ARRIVALS_PER_SECOND``, set on
the reference box), not by the clock, so retained-index memory and eviction
counts compare across runs.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import replace

import harness
from harness import Answers, Measurement, Op, OpLog, RunConfig
from oracle import SymantecOracle

#: Arrivals per second of requested window: one arrival takes ~0.7 s on the
#: 2-core reference box.
ARRIVALS_PER_SECOND = 1.4
#: Two arrivals (28 operations) make one slice of the timed window.
ARRIVALS_PER_SLICE = 2
#: Cache budget as a multiple of one feed's raw bytes.  One arrival stores
#: ~0.6x its raw size, so the cache holds two arrivals and most of what
#: arrives in an engine's lifetime is evicted again.
CACHE_BUDGET_PER_RAW_BYTE = 1.2

#: Steps of one arrival, from the Symantec workload: first touch per format,
#: follow-ups on other columns, an unnest and a JSON-CSV join.
STEPS = [
    ("json_first_touch", "Q16"), ("csv_first_touch", "Q9"),
    ("json_followup", "Q17"), ("json_followup", "Q18"), ("json_followup", "Q19"),
    ("json_followup", "Q20"), ("json_followup", "Q21"),
    ("csv_followup", "Q10"), ("csv_followup", "Q11"), ("csv_followup", "Q12"),
    ("csv_followup", "Q13"), ("csv_followup", "Q15"),
    ("unnest", "Q22"), ("join", "Q36"),
]


def _specs(feed: dict, csv_name: str, json_name: str) -> list:
    """The arrival's query specs, re-targeted at the given dataset names."""
    from repro.workloads import symantec
    from repro.workloads.query_spec import TableRef

    files = symantec.SymantecFiles(**feed)
    by_name = {q.spec.name: q.spec for q in symantec.symantec_workload(files)}
    renamed = {"classification": csv_name, "spam_mails": json_name}
    return [
        (step, replace(by_name[query], tables=[
            TableRef(renamed[table.dataset], table.alias)
            for table in by_name[query].tables
        ]))
        for step, query in STEPS
    ]


def run(config: RunConfig) -> Measurement:
    from repro import ProteusEngine
    from repro.workloads import symantec

    feeds = config.manifest["feeds"]
    # Per engine lifetime; even, so every slice holds ARRIVALS_PER_SLICE.
    arrivals = max(4, 2 * round(config.seconds * ARRIVALS_PER_SECOND / harness.FRESH_STARTS / 2))
    raw_bytes = statistics.mean(
        os.path.getsize(feed["json_path"]) + os.path.getsize(feed["csv_path"])
        for feed in feeds
    )
    cache_budget = int(CACHE_BUDGET_PER_RAW_BYTE * raw_bytes)
    answers = Answers()

    def arrive(engine, log: OpLog, name: str, feed_index: int) -> None:
        """Register one feed under ``name`` and run its steps."""
        feed = feeds[feed_index]
        csv_name, json_name = f"{name}_csv", f"{name}_json"
        engine.register_csv(csv_name, feed["csv_path"],
                            schema=symantec.CLASSIFICATION_CSV_SCHEMA)
        engine.register_json(json_name, feed["json_path"],
                             schema=symantec.SPAM_JSON_SCHEMA)
        for step, spec in _specs(feed, csv_name, json_name):
            op = Op(f"feed{feed_index}.{spec.name}", spec.to_text(), (), step)
            answers.add(op.key, log.run(engine, op))

    setup: list[float] = []
    first_touches: dict[str, list[float]] = {"json_first_touch": [], "csv_first_touch": []}
    slices: list[harness.Slice] = []
    failures: list[str] = []
    attempted = evictions = 0
    traced_log = None
    layers: dict[str, float] = {}
    for start in range(harness.FRESH_STARTS):
        traced = config.traced and start == harness.TRACED_START
        # Set-up: a fresh engine plus one warm-up feed (first codegen of
        # every shape).
        warm = OpLog()
        gc.collect()
        speed = harness.host_speed()
        started = time.perf_counter()
        engine = ProteusEngine(parallel_workers=harness.usable_cores(),
                               cache_budget_bytes=cache_budget)
        constructed = time.perf_counter() - started
        arrive(engine, warm, "warmup", len(feeds) - 1)
        _, speed = warm.cut(speed)
        setup.append(constructed / warm.speeds[-1] + warm.slices[-1].wall_s)

        cache_before = harness.snapshot_cache(engine)
        log = OpLog()
        with harness.tracing(traced, config.trace_path) as recorder:
            for index in range(arrivals):
                feed_index = (start * arrivals + index) % len(feeds)
                arrive(engine, log, f"feed{index}", feed_index)
                if (index + 1) % ARRIVALS_PER_SLICE == 0:
                    closed, speed = log.cut(speed)
                    for step, seconds in closed:
                        if step in first_touches:
                            first_touches[step].append(seconds)
        evicted = engine.cache_stats.evictions - cache_before.evictions
        evictions += evicted
        if not evicted:
            failures.append("cache.evictions stayed 0: the cache budget no longer "
                            "forces eviction, the workload lost its point")
        if traced:
            traced_log = log
            layers = harness.in_process_layers(
                engine, log, recorder.spans, cache_before,
                [f"feed{index}_{kind}" for index in range(arrivals) for kind in ("csv", "json")],
            )
        else:
            slices += log.slices
        attempted += warm.attempted + log.attempted
        failures += warm.failures + log.failures
        del engine
    peak = harness.peak_rss_mb()

    # Oracle, outside every timed window: one reference per distinct feed
    # file; every arrival of that file is checked against it.
    oracle = SymantecOracle()
    references = {}
    for index, feed in enumerate(feeds):
        oracle.load(feed, f"ref{index}_csv", f"ref{index}_json")
        for _step, spec in _specs(feed, f"ref{index}_csv", f"ref{index}_json"):
            references[f"feed{index}.{spec.name}"] = oracle.reference(spec)
    failures += answers.mismatches(
        references.__getitem__, oracle.matches, config.inject_wrong_answer
    )

    if traced_log is not None:
        json_touch = statistics.median(first_touches["json_first_touch"])
        csv_touch = statistics.median(first_touches["csv_first_touch"])
        layers["feed.json_first_touch_s"] = json_touch
        layers["feed.csv_first_touch_s"] = csv_touch
        layers["plugins.raw_mb_per_s"] = raw_bytes / (1024.0 * 1024.0) / (json_touch + csv_touch)
        layers["obs.trace_overhead_ratio"] = harness.trace_overhead_ratio(
            traced_log.slices, slices
        )
    return Measurement(
        setup_s=setup,
        first_pass_s=[sum(pair) for pair in zip(*first_touches.values())],
        slices=slices, attempted=attempted, failures=failures, peak_rss_mb=peak,
        layers=layers,
        notes={"arrivals_per_engine": arrivals, "steps_per_arrival": len(STEPS),
               "cache_budget_bytes": cache_budget, "evictions": evictions,
               "verified_answers": len(answers)},
    )
