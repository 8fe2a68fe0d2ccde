"""The CI-gated micro-benchmarks: nine ratio gates in one module.

Each gate shows that one mechanism works at all: it times the mechanism
against the path it replaced, or the engine against itself without the
feature, and checks the ratio against a fixed bar.  Both sides of a ratio
run back to back in every round and a gate reads the median of the
per-round ratios, so drift on a shared host hits both sides alike and no
host-speed scaling is needed.  Whether answers are right is the tier-1
suite's job (``tests/``); how fast the engine is end to end is the job of
``benchmarks/e2e/``.

    PYTHONPATH=src python benchmarks/run_all.py --quick --json BENCH_results.json

``--quick`` shrinks the inputs and relaxes the two scaling bars for shared
CI runners; ``--only`` runs a subset of the gates; ``--json`` (default path
``BENCH_results.json``) writes one record per gate plus commit / Python /
NumPy / platform / core-count provenance and a metrics-registry snapshot,
the perf-trajectory artifact CI uploads.  The scaling gates only apply on a
machine with enough usable cores; elsewhere their ratios are recorded, not
gated.  Exits 1 when any gate fails, after running all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import ProteusEngine
from repro.core import sort as sortlib
from repro.core import types as t
from repro.errors import QueryTimeoutError
from repro.storage.binary_format import write_column_table

HERE = os.path.dirname(os.path.abspath(__file__))

# Sizes and bars.  A ``(full, quick)`` pair is indexed by the --quick flag.

#: Fan-out scaling: a group-by over FANOUT_WORKERS morsel workers vs inline.
FANOUT_ROWS = (1_000_000, 300_000)
FANOUT_WORKERS = 4
FANOUT_BATCH_SIZE = 16_384  # a morsel is one batch: 300k rows are 19 morsels
FANOUT_GATE = (2.0, 1.3)
FANOUT_QUERY = (
    "SELECT qty, COUNT(*), SUM(v), MAX(v) FROM t WHERE w < 800000.0 GROUP BY qty"
)

#: Sort kernels: lexsort vs the boxed ``list.sort`` of the seed engine, and
#: streaming top-K vs the full sort.
SORT_ROWS = (1_000_000, 300_000)
LEXSORT_GATE = 5.0
TOPK_GATE = 10.0
TOPK_LIMIT = 10

#: Unnest kernel: the offset-vector ``scan_unnest_batch`` over every parent
#: vs one call per parent (too slow for a large input).
UNNEST_PARENTS = 8_000
UNNEST_GATE = 5.0

#: Nullability hints: statistics-proven non-null columns skip the missing
#: scans of the batch aggregates and of the sort kernels (object keys).
HINT_ROWS = (2_000_000, 600_000)
HINT_SORT_ROWS = (1_000_000, 300_000)
#: Both pairs' own rotated rounds, quick or not: one round's ratio spreads
#: 1.1-1.6x (sort) and 1.3-1.9x (aggregates) on a two-core host, so a median
#: of three missed the bar now and then on noise alone.
HINT_ROUNDS = 9
HINT_GATE = 1.2
HINT_QUERY = "SELECT SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx, AVG(v) AS av FROM t"

#: Client scaling: CLIENTS threads sharing one PreparedQuery vs one thread,
#: aggregate queries per second.  NumPy kernels release the GIL, but below
#: CLIENT_MIN_CORES cores they cannot overlap enough to show it.
CLIENT_ROWS = (400_000, 150_000)
CLIENTS = 8
CLIENT_QUERIES = 10  # per client per round
CLIENT_GATE = (2.0, 1.5)
CLIENT_MIN_CORES = 4
CLIENT_QUERY = "SELECT COUNT(*), SUM(v), MAX(v) FROM t WHERE w < 800000.0"

#: Overhead: tracing on, metrics recording on (the default) and a configured
#: deadline, each against a bare engine.  Not fewer rows or rounds under
#: --quick: a traced execution pays ~0.15 ms once per query on top of the
#: per-batch wrappers, and a shorter query or fewer rounds cannot resolve
#: that against the 5 % bar (one round is four ~5 ms executions).
OVERHEAD_ROWS = 1_000_000
OVERHEAD_ROUNDS = 60
TRACED_GATE = 1.05
METRICS_GATE = 1.03
DEADLINE_GATE = 1.03
OVERHEAD_QUERY = (
    "SELECT SUM(v) AS s, MIN(w) AS mn, MAX(v) AS mx, AVG(w) AS av, "
    "COUNT(*) AS n FROM t WHERE v > 250000.0 AND w < 750000.0"
)

#: Join against its NumPy reference: an FK–PK aggregate join over two
#: binary tables (TPC-H-shaped, the ``join`` class of the end-to-end
#: ``binary_warm_olap``) vs one bitmap and one lookup gather in plain NumPy.
#: The build side holds each key once, so the engine's probe is one gather.
JOIN_SCALE = (100, 40)  # 600 k / 240 k lineitems
JOIN_GATE = 1.5
JOIN_ROUNDS = 15
JOIN_QUERY = (
    "SELECT COUNT(*), SUM(l_extendedprice), MAX(o_totalprice) FROM lineitem l "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_orderpriority < 3"
)

#: Join chains against their NumPy reference: aggregates over the one-key
#: join chains of the end-to-end ``symantec_mixed`` (its Q30 and Q47, over
#: binary-column twins of its three tables at its sizes) on a warm caching
#: engine vs per-key ``bincount`` counts and sums in plain NumPy, which
#: index their arrays by the key itself.  Q30 reads one input (the other's
#: row counts are its cached key slots); Q47 reads all three, and each
#: pays a scan pipeline and a key-to-slot lookup on top of ~0.5 ms of
#: per-query planning and dispatch that the reference does not.
CHAIN_ROWS = {"m": 40_000, "c": 32_000, "j": 8_000}
CHAIN_KEYS = 8_000
CHAIN_LABELS = ["pharma", "phishing", "malware", "dating", "casino", "replica"]
CHAIN_ROUNDS = 40
#: Query -> (text, bar on engine / reference).
CHAIN_QUERIES = {
    "Q30": ("SELECT c.label, COUNT(*) FROM m JOIN c ON m.mail_id = c.mail_id "
            "WHERE m.threat_level >= 2 GROUP BY c.label", 2.5),
    "Q47": ("SELECT c.label, COUNT(*), SUM(m.bytes) FROM m "
            "JOIN c ON m.mail_id = c.mail_id JOIN j ON m.mail_id = j.mail_id "
            "WHERE j.day < 21 GROUP BY c.label", 2.5),
}

#: Index construction against a comparator's load (§7.1): building the JSON
#: structural index of a feed-shaped file (the end-to-end
#: ``raw_feed_arrival``'s: 4 000 Symantec spam objects, ~1 MB) vs parsing
#: its lines with ``json.loads``, the least a document store's load does.
#: The build also validates the file; the paper reports it ~4x faster than
#: MongoDB's load.
INDEX_OBJECTS = 4_000
INDEX_ROUNDS = 15
INDEX_GATE = 1.2

#: Timed rounds of the gates without a round count of their own.
ROUNDS = (5, 3)


class GateError(Exception):
    """The measured mechanism did not run, so no ratio can vouch for it."""


@dataclass
class Ratio:
    name: str
    value: float
    #: ``None``: recorded, not gated (too few cores to show scaling).
    bound: float | None
    #: The bar is ``value >= bound`` (a speedup) or ``value < bound`` (an
    #: overhead).
    at_least: bool = True

    @property
    def holds(self) -> bool:
        if self.bound is None:
            return True
        return self.value >= self.bound if self.at_least else self.value < self.bound

    def __str__(self) -> str:
        if self.bound is None:
            gate = "not gated"
        else:
            gate = f"gate {'>=' if self.at_least else '<'} {self.bound:g}x"
        return f"{self.name} {self.value:.3f}x ({gate})"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_table(directory: str, rows: int) -> tuple[str, dict[str, np.ndarray]]:
    """The binary-column table every engine gate scans: ``id``, ``qty``
    (0..99) and two uniform floats ``v``, ``w`` in [0, 1e6)."""
    rng = np.random.RandomState(7)
    columns = {
        "id": np.arange(rows, dtype=np.int64),
        "qty": rng.randint(0, 100, size=rows).astype(np.int64),
        "v": rng.uniform(0.0, 1_000_000.0, size=rows),
        "w": rng.uniform(0.0, 1_000_000.0, size=rows),
    }
    path = os.path.join(directory, f"t{rows}")
    schema = t.make_schema({"id": "int", "qty": "int", "v": "float", "w": "float"})
    write_column_table(path, columns, schema)
    return path, columns


def make_engine(path: str, analyze: bool = True, **options) -> ProteusEngine:
    """An engine over the table at ``path``, registered as ``t``.  Caching is
    off so every execution runs the mechanism under test."""
    engine = ProteusEngine(enable_caching=False, **options)
    engine.register_binary_columns("t", path, analyze=analyze)
    return engine


def paired_rounds(rounds: int, **functions) -> dict[str, list[float]]:
    """Wall seconds of every function, called once per round, back to back.
    The call order rotates by one every round, so no function always
    follows the same one (and inherits what it left in the caches).  One
    extra first round warms file maps, indexes and generated code and is
    discarded."""
    samples: dict[str, list[float]] = {name: [] for name in functions}
    names = list(functions)
    for round_number in range(rounds + 1):
        shift = round_number % len(names)
        for name in names[shift:] + names[:shift]:
            function = functions[name]
            started = time.perf_counter()
            function()
            if round_number:
                samples[name].append(time.perf_counter() - started)
    return samples


def ratio(samples: dict[str, list[float]], numerator: str, denominator: str) -> float:
    """Median over the rounds of ``numerator`` time / ``denominator`` time."""
    return statistics.median(
        a / b for a, b in zip(samples[numerator], samples[denominator])
    )


# -- the gates -----------------------------------------------------------------


def fanout_scaling(directory: str, quick: bool) -> list[Ratio]:
    path, _ = build_table(directory, FANOUT_ROWS[quick])
    inline, fanned = (
        make_engine(path, parallel_workers=workers, vectorized_batch_size=FANOUT_BATCH_SIZE)
        .prepare(FANOUT_QUERY)
        for workers in (1, FANOUT_WORKERS)
    )
    if not fanned.execute().profile.morsels_dispatched:
        raise GateError("the group-by did not fan out over morsels")
    samples = paired_rounds(ROUNDS[quick], inline=inline.execute, fanned=fanned.execute)
    gated = usable_cores() >= FANOUT_WORKERS
    return [
        Ratio(
            f"inline / {FANOUT_WORKERS} workers",
            ratio(samples, "inline", "fanned"),
            FANOUT_GATE[quick] if gated else None,
        )
    ]


def _boxed_seed_sort(data: dict[str, np.ndarray], key: str) -> dict[str, np.ndarray]:
    """The seed engine's ORDER BY epilogue: box the key buffer into Python
    objects and ``list.sort`` positions with a lambda key."""
    values = [None if v != v else v for v in data[key].tolist()]
    positions = sorted(range(len(values)), key=lambda i: (values[i] is None, values[i]))
    taken = np.asarray(positions, dtype=np.int64)
    return {name: buffer[taken] for name, buffer in data.items()}


def sort_kernels(directory: str, quick: bool) -> list[Ratio]:
    rows = SORT_ROWS[quick]
    _, columns = build_table(directory, rows)
    data = {"id": columns["id"], "v": columns["v"]}
    names = list(data)

    def kernel(limit):
        return sortlib.sort_columns(names, rows, data, [("v", True)], limit)

    strategies = (kernel(None)[2], kernel(TOPK_LIMIT)[2])
    if strategies != (sortlib.STRATEGY_LEXSORT, sortlib.STRATEGY_TOPK):
        raise GateError(f"sort kernels ran {strategies}, expected lexsort and topk")
    samples = paired_rounds(
        ROUNDS[quick],
        seed=lambda: _boxed_seed_sort(data, "v"),
        lexsort=lambda: kernel(None),
        topk=lambda: kernel(TOPK_LIMIT),
    )
    return [
        Ratio("seed sort / lexsort", ratio(samples, "seed", "lexsort"), LEXSORT_GATE),
        Ratio("lexsort / top-K", ratio(samples, "lexsort", "topk"), TOPK_GATE),
    ]


def unnest_kernel(directory: str, quick: bool) -> list[Ratio]:
    path = os.path.join(directory, "orders.json")
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(UNNEST_PARENTS):
            # Small, skewed nested arrays; every 7th parent is empty.
            lines = [{"item": j, "qty": j + 1} for j in range(i % 4)] if i % 7 else []
            handle.write(json.dumps({"okey": i, "lines": lines}) + "\n")
    engine = ProteusEngine(enable_caching=False)
    engine.register_json(
        "orders", path,
        schema=t.make_schema({"okey": "int", "lines": [{"item": "int", "qty": "int"}]}),
    )
    plugin = engine.plugins["json"]
    dataset = engine.catalog.get("orders")
    elements = [("item",), ("qty",)]
    parents = np.arange(UNNEST_PARENTS, dtype=np.int64)

    def per_parent():
        for oid in range(UNNEST_PARENTS):
            plugin.scan_unnest_batch(dataset, ("lines",), elements, parents[oid : oid + 1])

    samples = paired_rounds(
        ROUNDS[quick],
        per_parent=per_parent,
        native=lambda: plugin.scan_unnest_batch(dataset, ("lines",), elements, parents),
    )
    return [Ratio("per-parent / batch-native", ratio(samples, "per_parent", "native"), UNNEST_GATE)]


def nullability_hints(directory: str, quick: bool) -> list[Ratio]:
    path, _ = build_table(directory, HINT_ROWS[quick])
    masked, hinted = (
        make_engine(path, analyze=analyze).prepare(HINT_QUERY)
        for analyze in (False, True)
    )
    if masked.analysis.hints.non_null_aggregate_args:
        raise GateError("an unanalyzed table produced aggregate hints")
    if len(hinted.analysis.hints.non_null_aggregate_args) != 4:
        raise GateError("analyze() did not prove all four aggregate arguments")
    rows = HINT_SORT_ROWS[quick]
    rng = np.random.RandomState(23)
    data = {
        "tag": np.array([f"tag{value:06d}" for value in rng.randint(0, 50_000, rows)], dtype=object),
        "id": np.arange(rows, dtype=np.int64),
    }

    def sort(non_null):
        sortlib.sort_columns(["tag", "id"], rows, data, [("tag", True)], None, non_null)

    samples = paired_rounds(HINT_ROUNDS, masked=masked.execute, hinted=hinted.execute)
    sorts = paired_rounds(
        HINT_ROUNDS,
        masked=lambda: sort(frozenset()),
        hinted=lambda: sort(frozenset({"tag"})),
    )
    return [
        Ratio("aggregates, masked / hinted", ratio(samples, "masked", "hinted"), HINT_GATE),
        Ratio("object-key sort, masked / hinted", ratio(sorts, "masked", "hinted"), HINT_GATE),
    ]


def client_scaling(directory: str, quick: bool) -> list[Ratio]:
    path, _ = build_table(directory, CLIENT_ROWS[quick])
    # One PreparedQuery shared by every client, as the HTTP layer's per-text
    # prepared cache shares it; each query runs inline on its client thread.
    prepared = make_engine(path).prepare(CLIENT_QUERY)

    def client():
        for _ in range(CLIENT_QUERIES):
            prepared.execute()

    def clients():
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    samples = paired_rounds(ROUNDS[quick], one=client, many=clients)
    gated = usable_cores() >= CLIENT_MIN_CORES
    return [
        Ratio(
            f"{CLIENTS} clients / 1, aggregate QPS",
            CLIENTS * ratio(samples, "one", "many"),
            CLIENT_GATE[quick] if gated else None,
        )
    ]


def overhead(directory: str, quick: bool) -> list[Ratio]:
    path, _ = build_table(directory, OVERHEAD_ROWS)
    engines = {
        "bare": make_engine(path, enable_metrics=False),
        "metrics": make_engine(path),
        "traced": make_engine(path, enable_tracing=True),
        # A far-future deadline: every per-batch check reads the clock and
        # none fires — the steady-state cost of a configured deadline.
        "deadline": make_engine(path, enable_metrics=False, query_timeout_seconds=3600.0),
    }
    prepared = {name: engine.prepare(OVERHEAD_QUERY) for name, engine in engines.items()}
    samples = paired_rounds(
        OVERHEAD_ROUNDS,
        **{name: statement.execute for name, statement in prepared.items()},
    )
    trace = engines["traced"].tracer.last()
    if trace is None or not trace.operators:
        raise GateError("the traced engine recorded no operator spans")
    try:
        prepared["deadline"].execute(timeout=0)
    except QueryTimeoutError:
        pass
    else:
        raise GateError("timeout=0 did not abort: the deadline checks are not wired")
    return [
        Ratio(f"{name} / bare", ratio(samples, name, "bare"), bound, at_least=False)
        for name, bound in (
            ("traced", TRACED_GATE),
            ("metrics", METRICS_GATE),
            ("deadline", DEADLINE_GATE),
        )
    ]


def join_reference(directory: str, quick: bool) -> list[Ratio]:
    from repro.workloads import tpch

    tables = tpch.generate(scale=JOIN_SCALE[quick], seed=11)
    lineitem, orders = tables.lineitem, tables.orders
    lineitem_dir = tpch.write_binary_columns(
        os.path.join(directory, "lineitem"), lineitem, tpch.LINEITEM_SCHEMA)
    orders_dir = tpch.write_binary_columns(
        os.path.join(directory, "orders"), orders, tpch.ORDERS_SCHEMA)

    def register(engine: ProteusEngine) -> ProteusEngine:
        engine.register_binary_columns("lineitem", lineitem_dir)
        engine.register_binary_columns("orders", orders_dir)
        return engine

    # A caching engine shows which build side the join probed.
    probe = register(ProteusEngine())
    kernels = probe.query(JOIN_QUERY).profile.join_kernels
    sides = [e.data for e in probe.cache_entries() if e.kind == "join_side"]
    if kernels not in (["dense"], ["sorted"]) or len(sides) != 1 or not sides[0].unique:
        raise GateError(f"the join ran {kernels}, not a probe of a unique build side")
    prepared = register(ProteusEngine(enable_caching=False)).prepare(JOIN_QUERY)
    slots = tables.num_orders + 1

    def reference():
        selected = np.zeros(slots, dtype=bool)
        selected[orders["o_orderkey"][orders["o_orderpriority"] < 3]] = True
        price = np.zeros(slots)
        price[orders["o_orderkey"]] = orders["o_totalprice"]
        matched = selected[lineitem["l_orderkey"]]
        return (int(matched.sum()), float(lineitem["l_extendedprice"][matched].sum()),
                float(price[lineitem["l_orderkey"][matched]].max()))

    (count, total, highest), = prepared.execute().rows
    expected = reference()
    if count != expected[0] or not np.isclose([total, highest], expected[1:]).all():
        raise GateError(f"the join answered {(count, total, highest)}, not {expected}")
    samples = paired_rounds(JOIN_ROUNDS, engine=prepared.execute, reference=reference)
    return [
        Ratio("engine / NumPy reference", ratio(samples, "engine", "reference"),
              JOIN_GATE, at_least=False)
    ]


def chain_reference(directory: str, quick: bool) -> list[Ratio]:
    rng = np.random.RandomState(5)
    tables = {
        "m": {"mail_id": rng.randint(0, CHAIN_KEYS, CHAIN_ROWS["m"]),
              "threat_level": rng.randint(0, 5, CHAIN_ROWS["m"]),
              "bytes": rng.randint(200, 1_000_000, CHAIN_ROWS["m"])},
        "c": {"mail_id": rng.randint(0, CHAIN_KEYS, CHAIN_ROWS["c"]),
              "label": rng.randint(0, len(CHAIN_LABELS), CHAIN_ROWS["c"])},
        "j": {"mail_id": np.arange(CHAIN_ROWS["j"]) % CHAIN_KEYS,
              "day": rng.randint(0, 30, CHAIN_ROWS["j"])},
    }
    engine = ProteusEngine()
    for name, columns in tables.items():
        columns = {field: values.astype(np.int64) for field, values in columns.items()}
        schema = {field: "int" for field in columns}
        if name == "c":
            columns["label"] = np.asarray(CHAIN_LABELS, dtype=object)[columns["label"]]
            schema["label"] = "string"
        path = os.path.join(directory, name)
        write_column_table(path, columns, t.make_schema(schema))
        engine.register_binary_columns(name, path)
    m, c, j = tables["m"], tables["c"], tables["j"]
    # The dictionary codes of ``c.label``, as the engine's cache holds them.
    labels, label_codes = np.unique(
        np.asarray(CHAIN_LABELS, dtype=object)[c["label"]], return_inverse=True)

    def per_label(*weights) -> list[tuple]:
        columns = [np.bincount(label_codes, weights=w[c["mail_id"]], minlength=len(labels))
                   for w in weights]
        return [(str(label), *(int(column[i]) for column in columns))
                for i, label in enumerate(labels) if columns[0][i]]

    def q30():
        return per_label(np.bincount(m["mail_id"][m["threat_level"] >= 2],
                                     minlength=CHAIN_KEYS))

    def q47():
        in_j = np.bincount(j["mail_id"][j["day"] < 21], minlength=CHAIN_KEYS)
        in_m = np.bincount(m["mail_id"], minlength=CHAIN_KEYS)
        bytes_m = np.bincount(m["mail_id"], weights=m["bytes"], minlength=CHAIN_KEYS)
        return per_label(in_m * in_j, bytes_m * in_j)

    ratios = []
    for name, reference in (("Q30", q30), ("Q47", q47)):
        text, bar = CHAIN_QUERIES[name]
        prepared = engine.prepare(text)
        for _ in range(2):  # the second run is warm: cached columns and slots
            result = prepared.execute()
        kernels = result.profile.join_kernels
        if not kernels or set(kernels) != {"factorized"}:
            raise GateError(f"{name} ran {kernels}, not per key value")
        if result.profile.group_kernel != "dense":
            raise GateError(f"{name} grouped by {result.profile.group_kernel}, not dense codes")
        if sorted(result.rows) != reference():
            raise GateError(f"{name} answered {sorted(result.rows)}, not {reference()}")
        samples = paired_rounds(CHAIN_ROUNDS, engine=prepared.execute, reference=reference)
        ratios.append(Ratio(f"{name} engine / NumPy reference",
                            ratio(samples, "engine", "reference"), bar, at_least=False))
    return ratios


def index_construction(directory: str, quick: bool) -> list[Ratio]:
    from repro.storage.structural_index import build_json_index
    from repro.workloads import symantec

    files = symantec.materialize(directory, num_json=INDEX_OBJECTS, num_csv=1, num_binary=1,
                                 seed=3)
    with open(files.json_path, "rb") as handle:
        data = handle.read()
    lines = data.splitlines()
    objects = build_json_index(data).num_objects
    if objects != len(lines):
        raise GateError(f"the index holds {objects} objects, the file {len(lines)}")
    samples = paired_rounds(
        INDEX_ROUNDS,
        index=lambda: build_json_index(data),
        load=lambda: [json.loads(line) for line in lines],
    )
    return [Ratio("json.loads load / index build", ratio(samples, "load", "index"), INDEX_GATE)]


GATES = {
    "fanout_scaling": fanout_scaling,
    "sort_kernels": sort_kernels,
    "unnest_kernel": unnest_kernel,
    "nullability_hints": nullability_hints,
    "client_scaling": client_scaling,
    "overhead": overhead,
    "join_reference": join_reference,
    "chain_reference": chain_reference,
    "index_construction": index_construction,
}


def run_gate(name: str, quick: bool) -> dict:
    """Run one gate, print its ratios and return its trajectory record."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as directory:
        try:
            ratios = GATES[name](directory, quick)
            failures = [f"missed: {r}" for r in ratios if not r.holds]
        except GateError as exc:
            ratios, failures = [], [str(exc)]
    seconds = time.perf_counter() - started
    print(f"== {name}: {'FAIL' if failures else 'ok'} in {seconds:.1f}s")
    for line in [str(r) for r in ratios] + failures:
        print(f"   {line}")
    return {
        "name": name,
        "ok": not failures,
        "wall_seconds": seconds,
        "ratios": {r.name: {"value": r.value, "gate": r.bound} for r in ratios},
        "failures": failures,
    }


def metrics_snapshot() -> dict:
    """The metrics registry after one query: the export shape CI consumers
    can rely on, recorded next to the gate outcomes."""
    with tempfile.TemporaryDirectory() as directory:
        engine = make_engine(build_table(directory, 16)[0])
        engine.query("SELECT COUNT(*) AS n FROM t WHERE qty > 3")
        return engine.metrics.to_dict()


def git_commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller inputs, relaxed scaling bars")
    parser.add_argument("--json", dest="json_out", nargs="?",
                        const="BENCH_results.json", default=None,
                        help="write the trajectory record (default path: "
                             "BENCH_results.json)")
    parser.add_argument("--only", nargs="+", choices=list(GATES),
                        help="run a subset of the gates")
    args = parser.parse_args(argv)

    records = [run_gate(name, args.quick) for name in args.only or GATES]

    if args.json_out:
        document = {
            "schema": "proteus-bench-trajectory/2",
            "commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "usable_cores": usable_cores(),
            "quick": args.quick,
            "ok": all(record["ok"] for record in records),
            "gates": records,
            "metrics_snapshot": metrics_snapshot(),
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"\nwrote {args.json_out}")

    failed = [record["name"] for record in records if not record["ok"]]
    if failed:
        print(f"\nFAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"\nok: all {len(records)} gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
