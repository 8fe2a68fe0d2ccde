"""Compare two results files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians, the ratio B/A with
its base, the regression bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound,
* ``improved``   — better by more than the bound,
* ``unchanged``  — within the bound either way,
* ``unresolved`` — the run-to-run spread of a side (distance between its
  quartiles over its median) exceeds the bound, or a side has fewer than three
  runs: the difference cannot be told from noise.  Lengthen or repeat the
  runs; do not widen the bound.

A workload whose failed operations went up is ``regressed`` whatever its
timings say.  Exit status: 1 if any row regressed, 2 if none did but some are
unresolved, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 3


def _load(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a results file, grouped by workload."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    grouped: dict[str, list[dict]] = {}
    for run in runs:
        if run["trace"] == 0:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple:
    """``(median_base, median_new, worse_by, spread, verdict)`` for one row;
    ``worse_by`` is the share of the base median by which ``new`` is worse."""
    median_base, median_new = statistics.median(base), statistics.median(new)
    change = (median_new - median_base) / median_base
    worse_by = change if better == "lower" else -change
    if min(len(base), len(new)) < MIN_RUNS:
        return median_base, median_new, worse_by, float("nan"), "unresolved"
    spread = max(_spread(base), _spread(new))
    if spread > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    elif worse_by < -bound:
        label = "improved"
    else:
        label = "unchanged"
    return median_base, median_new, worse_by, spread, label


def compare(path_base: str, path_new: str, spec: dict) -> tuple[list[tuple], int]:
    base_runs, new_runs = _load(path_base), _load(path_new)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        base, new = base_runs.get(workload), new_runs.get(workload)
        if not base or not new:
            continue
        failed_base = statistics.median(run["failed"] for run in base)
        failed_new = statistics.median(run["failed"] for run in new)
        rows.append((workload, "failed", "count", failed_base, failed_new,
                     failed_new - failed_base, 0.0, 0.0,
                     "regressed" if failed_new > failed_base else "unchanged"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = verdict(
                [run["metrics"][name]["value"] for run in base],
                [run["metrics"][name]["value"] for run in new],
                metric["better"], metric["bound"],
            )
            rows.append((workload, name, metric["unit"], *result[:4],
                         metric["bound"], result[4]))
    labels = {row[-1] for row in rows}
    status = 1 if "regressed" in labels else 2 if "unresolved" in labels else 0
    return rows, status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 64
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, status = compare(argv[0], argv[1], spec)
    print(f"{'workload':<18} {'metric':<14} {'unit':<5} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload, name, unit, base, new, worse_by, spread, bound, label in rows:
        ratio = new / base if base else float("nan")
        print(f"{workload:<18} {name:<14} {unit:<5} {base:>12.4f} {new:>12.4f} "
              f"{ratio:>7.3f} {worse_by:>+9.3f} {spread:>7.3f} {bound:>6.2f}  {label}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
