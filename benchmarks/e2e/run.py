"""The repo's end-to-end benchmark.

One workload, as the driver calls it (the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload symantec_mixed --seed 1 --seconds 12 --trace 0

Every workload, each in its own subprocess, with a results file for
``compare.py``::

    python3 benchmarks/e2e/run.py --seed 1 [--traced] [--repeat 3] [--out A.json]

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed; ``--trace 1`` prints the per-layer metrics from a traced window and
writes ``out/trace-<workload>.json``.  See README.md for what each metric
means and which layer should move which.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import harness  # noqa: E402 - needs the path set-up above

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _generate(workload: str, directory: str, seed: int, smoke: bool) -> tuple[dict, float]:
    """Run the generator subprocess; returns (manifest, seconds it took)."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "datagen.py"), workload, directory,
         str(seed), "1" if smoke else "0"],
        check=True,
    )
    elapsed = time.perf_counter() - started
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle), elapsed


def run_workload(args) -> int:
    """One workload in this process; prints its metrics and the result line."""
    traced = args.trace == 1
    directory = os.path.join(
        harness.OUT_DIR, f"data-{args.workload}-{args.seed}-{os.getpid()}"
    )
    try:
        manifest, datagen_s = _generate(args.workload, directory, args.seed, args.smoke)
        module = importlib.import_module(args.workload)
        measurement = module.run(harness.RunConfig(
            data_dir=directory, manifest=manifest, seed=args.seed, seconds=args.seconds,
            traced=traced,
            trace_path=os.path.join(harness.OUT_DIR, f"trace-{args.workload}.json"),
            inject_wrong_answer=args.inject_wrong_answer,
        ))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failed = len(measurement.failures)
    if traced:
        values = dict(measurement.layers)
        values["bench.datagen_s"] = datagen_s
        values["failed_share"] = failed / measurement.attempted
        declared = SPEC["per_layer"]
    else:
        values = measurement.end_to_end()
        declared = SPEC["end_to_end"]
    # Every declared metric is reported by every workload; a layer a workload
    # never enters reads 0.
    metrics = {
        metric["name"]: {"value": float(values.pop(metric["name"], 0.0)),
                         "unit": metric["unit"]}
        for metric in declared
    }
    if values:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(values)}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  cores {harness.usable_cores()}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    notes = {**manifest["sizes"], "timed_samples": measurement.timed_samples,
             "slices": len(measurement.slices), **measurement.notes}
    print(f"  notes: {json.dumps(notes)}")
    for failure in measurement.failures[:10]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": measurement.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Suite mode: every workload in its own subprocess, results file for compare.py
# ---------------------------------------------------------------------------


def _provenance(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    from datagen import sizes_for

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "usable_cores": harness.usable_cores(),
        "clients": harness.client_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "sizes": {name: sizes_for(name, args.smoke) for name in WORKLOADS},
    }


def run_suite(args) -> int:
    selected = [args.workload] if args.workload else WORKLOADS
    runs = []
    status = 0
    for workload in selected:
        for repeat in range(args.repeat):
            for trace in ([0, 1] if args.traced else [0]):
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                completed = subprocess.run(command, capture_output=True, text=True)
                sys.stdout.write(completed.stdout)
                sys.stderr.write(completed.stderr)
                status = status or completed.returncode
                lines = completed.stdout.strip().splitlines()
                if completed.returncode not in (0, 1) or not lines:
                    continue
                notes = next((json.loads(line.split("notes: ", 1)[1]) for line in lines
                              if line.startswith("  notes: ")), {})
                runs.append({"workload": workload, "repeat": repeat, "trace": trace,
                             "notes": notes, **json.loads(lines[-1])})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"provenance": _provenance(args), "runs": runs}, handle, indent=1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: run --workload once, untraced (0) or traced (1)")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: follow every untraced run with a traced one")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: runs per workload (compare.py needs >= 3 "
                             "to see the run-to-run spread)")
    parser.add_argument("--out", help="suite mode: write every run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test hook: corrupt one answer before the oracle "
                             "sees it; the run must report it and exit non-zero")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
