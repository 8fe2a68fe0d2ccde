"""Self-test of the end-to-end benchmark, at ``--smoke`` scale.

Checks the benchmark's contract, not the program's speed: every workload
emits exactly the metrics ``BENCHMARK.json`` names, with their units; a wrong
answer is caught; traced self times are consistent; the server subprocess of
``serve_dashboard`` leaves nothing behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import spans  # noqa: E402 - needs the path set-up above

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: A seed no other caller uses, so leftover processes can be told apart.
SEED = 424242


def launch(workload: str, trace: int, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
    )


def finish(process: subprocess.Popen):
    """``(exit code, result object, everything it printed)`` of a run."""
    try:
        stdout, stderr = process.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    lines = stdout.strip().splitlines()
    assert lines, stderr
    return process.returncode, json.loads(lines[-1]), stdout + stderr


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)


def assert_no_server_process_left() -> None:
    # The run itself fails if the server reports a thread alive after stop()
    # or exits non-zero; what is left to check is the process table.
    marker = f"data-serve_dashboard-{SEED}-"
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().decode(errors="replace")
        except OSError:
            continue
        assert not ("serve_target.py" in command and marker in command), command


def test_names_are_unique_and_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    known = {m["name"] for m in SPEC["end_to_end"]} | {"failed"}
    for entry in layers.values():
        assert all(metric in known and workload in WORKLOADS
                   for metric, workload in entry["moves"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload):
    # Timings mean nothing at this scale, so the two runs may share the box.
    processes = [launch(workload, 0), launch(workload, 1)]
    (code, untraced, output), (traced_code, traced, traced_output) = map(finish, processes)
    assert code == 0, output
    check_result(untraced, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert traced_code == 0, traced_output
    check_result(traced, SPEC["per_layer"])

    # The span file of the traced run: self times are never negative, and the
    # children a span has on its own thread fit inside it.
    with open(os.path.join(HERE, "out", f"trace-{workload}.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["spans"]
    assert recorded
    by_id = {span[0]: span for span in recorded}
    assert all(value >= -1e-9 for value in spans.self_seconds(recorded).values())
    children_seconds: dict[int, float] = {}
    for span in recorded:
        parent = by_id.get(span[4])
        if parent is not None and parent[6] == span[6]:
            assert parent[2] <= span[2] and span[3] <= parent[3]
            children_seconds[parent[0]] = children_seconds.get(parent[0], 0.0) + span[3] - span[2]
    for span_id, seconds in children_seconds.items():
        assert seconds <= by_id[span_id][3] - by_id[span_id][2] + 1e-9

    if workload == "serve_dashboard":
        assert_no_server_process_left()


def test_injected_wrong_answer_fails_the_run():
    code, result, _ = finish(launch("binary_warm_olap", 0, "--inject-wrong-answer"))
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
