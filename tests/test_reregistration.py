"""Re-registering a raw file after it changed on disk answers from the new
bytes, on both tiers.

A CSV or JSON file is read whole when a dataset is first opened; registering
the name again drops that state, so the next query reads the file again —
whether it was rewritten longer in place, replaced by a rename, or shrunk
in place.  A reader that kept a mapping of the old file across the
re-registration answers from stale bytes, and one that reads a mapping past
the new end of a shrunk file dies of SIGBUS: that case runs in a child
process, so a crash fails the test instead of the test run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import ProteusEngine

#: Rows before and after the change, per change.
CHANGES = {
    "longer-in-place": (3, 6),
    "replaced-by-rename": (2, 3),
    # Many pages shrunk to a few lines: a stale mapping reads past the end.
    "shrunk-in-place": (2000, 10),
}

TIERS = {"codegen": {}, "volcano": {"enable_codegen": False}}

QUERY = "SELECT COUNT(*), SUM(b) FROM t"


def _text(fmt: str, rows: int) -> str:
    if fmt == "csv":
        return "a,b\n" + "".join(f"{i},{10 * i}\n" for i in range(rows))
    return "".join(json.dumps({"a": i, "b": 10 * i}) + "\n" for i in range(rows))


def _write(path: str, text: str, rename: bool) -> None:
    target = path + ".new" if rename else path
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
    if rename:
        os.replace(target, path)


def _register(engine: ProteusEngine, fmt: str, path: str) -> None:
    if fmt == "csv":
        engine.register_csv("t", path)
    else:
        engine.register_json("t", path)


def check_reregistration(directory: str, fmt: str, change: str) -> None:
    """Register, query, change the file, register again and query again, on
    each tier; every answer is the current file's."""
    before, after = CHANGES[change]
    path = os.path.join(directory, f"t.{fmt}")
    for tier, kwargs in TIERS.items():
        engine = ProteusEngine(**kwargs)
        _write(path, _text(fmt, before), rename=False)
        _register(engine, fmt, path)
        assert engine.query(QUERY).rows == [(before, 5 * before * (before - 1))]
        _write(path, _text(fmt, after), rename=change == "replaced-by-rename")
        _register(engine, fmt, path)
        result = engine.query(QUERY)
        assert result.tier == tier
        assert result.rows == [(after, 5 * after * (after - 1))], (tier, result.rows)


@pytest.mark.parametrize("change", ["longer-in-place", "replaced-by-rename"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reregistration_reads_the_changed_file(tmp_path, fmt, change):
    check_reregistration(str(tmp_path), fmt, change)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reregistration_after_a_shrink_in_place(tmp_path, fmt):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    script = (
        "from tests.test_reregistration import check_reregistration; "
        f"check_reregistration({str(tmp_path)!r}, {fmt!r}, 'shrunk-in-place')"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=environment, cwd=root,
    )
    assert completed.returncode == 0, (completed.returncode, completed.stderr[-2000:])
