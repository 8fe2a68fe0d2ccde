"""The CI static checks, run by the test suite wherever their tools exist.

``ruff check .`` (``ruff.toml``) and ``mypy -p repro`` (``mypy.ini``) are the
CI lint and type jobs.  Where a tool is not importable its test does not pass
silently: it skips with a reason naming the tool and the command that did
NOT run, and emits the same text as a warning so it shows in the summary of
every run.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import warnings

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "tool,arguments", [("ruff", ["check", "."]), ("mypy", ["-p", "repro"])]
)
def test_static_check(tool, arguments):
    command = " ".join([tool, *arguments])
    if importlib.util.find_spec(tool) is None:
        message = f"{tool} is not installed: `{command}` NOT RUN"
        warnings.warn(message, UserWarning, stacklevel=1)
        pytest.skip(message)
    completed = subprocess.run(
        [sys.executable, "-m", tool, *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, (
        f"`{command}` failed:\n{completed.stdout}{completed.stderr}"
    )
