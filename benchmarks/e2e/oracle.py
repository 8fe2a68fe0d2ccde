"""Independent reference answers, computed outside every timed window.

* Symantec-shaped queries are answered by a ``repro.baselines`` column store
  loaded from the same files through its own readers (``csv`` / ``json``
  modules) and compared with ``results_match``.
* TPC-H-shaped queries are answered by NumPy directly on the arrays the
  generator saved (``ref/*.npy``); each workload keeps those reference
  functions next to its SQL.

No answer is ever checked against another tier of the program under test.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.baselines import MonetLikeEngine
from repro.bench.systems import results_match
from repro.workloads.query_spec import QuerySpec


class _ColumnStore(MonetLikeEngine):
    """The baseline column store, minus its deliberately repeated JSON parse:
    the baseline re-parses every document on every column access to model an
    immature JSON path; as an oracle it only has to be right, so a parsed
    column is kept."""

    def __init__(self) -> None:
        super().__init__()
        self._parsed: dict[tuple, np.ndarray] = {}

    def column(self, dataset: str, path: tuple[str, ...]) -> np.ndarray:
        if dataset not in self._documents:
            return super().column(dataset, path)
        key = (dataset, path)
        if key not in self._parsed:
            self._parsed[key] = super().column(dataset, path)
        return self._parsed[key]


class SymantecOracle:
    """Reference answers for ``QuerySpec`` queries over Symantec-shaped files."""

    def __init__(self) -> None:
        self._store = _ColumnStore()

    def load(self, files: dict, csv_name: str, json_name: str,
             binary_name: str | None = None) -> None:
        if binary_name is not None:
            from repro.storage.binary_format import read_column_table

            table = read_column_table(files["binary_dir"])
            self._store.load_columns(binary_name, {
                name: np.asarray(table.column(name))
                for name in table.schema.field_names()
            })
        self._store.load_csv(csv_name, files["csv_path"])
        self._store.load_json(json_name, files["json_path"])

    def reference(self, spec: QuerySpec) -> list[tuple]:
        return self._store.execute(spec)

    @staticmethod
    def matches(rows: list[tuple], reference: list[tuple]) -> bool:
        return results_match(rows, reference)


def load_reference_columns(directory: str) -> dict[str, np.ndarray]:
    """``{"table.column": array}`` for every array the generator saved."""
    reference = os.path.join(directory, "ref")
    return {
        name[: -len(".npy")]: np.load(os.path.join(reference, name))
        for name in sorted(os.listdir(reference))
    }


def _cells_match(left, right) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return left is right
        left, right = float(left), float(right)
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        # Sums accumulate in a different order than NumPy's pairwise sum.
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    return left == right


def rows_match(rows, reference, ordered: bool) -> bool:
    """Compare result rows with NumPy reference rows; ``ordered`` keeps the
    sequence (ORDER BY output), otherwise both sides are sorted first."""
    rows = [tuple(row) for row in rows]
    reference = [tuple(row) for row in reference]
    if len(rows) != len(reference):
        return False
    if not ordered:
        rows, reference = sorted(rows), sorted(reference)
    return all(
        len(a) == len(b) and all(_cells_match(x, y) for x, y in zip(a, b))
        for a, b in zip(rows, reference)
    )
