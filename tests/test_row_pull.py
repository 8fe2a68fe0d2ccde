"""The row pull of ``ResultSet`` equals the per-cell conversion it replaced.

``ResultSet`` turns its columnar buffers into Python values through one
function — rows, single columns, fetched batches, scalars and the HTTP
encoder alike.  Typed buffers convert with one ``tolist()`` plus a NaN mask;
the reference below is the cell-by-cell normalization every buffer used to
go through (unbox NumPy scalars, surface NaN/None as ``None``), kept here so
the vectorized path is checked against it value *and* type.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import ResultSet
from repro.core.profile import ExecutionProfile
from repro.serve.protocol import encode_result_head, finish_result_body


def _reference_values(buffer) -> list:
    """The per-cell conversion: unbox, then missing -> None."""
    values = buffer.tolist() if isinstance(buffer, np.ndarray) else list(buffer)
    out = []
    for value in values:
        if isinstance(value, np.generic):
            value = value.item()
        missing = value is None or (isinstance(value, float) and value != value)
        out.append(None if missing else value)
    return out


def _typed(values) -> list:
    """Cells as (type, value) so ``1 == 1.0 == True`` cannot hide a change."""
    return [(type(value), value) for value in values]


COLUMNS = {
    "int": np.asarray([3, -(2**63), 2**63 - 1, 0, 7], dtype=np.int64),
    "int8": np.asarray([1, -128, 127, 0, 5], dtype=np.int8),
    "uint64": np.asarray([0, 2**64 - 1, 5, 1, 2], dtype=np.uint64),
    "float": np.asarray([1.5, np.nan, -0.0, np.inf, np.nan]),
    "float32": np.asarray([1.25, np.nan, 2.0, 3.5, -1.0], dtype=np.float32),
    "bool": np.asarray([True, False, True, True, False]),
    "str": np.asarray(["a", "", "ccc", "d", "e"]),
    "object": np.asarray(
        [None, float("nan"), np.int64(4), np.float64(np.nan), "x"], dtype=object
    ),
    "boxed": np.asarray(
        [np.bool_(True), np.float64(2.5), 2**70, [1, 2], {"k": None}],
        dtype=object,
    ),
    "list": [1, None, float("nan"), np.int32(9), "y"],
}


def _result(columns: dict) -> ResultSet:
    return ResultSet(
        list(columns), columns, tier="codegen", profile=ExecutionProfile()
    )


@pytest.mark.parametrize("name", list(COLUMNS))
def test_column_and_rows_match_per_cell_reference(name):
    buffer = COLUMNS[name]
    expected = _typed(_reference_values(buffer))
    result = _result({name: buffer})
    assert _typed(result.column(name)) == expected
    assert _typed(row[0] for row in result.rows) == expected
    batches = [row[0] for batch in _result({name: buffer}).fetch_batches(2)
               for row in batch]
    assert _typed(batches) == expected
    head = _result({name: buffer[:1]})
    assert _typed([head.scalar()]) == expected[:1]


def test_multi_column_rows_and_batches():
    result = _result(COLUMNS)
    expected = list(zip(*(_reference_values(buffer) for buffer in COLUMNS.values())))
    assert [_typed(row) for row in result.rows] == [_typed(row) for row in expected]
    fresh = _result(COLUMNS)
    fetched = [row for batch in fresh.fetch_batches(3) for row in batch]
    assert [_typed(row) for row in fetched] == [_typed(row) for row in expected]
    assert fresh._rows is None  # batches never materialized the full rows


@pytest.mark.parametrize("dtype", [np.int64, np.float64, bool, object, str])
def test_empty_columns(dtype):
    result = _result({"c": np.asarray([], dtype=dtype)})
    assert result.rows == []
    assert result.column("c") == []
    assert list(result.fetch_batches(4)) == []


def test_http_body_matches_per_cell_reference():
    columns = {
        name: buffer for name, buffer in COLUMNS.items() if name != "boxed"
    }
    body = finish_result_body(encode_result_head(_result(columns)), 0.0, False)
    payload = json.loads(body)
    for name, buffer in columns.items():
        expected = _reference_values(buffer)
        actual = payload["data"][name]
        assert len(actual) == len(expected), name
        assert _typed(actual) == _typed(expected), name
