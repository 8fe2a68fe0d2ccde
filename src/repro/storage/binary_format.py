"""Relational binary file formats.

Proteus treats relational binary data as one of its native inputs, both
row-oriented and column-oriented ("binary column files similar to the ones of
MonetDB", §7.1).  This module defines the two on-disk formats used by the
reproduction and their readers/writers:

* **Column tables** — a directory containing ``_schema.json`` plus one file per
  column.  Numeric columns are raw fixed-width arrays preceded by a small
  header and are memory-mapped on read; string columns are stored as an
  offsets array plus a UTF-8 blob and dictionary-encoded on read.
* **Row tables** — a single file holding a NumPy structured array (strings as
  fixed-width unicode fields), memory-mapped on read.

Writers are deterministic: writing the same arrays twice produces identical
bytes, which the tests rely on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core import types as t
from repro.core.columns import EncodedColumn, encode_array, encode_spans
from repro.errors import StorageError

_MAGIC = b"PRCL"
_VERSION = 1

_DTYPE_CODES = {
    "int": ("i", np.dtype(np.int64)),
    "float": ("f", np.dtype(np.float64)),
    "bool": ("b", np.dtype(np.bool_)),
    "date": ("d", np.dtype(np.int64)),
    "string": ("s", None),
}
_CODE_TO_NAME = {code: name for name, (code, _) in _DTYPE_CODES.items()}

SCHEMA_FILE = "_schema.json"


# ---------------------------------------------------------------------------
# Schema (de)serialization
# ---------------------------------------------------------------------------


def schema_to_dict(schema: t.RecordType) -> dict:
    """Serialize a flat record schema to a JSON-compatible dict."""
    fields = []
    for field in schema.fields:
        if not field.dtype.is_primitive():
            raise StorageError(
                f"binary formats only store flat records; field {field.name!r} is "
                f"{field.dtype.name}"
            )
        fields.append({"name": field.name, "type": field.dtype.name})
    return {"version": _VERSION, "fields": fields}


def schema_from_dict(data: Mapping) -> t.RecordType:
    """Deserialize a schema previously produced by :func:`schema_to_dict`."""
    fields = [
        t.Field(entry["name"], t.primitive_type(entry["type"]))
        for entry in data["fields"]
    ]
    return t.RecordType(fields)


# ---------------------------------------------------------------------------
# Column files
# ---------------------------------------------------------------------------


def write_column_file(path: str, values: np.ndarray | Sequence, type_name: str) -> int:
    """Write a single column to ``path``; returns the number of bytes written."""
    if type_name not in _DTYPE_CODES:
        raise StorageError(f"unsupported column type {type_name!r}")
    code, dtype = _DTYPE_CODES[type_name]
    if type_name == "string":
        return _write_string_column(path, values, code)
    array = np.asarray(values, dtype=dtype)
    header = _MAGIC + code.encode() + b"\0\0\0" + np.int64(len(array)).tobytes()
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(array.tobytes())
    return len(header) + array.nbytes


def _write_string_column(path: str, values: Sequence, code: str) -> int:
    encoded = [("" if v is None else str(v)).encode("utf-8") for v in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), np.int64, len(encoded)), out=offsets[1:])
    payload = b"".join(encoded)
    header = _MAGIC + code.encode() + b"\0\0\0" + np.int64(len(encoded)).tobytes()
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(offsets.tobytes())
        handle.write(payload)
    return len(header) + offsets.nbytes + len(payload)


def read_column_file(path: str, use_mmap: bool = True) -> np.ndarray | EncodedColumn:
    """Read a column file; fixed-width columns are memory-mapped when
    possible, string columns come back dictionary-encoded."""
    header_size = len(_MAGIC) + 4 + 8
    with open(path, "rb") as handle:
        header = handle.read(header_size)
    if len(header) < header_size or header[: len(_MAGIC)] != _MAGIC:
        raise StorageError(f"{path} is not a Proteus column file")
    code = chr(header[len(_MAGIC)])
    count = int(np.frombuffer(header, dtype=np.int64, count=1, offset=len(_MAGIC) + 4)[0])
    type_name = _CODE_TO_NAME.get(code)
    if type_name is None:
        raise StorageError(f"unknown column type code {code!r} in {path}")
    if type_name == "string":
        with open(path, "rb") as handle:
            handle.seek(header_size)
            offsets = np.frombuffer(handle.read((count + 1) * 8), dtype=np.int64)
            payload = handle.read()
        return encode_spans(payload, offsets[:-1], offsets[1:])
    dtype = _DTYPE_CODES[type_name][1]
    if use_mmap:
        # A plain view of the mapping: slices of an ``np.memmap`` cost more.
        return np.asarray(
            np.memmap(path, dtype=dtype, mode="r", offset=header_size, shape=(count,))
        )
    with open(path, "rb") as handle:
        handle.seek(header_size)
        return np.frombuffer(handle.read(), dtype=dtype, count=count).copy()


# ---------------------------------------------------------------------------
# Column tables
# ---------------------------------------------------------------------------


@dataclass
class ColumnTable:
    """A lazily-loaded column table (directory of column files)."""

    directory: str
    schema: t.RecordType
    row_count: int

    def __post_init__(self) -> None:
        self._columns: dict[str, np.ndarray | EncodedColumn] = {}

    def column(self, name: str, use_mmap: bool = True) -> np.ndarray | EncodedColumn:
        """Load (and cache) one column."""
        if name not in self._columns:
            if not self.schema.has_field(name):
                raise StorageError(f"column table has no column {name!r}")
            path = os.path.join(self.directory, f"{name}.col")
            self._columns[name] = read_column_file(path, use_mmap=use_mmap)
        return self._columns[name]

    def columns(self, names: Sequence[str]) -> dict[str, np.ndarray | EncodedColumn]:
        return {name: self.column(name) for name in names}


def write_column_table(
    directory: str,
    columns: Mapping[str, np.ndarray | Sequence],
    schema: t.RecordType,
) -> ColumnTable:
    """Write a column table to ``directory`` (created if needed)."""
    os.makedirs(directory, exist_ok=True)
    lengths = {name: len(values) for name, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise StorageError(f"column length mismatch: {lengths}")
    row_count = next(iter(lengths.values())) if lengths else 0
    for field in schema.fields:
        if field.name not in columns:
            raise StorageError(f"missing column {field.name!r}")
        path = os.path.join(directory, f"{field.name}.col")
        write_column_file(path, columns[field.name], field.dtype.name)
    meta = schema_to_dict(schema)
    meta["row_count"] = row_count
    with open(os.path.join(directory, SCHEMA_FILE), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
    return ColumnTable(directory, schema, row_count)


def read_column_table(directory: str) -> ColumnTable:
    """Open a column table previously written by :func:`write_column_table`."""
    schema_path = os.path.join(directory, SCHEMA_FILE)
    if not os.path.exists(schema_path):
        raise StorageError(f"{directory} is not a column table (missing {SCHEMA_FILE})")
    with open(schema_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    return ColumnTable(directory, schema_from_dict(meta), int(meta["row_count"]))


# ---------------------------------------------------------------------------
# Row tables
# ---------------------------------------------------------------------------


def _row_dtype(schema: t.RecordType, columns: Mapping[str, Sequence]) -> np.dtype:
    parts = []
    for field in schema.fields:
        if isinstance(field.dtype, t.StringType):
            values = columns[field.name]
            width = max((len(str(v)) for v in values), default=1)
            parts.append((field.name, f"U{max(width, 1)}"))
        else:
            parts.append((field.name, field.dtype.numpy_dtype()))
    return np.dtype(parts)


def write_row_table(
    path: str, columns: Mapping[str, np.ndarray | Sequence], schema: t.RecordType
) -> None:
    """Write a row table: a schema sidecar plus a packed structured array."""
    lengths = {name: len(values) for name, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise StorageError(f"column length mismatch: {lengths}")
    row_count = next(iter(lengths.values())) if lengths else 0
    dtype = _row_dtype(schema, columns)
    table = np.zeros(row_count, dtype=dtype)
    for field in schema.fields:
        table[field.name] = np.asarray(columns[field.name])
    meta = schema_to_dict(schema)
    meta["row_count"] = row_count
    meta["dtype"] = [[name, table.dtype[name].str] for name in table.dtype.names]
    with open(path + ".schema.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
    with open(path, "wb") as handle:
        handle.write(table.tobytes())


@dataclass
class RowTable:
    """A memory-mapped row table."""

    path: str
    schema: t.RecordType
    row_count: int
    data: np.ndarray

    def __post_init__(self) -> None:
        self._encoded: dict[str, EncodedColumn] = {}

    def column(self, name: str) -> np.ndarray | EncodedColumn:
        """One field of every record: a strided view of the mapped records,
        except fixed-width strings, which are dictionary-encoded once (one
        ``np.unique`` over the fixed-width array) and kept, like a column
        table's."""
        if not self.schema.has_field(name):
            raise StorageError(f"row table has no column {name!r}")
        column = np.asarray(self.data[name])
        if column.dtype.kind != "U":
            return column
        if name not in self._encoded:
            self._encoded[name] = encode_array(column)
        return self._encoded[name]


def read_row_table(path: str, use_mmap: bool = True) -> RowTable:
    """Open a row table previously written by :func:`write_row_table`."""
    schema_path = path + ".schema.json"
    if not os.path.exists(schema_path):
        raise StorageError(f"{path} is not a row table (missing schema sidecar)")
    with open(schema_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    schema = schema_from_dict(meta)
    dtype = np.dtype([(name, spec) for name, spec in meta["dtype"]])
    row_count = int(meta["row_count"])
    if use_mmap:
        data = np.memmap(path, dtype=dtype, mode="r", shape=(row_count,))
    else:
        with open(path, "rb") as handle:
            data = np.frombuffer(handle.read(), dtype=dtype, count=row_count).copy()
    return RowTable(path, schema, row_count, data)
