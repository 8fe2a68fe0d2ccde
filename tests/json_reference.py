"""Byte-at-a-time JSON tokenizer: the reference the structural index is
checked against.

This is the recursive tokenizer the JSON structural index was first built
with.  It walks the input one byte at a time in Python and records, per
object, every field path with its value span and type.  The index builder now
works on whole-block bitmaps; the differential tests in
``tests/test_structural_index.py`` require both to agree on every valid input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import StorageError
from repro.storage.structural_index import (
    TYPE_ARRAY,
    TYPE_BOOL,
    TYPE_NULL,
    TYPE_NUMBER,
    TYPE_OBJECT,
    TYPE_STRING,
)


@dataclass
class TokenEntry:
    """One field of one object: its path, its value span and its type."""

    path: str
    start: int
    end: int
    type_code: int


def _skip_whitespace(data: bytes, position: int) -> int:
    while position < len(data) and data[position] in b" \t\r\n":
        position += 1
    return position


def _skip_string(data: bytes, position: int) -> int:
    """``position`` points at the opening quote; returns index after closing quote."""
    position += 1
    while position < len(data):
        byte = data[position]
        if byte == 0x5C:  # backslash
            position += 2
            continue
        if byte == 0x22:  # double quote
            return position + 1
        position += 1
    raise StorageError("unterminated string in JSON input")


def _skip_value(data: bytes, position: int) -> tuple[int, int]:
    """Skip one JSON value starting at ``position``; return (end, type_code)."""
    position = _skip_whitespace(data, position)
    if position >= len(data):
        raise StorageError("unexpected end of JSON input")
    byte = data[position]
    if byte == 0x22:
        return _skip_string(data, position), TYPE_STRING
    if byte == 0x7B:
        return _skip_container(data, position, 0x7B, 0x7D), TYPE_OBJECT
    if byte == 0x5B:
        return _skip_container(data, position, 0x5B, 0x5D), TYPE_ARRAY
    if data.startswith(b"true", position):
        return position + 4, TYPE_BOOL
    if data.startswith(b"false", position):
        return position + 5, TYPE_BOOL
    if data.startswith(b"null", position):
        return position + 4, TYPE_NULL
    end = position
    while end < len(data) and data[end] in b"-+.eE0123456789":
        end += 1
    if end == position:
        raise StorageError(f"invalid JSON value at byte {position}")
    return end, TYPE_NUMBER


def _skip_container(data: bytes, position: int, open_byte: int, close_byte: int) -> int:
    depth = 0
    i = position
    while i < len(data):
        byte = data[i]
        if byte == 0x22:
            i = _skip_string(data, i)
            continue
        if byte == open_byte:
            depth += 1
        elif byte == close_byte:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise StorageError("unterminated container in JSON input")


def tokenize_object(
    data: bytes, start: int, prefix: str = "", max_depth: int = 8
) -> tuple[list[TokenEntry], int]:
    """Tokenize one JSON object starting at ``start``: the object's own span
    first, then every field (nested record fields flattened into dotted
    paths, arrays as opaque spans) in document order."""
    entries: list[TokenEntry] = []
    position = _skip_whitespace(data, start)
    if position >= len(data) or data[position] != 0x7B:
        raise StorageError(f"expected JSON object at byte {position}")
    object_start = position
    position += 1
    while True:
        position = _skip_whitespace(data, position)
        if position >= len(data):
            raise StorageError("unterminated JSON object")
        if data[position] == 0x7D:
            position += 1
            break
        if data[position] == 0x2C:
            position += 1
            continue
        if data[position] != 0x22:
            raise StorageError(f"expected field name at byte {position}")
        name_end = _skip_string(data, position)
        name = data[position + 1:name_end - 1].decode("utf-8")
        position = _skip_whitespace(data, name_end)
        if position >= len(data) or data[position] != 0x3A:
            raise StorageError(f"expected ':' at byte {position}")
        position = _skip_whitespace(data, position + 1)
        value_start = position
        value_end, type_code = _skip_value(data, position)
        path = f"{prefix}{name}"
        entries.append(TokenEntry(path, value_start, value_end, type_code))
        if type_code == TYPE_OBJECT and max_depth > 1:
            nested, _ = tokenize_object(data, value_start, f"{path}.", max_depth - 1)
            # nested[0] is the nested object's own span, already recorded
            # above as this field (re-adding it would misname a key that
            # ends in '.').
            entries.extend(nested[1:])
        position = value_end
    entries.insert(0, TokenEntry(prefix.rstrip("."), object_start, position, TYPE_OBJECT))
    return entries, position


def iter_object_starts(data: bytes) -> Iterator[int]:
    """Yield the byte offset of every top-level object in the buffer."""
    position = 0
    length = len(data)
    while True:
        position = _skip_whitespace(data, position)
        if position >= length:
            return
        if data[position] != 0x7B:
            raise StorageError(f"expected '{{' at byte {position}")
        yield position
        position = _skip_container(data, position, 0x7B, 0x7D)


def reference_index(
    data: bytes, max_depth: int = 8
) -> tuple[list[tuple[int, int]], list[dict[str, tuple[int, int, int]]]]:
    """Object spans and, per object, ``path -> (start, end, type)`` with the
    first occurrence of a duplicate path winning."""
    spans: list[tuple[int, int]] = []
    fields: list[dict[str, tuple[int, int, int]]] = []
    for start in iter_object_starts(data):
        entries, end = tokenize_object(data, start, max_depth=max_depth)
        spans.append((start, end))
        mapping: dict[str, tuple[int, int, int]] = {}
        for entry in entries[1:]:
            mapping.setdefault(entry.path, (entry.start, entry.end, entry.type_code))
        fields.append(mapping)
    return spans, fields


def reference_sequences(data: bytes, max_depth: int = 8) -> list[tuple[str, ...]]:
    """Every object's ordered field-path sequence (duplicates included)."""
    return [
        tuple(entry.path for entry in tokenize_object(data, start, max_depth=max_depth)[0][1:])
        for start in iter_object_starts(data)
    ]
