"""Dictionary-encoded string columns.

The CSV and JSON plug-ins hand every column of a declared ``string`` field
to the batch pipeline as a :class:`StringColumn`: ``codes`` (``int32``, one
per row, ``-1`` = missing) into ``values`` (the distinct strings,
ascending).  The dictionary is sorted, so code order is string order: the
kernels filter, group, join and sort on the integer codes, the §6 cache keeps
the column as a primitive one, and only the row pull at the end of a query
decodes it.

Call sites that were not taught the encoding still get the right column:
``np.asarray`` (``__array__``), iteration, ``tolist`` and scalar indexing
decode to the object column of ``str`` / ``None`` the engine used before,
and the class reports ``dtype`` object so dtype-dispatched code takes its
object path.  Gathers and slices stay encoded and share the dictionary.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterator, Sequence

import numpy as np


class StringColumn:
    """``codes`` (``int32``, ``-1`` = missing) into the ascending dictionary
    ``values`` (an object array of distinct ``str``).  Immutable: every
    operation returns a new column sharing the dictionary."""

    __slots__ = ("codes", "values")

    #: What the column decodes to.
    dtype = np.dtype(object)
    ndim = 1

    def __init__(self, codes: np.ndarray, values: np.ndarray) -> None:
        self.codes = codes
        self.values = values

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        """Exact footprint: the codes plus the dictionary."""
        return int(self.codes.nbytes) + dictionary_nbytes(self.values)

    def decode(self) -> np.ndarray:
        """The object column: ``str`` per row, ``None`` where missing."""
        lookup = np.empty(len(self.values) + 1, dtype=object)
        lookup[:-1] = self.values  # code -1 reads the trailing None
        return lookup[self.codes]

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        decoded = self.decode()
        return decoded if dtype is None else decoded.astype(dtype)

    def tolist(self) -> list[Any]:
        return self.decode().tolist()

    def __iter__(self) -> Iterator[Any]:
        return iter(self.tolist())

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, (int, np.integer)):
            code = int(self.codes[key])
            return None if code < 0 else self.values[code]
        return StringColumn(self.codes[key], self.values)

    def __repr__(self) -> str:
        return f"StringColumn({len(self)} rows, {len(self.values)} distinct)"


def dictionary_nbytes(values: np.ndarray) -> int:
    """Bytes of a dictionary: its pointer array and every string object."""
    return int(values.nbytes) + sum(map(sys.getsizeof, values.tolist()))


#: The fixed-width gather of :func:`encode_spans` pads every value to the
#: longest one.  Past this many padded bytes per value byte (a long value
#: among short ones) the column is decoded value by value instead, so time
#: and memory stay proportional to the column's bytes.
MAX_PADDING = 8


def encode_spans(
    data: bytes,
    starts: np.ndarray,
    ends: np.ndarray,
    unescape: Callable[[bytes], bytes] | None = None,
) -> StringColumn:
    """The UTF-8 strings ``data[start:end]`` as one column, built without a
    Python string per value: the spans are gathered into one fixed-width
    ``S`` array, ``np.unique`` numbers the distinct byte strings — UTF-8 byte
    order is code-point order, which is Python's ``str`` order — and only the
    distinct values are decoded.  Values of at most 8 bytes sort as
    big-endian ``uint64`` words, the same order at integer speed:
    ``np.unique`` over 64 Ki such keys runs about 6x faster than over
    ``S8`` ones.

    ``unescape`` rewrites the spans holding a backslash (JSON escapes) before
    the gather; an unescaped value is never longer than its escaped form.
    Columns the gather does not fit — padding past :data:`MAX_PADDING`, or a
    value holding a NUL byte, which fixed-width ``S`` values would lose —
    decode one ``str`` per value (:func:`_encode_each`).
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - starts
    longest = int(lengths.max()) if len(lengths) else 0
    width = 8 * max(-(-longest // 8), 1)
    if len(lengths) * width > MAX_PADDING * max(int(lengths.sum()), len(lengths)):
        return _encode_each(data, starts, ends, unescape)
    buf = np.frombuffer(data, dtype=np.uint8)
    matrix = np.zeros((len(lengths), width), dtype=np.uint8)
    for offset in range(longest):  # one byte of every value per pass
        gathered = buf[np.minimum(starts + offset, len(buf) - 1)]
        matrix[:, offset] = np.where(lengths > offset, gathered, 0)
    if unescape is not None:
        for row in np.flatnonzero((matrix == ord("\\")).any(axis=1)).tolist():
            text = unescape(matrix[row, : lengths[row]].tobytes())
            matrix[row] = 0
            matrix[row, : len(text)] = np.frombuffer(text, dtype=np.uint8)
            lengths[row] = len(text)
    if np.count_nonzero(matrix) != int(lengths.sum()):
        return _encode_each(data, starts, ends, unescape)
    keys = matrix.view(">u8" if width == 8 else f"S{width}").ravel()
    uniques, inverse = np.unique(keys, return_inverse=True)
    texts = uniques.astype(keys.dtype, copy=False).view(f"S{width}").tolist()
    values = np.empty(len(texts), dtype=object)
    values[:] = [text.decode("utf-8", "surrogatepass") for text in texts]
    return StringColumn(inverse.astype(np.int32).ravel(), values)


def _encode_each(
    data: bytes,
    starts: np.ndarray,
    ends: np.ndarray,
    unescape: Callable[[bytes], bytes] | None,
) -> StringColumn:
    """:func:`encode_spans` one ``str`` per value: ``np.unique`` over the
    decoded object column."""
    texts = [data[start:end] for start, end in zip(starts.tolist(), ends.tolist())]
    if unescape is not None:
        texts = [unescape(text) if b"\\" in text else text for text in texts]
    column = np.empty(len(texts), dtype=object)
    column[:] = [text.decode("utf-8", "surrogatepass") for text in texts]
    uniques, inverse = np.unique(column, return_inverse=True)
    return StringColumn(inverse.astype(np.int32).ravel(), uniques)


def encode_objects(column: np.ndarray) -> StringColumn | None:
    """An object column of ``str`` as an encoded one; ``None`` unless every
    value is a ``str``."""
    try:
        uniques, inverse = np.unique(column, return_inverse=True)
    except TypeError:
        return None
    if not all(isinstance(value, str) for value in uniques.tolist()):
        return None
    return StringColumn(inverse.astype(np.int32).ravel(), uniques)


def same_dictionary(left: np.ndarray, right: np.ndarray) -> bool:
    return left is right or (len(left) == len(right) and bool(np.all(left == right)))


def recode(column: StringColumn, values: np.ndarray) -> np.ndarray:
    """``column``'s codes in the dictionary ``values``, translated with one
    ``searchsorted`` of its own dictionary: ``-1`` where the value is
    missing or ``values`` lacks it."""
    if same_dictionary(column.values, values):
        return column.codes
    positions = np.searchsorted(values, column.values)
    found = positions < len(values)
    found[found] = values[positions[found]] == column.values[found]
    mapping = np.append(np.where(found, positions, -1), -1).astype(np.int32)
    return mapping[column.codes]  # code -1 reads the trailing -1


def concat_strings(columns: Sequence[StringColumn]) -> StringColumn:
    """One column from several, under the union of their dictionaries
    (per-morsel ranges and different datasets build different ones)."""
    values = columns[0].values
    if not all(same_dictionary(column.values, values) for column in columns[1:]):
        values = np.unique(np.concatenate([column.values for column in columns]))
    return StringColumn(
        np.concatenate([recode(column, values) for column in columns]), values
    )
