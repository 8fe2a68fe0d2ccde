"""One column per declared type.

Every input plug-in hands the batch pipeline a field of a declared primitive
type in exactly one form, decided here and nowhere else:

================  ===========================  ============================
declared type     nothing missing              some values missing
================  ===========================  ============================
``int``/``date``  ``int64``                    encoded (``int64`` dictionary)
``bool``          ``bool``                     encoded (``bool`` dictionary)
``float``         ``float64``, NaN = missing   ``float64``, NaN = missing
``string``        encoded                      encoded
================  ===========================  ============================

Values that do not fit the declared type exactly — a float or a bool in an
``int`` field, a number in a ``string`` field, an int beyond int64 — make an
object column, the only place ``None`` lives.  Two conversions build every
column: :func:`column_from_spans` from byte spans (CSV and JSON fields,
binary string columns through :func:`encode_spans`) and
:func:`column_from_values` from Python values (JSON unnest elements,
column-backed nested unnest, the per-value fallbacks).

An :class:`EncodedColumn` is ``codes`` (``int32``, one per row, ``-1`` =
missing) into ``values``, the distinct values ascending — ``str`` in an
object array, ``int64`` or ``bool``.  The dictionary is sorted, so code order
is value order: the kernels filter, group, join and sort on the integer
codes, the §6 cache keeps the column as a primitive one, and only the row
pull at the end of a query decodes it.

Call sites that were not taught the encoding still get the right column:
``np.asarray`` (``__array__``), iteration, ``tolist`` and scalar indexing
decode to an object column of Python values with ``None`` where missing, and
the class reports ``dtype`` object so dtype-dispatched code takes its object
path.  Gathers and slices stay encoded and share the dictionary.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core import types as t


class EncodedColumn:
    """``codes`` (``int32``, ``-1`` = missing) into the ascending dictionary
    ``values`` (distinct ``str`` in an object array, ``int64`` or ``bool``).
    Immutable: every operation returns a new column sharing the
    dictionary."""

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
        """The object column: a Python value per row, ``None`` where
        missing."""
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
            return None if code < 0 else t.python_value(self.values[code])
        return EncodedColumn(self.codes[key], self.values)

    def __repr__(self) -> str:
        return f"EncodedColumn({len(self)} rows, {len(self.values)} distinct)"


def dictionary_nbytes(values: np.ndarray) -> int:
    """Bytes of a dictionary: its buffer, plus every string object of a
    ``str`` one."""
    if values.dtype != object:
        return int(values.nbytes)
    return int(values.nbytes) + sum(map(sys.getsizeof, values.tolist()))


# ---------------------------------------------------------------------------
# The rule
# ---------------------------------------------------------------------------

#: The Python types that fit each declared type exactly (``type(True)`` is
#: ``bool``, so a bool never fits ``int``).
_FITS: dict[str, frozenset[type]] = {
    "int": frozenset({int}),
    "date": frozenset({int}),
    "float": frozenset({int, float}),
    "bool": frozenset({bool}),
    "string": frozenset({str}),
}

Column = np.ndarray | EncodedColumn


def column_from_values(values: list[Any], type_name: str) -> Column:
    """The column of declared type ``type_name`` holding Python ``values``
    (``None`` = missing), by the rule of this module."""
    kinds = set(map(type, values))
    missing = type(None) in kinds
    kinds.discard(type(None))
    fits = _FITS.get(type_name)
    if fits is not None and kinds <= fits:
        dtype = t.primitive_type(type_name).numpy_dtype()
        try:
            if type_name == "string" or (missing and type_name != "float"):
                return _encode_values(values, dtype)
            return np.asarray(values, dtype=dtype)  # a float None reads as NaN
        except OverflowError:
            pass  # an int beyond int64
    return _object_column(values)


def column_from_spans(
    data: bytes,
    starts: np.ndarray,
    ends: np.ndarray,
    type_name: str,
    missing: np.ndarray | None = None,
    unescape: Callable[[bytes], bytes] | None = None,
) -> Column | None:
    """The column of declared type ``type_name`` whose values are the bytes
    ``data[start:end]`` (``missing`` marks rows without a value), converted
    without a Python object per value; ``None`` when a value needs the
    per-value path (:func:`column_from_values`): a ``bool``, a number that is
    not a plain decimal, an integer span that is not ``[-]digits``."""
    if missing is not None and missing.any():
        present = ~missing
        column = column_from_spans(
            data, starts[present], ends[present], type_name, None, unescape
        )
        return None if column is None else _with_missing(column, present)
    if type_name == "string":
        return encode_spans(data, starts, ends, unescape)
    if type_name in ("int", "date"):
        return parse_numbers(data, starts, ends, integral=True)
    if type_name != "float":
        return None
    floats = parse_numbers(data, starts, ends, integral=False)
    if floats is None:
        try:
            floats = np.asarray(span_bytes(data, starts, ends)).astype(np.float64)
        except ValueError:
            return None
    return floats


def _object_column(values: Sequence[Any]) -> np.ndarray:
    """Values as an object column, one Python value per row."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _with_missing(column: Column, present: np.ndarray) -> Column:
    """The column of the present rows spread over every row, with the rows
    ``present`` leaves out missing: NaN in a float column; an int or bool
    column becomes encoded."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        floats = np.full(len(present), np.nan)
        floats[present] = column
        return floats
    encoded = encode_array(column) if isinstance(column, np.ndarray) else column
    codes = np.full(len(present), -1, dtype=np.int32)
    codes[present] = encoded.codes
    return EncodedColumn(codes, encoded.values)


def encode_array(values: np.ndarray) -> EncodedColumn:
    """A typed column (``int``, ``bool`` or fixed-width ``str``) encoded by
    one ``np.unique``; nothing in it is missing."""
    uniques, inverse = np.unique(values, return_inverse=True)
    if uniques.dtype.kind in "US":
        uniques = uniques.astype(object)
    return EncodedColumn(inverse.astype(np.int32).ravel(), uniques)


def _encode_values(values: list[Any], dtype: np.dtype) -> EncodedColumn:
    """Python values of one type (``None`` = missing) encoded with one hash
    per value and a sort of the distinct ones."""
    distinct = set(values)
    distinct.discard(None)
    ordered = sorted(distinct)
    lookup: dict[Any, int] = dict(zip(ordered, range(len(ordered))))
    lookup[None] = -1
    codes = np.fromiter(
        map(lookup.__getitem__, values), dtype=np.int32, count=len(values)
    )
    dictionary = (
        _object_column(ordered) if dtype == object else np.asarray(ordered, dtype=dtype)
    )
    return EncodedColumn(codes, dictionary)


def declared_type(dtype: t.DataType | None, path: Sequence[str]) -> str:
    """The declared type name of ``path`` inside ``dtype`` that its column
    converts to: a primitive's name, ``"object"`` for a record or a
    collection, ``"float"`` when ``dtype`` has no such path (an absent field
    reads as NaN)."""
    found = _type_at(dtype, path)
    if found is None:
        return "float"
    return found.name if found.is_primitive() else "object"


def element_type(dtype: t.DataType | None, path: Sequence[str]) -> t.DataType | None:
    """The element type of the collection at ``path`` inside ``dtype``, or
    ``None`` when there is none."""
    found = _type_at(dtype, path)
    return found.element if isinstance(found, t.CollectionType) else None


def _type_at(dtype: t.DataType | None, path: Sequence[str]) -> t.DataType | None:
    for step in path:
        if not isinstance(dtype, t.RecordType) or not dtype.has_field(step):
            return None
        dtype = dtype.field_type(step)
    return dtype


# ---------------------------------------------------------------------------
# Byte spans
# ---------------------------------------------------------------------------


def span_bytes(data: bytes, starts: np.ndarray, ends: np.ndarray) -> list[bytes]:
    """``data[start:end]`` for every span, sliced C-side."""
    getter: Callable[[slice], bytes] = data.__getitem__
    return list(map(getter, map(slice, starts.tolist(), ends.tolist())))


#: Exact powers of ten for :func:`parse_numbers`.
_POWERS_OF_TEN = np.asarray([float(10**k) for k in range(16)])


def parse_numbers(
    data: bytes, starts: np.ndarray, ends: np.ndarray, integral: bool
) -> np.ndarray | None:
    """The numbers ``data[start:end]`` without one Python object per value,
    or ``None`` unless every span is plain: ``[-]digits`` of at most 18
    digits (``integral``: int64), or ``[-]digits[.digits]`` of at most 15
    digits (float64).

    Both parse exactly: 18 digits fit int64, and 15 digits form an integer
    below 2**53 that one division by an exactly representable power of ten
    rounds correctly, so the result equals ``float(text)``.
    """
    if not len(starts):
        return np.zeros(0, dtype=np.int64 if integral else np.float64)
    buf = np.frombuffer(data, dtype=np.uint8)
    if not len(buf):
        return None
    negative = buf[np.minimum(starts, len(buf) - 1)] == ord("-")
    begins = starts + negative
    lengths = ends - begins
    if lengths.min() < 1 or lengths.max() > (18 if integral else 16):
        return None
    mantissa = np.zeros(len(starts), dtype=np.int64)
    digits = np.zeros(len(starts), dtype=np.int64)
    scale = np.zeros(len(starts), dtype=np.int64)
    point = np.zeros(len(starts), dtype=bool)
    for offset in range(int(lengths.max())):
        active = offset < lengths
        byte = buf[np.minimum(begins + offset, len(buf) - 1)]
        value = byte.astype(np.int64) - ord("0")
        digit = active & (value >= 0) & (value <= 9)
        dot = active & (byte == ord(".")) & ~point
        if not np.array_equal(digit | dot, active):
            return None
        mantissa = np.where(digit, mantissa * 10 + value, mantissa)
        digits += digit
        scale += digit & point
        point |= dot
    if integral:
        return None if point.any() else np.where(negative, -mantissa, mantissa)
    if digits.min() < 1 or digits.max() > 15:
        return None
    values = mantissa / _POWERS_OF_TEN[scale]
    values[negative] *= -1.0
    return values


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
) -> EncodedColumn:
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
    values = _object_column([text.decode("utf-8", "surrogatepass") for text in texts])
    return EncodedColumn(inverse.astype(np.int32).ravel(), values)


def _encode_each(
    data: bytes,
    starts: np.ndarray,
    ends: np.ndarray,
    unescape: Callable[[bytes], bytes] | None,
) -> EncodedColumn:
    """:func:`encode_spans` one ``str`` per value."""
    texts = span_bytes(data, starts, ends)
    if unescape is not None:
        texts = [unescape(text) if b"\\" in text else text for text in texts]
    return _encode_values(
        [text.decode("utf-8", "surrogatepass") for text in texts], np.dtype(object)
    )


# ---------------------------------------------------------------------------
# Dictionaries across columns
# ---------------------------------------------------------------------------


def same_dictionary(left: np.ndarray, right: np.ndarray) -> bool:
    return left is right or (len(left) == len(right) and bool(np.all(left == right)))


def recode(column: EncodedColumn, values: np.ndarray) -> np.ndarray:
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


def concat_encoded(chunks: Sequence[Any]) -> EncodedColumn | None:
    """One encoded column from chunks of one field, under the union of their
    dictionaries (per-morsel ranges and different datasets build different
    ones).  A typed chunk beside encoded ones is encoded first: a field with
    missing values is encoded in one batch and plain in the next.  ``None``
    when a chunk has no encoded form of the others' kind (an object chunk,
    another dictionary kind)."""
    encoded = [chunk for chunk in chunks if isinstance(chunk, EncodedColumn)]
    kind = encoded[0].values.dtype.kind
    columns: list[EncodedColumn] = []
    for chunk in chunks:
        if not isinstance(chunk, EncodedColumn):
            if not isinstance(chunk, np.ndarray) or kind == "O" or chunk.dtype.kind != kind:
                return None
            chunk = encode_array(chunk)
        elif chunk.values.dtype.kind != kind:
            return None
        columns.append(chunk)
    values = columns[0].values
    if not all(same_dictionary(column.values, values) for column in columns[1:]):
        values = np.unique(np.concatenate([column.values for column in columns]))
    return EncodedColumn(
        np.concatenate([recode(column, values) for column in columns]), values
    )
