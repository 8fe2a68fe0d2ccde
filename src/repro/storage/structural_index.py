"""Structural indexes over raw CSV and JSON files (§5.2 of the paper).

Structural indexes store *positional* information about fields in verbose
text formats instead of data values, so that the engine can navigate straight
to the bytes it needs rather than re-parsing whole records.  Both indexes are
built by whole-block bitmap passes over the raw buffer (the Mison / simdjson
technique): a few passes over a block's bytes find the bytes that matter, and
every later step works on their positions.

* :class:`CsvStructuralIndex` stores where every row starts and ends and,
  row-relative, where every Nth field starts (the paper stores the 1st, 11th,
  21st ... fields when N=10).  The build finds every delimiter anyway, so by
  default N is 1: a field span is then two index reads, its anchor and the
  next field's, for many rows at once by slicing (a row range) or gathering
  (OIDs).  At a larger N a field's end, and the start of a field N leaves
  unanchored, are found by one delimiter search over those rows' bytes from
  the closest anchor.
* :class:`JsonStructuralIndex` is built during the first (validating) pass
  over a JSON object stream.  It keeps one column per field path — top-level
  fields, nested record fields flattened into dotted paths, arrays as opaque
  spans — over all objects: the value's object-relative start, its length and
  its type, with :data:`TYPE_MISSING` where an object lacks the path.  A path
  lookup is a column lookup whatever the field order of each object, so the
  paper's Level 0 (path -> entry per object) and its fixed-schema
  specialization are both subsumed; ``fixed_schema`` remains as a reported
  fact about the file.

  One block of the JSON build: one ``bytes.translate`` classifies its bytes;
  escaped quotes are dropped (only in a block that holds a backslash), so
  the quotes left alternate opening and closing and one list of their
  positions bounds every string; a prefix xor of the quote mask, 64 bytes to
  a word, masks the bytes inside strings.  The tokens left (structural
  bytes, strings, scalar runs) are paired and validated by whole-array
  passes, small per-token tables are looked up by ``translate`` too, keys
  are numbered by a hash checked against one member of each group, and the
  block's fields are written into its columns by one scatter into a
  (paths x objects) grid.

Array contents are deliberately *not* indexed: nested collections are handled
by the explicit Unnest operator, whose code path applies the same action to
every element and is therefore insensitive to schema flexibility.

Transient memory is bounded by :data:`BLOCK_BYTES`, not by the file: blocks
are cut at a newline (CSV) or after the last complete top-level object
(JSON), positions are kept in block-relative or narrow integer columns.
"""

from __future__ import annotations

import itertools

from typing import Sequence

import numpy as np

from repro.errors import StorageError

# Value type codes stored per field.
TYPE_NUMBER = 0
TYPE_STRING = 1
TYPE_BOOL = 2
TYPE_NULL = 3
TYPE_OBJECT = 4
TYPE_ARRAY = 5
#: The object does not carry the path.
TYPE_MISSING = -1

#: Bytes classified per pass.  Every transient array of a build is sized by
#: one block; a JSON object longer than a block gets a window of its own.
BLOCK_BYTES = 1 << 17


_NARROW = ((0xFF, np.uint8), (0xFFFF, np.uint16), (0xFFFF_FFFF, np.uint32))


def _narrow_dtype(top: int) -> type:
    """The narrowest unsigned dtype that holds ``0..top`` (``int64`` past 32 bits)."""
    for limit, dtype in _NARROW:
        if top <= limit:
            return dtype
    return np.int64


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` (non-negative) in the narrowest unsigned dtype that holds them."""
    return values.astype(_narrow_dtype(int(values.max()) if values.size else 0))


def _narrow_rows(grid: np.ndarray) -> list[np.ndarray]:
    """Every row of a 2-D ``grid`` narrowed as by :func:`_narrow`."""
    return [
        row.astype(_narrow_dtype(top), copy=False)
        for row, top in zip(grid, grid.max(axis=1).tolist())
    ]


def _block_end(data: bytes, start: int, size: int) -> int:
    """End of the block from ``start``: just after the last newline within
    ``size`` bytes, or ``start + size`` when there is none."""
    end = min(start + size, len(data))
    if end < len(data):
        newline = data.rfind(b"\n", start, end)
        if newline >= start:
            end = newline + 1
    return end


# ---------------------------------------------------------------------------
# CSV structural index
# ---------------------------------------------------------------------------


class CsvStructuralIndex:
    """Positional index over a CSV byte buffer.

    Per data row: the byte offset where it starts, its length (a trailing
    ``\\r`` excluded) and the row-relative offsets where fields ``stride``,
    ``2*stride``, ... start.  At stride 1 that includes field
    ``field_count``, the one past the last field, so that the last field ends
    by the same rule as every other.  A field the row does not hold is
    anchored at ``row length + 1``.  At stride 1 every span is two index
    reads: a field starts at its anchor (field 0 at the row start) and ends
    one byte before the next field's anchor.  At a stride above 1 a field
    starts at its anchor or a delimiter search from the closest one, and a
    search finds its end.  A larger stride trades index size for that seek
    work — exactly the knob described in the paper.
    """

    def __init__(
        self,
        row_starts: np.ndarray,
        row_lengths: np.ndarray,
        anchors: np.ndarray,
        stride: int,
        field_count: int,
        delimiter: bytes,
    ):
        self.row_starts = row_starts
        self.row_lengths = row_lengths
        self.anchors = anchors
        self.stride = stride
        self.field_count = field_count
        self.delimiter = delimiter

    @property
    def num_rows(self) -> int:
        return len(self.row_starts)

    @property
    def size_bytes(self) -> int:
        """In-memory footprint of the index."""
        return int(self.row_starts.nbytes + self.row_lengths.nbytes + self.anchors.nbytes)

    def row_span(self, row: int) -> tuple[int, int]:
        start = int(self.row_starts[row])
        return start, start + int(self.row_lengths[row])

    def _anchor(self, field_index: int) -> tuple[int, int, int | None]:
        """``(slot, skip, end slot)``: field ``field_index`` lies ``skip``
        fields after anchor column ``slot - 1`` (the row start for slot 0).
        At stride 1 its end is anchor column ``end slot`` (the next field's)
        minus one; at any other stride ``end slot`` is ``None`` and a search
        finds the end."""
        if field_index < 0 or field_index >= self.field_count:
            raise StorageError(
                f"field index {field_index} out of range (0..{self.field_count - 1})"
            )
        slot, skip = divmod(field_index, self.stride)
        return slot, skip, field_index if self.stride == 1 else None

    def field_span(self, data: bytes, row: int, field_index: int) -> tuple[int, int]:
        """Return the byte span ``[start, end)`` of one field of one row."""
        slot, skip, end_slot = self._anchor(field_index)
        start, row_end = self.row_span(row)
        row_start = start
        if slot:
            offset = int(self.anchors[row, slot - 1])
            if offset > row_end - start:
                self._short_row(row, field_index)
            start += offset
        if end_slot is not None:
            return start, row_start + int(self.anchors[row, end_slot]) - 1
        for _ in range(skip):
            next_delim = data.find(self.delimiter, start, row_end)
            if next_delim == -1:
                self._short_row(row, field_index)
            start = next_delim + 1
        end = data.find(self.delimiter, start, row_end)
        return start, row_end if end == -1 else end

    def field_spans(
        self, data: bytes, rows: "range | np.ndarray", field_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Byte spans ``(starts, ends)`` of one field for many rows (a range
        slices the index, an OID array gathers from it).  At stride 1 both
        ends are read from the index; at any other stride one delimiter
        search over the bytes between each row's anchor and its end, then
        ``searchsorted``, finds them."""
        slot, skip, end_slot = self._anchor(field_index)
        selected = (
            slice(rows.start, rows.stop, rows.step)
            if isinstance(rows, range)
            else np.asarray(rows, dtype=np.int64)
        )
        row_starts = self.row_starts[selected].astype(np.int64)
        begin = row_starts
        stop = begin + self.row_lengths[selected]
        if slot:
            offsets = self.anchors[selected, slot - 1]
            short = offsets > stop - begin
            if short.any():
                self._short_row(rows[int(np.argmax(short))], field_index)
            begin = begin + offsets
        if end_slot is not None:
            return begin, row_starts + self.anchors[selected, end_slot] - 1
        starts = np.empty(len(begin), dtype=np.int64)
        ends = np.empty(len(begin), dtype=np.int64)
        # Rows in chunks of about a block of bytes (a row costs one at least).
        weight = np.cumsum(stop - begin + 1)
        total = int(weight[-1]) if len(begin) else 0
        bounds = np.searchsorted(weight, np.arange(BLOCK_BYTES, total, BLOCK_BYTES))
        for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), len(begin)]):
            if hi > lo:
                self._spans_of(data, begin[lo:hi], stop[lo:hi], skip,
                               starts[lo:hi], ends[lo:hi], rows[lo:hi], field_index)
        return starts, ends

    def _spans_of(self, data, begin, stop, skip, starts, ends, rows, field_index) -> None:
        lo, hi = int(begin.min()), int(stop.max())
        if hi - lo <= 2 * int((stop - begin).sum()) + 64 * len(begin):
            # Searching the bytes between the rows costs less than slicing
            # the rows out one by one: search in place.
            buffer = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
            seg_begin, seg_end = begin - lo, stop - lo
        else:
            buffer = np.frombuffer(
                b"".join(map(data.__getitem__, map(slice, begin.tolist(), stop.tolist()))),
                dtype=np.uint8,
            )
            seg_end = np.cumsum(stop - begin)
            seg_begin = seg_end - (stop - begin)
        delims = np.flatnonzero(buffer == self.delimiter[0])
        first = np.searchsorted(delims, seg_begin)
        limit = np.searchsorted(delims, seg_end)
        field_begin = seg_begin
        if skip:
            short = first + skip - 1 >= limit
            if short.any():
                self._short_row(rows[int(np.argmax(short))], field_index)
            field_begin = delims[first + skip - 1] + 1
        follow = first + skip
        field_end = seg_end.copy()
        has_end = follow < limit
        field_end[has_end] = delims[follow[has_end]]
        starts[:] = begin + (field_begin - seg_begin)
        ends[:] = begin + (field_end - seg_begin)

    @staticmethod
    def _short_row(row, field_index: int):
        raise StorageError(f"row {int(row)} has fewer than {field_index + 1} fields")


#: Fields per anchor of :func:`build_csv_index` unless the caller sets one:
#: every field is anchored, so no scan searches the bytes again.
DEFAULT_STRIDE = 1


def build_csv_index(
    data: bytes,
    delimiter: str = ",",
    has_header: bool = True,
    stride: int = DEFAULT_STRIDE,
) -> CsvStructuralIndex:
    """Build a :class:`CsvStructuralIndex` over a CSV byte buffer."""
    if stride < 1:
        raise StorageError("stride must be at least 1")
    delim = delimiter.encode()
    if len(delim) != 1:
        raise StorageError(f"the CSV delimiter must be one byte, got {delimiter!r}")
    first_end = data.find(b"\n")
    if first_end == -1:
        first_end = len(data)
    field_count = data[:first_end].count(delim) + 1 if data else 0
    # The delimiter before each anchored field, counted from the row start;
    # at stride 1 also the one past the last field, which ends that field.
    nth_delimiter = np.arange(stride, field_count + (stride == 1), stride) - 1
    position = first_end + 1 if has_header else 0

    starts: list[np.ndarray] = []
    lengths: list[np.ndarray] = []
    anchors: list[np.ndarray] = []
    lo = position
    while lo < len(data):
        hi = _block_end(data, lo, BLOCK_BYTES)
        if data[hi - 1] != 0x0A and hi < len(data):  # a row longer than a block
            newline = data.find(b"\n", hi)
            hi = len(data) if newline == -1 else newline + 1
        buf = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
        # Newlines and delimiters in one pass: a line's delimiters are the
        # marks after the newline before it.
        marks = np.flatnonzero((buf == 0x0A) | (buf == delim[0]))
        newlines = np.flatnonzero(buf[marks] == 0x0A)
        ends = marks[newlines]
        if buf[-1] != 0x0A:
            ends = np.append(ends, len(buf))
        begins = np.concatenate(([0], ends[:-1] + 1))
        first = np.concatenate(([0], newlines + 1))[: len(ends)]
        ends -= (ends > begins) & (buf[np.maximum(ends - 1, 0)] == 0x0D)
        kept = ends > begins  # blank lines hold no row
        begins, ends, first = begins[kept], ends[kept], first[kept]
        # One gather for all anchors, slot by row so that every pass runs
        # along the rows.  A mark at or past the row's end is not the row's:
        # the field it would start is anchored one past the row's end.
        block_anchors = np.append(marks, len(buf)).take(
            nth_delimiter[:, None] + first, mode="clip"
        )
        np.copyto(block_anchors, ends, where=block_anchors >= ends)
        block_anchors -= begins - 1
        starts.append(_narrow(begins + lo))
        lengths.append(_narrow(ends - begins))
        anchors.append(_narrow(block_anchors.T))
        lo = hi

    return CsvStructuralIndex(
        row_starts=np.concatenate(starts) if starts else np.zeros(0, np.uint8),
        row_lengths=np.concatenate(lengths) if lengths else np.zeros(0, np.uint8),
        anchors=(
            np.concatenate(anchors) if anchors
            else np.zeros((0, len(nth_delimiter)), np.uint8)
        ),
        stride=stride,
        field_count=field_count,
        delimiter=delim,
    )


# ---------------------------------------------------------------------------
# JSON structural index
# ---------------------------------------------------------------------------


class JsonStructuralIndex:
    """Structural index over a JSON object stream (one object per line or a
    whitespace-separated stream of objects): per field path, a column over
    all objects of (object-relative start, length, type)."""

    def __init__(
        self,
        object_starts: np.ndarray,
        object_lengths: np.ndarray,
        path_names: Sequence[str],
        columns: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        fixed_schema: bool,
    ):
        self.object_starts = object_starts
        self.object_lengths = object_lengths
        self.path_names = tuple(path_names)
        self._slots = {path: slot for slot, path in enumerate(self.path_names)}
        self.columns = list(columns)
        #: Every object carries the same field paths in the same order.
        self.fixed_schema = fixed_schema

    @property
    def num_objects(self) -> int:
        return len(self.object_starts)

    @property
    def size_bytes(self) -> int:
        """In-memory footprint of the index."""
        total = int(self.object_starts.nbytes + self.object_lengths.nbytes)
        for column in self.columns:
            total += sum(int(array.nbytes) for array in column)
        return total + sum(len(path) for path in self.path_names)

    def object_span(self, index: int) -> tuple[int, int]:
        start = int(self.object_starts[index])
        return start, start + int(self.object_lengths[index])

    def paths(self) -> set[str]:
        """All field paths known to the index."""
        return set(self.path_names)

    def column_spans(
        self, path: str, positions: "range | np.ndarray | None" = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Span lookup for one field across all objects (or the objects at
        ``positions``: a range slices the columns, an array gathers from
        them): ``(starts, ends, type_codes)`` with :data:`TYPE_MISSING` where
        an object lacks the path (or the path is unknown to the index)."""
        if positions is None:
            rows: "slice | np.ndarray" = slice(None)
        elif isinstance(positions, range):
            rows = slice(positions.start, positions.stop, positions.step)
        else:
            rows = np.asarray(positions, dtype=np.int64)
        slot = self._slots.get(path)
        if slot is None:
            count = self.num_objects if positions is None else len(positions)
            zeros = np.zeros(count, dtype=np.int64)
            return zeros, zeros, np.full(count, TYPE_MISSING, dtype=np.int8)
        offsets, lengths, types = self.columns[slot]
        starts = self.object_starts[rows].astype(np.int64) + offsets[rows]
        return starts, starts + lengths[rows], types[rows]


# Byte classes, looked up for a whole block by one ``bytes.translate``.
# Scalar bytes (numbers, literals, garbage) are the classes up to _BACKSLASH.
_OTHER, _NUM, _BACKSLASH, _WS, _QUOTE = 0, 1, 2, 3, 4
_OBJ_OPEN, _OBJ_CLOSE, _ARR_OPEN, _ARR_CLOSE, _COLON, _COMMA = 5, 6, 7, 8, 9, 10
# Token kinds beyond the structural bytes: a string (at its opening quote)
# and a run of scalar bytes.
_STRING, _SCALAR = 11, 12


def _table(default: int, codes: dict[int, int]) -> bytes:
    """A ``bytes.translate`` table: ``codes[byte]``, else ``default``; a
    negative code is stored as its ``int8`` byte."""
    table = bytearray([default & 0xFF]) * 256
    for byte, code in codes.items():
        table[byte] = code & 0xFF
    return bytes(table)


def _lookup(values: np.ndarray, table: bytes) -> np.ndarray:
    """``table[values]`` of a ``uint8`` array as ``int8``: one C pass, where a
    fancy index would widen the array to ``intp`` first."""
    return np.frombuffer(values.tobytes().translate(table), dtype=np.int8)


_CLASS_TABLE = _table(_OTHER, {
    **dict.fromkeys(b"-+.eE0123456789", _NUM), **dict.fromkeys(b" \t\r\n", _WS),
    ord("\\"): _BACKSLASH, ord('"'): _QUOTE, ord("{"): _OBJ_OPEN, ord("}"): _OBJ_CLOSE,
    ord("["): _ARR_OPEN, ord("]"): _ARR_CLOSE, ord(":"): _COLON, ord(","): _COMMA,
})
# Per token kind: the step of the nesting depth, and of the array depth.
_DEPTH_STEP = _table(0, {_OBJ_OPEN: 1, _ARR_OPEN: 1, _OBJ_CLOSE: -1, _ARR_CLOSE: -1})
_ARRAY_STEP = _table(0, {_ARR_OPEN: 1, _ARR_CLOSE: -1})


def _transitions() -> bytes:
    """What JSON makes of a token after another, by ``previous << 4 |
    token``: 0 where it may follow, :data:`_UNSEPARATED` for a value right
    after another value, :data:`_NO_VALUE` where a value is missing (a ','
    or ':' without one before it or after it, a bracket closed after a
    separator)."""
    starts = {_SCALAR, _STRING, _OBJ_OPEN, _ARR_OPEN}
    ends = {_SCALAR, _STRING, _OBJ_CLOSE, _ARR_CLOSE}
    separators = {_COMMA, _COLON}
    codes = {}
    for previous, token in itertools.product(range(16), range(16)):
        if token in starts and previous not in separators | {_ARR_OPEN, _OBJ_OPEN}:
            codes[previous << 4 | token] = _UNSEPARATED
        elif (previous in separators and token not in starts) or (previous not in ends and (
                token in separators or token in (_ARR_CLOSE, _OBJ_CLOSE) and previous != token - 1)):
            codes[previous << 4 | token] = _NO_VALUE
    return _table(0, codes)


_UNSEPARATED, _NO_VALUE = 1, 2
_TRANSITIONS = _transitions()
# A value's type by its first byte: a token that starts with any byte but a
# quote, a bracket or a literal's first letter is a number (or garbage,
# which `_valid_scalars` rejects); a structural byte starts no value.
_VALUE_TYPE = _table(TYPE_NUMBER, {
    ord('"'): TYPE_STRING, ord("{"): TYPE_OBJECT, ord("["): TYPE_ARRAY,
    ord("t"): TYPE_BOOL, ord("f"): TYPE_BOOL, ord("n"): TYPE_NULL,
    **dict.fromkeys(b"}],:", TYPE_MISSING),
})
_LITERALS = (b"true", b"false", b"null")

#: Keys up to this many 8-byte words are interned by vectorized comparison;
#: longer ones one by one.
_KEY_WORDS = 4
#: Per row width, row ``n``: the mask that keeps a key's first ``n`` bytes.
_KEY_PREFIX = {
    width: np.tri(8 * _KEY_WORDS + 1, width, -1, dtype=np.uint8) * np.uint8(0xFF)
    for width in range(8, 8 * _KEY_WORDS + 1, 8)
}
#: Odd multipliers mixing a key's length and words into one hash.
_KEY_MIX = np.asarray(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5,
     0xFF51AFD7ED558CCD][: _KEY_WORDS + 1],
    dtype=np.uint64,
)


def _key_hash(lengths: np.ndarray, words: np.ndarray) -> np.ndarray:
    """One ``uint64`` per key from its length and its zero-padded words; equal
    keys hash equal, and `_JsonBuilder._intern_keys` checks every key against
    its group's representative, so a collision costs time, never an id."""
    hashed = lengths.astype(np.uint64) * _KEY_MIX[0]
    for column in range(words.shape[1]):
        hashed += words[:, column] * _KEY_MIX[column + 1]
    return hashed


def _group(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct ``values``: each one's group, and one member of
    every group."""
    order = np.argsort(values)
    ordered = values[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


_XOR_SHIFTS = tuple(np.uint64(1 << k) for k in range(6))


def _prefix_xor(mask: np.ndarray) -> np.ndarray:
    """``np.logical_xor.accumulate(mask)``, 64 bytes a step: the mask packed
    into words, each word's prefix xor in six shifts (what simdjson takes
    from one carry-less multiply), then every word flipped by the parity of
    the words before it."""
    bits = np.packbits(mask, bitorder="little")
    words = np.zeros(-(-len(bits) // 8), dtype="<u8")
    words.view(np.uint8)[: len(bits)] = bits
    for shift in _XOR_SHIFTS:
        words ^= words << shift
    carry = np.bitwise_xor.accumulate(words >> np.uint64(63))
    words[1:] ^= np.uint64(0) - carry[:-1]
    return np.unpackbits(words.view(np.uint8), count=len(mask), bitorder="little").view(bool)


def _numbered(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` of non-negative codes below
    ``space``, by a table over the space when it is small."""
    if space > 4 * len(codes) + 4096:
        distinct, inverse = np.unique(codes, return_inverse=True)
        return distinct, inverse.reshape(-1)
    seen = np.zeros(space, dtype=bool)
    seen[codes] = True
    distinct = np.flatnonzero(seen)
    number = np.empty(space, dtype=np.intp)
    number[distinct] = np.arange(len(distinct))
    return distinct, number[codes]


class _Problems:
    """Malformed-input findings of one block; the earliest one is raised."""

    def __init__(self, base: int, positions: np.ndarray):
        self.base = base
        self.positions = positions
        self.found: list[tuple[int, str]] = []

    def check(self, bad: np.ndarray, tokens: "np.ndarray | int", message: str) -> None:
        """Record ``message`` at the first token flagged by ``bad``:
        ``tokens[i]`` for an array, token ``i + tokens`` for a shift."""
        if bad.any():
            first = int(np.argmax(bad))
            token = tokens + first if isinstance(tokens, int) else tokens[first]
            self.found.append((int(self.positions[token]), message))

    def raise_first(self) -> None:
        if self.found:
            position, message = min(self.found, key=lambda found: found[0])
            raise StorageError(message.format(byte=self.base + position))


class _JsonBuilder:
    """Accumulates the per-block results of :func:`build_json_index`."""

    def __init__(self, max_depth: int):
        self.max_depth = max(max_depth, 1)
        self.keys: dict[bytes, int] = {}
        self.key_names: list[str] = []
        self.path_ids: dict[str, int] = {}
        self.path_names: list[str] = []
        self.object_starts: list[np.ndarray] = []
        self.object_lengths: list[np.ndarray] = []
        #: Per path id, ``{block number: (offsets, lengths, types)}``.
        self.pieces: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
        self.reference: np.ndarray | None = None
        self.fixed = True

    # -- one block -------------------------------------------------------------

    def scan(self, data: bytes, lo: int, hi: int, at_end: bool) -> int | None:
        """Index the complete objects of ``data[lo:hi]``; returns where they
        end, or ``None`` when the window holds no complete object yet."""
        buf = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
        # Byte classes in one C pass (a fancy index would widen every byte);
        # the block's copy that ``translate`` needs lives only for the call.
        classes = np.frombuffer(data[lo:hi].translate(_CLASS_TABLE), dtype=np.uint8)
        quote = classes == _QUOTE
        if data.find(b"\\", lo, hi) != -1:
            quote[_escaped_quotes(quote, np.flatnonzero(classes == _BACKSLASH))] = False
        # The quotes left delimit strings, so they alternate opening and
        # closing: ``quotes[0::2]`` open the strings, ``quotes[1::2]`` close
        # them, and an odd count leaves the last one open.
        quotes = np.flatnonzero(quote)
        # Every pass below runs on boolean masks, and no byte is widened.
        outside = ~_prefix_xor(quote)  # closing quotes included
        # Token kinds at their first byte: structural bytes outside strings,
        # strings at their opening quote and runs of scalar bytes.
        kinds_of_bytes = classes * (outside & (classes >= _OBJ_OPEN))
        kinds_of_bytes[quotes[0::2]] = _STRING
        padded = np.zeros(len(buf) + 2, dtype=bool)
        padded[1:-1] = outside & (classes <= _BACKSLASH)
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        scalar = padded[1:-1]
        kinds_of_bytes[edges[0::2]] = _SCALAR
        # (``flatnonzero`` of a boolean mask is several times faster than
        # of the ``uint8`` array itself.)
        positions = np.flatnonzero(kinds_of_bytes != 0)
        kinds = kinds_of_bytes[positions]
        # Scalar bytes that cannot be part of a number.
        foreign = np.flatnonzero(scalar & (classes != _NUM))
        del kinds_of_bytes, scalar, classes, outside

        # Where each token ends: a string after its closing quote, a scalar
        # at the end of its run, a structural byte after itself.
        ends = positions + 1
        ends[np.flatnonzero(kinds == _STRING)[: len(quotes) // 2]] = quotes[1::2] + 1
        ends[np.flatnonzero(kinds == _SCALAR)] = edges[1::2]
        unterminated = len(quotes) % 2 == 1

        step = _lookup(kinds, _DEPTH_STEP)
        depth = np.cumsum(step, dtype=np.int32)
        before = depth - step
        # Every token inside the window is exact (a token depends only on
        # the bytes before it), so these errors hold wherever they occur.
        if len(depth) and depth.min() < 0:
            negative = int(np.argmax(depth < 0))
            raise StorageError(
                f"unbalanced '{chr(buf[positions[negative]])}' at byte "
                f"{lo + int(positions[negative])}"
            )
        garbage = (before == 0) & (kinds != _OBJ_OPEN)
        if garbage.any():
            raise StorageError(
                f"expected '{{' at byte {lo + int(positions[np.argmax(garbage)])}; the JSON "
                "input must be a stream of objects (one per line or whitespace separated)"
            )
        top_closes = (depth == 0) & (kinds == _OBJ_CLOSE)
        complete = len(kinds) - int(np.argmax(top_closes[::-1])) if top_closes.any() else 0
        if at_end and complete < len(kinds):
            raise StorageError(
                "unterminated string in JSON input" if unterminated
                else "unterminated container in JSON input"
            )
        if not complete:
            return hi if at_end else None
        positions, kinds, ends = positions[:complete], kinds[:complete], ends[:complete]
        step, depth, before = step[:complete], depth[:complete], before[:complete]
        self._index_tokens(buf, lo, foreign, positions, kinds, ends, step, depth, before)
        return lo + int(positions[-1]) + 1

    def _index_tokens(self, buf, lo, foreign, positions, kinds, ends, step, depth, before) -> None:
        count = len(kinds)
        problems = _Problems(lo, positions)

        # Pair every bracket with its partner: within one nesting level the
        # brackets alternate opener, closer in document order.  The levels
        # are small, so the stable sort is a radix sort.
        brackets = np.flatnonzero(step != 0)
        level = depth[brackets] + (step[brackets] < 0)
        order = brackets[np.argsort(_narrow(level), kind="stable")]
        openers, closers = order[0::2], order[1::2]
        problems.check(kinds[closers] != kinds[openers] + 1, closers,
                       "mismatched bracket at byte {byte}")
        partner = np.zeros(count, dtype=np.intp)
        partner[openers] = closers

        array_step = _lookup(kinds, _ARRAY_STEP)
        array_depth = np.cumsum(array_step, dtype=np.int32)
        in_object = np.minimum(array_depth, array_depth - array_step) == 0
        # A field is a colon of an object (not inside an array): key before
        # it, value after it, then ',' or '}'.
        colons = np.flatnonzero((kinds == _COLON) & in_object)
        keys, values = colons - 1, colons + 1
        leads = np.maximum(colons - 2, 0)
        lead = kinds[leads]
        problems.check(kinds[keys] != _STRING, keys, "expected field name at byte {byte}")
        problems.check((lead != _OBJ_OPEN) & (lead != _COMMA), keys,
                       "expected ',' or '}}' at byte {byte}")
        starts = positions[values]
        types = _lookup(buf[starts], _VALUE_TYPE)
        problems.check(types == TYPE_MISSING, values, "invalid JSON value at byte {byte}")
        last = np.where(types >= TYPE_OBJECT, partner[values], values)
        after = np.minimum(last + 1, count - 1)
        follow = kinds[after]
        problems.check(
            (types != TYPE_MISSING) & (follow != _COMMA) & (follow != _OBJ_CLOSE),
            after, "expected ',' or '}}' at byte {byte}",
        )
        scalars = np.flatnonzero(kinds == _SCALAR)
        problems.check(
            ~_valid_scalars(buf, foreign, positions[scalars], ends[scalars]),
            scalars, "invalid JSON value at byte {byte}",
        )

        # Every other token of an object must belong to some field.
        is_lead = np.zeros(count, dtype=bool)
        is_lead[leads] = True
        is_after = np.zeros(count, dtype=bool)
        is_after[after] = True
        around = np.empty(count + 2, dtype=np.uint8)  # the last token is a '}'
        around[0], around[1:-1], around[-1] = 0, kinds, _OBJ_CLOSE
        prev, nxt = around[:-2], around[2:]
        # (A string that is no key is reported below as a missing ':'.)
        unnamed = ~is_lead & (nxt != _STRING)
        problems.check(in_object & (kinds == _COMMA) & (~is_after | unnamed), 1,
                       "expected field name at byte {byte}")
        problems.check(in_object & (kinds == _OBJ_OPEN) & unnamed & (nxt != _OBJ_CLOSE),
                       1, "expected field name at byte {byte}")
        problems.check(in_object & (kinds == _OBJ_CLOSE) & ~is_after & (prev != _OBJ_OPEN),
                       0, "expected field name at byte {byte}")
        problems.check(in_object & (kinds == _STRING) & (nxt != _COLON) & (prev != _COLON),
                       1, "expected ':' at byte {byte}")
        problems.check(in_object & ((kinds == _SCALAR) | (kinds == _ARR_OPEN)) & (prev != _COLON),
                       0, "invalid JSON value at byte {byte}")
        # Inside an array, every token follows the one before it as JSON
        # allows (:data:`_TRANSITIONS`) — and so does every ']' — and a ':'
        # sits in an object: the last opener one depth level up
        # (``openers`` are sorted by depth, then position).
        inside = ~in_object
        if inside.any():
            checked = inside | (kinds == _ARR_CLOSE)
            codes = _lookup((prev << 4) | kinds, _TRANSITIONS)
            problems.check(checked & (codes == _UNSEPARATED), 0,
                           "expected ',' or ']' at byte {byte}")
            problems.check(checked & (codes == _NO_VALUE), 0, "invalid JSON value at byte {byte}")
            del checked, codes
            colons_inside = np.flatnonzero(inside & (kinds == _COLON))
            if len(colons_inside):
                width = np.int64(count + 1)
                container = openers[np.searchsorted(
                    depth[openers].astype(np.int64) * width + openers,
                    before[colons_inside].astype(np.int64) * width + colons_inside,
                    side="right",
                ) - 1]
                problems.check(kinds[container] != _OBJ_OPEN, colons_inside,
                               "expected ',' or ']' at byte {byte}")
        problems.raise_first()

        # Objects, and the fields recorded (nesting up to max_depth).
        objects = np.flatnonzero(before == 0)
        object_starts = positions[objects]
        self.object_starts.append(_narrow(object_starts + lo))
        self.object_lengths.append(_narrow(positions[partner[objects]] + 1 - object_starts))
        depths = depth[colons]
        if len(depths) and depths.max() > self.max_depth:
            recorded = depths <= self.max_depth
            keys, starts, types = keys[recorded], starts[recorded], types[recorded]
            colons, last, depths = colons[recorded], last[recorded], depths[recorded]
        # Fields and objects are both in document order.
        counts = np.diff(np.searchsorted(colons, objects), append=len(colons))
        key_ids = self._intern_keys(buf, positions[keys] + 1, ends[keys] - positions[keys] - 2)
        path_ids = self._intern_paths(depths, key_ids)
        self._add_block(counts, path_ids, starts - np.repeat(object_starts, counts),
                        ends[last] - starts, types)

    # -- names -----------------------------------------------------------------

    def _intern_keys(self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Global key ids of the key byte strings ``buf[start:start+length]``."""
        ids = np.empty(len(starts), dtype=np.int64)
        short = lengths <= 8 * _KEY_WORDS
        if short.any():
            s, n = (starts, lengths) if short.all() else (starts[short], lengths[short])
            width = 8 * max(1, -(-int(n.max()) // 8))
            padded = np.zeros(len(buf) + width, dtype=np.uint8)
            padded[: len(buf)] = buf
            # One row of zero-padded bytes per key, read as little-endian
            # words.  (``take`` gathers rows of a contiguous array far faster
            # than a fancy index.)
            rows = np.lib.stride_tricks.sliding_window_view(padded, width)[s]
            rows &= _KEY_PREFIX[width].take(n, axis=0)
            words = rows.view("<u8")
            group, members = _group(_key_hash(n, words))
            chosen = members.take(group)
            if not (np.array_equal(n, n.take(chosen))
                    and np.array_equal(words, words.take(chosen, axis=0))):
                # Two different keys hash alike: number the keys exactly.
                _, group = np.unique(np.column_stack((n.astype(np.uint64), words)), axis=0,
                                     return_inverse=True)
                group = group.reshape(-1)
                members = np.empty(int(group.max()) + 1, dtype=np.intp)
                members[group] = np.arange(len(group))
            local = np.asarray(
                [self._key_id(buf[a:a + b].tobytes())
                 for a, b in zip(s[members].tolist(), n[members].tolist())],
                dtype=np.int64,
            )
            ids[short] = local[group]
        for i in np.flatnonzero(~short).tolist():
            ids[i] = self._key_id(buf[starts[i]:starts[i] + lengths[i]].tobytes())
        return ids

    def _key_id(self, key: bytes) -> int:
        known = self.keys.get(key)
        if known is None:
            known = self.keys[key] = len(self.key_names)
            self.key_names.append(key.decode("utf-8"))
        return known

    def _intern_paths(self, depths: np.ndarray, key_ids: np.ndarray) -> np.ndarray:
        """Path id of every recorded field: its key under the path of the
        field whose object value encloses it.  Recorded fields lie in no
        array, so that field is the last one a level up before it."""
        path_ids = np.empty(len(depths), dtype=np.int64)
        parents = np.full(len(depths), -1, dtype=np.int64)
        for level in range(1, int(depths.max()) + 1 if len(depths) else 1):
            at_level = np.flatnonzero(depths == level)
            if level > 1:
                up = np.where(depths == level - 1, np.arange(len(depths)), -1)
                parents[at_level] = path_ids[np.maximum.accumulate(up)[at_level]]
            width = len(self.key_names)
            pairs, inverse = _numbered(
                (parents[at_level] + 1) * width + key_ids[at_level],
                (len(self.path_names) + 1) * width,
            )
            ids = np.asarray(
                [self._path_id(pair // width - 1, pair % width) for pair in pairs.tolist()],
                dtype=np.int64,
            )
            path_ids[at_level] = ids[inverse]
        return path_ids

    def _path_id(self, parent: int, key: int) -> int:
        name = self.key_names[key]
        if parent >= 0:
            name = f"{self.path_names[parent]}.{name}"
        known = self.path_ids.get(name)
        if known is None:
            known = self.path_ids[name] = len(self.path_names)
            self.path_names.append(name)
            self.pieces.append({})
        return known

    # -- columns ---------------------------------------------------------------

    def _add_block(self, counts, path_ids, offsets, lengths, types) -> None:
        block = len(self.object_starts) - 1
        objects = len(counts)
        if self.fixed and objects:
            if self.reference is None:
                self.reference = path_ids[: counts[0]]
            width = len(self.reference)
            self.fixed = bool(
                np.all(counts == width)
                and np.array_equal(path_ids.reshape(objects, width),
                                   np.broadcast_to(self.reference, (objects, width)))
            )
        if not len(path_ids):
            return
        # One (present paths x objects) grid per column: a field's cell is
        # its path's row and its object's column.
        present, rows = _numbered(path_ids, len(self.path_names))
        cells = rows * objects + np.repeat(np.arange(objects), counts)
        size = len(present) * objects
        if np.bincount(cells, minlength=size).max() > 1:
            # A key repeated in one object: its first occurrence is kept.
            order = np.argsort(cells, kind="stable")
            first = np.ones(len(order), dtype=bool)
            first[1:] = cells[order[1:]] != cells[order[:-1]]
            kept = order[first]
            cells, offsets, lengths, types = cells[kept], offsets[kept], lengths[kept], types[kept]
        narrow = _narrow_dtype(max(int(offsets.max()), int(lengths.max())))
        grids = []
        for values, fill, dtype in (
            (offsets, 0, narrow), (lengths, 0, narrow), (types, TYPE_MISSING, np.int8)
        ):
            grid = np.full(size, fill, dtype=dtype)
            grid[cells] = values
            grids.append(grid.reshape(len(present), objects))
        for path, column_offsets, column_lengths, column_types in zip(
            present.tolist(), _narrow_rows(grids[0]), _narrow_rows(grids[1]), grids[2]
        ):
            self.pieces[path][block] = (column_offsets, column_lengths, column_types)

    def finish(self) -> JsonStructuralIndex:
        sizes = [len(starts) for starts in self.object_starts]
        columns = []
        for pieces in self.pieces:
            parts = [
                pieces.pop(block, None) or (
                    np.zeros(size, np.uint8), np.zeros(size, np.uint8),
                    np.full(size, TYPE_MISSING, np.int8),
                )
                for block, size in enumerate(sizes)
            ]
            columns.append(tuple(np.concatenate(part) for part in zip(*parts)))
        return JsonStructuralIndex(
            object_starts=np.concatenate(self.object_starts) if sizes else np.zeros(0, np.uint8),
            object_lengths=np.concatenate(self.object_lengths) if sizes else np.zeros(0, np.uint8),
            path_names=self.path_names,
            columns=columns,
            fixed_schema=self.fixed and sum(sizes) > 0,
        )


def _escaped_quotes(quote: np.ndarray, backslashes: np.ndarray) -> np.ndarray:
    """Positions of quotes preceded by an odd run of backslashes."""
    run_start = np.zeros(len(backslashes), dtype=np.int64)
    breaks = np.flatnonzero(np.diff(backslashes) != 1) + 1
    run_start[breaks] = breaks
    run_start = np.maximum.accumulate(run_start)
    after = backslashes + 1
    candidate = after < len(quote)
    candidate[candidate] = quote[after[candidate]]
    run_length = np.arange(len(backslashes)) - run_start + 1
    return after[candidate & (run_length % 2 == 1)]


def _valid_scalars(
    buf: np.ndarray, foreign: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Whether each scalar token ``buf[start:end]`` is ``true``, ``false``,
    ``null`` or holds none of the ``foreign`` (non-number) byte positions."""
    if not len(foreign):
        return np.ones(len(starts), dtype=bool)  # no literal either
    leading = buf[starts]
    valid = np.searchsorted(foreign, starts) == np.searchsorted(foreign, ends)
    for literal in _LITERALS:
        chosen = leading == literal[0]
        matches = ends[chosen] - starts[chosen] == len(literal)
        for offset, byte in enumerate(literal):
            matches &= buf[np.minimum(starts[chosen] + offset, len(buf) - 1)] == byte
        valid[chosen] = matches
    return valid


def build_json_index(data: bytes, max_depth: int = 8) -> JsonStructuralIndex:
    """Validate a JSON object stream and build its structural index.

    Mirrors the paper's first-access behaviour: the input is validated and
    the position of every field of every object (nested records up to
    ``max_depth`` levels) is recorded, one block of :data:`BLOCK_BYTES` at a
    time.  Malformed input raises :class:`~repro.errors.StorageError`.
    """
    builder = _JsonBuilder(max_depth)
    start, size, length = 0, BLOCK_BYTES, len(data)
    while start < length:
        end = _block_end(data, start, size)
        cut = builder.scan(data, start, end, at_end=end == length)
        if cut is None:  # an object longer than the window: widen it
            size *= 2
            continue
        start, size = cut, BLOCK_BYTES
    return builder.finish()
