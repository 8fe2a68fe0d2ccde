"""Join and grouping kernels, chosen per input from its key range.

The paper keeps the heavy join/grouping machinery outside the generated code
— "Proteus uses hash-based algorithms for the join and grouping operators
... wrapped in a C++ function" (§5.1) — and adapts it to the data it is
given.  The reproduction mirrors that split: the batch pipeline (and the
expression functions generated per query) call these library kernels, and
each kernel picks its layout from a fact it observes in its input, the
integer key range:

* **dense** — integer keys whose range is small next to the row count are
  addressed directly by ``key - lo``: a join build side's keys, a probe's
  lookups and a grouping's mixed-radix code of the ``key - lo`` digits need
  no hashing and no sort per probe batch or grouping,
* **sorted** — everything else (sparse or huge integer ranges, uint64,
  floats): the build side's sorted distinct keys, searched with
  ``searchsorted`` per probe batch, and ``np.unique`` factorization for
  grouping.  An object column, which may mix types, is factorized by one
  Python dict instead (:func:`_factorize`), and probe keys meet it through
  a dict of the build side's keys.

Keys follow the Volcano interpreter's rules: a missing key (code ``-1``,
NaN, ``None``) matches nothing and groups as one key, ``None``; keys of
different kinds (a string and a number) never match; equality between
Python objects is Python's (``1 == 1.0 == True``).

A join has one key space, :class:`KeySlots`: the build side's keys numbered
as *slots* once (κ-Join's shared key), and every other input's keys mapped
onto them by :func:`slots_of`.  A join that emits rows probes it
(:func:`probe`): where every build key occurs once the slot is the build row
and a probe is one gather; duplicate keys expand CSR runs.  An aggregate
over joins on one shared key reduces each input per slot instead and emits
no joined row.  The caching manager keeps the slots as a join build side
(§6: the side built for ``A ⋈ B`` serves ``A ⋈ C`` when the key is the
same).

Encoded columns are integers here too: a dictionary-encoded column
(:class:`~repro.core.columns.EncodedColumn` — every string field, and the
int and bool fields with missing values) groups and is addressed on its
codes, whose range is at most its dictionary.  The slots of string keys keep
their dictionary; each probe batch's codes are translated into it with one
``searchsorted`` per dictionary (numeric join keys arrive as their typed
values).  Comparisons, missing and truth masks, COUNT and the extrema read
the codes as well.

Both layouts produce the same answer in the same order: join matches come in
probe order, then build order within a key (the Volcano interpreter's
order), groups in ascending key order (an object key's values first-seen)
with every group accumulated in input order.  The module is exposed to the
generated code as ``radix``, after the mixed-radix group code.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.caching.manager import estimate_size
# Shared scalar operator tables: arithmetic carries NumPy-aligned
# zero-divisor semantics (plain operators would raise ZeroDivisionError on
# Python scalars where NumPy buffers yield inf/NaN), and sharing both maps
# keeps every tier's operator semantics in one place.
from repro.core.expressions import (
    ARITHMETIC_FUNCS as _ARITHMETIC_FUNCS,
    COMPARISON_FUNCS as _COMPARISON_FUNCS,
)
from repro.core.columns import (
    EncodedColumn,
    dictionary_nbytes,
    recode,
    same_dictionary,
)
from repro.core.types import is_missing
from repro.errors import ExecutionError

#: The kernels recorded in ``ExecutionProfile.join_kernels`` (one per hash
#: join) and ``group_kernel``: the two layouts, ``dense`` and ``sorted``, and
#: — joins only — ``factorized``, for every join of a chain whose aggregate
#: ran per join-key value over :class:`KeySlots`, without a probe or a
#: joined row (``core/executor/vectorized.py::FactorizedChain``).
KERNEL_DENSE = "dense"
KERNEL_SORTED = "sorted"
KERNEL_FACTORIZED = "factorized"

#: A join build side's keys are addressed directly when their integer range
#: spans at most this many addresses per build row — the one bound of the
#: join key space, probed or reduced per slot.  Measured on a two-core x86
#: host (60 k unique build keys, ten 60 k-key probe batches, build +
#: probes): the direct-address kernel takes 15-17 ms from 1 to 16 slots a
#: row and 35 ms at 64, the sorted one 87-102 ms throughout.  The bound keeps
#: the ~5x win and caps the address lookup (8 bytes an address) at 128 bytes
#: per build row; it admits the most selective ``mail_id`` build side of the
#: Symantec workload (800 rows over 8 000 ids).
DENSE_JOIN_SLOTS_PER_ROW = 16

#: A grouping runs on ``bincount`` when the product of its integer key
#: ranges is at most this many codes per input row.  Same host, 60 k rows
#: grouped and counted: 0.3-0.8 ms up to one code a row, 3.0 ms at 8, 6.2 at
#: 16 and 10.7 at 32, against 4.3-8.2 ms for ``np.unique`` — the bound keeps
#: the dense kernel ~2.5x ahead.
DENSE_GROUP_CODES_PER_ROW = 8


def dense_range(keys: np.ndarray, slots_per_row: int) -> tuple[int, int] | None:
    """``(lo, span)`` of an integer key column whose range is dense enough
    for direct addressing, else ``None``.  The bounds are Python ints, so
    neither the range nor the density test can overflow, and every
    ``key - lo`` of the column fits int64 (uint64 columns, whose keys may
    not, take the sorted kernels)."""
    if keys.dtype.kind not in "iub" or keys.dtype == np.uint64 or len(keys) == 0:
        return None
    lo, hi = int(keys.min()), int(keys.max())
    span = hi - lo + 1
    return (lo, span) if span <= slots_per_row * len(keys) else None


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeySlots:
    """The join-key values of one input — a join's build side — numbered as
    *slots*, so every other input's keys map onto them (:func:`slots_of`).

    A key's *address* is ``key - lo`` over a dense integer range
    (dictionary codes included), else its position among the distinct keys;
    ``lookup`` takes ``address + 1`` to the slot.  When every key occurs once
    the slot of a key *is* its build row, so a probe is one gather;
    otherwise the slots are the occupied addresses in key order, and
    ``order``/``offsets`` are the CSR runs a probe expands: the build rows
    stable-sorted by slot — sorted by the first probe, as a chain reduced
    per slot never reads them — and where each slot's run starts.  A row
    whose key is missing matches nothing, as in the Volcano interpreter: it
    keeps a slot that no address maps to (its own row when the keys are
    unique, else one more slot past the keys').  The caching manager keeps
    it (§6: the side built for ``A ⋈ B`` serves ``A ⋈ C`` when the join key
    is the same)."""

    #: The number of slots.
    size: int
    #: Per address, its slot, ``-1`` where no key of the input has it,
    #: between two more ``-1`` entries, the first and the last, onto which
    #: the keys outside the input's are clipped.  ``int32`` unless the
    #: slots need more.
    lookup: np.ndarray
    #: The dtype kind of the input's keys (probe keys are aligned to it).
    kind: str
    #: The input's row count.
    build_size: int
    #: Dense addresses: the smallest key (code, for encoded keys).
    lo: int = 0
    #: Sorted addresses: the distinct keys, ascending (first-seen for an
    #: object column, see :func:`_factorize`).
    distinct: np.ndarray | None = None
    #: Encoded string keys: the dictionary.
    values: np.ndarray | None = None
    #: Duplicate keys only (``None`` when every key occurs once): the slot
    #: of every row, and the start of each slot's run in :attr:`order` (one
    #: more entry: ``cumsum`` of the counts).
    slots: np.ndarray | None = None
    offsets: np.ndarray | None = None

    @property
    def kernel(self) -> str:
        """How keys are addressed: :data:`KERNEL_DENSE` or
        :data:`KERNEL_SORTED`."""
        return KERNEL_SORTED if self.distinct is not None else KERNEL_DENSE

    @property
    def unique(self) -> bool:
        """Does every key occur at most once — is the slot the build row?"""
        return self.slots is None

    @property
    def counts(self) -> np.ndarray:
        """The input's rows per slot, shifted by one as a factorized chain
        reduces its inputs (:func:`slots_of` with ``shifted``): entry 0, no
        slot, is 0."""
        counts = np.ones(self.size + 1, dtype=np.int64)
        counts[0] = 0
        if self.offsets is not None:
            np.subtract(self.offsets[1:], self.offsets[:-1], out=counts[1:])
        return counts

    @cached_property
    def order(self) -> np.ndarray | None:
        """Duplicate keys only: the rows stable-sorted by slot, built by the
        first probe that needs it and kept with the slots."""
        return None if self.slots is None else _sorted_rows(self.slots, self.size)

    @cached_property
    def index(self) -> dict:
        """Every key of the input as a Python value -> its ``lookup`` index,
        for probe keys compared by Python's equality (:func:`slots_of`)."""
        if self.distinct is not None:
            addresses = np.arange(len(self.distinct))
            keys = self.distinct
        else:
            addresses = np.flatnonzero(self.lookup[1:-1] >= 0)
            keys = addresses + self.lo
        if self.values is not None:
            keys = self.values[keys]
        return dict(zip(keys.tolist(), (addresses + 1).tolist()))

    @property
    def size_bytes(self) -> int:
        """The stored arrays, :attr:`order` counted whether or not a probe
        has sorted it yet."""
        size = sum(
            estimate_size(array)
            for array in (self.lookup, self.distinct, self.slots, self.offsets)
            if array is not None
        )
        if self.slots is not None:
            size += self.build_size * np.dtype(np.intp).itemsize
        if self.values is not None:
            size += dictionary_nbytes(self.values)
        return size


def _present(
    keys: np.ndarray | EncodedColumn,
) -> tuple[np.ndarray | EncodedColumn, np.ndarray | None]:
    """A build side's join keys as the kernels address them, and the rows
    that have one (``None``: every row) — a missing key matches nothing.
    An encoded column with a numeric or boolean dictionary becomes its typed
    values, bools become ints; encoded strings stay codes."""
    missing = missing_mask(keys)
    rows = None
    if missing is not None:
        rows = np.flatnonzero(~missing)
        keys = keys[rows]
    if isinstance(keys, EncodedColumn) and keys.values.dtype != object:
        keys = keys.values[keys.codes]
    if keys.dtype.kind == "b":
        keys = keys.astype(np.int64)
    return keys, rows


def key_slots(keys: np.ndarray | EncodedColumn) -> KeySlots:
    """The slots of one input's join keys.  Addresses are dense when the
    integer range (the code range, for encoded keys) spans at most
    :data:`DENSE_JOIN_SLOTS_PER_ROW` per row, sorted otherwise."""
    build_size = len(keys)
    keys, rows = _present(keys)
    kind, lo, distinct, values = keys.dtype.kind, 0, None, None
    if isinstance(keys, EncodedColumn):
        keys, values = keys.codes, keys.values
    dense = dense_range(keys, DENSE_JOIN_SLOTS_PER_ROW)
    if dense is not None:
        lo, span = dense
        addresses = keys.astype(np.int64, copy=False) - lo
    else:
        distinct, addresses = _factorize(keys)
        span = len(distinct)
    counts = np.bincount(addresses, minlength=span)
    lookup = np.full(span + 2, -1, dtype=np.int32 if build_size < 2**31 else np.int64)
    slot_of = lookup[1:-1]  # per address
    if counts.max(initial=0) <= 1:
        slot_of[addresses] = np.arange(build_size) if rows is None else rows
        return KeySlots(build_size, lookup, kind, build_size, lo, distinct, values)
    occupied = counts > 0
    size = int(np.count_nonzero(occupied))
    slot_of[occupied] = np.arange(size)
    runs = counts[occupied]
    slots = slot_of[addresses]
    if rows is not None:  # the rows without a key: one more slot, no key's
        slots, keyed = np.full(build_size, size, dtype=slots.dtype), slots
        slots[rows] = keyed
        runs = np.append(runs, build_size - len(rows))
        size += 1
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(runs, out=offsets[1:])
    return KeySlots(size, lookup, kind, build_size, lo, distinct, values, slots, offsets)


def _sorted_rows(slots: np.ndarray, size: int) -> np.ndarray:
    """The rows stable-sorted by their slot in ``[0, size)``.  NumPy's
    stable sort of 16-bit integers is a radix sort, 5-14x ahead of the
    merge sort it runs on wider ones (10 k-600 k rows), so the slots are
    sorted one 16-bit digit at a time, the low digit first.  Two digits
    number 2**32 slots: more than a materialized build side has rows."""
    order = np.argsort(slots.astype(np.uint16), kind="stable")  # the low digit
    if size > 2**16:
        order = order[np.argsort((slots[order] >> 16).astype(np.uint16), kind="stable")]
    return order


def slots_of(
    space: KeySlots, keys: np.ndarray | EncodedColumn, shifted: np.ndarray | None = None
) -> np.ndarray:
    """The slot of every key, ``-1`` where no key of the slots' input equals
    it: a missing key (the input's have no address, and NaN equals
    nothing), and a key of another kind (a string against numbers).
    Given ``shifted``, ``space.lookup`` plus one as intp, the slots come
    back shifted by one as intp, ``0`` for none.
    Encoded strings are translated into the input's dictionary; any other
    encoded column looks every dictionary entry up once and gathers the
    slots by its codes.  Numbers are aligned with the input's dtype, and an
    object column on either side, which may mix types, is looked up key by
    key in a dict of the input's keys: equality is then Python's, as in the
    Volcano interpreter's build dict."""
    lookup, none = (space.lookup, -1) if shifted is None else (shifted, 0)
    if isinstance(keys, EncodedColumn):
        if keys.values.dtype == object and space.values is not None:
            return lookup.take(_addresses(space, recode(keys, space.values)), mode="clip")
        # Code -1, a missing key, reads the ``none`` appended.
        return np.append(slots_of(space, keys.values, shifted), none)[keys.codes]
    if keys.dtype.kind == "b":
        keys = keys.astype(np.int64)
    if keys.dtype == object or (space.kind == "O" and space.values is None):
        index = space.index
        addresses = np.fromiter(
            (index.get(key, 0) for key in keys.tolist()), dtype=np.int64, count=len(keys)
        )
        return lookup.take(addresses, mode="clip")
    if space.values is not None:  # numbers never equal strings
        return np.full(len(keys), none, dtype=lookup.dtype)
    aligned, kept = _align(space.kind, keys)
    found = lookup.take(_addresses(space, aligned), mode="clip")
    if kept is None:
        return found
    slots = np.full(len(keys), none, dtype=lookup.dtype)
    slots[kept] = found
    return slots


def _align(kind: str, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Numeric probe keys aligned with numeric slots of dtype kind ``kind``
    without losing integer precision, and the keys kept (``None``: all):
    only those that can equal a key of that kind."""
    if keys.dtype.kind == kind or (keys.dtype.kind in "iu" and kind in "iu"):
        return keys, None
    if kind in "iu":
        # Only integral float keys inside the int64 range can equal integer
        # keys; a blanket int cast would truncate 3.5 onto 3 or wrap 1e19
        # onto INT64_MIN.
        kept = (
            np.isfinite(keys)
            & (keys == np.floor(keys))
            & (keys >= -(2.0**63))  # INT64_MIN itself is valid
            & (keys < 2.0**63)
        )
        if kept.all():
            return keys.astype(np.int64), None
        kept = np.flatnonzero(kept)
        return keys[kept].astype(np.int64), kept
    # Float slots: only integers exactly representable in float64 can equal
    # a float key; a blanket cast would round 2**53 + 1 onto 2**53.
    as_float = keys.astype(np.float64)
    safe = (as_float >= -(2.0**63)) & (as_float < 2.0**63)
    round_trip = np.zeros_like(keys)
    round_trip[safe] = as_float[safe].astype(keys.dtype)
    exact = safe & (round_trip == keys)
    if exact.all():
        return as_float, None
    kept = np.flatnonzero(exact)
    return as_float[kept], kept


def _addresses(space: KeySlots, keys: np.ndarray) -> np.ndarray:
    """Every key's index into ``space.lookup``: its address plus one, or an
    index that clips onto one of the two ``-1`` ends for a key the input
    lacks."""
    if space.distinct is None:
        # ``key - (lo - 1)`` modulo 2**64 is in ``[1, span]`` exactly for
        # the keys inside the range; read as int64, every other key is
        # below 1 or above the span.
        base = np.asarray((space.lo - 1) % 2**64, dtype=np.uint64).view(np.int64)
        if keys.dtype.kind in "iu" and keys.dtype != np.uint64:
            return keys.astype(np.int64, copy=False) - base
        # A uint64 key past int64 (or a big int in an object column) would
        # wrap the cast into the range: only keys inside it are cast.
        addresses = np.zeros(len(keys), dtype=np.int64)
        inside = (keys >= space.lo) & (keys < space.lo + len(space.lookup) - 2)
        addresses[inside] = keys[inside].astype(np.int64) - base
        return addresses
    addresses = np.zeros(len(keys), dtype=np.int64)
    distinct = space.distinct
    inside = None
    if keys.dtype.kind in "iu" and distinct.dtype.kind in "iu" and keys.dtype.kind != distinct.dtype.kind:
        # int64 against uint64 would be searched through float64, which
        # rounds neighbouring keys together: search the keys the input's
        # dtype holds, in that dtype.
        limits = np.iinfo(distinct.dtype)
        inside = np.flatnonzero((keys >= limits.min) & (keys <= limits.max))
        keys = keys[inside].astype(distinct.dtype)
    positions = np.searchsorted(distinct, keys)
    found = np.flatnonzero(positions < len(distinct))
    found = found[distinct[positions[found]] == keys[found]]
    addresses[found if inside is None else inside[found]] = positions[found] + 1
    return addresses


def probe(space: KeySlots, keys: np.ndarray | EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
    """Probe a build side with one batch of keys; returns aligned
    ``(build_positions, probe_positions)`` in probe order, build order within
    a key.  A unique build side is one gather (the slot is the build row);
    duplicate keys expand their slot's CSR run."""
    slots = slots_of(space, keys)
    hit = np.flatnonzero(slots >= 0)
    slots = slots[hit].astype(np.intp)  # gathers index fastest by intp
    if space.unique:
        return slots, hit
    starts = space.offsets[slots]
    counts = space.offsets[slots + 1] - starts
    total = int(counts.sum())
    if total == len(hit):  # one build row per matching key: no expansion
        return space.order[starts], hit
    first = np.cumsum(counts) - counts  # output offset of each probe's run
    build = space.order[np.repeat(starts - first, counts) + np.arange(total, dtype=np.int64)]
    return build, np.repeat(hit, counts)


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


@dataclass
class GroupingResult:
    """Output of the grouping kernel."""

    group_ids: np.ndarray
    num_groups: int
    #: One array per key: the key values of every group, ascending.
    key_arrays: list[np.ndarray]
    #: Which kernel grouped: :data:`KERNEL_DENSE` or :data:`KERNEL_SORTED`.
    kernel: str


def radix_group(key_arrays: list[np.ndarray]) -> GroupingResult:
    """Assign each input row to a group identified by its key combination:
    the codes of :func:`group_codes`, renumbered by occupied code, so the
    groups come in the codes' order, ascending (lexicographic) key order (an
    object key's values first-seen).  Missing keys are one group, as in the
    Volcano interpreter: code ``-1`` of an encoded key (which groups on its
    codes and comes back encoded), NaN, ``None``."""
    codes, span, keys_of, kernel = group_codes(key_arrays)
    if kernel == KERNEL_SORTED:  # factorized: every code is occupied
        return GroupingResult(codes, span, keys_of(np.arange(span)), kernel)
    occupied = np.bincount(codes, minlength=span) > 0
    present = np.flatnonzero(occupied)
    # Occupied codes, ascending, are the group ids: one cumulative count.
    return GroupingResult((np.cumsum(occupied) - 1)[codes], len(present), keys_of(present), kernel)


def group_codes(
    key_arrays: list[np.ndarray],
) -> tuple[np.ndarray, int, Callable[[np.ndarray], list[np.ndarray]], str]:
    """Number every row's key combination: ``(every row's code in [0, span),
    span, the key values of given codes, the kernel)``, the codes in
    ascending (lexicographic) key order.

    * :data:`KERNEL_DENSE` when every key is integer and the code space is
      at most :data:`DENSE_GROUP_CODES_PER_ROW` codes a row: the mixed-radix
      code of the ``key - lo`` digits, one pass a digit, where a code need
      not be occupied.  An encoded key's digit spans its dictionary (``-1``,
      missing, up to its last code) without a scan of its codes; only when
      that space is too wide are the codes' own ranges taken,
    * :data:`KERNEL_SORTED` otherwise: the key combinations factorized, every
      code occupied (an object key's values first-seen, see
      :func:`_factorize`).

    An encoded key groups on its codes and its values come back encoded."""
    if not key_arrays:
        raise ExecutionError("grouping requires at least one key")
    length = len(key_arrays[0])
    columns: list[np.ndarray] = []  # an encoded key's codes
    dictionaries: list[np.ndarray | None] = []
    for keys in key_arrays:
        if len(keys) != length:
            raise ExecutionError("group key arrays must have equal length")
        encoded = isinstance(keys, EncodedColumn)
        columns.append(keys.codes if encoded else np.asarray(keys))
        dictionaries.append(keys.values if encoded else None)
    ranges = _dense_ranges(columns, dictionaries, length)
    if ranges is None:
        codes, first = _factorized_codes(columns, length)
        span, kernel = len(first), KERNEL_SORTED

        def digits(at: np.ndarray) -> list[np.ndarray]:
            return [column[first[at]] for column in columns]

    else:
        spans = [width for _, width in ranges]
        codes = np.subtract(columns[0], ranges[0][0], dtype=np.intp)
        for column, (lo, width) in zip(columns[1:], ranges[1:]):
            codes *= width
            codes += np.subtract(column, lo, dtype=np.intp)
        span, kernel = math.prod(spans), KERNEL_DENSE

        def digits(at: np.ndarray) -> list[np.ndarray]:
            return [
                (digit + lo).astype(column.dtype)
                for column, digit, (lo, _) in zip(columns, np.unravel_index(at, spans), ranges)
            ]

    def keys_of(at: np.ndarray) -> list[np.ndarray]:
        return [
            keys if values is None else EncodedColumn(keys, values)
            for keys, values in zip(digits(at), dictionaries)
        ]

    return codes, span, keys_of, kernel


def _dense_ranges(
    key_arrays: list[np.ndarray], dictionaries: list[np.ndarray | None], length: int
) -> list[tuple[int, int]] | None:
    """``(lo, span)`` of every key's digit when the dense kernel numbers
    them, else ``None``.  An encoded key's digit spans its dictionary first,
    and its codes' own range when the code space is too wide that way."""
    encoded = any(values is not None for values in dictionaries)
    for dictionary_spans in (True, False) if encoded else (False,):
        ranges: list[tuple[int, int]] = []
        capacity = 1
        for keys, values in zip(key_arrays, dictionaries):
            if dictionary_spans and values is not None:
                dense: tuple[int, int] | None = (-1, len(values) + 1)
            else:
                dense = dense_range(keys, DENSE_GROUP_CODES_PER_ROW)
            if dense is None:
                return None
            capacity *= dense[1]
            if capacity > DENSE_GROUP_CODES_PER_ROW * length:
                break
            ranges.append(dense)
        else:
            return ranges
    return None


def _factorize(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct keys, every key's position among them)``: ascending by
    ``np.unique`` (its NaNs one key), but an object column — which may mix
    types — by one Python dict in first-seen order, so equality is Python's
    (``1 == 1.0 == True``) as in the Volcano interpreter's dicts, and its
    missing values (``None``, NaN) are one key, ``None``."""
    if keys.dtype != object:
        return np.unique(keys, return_inverse=True)
    positions: dict = {}
    inverse = np.fromiter(
        (
            positions.setdefault(None if is_missing(key) else key, len(positions))
            for key in keys.tolist()
        ),
        dtype=np.int64,
        count=len(keys),
    )
    return np.fromiter(positions, dtype=object, count=len(positions)), inverse


def _factorized_codes(key_arrays: list[np.ndarray], length: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted kernel's numbering: a mixed-radix code of every key's
    position among its distinct values, numbered by ``np.unique`` —
    ``(every row's code, the first row of each code)``."""
    combined = np.zeros(length, dtype=np.int64)
    capacity = 1  # exact Python int: the mixed-radix code space
    for keys in key_arrays:
        distinct, inverse = _factorize(keys)
        width = max(len(distinct), 1)
        if capacity * width >= 2**63:
            # The code would wrap int64: number the combinations so far
            # first, in order, so the code stays below the row count.
            seen, combined = np.unique(combined, return_inverse=True)
            capacity = len(seen)
        combined = combined * width + inverse
        capacity *= width
    _, first, codes = np.unique(combined, return_index=True, return_inverse=True)
    return codes.astype(np.int64), first


def missing_mask(values: np.ndarray | EncodedColumn) -> np.ndarray | None:
    """Mask of missing entries in a column buffer (NaN in float buffers,
    code ``-1`` in encoded columns, ``None`` in object buffers), or ``None``
    when nothing is missing.  This is the single definition of "missing"
    shared by the aggregate kernels and the vectorized executor."""
    if isinstance(values, EncodedColumn):
        mask = values.codes < 0
        return mask if mask.any() else None
    if values.dtype == object:
        mask = np.fromiter(
            (is_missing(v) for v in values), dtype=bool, count=len(values)
        )
        return mask if mask.any() else None
    if values.dtype.kind == "f":
        mask = np.isnan(values)
        return mask if mask.any() else None
    return None


def _drop_missing(
    values: np.ndarray | EncodedColumn, present: bool = False
) -> tuple[np.ndarray | EncodedColumn, np.ndarray | None]:
    """Strip missing inputs before reducing, matching the tuple-at-a-time
    accumulators which skip nulls: the one place that decides what an
    aggregate skips.  Returns (kept values, keep mask or ``None`` when
    nothing was dropped).  An encoded column with a numeric or boolean
    dictionary comes back as its typed values (SUM and AVG then run on
    ``int64``); a string one stays encoded.  ``present`` is the static
    analyzer's proof that a typed buffer has no missing value: its scan is
    skipped."""
    if present and not isinstance(values, EncodedColumn):
        return values, None
    mask = missing_mask(values)
    keep = None if mask is None else ~mask
    if isinstance(values, EncodedColumn):
        codes = values.codes if keep is None else values.codes[keep]
        if values.values.dtype != object:
            return values.values[codes], keep
        return EncodedColumn(codes, values.values), keep
    return (values, None) if keep is None else (values[keep], keep)


def bool_mask(values) -> np.ndarray:
    """Coerce a predicate result to a boolean mask.  Missing inputs are
    false, matching ``bool(None)`` in the tuple-at-a-time interpreter.  Used
    by the generated expression functions and the pipeline's stages
    alike."""
    if isinstance(values, EncodedColumn):
        # One truth value per dictionary entry; code -1 reads the False.
        return np.append(values.values.astype(bool), False)[values.codes]
    array = np.asarray(values)
    if array.ndim == 0:
        value = array.item()
        return np.asarray(False if is_missing(value) else bool(value))
    if array.dtype == object:
        return np.fromiter(
            (False if is_missing(v) else bool(v) for v in array),
            dtype=bool,
            count=len(array),
        )
    if array.dtype.kind == "f":
        return array.astype(bool) & ~np.isnan(array)
    return array.astype(bool, copy=False)


def _operand(value) -> np.ndarray:
    """An operand as an array; a string scalar stays an object (a NumPy
    ``U`` scalar would drop its trailing NULs)."""
    return np.asarray(value, dtype=object if isinstance(value, str) else None)


def null_safe_arith(op: str, left, right):
    """Vectorized arithmetic where a missing (``None``) operand yields
    ``None``, matching the tuple-at-a-time interpreter.  Numeric buffers take
    the plain NumPy operator (NaN already propagates there); object buffers —
    which is where ``None`` can appear, e.g. all-missing group extrema — go
    elementwise.  Integer operations that could wrap int64 take the exact
    Python-int path instead (silent wraparound would diverge from the
    tuple-at-a-time interpreter's arbitrary-precision ints)."""
    combine = _ARITHMETIC_FUNCS[op]
    left_arr = _operand(left)
    right_arr = _operand(right)
    if left_arr.dtype == object or right_arr.dtype == object:
        elementwise = np.frompyfunc(
            lambda a, b: None if a is None or b is None else combine(a, b), 2, 1
        )
        return elementwise(left_arr, right_arr)
    if (
        op in ("+", "-", "*")
        and left_arr.dtype.kind in "iu"
        and right_arr.dtype.kind in "iu"
        and _int_overflow_possible(op, left_arr, right_arr)
    ):
        elementwise = np.frompyfunc(lambda a, b: combine(int(a), int(b)), 2, 1)
        return elementwise(left_arr, right_arr)
    # A zero divisor yields ±inf / NaN silently, as the scalar operators do.
    with np.errstate(divide="ignore", invalid="ignore"):
        return combine(left, right)


def int_bound(array: np.ndarray) -> int:
    """Largest absolute value of an integer buffer, computed exactly."""
    if array.size == 0:
        return 0
    return max(abs(int(array.min())), abs(int(array.max())))


def _int_sum_may_overflow(values: np.ndarray) -> bool:
    """Conservative check: could summing this integer buffer wrap int64?"""
    return int_bound(values) * max(len(values), 1) >= 2**63


def _int_overflow_possible(op: str, left: np.ndarray, right: np.ndarray) -> bool:
    left_bound = int_bound(left)
    right_bound = int_bound(right)
    if op == "*":
        return left_bound * right_bound >= 2**63
    return left_bound + right_bound >= 2**63


def null_safe_neg(value):
    """Vectorized unary minus: ``None`` stays ``None`` and bool buffers
    negate through int (``-True == -1``), as in the tuple-at-a-time
    interpreter."""
    array = np.asarray(value)
    if array.dtype == object:
        return np.frompyfunc(lambda v: None if v is None else -v, 1, 1)(array)
    if array.dtype.kind == "b":
        return -(array.astype(np.int64))
    return -array


def null_safe_compare(op: str, left, right) -> np.ndarray:
    """Vectorized comparison where any missing operand yields false, as in
    the tuple-at-a-time interpreter.  Object buffers (which can hold ``None``,
    e.g. all-missing aggregate results) go elementwise; numeric buffers take
    the plain NumPy operator, where NaN already compares false for every
    operator but ``!=`` (masked explicitly).  Encoded columns compare on
    their codes (:func:`_compare_codes`)."""
    if isinstance(right, EncodedColumn) and not isinstance(left, EncodedColumn):
        left, right, op = right, left, _MIRRORED[op]
    if isinstance(left, EncodedColumn):
        result = _compare_codes(op, left, right)
        if result is not None:
            return result
    compare = _COMPARISON_FUNCS[op]
    left_arr = _operand(left)
    right_arr = _operand(right)
    if left_arr.dtype == object or right_arr.dtype == object:
        missing = is_missing
        elementwise = np.frompyfunc(
            lambda a, b: False if missing(a) or missing(b) else compare(a, b), 2, 1
        )
        # frompyfunc returns a bare scalar for 0-d inputs; normalize.
        return np.asarray(elementwise(left_arr, right_arr), dtype=bool)
    result = np.asarray(compare(left_arr, right_arr), dtype=bool)
    if op == "!=":
        for side in (left_arr, right_arr):
            if side.dtype.kind == "f":
                result = result & ~np.isnan(side)
    return result


#: The operator comparing ``b`` with ``a`` as ``op`` compares ``a`` with ``b``.
_MIRRORED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


#: The scalar types an encoded column compares on its codes, by the kind of
#: its dictionary (a bool dictionary takes only bools: ``True == 1`` but
#: ``True != 2``).
_CODE_SCALARS = {
    "O": (str,),
    "b": (bool, np.bool_),
    "i": (int, float, np.number, np.bool_),
}


def _compare_codes(op: str, left: EncodedColumn, right) -> np.ndarray | None:
    """``left op right`` on the codes: against a scalar of the dictionary's
    kind, one ``searchsorted`` in the sorted dictionary and an integer
    compare; against a column with the same dictionary, a compare of the
    codes.  ``None`` for anything else (the caller decodes)."""
    codes = left.codes
    if isinstance(right, EncodedColumn):
        if not same_dictionary(left.values, right.values):
            return None
        present = (codes >= 0) & (right.codes >= 0)
        return present & _COMPARISON_FUNCS[op](codes, right.codes)
    if isinstance(right, np.ndarray):
        if right.ndim:
            return None
        right = right.item()
    if is_missing(right):
        return np.zeros(len(codes), dtype=bool)
    if not isinstance(right, _CODE_SCALARS.get(left.values.dtype.kind, ())):
        return None
    # Codes below the left insertion point of ``right`` are the values
    # below it, codes below the right one the values up to it; the
    # missing code -1 is below both.
    below = codes < np.searchsorted(left.values, right, side="left")
    upto = codes < np.searchsorted(left.values, right, side="right")
    if op == "<":
        return below & (codes >= 0)
    if op == "<=":
        return upto & (codes >= 0)
    if op == ">":
        return ~upto
    if op == ">=":
        return ~below
    equal = upto & ~below
    return equal if op == "=" else ~equal & (codes >= 0)


def finish_avg(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-group averages from per-group sums and non-missing input counts;
    a group without input averages to NaN.  Shared by the grouping kernel
    and the merge of per-morsel (sum, count) partials."""
    counts = np.asarray(counts)
    if sums.dtype == object or (sums.dtype.kind in "iu" and int_bound(sums) > 2**53):
        # Python's int / int is correctly rounded; NumPy's rounds an integer
        # sum above 2**53 to float64 before dividing.
        return np.asarray([
            total / count if count else float("nan")
            for total, count in zip(sums.tolist(), counts.tolist())
        ])
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def group_aggregate(
    func: str,
    group_ids: np.ndarray | int,
    num_groups: int,
    values: np.ndarray | None = None,
    present: bool = False,
) -> np.ndarray:
    """Compute one aggregate per group (missing inputs are skipped).

    ``group_ids`` is the group of every row — or, for the single group of a
    global aggregate, just its row count: one group is a whole-array
    reduction and needs no ids.  ``present`` is the static analyzer's proof
    that ``values`` has no missing entry (see :func:`_drop_missing`)."""
    if np.ndim(group_ids) == 0:
        return _single_group_aggregate(func, int(group_ids), values, present)
    if func == "count" and values is None:
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)
    if values is None:
        raise ExecutionError(f"aggregate {func!r} requires input values")
    if func in ("max", "min"):
        extrema, counts = group_extremum(func, group_ids, num_groups, values, present)
        # Groups with no non-missing input have no extremum (the
        # tuple-at-a-time accumulators report None for them).
        return box_empty(extrema, counts == 0)
    if isinstance(values, EncodedColumn) and func == "count":
        return np.bincount(group_ids[values.codes >= 0], minlength=num_groups).astype(np.int64)
    values, keep = _drop_missing(values, present)
    if keep is not None:
        group_ids = group_ids[keep]
    # A string column decodes here: SUM and AVG of strings fail as in Volcano.
    values = np.asarray(values)
    if func == "count":
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)
    if func in ("sum", "avg"):
        if values.dtype == object or (
            values.dtype.kind in "iu" and _int_sum_may_overflow(values)
        ):
            # Exact Python-int accumulation: big-int object buffers, and
            # integer buffers whose total could wrap int64.
            totals = [0] * num_groups
            for group_id, value in zip(group_ids.tolist(), values.tolist()):
                totals[group_id] += value
            sums = np.empty(num_groups, dtype=object)
            sums[:] = totals
        elif values.dtype.kind in "iub":
            # Integer sums stay integers (float64 weights would round above
            # 2**53), matching the tuple-at-a-time accumulators.
            sums = np.zeros(num_groups, dtype=np.int64)
            np.add.at(sums, group_ids, values)
        else:
            sums = np.bincount(group_ids, weights=values.astype(np.float64),
                               minlength=num_groups)
        if func == "sum":
            return sums
        return finish_avg(sums, np.bincount(group_ids, minlength=num_groups))
    if func == "and":
        out = np.ones(num_groups, dtype=bool)
        np.logical_and.at(out, group_ids, values.astype(bool))
        return out
    if func == "or":
        out = np.zeros(num_groups, dtype=bool)
        np.logical_or.at(out, group_ids, values.astype(bool))
        return out
    raise ExecutionError(f"unknown aggregate {func!r}")


def _single_group_aggregate(
    func: str, rows: int, values: np.ndarray | EncodedColumn | None, present: bool
) -> np.ndarray | EncodedColumn:
    """:func:`group_aggregate` over one group of ``rows`` rows, by whole-array
    reductions into a one-row column.  Over no input COUNT and SUM are the
    integer ``0`` (Volcano's accumulators start there), AND is true, OR
    false and MIN/MAX missing."""
    if func == "count" and values is None:
        return np.asarray([rows], dtype=np.int64)
    if values is None:
        raise ExecutionError(f"aggregate {func!r} requires input values")
    if isinstance(values, EncodedColumn) and func in ("count", "min", "max"):
        codes = values.codes[values.codes >= 0]
        if func == "count":
            return np.asarray([len(codes)], dtype=np.int64)
        extreme = -1 if len(codes) == 0 else codes.max() if func == "max" else codes.min()
        return EncodedColumn(np.asarray([extreme], dtype=np.int32), values.values)
    values = np.asarray(_drop_missing(values, present)[0])
    if func == "count":
        return np.asarray([len(values)], dtype=np.int64)
    if func in ("sum", "avg"):
        if len(values) == 0:
            sums = np.zeros(1, dtype=np.int64)
        elif values.dtype == object or (
            values.dtype.kind in "iu" and _int_sum_may_overflow(values)
        ):
            sums = np.empty(1, dtype=object)
            sums[0] = sum(values.tolist())  # exact Python ints
        elif values.dtype.kind in "iub":
            sums = np.asarray([np.sum(values, dtype=np.int64)])
        else:
            sums = np.asarray([np.sum(values, dtype=np.float64)])
        if func == "sum":
            return sums
        return finish_avg(sums, np.asarray([len(values)]))
    if func in ("max", "min"):
        if len(values) == 0:
            return np.full(1, None, dtype=object)
        if values.dtype == object:
            # The first of equal extrema, as Volcano's running max/min keeps.
            extreme = np.empty(1, dtype=object)
            extreme[0] = (max if func == "max" else min)(values.tolist())
            return extreme
        return np.asarray([values.max() if func == "max" else values.min()])
    if func == "and":
        return np.asarray([values.astype(bool).all()])
    if func == "or":
        return np.asarray([values.astype(bool).any()])
    raise ExecutionError(f"unknown aggregate {func!r}")


def group_extremum(
    func: str,
    group_ids: np.ndarray,
    num_groups: int,
    values: np.ndarray | EncodedColumn,
    present: bool = False,
) -> tuple[np.ndarray | EncodedColumn, np.ndarray]:
    """MIN or MAX per group, missing inputs skipped, and the number of
    non-missing inputs per group.  The extrema keep the column's form: an
    encoded column's are codes (the dictionary is sorted, so the extreme
    code is the extreme value), a typed column's are in its own dtype.  A
    group without input reads code -1 in an encoded column, ``None`` in an
    object one and the reduction's identity in a typed one — the counts
    say which groups have an extremum (:func:`box_empty` marks the others
    missing)."""
    if isinstance(values, EncodedColumn):
        present_rows = values.codes >= 0
        group_ids, codes = group_ids[present_rows], values.codes[present_rows]
        none = len(values.values)  # above every code: MIN's "no input yet"
        out = np.full(num_groups, -1 if func == "max" else none, dtype=np.int32)
        (np.maximum if func == "max" else np.minimum).at(out, group_ids, codes)
        out[out == none] = -1
        return EncodedColumn(out, values.values), np.bincount(group_ids, minlength=num_groups)
    values, keep = _drop_missing(values, present)
    if keep is not None:
        group_ids = group_ids[keep]
    values = np.asarray(values)
    counts = np.bincount(group_ids, minlength=num_groups)
    if values.dtype == object:
        pick = max if func == "max" else min
        boxed = np.full(num_groups, None, dtype=object)
        for group_id, value in zip(group_ids.tolist(), values.tolist()):
            current = boxed[group_id]
            boxed[group_id] = value if current is None else pick(current, value)
        return boxed, counts
    reducer = np.maximum if func == "max" else np.minimum
    if values.dtype.kind in "iu":
        # Accumulate in the native integer dtype: routing int64 extrema
        # through float64 would round values above 2**53.
        info = np.iinfo(values.dtype)
        out = np.full(num_groups, info.min if func == "max" else info.max, dtype=values.dtype)
    elif values.dtype.kind == "b":
        out = np.full(num_groups, func == "min", dtype=np.bool_)
    else:
        out = np.full(num_groups, -np.inf if func == "max" else np.inf, dtype=np.float64)
        values = values.astype(np.float64, copy=False)
    reducer.at(out, group_ids, values)
    return out, counts


def box_empty(
    column: np.ndarray | EncodedColumn, empty: np.ndarray
) -> np.ndarray | EncodedColumn:
    """``column`` with the entries under the mask ``empty`` missing: code -1
    in an encoded column, ``None`` otherwise — a typed column boxes to
    objects then, as the extrema of groups without input always have."""
    if not empty.any():
        return column
    if isinstance(column, EncodedColumn):
        return EncodedColumn(np.where(empty, -1, column.codes).astype(np.int32), column.values)
    boxed = column.astype(object)
    boxed[empty] = None
    return boxed
