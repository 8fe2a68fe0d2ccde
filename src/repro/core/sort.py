"""Columnar sort subsystem: ORDER BY / LIMIT as specialized kernels.

The paper's thesis is that specializing the execution path to the query and
data shape beats a generic interpreter.  ORDER BY used to be the one stage
where every tier ran the generic path: the engine boxed each buffer into
Python objects and ran ``list.sort`` with per-element lambda keys.  This
module replaces that epilogue with dtype-specialized kernels, chosen per key
column at execution time:

* **lexsort** — one stable :func:`numpy.lexsort` permutation over
  *key-transform* arrays.  Each key column is encoded into at most two NumPy
  arrays whose ascending order equals the requested column order: descending
  integers are bit-inverted (``~x``, overflow-free), descending floats are
  negated, dictionary-encoded columns sort on their (negated) codes, other
  descending strings are mapped to negated factorization codes, and
  missing values (``None``/NaN/code -1) get a dedicated boolean subkey so
  they sort NULLS LAST in *both* directions.  No Python object is ever boxed.
* **topk** — when a LIMIT accompanies ORDER BY, :func:`numpy.partition`
  selects the candidate rows whose primary key can reach the top K, and only
  those are lexsorted.
* **object-fallback** — object columns holding values the encoders cannot
  represent exactly (mixed types, huge Python ints, records) keep the old
  comparator semantics, with uncomparable mixed types surfaced as a clear
  :class:`~repro.errors.ExecutionError` instead of a raw ``TypeError``.

:func:`sort_columns` is the one place a ``PhysSort`` is applied: the
engine's columnar epilogue calls it once per query, on every tier.  The
batch pipeline only bounds what it hands over: under ORDER BY + LIMIT K each
scan range streams through a :class:`TopKAccumulator`, so a 1M-row
``ORDER BY x LIMIT 10`` never materializes more than a few thousand
candidate rows per range.

All strategies implement identical ordering semantics: stable (ties keep the
input order), NULLS LAST in both directions, and multi-key ascending /
descending mixes.  :data:`ExecutionProfile.sort_strategy` records which one
served a query.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core import types as t
from repro.core.expressions import Expression, parameter_env
from repro.core.columns import EncodedColumn, concat_encoded
from repro.errors import ExecutionError, ProteusError

#: One ORDER BY key: (output column name, ascending?).
SortKey = tuple[str, bool]

STRATEGY_LEXSORT = "lexsort"
STRATEGY_TOPK = "topk"
STRATEGY_FALLBACK = "object-fallback"

#: Integers beyond ±2**53 are not exactly representable as float64; object
#: columns holding them cannot be float-encoded without reordering risk.
_FLOAT_EXACT_INT = 2**53


# ---------------------------------------------------------------------------
# LIMIT validation (shared by the literal and the parameter path)
# ---------------------------------------------------------------------------


def validate_order_columns(
    names: Sequence[str],
    available: "Mapping[str, Any] | Sequence[str]",
    order_by: Sequence[SortKey],
) -> None:
    """Every ORDER BY key must name an output column (shared by the planner,
    which checks at plan time, and :func:`sort_columns` for direct callers)."""
    for column, _ in order_by:
        if column not in available:
            raise ExecutionError(
                f"ORDER BY column {column!r} is not part of the result "
                f"projection; output columns: {list(names)}"
            )


def validate_limit(value: int, display: str = "LIMIT") -> int:
    """Validate an already-integer LIMIT value; negative limits are rejected
    identically whether they were written literally or bound to a parameter."""
    if value < 0:
        raise ProteusError(f"{display} must not be negative, got {value}")
    return value


def resolve_limit(
    limit: "int | Expression | None",
    params: Mapping[int | str, object] | None = None,
) -> int | None:
    """Resolve a LIMIT clause to a validated non-negative int (or ``None``).

    ``limit`` is either a literal int or a ``Parameter`` expression bound at
    execution time; both paths run through :func:`validate_limit`, so a
    negative ``LIMIT -3`` and a negative ``LIMIT ?`` binding fail with the
    same error.
    """
    if limit is None:
        return None
    if isinstance(limit, Expression):
        value = limit.evaluate(parameter_env(params))
        display = f"LIMIT parameter {limit.display}"
        if isinstance(value, np.integer):
            value = int(value)
        elif isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProteusError(
                f"{display} must be an integer, got {value!r}"
            )
        return validate_limit(value, display)
    return validate_limit(int(limit))


# ---------------------------------------------------------------------------
# Key-transform encoding
# ---------------------------------------------------------------------------


def _encode_key(
    buffer: Any, ascending: bool, assume_present: bool = False
) -> list[np.ndarray] | None:
    """Encode one key column into lexsort subkeys, or ``None`` when only the
    object-fallback comparator can order it.

    Returns the subkeys **most significant first**: the optional missing-mask
    (``False`` = present, so missing rows sort last in both directions)
    followed by the value transform whose ascending order is the requested
    column order.

    ``assume_present`` is the static analyzer's non-nullable hint: the
    missing-value scans (``np.isnan`` over floats, the per-element probe over
    object columns) are skipped entirely.  The hint is safe even when wrong
    for float columns — NaN compares last under NumPy sorts natively, and
    negation keeps NaN as NaN, so NULLS LAST semantics are preserved in both
    directions; a spurious hint only costs the dedicated subkey.
    """
    if isinstance(buffer, EncodedColumn):
        # The codes are the sort key: the dictionary is ascending.
        codes = buffer.codes
        key = codes if ascending else -codes
        missing = codes < 0
        return [missing, np.where(missing, 0, key)] if missing.any() else [key]
    values = buffer if isinstance(buffer, np.ndarray) else np.asarray(buffer, dtype=object)
    kind = values.dtype.kind
    if kind in "iu":
        return [values if ascending else ~values]
    if kind == "b":
        return [values if ascending else ~values]
    if kind == "f":
        if assume_present:
            return [values if ascending else -values]
        missing = np.isnan(values)
        key = values if ascending else -values
        if missing.any():
            return [missing, np.where(missing, 0.0, key)]
        return [key]
    if kind == "O":
        return _encode_object_key(values, ascending, assume_present)
    return None


def _encode_object_key(
    values: np.ndarray, ascending: bool, assume_present: bool = False
) -> list[np.ndarray] | None:
    """Encode an object column when its present values are uniformly strings
    or exactly-representable numbers; otherwise defer to the comparator.

    ``assume_present`` removes every per-element piece of mask handling: the
    missing scan, the mask side of the type probe, and the conditional
    blank-for-missing materialization.  The type-uniformity probe itself
    still runs regardless — a mixed-type column must keep raising its clear
    error through the fallback comparator, hint or no hint (and a value the
    hint wrongly promised present fails that probe, so a stale hint falls
    back to the comparator instead of mis-sorting).
    """
    items = values.tolist()
    if assume_present:
        missing = None
    else:
        missing = np.fromiter(
            (t.is_missing(v) for v in items), dtype=bool, count=len(items)
        )
    all_str = True
    all_num = True
    probed = items if missing is None else (
        value for value, absent in zip(items, missing) if not absent
    )
    for value in probed:
        if isinstance(value, str):
            all_num = False
            if not all_str:
                return None
        elif isinstance(value, (bool, int, float, np.integer, np.floating, np.bool_)):
            all_str = False
            if not all_num:
                return None
            if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                if value > _FLOAT_EXACT_INT or value < -_FLOAT_EXACT_INT:
                    return None  # float64 would collapse distinct keys
        else:
            return None
    if all_num and not all_str:
        if missing is None:
            key = np.fromiter(
                (float(value) for value in items), dtype=np.float64, count=len(items)
            )
        else:
            key = np.fromiter(
                (
                    0.0 if absent else float(value)
                    for value, absent in zip(items, missing)
                ),
                dtype=np.float64,
                count=len(items),
            )
        if not ascending:
            key = -key
        return [key] if missing is None or not missing.any() else [missing, key]
    # Uniform strings (or an all-missing column, encoded as empty strings
    # under a missing mask that dominates them).
    if missing is not None:
        items = ["" if absent else value for value, absent in zip(items, missing)]
    if "\x00" in "".join(items):
        return None  # fixed-width ``U`` keys would drop trailing NULs
    strings = np.array(items)
    if strings.dtype.kind not in "US":  # zero rows degenerate to float64
        strings = strings.astype(str)
    if ascending:
        key = strings
    else:
        _, codes = np.unique(strings, return_inverse=True)
        key = -codes.astype(np.int64)
    return [key] if missing is None or not missing.any() else [missing, key]


def _lexsort_keys(
    data: Mapping[str, Any],
    order_by: Sequence[SortKey],
    non_null: frozenset[str] = frozenset(),
) -> tuple[list[np.ndarray], list[np.ndarray]] | None:
    """All lexsort subkeys for an ORDER BY, in :func:`numpy.lexsort` order
    (least significant first, primary key last), plus the primary column's
    own subkeys (most significant first — the top-K kernel partitions on
    them); ``None`` when any key column requires the object fallback.
    ``non_null`` names key columns proven non-nullable by the static
    analyzer — their missing-value scans are skipped."""
    keys: list[np.ndarray] = []
    primary: list[np.ndarray] = []
    for column, ascending in reversed(order_by):
        encoded = _encode_key(data[column], ascending, column in non_null)
        if encoded is None:
            return None
        keys.extend(reversed(encoded))  # least significant subkey first
        primary = encoded
    return keys, primary


# ---------------------------------------------------------------------------
# Permutation kernels
# ---------------------------------------------------------------------------


def _topk_permutation(
    keys: list[np.ndarray], primary: list[np.ndarray], k: int, length: int
) -> np.ndarray:
    """Indices of the first ``k`` rows of the stable lexsort order, computed
    without sorting every row: ``np.partition`` on the primary key bounds the
    candidate set, and only candidates are lexsorted."""
    if k >= length:
        return np.lexsort(tuple(keys))
    if len(primary) == 2:
        # The primary column carries a missing-mask subkey (the more
        # significant one); candidates are selected among present rows first.
        missing, primary_values = primary
    else:
        missing, primary_values = None, primary[0]
    if missing is not None and missing.any():
        present = np.nonzero(~missing)[0]
        if len(present) < k:
            # Not enough present rows: every present row qualifies and the
            # remainder comes from the missing tail — sort everything.
            return np.lexsort(tuple(keys))[:k]
        present_values = primary_values[present]
        bound = np.partition(present_values, k - 1)[k - 1]
        candidates = present[present_values <= bound]
    else:
        bound = np.partition(primary_values, k - 1)[k - 1]
        candidates = np.nonzero(primary_values <= bound)[0]
    order = np.lexsort(tuple(key[candidates] for key in keys))
    return candidates[order][:k]


class _FallbackKey:
    """Comparator wrapper of the object-fallback strategy.

    Implements descending order by inverting ``<`` and converts the
    ``TypeError`` Python raises for uncomparable mixed types into a clear
    :class:`ExecutionError` naming the column and both offending types.
    """

    __slots__ = ("column", "value", "descending")

    def __init__(self, column: str, value: Any, descending: bool):
        self.column = column
        self.value = value
        self.descending = descending

    def _compare(self, left: Any, right: Any) -> bool:
        try:
            return left < right
        except TypeError:
            first, second = sorted((type(left).__name__, type(right).__name__))
            raise ExecutionError(
                f"ORDER BY column {self.column!r} mixes uncomparable value "
                f"types {first} and {second}; give the column a uniform type "
                "or cast it in the projection"
            ) from None

    def __eq__(self, other: "_FallbackKey") -> bool:
        try:
            return bool(self.value == other.value)
        except TypeError:  # pragma: no cover - defensive (== rarely raises)
            return False

    def __lt__(self, other: "_FallbackKey") -> bool:
        if self.descending:
            return self._compare(other.value, self.value)
        return self._compare(self.value, other.value)


def _fallback_permutation(
    data: Mapping[str, Any], order_by: Sequence[SortKey], length: int
) -> list[int]:
    """The object-fallback permutation: per-key stable passes of ``list.sort``
    over ``(is_missing, comparator)`` tuples — NULLS LAST in both directions,
    identical tie semantics to the kernels."""
    indices = list(range(length))
    for column, ascending in reversed(order_by):
        buffer = data[column]
        values = (
            buffer.tolist()
            if isinstance(buffer, (np.ndarray, EncodedColumn))
            else list(buffer)
        )
        values = [None if t.is_missing(v) else t.python_value(v) for v in values]
        indices.sort(
            key=lambda i, values=values, column=column, descending=not ascending: (
                values[i] is None,
                _FallbackKey(column, values[i], descending),
            )
        )
    return indices


def _take(buffer: Any, indices: Any):
    """Gather a columnar buffer by a permutation (array or list backed)."""
    if isinstance(buffer, (np.ndarray, EncodedColumn)):
        return buffer[np.asarray(indices, dtype=np.int64)]
    return [buffer[i] for i in indices]


# ---------------------------------------------------------------------------
# The one-shot entry point
# ---------------------------------------------------------------------------


def sort_columns(
    names: Sequence[str],
    length: int,
    data: Mapping[str, Any],
    order_by: Sequence[SortKey],
    limit: int | None,
    non_null: frozenset[str] = frozenset(),
) -> tuple[int, dict[str, Any], str | None]:
    """Apply ORDER BY / LIMIT to a columnar result in place of row boxing.

    Returns ``(row count, column buffers, strategy)`` where ``strategy`` is
    the kernel that ran (``lexsort`` / ``topk`` / ``object-fallback``), or
    ``None`` when there was nothing to sort (pure LIMIT).  One permutation is
    computed over the key columns and every buffer is gathered through it —
    rows are never materialized.  Missing values sort NULLS LAST in both
    directions.  ``non_null`` (the static analyzer's nullability hints) lets
    the key encoders skip their missing-value scans for the named columns.
    """
    data = dict(data)
    if not order_by:
        if limit is not None and limit < length:
            return limit, {n: b[:limit] for n, b in data.items()}, None
        return length, data, None
    validate_order_columns(list(names), data, order_by)
    if limit == 0:
        return 0, {n: b[:0] for n, b in data.items()}, STRATEGY_TOPK
    encoded = _lexsort_keys(data, order_by, non_null)
    if encoded is None:
        indices = _fallback_permutation(data, order_by, length)
        if limit is not None:
            indices = indices[:limit]
        strategy = STRATEGY_FALLBACK
    elif limit is not None:
        # The strategy names the query shape (ORDER BY bounded by a LIMIT),
        # so it reads identically on every tier — the streaming accumulator
        # cannot know whether K exceeds the final row count, and the
        # permutation below degenerates to a full lexsort when it does.
        keys, primary = encoded
        indices = _topk_permutation(keys, primary, limit, length)
        strategy = STRATEGY_TOPK
    else:
        indices = np.lexsort(tuple(encoded[0]))
        strategy = STRATEGY_LEXSORT
    gathered = {name: _take(buffer, indices) for name, buffer in data.items()}
    return len(indices), gathered, strategy


# ---------------------------------------------------------------------------
# Streaming top-K candidates (the batch tier's bound on a scan range)
# ---------------------------------------------------------------------------


class TopKAccumulator:
    """Bounded streaming candidates of an ORDER BY + LIMIT over columnar
    batches.

    Each pushed batch is pruned to its own top ``k`` rows (stable, so the
    earliest rows win ties), the survivors accumulate as candidate chunks,
    and the candidate set is re-compacted to ``k`` whenever it outgrows its
    budget — no more than ``max(4k, 4096)`` rows are ever held, regardless of
    input size.  The candidates hold the stable top ``k`` of every row pushed,
    and rows of equal keys keep their push order, so one stable sort of the
    candidates (the engine's epilogue) yields the exact result.

    Correctness does not depend on cross-batch key encoding: every internal
    sort runs :func:`sort_columns` over raw buffers, so a batch whose keys
    need the object fallback is simply pruned by the fallback comparator.
    """

    def __init__(
        self,
        names: Sequence[str],
        order_by: Sequence[SortKey],
        k: int,
        non_null: frozenset[str] = frozenset(),
    ):
        self.names = list(names)
        self.order_by = list(order_by)
        self.k = int(k)
        self.non_null = frozenset(non_null)
        self._chunks: dict[str, list] = {name: [] for name in self.names}
        self._total = 0
        self._budget = max(4 * self.k, 4096)
        #: Rows that entered a sort kernel (mirrored into the profile).
        self.rows_sorted = 0

    def push(self, columns: Mapping[str, Any], count: int) -> None:
        """Offer one batch of output columns; at most ``k`` rows survive."""
        if count == 0:
            return
        if count > self.k:
            self.rows_sorted += count
            count, columns, _ = sort_columns(
                self.names, count, columns, self.order_by, self.k, self.non_null
            )
        for name in self._chunks:  # dict-keyed: duplicate names append once
            self._chunks[name].append(columns[name])
        self._total += count
        if self._total > self._budget:
            self._compact()

    def _compact(self) -> None:
        count, columns = self.finish()
        self.rows_sorted += count
        self._total, columns, _ = sort_columns(
            self.names, count, columns, self.order_by, self.k, self.non_null
        )
        self._chunks = {name: [columns[name]] for name in self.names}

    def finish(self) -> tuple[int, dict[str, Any]]:
        """The candidates, unsorted: ``(count, columns)``."""
        return self._total, {
            name: concat_chunks(chunks) for name, chunks in self._chunks.items()
        }


def concat_chunks(chunks: list) -> Any:
    """Concatenate columnar chunks into one buffer, tolerating list-backed
    buffers; an empty chunk list degenerates to an empty float64 column (the
    batch tier's convention for "no rows at all").  Encoded chunks stay
    encoded under the union of their dictionaries, typed chunks beside them
    included (:func:`~repro.core.columns.concat_encoded`); mixed with object
    buffers they decode."""
    if not chunks:
        return np.zeros(0, dtype=np.float64)
    if len(chunks) == 1:
        return chunks[0]
    if any(isinstance(chunk, EncodedColumn) for chunk in chunks):
        encoded = concat_encoded(chunks)
        if encoded is not None:
            return encoded
        chunks = [np.asarray(chunk) for chunk in chunks]
    if all(isinstance(chunk, np.ndarray) for chunk in chunks):
        return np.concatenate(chunks)
    merged: list = []
    for chunk in chunks:
        merged.extend(chunk.tolist() if isinstance(chunk, np.ndarray) else chunk)
    return merged
