"""The caching policy (§6, "Cache Policies") — the one place that decides
what the cache keeps and how long.

The paper describes one policy, and it has no settings:

* eagerly cache the columns read from verbose sources (JSON, CSV) —
  especially fields used in filtering predicates — because re-accessing and
  re-converting them dominates query time, and the flattened output of
  unnests over them (:func:`keeps_fields`; the pipeline compiler reads it
  once per query shape),
* do not cache fields read from binary sources (they are already cheap),
* keep a column only in a primitive form (:func:`admits`): the plug-ins
  produce string columns — and int or bool columns with missing values —
  as ``int32`` codes into a sorted dictionary of distinct values
  (:class:`~repro.core.columns.EncodedColumn`), which does not spend the
  budget the way variable-length strings would; values without a primitive
  form (mixed types, nested records) are not kept,
* always keep what a blocking operator materializes anyway: the key slots
  built over hash-join build sides (implicit caching), the per-slot partials
  each input of a join chain reduces to under an aggregate, and the encoded
  answers of the serving layer,
* bias eviction so that entries built from costlier sources survive longer
  (JSON ≻ CSV ≻ binary); an entry built from several sources is as dear as
  its most verbose one (:func:`entry_bias`).

Every entry names the (dataset, format) pairs it was built from; the caching
manager applies these rules to them, so no call site decides admission or
bias.  ``enable_caching=False`` on the engine is the only way to cache
nothing.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

#: A (dataset name, format) pair an entry was built from.
Source = tuple[str, str]

#: Relative re-access cost per source format; higher values make a cache
#: entry more valuable and therefore less likely to be evicted.
FORMAT_BIAS = {
    "json": 4.0,
    "csv": 2.0,
    "binary_row": 1.0,
    "binary_column": 1.0,
}

#: Source formats whose field columns and unnest outputs are worth caching.
VERBOSE_FORMATS = frozenset({"json", "csv"})


def keeps_fields(source_format: str) -> bool:
    """Are the field columns — and the unnest outputs — scanned from
    ``source_format`` kept?"""
    return source_format in VERBOSE_FORMATS


def admits(data: Any) -> bool:
    """May an entry hold ``data``?  A column is kept only in a primitive
    form: an object array (mixed-type or nested values) is not."""
    return not (isinstance(data, np.ndarray) and data.dtype == object)


def entry_bias(sources: Iterable[Source]) -> float:
    """Eviction bias of an entry built from ``sources``: its most verbose
    format's."""
    return max(FORMAT_BIAS.get(source_format, 1.0) for _, source_format in sources)
