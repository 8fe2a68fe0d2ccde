"""The caching policy (§6, "Cache Policies").

The policy decides *what* gets cached as a side effect of execution.  The
paper describes one policy, and it has no settings:

* eagerly cache primitive values read from verbose sources (JSON, CSV) —
  especially fields used in filtering predicates — because re-accessing and
  re-converting them dominates query time,
* do **not** cache variable-length string fields from CSV/JSON files, which
  are verbose and would pollute the cache arena,
* do not cache fields read from binary sources (they are already cheap),
* always cache the join tables built over hash-join build sides (implicit
  caching: the join is a blocking operator, so its materialization comes for
  free) and the flattened output of unnests over verbose sources,
* bias eviction so that caches built from costlier sources survive longer
  (JSON ≻ CSV ≻ binary).

``enable_caching=False`` on the engine is the only way to cache nothing.
"""

from __future__ import annotations

#: Relative re-access cost per source format; higher values make a cache
#: entry more valuable and therefore less likely to be evicted.
FORMAT_BIAS = {
    "json": 4.0,
    "csv": 2.0,
    "binary_row": 1.0,
    "binary_column": 1.0,
    "cache": 1.0,
}

#: Source formats whose field columns are worth caching.
VERBOSE_FORMATS = frozenset({"json", "csv"})


def column_type_name(column) -> str:
    """The ``type_name`` label :meth:`CachingPolicy.should_cache_field`
    expects for a scanned NumPy column (shared by every execution tier)."""
    if column.dtype == object:
        return "string"
    if column.dtype.kind == "b":
        return "bool"
    if column.dtype.kind in "iu":
        return "int"
    return "float"


class CachingPolicy:
    """The §6 rules the caching manager and the batch pipeline consult."""

    def should_cache_field(self, source_format: str, type_name: str) -> bool:
        """Should a scanned/converted field column from ``source_format`` with
        values of ``type_name`` be added to the cache?"""
        return source_format in VERBOSE_FORMATS and type_name != "string"

    def format_bias(self, source_format: str) -> float:
        """Eviction bias of a cache entry built from ``source_format``."""
        return FORMAT_BIAS.get(source_format, 1.0)
