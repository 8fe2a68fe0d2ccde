"""The caching policy (§6, "Cache Policies").

The policy decides *what* gets cached as a side effect of execution.  The
paper describes one policy, and it has no settings:

* eagerly cache the columns read from verbose sources (JSON, CSV) —
  especially fields used in filtering predicates — because re-accessing and
  re-converting them dominates query time,
* strings are cached as dictionary codes: the plug-ins produce string
  columns — and int or bool columns with missing values — as ``int32``
  codes into a sorted dictionary of distinct values
  (:class:`~repro.core.columns.EncodedColumn`), a primitive column that does
  not spend the cache budget the way variable-length strings would; values
  without a primitive form (mixed types, nested records) are not cached,
* do not cache fields read from binary sources (they are already cheap),
* always cache the key slots built over hash-join build sides (implicit
  caching: the join is a blocking operator, so its materialization comes for
  free), the per-slot partials each input of a join chain reduces to under
  an aggregate, and the flattened output of unnests over verbose sources,
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
}

#: Source formats whose field columns are worth caching.
VERBOSE_FORMATS = frozenset({"json", "csv"})


class CachingPolicy:
    """The §6 rules the caching manager and the batch pipeline consult."""

    def should_cache_field(self, source_format: str) -> bool:
        """Should the field columns scanned from ``source_format`` be added
        to the cache?"""
        return source_format in VERBOSE_FORMATS

    def format_bias(self, source_format: str) -> float:
        """Eviction bias of a cache entry built from ``source_format``."""
        return FORMAT_BIAS.get(source_format, 1.0)
