"""Caching policies (§6, "Cache Policies").

The policy decides *what* gets cached as a side effect of execution.  The
paper's default policy, reproduced here, is:

* eagerly cache primitive values read from verbose sources (JSON, CSV) —
  especially fields used in filtering predicates — because re-accessing and
  re-converting them dominates query time,
* do **not** cache variable-length string fields from CSV/JSON files, which
  are verbose and would pollute the cache arena,
* do not cache fields read from binary sources (they are already cheap),
* cache the join tables built over hash-join build sides (implicit caching:
  the join is a blocking operator, so its materialization comes for free),
* bias eviction so that caches built from costlier sources survive longer
  (JSON ≻ CSV ≻ binary).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Relative re-access cost per source format; higher values make a cache
#: entry more valuable and therefore less likely to be evicted.
FORMAT_BIAS = {
    "json": 4.0,
    "csv": 2.0,
    "binary_row": 1.0,
    "binary_column": 1.0,
    "cache": 1.0,
}


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


@dataclass
class CachingPolicy:
    """Tunable caching policy."""

    cache_numeric_fields: bool = True
    cache_string_fields: bool = False
    cache_binary_sources: bool = False
    cache_join_sides: bool = True
    cache_unnest_output: bool = True

    def should_cache_field(self, source_format: str, type_name: str) -> bool:
        """Should a scanned/converted field column from ``source_format`` with
        values of ``type_name`` be added to the cache?"""
        if source_format in ("binary_row", "binary_column", "cache") and \
                not self.cache_binary_sources:
            return False
        if type_name == "string":
            return self.cache_string_fields
        return self.cache_numeric_fields

    def should_cache_join_side(self, source_formats: set[str]) -> bool:
        """Should the materialized build side of a join be kept for reuse?"""
        return self.cache_join_sides

    def format_bias(self, source_format: str) -> float:
        """Eviction bias of a cache entry built from ``source_format``."""
        return FORMAT_BIAS.get(source_format, 1.0)


class DefaultCachingPolicy(CachingPolicy):
    """The paper's default policy (alias of :class:`CachingPolicy` defaults)."""


class AggressiveCachingPolicy(CachingPolicy):
    """Cache everything, including strings and binary sources.

    Used by the ablation benchmarks to show why the default policy avoids
    string fields (cache pollution).
    """

    def __init__(self) -> None:
        super().__init__(
            cache_numeric_fields=True,
            cache_string_fields=True,
            cache_binary_sources=True,
            cache_join_sides=True,
            cache_unnest_output=True,
        )


class NoCachingPolicy(CachingPolicy):
    """Disable caching entirely (baseline configuration of §7.1)."""

    def __init__(self) -> None:
        super().__init__(
            cache_numeric_fields=False,
            cache_string_fields=False,
            cache_binary_sources=False,
            cache_join_sides=False,
            cache_unnest_output=False,
        )

    def should_cache_field(self, source_format: str, type_name: str) -> bool:
        return False

    def should_cache_join_side(self, source_formats: set[str]) -> bool:
        return False
