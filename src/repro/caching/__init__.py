"""Adaptive caching: materialized binary caches built as a side effect of query execution."""

from repro.caching.manager import CacheEntry, CacheManager, CacheStatistics

__all__ = [
    "CacheEntry",
    "CacheManager",
    "CacheStatistics",
]
