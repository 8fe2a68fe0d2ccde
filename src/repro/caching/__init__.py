"""Adaptive caching: materialized binary caches built as a side effect of query execution."""

from repro.caching.manager import CacheEntry, CacheManager, CacheStatistics
from repro.caching.policies import CachingPolicy
from repro.caching.matching import plan_fingerprint

__all__ = [
    "CacheEntry",
    "CacheManager",
    "CacheStatistics",
    "CachingPolicy",
    "plan_fingerprint",
]
