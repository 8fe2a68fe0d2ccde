"""Caching manager (§6).

The caching manager owns the binary caches that the engine materializes as a
side effect of query execution.  Each entry records the plan-fragment key that
produced it, the source dataset and format (which drives the eviction bias),
its size (accounted against the memory manager's cache arena) and an LRU
timestamp.

Eviction is a *format-biased* LRU: when the arena is full, the entry with the
lowest ``bias / recency`` score is dropped first, so caches over JSON survive
longer than caches over CSV, which survive longer than caches over binary
data (``JSON ≻ CSV ≻ Binary``), mirroring the paper's policy.

One manager is shared by the batch pipeline of every query thread (and the
serving layer's result cache), so every public
method takes ``self._lock``.  Mutators delegate to ``*_locked`` internals
(``store`` must evict while holding the lock; re-taking it would self-
deadlock).  The arena and the statistics object are mutated only through
those locked paths (``EXTERNALLY_GUARDED`` in ``core/concurrency.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.caching.policies import CachingPolicy
from repro.core.concurrency import make_lock
from repro.storage.memory import CacheArena


@dataclass
class CacheEntry:
    """One materialized cache."""

    key: tuple
    kind: str
    dataset: str
    source_format: str
    data: Any
    size_bytes: int
    bias: float
    description: str = ""
    last_used: int = 0
    hits: int = 0

    def touch(self, clock: int) -> None:
        self.last_used = clock
        self.hits += 1


@dataclass
class CacheStatistics:
    """Aggregate counters exposed for benchmarks and tests."""

    lookups: int = 0
    hits: int = 0
    stores: int = 0
    evictions: int = 0
    rejected: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CacheManager:
    """Registry, admission control and eviction for adaptive caches."""

    def __init__(self, arena: CacheArena):
        self.arena = arena
        self.policy = CachingPolicy()
        self.stats = CacheStatistics()
        self._entries: dict[tuple, CacheEntry] = {}
        self._clock = 0
        self._lock = make_lock("CacheManager._lock")

    # -- lookup ----------------------------------------------------------------

    def lookup(self, key: tuple) -> CacheEntry | None:
        """Return the entry for ``key`` (updating its recency) or ``None``."""
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._clock += 1
            entry.touch(self._clock)
            self.stats.hits += 1
            return entry

    def peek(self, key: tuple) -> CacheEntry | None:
        """Return the entry for ``key`` without touching statistics."""
        return self._entries.get(key)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    # -- admission ---------------------------------------------------------------

    def store(
        self,
        key: tuple,
        data: Any,
        *,
        kind: str,
        dataset: str,
        source_format: str,
        description: str = "",
        size_bytes: int | None = None,
    ) -> CacheEntry | None:
        """Admit a new cache entry, evicting lower-value entries if needed.

        Returns the entry, or ``None`` when the entry cannot fit even after
        evicting everything cheaper (it is then simply not cached — caching is
        best-effort and never fails a query).
        """
        # Size estimation can be expensive (object-array walks); do it before
        # taking the lock.  The bias lookup is a pure policy read.
        size = size_bytes if size_bytes is not None else estimate_size(data)
        bias = self.policy.format_bias(source_format)
        with self._lock:
            if key in self._entries:
                entry = self._entries[key]
                self._clock += 1
                entry.touch(self._clock)
                return entry
            if size > self.arena.budget_bytes:
                self.stats.rejected += 1
                return None
            self._make_room_locked(size, bias)
            if not self.arena.can_fit(size):
                self.stats.rejected += 1
                return None
            self.arena.register(_arena_name(key), size)
            self._clock += 1
            entry = CacheEntry(
                key=key,
                kind=kind,
                dataset=dataset,
                source_format=source_format,
                data=data,
                size_bytes=size,
                bias=bias,
                description=description,
                last_used=self._clock,
            )
            self._entries[key] = entry
            self.stats.stores += 1
            return entry

    def _make_room_locked(self, size: int, incoming_bias: float) -> None:
        """Evict entries (cheapest-to-rebuild, least-recently-used first) until
        ``size`` bytes fit or nothing evictable remains.  Lock held."""
        while not self.arena.can_fit(size):
            victim = self._pick_victim(incoming_bias)
            if victim is None:
                return
            self._evict_locked(victim.key)

    def _pick_victim(self, incoming_bias: float) -> CacheEntry | None:
        # Format-biased LRU: the cheapest-to-rebuild format goes first, the
        # least recently used entry within it.  One pass — with thousands of
        # small result entries a sort per eviction, under the lock, is the
        # cost of the store.
        return min(
            self._entries.values(),
            key=lambda e: (e.bias, e.last_used),
            default=None,
        )

    # -- eviction / invalidation ----------------------------------------------------

    def evict(self, key: tuple) -> None:
        with self._lock:
            self._evict_locked(key)

    def _evict_locked(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.arena.unregister(_arena_name(entry.key))
        self.stats.evictions += 1

    def invalidate_dataset(self, dataset: str) -> int:
        """Drop every cache built from ``dataset`` (used on data updates, §4:
        Proteus drops and rebuilds affected auxiliary structures)."""
        with self._lock:
            keys = [
                key for key, entry in self._entries.items() if entry.dataset == dataset
            ]
            for key in keys:
                self._evict_locked(key)
            return len(keys)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._evict_locked(key)

    # -- introspection -----------------------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        with self._lock:
            return list(self._entries.values())

    @property
    def used_bytes(self) -> int:
        return self.arena.used_bytes


def estimate_size(data: Any) -> int:
    """Estimate the in-memory footprint of cached data."""
    if isinstance(data, np.ndarray):
        if data.dtype == object:
            return int(sum(len(str(v)) + 48 for v in data))
        return int(data.nbytes)
    if isinstance(data, dict):
        return sum(estimate_size(value) for value in data.values()) + 64 * len(data)
    if isinstance(data, (list, tuple)):
        return sum(estimate_size(value) for value in data) + 16 * len(data)
    if isinstance(data, (bytes, str)):
        return len(data)
    if hasattr(data, "nbytes"):
        return int(data.nbytes)
    if hasattr(data, "size_bytes"):
        return int(data.size_bytes)
    return 64


def _arena_name(key: tuple) -> str:
    return "cache:" + repr(key)
