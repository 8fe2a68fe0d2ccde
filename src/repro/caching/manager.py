"""Caching manager (§6).

The caching manager owns the binary caches that the engine materializes as a
side effect of query execution.  A call site says only what it built — the
key, the data and the (dataset, format) pairs it was built from —; the
manager derives the rest: the entry's kind from its key's first element
(``field``, ``unnest``, ``join_side``, ``chain_partial`` or ``result``),
whether it is admitted and its eviction bias from the rules of
:mod:`repro.caching.policies`, and the datasets whose re-registration drops
it from its sources.  Each entry also records its size (counted against the
manager's byte budget) and an LRU timestamp.

Eviction is a *format-biased* LRU: when the budget is spent, the entry with the
lowest bias goes first, the least recently used among equals, so caches over
JSON survive longer than caches over CSV, which survive longer than caches
over binary data (``JSON ≻ CSV ≻ Binary``), mirroring the paper's policy.

One manager is shared by the batch pipeline of every query thread (and the
serving layer's result cache), so every public
method takes ``self._lock``; a scan probes all its fields under one
acquisition (:meth:`CacheManager.lookup_many`).  Mutators delegate to
``*_locked`` internals (``store`` must evict while holding the lock;
re-taking it would self-deadlock).  The byte count and the statistics object
are mutated only through those locked paths (``core/concurrency.py``
declares both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.caching import policies
from repro.core.concurrency import make_lock
from repro.errors import StorageError


@dataclass
class CacheEntry:
    """One materialized cache."""

    key: tuple
    kind: str
    #: The (dataset, format) pairs the data was built from; the first owns
    #: the entry, and re-registering any of them drops it.
    sources: tuple[policies.Source, ...]
    data: Any
    size_bytes: int
    bias: float
    description: str = ""
    last_used: int = 0
    hits: int = 0

    @property
    def dataset(self) -> str:
        """The dataset that owns the entry: its first source."""
        return self.sources[0][0]

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

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise StorageError("cache budget must be positive")
        self.budget_bytes = budget_bytes
        #: Bytes held by the live entries: the sum of their ``size_bytes``.
        self.used_bytes = 0
        self.stats = CacheStatistics()
        self._entries: dict[tuple, CacheEntry] = {}
        self._clock = 0
        self._lock = make_lock("CacheManager._lock")

    # -- lookup ----------------------------------------------------------------

    def lookup(self, key: tuple) -> CacheEntry | None:
        """Return the entry for ``key`` (updating its recency) or ``None``."""
        with self._lock:
            return self._lookup_locked(key)

    def lookup_many(self, keys: Sequence[tuple]) -> list[CacheEntry | None]:
        """:meth:`lookup` of every key in ``keys`` under one acquisition of
        the lock (a scan's fields); each key counts as one lookup."""
        with self._lock:
            return [self._lookup_locked(key) for key in keys]

    def _lookup_locked(self, key: tuple) -> CacheEntry | None:
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
        sources: Iterable[policies.Source],
        description: str = "",
        size_bytes: int | None = None,
    ) -> CacheEntry | None:
        """Admit ``data``, built from the (dataset, format) pairs ``sources``,
        under ``key``, evicting lower-value entries if needed.

        Returns the entry, or ``None`` when the policy does not admit the
        data or it cannot fit even after evicting everything cheaper (it is
        then simply not cached — caching is best-effort and never fails a
        query).
        """
        if not policies.admits(data):
            return None
        sources = tuple(sources)
        # Size estimation can be expensive (object-array walks); do it before
        # taking the lock.  The bias is a pure policy read.
        size = size_bytes if size_bytes is not None else estimate_size(data)
        bias = policies.entry_bias(sources)
        with self._lock:
            if key in self._entries:
                entry = self._entries[key]
                self._clock += 1
                entry.touch(self._clock)
                return entry
            if size > self.budget_bytes:
                self.stats.rejected += 1
                return None
            self._make_room_locked(size)
            self.used_bytes += size
            self._clock += 1
            entry = CacheEntry(
                key=key,
                kind=key[0],
                sources=sources,
                data=data,
                size_bytes=size,
                bias=bias,
                description=description,
                last_used=self._clock,
            )
            self._entries[key] = entry
            self.stats.stores += 1
            return entry

    def _make_room_locked(self, size: int) -> None:
        """Evict entries (cheapest-to-rebuild, least-recently-used first)
        until ``size`` bytes fit; ``size`` is within the budget, so emptying
        the cache always makes room.  Lock held."""
        while self.used_bytes + size > self.budget_bytes:
            self._evict_locked(self._pick_victim().key)

    def _pick_victim(self) -> CacheEntry:
        # Format-biased LRU: the cheapest-to-rebuild format goes first, the
        # least recently used entry within it.  One pass — with thousands of
        # small result entries a sort per eviction, under the lock, is the
        # cost of the store.
        return min(self._entries.values(), key=lambda e: (e.bias, e.last_used))

    # -- eviction / invalidation ----------------------------------------------------

    def evict(self, key: tuple) -> None:
        with self._lock:
            self._evict_locked(key)

    def _evict_locked(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.used_bytes -= entry.size_bytes
        self.stats.evictions += 1

    def invalidate_dataset(self, dataset: str) -> int:
        """Drop every cache built from ``dataset`` (used on data updates, §4:
        Proteus drops and rebuilds affected auxiliary structures)."""
        with self._lock:
            keys = [
                key
                for key, entry in self._entries.items()
                if any(name == dataset for name, _ in entry.sources)
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
