"""Memory manager (§4, "Memory Manager").

The memory manager distinguishes between the two kinds of memory the engine
uses:

* **Input files** are memory-mapped, so all input data is treated as if it
  were memory-resident and paging is delegated to the OS virtual memory
  manager.  :meth:`MemoryManager.map_file` returns (and caches) a read-only
  buffer over a file.
* **Caching structures** are pinned in a bounded *arena*.  The arena tracks
  the bytes used by every registered block and refuses allocations beyond its
  budget; the caching manager reacts to a refusal by evicting entries (its
  format-biased LRU lives in :mod:`repro.caching.manager`).
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass

from repro.core.concurrency import make_lock
from repro.errors import StorageError


@dataclass
class MappedFile:
    """A read-only memory-mapped file."""

    path: str
    data: bytes
    size: int
    mapped: bool


class MemoryManager:
    """Hands out memory-mapped input files and manages the cache arena."""

    def __init__(self, cache_budget_bytes: int = 256 * 1024 * 1024):
        self._mapped: dict[str, MappedFile] = {}
        self._map_lock = make_lock("MemoryManager._map_lock")
        self.arena = CacheArena(cache_budget_bytes)

    def map_file(self, path: str) -> MappedFile:
        """Memory-map ``path`` read-only (empty files fall back to ``b""``).

        Thread-safe: concurrent morsel workers faulting in the same
        cold file map it exactly once.
        """
        real = os.path.abspath(path)
        existing = self._mapped.get(real)
        if existing is not None:
            return existing
        with self._map_lock:
            existing = self._mapped.get(real)
            if existing is not None:
                return existing
            if not os.path.exists(real):
                raise StorageError(f"cannot map missing file {path!r}")
            size = os.path.getsize(real)
            if size == 0:
                mapped = MappedFile(real, b"", 0, mapped=False)
            else:
                with open(real, "rb") as handle:
                    buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                mapped = MappedFile(real, buffer, size, mapped=True)
            self._mapped[real] = mapped
            return mapped

    def release(self, path: str) -> None:
        """Unmap a file if it is currently mapped."""
        real = os.path.abspath(path)
        with self._map_lock:
            mapped = self._mapped.pop(real, None)
        if mapped is not None and mapped.mapped:
            mapped.data.close()  # type: ignore[union-attr]

    def release_all(self) -> None:
        for path in list(self._mapped):
            self.release(path)

    @property
    def mapped_files(self) -> list[str]:
        return sorted(self._mapped)


@dataclass
class ArenaBlock:
    """A block of cache memory registered with the arena."""

    name: str
    size_bytes: int


class CacheArena:
    """A bounded accounting arena for caching structures.

    The arena does not own the cached arrays (NumPy does); it enforces the
    memory budget and exposes occupancy so that the caching manager can decide
    what to evict.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise StorageError("cache arena budget must be positive")
        self.budget_bytes = budget_bytes
        self._blocks: dict[str, ArenaBlock] = {}

    @property
    def used_bytes(self) -> int:
        return sum(block.size_bytes for block in self._blocks.values())

    @property
    def free_bytes(self) -> int:
        return self.budget_bytes - self.used_bytes

    def can_fit(self, size_bytes: int) -> bool:
        return size_bytes <= self.free_bytes

    def register(self, name: str, size_bytes: int) -> ArenaBlock:
        """Register a cache block; raises :class:`StorageError` when it does
        not fit (the caller is expected to evict and retry)."""
        if name in self._blocks:
            raise StorageError(f"arena block {name!r} already registered")
        if size_bytes > self.budget_bytes:
            raise StorageError(
                f"block {name!r} ({size_bytes} bytes) exceeds the arena budget "
                f"({self.budget_bytes} bytes)"
            )
        if not self.can_fit(size_bytes):
            raise StorageError(
                f"cache arena full: cannot fit {size_bytes} bytes "
                f"(free: {self.free_bytes})"
            )
        block = ArenaBlock(name, size_bytes)
        self._blocks[name] = block
        return block

    def unregister(self, name: str) -> None:
        self._blocks.pop(name, None)

    def blocks(self) -> list[ArenaBlock]:
        return list(self._blocks.values())
