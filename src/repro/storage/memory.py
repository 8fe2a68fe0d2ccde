"""Memory manager (§4, "Memory Manager").

The memory manager distinguishes between the two kinds of memory the engine
uses:

* **Input files** are memory-mapped, so all input data is treated as if it
  were memory-resident and paging is delegated to the OS virtual memory
  manager.  :meth:`MemoryManager.map_file` returns (and caches) a read-only
  buffer over a file.
* **Caching structures** are held by the caching manager
  (:mod:`repro.caching.manager`), which counts their bytes against its
  budget and evicts by its format-biased LRU.
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
    """Hands out memory-mapped input files."""

    def __init__(self) -> None:
        self._mapped: dict[str, MappedFile] = {}
        self._map_lock = make_lock("MemoryManager._map_lock")

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
