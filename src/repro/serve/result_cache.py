"""Cross-client result cache of the serving layer (the paper's §6 caching
manager, applied at the root of the plan).

Many dashboards issue the same parameterised query; the answer to
``(plan fingerprint, bound parameters, catalog epoch)`` is the same for all
of them until the catalog moves.  The serving layer therefore keeps the
*encoded* 200 body of such an execution (:func:`encode_result_head`) and
replays it: a hit skips execution, Python-list materialization and
``json.dumps`` of the data.

There is no second cache: entries live in the engine's byte-budgeted
:class:`~repro.caching.manager.CacheManager` (``result`` entries) next to the
field and join-side caches — one budget, one format-biased LRU, one
``enable_caching`` switch.  An entry names the datasets its plan scans; the
manager biases it as the most verbose of them (a result over JSON is the
dearest to rebuild) and drops it when any is re-registered.  Entries of an
older catalog epoch are unreachable and age out by LRU.

Only the HTTP path uses it: an in-process caller already holds its
:class:`~repro.core.engine.ResultSet`.  Concurrent first requests for one key
each execute (scan coalescing already shares their cold parse); the first
store wins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.physical import PhysScan
from repro.errors import ProteusError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.caching.manager import CacheManager
    from repro.core.engine import PreparedQuery, ProteusEngine

#: Bookkeeping bytes charged per entry on top of the encoded body (the key
#: and the entry object).
_ENTRY_OVERHEAD_BYTES = 512


class ResultCache:
    """Lookup/store of encoded result heads in the engine's cache manager."""

    def __init__(self, engine: "ProteusEngine", manager: "CacheManager"):
        self._engine = engine
        self._manager = manager
        metrics = engine.metrics
        self._hits = metrics.counter(
            "proteus_result_cache_hits_total",
            "HTTP executions answered from the cross-client result cache.",
        )
        self._misses = metrics.counter(
            "proteus_result_cache_misses_total",
            "Cacheable HTTP executions that had to run the query.",
        )

    def lookup(self, key: tuple) -> bytes | None:
        """The encoded result head stored under ``key``, if any."""
        entry = self._manager.lookup(key)
        if self._engine.metrics.enabled:
            (self._misses if entry is None else self._hits).inc()
        return None if entry is None else entry.data

    def store(self, key: tuple, prepared: "PreparedQuery", head: bytes) -> None:
        """Keep ``head`` under ``key``; best-effort, like every cache store."""
        plan = prepared.plan
        if plan is None:
            return
        try:
            sources = self._engine.catalog.sources(
                node.dataset for node in plan.walk() if isinstance(node, PhysScan)
            )
        except ProteusError:
            return  # dropped since the execution: the key is unreachable
        if sources:
            self._manager.store(
                key,
                head,
                sources,
                "encoded HTTP result",
                size_bytes=len(head) + _ENTRY_OVERHEAD_BYTES,
            )
