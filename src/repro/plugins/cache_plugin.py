"""The §6 cache, named as a plug-in.

The paper treats a materialized cache as one more input plug-in.  Here the
cache is an access path of the batch pipeline instead: each execution asks
the :class:`~repro.caching.manager.CacheManager` for every field it reads in
one probe and its scans read the raw source for whatever is missing, so no
plan names the cache and no plug-in serves it.
"""

from __future__ import annotations

from repro.plugins.base import InputPlugin


class CachePlugin(InputPlugin):
    """Never instantiated: the class exists so that the end-to-end
    benchmark's span wrappers (``benchmarks/e2e/spans.py``), which wrap the
    scan methods of one class per format, keep a ``plugins.cache.scan``
    target.  That span always reads zero, because cached fields are read by
    the batch pipeline's scans, not through a plug-in."""

    format_name = "cache"
