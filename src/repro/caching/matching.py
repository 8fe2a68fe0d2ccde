"""Cache/plan matching (§6, "Cache Matching").

Every cache entry is keyed by the fingerprint of the plan fragment that
produced it, and the key's first element names the entry's kind.  The batch
pipeline probes the caching manager where it opens the operator that would
produce a fragment — the scan for its field columns (all of them in one
probe), the unnest stage for flattened output, the join stage for its build
side's key slots, a join chain for each input's per-slot partials:

* **full matches** — an identical plan (same operation, same arguments,
  matching children) whose materialized output can be reused as-is (the
  serving layer's result cache, ``result``),
* **partial matches** — the key slots already built over a hash join's
  build side (``join_side``) can be reused by a different join over the
  same input and join key, and a join chain input's per-slot partials
  (``chain_partial``) by a later execution over the same slots,
* **field matches** — the narrowest and most common case: a converted field
  column of a raw dataset (``field``: a ``Scan`` + field projection), or the
  flattened output of an unnest over one (``unnest``), reusable by any query
  touching it.

This module only names the keys; what is kept, and for how long, is decided
by :mod:`repro.caching.policies`.  Subsumption (reusing σx>0(A) for σx>10(A)
by re-applying the predicate) is listed as future work in the paper and is
not implemented here either.
"""

from __future__ import annotations

from typing import Sequence

#: A (possibly nested) field path.  Kept as a local alias rather than
#: importing ``repro.plugins.base.FieldPath``, so that the cache does not
#: depend on the plug-ins.
FieldPath = tuple[str, ...]


def field_cache_key(dataset: str, path: FieldPath) -> tuple:
    """Cache key of a converted field column of a raw dataset.

    This corresponds to the plan fragment ``Reduce[bag](field)(Scan(dataset))``
    — a scan followed by a field projection — which is the shape the paper's
    caching manager favours ("fully replace a costly access path").
    """
    return ("field", dataset, tuple(path))


def unnest_cache_key(dataset: str, collection_path: FieldPath,
                     element_paths: Sequence[FieldPath], outer: bool = False) -> tuple:
    """Cache key of the flattened output of an Unnest over a raw dataset
    (an outer unnest's null child rows make it a different flattening)."""
    return (
        "unnest",
        dataset,
        tuple(collection_path),
        tuple(tuple(path) for path in element_paths),
        outer,
    )


def join_side_cache_key(side_fingerprint: tuple, key_fingerprint: tuple) -> tuple:
    """Cache key of the key space of a hash join's build side (its
    :class:`~repro.core.executor.radix.KeySlots`, dense or sorted: probed
    by a join that emits rows, reduced per slot under an aggregate).

    ``side_fingerprint`` identifies the plan fragment that produced the side's
    input; ``key_fingerprint`` identifies the join-key expression.  A later
    join over the same input and the same key — even against a different other
    side — is a partial match and reuses the materialization (the paper's
    ``A ⋈ B`` then ``A ⋈ C`` example).
    """
    return ("join_side", side_fingerprint, key_fingerprint)


def chain_partial_cache_key(space_key: tuple, input_key: tuple) -> tuple:
    """Cache key of one input of a join chain reduced per slot (its
    per-slot row counts and the parts of the aggregates over it).

    ``space_key`` is the build-side key of the chain's slot space — the
    partials are columns over those slots —, ``input_key`` the input's own
    build-side key with the parts it reduces and whether it is the input
    the slots were built from; both carry their bound parameter values.
    Another aggregate over the same input and slots reuses the partials when
    it reduces the same parts.
    """
    return ("chain_partial", space_key, input_key)

