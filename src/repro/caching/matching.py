"""Cache/plan matching (§6, "Cache Matching").

Every cache entry is keyed by the fingerprint of the plan fragment that
produced it.  The batch pipeline probes the caching manager where it opens
the operator that would produce a fragment — the scan for field columns, the
unnest stage for flattened output, the join stage for its build side's
table:

* **full matches** — an identical plan (same operation, same arguments,
  matching children) whose materialized output can be reused as-is (the
  serving layer's result cache),
* **partial matches** — the join table already built over a hash join's
  build side can be reused by a different join over the same input and
  join key,
* **field matches** — the narrowest and most common case: a converted field
  column of a raw dataset (a ``Scan`` + field projection), reusable by any
  query touching that field.

Subsumption (reusing σx>0(A) for σx>10(A) by re-applying the predicate) is
listed as future work in the paper and is not implemented here either.
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
    """Cache key of the join table of a hash join's build side (a
    :class:`~repro.core.executor.radix.JoinTable`, dense or sorted).

    ``side_fingerprint`` identifies the plan fragment that produced the side's
    input; ``key_fingerprint`` identifies the join-key expression.  A later
    join over the same input and the same key — even against a different other
    side — is a partial match and reuses the materialization (the paper's
    ``A ⋈ B`` then ``A ⋈ C`` example).
    """
    return ("join_side", side_fingerprint, key_fingerprint)


def plan_fingerprint(plan) -> tuple:
    """Fingerprint of a logical or physical plan fragment.

    Both plan families expose a ``fingerprint()`` method; this indirection
    exists so cache keys remain stable if internal representations change.
    """
    return plan.fingerprint()
