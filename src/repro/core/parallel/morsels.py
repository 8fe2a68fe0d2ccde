"""Morsel planning and the fan-out decision of the batch executor.

A *morsel* is a contiguous range of global scan rows — the unit of work the
scheduler hands to workers (the batch analogue of HyPer-style morsel-driven
parallelism).  A morsel is one batch of the executor, so a pipeline running
over morsels sees exactly the batch boundaries an inline run would:
per-batch operator output (join probe order included) is bit-for-bit the
same, and collecting morsel results in index order reproduces the inline row
order.  Morsels are never shrunk to manufacture parallelism: an input that
fits one batch is one morsel and runs inline.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Whole morsels a scan must span before a *linear* root (projection, ORDER
#: BY included, global aggregate, join build side) fans out.  Such roots gain
#: nothing algorithmically from splitting: their per-morsel work only
#: overlaps where NumPy releases the interpreter lock, and the merge of a
#: collecting root re-touches every output row.  Measured on the two-core
#: reference box, two workers against one (ROADMAP "Measured state"): at 10
#: morsels the linear OLAP classes tie or lose (``topk`` 7.8 -> 9.4 ms,
#: ``join`` 191 -> 200, ``project`` 142 -> 143), at 37-47 they tie or win
#: (``join`` 844 -> 509) — the bar sits between the two.
LINEAR_ROOT_MORSELS = 16

#: A grouping root fans out as soon as there is something to split.  Its
#: partials are the few groups of each morsel, so the merge is small, while
#: the per-morsel select + ``bincount`` passes overlap across workers.
#: Re-measured with the dense grouping kernel on the same box, two workers
#: against one: ``groupby_small`` 17.8 -> 9.2 ms and ``groupby`` 19.1 -> 15.9
#: at 10 morsels, 51 -> 34 and 53 -> 45 at 37 morsels.
GROUPING_ROOT_MORSELS = 2


@dataclass(frozen=True)
class Morsel:
    """One contiguous range of global scan rows, ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


def plan_morsels(total_rows: int, batch_size: int) -> list[Morsel]:
    """Split ``total_rows`` into morsels of one batch each."""
    batch_size = max(int(batch_size), 1)
    return [
        Morsel(index, start, min(start + batch_size, total_rows))
        for index, start in enumerate(range(0, max(total_rows, 0), batch_size))
    ]


def plan_fanout(
    num_workers: int,
    total_rows: int | None,
    batch_size: int,
    grouping: bool,
) -> tuple[list[Morsel], str]:
    """THE fan-out decision of the batch executor: ``(morsels, why)``.

    Every input is a fact the caller observes, none is a setting: the
    engine's worker count, the scan's row count, the batch (= morsel) size
    and whether the pipeline's root is a group-by; every plug-in serves
    arbitrary row ranges, so every scan can be split.  A scan fans out across
    the worker pool when it spans enough whole morsels for its kind of root
    (:data:`GROUPING_ROOT_MORSELS` / :data:`LINEAR_ROOT_MORSELS`); otherwise
    ``morsels`` is empty and the scan runs inline on the calling thread.
    ``why`` words the outcome for ``explain()``.  The executor (root
    pipelines and join build sides alike) calls this with the opened scan's
    facts; ``explain()`` calls it with what the catalog knows
    (``total_rows=None`` without collected statistics), so it never touches
    data.
    """
    if num_workers <= 1:
        return [], "serial: parallel_workers=1"
    kind = "grouping" if grouping else "linear"
    needed = GROUPING_ROOT_MORSELS if grouping else LINEAR_ROOT_MORSELS
    if total_rows is None:
        return [], (
            "decided when the scan opens: the row count is unknown until then "
            f"(a {kind} root fans out across {num_workers} workers from "
            f"{needed} morsels of {batch_size} rows)"
        )
    morsels = plan_morsels(total_rows, batch_size)
    if len(morsels) < needed:
        return [], (
            f"serial: {total_rows} rows are {len(morsels)} morsel(s) of "
            f"{batch_size}; a {kind} root fans out from {needed}"
        )
    return morsels, (
        f"fan-out: {len(morsels)} morsels across "
        f"{min(num_workers, len(morsels))} workers ({kind} root)"
    )
