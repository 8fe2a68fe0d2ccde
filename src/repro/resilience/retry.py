"""Exponential-backoff retry for transient raw-data I/O.

Querying raw files means every scan crosses the filesystem: a read or a
mapped page can fault, an NFS read can return ``EIO`` once and succeed on
the next attempt.  :func:`retry_io` wraps exactly one I/O step (a file read
+ parse, a table open, a batch checkpoint) and classifies failures:

* ``OSError`` is *transient*: retried with exponential backoff, each retry
  charged against the query's retry budget
  (:meth:`~repro.resilience.context.QueryContext.consume_retry`), until the
  policy's attempts or the budget run out — then a coded
  :class:`~repro.errors.ScanIOError` (RES005).
* ``ValueError`` / ``UnicodeDecodeError`` mean *corrupt bytes*: determinism
  makes retrying pointless, so they surface immediately as
  :class:`~repro.errors.CorruptDataError` (RES006).
* :class:`~repro.errors.ProteusError` subclasses pass through untouched —
  they are already classified.

The active :class:`~repro.resilience.context.QueryContext` (if any) supplies
the retry budget and is checked between attempts so a retry loop can never
outlive a deadline or a cancellation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CorruptDataError, ProteusError, ScanIOError
from repro.resilience.context import get_active_context


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff shape for transient scan I/O."""

    max_attempts: int = 3
    base_delay_seconds: float = 0.005
    multiplier: float = 2.0
    max_delay_seconds: float = 0.25

    def delay(self, retry_index: int) -> float:
        """Sleep before the ``retry_index``-th retry (0-based)."""
        return min(
            self.base_delay_seconds * (self.multiplier ** retry_index),
            self.max_delay_seconds,
        )


DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_io(
    attempt: Callable[[], Any],
    *,
    operation: str,
    dataset: str | None = None,
    policy: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Run one raw-I/O step under the retry policy; see module docstring."""
    context = get_active_context()
    policy = policy or DEFAULT_RETRY_POLICY
    attempts = 0
    while True:
        try:
            return attempt()
        except ProteusError:
            raise
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptDataError(
                f"corrupt data during {operation}"
                + (f" of {dataset!r}" if dataset else "")
                + f": {exc}",
                dataset=dataset,
            ) from exc
        except OSError as exc:
            attempts += 1
            why = None
            if attempts >= max(policy.max_attempts, 1):
                why = f"still failing after {attempts} attempt(s)"
            elif context is not None and not context.consume_retry():
                why = "per-query retry budget exhausted"
            if why is not None:
                raise ScanIOError(
                    f"transient I/O fault during {operation}"
                    + (f" of {dataset!r}" if dataset else "")
                    + f" ({why}): {exc}",
                    dataset=dataset,
                    attempts=attempts,
                ) from exc
            if context is not None:
                context.check()  # never retry past a deadline / cancellation
            sleep(policy.delay(attempts - 1))
