"""Wire protocol of the query service: JSON request/response shapes.

Requests
--------

``POST /v1/query`` and ``POST /v1/execute`` share one body shape::

    {
        "query":      "select ... where qty > ?",   # /v1/query (+ /v1/prepare)
        "handle":     "stmt-1",                     # /v1/execute instead
        "args":       [10],                          # positional parameters
        "params":     {"cat": "tools"},              # named parameters
        "timeout_ms": 250,                           # optional deadline
        "query_id":   "client-req-7"                 # optional cancel handle
    }

``timeout_ms`` maps onto ``PreparedQuery.execute(timeout=...)``;
``query_id`` registers a per-request cancellation token that
``DELETE /v1/query/<query_id>`` trips from another connection.

Responses
---------

Results are **columnar**, mirroring :class:`~repro.core.engine.ResultSet`:
``columns`` is the output order, ``data`` maps each column name to its value
list (missing values as ``null``), and ``tier`` (``codegen`` /
``volcano``) / ``profile`` carry the execution metadata the engine already
tracks.  Whether the batch pipeline fanned out over morsels reads off ``profile.parallel_workers`` (0 when it ran inline).

A 200 body is encoded in two parts so the serving layer's result cache can
keep the expensive one: :func:`encode_result_head` renders everything that
depends only on the rows and the execution that produced them (``columns``,
``data``, ``row_count``, ``tier``, ``profile``), and
:func:`finish_result_body` appends what belongs to *this* request —
``execution_seconds`` and, when the head was replayed from the cache instead
of executed, ``"cached": true``.

The transport is HTTP/1.1 with persistent connections
(:mod:`repro.serve.http11`): clients should reuse one connection for many
requests; ``Connection: close`` and HTTP/1.0 requests are answered and closed.

Malformed requests raise :class:`BadRequestError` (surfaced as HTTP 400 with
protocol code ``SRV001``); the server never guesses at intent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.engine import ResultSet

#: ExecutionProfile counters surfaced in the response's ``profile`` object.
#: A deliberate subset: the tier decision, the scan/cache economics the
#: paper's evaluation revolves around, and the resilience counters.
_PROFILE_FIELDS = (
    "execution_tier",
    "predicted_tier",
    "tier_decline_reasons",
    "rows_scanned",
    "values_extracted",
    "values_from_cache",
    "batches_processed",
    "output_rows",
    "parallel_workers",
    "compiled_from_cache",
    "io_retries",
)


class BadRequestError(Exception):
    """The request body does not follow the protocol (HTTP 400, SRV001)."""


@dataclass
class QueryRequest:
    """One parsed execution request (``/v1/query`` or ``/v1/execute``)."""

    query: str | None
    handle: str | None
    args: list
    params: dict[str, Any]
    timeout_seconds: float | None
    query_id: str | None


def parse_body(raw: bytes) -> dict:
    """Decode a request body; requires a JSON object at the top level."""
    try:
        decoded = json.loads(raw.decode("utf-8") or "null")
    except (ValueError, UnicodeDecodeError):
        raise BadRequestError("request body is not valid JSON") from None
    if not isinstance(decoded, dict):
        raise BadRequestError("request body must be a JSON object")
    return decoded


def parse_query_request(body: Mapping[str, Any], *, require: str) -> QueryRequest:
    """Parse an execution request; ``require`` is ``"query"`` or ``"handle"``."""
    query = body.get("query")
    handle = body.get("handle")
    if require == "query":
        if not isinstance(query, str) or not query.strip():
            raise BadRequestError('"query" must be a non-empty string')
    else:
        if not isinstance(handle, str) or not handle:
            raise BadRequestError('"handle" must be a statement handle string')
    args = body.get("args", [])
    if not isinstance(args, list):
        raise BadRequestError('"args" must be a JSON array of positional values')
    params = body.get("params", {})
    if not isinstance(params, dict) or not all(isinstance(k, str) for k in params):
        raise BadRequestError('"params" must be a JSON object of named values')
    timeout_seconds = _parse_timeout_ms(body.get("timeout_ms"))
    query_id = body.get("query_id")
    if query_id is not None and (not isinstance(query_id, str) or not query_id):
        raise BadRequestError('"query_id" must be a non-empty string')
    return QueryRequest(
        query=query if isinstance(query, str) else None,
        handle=handle if isinstance(handle, str) else None,
        args=list(args),
        params=dict(params),
        timeout_seconds=timeout_seconds,
        query_id=query_id,
    )


def _parse_timeout_ms(value: Any) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError('"timeout_ms" must be a number of milliseconds')
    if value < 0:
        raise BadRequestError('"timeout_ms" must be non-negative')
    return float(value) / 1000.0


def encode_json(payload: Any) -> bytes:
    """A JSON body as wire bytes (NumPy scalars unboxed)."""
    return json.dumps(payload, default=json_default).encode("utf-8")


def encode_result_head(result: ResultSet) -> bytes:
    """The replayable part of a 200 body: the columnar encoding of a
    :class:`ResultSet` (+ tier/profile) as an *unclosed* JSON object, to be
    completed by :func:`finish_result_body`."""
    payload: dict[str, Any] = {
        "columns": list(result.columns),
        "data": {name: result.column(name) for name in result.columns},
        "row_count": len(result),
        "tier": result.tier,
    }
    profile = result.profile
    if profile is not None:
        payload["profile"] = profile_summary(profile)
    return encode_json(payload)[:-1]


def finish_result_body(head: bytes, execution_seconds: float, cached: bool) -> bytes:
    """Close a result head with this request's own fields."""
    tail = b', "cached": true}' if cached else b"}"
    return b'%s, "execution_seconds": %r%s' % (head, float(execution_seconds), tail)


def profile_summary(profile: Any) -> dict:
    """JSON-safe subset of an ExecutionProfile (an aborted one adds its
    code and ``partial_progress``)."""
    summary: dict[str, Any] = {}
    for field in _PROFILE_FIELDS:
        value = getattr(profile, field, None)
        if value is not None:
            summary[field] = value
    if profile.aborted is not None:
        summary["aborted"] = profile.aborted
        summary["partial_progress"] = profile.partial_progress
    return summary


def json_default(value: Any) -> Any:
    """``json.dumps`` fallback for NumPy scalars and other non-JSON leaves."""
    for attr in ("item",):  # numpy scalar -> native Python
        method = getattr(value, attr, None)
        if callable(method):
            try:
                return method()
            except (TypeError, ValueError):
                break
    return str(value)
