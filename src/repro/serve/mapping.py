"""Engine-error → HTTP translation for the query service.

The server never invents error codes: engine failures carry their
machine-readable code (``TYP00x``, ``RES00x``) into the response body
verbatim, and :func:`repro.errors.http_status_for` — the table kept next to
the code definitions — picks the status.  Only *protocol*-level failures,
which never reach the engine, get their own ``SRV`` codes:

========  ======  ==================================================
SRV001    400     malformed request (bad JSON, missing/mistyped field)
SRV002    404     unknown endpoint or resource (path, query_id)
SRV003    404     unknown statement handle
SRV004    409     duplicate ``query_id`` still executing
SRV005    413     declared request body exceeds the server's limit
========  ======  ==================================================

``SRV001`` also covers requests that cannot be framed on a persistent
connection (malformed request line, missing or non-numeric
``Content-Length`` on a ``POST``, chunked bodies); those, and ``SRV005``,
are answered with ``Connection: close``.  The statuses live in
:data:`repro.errors.HTTP_STATUS_BY_CODE` with the engine codes.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    HTTP_STATUS_BY_CODE,
    HTTP_STATUS_DEFAULT,
    error_code,
    http_status_for,
)
from repro.serve.protocol import profile_summary


def engine_error_response(exc: BaseException) -> tuple[int, dict]:
    """(status, JSON body) for an engine failure.

    A failed execution — aborted (RES001/RES002), refused by admission
    (RES003/RES004) or broken — carries the one profile the engine attached
    to the exception, so its body reports that ``profile`` and its
    ``partial_progress``: how far the query got, read off the same
    counters.
    """
    body: dict[str, Any] = {
        "error": {
            "code": error_code(exc),
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
    profile = getattr(exc, "profile", None)
    if profile is not None:
        body["profile"] = profile_summary(profile)
        body["partial_progress"] = profile.partial_progress
    return http_status_for(exc), body


def protocol_error_response(code: str, message: str) -> tuple[int, dict]:
    """(status, JSON body) for a protocol-level (``SRV``) failure; a code
    outside the table (``"internal"``) is a 500."""
    status = HTTP_STATUS_BY_CODE.get(code, HTTP_STATUS_DEFAULT)
    return status, {"error": {"code": code, "message": message}}
