"""Exception hierarchy for the repro (Proteus reproduction) package.

All errors raised by the library derive from :class:`ProteusError` so that
callers can catch a single base class.  The sub-classes mirror the stages of
query processing: parsing, planning, code generation, execution and storage.
"""

from __future__ import annotations


class ProteusError(Exception):
    """Base class for every error raised by the repro package."""


class ParseError(ProteusError):
    """Raised when a SQL statement or a comprehension cannot be parsed."""

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            snippet = text[max(0, position - 20):position + 20]
            message = f"{message} (near position {position}: ...{snippet!r}...)"
        super().__init__(message)


class SchemaError(ProteusError):
    """Raised when a dataset schema is inconsistent or a field is unknown."""


class AnalysisError(SchemaError):
    """Raised by the static plan analyzer at ``prepare()`` time.

    Carries a machine-readable diagnostic ``code`` (``TYP001`` ...) plus the
    ``dataset`` / ``field`` the diagnostic names, so callers — and the
    planned multi-client server, which must reject bad queries before
    admission — can route errors without parsing the message."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        dataset: str | None = None,
        field: str | None = None,
    ):
        self.code = code
        self.dataset = dataset
        self.field = field
        super().__init__(f"[{code}] {message}")


class CatalogError(ProteusError):
    """Raised when a dataset is missing from, or already present in, the catalog."""


class PlanningError(ProteusError):
    """Raised when the optimizer cannot produce a valid plan for a query."""


class TranslationError(ProteusError):
    """Raised when a calculus expression cannot be translated to the algebra."""


class CodegenError(ProteusError):
    """Raised when code generation produces an invalid program."""


class ExecutionError(ProteusError):
    """Raised when a generated or interpreted plan fails at run time."""


class StorageError(ProteusError):
    """Raised for binary-format, memory-manager and structural-index failures."""


class PluginError(ProteusError):
    """Raised when an input plug-in cannot serve a request."""


class UnsupportedFeatureError(ProteusError):
    """Raised for query shapes the reproduction intentionally does not cover."""


class ResilienceError(ProteusError):
    """Base class of the resilience subsystem's coded errors.

    Like :class:`AnalysisError`, each instance carries a machine-readable
    ``code`` (``RES001`` ...) so the engine's failure metrics and the planned
    multi-client server can route errors without parsing messages:

    ========  ====================================================
    RES001    query deadline expired (:class:`QueryTimeoutError`)
    RES002    query cancelled (:class:`QueryCancelledError`)
    RES003    admission queue timed out / at capacity
              (:class:`AdmissionRejectedError`)
    RES004    memory reservation can never fit the byte budget
              (:class:`MemoryBudgetError`)
    RES005    transient scan I/O still failing after the retry
              budget (:class:`ScanIOError`)
    RES006    corrupt raw data — parse/decode failure, never
              retried (:class:`CorruptDataError`)
    ========  ====================================================
    """

    code: str = "RES000"

    def __init__(self, message: str, *, dataset: str | None = None):
        self.dataset = dataset
        super().__init__(f"[{self.code}] {message}")


class QueryTimeoutError(ResilienceError):
    """Raised cooperatively (per batch / morsel / tuple stride / kernel call)
    once a query's deadline has expired."""

    code = "RES001"

    def __init__(self, message: str, *, timeout_seconds: float | None = None):
        self.timeout_seconds = timeout_seconds
        super().__init__(message)


class QueryCancelledError(ResilienceError):
    """Raised cooperatively once a query's cancellation token is set."""

    code = "RES002"


class AdmissionRejectedError(ResilienceError):
    """Raised when the admission controller cannot grant a slot before the
    queue timeout (too many concurrent queries or reserved bytes)."""

    code = "RES003"


class MemoryBudgetError(ResilienceError):
    """Raised when a query's estimated memory reservation exceeds the total
    byte budget — waiting would never help, so it is rejected immediately."""

    code = "RES004"


class ScanIOError(ResilienceError):
    """Raised when a transient raw-data I/O fault (``OSError``, truncated
    file) persists after exponential-backoff retries exhaust the per-query
    retry budget."""

    code = "RES005"

    def __init__(
        self, message: str, *, dataset: str | None = None, attempts: int = 0
    ):
        self.attempts = attempts
        super().__init__(message, dataset=dataset)


class CorruptDataError(ResilienceError):
    """Raised when raw input bytes fail to parse (corrupt JSON span, bad
    binary header).  Corruption is deterministic, so it is never retried."""

    code = "RES006"


# ---------------------------------------------------------------------------
# HTTP status mapping (the ``repro.serve`` query service)
# ---------------------------------------------------------------------------
#
# The HTTP serving layer never invents error codes: it surfaces the coded
# errors above verbatim in the response body and only *translates* them to
# an HTTP status.  The mapping, kept here next to the code tables so the two
# cannot drift:
#
# ========  ======  ====================================================
# TYP00x    400     prepare-time analysis rejection — the query itself
#                   is invalid against the registered schemas
# RES001    408     deadline expired (Request Timeout)
# RES002    499     cancelled via ``DELETE /v1/query/<id>`` (nginx's
#                   "Client Closed Request" convention)
# RES003    429     admission queue full / timed out (Too Many Requests
#                   — the client should back off and retry)
# RES004    503     the reservation can never fit the memory budget
# RES005    503     transient scan I/O outlived the retry budget — the
#                   source may recover, so the request is retryable
# RES006    500     corrupt raw data; retrying cannot help
# (other)   400     parse/plan/schema rejections of the request itself
#           404     unknown dataset (CatalogError)
#           500     any other engine failure
# SRV001    400     malformed request (framing, bad JSON, mistyped field)
# SRV002    404     unknown endpoint or resource (path, query_id)
# SRV003    404     unknown statement handle
# SRV004    409     duplicate ``query_id`` still executing
# SRV005    413     declared request body exceeds the server's limit
# ========  ======  ====================================================
#
# The ``SRV00x`` rows are protocol-level failures that never reach the
# engine; ``repro.serve.mapping`` describes them.  A failure of an execution
# (any ``RES`` code, admission refusals included) carries the execution's
# one profile, marked aborted, as ``exc.profile``: the body reports it as
# ``profile`` and its ``partial_progress`` — batches, rows and morsels, a
# read of that profile's counters, so the two always agree.

#: Machine-readable error code -> HTTP status (exact-code entries).
HTTP_STATUS_BY_CODE: dict[str, int] = {
    "RES001": 408,
    "RES002": 499,
    "RES003": 429,
    "RES004": 503,
    "RES005": 503,
    "RES006": 500,
    "SRV001": 400,
    "SRV002": 404,
    "SRV003": 404,
    "SRV004": 409,
    "SRV005": 413,
}

#: Statuses for coded families and uncoded error classes (see table above).
HTTP_STATUS_DEFAULT: int = 500


def error_code(exc: BaseException) -> str:
    """The machine-readable code carried by ``exc`` (``"internal"`` if none).

    Mirrors the engine's failure-metrics labelling: coded errors
    (:class:`AnalysisError`, :class:`ResilienceError`) expose ``.code``;
    everything else is labelled by what it is, not what it says.
    """
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code:
        return code
    return "internal"


def http_status_for(exc: BaseException) -> int:
    """HTTP status the serving layer answers with for ``exc``."""
    code = getattr(exc, "code", None)
    if isinstance(code, str):
        status = HTTP_STATUS_BY_CODE.get(code)
        if status is not None:
            return status
        if code.startswith("TYP"):
            return 400
    if isinstance(exc, CatalogError):
        return 404
    if isinstance(
        exc,
        (
            ParseError,
            SchemaError,
            PlanningError,
            TranslationError,
            UnsupportedFeatureError,
        ),
    ):
        return 400
    return HTTP_STATUS_DEFAULT
