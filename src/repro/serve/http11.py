"""HTTP/1.1 framing of the query service: one request in, one response out.

A :class:`Connection` wraps one accepted client socket together with the
bytes already received but not yet consumed, so a request that arrived in
the same segment as its predecessor (pipelining) is served from the buffer
instead of being lost between two reads.  The server's worker threads call
:meth:`Connection.read_request` / :meth:`Connection.send_response`; nothing
in here knows about the engine or the endpoint table.

Framing rules (the parts that are load-bearing on a persistent connection):

* The declared body is always consumed before the request is routed, so an
  error answer to an unknown route can never leave body bytes behind to be
  parsed as the next request.
* Whatever cannot be framed — a malformed request line, a missing or
  non-numeric ``Content-Length`` on a ``POST``, a chunked request body, an
  oversized head or body — raises :class:`FramingError`; the server answers
  it with ``Connection: close`` because the stream position is unknown.
* ``HTTP/1.1`` requests keep the connection alive unless they say
  ``Connection: close``; ``HTTP/1.0`` requests are one-shot.
* A response is one ``sendall`` of status line + headers + body on a
  ``TCP_NODELAY`` socket: two small writes on a kept-alive connection run
  into the Nagle / delayed-ACK interaction and stall for tens of
  milliseconds.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus

SERVER_NAME = "proteus-serve/1.1"

#: A request head (request line + headers) beyond this is rejected.
MAX_HEADER_BYTES = 64 * 1024
#: A declared request body beyond this is refused with 413 (``SRV005``)
#: without being read.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Seconds a worker waits for the rest of a request it started reading, or
#: for a slow reader to take a response, before dropping the connection.
IO_TIMEOUT_SECONDS = 10.0

_RECV_BYTES = 64 * 1024
_HEAD_END = b"\r\n\r\n"

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_REASONS[499] = "Client Closed Request"  # nginx's convention, see errors.py


class FramingError(Exception):
    """The bytes on the connection do not frame a request this server reads.

    Carries the protocol answer (``SRV`` code, message); the connection is
    closed after it is sent.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Request:
    """One framed request: the body has been read off the connection."""

    method: str
    path: str
    body: bytes
    #: Whether the client may send another request on this connection.
    keep_alive: bool


class Connection:
    """One client socket plus its unconsumed received bytes."""

    __slots__ = ("sock", "_buffer", "idle_deadline")

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(IO_TIMEOUT_SECONDS)
        self.sock = sock
        self._buffer = bytearray()
        #: When the event loop closes this connection if it is still parked
        #: (``time.monotonic()`` clock); owned by the loop thread.
        self.idle_deadline = 0.0

    def fileno(self) -> int:
        return self.sock.fileno()

    @property
    def has_buffered_bytes(self) -> bool:
        """Bytes of a further request were received with the previous one."""
        return bool(self._buffer)

    def _fill(self) -> bool:
        chunk = self.sock.recv(_RECV_BYTES)
        self._buffer += chunk
        return bool(chunk)

    def await_bytes(self, seconds: float) -> bool:
        """Wait up to ``seconds`` for the peer's next bytes (or its FIN);
        False when nothing arrived."""
        self.sock.settimeout(seconds)
        try:
            self._fill()
        except TimeoutError:
            return False
        finally:
            self.sock.settimeout(IO_TIMEOUT_SECONDS)
        return True

    def read_request(self) -> Request | None:
        """The next request, or ``None`` when the peer closed the connection
        (cleanly between requests, or giving up in the middle of one).

        Raises :class:`FramingError` for bytes that cannot be framed and
        ``OSError`` (``TimeoutError`` included) for a dead or stalled peer.
        """
        buffer = self._buffer
        end = buffer.find(_HEAD_END)
        while end < 0:
            if len(buffer) > MAX_HEADER_BYTES:
                raise FramingError("SRV001", "request head too large")
            searched = max(len(buffer) - len(_HEAD_END) + 1, 0)
            if not self._fill():
                return None
            end = buffer.find(_HEAD_END, searched)
        lines = buffer[:end].decode("iso-8859-1").split("\r\n")
        del buffer[: end + len(_HEAD_END)]

        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise FramingError("SRV001", "malformed HTTP/1.x request line")
        method, path, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon:
                raise FramingError("SRV001", "malformed header line")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise FramingError("SRV001", "conflicting Content-Length headers")
            headers[name] = value

        if "transfer-encoding" in headers:
            raise FramingError(
                "SRV001",
                "chunked request bodies are not supported; send Content-Length",
            )
        declared = headers.get("content-length")
        if declared is None:
            if method == "POST":
                raise FramingError(
                    "SRV001", "request requires a Content-Length header"
                )
            length = 0
        elif not (declared.isascii() and declared.isdigit()):
            raise FramingError("SRV001", "Content-Length is not a number")
        elif len(declared) > 12 or int(declared) > MAX_BODY_BYTES:
            raise FramingError(
                "SRV005",
                f"request body of {declared} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        else:
            length = int(declared)
        if len(buffer) < length and headers.get("expect", "").lower() == "100-continue":
            self.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        while len(buffer) < length:
            if not self._fill():
                return None
        body = bytes(buffer[:length])
        del buffer[:length]

        tokens = headers.get("connection", "").lower()
        # HEAD is not served (its 404 carries a body the client will not
        # read), so the stream cannot be trusted afterwards.
        keep_alive = (
            version != "HTTP/1.0" and "close" not in tokens and method != "HEAD"
        )
        return Request(method, path, body, keep_alive)

    def send_response(
        self, status: int, content_type: str, body: bytes, keep_alive: bool
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Server: {SERVER_NAME}\r\n"
            f"Date: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        self.sock.sendall(head.encode("ascii") + body)

    def shutdown_read(self) -> None:
        """Make a reader blocked on this connection see end-of-stream (a
        response in progress can still be written); used by ``stop()``."""
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already closed or reset by the peer

    def close(self) -> None:
        self.sock.close()
