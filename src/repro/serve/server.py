"""Threaded stdlib HTTP binding for :class:`~repro.serve.service.SolverService`.

Endpoints
---------
``POST /solve``
    Body: one :meth:`ScenarioSpec.to_json` document.  Response: one JSON
    envelope ``{"scenario_id", "source", "cached", "seconds", "result"}``.
    The body is handed to the service as bytes: a body the service has
    parsed before is not decoded or parsed again, and the reply splices
    in the cached text of a payload it has encoded before (see
    :mod:`repro.serve.service`).
    With ``?debug=trace`` the envelope also carries a ``"trace"`` key: the
    request's per-stage span summary (see :mod:`repro.obs`).  With
    ``?verify=1`` the answer is certified before it is served (cached
    damage is quarantined and transparently re-solved; see
    :mod:`repro.scenarios.certify`) and the envelope carries
    ``"verify": "passed"``; ``?verify=0`` opts out of a server-wide
    ``--verify`` default.  ``?verify=`` works on ``/suite`` too.
``POST /suite``
    Body: one :meth:`SuiteSpec.to_json` document.  Response: NDJSON --
    one ``{"type": "result", ...}`` line per scenario, streamed as each is
    solved, then a final ``{"type": "summary", ...}`` line.  The stream is
    close-delimited (``Connection: close``), so clients just read lines
    until EOF.
``GET /metrics`` / ``GET /healthz``
    Observability snapshots (see :meth:`SolverService.metrics`): JSON by
    default; ``/metrics?format=prometheus`` returns the text exposition
    format with its proper Content-Type, and an unknown ``format=`` value
    is a 400.

Error contract: caller mistakes (malformed JSON, schema violations,
unknown families) are **400** with ``{"error": {"type": "bad_request",
"message": ...}}`` -- never a 500, never a traceback; unknown paths are
404, wrong methods 405.  A spec whose instance cannot be built (the
family's generator raises :class:`~repro.exceptions.ConstructionError`)
is a **422** ``construction_failed``: the failure is deterministic, so
retrying cannot help.  Any other solve failure is a 500 ``solve_failed``,
and anything unexpected is a 500 with the exception's one-line rendering.
``POST /suite`` streams a failed scenario as an ``error`` record carrying
the same type names and carries on with the next scenario.

The server is :class:`http.server.HTTPServer`-based with a thread per
connection in flight, which is exactly the concurrency the service's
single-flight scheduler is built to absorb.  A handler thread whose
connection is done parks for the next one (up to a small cap) instead of
exiting, so a steady stream of requests does not start an OS thread per
request; a connection that finds no parked thread starts a new one, so
``max_inflight`` stays the only concurrency limit.

Request heads are parsed here, not by the stdlib's ``email``-based header
parser: the request line gets the stdlib's own checks and replies (400,
505, a leading ``//`` collapsed to ``/``), and each header line is split
at its first colon into a case-insensitive mapping under the stdlib's
limits (a line over 65536 bytes or a head over 100 lines is a 431).  A
field line with no colon, or an obsolete folded continuation line, is a
400 (RFC 9112 section 5).  Replies are HTTP/1.0, so every connection
closes after one reply and there is no keep-alive or ``Expect:
100-continue`` handling.  A reply with a body goes out in one write, head
and body together; the protocol-error replies are the stdlib's
``send_error`` pages.
"""

from __future__ import annotations

import json
import queue
import threading
import warnings
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..exceptions import ConstructionError
from ..obs.trace import span
from .service import (
    DeadlineExceeded,
    ScenarioSolveError,
    ServeRequestError,
    SolverService,
    deadline_seconds,
)

__all__ = ["DEFAULT_PORT", "MAX_BODY_BYTES", "ReproServer"]

DEFAULT_PORT = 8008

#: Reject request bodies beyond this size with a 400 instead of reading
#: them into memory; suite files are a few kilobytes, so 8 MiB is generous.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Handler threads kept parked for the next connection once theirs is
#: done; the extra threads of a burst exit instead of lingering.  Sized
#: for the serve benchmark's replay (``benchmarks/test_bench_serve.py``),
#: 8 closed-loop clients: they keep at most 10 connections in flight (a
#: client may send its next request before its last thread has parked),
#: and three replays of 3000 requests start 15 threads with this cap.
_MAX_PARKED_HANDLERS = 8


#: The stdlib's limits on a request head, those ``http.client`` applies:
#: bytes per line, and lines after the request line counting the blank
#: one that ends the head.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100


class _Fields:
    """A request's header fields, looked up case-insensitively."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, List[str]] = {}

    def add(self, name: str, value: str) -> None:
        self._values.setdefault(name.lower(), []).append(value)

    def get_all(self, name: str) -> List[str]:
        """Every value of field ``name``, in arrival order."""
        return list(self._values.get(name.lower(), ()))


class _Handler(BaseHTTPRequestHandler):
    """Route requests into the server's :class:`SolverService`."""

    server_version = f"repro-serve/{__version__}"
    # HTTP/1.0 keeps bodies close-delimited, which is what lets /suite
    # stream NDJSON without chunked-encoding bookkeeping.
    protocol_version = "HTTP/1.0"

    @property
    def service(self) -> SolverService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Request head
    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and the header lines that follow it.

        Sets ``command``, ``path``, ``request_version`` and ``headers``
        and returns True, or sends the error reply and returns False.  The
        request line gets the stdlib's checks, statuses and messages.
        """
        self.command = None  # set in case of an error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                major, minor = base_version_number.split(".")
                if not (major.isdigit() and minor.isdigit()):
                    raise ValueError("non digit in http version")
                if len(major) > 10 or len(minor) > 10:
                    raise ValueError("unreasonable length http version")
                version_number = int(major), int(minor)
            except (ValueError, IndexError):
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Bad request version (%r)" % version
                )
                return False
            if version_number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % base_version_number,
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, "Bad request syntax (%r)" % requestline
            )
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(
                HTTPStatus.BAD_REQUEST, "Bad HTTP/0.9 request type (%r)" % command
            )
            return False
        self.command = command
        # A leading "//" would read as a scheme-less absolute URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        fields = _Fields()
        lines = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading header line",
                )
                return False
            lines += 1
            if lines > _MAX_HEAD_LINES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {_MAX_HEAD_LINES} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.partition(b":")
            if not colon or line[0] in b" \t":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad header line",
                    "a header field line needs a colon and may not be "
                    "folded (RFC 9112 section 5)",
                )
                return False
            fields.add(
                name.decode("iso-8859-1"), value.strip().decode("iso-8859-1")
            )
        # Under HTTP/1.0 every connection closes after one reply and no
        # 100-continue is sent, so Connection and Expect change nothing.
        self.headers = fields
        return True

    # ------------------------------------------------------------------
    # Response helpers
    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_body(
            status, (json.dumps(payload) + "\n").encode("utf-8"),
            "application/json",
            headers=headers,
        )

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        head = self._head(
            status,
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(body))),
                *(headers or {}).items(),
            ],
        )
        self.wfile.write(head + body)

    def _head(self, status: int, headers: Sequence[Tuple[str, str]]) -> bytes:
        """Log the reply and return its head: the status line, ``Server``,
        ``Date``, then ``headers``; no head at all for HTTP/0.9."""
        self.log_request(status)
        if self.request_version == "HTTP/0.9":
            return b""
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            *(f"{name}: {value}" for name, value in headers),
        ]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def _split_path(self) -> Tuple[str, Dict[str, str]]:
        """Path and flattened (last-value-wins) query of the request."""
        parts = urlsplit(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(
                parts.query, keep_blank_values=True
            ).items()
        }
        return parts.path, query

    def _send_error_json(self, status: int, type_: str, message: str) -> None:
        self.service.count_error()
        self._send_json(status, {"error": {"type": type_, "message": message}})

    def _read_body(self) -> bytes:
        try:
            lengths = {
                int(value or 0) for value in self.headers.get_all("Content-Length")
            }
        except ValueError:
            raise ServeRequestError("invalid Content-Length header") from None
        if len(lengths) > 1:
            # Two framings of one message: a proxy in front may have used
            # the other one (request smuggling).  Equal copies read as one.
            raise ServeRequestError("conflicting Content-Length headers")
        length = lengths.pop() if lengths else 0
        if length <= 0:
            raise ServeRequestError(
                "request body required: POST a spec JSON document "
                "with a Content-Length header"
            )
        if length > MAX_BODY_BYTES:
            raise ServeRequestError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        try:
            path, query = self._split_path()
            if path == "/healthz":
                self._send_json(200, self.service.healthz())
            elif path == "/metrics":
                self._serve_metrics(query)
            elif path in ("/solve", "/suite"):
                self._send_error_json(
                    405, "method_not_allowed", f"{path} requires POST"
                )
            else:
                self._send_error_json(
                    404,
                    "not_found",
                    f"unknown path {path!r}; endpoints: "
                    "POST /solve, POST /suite, GET /metrics, GET /healthz",
                )
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._internal_error(exc)

    def _serve_metrics(self, query: Dict[str, str]) -> None:
        """``GET /metrics``: JSON by default, ``?format=prometheus`` for
        text exposition; an unrecognised format is the caller's error."""
        fmt = query.get("format", "json")
        if fmt == "json":
            self._send_json(200, self.service.metrics())
        elif fmt == "prometheus":
            self._send_body(
                200,
                self.service.render_prometheus().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_error_json(
                400,
                "bad_request",
                f"unknown metrics format {fmt!r}; expected "
                "'json' or 'prometheus'",
            )

    def _parse_deadline(self, query: Dict[str, str]) -> Optional[float]:
        """``?deadline_s=`` through :func:`deadline_seconds`; absent means
        the default."""
        raw = query.get("deadline_s")
        if raw is None:
            return None
        try:
            return deadline_seconds(raw)
        except ValueError as exc:
            raise ServeRequestError(f"invalid deadline_s: {exc}") from None

    @staticmethod
    def _parse_verify(query: Dict[str, str]) -> Optional[bool]:
        """``?verify=1`` / ``?verify=0`` as a tri-state request override.

        Absent means ``None`` -- the service-wide ``--verify`` default
        applies; anything other than the accepted spellings is a 400.
        """
        raw = query.get("verify")
        if raw is None:
            return None
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ServeRequestError(
            f"invalid verify value {raw!r}; expected 1/0 (or true/false)"
        )

    def do_POST(self) -> None:
        streaming = False
        admitted = False
        try:
            path, query = self._split_path()
            if path in ("/solve", "/suite"):
                # Load shedding happens before the body is even read: a
                # saturated server answers cheaply and tells the client
                # when to come back.
                if not self.service.try_admit():
                    self._send_json(
                        503,
                        {
                            "error": {
                                "type": "overloaded",
                                "message": (
                                    "server is at its in-flight request "
                                    f"limit ({self.service.max_inflight}); "
                                    "retry shortly"
                                ),
                            }
                        },
                        headers={"Retry-After": "1"},
                    )
                    return
                admitted = True
            if path == "/solve":
                deadline_s = self._parse_deadline(query)
                debug_trace = query.get("debug") == "trace"
                with span("http.request", method="POST", path=path):
                    body = self._read_body()
                    try:
                        verify = self._parse_verify(query)
                    except ServeRequestError:
                        # A body that is not UTF-8 is reported first.
                        self.service.decode_body(body)
                        raise
                    envelope = self.service.solve_scenario_json(
                        body,
                        debug_trace=debug_trace,
                        deadline_s=deadline_s,
                        verify=verify,
                    )
                self._send_body(
                    200,
                    (self.service.envelope_json(envelope) + "\n").encode("utf-8"),
                    "application/json",
                )
            elif path == "/suite":
                # Parse + validate the whole suite *before* committing to a
                # 200: ServeRequestError here still becomes a clean 400.
                stream = self.service.iter_suite_json(
                    self.service.decode_body(self._read_body()),
                    deadline_s=self._parse_deadline(query),
                    verify=self._parse_verify(query),
                )
                streaming = True
                self.wfile.write(
                    self._head(
                        200,
                        [
                            ("Content-Type", "application/x-ndjson"),
                            ("Connection", "close"),
                        ],
                    )
                )
                with span("http.request", method="POST", path=path):
                    for record in stream:
                        self.wfile.write(
                            (json.dumps(record) + "\n").encode("utf-8")
                        )
                        self.wfile.flush()
            elif path in ("/metrics", "/healthz"):
                self._send_error_json(
                    405, "method_not_allowed", f"{path} requires GET"
                )
            else:
                self._send_error_json(
                    404,
                    "not_found",
                    f"unknown path {path!r}; endpoints: "
                    "POST /solve, POST /suite, GET /metrics, GET /healthz",
                )
        except ServeRequestError as exc:
            self._send_error_json(400, "bad_request", str(exc))
        except DeadlineExceeded as exc:
            self._send_error_json(504, "deadline_exceeded", str(exc))
        except ScenarioSolveError as exc:
            if isinstance(exc.cause, ConstructionError):
                # Deterministic: the same spec fails the same way on retry.
                self._send_error_json(422, "construction_failed", str(exc))
            else:
                self._send_error_json(500, "solve_failed", str(exc))
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:
            if streaming:
                # Headers are gone; the best we can do is a terminal error
                # record so the client knows the stream is truncated.
                self.service.count_error()
                try:
                    record = {
                        "type": "error",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                    self.wfile.write((json.dumps(record) + "\n").encode("utf-8"))
                except OSError:
                    pass
            else:
                self._internal_error(exc)
        finally:
            if admitted:
                self.service.release()

    def _internal_error(self, exc: Exception) -> None:
        try:
            self._send_error_json(500, "internal", f"{type(exc).__name__}: {exc}")
        except OSError:  # pragma: no cover - connection already dead
            pass


class ReproServer(HTTPServer):
    """The solve service bound to a socket; a handler thread per connection.

    Handler threads are daemons and are reused: a connection goes to a
    parked thread when one is idle, and a new thread is started only when
    none is.  A thread whose connection is done parks again, up to
    ``_MAX_PARKED_HANDLERS``, and exits beyond that.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.SolverService` requests run
        through.  The server does not own its lifecycle -- callers close
        the service after :meth:`stop` (the CLI and the context-manager
        form both do).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port, readable from
        :attr:`port` after construction.
    verbose:
        Re-enable ``http.server``'s per-request stderr log lines.
    """

    allow_reuse_address = True
    # The stock listen backlog of 5 drops connections under a burst of
    # concurrent clients — exactly the coalescing workload this server is
    # for.  128 absorbs any realistic burst (the kernel caps it anyway).
    request_queue_size = 128

    def __init__(
        self,
        service: SolverService,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        verbose: bool = False,
    ) -> None:
        # Set before binding: a failed bind calls server_close().
        # One inbox per parked handler thread, with the thread itself so
        # server_close can join it; ``None`` in an inbox tells it to exit.
        self._parked: List[Tuple[threading.Thread, "queue.SimpleQueue[Any]"]] = []
        self._parked_lock = threading.Lock()
        self._closing = False
        super().__init__((host, port), _Handler)
        self.service = service
        self.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def process_request(self, request: Any, client_address: Any) -> None:
        """Hand the connection to a parked handler thread, or start one."""
        with self._parked_lock:
            if self._parked:
                _, inbox = self._parked.pop()
                inbox.put((request, client_address))
                return
        threading.Thread(
            target=self._handle_connections,
            args=(request, client_address),
            name="repro-serve-handler",
            daemon=True,
        ).start()

    def _handle_connections(self, request: Any, client_address: Any) -> None:
        """A handler thread: serve connections while there is room to park."""
        inbox: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        while True:
            try:
                try:
                    self.finish_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                # Park before the close, so a client that reads its reply
                # to EOF finds this thread ready for its next connection.
                # An exception that escapes the handler skips this: the
                # thread dies and must not be handed another connection.
                parked = self._park(inbox)
            finally:
                self.shutdown_request(request)
            if not parked:
                return
            handoff = inbox.get()
            if handoff is None:
                return
            request, client_address = handoff

    def _park(self, inbox: "queue.SimpleQueue[Any]") -> bool:
        """Park the calling thread on ``inbox``, unless the cap is reached."""
        with self._parked_lock:
            if self._closing or len(self._parked) >= _MAX_PARKED_HANDLERS:
                return False
            self._parked.append((threading.current_thread(), inbox))
            return True

    def server_close(self) -> None:
        """Close the socket; wake the parked handler threads and join them.

        A thread still busy with a request is a daemon and is not waited
        for: :meth:`stop` has already given it ``timeout`` to drain.
        """
        super().server_close()
        with self._parked_lock:
            self._closing = True
            parked, self._parked = self._parked, []
        for _, inbox in parked:
            inbox.put(None)
        for thread, _ in parked:
            thread.join()

    def start_background(self) -> "ReproServer":
        """Serve from a daemon thread; returns ``self`` for chaining."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting, drain in-flight work, release the socket.

        Shutdown is graceful: no new connections are accepted, then
        in-flight requests get (up to) ``timeout`` seconds to finish
        before the socket is closed and the parked handler threads are
        joined.  A serving thread that survives the
        join is a *leak*, not a success — the socket is force-closed and
        a :class:`RuntimeError` raised instead of returning silently with
        the port possibly still held.
        """
        self.shutdown()
        if not self.service.drain(timeout=timeout):
            warnings.warn(
                f"serve: {self.service.inflight} in-flight request(s) did "
                f"not drain within {timeout:g}s; closing the socket anyway",
                RuntimeWarning,
                stacklevel=2,
            )
        self.server_close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                try:
                    self.socket.close()
                except OSError:
                    pass
                raise RuntimeError(
                    f"serving thread did not exit within {timeout:g}s of "
                    "shutdown; the socket has been force-closed but the "
                    "thread is leaked"
                )

    def __enter__(self) -> "ReproServer":
        return self.start_background()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
        self.service.close()
