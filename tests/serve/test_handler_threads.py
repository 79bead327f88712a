"""ReproServer's handler threads: reuse, concurrency, cap, shutdown, bytes.

A connection goes to a parked handler thread when one is idle and starts a
new thread only when none is; a thread parks again after its connection,
up to a small cap, and ``stop()`` leaves no parked thread behind.  The
reply bytes are pinned below, ``Date`` aside, together with the replies to
malformed request heads.

The client here reads every reply to EOF, as the server closes each
connection (HTTP/1.0), so the sequence of accepts and parks is
deterministic and the thread counts are exact.
"""

from __future__ import annotations

import html
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler
from typing import List

import pytest

from repro import __version__
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec
from repro.serve import ReproServer, SolverService
from repro.serve.server import _MAX_PARKED_HANDLERS

SPEC = ScenarioSpec(family="cycle", params={"n": 8}, seed=2, radii=(1,))
SLOW = ScenarioSpec(family="path", params={"n": 7}, seed=3, radii=(1,))
UNBUILDABLE = ScenarioSpec(
    family="random_regular_bipartite",
    params={"n_side": 16, "degree": 4},
    seed=0,
    radii=(1,),
)


def _exchange(port: int, request: bytes) -> bytes:
    """Send one raw request and read the reply until the server closes.

    A reset after the reply counts as the close: the server may close with
    part of an oversized request unread.
    """
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        try:
            sock.sendall(request)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def _post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.0\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii")


def _split(reply: bytes):
    """``(status line, headers without Date, body)`` of a raw reply."""
    head, body = reply.split(b"\r\n\r\n", 1)
    status, *headers = head.decode("latin-1").split("\r\n")
    dates = [line for line in headers if line.startswith("Date: ")]
    assert len(dates) == 1 and headers.index(dates[0]) == 1, headers
    return status, [line for line in headers if line not in dates], body


def _status(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


@pytest.fixture()
def handler_threads(monkeypatch) -> List[threading.Thread]:
    """Every thread the serving thread starts, i.e. every handler thread."""
    started: List[threading.Thread] = []
    real_start = threading.Thread.start

    def start(thread: threading.Thread) -> None:
        if threading.current_thread().name == "repro-serve":
            started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _block_solves(service: SolverService) -> threading.Event:
    """Make the service's solves wait until the returned event is set."""
    release = threading.Event()
    solve = service._solve_specs

    def blocked(specs):
        assert release.wait(30), "test never released the solve"
        return solve(specs)

    service._solve_specs = blocked
    return release


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def test_sequential_requests_reuse_one_handler_thread(handler_threads):
    service = SolverService()
    with ReproServer(service, port=0) as server:
        replies = [
            _exchange(server.port, _post("/solve", SPEC.to_json().encode()))
            for _ in range(6)
        ]
    assert [_status(reply) for reply in replies] == [200] * 6
    assert len(handler_threads) == 1
    assert not handler_threads[0].is_alive()


def test_slow_solve_does_not_delay_a_cache_hit(handler_threads):
    service = SolverService()
    with ReproServer(service, port=0) as server:
        warm = _exchange(server.port, _post("/solve", SPEC.to_json().encode()))
        assert _status(warm) == 200
        release = _block_solves(service)
        slow: List[bytes] = []
        client = threading.Thread(
            target=lambda: slow.append(
                _exchange(server.port, _post("/solve", SLOW.to_json().encode()))
            )
        )
        client.start()
        try:
            assert _wait_until(lambda: service.inflight == 1)
            hit = _exchange(server.port, _post("/solve", SPEC.to_json().encode()))
            assert not slow, "the slow solve finished before it was released"
        finally:
            release.set()
            client.join(30)
    assert _status(hit) == 200
    assert json.loads(_split(hit)[2])["source"] == "cache"
    assert _status(slow[0]) == 200
    assert len(handler_threads) == 2  # the held thread could not take the hit


def test_burst_leaves_at_most_the_cap_parked_and_stop_leaves_none(
    handler_threads,
):
    clients = 16
    assert clients > _MAX_PARKED_HANDLERS
    service = SolverService()
    release = _block_solves(service)
    with ReproServer(service, port=0) as server:
        replies: List[bytes] = []
        body = SPEC.to_json().encode()
        burst = [
            threading.Thread(
                target=lambda: replies.append(
                    _exchange(server.port, _post("/solve", body))
                )
            )
            for _ in range(clients)
        ]
        for thread in burst:
            thread.start()
        try:
            # Every request is held in (or coalesced onto) the one solve.
            assert _wait_until(lambda: service.inflight == clients)
        finally:
            release.set()
            for thread in burst:
                thread.join(30)
        assert [_status(reply) for reply in replies] == [200] * clients
        assert len(handler_threads) == clients
        assert _wait_until(
            lambda: sum(t.is_alive() for t in handler_threads)
            <= _MAX_PARKED_HANDLERS
        )
        assert sum(t.is_alive() for t in handler_threads) <= _MAX_PARKED_HANDLERS
    assert not any(thread.is_alive() for thread in handler_threads)


def test_handoff_under_contention_answers_every_request(handler_threads):
    """More clients than cores and a short switch interval: no connection
    is lost between the dispatcher and a parking thread, and after
    ``stop()`` every handler thread exits."""
    clients, rounds = 12, 10
    service = SolverService()
    request = _post("/solve", SPEC.to_json().encode())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ReproServer(service, port=0) as server:
            assert _status(_exchange(server.port, request)) == 200
            replies: List[bytes] = []

            def client() -> None:
                for _ in range(rounds):
                    replies.append(_exchange(server.port, request))

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert [_status(reply) for reply in replies] == [200] * clients * rounds
    for thread in handler_threads:  # those past the cap exit on their own
        thread.join(5)
    assert not any(thread.is_alive() for thread in handler_threads)


def test_stop_does_not_wait_for_a_request_held_past_its_timeout(
    handler_threads,
):
    """A busy handler thread is not joined: ``stop(timeout)`` returns after
    the drain timeout (with its warning) while the request is still held."""
    service = SolverService()
    release = _block_solves(service)
    server = ReproServer(service, port=0).start_background()
    request = _post("/solve", SPEC.to_json().encode())
    client = threading.Thread(target=lambda: _exchange(server.port, request))
    client.start()
    try:
        assert _wait_until(lambda: service.inflight == 1)
        begin = time.monotonic()
        with pytest.warns(RuntimeWarning, match="did not drain"):
            server.stop(timeout=0.2)
        assert time.monotonic() - begin < 5.0
        assert handler_threads[0].is_alive()  # still holding the request
    finally:
        release.set()
        client.join(30)
        handler_threads[0].join(30)
    assert not client.is_alive() and not handler_threads[0].is_alive()


def test_bind_failure_raises_the_os_error():
    """A port already in use surfaces as the bind's ``OSError``."""
    with ReproServer(SolverService(), port=0) as server:
        with pytest.raises(OSError):
            ReproServer(SolverService(), port=server.port)


class _Escape(BaseException):
    """Not an ``Exception``: the handler's ``except`` lets it through."""


def test_thread_killed_by_its_handler_is_not_handed_a_connection(
    handler_threads, monkeypatch
):
    """A handler thread that dies of an escaping exception never parks, so
    the next connection starts a new thread instead of going to the dead
    one's inbox; the dead thread's connection is still closed."""
    escaped: List[BaseException] = []
    monkeypatch.setattr(
        threading, "excepthook", lambda args: escaped.append(args.exc_value)
    )
    service = SolverService()
    request = _post("/solve", SPEC.to_json().encode())
    with ReproServer(service, port=0) as server:
        finish = server.finish_request

        def dies_once(request, client_address):
            if not escaped and len(handler_threads) == 1:
                raise _Escape()
            finish(request, client_address)

        server.finish_request = dies_once
        assert _exchange(server.port, request) == b""  # closed, not hung
        handler_threads[0].join(5)
        assert not handler_threads[0].is_alive()
        assert _status(_exchange(server.port, request)) == 200
    assert [type(exc) for exc in escaped] == [_Escape]
    assert len(handler_threads) == 2


def _json_body(payload) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _error(type_: str, message: str) -> bytes:
    return _json_body({"error": {"type": type_, "message": message}})


SERVER_HEADER = (
    f"Server: repro-serve/{__version__} Python/{sys.version.split()[0]}"
)
ENDPOINTS = "POST /solve, POST /suite, GET /metrics, GET /healthz"

#: name -> (request, status line, expected body, extra headers)
ERROR_REPLIES = {
    "400": (
        _post("/solve", b""),
        "HTTP/1.0 400 Bad Request",
        _error(
            "bad_request",
            "request body required: POST a spec JSON document with a "
            "Content-Length header",
        ),
        [],
    ),
    "404": (
        _get("/nope"),
        "HTTP/1.0 404 Not Found",
        _error("not_found", f"unknown path '/nope'; endpoints: {ENDPOINTS}"),
        [],
    ),
    "405": (
        _get("/solve"),
        "HTTP/1.0 405 Method Not Allowed",
        _error("method_not_allowed", "/solve requires POST"),
        [],
    ),
    "422": (
        _post("/solve", UNBUILDABLE.to_json().encode()),
        "HTTP/1.0 422 Unprocessable Entity",
        _error(
            "construction_failed",
            f"scenario {UNBUILDABLE.scenario_id} failed: ConstructionError: "
            "failed to sample a simple 4-regular bipartite graph on 16+16 "
            "vertices in 200 attempts",
        ),
        [],
    ),
    "503": (
        _post("/solve", SPEC.to_json().encode()),
        "HTTP/1.0 503 Service Unavailable",
        _error(
            "overloaded",
            "server is at its in-flight request limit (1); retry shortly",
        ),
        ["Retry-After: 1"],
    ),
}


@pytest.mark.parametrize("name", sorted(ERROR_REPLIES))
def test_error_replies_keep_their_bytes(name):
    request, status_line, body, extra = ERROR_REPLIES[name]
    service = SolverService(max_inflight=1)
    with ReproServer(service, port=0) as server:
        if name == "503":
            assert service.try_admit()  # occupy the only slot
        try:
            reply = _exchange(server.port, request)
        finally:
            if name == "503":
                service.release()
    assert _split(reply) == (
        status_line,
        [
            SERVER_HEADER,
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            *extra,
        ],
        body,
    )


def test_solve_reply_keeps_its_bytes():
    service = SolverService()
    with ReproServer(service, port=0) as server:
        reply = _exchange(server.port, _post("/solve", SPEC.to_json().encode()))
    status, headers, body = _split(reply)
    (direct,) = list(SuiteRunner().run([SPEC]))
    result = direct.as_dict()
    result.pop("seconds")
    expected = _json_body(
        {
            "scenario_id": SPEC.scenario_id,
            "source": "solved",
            "cached": False,
            "seconds": json.loads(body)["seconds"],  # the one timed field
            "result": result,
        }
    )
    assert (status, headers, body) == (
        "HTTP/1.0 200 OK",
        [
            SERVER_HEADER,
            "Content-Type: application/json",
            f"Content-Length: {len(expected)}",
        ],
        expected,
    )


def _page(code: int, message: str, explain: str):
    """Headers after ``Date`` and the HTML body of a stdlib ``send_error``."""
    body = (
        BaseHTTPRequestHandler.error_message_format
        % {
            "code": code,
            "message": html.escape(message, quote=False),
            "explain": html.escape(explain, quote=False),
        }
    ).encode("utf-8")
    headers = [
        "Connection: close",
        "Content-Type: text/html;charset=utf-8",
        f"Content-Length: {len(body)}",
    ]
    return headers, body


#: Stands for the ``/healthz`` JSON, whose ``uptime_seconds`` is timed.
HEALTHZ = b"<healthz>"
BAD_SYNTAX = "Bad request syntax or unsupported method"
GET_HEALTHZ = b"GET /healthz HTTP/1.0\r\n"

#: name -> (request, status line or None for a reply without a head, the
#: headers after ``Date``, body).  The stdlib's ``send_error`` writes these
#: replies; a request line it cannot read as HTTP/1.x leaves the request at
#: HTTP/0.9, whose replies have no head.
PROTOCOL_REPLIES = {
    "414-request-line-too-long": (
        b"GET /" + b"a" * 65536 + b" HTTP/1.0\r\n\r\n",
        "HTTP/1.0 414 Request-URI Too Long",
        *_page(414, "Request-URI Too Long", "URI is too long"),
    ),
    "431-header-line-too-long": (
        GET_HEALTHZ + b"X-Long: " + b"a" * 65536 + b"\r\n\r\n",
        "HTTP/1.0 431 Line too long",
        *_page(
            431,
            "Line too long",
            "got more than 65536 bytes when reading header line",
        ),
    ),
    "431-101-header-lines": (
        GET_HEALTHZ
        + b"".join(b"X-%d: 1\r\n" % i for i in range(101))
        + b"\r\n",
        "HTTP/1.0 431 Too many headers",
        *_page(431, "Too many headers", "got more than 100 headers"),
    ),
    "400-version-x.y": (
        b"GET /healthz HTTP/x.y\r\n\r\n",
        None,
        None,
        _page(400, "Bad request version ('HTTP/x.y')", BAD_SYNTAX)[1],
    ),
    "505-version-2.0": (
        b"GET /healthz HTTP/2.0\r\n\r\n",
        None,
        None,
        _page(505, "Invalid HTTP version (2.0)", "Cannot fulfill request")[1],
    ),
    "400-four-words": (
        b"GET /healthz extra HTTP/1.0\r\n\r\n",
        "HTTP/1.0 400 Bad request syntax ('GET /healthz extra HTTP/1.0')",
        *_page(
            400, "Bad request syntax ('GET /healthz extra HTTP/1.0')", BAD_SYNTAX
        ),
    ),
    "400-post-without-version": (
        b"POST /solve\r\n\r\n",
        None,
        None,
        _page(400, "Bad HTTP/0.9 request type ('POST')", BAD_SYNTAX)[1],
    ),
    "http-0.9-get": (b"GET /healthz\r\n\r\n", None, None, HEALTHZ),
    "blank-request-line": (b"\r\n", None, None, b""),
    "double-slash": (
        b"GET //healthz HTTP/1.0\r\n\r\n",
        "HTTP/1.0 200 OK",
        ["Content-Type: application/json"],  # and its Content-Length
        HEALTHZ,
    ),
}

#: Intended changes: the stdlib's email-based parser ended the head at a
#: field line without a colon, and joined a folded line onto the field
#: before it; both requests then got their 200.  RFC 9112 section 5 lets
#: a server reject either with a 400, which it now does.
MALFORMED_FIELD_LINES = {
    "no-colon": GET_HEALTHZ + b"NoColon\r\n\r\n",
    "obs-fold": GET_HEALTHZ + b"X-A: 1\r\n  folded\r\n\r\n",
}


def _expected_healthz(reply_body: bytes) -> bytes:
    uptime = json.loads(reply_body)["uptime_seconds"]  # the one timed field
    return _json_body(
        {"status": "ok", "version": __version__, "uptime_seconds": uptime}
    )


@pytest.fixture(scope="module")
def healthz_server():
    with ReproServer(SolverService(), port=0) as server:
        yield server


@pytest.mark.parametrize("name", sorted(PROTOCOL_REPLIES))
def test_protocol_error_replies_keep_their_bytes(name, healthz_server):
    request, status_line, headers, body = PROTOCOL_REPLIES[name]
    reply = _exchange(healthz_server.port, request)
    if status_line is None:
        if body is HEALTHZ:
            body = _expected_healthz(reply)
        assert reply == body
        return
    got_status, got_headers, got_body = _split(reply)
    if body is HEALTHZ:
        body = _expected_healthz(got_body)
        headers = [*headers, f"Content-Length: {len(body)}"]
    assert (got_status, got_headers, got_body) == (
        status_line,
        [SERVER_HEADER, *headers],
        body,
    )


@pytest.mark.parametrize("name", sorted(MALFORMED_FIELD_LINES))
def test_malformed_field_lines_are_a_400(name, healthz_server):
    reply = _exchange(healthz_server.port, MALFORMED_FIELD_LINES[name])
    headers, body = _page(
        400,
        "Bad header line",
        "a header field line needs a colon and may not be folded "
        "(RFC 9112 section 5)",
    )
    assert _split(reply) == (
        "HTTP/1.0 400 Bad header line",
        [SERVER_HEADER, *headers],
        body,
    )
