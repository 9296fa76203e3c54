"""The HTTP front end: decision serving with tick coalescing.

Routes::

    POST /v1/register   {"principal": "app1", "policy": [["V1"], ["V3"]]}
    POST /v1/query      {"principal": "app1", "sql": "SELECT ..."}
                        {"principal": "app1", "fql": "SELECT ...", "me": 3}
                        {"principal": "app1", "datalog": "Q(x) :- ..."}
    POST /v1/peek       same body as /v1/query (would_accept; no state change)
    POST /v1/batch      {"queries": [<query bodies>...], "peek": false}
    POST /v1/reset      {"principal": "app1"}
    POST /v2/query      {"gen": ..., "qid": 17, "delta": [...], ...}
    POST /v2/batch      {"gen": ..., "items": [[0, 17], ...], ...}
    GET  /v2/protocol   the wire versions and limits this server speaks
    GET  /metrics       decision counts, cache hit rates, latency percentiles
                        (``?format=prometheus`` or ``Accept: text/plain``
                        switches to the Prometheus text exposition)
    GET  /healthz       {"ok": true}
    GET  /internal/trace      the ring buffer of traced-request spans
    GET  /internal/snapshot   full durable state (sessions, label cache,
                              counters) as a snapshot payload

Decisions return 200 with ``{"accepted": ..., "reason": ...}`` whether
accepted or refused — a refusal is a *successful decision*, not an HTTP
error.  Malformed requests get 400, unknown principals 404, unknown
routes 404, all with ``{"error": ...}`` bodies (``docs/http-api.md``
is the full reference).  The ``/v2`` routes speak the qid-native wire
protocol of :mod:`repro.server.wire2`.

Routing itself is the pure function :func:`dispatch` — ``(service,
method, path, body) → (status, payload)``; the server below wraps it in
sockets.  It is built for throughput:

* **One event loop, no threads.**  Connections are
  :class:`asyncio.Protocol` instances; requests are framed by offset
  straight out of the read buffer (pipelining supported), and each
  answer lands in a plain response cell.  Answered connections are
  written once per loop pass, in request order: **one write per
  connection per loop pass**, however many requests a tick answered.
  Framing is linear in the bytes received: a head or body split over
  many reads is collected, not re-scanned, and a head is capped at
  64 KiB.
* **The tick drain.**  Decision requests are not handled one by one:
  each is appended to a per-loop-iteration FIFO and a drain runs at
  the end of the tick (``call_soon``).  Everything that arrived in the
  same tick — across all connections — drains as one pass: single
  decisions *and* both batch routes join one run of decision entries,
  decided by one :func:`repro.server.batch.decide_wire_items` call —
  one session lock, one bulk label resolution, one ``decide_group``
  per principal — and sliced back per request.  Load *is* the batch
  size: the busier the server, the fewer Python cycles per decision —
  batching as natural back-pressure.
* **Exact ordering.**  The FIFO preserves arrival order across request
  kinds, and a run flushes on a submit/peek change, a plane change,
  at ``MAX_BATCH`` entries, and before any other request, so state
  evolution is byte-identical to sequential handling through
  :func:`dispatch` (``tests/server/test_aio.py`` and
  ``tests/server/test_pool_frontend.py`` hold the front end to that).
* **One drain, pooled or not.**  In front of a
  :class:`~repro.server.pool.ReplicaPool` the run is decided by the
  pool's ``decide_async`` instead, whose pipes are awaited on a
  consumer task: every tick queued behind a drain in progress joins
  the next one, so crossings follow drains, not requests.  Unpooled,
  the same coroutine runs through :func:`_blocking`, which drives it
  without an event loop in the way.

Everything that does not join a run goes through :func:`dispatch`.
Start a server with ``python -m repro serve`` or
:func:`start_async_background`.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from time import perf_counter

from repro.errors import ParseError, PolicyError, ReproError
from repro.server import batch
from repro.server.batch import _blocking
from repro.server.kernel import ServiceDecision
from repro.server.service import DisclosureService
from repro.server.wire2 import (
    BAD_REQUEST,
    MAX_BATCH,
    MAX_BODY,
    WireError,
    dispatch_v2,
    render_batch,
    render_single,
    resolve_batch,
    resolve_single,
    single_error_status,
    traced_payload,
)

#: Maximum request head, request line and headers included (64 KiB).
MAX_HEAD = 64 << 10

_REASON = {200: "OK", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
           500: "Internal Server Error", 501: "Not Implemented",
           502: "Bad Gateway", 503: "Service Unavailable"}


# ----------------------------------------------------------------------
# The route table
# ----------------------------------------------------------------------
def metrics_format(query_string: str) -> Tuple[Optional[str], Optional[str]]:
    """``("json" | "prometheus", None)`` or ``(None, error message)``.

    The one parser of the ``/metrics`` query string, shared by
    :func:`dispatch` and the replica pool so an unknown ``format``
    fails identically everywhere.
    """
    if not query_string:
        return "json", None
    from urllib.parse import parse_qs

    params = parse_qs(query_string, keep_blank_values=True)
    fmt = params.get("format", ["json"])[-1]
    if fmt in ("json", "prometheus"):
        return fmt, None
    return None, f"unknown metrics format {fmt!r}"


def negotiate_metrics_path(path: str, accept: Optional[str]) -> str:
    """Apply ``Accept`` content negotiation to a bare ``/metrics`` GET.

    An explicit ``?format=`` always wins (the path passes through
    untouched); otherwise a client that asks for ``text/plain`` or an
    OpenMetrics type gets the Prometheus exposition.  ``application/
    json`` anywhere in the Accept value pins the JSON form — scrapers
    send long Accept lists, so JSON stays the tiebreak default.
    """
    if path != "/metrics" or not accept:
        return path
    accept = accept.lower()
    if "application/json" in accept:
        return path
    if "text/plain" in accept or "openmetrics" in accept:
        return "/metrics?format=prometheus"
    return path


def dispatch(
    service: DisclosureService,
    method: str,
    path: str,
    body: Optional[Dict],
) -> Tuple[int, object]:
    """Route one parsed request onto *service*: ``(status, payload)``.

    *body* is the parsed JSON object for POSTs (``None`` for GETs); the
    transport layer is responsible for body parsing and size limits.
    Never raises for request-shaped problems — they come back as 4xx
    payloads, exactly as the server answers them.  Payloads are JSON
    objects except for the negotiated compact ``/v2/query`` response (a
    JSON array) and the Prometheus exposition (a ``str`` the transport
    sends as ``text/plain``).
    """
    route, _, query_string = path.partition("?")
    service.requests.labels("async", route).increment()
    if route.startswith("/v2/"):
        routed = dispatch_v2(service, method, route, body)
        if routed is not None:
            return routed
    if method == "GET":
        if route == "/metrics":
            fmt, error = metrics_format(query_string)
            if error is not None:
                return 400, {"error": error}
            snapshot = service.metrics_snapshot()
            if fmt == "prometheus":
                from repro.obs import render_prometheus

                return 200, render_prometheus(snapshot)
            return 200, snapshot
        if route == "/healthz":
            return 200, {"ok": True}
        if route == "/internal/trace":
            return 200, service.traces.snapshot()
        if route == "/internal/snapshot":
            from repro.server.persist import snapshot_service

            return 200, snapshot_service(service)
        return 404, {"error": f"unknown route {route}"}
    if method != "POST":
        return 405, {"error": f"unsupported method {method}"}
    if body is None:
        return 400, {"error": "request needs a JSON body"}
    try:
        if route == "/v1/query":
            return _handle_decision(service, body, peek=False)
        if route == "/v1/peek":
            return _handle_decision(service, body, peek=True)
        if route == "/v1/batch":
            return _handle_batch(service, body)
        if route == "/v1/register":
            return _handle_register(service, body)
        if route == "/v1/reset":
            return _handle_reset(service, body)
        return 404, {"error": f"unknown route {route}"}
    except ParseError as exc:
        return 400, {"error": str(exc)}
    except PolicyError as exc:
        status = 404 if "unknown principal" in str(exc) else 400
        return status, {"error": str(exc)}
    except ReproError as exc:
        return 400, {"error": str(exc)}


def _handle_decision(
    service: DisclosureService, body: Dict, peek: bool
) -> Tuple[int, Dict]:
    parsed, message = batch.parse_wire_request(service, body, "request")
    if message is not None:
        return 400, {"error": message}
    principal, query = parsed
    if peek:
        decision = service.peek(principal, query)
    else:
        decision = service.submit(principal, query)
    return 200, decision.as_dict()


def resolve_v1_batch(
    service: DisclosureService, body: Dict
) -> "Tuple[Optional[Tuple[bool, list, list]], Optional[Tuple[int, Dict]]]":
    """``((peek, rows, entries), None)`` for a valid ``/v1/batch`` body,
    else ``(None, (status, payload))``.

    *rows* has one slot per query: the ``{"error": ...}`` answer of a
    malformed or unparsable item, or ``None`` for a decidable one,
    whose ``(principal, query, None)`` entry is next in *entries* — the
    entry shape every decide core takes.  :func:`dispatch` and the tick
    drain both resolve with it and answer with :func:`render_v1_batch`.
    """
    queries = body.get("queries")
    if not isinstance(queries, list):
        return None, (400, {"error": "batch needs a 'queries' list"})
    if len(queries) > MAX_BATCH:
        return None, (
            400,
            {"error": f"batch of {len(queries)} exceeds the {MAX_BATCH} limit"},
        )
    peek = body.get("peek", False)
    if not isinstance(peek, bool):
        return None, (400, {"error": "'peek' must be a boolean"})
    rows: List[Optional[Dict]] = []
    entries: List[Tuple] = []
    for query in queries:
        item, message = batch.parse_wire_request(service, query)
        if message is not None:
            rows.append({"error": message})
            continue
        rows.append(None)
        entries.append((item[0], item[1], None))
    return (peek, rows, entries), None


def render_v1_batch(rows: List, results: List) -> Dict:
    """The ``/v1/batch`` response: each ``None`` slot of *rows* filled,
    in order, from the decide core's *results*."""
    decided = iter(results)
    decisions = [
        row if row is not None else _v1_result(next(decided)) for row in rows
    ]
    return {"decisions": decisions, "count": len(decisions)}


def _v1_result(result) -> Dict:
    """A decide-core result in the v1 shape (errors carry no code)."""
    if isinstance(result, ServiceDecision):
        return result.as_dict()
    return {"error": result["error"]}


def _handle_batch(service: DisclosureService, body: Dict) -> Tuple[int, Dict]:
    resolved, error = resolve_v1_batch(service, body)
    if error is not None:
        return error
    peek, rows, entries = resolved
    results = batch.decide_wire_items(service, entries, update=not peek)
    return 200, render_v1_batch(rows, results)


def _handle_register(service: DisclosureService, body: Dict) -> Tuple[int, Dict]:
    principal, error = _principal_of(body)
    if error is not None:
        return error
    policy = body.get("policy")
    if not isinstance(policy, list):
        return 400, {"error": "register needs a 'policy' partition list"}
    service.register(principal, policy)
    return 200, {"registered": principal, "partitions": len(policy)}


def _handle_reset(service: DisclosureService, body: Dict) -> Tuple[int, Dict]:
    principal, error = _principal_of(body)
    if error is not None:
        return error
    service.reset(principal)
    return 200, {"reset": principal}


def _principal_of(body: Dict) -> Tuple[Optional[str], Optional[Tuple[int, Dict]]]:
    """``(principal, None)`` or ``(None, (status, payload))``.

    Principals are strings on the wire: JSON objects and arrays are
    unhashable (they would crash the session table), and non-string
    scalars would not round-trip through serialized session state.
    """
    principal = body.get("principal")
    if not isinstance(principal, str) or not principal:
        return None, (
            400,
            {"error": "request needs a non-empty string 'principal'"},
        )
    return principal, None


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
def _error_status(result: Dict) -> int:
    """HTTP status for a per-item error promoted to a single response.

    Same taxonomy as :func:`repro.server.wire2.single_error_status`,
    plus the pooled front end's one addition: a replica that died and
    could not be respawned answers 503, not 400.
    """
    from repro.server.pool import REPLICA_UNAVAILABLE

    if result.get("code") == REPLICA_UNAVAILABLE:
        return 503
    return single_error_status(result)


#: The request headers the front end reads, each at the start of a line.
_HEADERS = re.compile(
    rb"\r\n(content-length|transfer-encoding|connection|accept)[ \t]*:([^\r]*)",
    re.I,
)

#: Decodes request bodies already known to be UTF-8 text.
_decode_json = json.JSONDecoder().decode


def _parse_head(head: bytes) -> Tuple[str, str, int, bool]:
    """``(method, path, length, close)`` of one request head.

    Raises :class:`WireError` (answered, then the connection closes)
    when the body cannot be delimited safely: a bad or conflicting
    ``Content-Length``, any ``Transfer-Encoding``, or a body past the cap;
    or when the head with its terminator is past :data:`MAX_HEAD`.
    """
    if len(head) + 4 > MAX_HEAD:
        raise WireError(400, BAD_REQUEST, "request head too large")
    line_end = head.find(b"\r\n")
    parts = (head if line_end < 0 else head[:line_end]).split()
    if len(parts) < 2:
        raise WireError(400, BAD_REQUEST, "malformed request line")
    method = parts[0].decode("ascii", "replace")
    path = parts[1].decode("ascii", "replace")
    length = 0
    declared = None
    close = False
    accept = None
    for name, value in _HEADERS.findall(head):
        name = name.lower()
        if name == b"content-length":
            value = value.strip()
            if declared is not None and value != declared:
                raise WireError(400, BAD_REQUEST, "conflicting Content-Length headers")
            declared = value
            try:
                length = int(value)
            except ValueError:
                length = -1
            if length < 0:
                raise WireError(400, BAD_REQUEST, "bad Content-Length")
        elif name == b"transfer-encoding":
            raise WireError(501, BAD_REQUEST, "Transfer-Encoding is not supported")
        elif name == b"connection":
            close = value.strip().lower() == b"close"
        else:
            accept = value.strip().decode("ascii", "replace")
    if length > MAX_BODY:
        raise WireError(413, BAD_REQUEST, "request body exceeds the 8 MiB cap")
    if method == "GET":
        path = negotiate_metrics_path(path, accept)
    return method, path, length, close


#: Everything of a ``200 application/json`` response head but its length.
_JSON_200 = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: "


class _Request:
    """One framed request: the tick queue's entry and its response cell.

    ``result`` is ``(status, payload)`` once answered; answering marks
    the connection for the server's next write pass.
    """

    __slots__ = ("protocol", "close", "result", "kind", "method", "path",
                 "body", "update", "enqueued")

    def __init__(self, protocol: "_HttpProtocol", close: bool):
        self.protocol = protocol
        self.close = close
        self.result: Optional[Tuple[int, object]] = None
        self.kind = "inline"  # | "v1" | "v2" | "v1batch" | "v2batch"
        self.method = self.path = ""
        self.body: Optional[Dict] = None
        #: For run-joining kinds: True for submit semantics, False for peek.
        self.update = False
        #: perf_counter at queue time, recorded only for traced requests
        #: (their spans report the drain-tick queue wait); nonzero marks
        #: a traced request.
        self.enqueued = 0.0

    def done(self) -> bool:
        return self.result is not None

    def set_result(self, result: Tuple[int, object]) -> None:
        self.result = result
        protocol = self.protocol
        if not protocol.marked:
            protocol.marked = True
            protocol.server.mark_answered(protocol)


class _HttpProtocol(asyncio.Protocol):
    """Minimal pipelined HTTP/1.1 framing onto the tick queue."""

    __slots__ = ("server", "transport", "marked", "_parts", "_have", "_need",
                 "_responses", "_closing", "_close_framed")

    def __init__(self, server: "AsyncDecisionServer"):
        self.server = server
        self.transport: Any = None
        #: Held by the server for its next write pass.
        self.marked = False
        #: The unframed tail, one entry per read since it began; ``_have``
        #: bytes in all, and ``_need`` of them complete its request (0
        #: while its head's terminator has not arrived).
        self._parts: List[bytes] = []
        self._have = 0
        self._need = 0
        #: Requests in arrival order; each write pass writes the
        #: answered prefix.
        self._responses: List[_Request] = []
        self._closing = False
        #: Nothing pipelined after a ``Connection: close`` request runs.
        self._close_framed = False

    # -- framing -------------------------------------------------------
    def connection_made(self, transport) -> None:
        transport.set_write_buffer_limits(high=1 << 20)
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self._closing = True
        self._responses.clear()
        self._parts = []

    def data_received(self, data: bytes) -> None:
        if self._close_framed:
            return
        parts = self._parts
        if parts:
            # A request split across reads: collect the reads, scanning
            # only the new bytes, and join them once the request is whole.
            self._have += len(data)
            if self._need:
                waiting = self._have < self._need  # a body in flight
            else:  # a head: only the new bytes can end its terminator
                last = parts[-1] if len(parts[-1]) >= 3 else b"".join(parts[-3:])
                waiting = (
                    data.find(b"\r\n\r\n") < 0
                    and (last[-3:] + data[:3]).find(b"\r\n\r\n") < 0
                )
            parts.append(data)
            if waiting:
                if not self._need and self._have >= MAX_HEAD:
                    self._refuse(400, "request head too large")
                return
            buffer = b"".join(parts)
            self._parts = []
        else:
            buffer = data
        heads = self.server.heads
        # Requests are framed by offset; the unframed tail is kept once.
        start = 0
        while True:
            head_end = buffer.find(b"\r\n\r\n", start)
            if head_end < 0:
                if len(buffer) - start >= MAX_HEAD:
                    self._refuse(400, "request head too large")
                    return
                self._need = 0
                break
            # Heads repeat byte for byte (a client's requests differ in
            # Content-Length at most): each distinct one is parsed once.
            head = buffer[start:head_end]
            framed = heads.get(head)
            if framed is None:
                try:
                    framed = _parse_head(head)
                except WireError as exc:
                    self._refuse(exc.status, str(exc))
                    return
                if len(head) <= 1024:  # so the memo holds at most 1 MiB
                    if len(heads) >= 1024:
                        heads.clear()
                    heads[head] = framed
            method, path, length, close = framed
            end = head_end + 4 + length
            if len(buffer) < end:
                self._need = end - start
                break  # body still in flight
            raw = buffer[head_end + 4 : end]
            start = end
            request = _Request(self, close)
            self._responses.append(request)
            self.server.accept(method, path, raw, request)
            if close:
                self._close_framed = True
                return
        if start < len(buffer):
            tail = buffer[start:] if start else buffer
            self._parts = [tail]
            self._have = len(tail)

    # -- responses -----------------------------------------------------
    def flush(self) -> None:
        """Write the answered prefix of the responses in one write."""
        self.marked = False
        if self._closing or self.transport is None:
            return
        chunks = []
        close = False
        dumps = json.dumps
        for request in self._responses:
            if request.result is None:
                break
            status, payload = request.result
            close = request.close
            kind = type(payload)
            if status == 200 and not close and kind is not str:
                body = payload if kind is bytes else dumps(payload).encode("utf-8")
                chunks.append(b"%b%d\r\n\r\n%b" % (_JSON_200, len(body), body))
            else:
                chunks.append(_render(status, payload, close))
            if close:
                break
        if chunks:
            del self._responses[: len(chunks)]
            self.transport.write(b"".join(chunks))
            if close:
                self._closing = True
                self.transport.close()

    def _refuse(self, status: int, message: str) -> None:
        """A framing-level failure: answered after every request framed
        before it, then the connection closes; nothing after it is framed."""
        request = _Request(self, True)
        self._responses.append(request)
        request.set_result((status, {"error": message}))
        self._close_framed = True
        self._parts = []


def _render(status: int, payload: object, close: bool) -> bytes:
    """One full response: JSON (``bytes`` are pre-rendered JSON), or
    pre-rendered text (the Prometheus exposition) sent as such."""
    if isinstance(payload, str):
        from repro.obs import PROMETHEUS_CONTENT_TYPE

        body = payload.encode("utf-8")
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        content_type = "application/json"
    return (
        f"HTTP/1.1 {status} {_REASON.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    ).encode("ascii") + body


class AsyncDecisionServer:
    """The asyncio front end over one :class:`DisclosureService`.

    With *pool* (a started :class:`repro.server.pool.ReplicaPool`), the
    front end becomes a pure control plane: the tick drain hands each
    tick to a single consumer task, which runs the same drain coroutine
    with the replicas deciding and awaits their pipes without blocking
    the loop — new connections keep parsing and queueing while replicas
    compute.  One consumer preserves the drain's order-exactness: ticks
    are processed strictly in arrival order, one at a time.
    """

    def __init__(
        self,
        service: Optional[DisclosureService] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        pool=None,
    ):
        self.service = service if service is not None else DisclosureService()
        self.host = host
        self.port = port
        self.pool = pool
        #: Request head bytes -> ``(method, path, length, close)``: heads
        #: of at most 1 KiB, cleared at 1024 of them.
        self.heads: Dict[bytes, Tuple[str, str, int, bool]] = {}
        self._pending: List[_Request] = []
        #: Connections holding answered, unwritten responses.
        self._unwritten: List[_HttpProtocol] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._ticks: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        self._stopping = False
        #: Drain observability: ticks run and requests coalesced.
        self.ticks = 0
        self.drained = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncDecisionServer":
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _HttpProtocol(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.pool is not None:
            self.pool.served = True
            self._ticks = asyncio.Queue()
            self._consumer = loop.create_task(self._consume_ticks())
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._consumer is not None:
            # Let the drain in progress finish: one cancelled between a
            # replica send and its reply would leave that reply in the
            # pipe for the pool's next reader (a blocking call after
            # the loop stops).
            self._stopping = True
            self._ticks.put_nowait([])
            await asyncio.wait([self._consumer], timeout=5.0)
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
            self.pool.served = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # The tick queue
    # ------------------------------------------------------------------
    def accept(self, method: str, path: str, raw: bytes, request: _Request) -> None:
        """Classify one framed request and queue it for the tick drain."""
        body: Optional[Dict] = None
        if raw:
            try:
                if raw[0] == 0x7B and raw[1:2] != b"\x00":
                    # Bytes json.loads would detect as UTF-8, decoded
                    # the way it decodes them, without the sniffing.
                    parsed = _decode_json(raw.decode("utf-8", "surrogatepass"))
                else:
                    parsed = json.loads(raw)
            except ValueError:
                request.set_result((400, {"error": "request body is not valid JSON"}))
                return
            if type(parsed) is not dict:
                request.set_result(
                    (400, {"error": "request body must be a JSON object"})
                )
                return
            body = parsed
        request.method, request.path, request.body = method, path, body
        if method == "POST" and body is not None:
            if path == "/v2/query":
                # The peek flag picks the request's run mode, so its
                # type check cannot wait for _prepare (dispatch answers
                # the same 400 via wire2.resolve_single).
                peek = body.get("peek", False)
                if not isinstance(peek, bool):
                    request.set_result(
                        (400, {"error": "'peek' must be a boolean",
                               "code": BAD_REQUEST})
                    )
                    return
                request.kind, request.update = "v2", not peek
                if body.get("trace") is True:
                    request.enqueued = perf_counter()
            elif path in ("/v1/query", "/v1/peek"):
                request.kind, request.update = "v1", path == "/v1/query"
            elif path == "/v2/batch":
                # A batch's entries join the tick's decision run (its
                # submit/peek mode is known once it is resolved).
                request.kind = "v2batch"
            elif path == "/v1/batch":
                request.kind = "v1batch"
        self._pending.append(request)
        if len(self._pending) == 1:
            asyncio.get_running_loop().call_soon(self._drain)

    def mark_answered(self, protocol: _HttpProtocol) -> None:
        """Hold *protocol* for the one write pass scheduled per loop pass."""
        self._unwritten.append(protocol)
        if len(self._unwritten) == 1:
            asyncio.get_running_loop().call_soon(self._write_answered)

    def _write_answered(self) -> None:
        protocols, self._unwritten = self._unwritten, []
        for protocol in protocols:
            protocol.flush()

    def _drain(self) -> None:
        """Process everything that arrived this tick, in arrival order.

        Pooled, the tick is only *handed off* here — the consumer task
        drains it, so the loop never blocks on a replica pipe and ticks
        still settle strictly in arrival order.  Unpooled, the same
        :meth:`_run_tick` runs here, to completion.
        """
        pending, self._pending = self._pending, []
        self.ticks += 1
        self.drained += len(pending)
        # Inline requests are counted by dispatch() (or by the pool, for
        # the route it answers itself); the run-joining kinds bypass
        # both, so they are counted here, once per route.
        requests = self.service.requests
        routes = Counter(r.path for r in pending if r.kind != "inline")
        for route, count in routes.items():
            requests.labels("async", route).increment(count)
        if self._ticks is not None:
            self._ticks.put_nowait(pending)
        else:
            _blocking(self._run_tick(pending, None))

    async def _consume_ticks(self) -> None:
        """Drain handed-off ticks in arrival order, one drain at a time.

        Every tick that queued up while the last drain awaited its
        replicas joins the next one, so under load pipe crossings follow
        the number of drains, not the number of ticks or requests.
        """
        assert self._ticks is not None
        loop = asyncio.get_running_loop()
        while not self._stopping:
            pending = await self._ticks.get()
            while not self._ticks.empty():
                pending.extend(self._ticks.get_nowait())
            await self._run_tick(pending, loop)

    async def _run_tick(self, pending: List[_Request], loop) -> None:
        """The tick drain: one run discipline for both planes.

        Single decisions and both batch routes join one run of decision
        entries, decided by one call and sliced back per request.  The
        run flushes on a submit/peek mode change, a plane change (v2
        qids belong to the plane they were translated on; v1 entries
        join any run), at ``MAX_BATCH`` entries, and before any inline
        request, so the observable state evolution is exactly
        sequential.  Pooled, *loop* is the serving loop: the decide and
        the session- or metrics-shaped inline routes
        (:meth:`ReplicaPool.dispatch_inline_async`) go to the replicas,
        whose pipes are awaited.  A failure outside any one request's
        own handling answers every request still pending with 500.
        """
        pool = self.pool
        run: List[Tuple[_Request, Tuple]] = []
        entries: List[Tuple] = []
        run_update = False
        run_plane = None
        try:
            for request in pending:
                if request.kind == "inline":
                    await self._flush_run(run, entries, run_update, run_plane, loop)
                    run, entries, run_plane = [], [], None
                    try:
                        status_payload = None
                        if pool is not None:
                            status_payload = await pool.dispatch_inline_async(
                                request.method, request.path, request.body,
                                loop=loop,
                            )
                        if status_payload is None:
                            status_payload = dispatch(
                                self.service, request.method, request.path,
                                request.body,
                            )
                    except Exception as exc:  # noqa: BLE001 - never hang a request
                        status_payload = (500, {"error": f"internal error: {exc}"})
                    request.set_result(status_payload)
                    continue
                prepared = self._prepare(request)
                if prepared is None:
                    continue  # already answered (a request-shaped error)
                plane = prepared[0]
                kind = request.kind
                single = kind == "v2" or kind == "v1"
                joining = 1 if single else len(prepared[1])
                if run and (
                    request.update is not run_update
                    or (
                        plane is not run_plane
                        and plane is not None
                        and run_plane is not None
                    )
                    or len(entries) + joining > MAX_BATCH
                ):
                    await self._flush_run(run, entries, run_update, run_plane, loop)
                    run, entries, run_plane = [], [], None
                run_update = request.update
                if plane is not None:
                    run_plane = plane
                run.append((request, prepared))
                if single:
                    entries.append(prepared[1:4])
                else:
                    entries.extend(prepared[1])
            await self._flush_run(run, entries, run_update, run_plane, loop)
        except Exception as exc:  # noqa: BLE001 - never hang a request
            failure = (500, {"error": f"internal error: {exc}"})
            for request in pending:
                if not request.done():
                    request.set_result(failure)

    def _prepare(self, request: _Request) -> Optional[Tuple]:
        """The run member of a run-joining request, or ``None`` once it
        was answered with its own error.

        A single's member is ``(plane, principal, query, qid, compact,
        trace)``, whose ``[1:4]`` is its decision entry.  A batch's is
        ``(plane, entries, ...)`` plus what its renderer needs:
        ``compact, principal_indices`` for ``/v2/batch``, the v1 rows
        for ``/v1/batch``; its submit/peek mode is known only once
        resolved, so it is set on the request here.  Validation goes
        through the routes' own helpers (:func:`resolve_single`,
        :func:`resolve_batch`, :func:`batch.parse_wire_request`,
        :func:`resolve_v1_batch`), so errors are byte-identical to
        :func:`dispatch`'s.
        """
        body = request.body
        kind = request.kind
        service = self.service
        try:
            if kind == "v2":
                principal, _, compact, trace, plane, qid = resolve_single(
                    service, body
                )
                return plane, principal, None, qid, compact, trace
            if kind == "v2batch":
                peek, compact, principal_indices, plane, entries = (
                    resolve_batch(service, body)
                )
                request.update = not peek
                return plane, entries, compact, principal_indices
        except WireError as exc:
            request.set_result((exc.status, exc.payload()))
            return None
        if kind == "v1batch":
            resolved, error = resolve_v1_batch(service, body)
            if error is None:
                peek, rows, entries = resolved
                request.update = not peek
                return None, entries, rows
        else:  # v1: dispatch's validation and parse path
            parsed, message = batch.parse_wire_request(service, body, "request")
            if message is None:
                principal, query = parsed
                return None, principal, query, None, False, False
            error = (400, {"error": message})
        request.set_result(error)
        return None

    async def _flush_run(
        self, run: List, entries: List, update: bool, plane, loop
    ) -> None:
        """Decide one run in one call, then answer each request with its
        slice of the results, rendered in its own form."""
        if not run:
            return
        # A clock read can cost a system call (a VM's clock source), so
        # a run is timed only when a member asked for a trace.
        traced = any(request.enqueued for request, _ in run)
        timings: Optional[Dict] = {} if traced else None
        started = perf_counter() if traced else 0.0
        try:
            if self.pool is None:
                results = batch.decide_wire_items(  # repro: noqa[ASY01] - the tick drain IS the data plane: the sync kernel core decides here by design, and spill faults are bounded page-sized reads (docs/memory-tier.md)
                    self.service, entries, update=update, plane=plane,
                    timings=timings,
                )
            else:
                results = await self.pool.decide_async(
                    entries, update=update, plane=plane, timings=timings,
                    loop=loop,
                )
        except Exception as exc:  # noqa: BLE001 - never hang a request
            failure = (500, {"error": f"internal error: {exc}"})
            for request, _ in run:
                request.set_result(failure)
            return
        coalesced = len(entries)
        offset = 0
        for request, prepared in run:
            kind = request.kind
            if kind == "v2" or kind == "v1":
                self._answer(
                    request, prepared, results[offset], started, timings,
                    coalesced,
                )
                offset += 1
                continue
            end = offset + len(prepared[1])
            if kind == "v2batch":
                payload = render_batch(results[offset:end], prepared[3], prepared[2])
            else:
                payload = render_v1_batch(prepared[2], results[offset:end])
            request.set_result((200, payload))
            offset = end

    def _answer(
        self, request: _Request, prepared: Tuple, result,
        started: float, timings: Optional[Dict], coalesced: int,
    ) -> None:
        """Answer one single-decision request with its result (a traced
        one's span amortizes the decide pass over its *coalesced* members)."""
        if isinstance(result, ServiceDecision):
            if prepared[5]:
                span = {
                    "transport": "async",
                    "principal": prepared[1],
                    "qid": request.body.get("qid"),
                    "peek": not request.update,
                    "coalesced": coalesced,
                    "queue_us": (
                        (started - request.enqueued) * 1e6 if request.enqueued else 0.0
                    ),
                }
                payload = traced_payload(self.service, result, span, started, timings)
                request.set_result((200, payload))
            else:
                request.set_result((200, render_single(result, prepared[4])))
        elif request.kind == "v2":
            request.set_result((_error_status(result), result))
        else:
            request.set_result((_error_status(result), _v1_result(result)))


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
async def serve_async(
    service: Optional[DisclosureService] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    pool=None,
    ready=None,
) -> None:
    """Run an :class:`AsyncDecisionServer` until cancelled.

    *ready*, when given, is called with the started server (tests and
    the CLI use it to learn the bound port).
    """
    server = AsyncDecisionServer(service, host, port, pool=pool)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


class BackgroundAsyncServer:
    """An asyncio front end on its own thread (tests, benchmarks)."""

    def __init__(self, server: AsyncDecisionServer, loop, task, thread):
        self.server = server
        self.host = server.host
        self.port = server.port
        self._loop = loop
        self._task = task
        self._thread = thread

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._task.cancel)
            self._thread.join(timeout=timeout)


def start_async_background(
    service: Optional[DisclosureService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    pool=None,
) -> BackgroundAsyncServer:
    """Start an asyncio front end on a daemon thread; returns a handle."""
    started = threading.Event()
    holder: Dict = {}

    async def main() -> None:
        server = AsyncDecisionServer(service, host, port, pool=pool)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        holder["task"] = asyncio.current_task()
        started.set()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    thread = threading.Thread(
        target=lambda: asyncio.run(main()), name="async-httpd", daemon=True
    )
    thread.start()
    if not started.wait(timeout=10.0):
        raise TimeoutError("asyncio front end did not start within 10s")
    return BackgroundAsyncServer(
        holder["server"], holder["loop"], holder["task"], thread
    )
