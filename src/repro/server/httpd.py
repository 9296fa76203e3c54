"""JSON-over-HTTP front end for the decision service (stdlib only).

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
    GET  /v2/protocol   versions/limits for client content negotiation
    GET  /metrics       decision counts, cache hit rates, latency percentiles
                        (``?format=prometheus`` or ``Accept: text/plain``
                        switches to the Prometheus text exposition)
    GET  /healthz       {"ok": true}
    GET  /internal/trace      the ring buffer of traced-request spans
    GET  /internal/snapshot   full durable state (sessions, label cache,
                              counters) as a snapshot payload

The ``/v2`` routes speak the qid-native wire protocol
(:mod:`repro.server.wire2`): clients intern query shapes locally and
ship dense integer ids plus interner deltas instead of query text.  The
``/v1`` routes are byte-compatible with every earlier release.

Decisions return 200 with ``{"accepted": ..., "reason": ...}`` whether
accepted or refused — a refusal is a *successful decision*, not an HTTP
error.  Malformed requests get 400, unknown principals 404, unknown
routes 404, all with ``{"error": ...}`` bodies.  A batch returns 200
with per-item decision-or-error entries (see ``docs/http-api.md`` for
the full reference).

Routing itself is the pure function :func:`dispatch` — ``(service,
method, path, body) → (status, payload)`` — which the request handler
wraps in sockets.  The shard layer reuses the same function for its
in-process backends, so one route table serves single-process,
in-process-sharded, and multi-process deployments.

The server is a :class:`ThreadingHTTPServer`: one thread per connection
over the shared (internally locked) :class:`DisclosureService`.  Start
one with ``python -m repro serve`` or :func:`make_server`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.errors import ParseError, PolicyError, ReproError
from repro.server.service import DisclosureService

#: Maximum accepted request body (8 MiB — enough for a large batch).
MAX_BODY = 8 << 20

#: Maximum entries in one ``/v1/batch`` request.
MAX_BATCH = 10_000


def metrics_format(query_string: str) -> Tuple[Optional[str], Optional[str]]:
    """``("json" | "prometheus", None)`` or ``(None, error message)``.

    The one parser of the ``/metrics`` query string, shared by the
    stdlib front end, the asyncio front end, and the shard router so an
    unknown ``format`` fails identically everywhere.
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
    transport: str = "http",
) -> Tuple[int, object]:
    """Route one parsed request onto *service*: ``(status, payload)``.

    *body* is the parsed JSON object for POSTs (``None`` for GETs); the
    transport layer is responsible for body parsing and size limits.
    Never raises for request-shaped problems — they come back as 4xx
    payloads, exactly as the HTTP server would answer them.  Payloads
    are JSON objects except for the negotiated compact ``/v2/query``
    response (a JSON array) and the Prometheus exposition (a ``str``
    the transport sends as ``text/plain``).  *transport* labels the
    per-route request counter (the asyncio front end passes "async").
    """
    route, _, query_string = path.partition("?")
    requests = service.requests
    if requests is not None:
        requests.labels(transport, route).increment()
    if route.startswith("/v2/"):
        from repro.server.wire2 import dispatch_v2

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


# ----------------------------------------------------------------------
def parse_decision_body(
    service: DisclosureService, body: Dict
) -> "Tuple[Optional[Tuple[str, object]], Optional[Tuple[int, Dict]]]":
    """``((principal, query), None)`` for a valid ``/v1/query``-shaped
    body, else ``(None, (status, payload))``.

    The one copy of the v1 single-decision validation: the stdlib and
    asyncio front ends both call it, so their error payloads cannot
    drift.  Parse failures (:class:`~repro.errors.ReproError`) are the
    caller's to map — :func:`dispatch` catches them route-wide.
    """
    principal, error = _principal_of(body)
    if error is not None:
        return None, error
    text, dialect = None, None
    for candidate in ("sql", "fql", "datalog"):
        if candidate in body:
            text, dialect = body[candidate], candidate
            break
    if not isinstance(text, str):
        return None, (
            400,
            {"error": "request needs one of 'sql', 'fql', 'datalog'"},
        )
    me = body.get("me", 1)
    if not isinstance(me, int):
        return None, (400, {"error": "'me' must be an integer uid"})
    return (principal, service.parse(text, dialect, me)), None


def _handle_decision(
    service: DisclosureService, body: Dict, peek: bool
) -> Tuple[int, Dict]:
    parsed, error = parse_decision_body(service, body)
    if error is not None:
        return error
    principal, query = parsed
    if peek:
        decision = service.peek(principal, query)
    else:
        decision = service.submit(principal, query)
    return 200, decision.as_dict()


def validate_batch_body(
    body: Dict,
) -> "Tuple[Optional[list], bool, Optional[Tuple[int, Dict]]]":
    """``(queries, peek, None)`` for a valid ``/v1/batch`` body, else
    ``(None, False, (status, payload))``.

    Shared by the single-process handler and the shard router so both
    deployments reject malformed batches with identical status codes
    and messages.
    """
    queries = body.get("queries")
    if not isinstance(queries, list):
        return None, False, (400, {"error": "batch needs a 'queries' list"})
    if len(queries) > MAX_BATCH:
        return None, False, (
            400,
            {"error": f"batch of {len(queries)} exceeds the {MAX_BATCH} limit"},
        )
    peek = body.get("peek", False)
    if not isinstance(peek, bool):
        return None, False, (400, {"error": "'peek' must be a boolean"})
    return queries, peek, None


def _handle_batch(service: DisclosureService, body: Dict) -> Tuple[int, Dict]:
    queries, peek, error = validate_batch_body(body)
    if error is not None:
        return error
    decisions = service.decide_batch_wire(queries, peek=peek)
    return 200, {"decisions": decisions, "count": len(decisions)}


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
class DecisionHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`DisclosureService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: DisclosureService):
        super().__init__(address, DecisionRequestHandler)
        self.service = service


class DecisionRequestHandler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` decision API onto the service."""

    server: DecisionHTTPServer
    protocol_version = "HTTP/1.1"
    #: Buffer writes so headers and body leave in one packet, and disable
    #: Nagle: the stdlib default (unbuffered + Nagle) interacts with
    #: delayed ACKs to add ~40 ms to every keep-alive response.
    wbufsize = 1 << 16
    disable_nagle_algorithm = True
    #: Silenced by default; flipped by ``serve --verbose``.
    verbose = False

    def _target(self):
        """What requests are routed onto; overridable by subclasses."""
        return self.server.service

    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """The stdlib's head parse, closing on a head whose body cannot be
        delimited: conflicting ``Content-Length`` values or any
        ``Transfer-Encoding`` (bodies are length-framed only)."""
        if not super().parse_request():
            return False
        lengths = {v.strip() for v in self.headers.get_all("Content-Length", ())}
        if "Transfer-Encoding" in self.headers:
            self._reply(501, {"error": "Transfer-Encoding is not supported"}, True)
        elif len(lengths) > 1:
            self._reply(400, {"error": "conflicting Content-Length headers"}, True)
        else:
            return True
        return False

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        target = self._target()
        path = negotiate_metrics_path(self.path, self.headers.get("Accept"))
        if hasattr(target, "dispatch"):
            status, payload = target.dispatch("GET", path, None)
        else:
            status, payload = dispatch(target, "GET", path, None)
        self._reply(status, payload)

    def do_POST(self) -> None:  # noqa: N802
        body = self._read_json()
        if body is None:
            return
        target = self._target()
        if hasattr(target, "dispatch"):
            status, payload = target.dispatch("POST", self.path, body)
        else:
            status, payload = dispatch(target, "POST", self.path, body)
        self._reply(status, payload)

    # ------------------------------------------------------------------
    def _read_json(self) -> Optional[Dict]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if length <= 0 or length > MAX_BODY:
            self._reply(400, {"error": "request needs a JSON body"})
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError:
            self._reply(400, {"error": "request body is not valid JSON"})
            return None
        if not isinstance(body, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return None
        return body

    def _reply(self, status: int, payload: object, close: bool = False) -> None:
        if isinstance(payload, str):
            # Pre-rendered text (the Prometheus exposition).
            from repro.obs import PROMETHEUS_CONTENT_TYPE

            data = payload.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")  # also ends the loop
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)


def make_server(
    service: Optional[DisclosureService] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
) -> DecisionHTTPServer:
    """Build (but do not start) a decision server; ``port=0`` picks a free one.

    *service* may also be any object with a compatible
    ``dispatch(method, path, body)`` method — that is how the shard
    router reuses this server as its front end.
    """
    return DecisionHTTPServer((host, port), service or DisclosureService())


def start_background(
    service: Optional[DisclosureService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[DecisionHTTPServer, threading.Thread]:
    """Start a server on a daemon thread (tests and the load generator)."""
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
