"""The asyncio HTTP :class:`DecisionClient`: pipelined v2 over one socket.

``AsyncHttpClient`` exposes the same :class:`~repro.client.base
.DecisionClient` surface as coroutines.  Any number of tasks may call
it concurrently: requests are written back to back on one keep-alive
connection, one write per connection per loop pass, which is what makes
the asyncio front end's per-tick coalescing effective — N in-flight
single-query requests from one client arrive in one socket read, drain
into one ``decide_group`` per principal on the server, and come back in
one write.  Closed-loop concurrency without threads.

An :class:`asyncio.Protocol` frames each socket read by offset, as the
server frames requests, and every complete response resolves the oldest
waiter (HTTP/1.1 answers in order) inside ``data_received``; bytes it
cannot frame fail every in-flight waiter with a :class:`ClientError`.

The v2 sync rules are the same as the sync client's
(:mod:`repro.client.wire`): a request is built and queued with no
``await`` in between, so interner deltas reach the server in ``base``
order, and a ``409 unknown-generation`` re-sends the request with the
full key table.
"""

from __future__ import annotations

import asyncio
import json
import re
from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.client import wire
from repro.client.base import ClientError, ClientItem, StallError
from repro.client.http import _error_from, _split_url
from repro.core.queries import ConjunctiveQuery

Response = Tuple[int, object]


#: A response head's status, and its body length: a pipelined body is
#: delimited by it alone, so a head without one is fatal.
_STATUS = re.compile(rb"HTTP/\d\.\d (\d{3})[ \r]")
_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:[ \t]*(\d+)[ \t]*(?:\r|$)", re.I)
#: Bodies are UTF-8 JSON (the server sends ASCII): decoded as text, not
#: sniffed the way :func:`json.loads` does for bytes.
_decode_json = json.JSONDecoder().decode


class _Connection(asyncio.Protocol):
    """One pipelined connection: responses are parsed straight out of
    the socket buffer, by offset, and resolve their waiters FIFO in
    :meth:`data_received`."""

    def __init__(self, client: "AsyncHttpClient") -> None:
        self.client = client
        self.transport: Any = None
        self.waiters: "deque[asyncio.Future[Response]]" = deque()
        #: Loop time of the last response (or of the first request sent
        #: into an idle connection): the watchdog's clock.
        self.last_activity = 0.0
        #: Set by the watchdog before it tears the connection down, so
        #: the in-flight waiters fail with the retryable StallError.
        self.stalled = False
        self.closed: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        self._buffer = b""
        self._error: Optional[Exception] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer + data if self._buffer else data
        start = 0
        waiters = self.waiters
        decode = _decode_json
        try:
            while True:
                head_end = buffer.find(b"\r\n\r\n", start)
                if head_end < 0:
                    break
                status = _STATUS.match(buffer, start, head_end + 2)
                length = _CONTENT_LENGTH.search(buffer, start, head_end)
                if status is None or length is None:
                    head = buffer[start:head_end][:80]
                    raise ValueError(f"malformed response head {head!r}")
                end = head_end + 4 + int(length[1])
                if len(buffer) < end:
                    break  # body still in flight
                body = buffer[head_end + 4 : end]
                payload = decode(body.decode()) if body else None
                start = end
                if waiters:
                    waiter = waiters.popleft()
                    if not waiter.done():
                        waiter.set_result((int(status[1]), payload))
        except ValueError as exc:  # a bad head or body: the stream is lost
            self._error = exc
            self._buffer = b""
            self.transport.abort()
            return
        self._buffer = buffer[start:]
        if start:
            self.last_activity = asyncio.get_running_loop().time()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """Fail everything still in flight and force a full interner
        resync (the server may have restarted)."""
        client = self.client
        client._state.resync()
        error: Optional[Exception] = self._error or exc
        if error is None and self._buffer:
            error = ValueError(
                f"response truncated by EOF after {len(self._buffer)} bytes"
            )
        failure: ClientError
        if self.stalled:
            # The watchdog tore this connection down: none of the
            # in-flight requests were answered, so each fails with the
            # typed retryable error rather than a bare disconnect.
            failure = StallError(
                f"connection to {client.host}:{client.port} stalled for "
                f"{client.timeout:g}s with responses in flight; torn down "
                "(retryable: the requests were never answered)"
            )
        else:
            failure = ClientError(
                f"connection to {client.host}:{client.port} closed"
                + (f": {error}" if error else ""),
                status=502,
            )
        while self.waiters:
            waiter = self.waiters.popleft()
            if not waiter.done():
                waiter.set_exception(failure)
        if client._conn is self:
            client._conn = None
        self.closed.set_result(None)


class AsyncHttpClient:
    """The :class:`DecisionClient` surface as coroutines (v2 wire).

    Not a :class:`DecisionClient` subclass — every decision and
    administration method is ``async`` — but method for method the same
    contract, returning the same stable wire dicts.  See
    :class:`repro.client.HttpClient` for the parameters; ``protocol``
    accepts ``"v2"`` (default), ``"v1"``, or ``"auto"``.
    """

    def __init__(
        self,
        url: str,
        *,
        protocol: str = "v2",
        compact: bool = True,
        trace: "bool | int" = False,
        timeout: Optional[float] = 30.0,
    ):
        if protocol not in ("auto", "v1", "v2"):
            raise ValueError(f"unknown protocol {protocol!r}")
        self.host, self.port = _split_url(url)
        self._trace = wire.TraceSampler(trace)
        #: Stall timeout: if responses stop arriving for this long while
        #: requests are in flight, the connection is failed.  Enforced
        #: by one per-client watchdog, not per request — responses are
        #: FIFO on the socket, so "the head response is late" is the
        #: only timeout there is.  ``None`` disables it.
        self.timeout = timeout
        self.compact = compact
        self._protocol: Optional[str] = None if protocol == "auto" else protocol
        self._state = wire.WireState()
        self._texts: Dict[int, str] = {}
        self._conn: Optional[_Connection] = None
        self._watchdog_task: Optional[asyncio.Task[None]] = None
        self._write_lock = asyncio.Lock()
        #: (method, path) -> rendered request-head prefix (up to
        #: Content-Length).
        self._head_prefixes: Dict[Tuple[str, str], bytes] = {}
        #: Requests rendered this tick, flushed in one socket write.
        self._out: List[bytes] = []
        self._flush_scheduled = False

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def connect(self) -> "AsyncHttpClient":
        """Open the connection eagerly (otherwise the first call does)."""
        await self._reconnect()
        return self

    def _live(self) -> Optional[_Connection]:
        """The open connection, or ``None`` when one must be dialled."""
        conn = self._conn
        return None if conn is None or conn.transport.is_closing() else conn

    async def _reconnect(self) -> _Connection:
        """The open connection, dialling a new one if there is none."""
        async with self._write_lock:
            conn = self._live()
            if conn is not None:
                return conn
            # Unflushed bytes belong to the dead connection; their
            # waiters are failed with it, and replaying them on the new
            # socket would misalign every future response.
            self._out.clear()
            loop = asyncio.get_running_loop()
            _, conn = await loop.create_connection(
                lambda: _Connection(self), self.host, self.port
            )
            self._conn = conn
            if self.timeout is not None and self._watchdog_task is None:
                self._watchdog_task = loop.create_task(self._watchdog())
            return conn

    async def _watchdog(self) -> None:
        """Fail the connection when in-flight responses stop arriving."""
        assert self.timeout is not None
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.timeout / 2)
            conn = self._conn
            if (
                conn is not None
                and conn.waiters
                and loop.time() - conn.last_activity > self.timeout
            ):
                conn.stalled = True
                conn.transport.abort()  # connection_lost fails every waiter

    async def close(self) -> None:
        async with self._write_lock:
            conn, self._conn = self._conn, None
            watchdog, self._watchdog_task = self._watchdog_task, None
        if watchdog is not None:
            watchdog.cancel()
        if conn is not None:
            conn.transport.close()
            await conn.closed

    async def __aenter__(self) -> "AsyncHttpClient":
        return await self.connect()

    async def __aexit__(self, *_exc: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # The pipelined request primitive
    # ------------------------------------------------------------------
    def _enqueue(
        self, conn: _Connection, method: str, path: str, body: Optional[Dict]
    ) -> "asyncio.Future[Response]":
        """Queue one request on *conn*; returns its response waiter.

        Every request queued this loop pass leaves in one socket write.
        Callers build *body* and queue it with no ``await`` in between,
        which keeps interner deltas reaching the server in ``base`` order.
        """
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        prefix = self._head_prefixes.get((method, path))
        if prefix is None:
            prefix = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: "
            ).encode("ascii")
            self._head_prefixes[method, path] = prefix
        self._out.append(b"%b%d\r\n\r\n%b" % (prefix, len(payload), payload))
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Response]" = loop.create_future()
        if not conn.waiters:
            conn.last_activity = loop.time()  # the watchdog clock starts
        conn.waiters.append(future)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._flush_writes)
        return future

    def _flush_writes(self) -> None:
        self._flush_scheduled = False
        if not self._out:
            return
        data = b"".join(self._out)
        self._out.clear()
        conn = self._conn
        if conn is not None and not conn.transport.is_closing():
            conn.transport.write(data)
        # A connection that dropped between queueing and flush loses
        # these bytes, but their waiters are failed with it — callers
        # see the ClientError either way.

    async def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Response:
        conn = self._live() or await self._reconnect()
        return await self._enqueue(conn, method, path, body)

    async def _resync(self, path: str, sent: Dict) -> Response:
        """Re-send a v2 request answered ``409`` with the full key table."""
        conn = self._live() or await self._reconnect()
        body = wire.resync_body(self._state, sent)
        return await self._enqueue(conn, "POST", path, body)

    async def _protocol_name(self) -> str:
        if self._protocol is None:
            status, payload = await self._request("GET", "/v2/protocol")
            self._protocol = (
                "v2"
                if status == 200
                and isinstance(payload, dict)
                and "v2" in payload.get("versions", ())
                else "v1"
            )
        return self._protocol

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    async def _decide(
        self,
        principal: Hashable,
        query: ConjunctiveQuery,
        *,
        peek: bool,
        trace: Optional[bool] = None,
    ) -> Dict:
        if (self._protocol or await self._protocol_name()) == "v2":
            conn = self._live() or await self._reconnect()
            body = wire.single_body(
                self._state,
                principal,
                query,
                peek=peek,
                compact=self.compact,
                trace=self._trace.should(trace),
            )
            status, payload = await self._enqueue(conn, "POST", "/v2/query", body)
            if status == 409:
                status, payload = await self._resync("/v2/query", body)
            if status != 200:
                raise _error_from(status, payload)
            return wire.inflate_single(payload, principal)
        status, payload = await self._request(
            "POST",
            "/v1/peek" if peek else "/v1/query",
            {"principal": principal, "datalog": self._datalog(query)},
        )
        if status != 200:
            raise _error_from(status, payload)
        return payload  # type: ignore[return-value]

    async def _decide_many(
        self, items: Sequence[ClientItem], *, peek: bool
    ) -> List[Dict]:
        if not items:
            return []
        if await self._protocol_name() == "v2":
            conn = self._live() or await self._reconnect()
            body, principals = wire.batch_body(
                self._state, items, peek=peek, compact=self.compact
            )
            status, payload = await self._enqueue(conn, "POST", "/v2/batch", body)
            if status == 409:
                status, payload = await self._resync("/v2/batch", body)
            if status != 200:
                raise _error_from(status, payload)
            return wire.inflate_batch(payload, principals)
        status, payload = await self._request(
            "POST",
            "/v1/batch",
            {
                "queries": [
                    {"principal": principal, "datalog": self._datalog(query)}
                    for principal, query in items
                ],
                "peek": peek,
            },
        )
        if status != 200:
            raise _error_from(status, payload)
        return payload["decisions"]  # type: ignore[index]

    def _datalog(self, query: ConjunctiveQuery) -> str:
        qid = self._state.interner.intern(query)
        text = self._texts.get(qid)
        if text is None:
            text = wire.query_to_datalog(query)
            self._texts[qid] = text
        return text

    async def submit(
        self,
        principal: Hashable,
        query: ConjunctiveQuery,
        *,
        trace: Optional[bool] = None,
    ) -> Dict:
        """Decide one query for one principal, updating session state.

        ``trace=`` overrides the client's trace sampling for this one
        request; a traced decision dict carries the server span under
        ``"trace"``.
        """
        return await self._decide(principal, query, peek=False, trace=trace)

    async def peek(
        self,
        principal: Hashable,
        query: ConjunctiveQuery,
        *,
        trace: Optional[bool] = None,
    ) -> Dict:
        """The decision :meth:`submit` would make, without making it."""
        return await self._decide(principal, query, peek=True, trace=trace)

    async def submit_many(self, items: Sequence[ClientItem]) -> List[Dict]:
        """Ordered stateful batch, per-item isolated (one round trip)."""
        return await self._decide_many(list(items), peek=False)

    async def peek_many(self, items: Sequence[ClientItem]) -> List[Dict]:
        """Batch peek: independent probes, no state change."""
        return await self._decide_many(list(items), peek=True)

    async def decide_group(
        self,
        principal: Hashable,
        queries: Sequence[ConjunctiveQuery],
        *,
        peek: bool = False,
    ) -> List[Dict]:
        """Decide many queries for one principal in one round trip."""
        return await self._decide_many(
            [(principal, query) for query in queries], peek=peek
        )

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------
    async def register(self, principal: Hashable, policy: Any) -> None:
        partitions = getattr(policy, "partitions", policy)
        status, payload = await self._request(
            "POST",
            "/v1/register",
            {"principal": principal, "policy": [list(p) for p in partitions]},
        )
        if status != 200:
            raise _error_from(status, payload)

    async def reset(self, principal: Hashable) -> None:
        status, payload = await self._request(
            "POST", "/v1/reset", {"principal": principal}
        )
        if status != 200:
            raise _error_from(status, payload)

    async def metrics(self) -> Dict:
        status, payload = await self._request("GET", "/metrics")
        if status != 200:
            raise _error_from(status, payload)
        return payload  # type: ignore[return-value]

    async def snapshot(self) -> Dict:
        status, payload = await self._request("GET", "/internal/snapshot")
        if status != 200:
            raise _error_from(status, payload)
        return payload  # type: ignore[return-value]
