"""The HTTP client core, and :class:`HttpClient`: that core run blocking.

Every HTTP client operation — the v2 single and batch decisions, the
``409 unknown-generation`` re-send with the full key table, and the
administration calls — is one coroutine of :class:`ClientCore`.  The
core does no I/O: it awaits its shell's two hooks,
:meth:`~ClientCore._open` and :meth:`~ClientCore._send`.  It opens the
connection, then builds a v2 body, then hands it to ``_send`` with no
suspension in between, so interner deltas reach the server in ``base``
order.

:class:`~repro.client.AsyncHttpClient` awaits the core over a pipelined
asyncio connection.  :class:`HttpClient` runs it over one keep-alive
``http.client`` connection whose hooks never suspend, through the
no-suspend driver :func:`repro.server.batch._blocking`: no event loop.
It is *not* thread-safe by design (one socket, one in-flight request);
give each worker thread its own instance.  The server's ``/v1/*`` text
routes are its curl surface (``docs/http-api.md``); no client here
speaks them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Awaitable, Dict, Hashable, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

if TYPE_CHECKING:  # import only for annotations: the module stays lazy
    from http.client import HTTPConnection

from repro.client import wire
from repro.client.base import ClientError, ClientItem, DecisionClient, StallError
from repro.core.queries import ConjunctiveQuery
from repro.server.batch import _blocking

#: ``(status, payload)`` of one response.
Response = Tuple[int, object]
#: A request body: a JSON object, one already rendered as bytes, or none.
Body = Union[Dict, bytes, None]


def _split_url(url: str) -> Tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"//{url}")
    if parts.scheme not in ("http", ""):
        raise ValueError(f"only http:// targets are supported, got {url!r}")
    return parts.hostname or "127.0.0.1", parts.port or 80


def _error_from(status: int, payload: object) -> ClientError:
    if isinstance(payload, dict):
        return ClientError(
            str(payload.get("error", f"HTTP {status}")),
            status=status,
            code=payload.get("code"),
        )
    return ClientError(f"HTTP {status}", status=status)


class ClientCore:
    """Every client operation, once, as a coroutine over two hooks.

    A shell implements :meth:`_open` and :meth:`_send` and exposes the
    ``*_async`` coroutines as its public surface; see
    :class:`HttpClient` for the parameters.
    """

    def __init__(
        self,
        url: str,
        *,
        protocol: str,
        compact: bool,
        trace: "bool | int",
        timeout: Optional[float],
    ):
        if protocol != "v2":
            raise ValueError(
                f"unsupported protocol {protocol!r}: the clients speak the "
                "v2 wire only; /v1/* is the curl surface (docs/http-api.md)"
            )
        self.host, self.port = _split_url(url)
        self.timeout = timeout
        self.compact = compact
        self._trace = wire.TraceSampler(trace)
        self._state = wire.WireState()

    # ------------------------------------------------------------------
    # The shell's two hooks
    # ------------------------------------------------------------------
    async def _open(self) -> Any:
        """The live connection, dialling a new one if there is none."""
        raise NotImplementedError

    def _send(
        self, conn: Any, method: str, path: str, body: Body
    ) -> Awaitable[Response]:
        """Send one request on *conn*; awaiting the result gives
        ``(status, payload)``.  *body* is a JSON object, or one already
        rendered as bytes."""
        raise NotImplementedError

    def _unreachable(self, exc: Exception) -> ClientError:
        """The error a request that could not be written fails with."""
        return ClientError(f"cannot reach {self.host}:{self.port}: {exc}", status=502)

    def _stalled(self) -> StallError:
        """The error a request written but never answered fails with."""
        return StallError(
            f"connection to {self.host}:{self.port} stalled for "
            f"{self.timeout:g}s with responses in flight; torn down "
            "(retryable: the requests were never answered)"
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def _request(
        self, method: str, path: str, body: Body = None
    ) -> Any:
        """The payload of one request answered ``200``; raises otherwise."""
        conn = await self._open()
        status, payload = await self._send(conn, method, path, body)
        if status != 200:
            raise _error_from(status, payload)
        return payload

    async def _resync(self, path: str, sent: Dict) -> Response:
        """Re-send a v2 request answered ``409`` with the full key table."""
        conn = await self._open()
        body = wire.resync_body(self._state, sent)
        return await self._send(conn, "POST", path, body)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    async def _decide_async(
        self,
        principal: Hashable,
        query: ConjunctiveQuery,
        *,
        peek: bool,
        trace: Optional[bool] = None,
    ) -> Dict:
        """One decision as the stable wire dict; raises ClientError."""
        conn = await self._open()
        data = wire.single_request(
            self._state,
            principal,
            query,
            peek=peek,
            compact=self.compact,
            trace=self._trace.should(trace),
        )
        status, payload = await self._send(conn, "POST", "/v2/query", data)
        if status == 409:
            status, payload = await self._resync("/v2/query", json.loads(data))
        if status != 200:
            raise _error_from(status, payload)
        return wire.inflate_single(payload, principal)

    async def _decide_many_async(
        self, items: Sequence[ClientItem], *, peek: bool
    ) -> List[Dict]:
        """Ordered batch; per-item error dicts instead of raising."""
        if not items:
            return []
        conn = await self._open()
        body, principals = wire.batch_body(
            self._state, items, peek=peek, compact=self.compact
        )
        status, payload = await self._send(conn, "POST", "/v2/batch", body)
        if status == 409:
            status, payload = await self._resync("/v2/batch", body)
        if status != 200:
            raise _error_from(status, payload)
        return wire.inflate_batch(payload, principals)

    # ------------------------------------------------------------------
    # Administration (the shared /v1 admin routes)
    # ------------------------------------------------------------------
    async def _register_async(self, principal: Hashable, policy: Any) -> None:
        """Register (or re-register, resetting state) a principal."""
        partitions = getattr(policy, "partitions", policy)
        await self._request(
            "POST",
            "/v1/register",
            {"principal": principal, "policy": [list(p) for p in partitions]},
        )

    async def _reset_async(self, principal: Hashable) -> None:
        """Forget the principal's history; the policy stays registered."""
        await self._request("POST", "/v1/reset", {"principal": principal})

    async def _metrics_async(self) -> Dict:
        """The ``/metrics`` snapshot of the server."""
        return await self._request("GET", "/metrics")

    async def _snapshot_async(self) -> Dict:
        """The full durable-state payload (``/internal/snapshot``)."""
        return await self._request("GET", "/internal/snapshot")


class HttpClient(ClientCore, DecisionClient):
    """A :class:`DecisionClient` over HTTP (the v2 wire).

    Parameters
    ----------
    url:
        ``http://host:port`` of a running server (``repro serve``).
    protocol:
        ``"v2"``, the only wire a client speaks; any other value raises
        :class:`ValueError`.
    compact:
        Ask for the dense v2 response rows.
    trace:
        Request server-side spans: ``False`` never, ``True``
        on every decision, an integer N to sample one decision in N.
        A traced decision dict carries the span under ``"trace"``; the
        per-call ``trace=`` keyword on :meth:`submit`/:meth:`peek`
        overrides this default for that one request.
    timeout:
        Socket timeout in seconds.  A request written but not answered
        within it fails with the retryable
        :class:`~repro.client.StallError`, as on the async client.
    """

    def __init__(
        self,
        url: str,
        *,
        protocol: str = "v2",
        compact: bool = True,
        trace: "bool | int" = False,
        timeout: float = 30.0,
    ):
        super().__init__(
            url, protocol=protocol, compact=compact, trace=trace, timeout=timeout
        )
        self._connection: "Optional[HTTPConnection]" = None

    # ------------------------------------------------------------------
    # The shell: blocking I/O in coroutines that never suspend
    # ------------------------------------------------------------------
    async def _open(self) -> "HTTPConnection":
        if self._connection is None:
            from http.client import HTTPConnection

            self._connection = HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    async def _send(
        self, conn: "HTTPConnection", method: str, path: str, body: Body
    ) -> Response:
        """One request/response; retries once on a stale keep-alive."""
        from http.client import HTTPException, RemoteDisconnected

        payload = json.dumps(body).encode() if isinstance(body, dict) else body
        headers = {} if payload is None else {"Content-Type": "application/json"}
        for attempt in (0, 1):
            if attempt:
                self.close()
                conn = await self._open()
            written = False
            try:
                conn.request(method, path, payload, headers)
                written = True
                response = conn.getresponse()  # repro: noqa[ASY01] - the sync shell runs under _blocking, never on an event loop
                return response.status, json.loads(response.read())
            except RemoteDisconnected:
                if attempt:
                    self.close()
                    self._state.resync()
                    raise ClientError(
                        f"server at {self.host}:{self.port} closed the "
                        "connection",
                        status=502,
                    ) from None
            except (OSError, ValueError, HTTPException) as exc:
                # The server may have restarted (and lost our interner
                # generation) — force a full resync on reconnect.
                self.close()
                self._state.resync()
                if written and isinstance(exc, TimeoutError):
                    # Sent, never answered: the same fault the async
                    # client's watchdog reports, with the same error.
                    raise self._stalled() from exc
                raise self._unreachable(exc) from exc
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # The core's coroutines, run blocking
    # ------------------------------------------------------------------
    def submit(
        self,
        principal: Hashable,
        query: ConjunctiveQuery,
        *,
        trace: Optional[bool] = None,
    ) -> Dict:
        """Decide one query statefully; ``trace=`` overrides the default."""
        return self._decide(principal, query, peek=False, trace=trace)

    def peek(
        self,
        principal: Hashable,
        query: ConjunctiveQuery,
        *,
        trace: Optional[bool] = None,
    ) -> Dict:
        """Stateless probe; ``trace=`` overrides the client default."""
        return self._decide(principal, query, peek=True, trace=trace)

    def _decide(
        self,
        principal: Hashable,
        query: ConjunctiveQuery,
        *,
        peek: bool,
        trace: Optional[bool] = None,
    ) -> Dict:
        return _blocking(
            self._decide_async(principal, query, peek=peek, trace=trace)
        )

    def _decide_many(
        self, items: Sequence[ClientItem], *, peek: bool
    ) -> List[Dict]:
        return _blocking(self._decide_many_async(items, peek=peek))

    def register(self, principal: Hashable, policy: Any) -> None:
        _blocking(self._register_async(principal, policy))

    def reset(self, principal: Hashable) -> None:
        _blocking(self._reset_async(principal))

    def metrics(self) -> Dict:
        return _blocking(self._metrics_async())

    def snapshot(self) -> Dict:
        return _blocking(self._snapshot_async())

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
