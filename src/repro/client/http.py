"""The synchronous HTTP :class:`DecisionClient`.

One persistent keep-alive connection, the qid-native v2 wire protocol
by default, and transparent content negotiation: with
``protocol="auto"`` the client probes ``GET /v2/protocol`` once and
falls back to the text-based v1 wire against servers that predate v2.
A ``409 unknown-generation`` — the server evicted this client's
interner generation or restarted — is handled internally by re-sending
the request with the full key table.

The client is *not* thread-safe by design (one socket, one in-flight
request); give each worker thread its own instance.  For high in-flight
counts on one connection use :class:`repro.client.AsyncHttpClient`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

if TYPE_CHECKING:  # import only for annotations: the module stays lazy
    from http.client import HTTPConnection

from repro.client import wire
from repro.client.base import ClientError, ClientItem, DecisionClient
from repro.core.queries import ConjunctiveQuery


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


class HttpClient(DecisionClient):
    """A :class:`DecisionClient` over HTTP (v2 wire, v1 fallback).

    Parameters
    ----------
    url:
        ``http://host:port`` of a running server (``repro serve``).
    protocol:
        ``"v2"`` (qid-native wire), ``"v1"`` (text wire), or ``"auto"``
        (negotiate via ``GET /v2/protocol``; the default).
    compact:
        Negotiate the dense v2 response rows (ignored on v1).
    trace:
        Request server-side spans (v2 only): ``False`` never, ``True``
        on every decision, an integer N to sample one decision in N.
        A traced decision dict carries the span under ``"trace"``; the
        per-call ``trace=`` keyword on :meth:`submit`/:meth:`peek`
        overrides this default for that one request.
    timeout:
        Socket timeout in seconds.
    """

    def __init__(
        self,
        url: str,
        *,
        protocol: str = "auto",
        compact: bool = True,
        trace: "bool | int" = False,
        timeout: float = 30.0,
    ):
        if protocol not in ("auto", "v1", "v2"):
            raise ValueError(f"unknown protocol {protocol!r}")
        self.host, self.port = _split_url(url)
        self.timeout = timeout
        self.compact = compact
        self._trace = wire.TraceSampler(trace)
        self._protocol: Optional[str] = None if protocol == "auto" else protocol
        self._state = wire.WireState()
        self._connection: "Optional[HTTPConnection]" = None
        #: v1 only: local qid -> rendered datalog text (parse-once).
        self._texts: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self, fresh: bool = False) -> Any:
        from http.client import HTTPConnection

        if self._connection is None or fresh:
            if self._connection is not None:
                self._connection.close()
            self._connection = HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def _request(
        self, method: str, path: str, body: "Dict | bytes | None"
    ) -> Tuple[int, object]:
        """One request/response; retries once on a stale keep-alive.

        *body* is a JSON object, or one already rendered as bytes.
        """
        from http.client import HTTPException, RemoteDisconnected

        payload = json.dumps(body).encode() if isinstance(body, dict) else body
        headers = {} if payload is None else {"Content-Type": "application/json"}
        for attempt in (0, 1):
            connection = self._connect(fresh=bool(attempt))
            try:
                connection.request(method, path, payload, headers)
                response = connection.getresponse()
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
                raise ClientError(
                    f"cannot reach {self.host}:{self.port}: {exc}", status=502
                ) from exc
        raise AssertionError("unreachable")

    def _request_v2(
        self, path: str, body: "Dict | bytes"
    ) -> Tuple[int, object]:
        """A v2 request with automatic 409 resync-and-retry."""
        status, payload = self._request("POST", path, body)
        if status == 409:
            sent = json.loads(body) if isinstance(body, bytes) else body
            status, payload = self._request(
                "POST", path, wire.resync_body(self._state, sent)
            )
        return status, payload

    @property
    def protocol(self) -> str:
        """The negotiated wire protocol (probes the server on first use)."""
        if self._protocol is None:
            try:
                status, payload = self._request("GET", "/v2/protocol", None)
            except ClientError:
                raise  # unreachable server: don't cache a guess
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
        if self.protocol == "v2":
            data = wire.single_request(
                self._state,
                principal,
                query,
                peek=peek,
                compact=self.compact,
                trace=self._trace.should(trace),
            )
            status, payload = self._request_v2("/v2/query", data)
            if status != 200:
                raise _error_from(status, payload)
            return wire.inflate_single(payload, principal)
        status, payload = self._request(
            "POST",
            "/v1/peek" if peek else "/v1/query",
            {"principal": principal, "datalog": self._datalog(query)},
        )
        if status != 200:
            raise _error_from(status, payload)
        return payload  # type: ignore[return-value]

    def _decide_many(
        self, items: Sequence[ClientItem], *, peek: bool
    ) -> List[Dict]:
        if not items:
            return []
        if self.protocol == "v2":
            body, principals = wire.batch_body(
                self._state, items, peek=peek, compact=self.compact
            )
            status, payload = self._request_v2("/v2/batch", body)
            if status != 200:
                raise _error_from(status, payload)
            return wire.inflate_batch(payload, principals)
        status, payload = self._request(
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
        """Datalog text for the v1 wire, rendered once per shape."""
        qid = self._state.interner.intern(query)
        text = self._texts.get(qid)
        if text is None:
            text = wire.query_to_datalog(query)
            self._texts[qid] = text
        return text

    # ------------------------------------------------------------------
    # Administration (identical on both wire versions)
    # ------------------------------------------------------------------
    def register(self, principal: Hashable, policy: Any) -> None:
        partitions = getattr(policy, "partitions", policy)
        status, payload = self._request(
            "POST",
            "/v1/register",
            {"principal": principal, "policy": [list(p) for p in partitions]},
        )
        if status != 200:
            raise _error_from(status, payload)

    def reset(self, principal: Hashable) -> None:
        status, payload = self._request(
            "POST", "/v1/reset", {"principal": principal}
        )
        if status != 200:
            raise _error_from(status, payload)

    def metrics(self) -> Dict:
        status, payload = self._request("GET", "/metrics", None)
        if status != 200:
            raise _error_from(status, payload)
        return payload  # type: ignore[return-value]

    def snapshot(self) -> Dict:
        status, payload = self._request("GET", "/internal/snapshot", None)
        if status != 200:
            raise _error_from(status, payload)
        return payload  # type: ignore[return-value]

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
