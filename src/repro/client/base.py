"""The :class:`DecisionClient` protocol: one API over every transport.

Before this package, callers picked a surface per deployment shape —
``DisclosureService`` methods in process, hand-rolled JSON over HTTP
against ``repro serve`` — each with different ergonomics and error
shapes.  A :class:`DecisionClient`
is the one contract:

=================  ====================================================
method             meaning
=================  ====================================================
``submit``         decide one query, committing the state transition
``peek``           *would this be accepted?* — no state change
``submit_many``    an ordered ``(principal, query)`` stream, decided
                   exactly as sequential submits, per-item isolated
``peek_many``      the stateless batch form
``decide_group``   many queries for one principal in one shot
``register``       register/replace a principal's partition policy
``reset``          forget a principal's history (policy stays)
``metrics``        the ``/metrics`` snapshot
``snapshot``       the full durable state payload
=================  ====================================================

Every decision comes back as the *stable wire decision object* — the
same JSON dict ``/v1/query`` has always returned (``accepted``,
``principal``, ``reason``, ``cached``, ``live_before``, ``live_after``)
— regardless of transport, so backends can be swapped under a fixed
contract and the equivalence suite can compare transports byte for
byte.  Batch entries for items that failed are
``{"error": ..., "code": ...}`` dicts (the v2 taxonomy); single-item
failures raise :class:`ClientError` carrying the same status and code.

Implementations:

* :class:`repro.client.LocalClient` — wraps an in-process
  :class:`~repro.server.service.DisclosureService` (no sockets).
* :class:`repro.client.HttpClient` — sync HTTP; speaks the qid-native
  v2 wire protocol, negotiating down to v1 against older servers.
* :class:`repro.client.AsyncHttpClient` — the same surface as
  coroutines, pipelining requests over one connection.
* :class:`repro.client.ShardedClient` — routes principals across a
  list of clients with the stable CRC-32 shard hash.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.queries import ConjunctiveQuery
from repro.errors import ReproError

#: One batch item: a principal and a parsed query.
ClientItem = Tuple[Hashable, ConjunctiveQuery]


class ClientError(ReproError):
    """A request-shaped failure, uniform across transports.

    Attributes
    ----------
    status:
        The HTTP-style status (404 unknown principal, 400 malformed,
        409 resync conflict, 502/503 transport trouble) — local
        transports synthesize the same numbers.
    code:
        The v2 error-taxonomy slug (``unknown-principal``,
        ``bad-delta``, ...) when the failure has one, else ``None``.
    retryable:
        ``True`` when the request itself was never judged — the
        connection died or stalled under it — so re-sending it is safe
        and likely to succeed.  ``False`` (the default) for
        request-shaped failures, where a retry would just fail again.
    """

    retryable = False

    def __init__(self, message: str, status: int = 400, code: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.code = code

    def __repr__(self) -> str:
        return f"ClientError({self.status}, {self.code!r}, {str(self)!r})"


class StallError(ClientError):
    """A connection stalled and was torn down mid-flight.

    Raised into every in-flight future when
    :class:`~repro.client.aio.AsyncHttpClient`'s watchdog kills a
    connection whose responses stopped arriving (server wedged, network
    black hole), and by :class:`~repro.client.HttpClient` when a request
    it wrote is not answered within its timeout.  The decisions were
    never observed, so the error is :attr:`retryable` — callers may
    re-issue the same requests on the reconnected client, which resyncs
    its interner state automatically.
    """

    retryable = True

    def __init__(self, message: str, status: int = 504, code: Optional[str] = None):
        super().__init__(message, status=status, code=code)


class DecisionClient(ABC):
    """The abstract decision-service client (see module docstring).

    Subclasses implement the two decision primitives (:meth:`_decide`,
    :meth:`_decide_many`) plus the administrative surface; the batch
    convenience forms are derived here so every transport agrees on
    their semantics.
    """

    # -- the transport primitives --------------------------------------
    @abstractmethod
    def _decide(self, principal: Hashable, query: ConjunctiveQuery, *, peek: bool) -> Dict:
        """One decision as the stable wire dict; raises ClientError."""

    @abstractmethod
    def _decide_many(self, items: Sequence[ClientItem], *, peek: bool) -> List[Dict]:
        """Ordered batch; per-item error dicts instead of raising."""

    # -- the decision surface ------------------------------------------
    def submit(self, principal: Hashable, query: ConjunctiveQuery) -> Dict:
        """Decide one query for one principal, updating session state."""
        return self._decide(principal, query, peek=False)

    def peek(self, principal: Hashable, query: ConjunctiveQuery) -> Dict:
        """The decision :meth:`submit` would make, without making it."""
        return self._decide(principal, query, peek=True)

    def submit_many(self, items: Iterable[ClientItem]) -> List[Dict]:
        """Decide an ordered ``(principal, query)`` stream statefully.

        Semantically identical to sequential :meth:`submit` calls in
        order, with per-item isolation: a failing item yields an
        ``{"error": ..., "code": ...}`` entry at its index while every
        other item is still decided.
        """
        return self._decide_many(list(items), peek=False)

    def peek_many(self, items: Iterable[ClientItem]) -> List[Dict]:
        """Batch :meth:`peek`: independent probes, no state change."""
        return self._decide_many(list(items), peek=True)

    def decide_group(
        self,
        principal: Hashable,
        queries: Iterable[ConjunctiveQuery],
        *,
        peek: bool = False,
    ) -> List[Dict]:
        """Decide many queries for one principal in one round trip."""
        return self._decide_many(
            [(principal, query) for query in queries], peek=peek
        )

    # -- the administrative surface ------------------------------------
    @abstractmethod
    def register(self, principal: Hashable, policy: Any) -> None:
        """Register (or re-register, resetting state) a principal."""

    @abstractmethod
    def reset(self, principal: Hashable) -> None:
        """Forget the principal's history; the policy stays registered."""

    @abstractmethod
    def metrics(self) -> Dict:
        """The ``/metrics`` snapshot of the backing deployment."""

    @abstractmethod
    def snapshot(self) -> Dict:
        """The full durable-state payload (``/internal/snapshot``)."""

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "DecisionClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
