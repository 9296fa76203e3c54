"""``repro.client`` — one :class:`DecisionClient` API over every transport.

* :mod:`repro.client.base` — the :class:`DecisionClient` protocol
  (``submit`` / ``peek`` / ``submit_many`` / ``peek_many`` /
  ``decide_group`` / ``register`` / ``reset`` / ``metrics`` /
  ``snapshot``) and the uniform :class:`ClientError` (plus the
  retryable :class:`StallError` a stalled connection raises)
* :mod:`repro.client.local` — :class:`LocalClient`: an in-process
  :class:`~repro.server.service.DisclosureService` behind the protocol
* :mod:`repro.client.http` — the HTTP client core (every operation
  once, as a coroutine) and :class:`HttpClient`: that core run blocking,
  speaking the qid-native v2 wire
* :mod:`repro.client.aio` — :class:`AsyncHttpClient`: the same core
  awaited, pipelining requests over one connection, which the
  server's tick drain coalesces
* :mod:`repro.client.sharded` — :class:`ShardedClient`: client-side
  principal routing over one client per shard
* :mod:`repro.client.wire` — the client half of the v2 wire protocol
  (interner generations, qid deltas, compact-row inflation)
* :mod:`repro.client.parsing` — :func:`parse_text`: the one place
  request text becomes a parsed query for the client stack
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.client.aio": ("AsyncHttpClient",),
    "repro.client.base": ("ClientError", "DecisionClient", "StallError"),
    "repro.client.http": ("HttpClient",),
    "repro.client.local": ("LocalClient",),
    "repro.client.parsing": ("parse_text",),
    "repro.client.sharded": ("ShardedClient",),
    "repro.client.wire": ("WireState", "query_to_datalog"),
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.client.aio import AsyncHttpClient
    from repro.client.base import ClientError, DecisionClient, StallError
    from repro.client.http import HttpClient
    from repro.client.local import LocalClient
    from repro.client.parsing import parse_text
    from repro.client.sharded import ShardedClient
    from repro.client.wire import WireState, query_to_datalog

__all__ = [
    "AsyncHttpClient",
    "ClientError",
    "DecisionClient",
    "HttpClient",
    "LocalClient",
    "ShardedClient",
    "StallError",
    "WireState",
    "parse_text",
    "query_to_datalog",
]
