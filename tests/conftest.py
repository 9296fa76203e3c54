"""Fixtures shared by every test suite.

``v1_driver`` is a minimal driver of the server's ``/v1/*`` text routes,
the documented curl surface: the clients in :mod:`repro.client` speak
only the v2 wire, so the suites that digest-check the v1 routes drive
them with this.  It POSTs :func:`~repro.client.wire.query_to_datalog`
text to ``/v1/query``, ``/v1/peek`` and ``/v1/batch`` over one
keep-alive connection — no memo, no negotiation — and exposes the
methods the scenario replay and the equivalence tests call.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Any, Dict, Hashable, List, Sequence, Tuple
from urllib.parse import urlsplit

import pytest

from repro.client.http import _error_from
from repro.client.wire import query_to_datalog


class V1Driver:
    """``register``/``reset``/``submit``/``peek``/``submit_many`` over
    the v1 routes; a non-200 answer raises the client's
    :class:`~repro.client.ClientError`."""

    def __init__(self, url: str):
        parts = urlsplit(url)
        self.connection = HTTPConnection(parts.hostname, parts.port, timeout=30)

    def _post(self, path: str, body: Dict) -> Any:
        self.connection.request(
            "POST", path, json.dumps(body), {"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise _error_from(response.status, payload)
        return payload

    def register(self, principal: Hashable, policy: Any) -> None:
        partitions = getattr(policy, "partitions", policy)
        self._post(
            "/v1/register",
            {"principal": principal, "policy": [list(p) for p in partitions]},
        )

    def reset(self, principal: Hashable) -> None:
        self._post("/v1/reset", {"principal": principal})

    def submit(self, principal: Hashable, query) -> Dict:
        return self._post(
            "/v1/query", {"principal": principal, "datalog": query_to_datalog(query)}
        )

    def peek(self, principal: Hashable, query) -> Dict:
        return self._post(
            "/v1/peek", {"principal": principal, "datalog": query_to_datalog(query)}
        )

    def submit_many(self, items: Sequence[Tuple[Hashable, Any]]) -> List[Dict]:
        queries = [
            {"principal": principal, "datalog": query_to_datalog(query)}
            for principal, query in items
        ]
        return self._post("/v1/batch", {"queries": queries, "peek": False})[
            "decisions"
        ]

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "V1Driver":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


@pytest.fixture(scope="session")
def v1_driver():
    """The :class:`V1Driver` class: ``v1_driver(url)`` opens one."""
    return V1Driver
