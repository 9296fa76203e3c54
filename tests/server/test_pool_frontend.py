"""The pooled asyncio front end: batches join the tick's decision run.

Pooled, ``POST /v2/batch`` is not handled one request at a time: its
entries join the same run consecutive single decisions form, one
``decide_async`` decides the run, and the results are sliced back per
request.  These suites hold that coalescing *exact* — every response
equal to a single local service fed the same requests one by one — at
two levels: the run discipline alone, against a recording stand-in for
the pool (deterministic run boundaries, no processes), and end to end,
pipelined over one connection to a real two-replica deployment.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.client.wire import WireState, batch_body, single_body
from repro.server.aio import (
    AsyncDecisionServer,
    _HttpProtocol,
    _Request,
    start_async_background,
)
from repro.server.batch import decide_wire_items
from repro.server.httpd import MAX_BATCH, dispatch
from repro.server.pool import start_pooled_background
from repro.server.service import DisclosureService

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]
WIDE = [["user_birthday"], ["user_likes"], ["public_profile"]]
PRINCIPALS = ("alice", "bob", "carol", "dave", "erin")
REPLICAS = 2


def _queries(service):
    return [
        service.parse(text, "fql", 3)
        for text in (
            "SELECT birthday FROM user WHERE uid = me()",
            "SELECT music FROM user WHERE uid = me()",
            "SELECT name FROM user WHERE uid = me()",
        )
    ]


def _stream(service):
    """``[(method, path, body)]``: batches and singles, submit and peek,
    a malformed batch, an unknown principal, a mid-stream re-register.

    Built so that a run spanning a boundary it must not span changes an
    answer: the first batch *peeks* at fresh principals a submit would
    narrow and the next one submits the same items, and ``alice`` is
    narrowed before her re-register and queried again right after it.
    """
    birthday, music, name = _queries(service)
    state = WireState()
    everyone = [(p, q) for p in PRINCIPALS for q in (birthday, music, name)]

    def batch(items, peek=False, compact=True):
        body, _ = batch_body(state, items, peek=peek, compact=compact)
        return "POST", "/v2/batch", body

    def single(principal, query, peek=False):
        return "POST", "/v2/query", single_body(
            state, principal, query, peek=peek, compact=True
        )

    return [
        batch(everyone, peek=True),
        batch(everyone),
        batch([("alice", music), ("ghost", music), ("bob", name)]),
        single("carol", music),
        batch(everyone[::-1], compact=False),
        ("POST", "/v2/batch", {  # malformed: no such principal index
            "gen": state.gen, "base": 0, "principals": ["alice"],
            "items": [[3, 0]],
        }),
        batch([("alice", birthday), ("alice", music)], peek=True),
        single("dave", birthday, peek=True),
        batch([("alice", birthday), ("erin", name)]),
        ("POST", "/v1/register", {"principal": "alice", "policy": WIDE}),
        batch([("alice", music), ("alice", birthday), ("bob", birthday)]),
        batch(everyone, peek=True, compact=False),
        batch([]),
        batch(everyone),
    ]


def _sequential(service, stream):
    """The reference: one local service, one request at a time."""
    return [dispatch(service, *request) for request in stream]


def _strip_cached(payload):
    """A response payload with label-cache warmth (per-replica) erased."""
    if isinstance(payload, dict) and "decisions" in payload:
        compact = payload.get("compact")
        payload = dict(payload)
        payload["decisions"] = [
            row if isinstance(row, dict) and "error" in row
            else row[:1] + row[2:] if compact
            else {k: v for k, v in row.items() if k != "cached"}
            for row in payload["decisions"]
        ]
    elif isinstance(payload, list):  # a compact /v2/query row
        payload = payload[:1] + payload[2:]
    return payload


def _assert_same_responses(want, got):
    assert len(want) == len(got)
    for index, ((want_status, want_payload), (got_status, got_payload)) in (
        enumerate(zip(want, got))
    ):
        assert want_status == got_status, index
        assert _strip_cached(want_payload) == _strip_cached(got_payload), index


def _registered(views, schema):
    service = DisclosureService(views, schema=schema)
    for principal in PRINCIPALS:
        service.register(principal, CHINESE_WALL)
    return service


class _RecordingPool:
    """Stands in for a :class:`ReplicaPool`: decides on the front end's
    own service and records the shape of every dispatch."""

    def __init__(self, service):
        self.service = service
        self.dispatches = []

    async def decide_async(self, entries, *, update, plane=None, timings=None):
        self.dispatches.append((update, len(entries)))
        return decide_wire_items(
            self.service, entries, update=update, plane=plane, timings=timings
        )

    async def dispatch_inline_async(self, method, path, body):
        return None  # nothing is remote: the ordinary dispatch serves it


class _NullTransport:
    def set_write_buffer_limits(self, high=None, low=None):
        pass


def _one_tick(service, pool, stream):
    """Feed *stream* to a pooled front end inside a single tick."""

    async def answered(requests):
        while not all(request.done() for request in requests):
            await asyncio.sleep(0)
        return [request.result for request in requests]

    async def main():
        server = AsyncDecisionServer(service, port=0, pool=pool)
        await server.start()
        try:
            protocol = _HttpProtocol(server)
            protocol.connection_made(_NullTransport())
            requests = []
            for method, path, body in stream:
                requests.append(_Request(protocol, False))
                server.accept(
                    method, path, json.dumps(body).encode(), requests[-1]
                )
            return await asyncio.wait_for(answered(requests), 30)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestRunDiscipline:
    def test_one_tick_is_sliced_back_exactly(self, views, schema):
        twin = _registered(views, schema)
        service = _registered(views, schema)
        stream = _stream(service)
        want = _sequential(twin, stream)
        pool = _RecordingPool(service)
        got = _one_tick(service, pool, stream)
        _assert_same_responses(want, got)
        assert want[5][0] == 400 and want[5][1]["code"] == "bad-request"
        assert want[2][1]["decisions"][1]["code"] == "unknown-principal"
        # Twelve run-joining requests, seven dispatches: the run breaks
        # at each submit/peek change and at the register, nowhere else
        # (the malformed batch is answered on the spot; the empty one
        # joins like any other).
        assert pool.dispatches == [
            (False, 15), (True, 15 + 3 + 1 + 15), (False, 2 + 1),
            (True, 2), (True, 3), (False, 15), (True, 0 + 15),
        ]

    def test_a_run_past_max_batch_splits(self, views, schema):
        twin = _registered(views, schema)
        service = _registered(views, schema)
        birthday, music, name = _queries(service)
        state = WireState()
        items = [
            (PRINCIPALS[i % len(PRINCIPALS)], (birthday, music, name)[i % 3])
            for i in range(MAX_BATCH // 4)
        ]
        stream = [
            ("POST", "/v2/batch", batch_body(state, items, peek=False, compact=True)[0])
            for _ in range(5)
        ]
        pool = _RecordingPool(service)
        got = _one_tick(service, pool, stream)
        _assert_same_responses(_sequential(twin, stream), got)
        assert pool.dispatches == [(True, MAX_BATCH), (True, MAX_BATCH // 4)]


def _pipeline(handle, stream):
    """Write every request of *stream* to one connection at once, then
    read the responses back in order: ``[(status, payload)]``."""
    wire = b""
    for method, path, body in stream:
        data = json.dumps(body).encode() if body is not None else b""
        wire += (
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode() + data
    responses = []
    with socket.create_connection((handle.host, handle.port), timeout=30) as sock:
        sock.sendall(wire)
        reader = sock.makefile("rb")
        for _ in stream:
            status = int(reader.readline().split()[1])
            length = 0
            while True:
                line = reader.readline().strip()
                if not line:
                    break
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            responses.append((status, json.loads(reader.read(length))))
    return responses


def _series(handle, name):
    """``{labels: value}`` of one counter vector from ``GET /metrics``."""
    ((status, metrics),) = _pipeline(handle, [("GET", "/metrics", None)])
    assert status == 200
    return {
        tuple(sorted(series["labels"].items())): series["value"]
        for vector in metrics["registry"]["vectors"]
        if vector["name"] == name
        for series in vector["series"]
    }


@pytest.fixture()
def pooled(views, schema):
    handle = start_pooled_background(
        REPLICAS, service_kwargs={"security_views": views, "schema": schema}
    )
    yield handle
    handle.stop()


class TestPooledFrontEnd:
    def test_pipelined_requests_coalesce_and_stay_exact(
        self, pooled, views, schema
    ):
        twin = _registered(views, schema)
        registers = [
            ("POST", "/v1/register", {"principal": p, "policy": CHINESE_WALL})
            for p in PRINCIPALS
        ]
        assert all(status == 200 for status, _ in _pipeline(pooled, registers))
        assert {pooled.pool.owner_of(p) for p in PRINCIPALS} == {0, 1}
        stream = _stream(twin)
        want = _sequential(twin, stream)
        got = _pipeline(pooled, stream)
        _assert_same_responses(want, got)
        # Every decision crossed a pipe — and each replica saw fewer
        # frames than requests with work for it, which is what one
        # request at a time would have cost.
        decided = sum(
            1 if isinstance(payload, list) else sum(
                "error" not in row for row in payload["decisions"]
            )
            for status, payload in want
            if status == 200 and "registered" not in payload
        )
        items = _series(pooled, "repro_pool_items_total")
        assert sum(items.values()) == decided
        frames = _series(pooled, "repro_pool_batches_total")
        for replica in range(REPLICAS):
            with_work = sum(
                any(
                    pooled.pool.owner_of(p) == replica
                    for p in body.get("principals", [body.get("principal")])
                    if p in PRINCIPALS
                )
                for (_, path, body), (status, _) in zip(stream, want)
                if path.startswith("/v2/") and status == 200
            )
            assert frames[(("replica", str(replica)),)] < with_work

    def test_request_counts_match_the_unpooled_front_end(
        self, pooled, views, schema
    ):
        service = DisclosureService(views, schema=schema)
        unpooled = start_async_background(service)
        try:
            twin = _registered(views, schema)
            stream = [
                ("POST", "/v1/register",
                 {"principal": p, "policy": CHINESE_WALL})
                for p in PRINCIPALS
            ]
            stream += _stream(twin)[:6]
            v1_batch = {
                "queries": [
                    {"principal": "alice",
                     "fql": "SELECT music FROM user WHERE uid = me()"}
                ]
            }
            stream += [("POST", "/v1/batch", v1_batch)] * 3
            stream += [
                ("POST", "/v1/batch", None),  # no body: dispatch's own 400
                ("GET", "/internal/snapshot", None),
                ("GET", "/healthz", None),
                ("GET", "/metrics?format=prometheus", None),
            ]
            counts = []
            for handle in (unpooled, pooled):
                for request in stream[:-1]:
                    _pipeline(handle, [request])
                counts.append(_series(handle, "repro_requests_total"))
            assert counts[0] == counts[1]
            routes = {dict(labels)["route"] for labels in counts[1]}
            assert {"/v1/batch", "/v2/batch", "/metrics",
                    "/internal/snapshot"} <= routes
        finally:
            unpooled.stop()
            service.close()
