"""The asyncio front end's framing and write discipline, transport-free.

Requests are framed by offset out of the read buffer and answers leave
through response cells, one write per connection per loop pass.  These
suites drive :class:`_HttpProtocol` over a recording fake transport, so
chunk boundaries, write counts and the close path are exact.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.client.wire import WireState, single_body
from repro.server.aio import MAX_HEAD, AsyncDecisionServer, _HttpProtocol
from repro.server.batch import decide_wire_items
from repro.server.service import DisclosureService
from repro.server.wire2 import MAX_BODY

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]
PRINCIPALS = ("alice", "bob", "carol")
BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"
MUSIC = "SELECT music FROM user WHERE uid = me()"


class _FakeTransport:
    """Records every write; nothing reaches a socket."""

    def __init__(self):
        self.writes = []
        self.closed = False

    def set_write_buffer_limits(self, high=None, low=None):
        pass

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed


class _RecordingPool:
    """A stand-in :class:`ReplicaPool` deciding on the front end's service."""

    def __init__(self, service):
        self.service = service

    async def decide_async(self, entries, *, update, plane=None, timings=None):
        return decide_wire_items(
            self.service, entries, update=update, plane=plane, timings=timings
        )

    async def dispatch_inline_async(self, method, path, body):
        return None


def _service(views, schema):
    service = DisclosureService(views, schema=schema)
    for principal in PRINCIPALS:
        service.register(principal, CHINESE_WALL)
    return service


def _request(path, body, *, close=False):
    data = json.dumps(body).encode() if body is not None else b""
    method = "POST" if body is not None else "GET"
    return (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
        + ("Connection: close\r\n" if close else "")
        + f"Content-Length: {len(data)}\r\n\r\n"
    ).encode() + data


def _responses(data):
    """``[(status, payload)]`` parsed out of written bytes."""
    out = []
    start = 0
    while start < len(data):
        head_end = data.index(b"\r\n\r\n", start)
        head = data[start:head_end]
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        body = data[head_end + 4 : head_end + 4 + length]
        out.append((int(head.split()[1]), json.loads(body)))
        start = head_end + 4 + length
    return out


async def _settle(transports, expected):
    """Let the loop run until every transport wrote *expected* responses
    (or closed), then a few passes more so a stray write would show."""
    for _ in range(500):
        if all(
            t.closed or len(_responses(b"".join(t.writes))) >= expected
            for t in transports
        ):
            break
        await asyncio.sleep(0)
    for _ in range(10):
        await asyncio.sleep(0)


def _connect(server):
    protocol = _HttpProtocol(server)
    transport = _FakeTransport()
    protocol.connection_made(transport)
    return protocol, transport


def _stream(service):
    """Submits that narrow, peeks that see them, and inline routes."""
    birthday = service.parse(BIRTHDAY, "fql", 3)
    music = service.parse(MUSIC, "fql", 3)
    state = WireState()
    return b"".join(
        [
            _request("/v2/query", single_body(
                state, "alice", birthday, peek=False, compact=True)),
            _request("/v1/query", {"principal": "bob", "fql": MUSIC}),
            _request("/v2/query", single_body(
                state, "alice", music, peek=True, compact=False)),
            _request("/healthz", None),
            _request("/v1/peek", {"principal": "bob", "fql": BIRTHDAY}),
            _request("/v1/query", {"principal": "ghost", "fql": MUSIC}),
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json",
        ]
    )


class TestRequestFraming:
    def _written(self, views, schema, chunks):
        async def main():
            service = _service(views, schema)
            server = AsyncDecisionServer(service)
            protocol, transport = _connect(server)
            for chunk in chunks:
                protocol.data_received(chunk)
                await asyncio.sleep(0)
            await _settle([transport], 7)
            return b"".join(transport.writes)

        return asyncio.run(main())

    def test_split_at_every_offset_gives_identical_answers(self, views, schema):
        stream = _stream(_service(views, schema))
        want = self._written(views, schema, [stream])
        assert [status for status, _ in _responses(want)] == [
            200, 200, 200, 200, 200, 404, 400,
        ]

        async def each_split():
            out = []
            for offset in range(1, len(stream)):
                server = AsyncDecisionServer(_service(views, schema))
                protocol, transport = _connect(server)
                protocol.data_received(stream[:offset])
                await asyncio.sleep(0)
                protocol.data_received(stream[offset:])
                await _settle([transport], 7)
                out.append(b"".join(transport.writes))
            return out

        for offset, got in enumerate(asyncio.run(each_split()), 1):
            assert got == want, offset
        byte_by_byte = [stream[i : i + 1] for i in range(len(stream))]
        assert self._written(views, schema, byte_by_byte) == want

    def test_negative_content_length_is_refused(self, views, schema):
        async def main():
            server = AsyncDecisionServer(_service(views, schema))
            protocol, transport = _connect(server)
            protocol.data_received(
                b"POST /v1/query HTTP/1.1\r\nContent-Length: -4\r\n\r\n{}{}"
            )
            await _settle([transport], 1)
            return transport

        transport = asyncio.run(main())
        ((status, payload),) = _responses(b"".join(transport.writes))
        assert status == 400 and payload == {"error": "bad Content-Length"}
        assert transport.closed

    def _drip(self, views, schema, data, size):
        """Feed *data* in *size*-byte reads; ``(transport, reads fed)``."""

        async def main():
            server = AsyncDecisionServer(_service(views, schema))
            protocol, transport = _connect(server)
            fed = 0
            for start in range(0, len(data), size):
                if transport.closed:
                    break
                protocol.data_received(data[start : start + size])
                fed += 1
                await asyncio.sleep(0)
            await _settle([transport], 2)
            return transport, fed

        return asyncio.run(main())

    def test_an_unterminated_head_past_64_kib_is_refused(self, views, schema):
        healthz = _request("/healthz", None)
        head = b"GET /healthz HTTP/1.1\r\nX-Pad: "
        below_cap = head + b"a" * (MAX_HEAD - 1 - len(head))
        # The longest tail whose terminator can still end within the
        # cap: nothing is refused.
        transport, _ = self._drip(views, schema, healthz + below_cap, 4096)
        assert _responses(b"".join(transport.writes)) == [(200, {"ok": True})]
        assert not transport.closed
        # One byte more and no terminator can fit: refused at once.
        transport, _ = self._drip(views, schema, healthz + below_cap + b"a", 4096)
        assert _responses(b"".join(transport.writes)) == [
            (200, {"ok": True}),
            (400, {"error": "request head too large"}),
        ]
        assert transport.closed
        # A longer drip is cut off at the cap, long before the 8 MiB
        # body cap, and the refusal follows the request before it.
        transport, fed = self._drip(
            views, schema, healthz + below_cap + b"a" * (1 << 20), 4096
        )
        assert _responses(b"".join(transport.writes)) == [
            (200, {"ok": True}),
            (400, {"error": "request head too large"}),
        ]
        assert transport.closed
        assert fed * 4096 <= len(healthz) + MAX_HEAD + 4096

    def test_a_terminated_head_past_64_kib_is_refused(self, views, schema):
        head = b"GET /healthz HTTP/1.1\r\nX-Pad: "
        data = head + b"a" * (MAX_HEAD - len(head)) + b"\r\n\r\n"
        transport, _ = self._drip(views, schema, data, len(data))
        assert _responses(b"".join(transport.writes)) == [
            (400, {"error": "request head too large"})
        ]
        assert transport.closed

    def test_the_body_cap_answers_413(self, views, schema):
        data = b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (
            MAX_BODY + 1
        )
        transport, _ = self._drip(views, schema, data, len(data))
        ((status, payload),) = _responses(b"".join(transport.writes))
        assert status == 413
        assert payload == {"error": "request body exceeds the 8 MiB cap"}
        assert transport.closed

    def test_a_body_dripped_in_small_reads_is_framed_once(self, views, schema):
        body = {"principal": "alice", "fql": BIRTHDAY, "pad": "x" * (1 << 18)}
        data = _request("/v1/query", body) + _request("/healthz", None)
        whole, _ = self._drip(views, schema, data, len(data))
        dripped, fed = self._drip(views, schema, data, 4096)
        assert fed > 64
        answers = _responses(b"".join(dripped.writes))
        assert answers == _responses(b"".join(whole.writes))
        assert [status for status, _ in answers] == [200, 200]
        assert answers[0][1]["accepted"] is True


@pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])
class TestWriteDiscipline:
    def _run(self, views, schema, pooled, drive):
        async def main():
            service = _service(views, schema)
            pool = _RecordingPool(service) if pooled else None
            server = AsyncDecisionServer(service, port=0, pool=pool)
            await server.start()
            try:
                return await drive(server, service)
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_a_burst_is_one_write_per_connection_per_pass(
        self, views, schema, pooled
    ):
        async def drive(server, service):
            birthday = service.parse(BIRTHDAY, "fql", 3)
            connections = [_connect(server) for _ in range(2)]
            for index, (protocol, _) in enumerate(connections):
                state = WireState()
                protocol.data_received(b"".join(
                    _request("/v2/query", single_body(
                        state, PRINCIPALS[(index + i) % 3], birthday,
                        peek=i % 2 == 1, compact=True,
                    ))
                    for i in range(64)
                ))
            transports = [transport for _, transport in connections]
            await _settle(transports, 64)
            return transports, server

        transports, server = self._run(views, schema, pooled, drive)
        assert server.ticks == 1 and server.drained == 128
        for transport in transports:
            assert len(transport.writes) == 1
            answers = _responses(transport.writes[0])
            assert len(answers) == 64
            assert all(status == 200 for status, _ in answers)

    def test_nothing_after_connection_close_is_executed(
        self, views, schema, pooled
    ):
        """Three submits in one read, the first marked close: one
        answer, one decision."""

        async def drive(server, service):
            protocol, transport = _connect(server)
            submits = [
                _request("/v1/query", {"principal": "alice", "fql": text},
                         close=index == 0)
                for index, text in enumerate((BIRTHDAY, MUSIC, MUSIC))
            ]
            protocol.data_received(b"".join(submits))
            await _settle([transport], 1)
            protocol.data_received(submits[1])  # late bytes: still ignored
            await _settle([transport], 1)
            return transport, service

        transport, service = self._run(views, schema, pooled, drive)
        ((status, payload),) = _responses(b"".join(transport.writes))
        assert status == 200 and payload["accepted"] is True
        assert b"Connection: close\r\n" in transport.writes[0]
        assert transport.closed
        assert service.decisions.value == 1
        assert service.live_partitions("alice") == (True, False)
