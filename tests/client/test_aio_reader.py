"""``AsyncHttpClient``'s response reader: framing and hostile bytes.

The reader is an :class:`asyncio.Protocol` that frames pipelined
responses by offset straight out of each socket read and resolves
waiters FIFO.  Chunk boundaries must never change an answer, and bytes
it cannot frame must fail every in-flight request with a typed
:class:`ClientError` instead of hanging or leaking a bare exception.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.client import AsyncHttpClient, ClientError, StallError, parse_text
from repro.client.aio import _Connection

BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"


def _response(status, body, extra=b""):
    return (
        f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
    ).encode() + extra + b"\r\n" + body


#: ``(status, body bytes)``; one body holds the head delimiter as JSON
#: whitespace, one is empty.
WIRE = [
    (200, b'[1, 0, 3, 1, "accepted"]'),
    (409, b'{"error": "unknown generation", "code": "unknown-generation"}'),
    (200, b'{"accepted": false,\r\n\r\n"principal": "app"}'),
    (404, b'{"error": "unknown principal"}'),
    (200, b""),
]
RESPONSES = [
    (status, json.loads(body) if body else None) for status, body in WIRE
]
STREAM = b"".join(
    _response(status, body, extra=b"Connection: keep-alive\r\n" * (i % 2))
    for i, (status, body) in enumerate(WIRE)
)


class _FakeTransport:
    def __init__(self):
        self.aborted = False

    def abort(self):
        self.aborted = True

    def is_closing(self):
        return self.aborted


async def _read(chunks):
    """Feed *chunks* to one reader with a waiter per expected response."""
    conn = _Connection(AsyncHttpClient("http://127.0.0.1:1"))
    conn.connection_made(_FakeTransport())
    loop = asyncio.get_running_loop()
    waiters = [loop.create_future() for _ in RESPONSES]
    conn.waiters.extend(waiters)
    for chunk in chunks:
        conn.data_received(chunk)
    assert not conn.transport.aborted
    assert all(waiter.done() for waiter in waiters)
    return [waiter.result() for waiter in waiters]


class TestFraming:
    def test_split_at_every_offset_gives_identical_answers(self):
        async def main():
            want = await _read([STREAM])
            assert want == RESPONSES
            for offset in range(1, len(STREAM)):
                got = await _read([STREAM[:offset], STREAM[offset:]])
                assert got == want, offset
            byte_by_byte = [STREAM[i : i + 1] for i in range(len(STREAM))]
            assert await _read(byte_by_byte) == want

        asyncio.run(main())


HOSTILE = {
    "non-numeric status": (
        b"HTTP/1.1 abc OK\r\nContent-Length: 2\r\n\r\n{}"
    ),
    "missing content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}"
    ),
    "negative content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n{}"
    ),
    "body truncated by eof": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n[1, 0"
    ),
    "body that is not json": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n{{{{"
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_responses_fail_every_waiter_with_client_error(name, schema):
    """A server answering the first request with *name*'s bytes: every
    in-flight request fails with a typed (non-stall) ClientError, with
    the watchdog off so nothing but the reader can end the wait."""
    birthday = parse_text(BIRTHDAY, "fql", schema=schema)
    hostile = HOSTILE[name]
    then_close = name == "body truncated by eof"

    async def main():
        async def answer(reader, writer):
            await reader.read(65536)
            writer.write(hostile)
            await writer.drain()
            if then_close:
                writer.close()
                return
            try:
                while await reader.read(65536):
                    pass
            except ConnectionError:
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(answer, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = AsyncHttpClient(f"http://{host}:{port}", timeout=None)
        try:
            return await asyncio.wait_for(
                asyncio.gather(
                    *[client.submit("app", birthday) for _ in range(3)],
                    return_exceptions=True,
                ),
                10,
            )
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(main())
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert isinstance(outcome, ClientError), outcome
        assert not isinstance(outcome, StallError)
        assert outcome.status == 502
        assert "closed" in str(outcome)
