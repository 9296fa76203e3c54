"""Heads that cannot be framed safely end the connection.

A body is delimited by ``Content-Length`` alone.  Two ``Content-Length``
values that differ, or any ``Transfer-Encoding``, make the request's end
ambiguous: a front end that guessed would read the rest of the stream
as a body, or the body as the next request (request smuggling).  The
front end answers 400 or 501 with ``Connection: close`` and frames
nothing after that request.  Both deployments of the front end, a
single process and a two-replica pool, frame the same way.  Real
sockets, ephemeral ports.
"""

from __future__ import annotations

import json
import re
import socket

import pytest

from repro.server.aio import start_async_background
from repro.server.pool import start_pooled_background
from repro.server.service import DisclosureService

REGISTER = b'{"principal": "app", "policy": [["public_profile"]]}'
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture(params=["async", "pooled"])
def front_end(request, views, schema):
    if request.param == "pooled":
        handle = start_pooled_background(
            2, service_kwargs={"security_views": views, "schema": schema}
        )
    else:
        handle = start_async_background(DisclosureService(views, schema=schema))
    # A pooled register lands in the parent's mirror as well as on the
    # owning replica, so membership reads the same on both.
    yield handle.server.service, handle.port
    handle.stop()


def _exchange(port, data, timeout=2.0):
    """Send *data*, read until the server closes (or *timeout*), and
    return ``([(status, payload)], closed)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        received = b""
        closed = False
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    closed = True
                    break
                received += chunk
        except socket.timeout:
            pass
    answers = []
    start = 0
    while start < len(received):
        head_end = received.index(b"\r\n\r\n", start)
        head = received[start:head_end]
        length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
        body = received[head_end + 4 : head_end + 4 + length]
        answers.append((int(head.split()[1]), json.loads(body), head))
        start = head_end + 4 + length
    return answers, closed


def _register_head(*headers):
    return (
        b"POST /v1/register HTTP/1.1\r\nHost: x\r\n"
        + b"".join(h + b"\r\n" for h in headers)
        + b"\r\n"
    )


#: A register whose body two Content-Length values delimit differently.
CONFLICTING = _register_head(b"Content-Length: 2", b"Content-Length: 300") + REGISTER
#: A register with a chunked body.
CHUNKED = _register_head(b"Transfer-Encoding: chunked") + (
    b"%x\r\n%b\r\n0\r\n\r\n" % (len(REGISTER), REGISTER)
)


def test_conflicting_content_lengths_are_refused(front_end):
    service, port = front_end
    # The front end used to frame with the last value, answering
    # nothing and swallowing the GET as body.
    answers, closed = _exchange(port, CONFLICTING + HEALTHZ)
    assert [(status, payload) for status, payload, _ in answers] == [
        (400, {"error": "conflicting Content-Length headers"})
    ]
    assert b"Connection: close" in answers[0][2]
    assert closed
    assert "app" not in service


def test_transfer_encoding_is_refused(front_end):
    service, port = front_end
    # The front end used to frame the body as empty and parse the
    # chunk bytes as the next request.
    answers, closed = _exchange(port, CHUNKED + HEALTHZ)
    assert [(status, payload) for status, payload, _ in answers] == [
        (501, {"error": "Transfer-Encoding is not supported"})
    ]
    assert b"Connection: close" in answers[0][2]
    assert closed
    assert "app" not in service


def test_repeated_equal_content_lengths_still_frame(front_end):
    service, port = front_end
    length = b"Content-Length: %d" % len(REGISTER)
    data = _register_head(length, length) + REGISTER + HEALTHZ
    answers, _ = _exchange(port, data, timeout=0.5)
    assert [(status, payload) for status, payload, _ in answers] == [
        (200, {"registered": "app", "partitions": 1}),
        (200, {"ok": True}),
    ]
    assert "app" in service


@pytest.mark.parametrize(
    "refused, status, error",
    [
        (CONFLICTING, 400, "conflicting Content-Length headers"),
        (CHUNKED, 501, "Transfer-Encoding is not supported"),
    ],
    ids=["conflicting-length", "transfer-encoding"],
)
def test_a_refusal_is_answered_after_the_requests_before_it(
    front_end, refused, status, error
):
    service, port = front_end
    # The register before the refused head runs, so its answer comes
    # first; the refusal follows it in order, then the connection closes.
    first = _register_head(b"Content-Length: %d" % len(REGISTER)) + REGISTER
    answers, closed = _exchange(port, first + refused + HEALTHZ)
    assert [(code, payload) for code, payload, _ in answers] == [
        (200, {"registered": "app", "partitions": 1}),
        (status, {"error": error}),
    ]
    assert b"Connection: close" in answers[1][2]
    assert closed
