"""The asyncio front end: same wire, same decisions, coalesced ticks."""

from __future__ import annotations

import asyncio
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.client import AsyncHttpClient, HttpClient, parse_text
from repro.server.aio import start_async_background
from repro.server.httpd import start_background
from repro.server.service import DisclosureService

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]

BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"
MUSIC = "SELECT music FROM user WHERE uid = me()"


@pytest.fixture()
def service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


@pytest.fixture()
def async_server(service):
    handle = start_async_background(service)
    yield handle
    handle.stop()


def _call(handle, path, body=None):
    url = f"http://{handle.host}:{handle.port}{path}"
    if body is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestV1Routes:
    """The stdlib front end's wire contract, served from the event loop."""

    def test_register_query_peek_cycle(self, async_server):
        status, body = _call(
            async_server,
            "/v1/register",
            {"principal": "other", "policy": CHINESE_WALL},
        )
        assert status == 200 and body["registered"] == "other"
        status, body = _call(
            async_server,
            "/v1/query",
            {"principal": "other", "fql": BIRTHDAY, "me": 3},
        )
        assert status == 200 and body["accepted"] is True
        assert body["live_after"] == 1
        status, body = _call(
            async_server, "/v1/peek", {"principal": "other", "fql": MUSIC}
        )
        assert status == 200 and body["accepted"] is False
        assert body["live_after"] == body["live_before"] == 1

    def test_batch_route(self, async_server):
        status, body = _call(
            async_server,
            "/v1/batch",
            {
                "queries": [
                    {"principal": "app", "fql": BIRTHDAY},
                    {"principal": "app", "fql": MUSIC},
                    {"principal": "ghost", "fql": MUSIC},
                ]
            },
        )
        assert status == 200 and body["count"] == 3
        accepted = [entry.get("accepted") for entry in body["decisions"]]
        assert accepted[:2] == [True, False]
        assert "unknown principal" in body["decisions"][2]["error"]

    def test_error_shapes_match_the_stdlib_front_end(self, async_server):
        status, body = _call(async_server, "/v1/query", {"principal": "app"})
        assert status == 400 and "'sql', 'fql', 'datalog'" in body["error"]
        status, body = _call(
            async_server, "/v1/query", {"principal": "ghost", "fql": MUSIC}
        )
        assert status == 404 and "unknown principal" in body["error"]
        assert "code" not in body  # v1 keeps its historical error shape
        status, body = _call(
            async_server,
            "/v1/query",
            {"principal": "app", "fql": MUSIC, "me": "three"},
        )
        assert status == 400 and "'me'" in body["error"]
        status, body = _call(async_server, "/nope")
        assert status == 404

    def test_metrics_healthz_snapshot(self, async_server):
        _call(async_server, "/v1/query", {"principal": "app", "fql": BIRTHDAY})
        status, metrics = _call(async_server, "/metrics")
        assert status == 200 and metrics["decisions"] == 1
        status, body = _call(async_server, "/healthz")
        assert status == 200 and body == {"ok": True}
        status, payload = _call(async_server, "/internal/snapshot")
        assert status == 200 and "app" in payload["sessions"]["sessions"]

    def test_v2_validation_matches_the_stdlib_front_end(self, async_server):
        """Both front ends share the v2 validators — a mistyped peek
        flag and a malformed delta get the same typed 400s here."""
        status, body = _call(
            async_server,
            "/v2/query",
            {"gen": "g", "base": 0, "principal": "app", "qid": 0,
             "peek": "yes"},
        )
        assert (status, body["code"]) == (400, "bad-request")
        assert "'peek'" in body["error"]
        # Structurally decodable but malformed key: rejected, and the
        # connection (plus every other queued request) survives.
        evil = ["t", [["t", [0]], ["t", [["s", "Status"], 1, 0, 2]]]]
        status, body = _call(
            async_server,
            "/v2/query",
            {"gen": "g", "base": 0, "delta": [evil], "principal": "app",
             "qid": 0},
        )
        assert (status, body["code"]) == (400, "bad-delta")
        status, body = _call(async_server, "/healthz")
        assert status == 200 and body == {"ok": True}

    def test_nothing_pipelined_after_connection_close_runs(
        self, service, async_server
    ):
        """Three submits in one write, the first marked ``Connection:
        close``: one answer, one decision, then EOF — the stdlib front
        end's behaviour."""

        def submit(fql, close):
            body = json.dumps({"principal": "app", "fql": fql}).encode()
            return (
                b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                + (b"Connection: close\r\n" if close else b"")
                + b"Content-Length: %d\r\n\r\n" % len(body)
                + body
            )

        address = (async_server.host, async_server.port)
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(
                submit(BIRTHDAY, True) + submit(MUSIC, False) + submit(MUSIC, False)
            )
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert received.count(b"HTTP/1.1 ") == 1
        assert service.decisions.value == 1

    def test_invalid_json_and_empty_body(self, async_server):
        url = f"http://{async_server.host}:{async_server.port}/v1/query"
        request = urllib.request.Request(
            url, data=b"{not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        request = urllib.request.Request(url, data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestTickCoalescing:
    def test_pipelined_singles_coalesce_and_stay_ordered(
        self, service, async_server, schema
    ):
        """In-flight singles drain as bulk decisions, and a submit
        pipelined before a peek is observed by that peek."""
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)
        music = parse_text(MUSIC, "fql", schema=schema)
        url = f"http://{async_server.host}:{async_server.port}"

        async def main():
            client = AsyncHttpClient(url)
            # One pipelined burst: the commit must land before the peek.
            submit, peek = await asyncio.gather(
                client.submit("app", birthday), client.peek("app", music)
            )
            assert submit["accepted"] is True
            assert peek["accepted"] is False  # saw the committed wall
            assert peek["live_before"] == 1
            burst = await asyncio.gather(
                *[client.peek("app", birthday) for _ in range(40)]
            )
            assert all(entry["accepted"] for entry in burst)
            await client.close()

        asyncio.run(main())
        server = async_server.server
        # The 40-peek burst must not have cost 40 drains.
        assert server.drained >= 42
        assert server.ticks < server.drained

    def test_inline_requests_flush_runs_in_order(self, async_server, schema):
        """A re-register pipelined between a submit and a peek is
        applied between them: the drain flushes the decision run before
        executing the inline route, never reorders around it."""
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)
        music = parse_text(MUSIC, "fql", schema=schema)
        url = f"http://{async_server.host}:{async_server.port}"

        async def main():
            client = AsyncHttpClient(url)
            await client.peek("app", birthday)  # connect + negotiate
            submit, _, peek = await asyncio.gather(
                client.submit("app", birthday),  # commits the wall...
                client.register("app", CHINESE_WALL),  # ...reset here...
                client.peek("app", music),  # ...so this sees all-live
            )
            await client.close()
            return submit, peek

        submit, peek = asyncio.run(main())
        assert submit["accepted"] is True and submit["live_after"] == 1
        # Had the peek been batched with the submit (register reordered
        # after), the wall would refuse it; the reset makes it accepted.
        assert peek["accepted"] is True
        assert peek["live_before"] == 3

    def test_mixed_modes_split_runs(self, service, async_server, schema):
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)
        music = parse_text(MUSIC, "fql", schema=schema)
        url = f"http://{async_server.host}:{async_server.port}"

        async def main():
            client = AsyncHttpClient(url)
            results = await asyncio.gather(
                client.peek("app", birthday),
                client.submit("app", birthday),
                client.peek("app", music),
                client.submit("app", music),
            )
            await client.close()
            return results

        peek1, submit1, peek2, submit2 = asyncio.run(main())
        assert peek1["accepted"] and submit1["accepted"]
        assert peek2["accepted"] is False and submit2["accepted"] is False

    def test_v2_batch_round_trip(self, async_server, schema):
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)
        music = parse_text(MUSIC, "fql", schema=schema)
        url = f"http://{async_server.host}:{async_server.port}"

        async def main():
            client = AsyncHttpClient(url)
            decisions = await client.submit_many(
                [("app", birthday), ("app", music), ("ghost", music)]
            )
            group = await client.decide_group(
                "app", [birthday, music], peek=True
            )
            await client.close()
            return decisions, group

        decisions, group = asyncio.run(main())
        assert [d.get("accepted") for d in decisions[:2]] == [True, False]
        assert decisions[2]["code"] == "unknown-principal"
        assert [d["accepted"] for d in group] == [True, False]


class TestFrontEndEquivalence:
    def test_async_and_stdlib_decide_identically(self, views, schema):
        """The same workload through both front ends (v2 wire) produces
        byte-identical decision streams."""
        import random

        from repro.facebook.workload import WorkloadGenerator, generate_policies

        generator = WorkloadGenerator(max_subqueries=1, seed=3)
        queries = list(generator.stream(48))
        rng = random.Random(7)
        traffic = [
            (f"app-{rng.randrange(10)}", rng.choice(queries))
            for _ in range(300)
        ]
        policies = list(
            generate_policies(
                views.names, 10, max_partitions=4, max_elements=20, seed=3
            )
        )

        def build():
            service = DisclosureService(views)
            for index, policy in enumerate(policies):
                service.register(f"app-{index}", policy)
            return service

        stdlib_server, _thread = start_background(build())
        host, port = stdlib_server.server_address[:2]
        try:
            with HttpClient(f"http://{host}:{port}") as client:
                expected = [
                    client.submit(principal, query)
                    for principal, query in traffic
                ]
        finally:
            stdlib_server.shutdown()
            stdlib_server.server_close()

        handle = start_async_background(build())
        url = f"http://{handle.host}:{handle.port}"
        try:

            async def drive():
                client = AsyncHttpClient(url)
                out = []
                for principal, query in traffic:
                    out.append(await client.submit(principal, query))
                await client.close()
                return out

            got = asyncio.run(drive())
        finally:
            handle.stop()
        assert json.dumps(got, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_concurrent_async_stream_matches_sequential_state(
        self, views, schema
    ):
        """Concurrency changes scheduling, never per-principal order:
        end state equals what any per-principal-ordered replay gives."""
        service = DisclosureService(views)
        service.register("a", CHINESE_WALL)
        service.register("b", CHINESE_WALL)
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)
        handle = start_async_background(service)
        url = f"http://{handle.host}:{handle.port}"
        try:

            async def main():
                client = AsyncHttpClient(url)
                await asyncio.gather(
                    *[
                        client.submit(principal, birthday)
                        for principal in ("a", "b") * 10
                    ]
                )
                await client.close()

            asyncio.run(main())
        finally:
            handle.stop()
        assert service.live_partitions("a") == (True, False)
        assert service.live_partitions("b") == (True, False)


class TestWatchdogStall:
    def test_stalled_connection_fails_in_flight_with_stall_error(
        self, schema
    ):
        """A server that accepts and reads but never answers: the
        client watchdog must tear the connection down and fail every
        in-flight future with the typed, retryable :class:`StallError`
        — not a generic close, which callers could not safely retry."""
        from repro.client import ClientError, StallError

        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def main():
            async def black_hole(reader, writer):
                try:
                    while await reader.read(65536):
                        pass  # swallow requests, answer nothing
                except ConnectionError:
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(
                black_hole, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            client = AsyncHttpClient(
                f"http://{host}:{port}", timeout=0.3
            )
            try:
                outcomes = await asyncio.gather(
                    *[client.submit("app", birthday) for _ in range(3)],
                    return_exceptions=True,
                )
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return outcomes

        outcomes = asyncio.run(main())
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome, StallError), outcome
            assert isinstance(outcome, ClientError)
            assert outcome.retryable is True
            assert outcome.status == 504
            assert "stalled" in str(outcome)
