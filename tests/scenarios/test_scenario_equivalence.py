"""The tentpole proof: one trace, every transport, the same decisions.

Each named scenario (scaled down for test time) is compiled once and
replayed through the in-process client, the synchronous HTTP client
(real sockets), the pipelined asynchronous client and the kernel
replica pool, each on the v2 wire, the server's ``/v1/*`` text routes
unpooled and pooled (through the test-side v1 driver), and the
client-side sharded router.  The cached-stripped decision digests must
agree byte for byte — the replay engine is deterministic and the
decision logic is transport-invariant.  With label caches warmed via
export/import, even the ``cached`` flags agree (full byte equality).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.client import AsyncHttpClient, HttpClient, LocalClient, ShardedClient
from repro.client.parsing import parse_text
from repro.scenarios import (
    compile_scenario,
    get_scenario,
    replay_trace,
    replay_trace_async,
    scenario_names,
)
from repro.server.aio import start_async_background
from repro.server.service import DisclosureService

EVENTS = 60
PRINCIPALS = 16
SHARDS = 3


@pytest.fixture(scope="module", params=sorted(scenario_names()))
def trace(request, views):
    spec = get_scenario(request.param).scaled(
        events=EVENTS, principals=PRINCIPALS
    )
    return compile_scenario(spec, seed=7, view_names=views.names)


def _local_digest(views, trace):
    report = replay_trace(trace, LocalClient(DisclosureService(views)))
    assert report.errors == 0
    return report.digest()


def _pooled(views):
    from repro.server.pool import start_pooled_background

    return start_pooled_background(2, service_kwargs={"security_views": views})


def _replay_async(handle, trace):
    """Replay *trace* through the pipelined client."""

    async def main():
        client = AsyncHttpClient(f"http://{handle.host}:{handle.port}")
        await client.connect()
        try:
            return await replay_trace_async(trace, client)
        finally:
            await client.close()

    return asyncio.run(main())


class TestEveryTransportReplaysIdentically:
    def test_http_v2_matches_local(self, views, trace):
        handle = start_async_background(DisclosureService(views))
        try:
            url = f"http://{handle.host}:{handle.port}"
            with HttpClient(url) as client:
                report = replay_trace(trace, client, transport="http")
        finally:
            handle.stop()
        assert report.errors == 0
        assert report.digest() == _local_digest(views, trace)

    def test_async_http_matches_local(self, views, trace):
        handle = start_async_background(DisclosureService(views))
        try:
            report = _replay_async(handle, trace)
        finally:
            handle.stop()
        assert report.errors == 0
        assert report.digest() == _local_digest(views, trace)

    def test_http_v1_routes_match_local(self, views, trace, v1_driver):
        """The v1 text routes through the same tick drain: parsed on
        the server, decided as v2 traffic would be."""
        handle = start_async_background(DisclosureService(views))
        try:
            with v1_driver(f"http://{handle.host}:{handle.port}") as driver:
                report = replay_trace(trace, driver, transport="http")
        finally:
            handle.stop()
        assert report.errors == 0
        assert report.digest() == _local_digest(views, trace)

    def test_pooled_matches_local(self, views, trace):
        """The kernel replica pool: decisions travel parent → worker
        process → parent over pipes, and the digests must not notice."""
        handle = _pooled(views)
        try:
            report = _replay_async(handle, trace)
        finally:
            handle.stop()
        assert report.errors == 0
        assert report.digest() == _local_digest(views, trace)

    def test_pooled_v1_routes_match_local(self, views, trace, v1_driver):
        handle = _pooled(views)
        try:
            with v1_driver(f"http://{handle.host}:{handle.port}") as driver:
                report = replay_trace(trace, driver, transport="http")
        finally:
            handle.stop()
        assert report.errors == 0
        assert report.digest() == _local_digest(views, trace)

    def test_sharded_matches_local(self, views, trace):
        client = ShardedClient.for_services(
            [DisclosureService(views) for _ in range(SHARDS)]
        )
        report = replay_trace(trace, client, transport="sharded")
        assert report.errors == 0
        assert report.digest() == _local_digest(views, trace)


class TestWarmedReplayIsByteExact:
    def test_warmed_backends_agree_on_cached_flags_too(self, views, trace):
        """Labels are principal-free, so one warmup pass serves every
        backend; warmed, the full digests (``cached`` included) agree."""
        warmup = DisclosureService(views)
        warmup.register("warm", [["public_profile"]])
        for event in trace.events:
            if event["op"] in ("decide", "peek"):
                warmup.peek("warm", parse_text(event["datalog"], "datalog"))
        warm = warmup.export_label_cache()

        reports = []
        for _ in range(2):
            service = DisclosureService(views)
            service.warm_label_cache(warm)
            reports.append(replay_trace(trace, LocalClient(service)))
        first, second = reports
        assert first.digest(include_cached=True) == second.digest(
            include_cached=True
        )
        # Warmth shows: the label memo serves repeats from the pool.
        assert any(entry.get("cached") for entry in first.decisions)
