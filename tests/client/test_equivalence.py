"""The PR 5 acceptance property: one client API, byte-identical backends.

``LocalClient`` (in process), ``HttpClient`` over the v2 qid wire
(real sockets), and ``ShardedClient`` (client-side principal routing)
must produce byte-for-byte identical decision streams on the same
workload.  With label caches warmed via export/import even the
``cached`` flags agree — full byte equality; on cold caches the flags
legitimately differ per backend (cache locality is not a decision),
so the cold suite compares everything but ``cached``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.client import HttpClient, LocalClient, ShardedClient
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.server.aio import start_async_background
from repro.server.service import DisclosureService

PRINCIPALS = 18
SHARDS = 3


def _policies(views, seed: int):
    return generate_policies(
        views.names, PRINCIPALS, max_partitions=5, max_elements=25, seed=seed
    )


def _traffic(seed: int, count: int):
    generator = WorkloadGenerator(max_subqueries=1, seed=seed)
    queries = list(generator.stream(96))
    rng = random.Random(seed + 100)
    return [
        (f"app-{rng.randrange(PRINCIPALS)}", rng.choice(queries))
        for _ in range(count)
    ]


def _wire(decisions) -> str:
    return json.dumps(decisions, sort_keys=True)


def _strip_cached(decisions) -> str:
    stripped = [dict(entry) for entry in decisions]
    for entry in stripped:
        entry.pop("cached", None)
    return json.dumps(stripped, sort_keys=True)


def _warm_entries(views, traffic):
    """Label-cache warmth shared by every backend (labels are
    principal-free, so one warmup run serves them all)."""
    warmup = DisclosureService(views)
    warmup.register("warm", [["public_profile"]])
    for _, query in traffic:
        warmup.peek("warm", query)
    return warmup.export_label_cache()


@pytest.fixture(scope="module")
def workload(views):
    traffic = _traffic(11, 420)
    return traffic, list(_policies(views, 11)), _warm_entries(views, traffic)


def _drive(client, policies, traffic, chunk: int):
    for index, policy in enumerate(policies):
        client.register(f"app-{index}", policy)
    decisions = []
    for start in range(0, len(traffic), chunk):
        decisions.extend(client.submit_many(traffic[start : start + chunk]))
    return decisions


class TestWarmedBackendsAreByteIdentical:
    """The acceptance bar: warmed Local == Http(v2) == Sharded, bytes."""

    def test_local_http_sharded(self, views, workload):
        traffic, policies, warm = workload

        # Local -------------------------------------------------------
        local_service = DisclosureService(views)
        local_service.warm_label_cache(warm)
        local = _drive(LocalClient(local_service), policies, traffic, 83)

        # HTTP, v2 wire, real sockets ---------------------------------
        http_service = DisclosureService(views)
        http_service.warm_label_cache(warm)
        handle = start_async_background(http_service)
        try:
            url = f"http://{handle.host}:{handle.port}"
            with HttpClient(url, protocol="v2") as client:
                assert client.protocol == "v2"
                http = _drive(client, policies, traffic, 83)
        finally:
            handle.stop()

        # Sharded, client-side routing --------------------------------
        services = [DisclosureService(views) for _ in range(SHARDS)]
        for service in services:
            service.warm_label_cache(warm)
        sharded = _drive(
            ShardedClient.for_services(services), policies, traffic, 83
        )

        assert _wire(local) == _wire(http) == _wire(sharded)
        assert sum(1 for d in local if d["accepted"]) > 0
        assert sum(1 for d in local if not d["accepted"]) > 0

    def test_single_submits_match_the_batch_stream(self, views, workload):
        traffic, policies, warm = workload
        a = DisclosureService(views)
        b = DisclosureService(views)
        for service in (a, b):
            service.warm_label_cache(warm)
        sequential_client = LocalClient(a)
        for index, policy in enumerate(policies):
            sequential_client.register(f"app-{index}", policy)
        sequential = [
            sequential_client.submit(principal, query)
            for principal, query in traffic
        ]
        batched = _drive(LocalClient(b), policies, traffic, 83)
        assert _wire(sequential) == _wire(batched)


class TestColdBackendsAgreeModuloCacheLocality:
    def test_cold_streams_differ_only_in_cached_flags(self, views, workload):
        traffic, policies, _ = workload
        local = _drive(
            LocalClient(DisclosureService(views)), policies, traffic, 97
        )
        sharded = _drive(
            ShardedClient.for_services(
                [DisclosureService(views) for _ in range(SHARDS)]
            ),
            policies,
            traffic,
            97,
        )
        assert _strip_cached(local) == _strip_cached(sharded)
