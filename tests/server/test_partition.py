"""The principal partitioning and the merges that undo it.

:func:`shard_for` is the one ownership function the replica pool, the
client-side :class:`repro.client.ShardedClient` and the state-directory
readers agree on; :func:`aggregate_metrics` and
:func:`merge_snapshot_payloads` fold per-partition ``/metrics`` and
snapshot payloads back into one.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.obs.instruments import LatencyHistogram
from repro.server.partition import (
    aggregate_metrics,
    merge_snapshot_payloads,
    shard_for,
)
from repro.server.persist import restore_service, snapshot_service
from repro.server.service import DisclosureService

PRINCIPALS = 12


class TestShardFor:
    def test_stable_and_in_range(self):
        for count in (1, 2, 3, 8):
            for principal in ("app-1", "app-2", "x", ""):
                index = shard_for(principal, count)
                assert 0 <= index < count
                assert index == shard_for(principal, count)  # deterministic

    def test_known_values_pin_the_hash(self):
        """CRC-32 of the UTF-8 principal, mod N: pinned so session state
        exported under one interpreter routes identically under another
        (built-in ``hash`` would not, under PYTHONHASHSEED)."""
        import zlib

        for principal in ("app-0", "alice", "bob"):
            assert shard_for(principal, 4) == zlib.crc32(
                principal.encode("utf-8")
            ) % 4

    def test_spreads_principals(self):
        counts = [0, 0, 0]
        for index in range(300):
            counts[shard_for(f"app-{index}", 3)] += 1
        assert min(counts) > 50  # no degenerate bucket

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for("app", 0)


class TestAggregateMetrics:
    def test_latency_percentiles_merge_exactly(self):
        slow, fast = LatencyHistogram(), LatencyHistogram()
        for _ in range(100):
            fast.record(1e-6)
        for _ in range(100):
            slow.record(1e-3)
        merged = aggregate_metrics(
            [
                {"latency": fast.snapshot()},
                {"latency": slow.snapshot()},
            ]
        )["latency"]
        assert merged["count"] == 200
        # The true p95 over the merged population sits in the slow mode;
        # averaging per-partition percentiles would have reported ~0.5 ms.
        assert merged["p95_us"] == pytest.approx(1e3, rel=0.2)
        assert merged["p50_us"] < 10

    def test_cache_totals_and_hit_rate(self):
        merged = aggregate_metrics(
            [
                {"label_cache": {"hits": 90, "misses": 10}},
                {"label_cache": {"hits": 30, "misses": 70}},
            ]
        )
        assert merged["label_cache"]["hits"] == 120
        assert merged["label_cache"]["hit_rate"] == pytest.approx(0.6)


class TestMergeSnapshotPayloads:
    def test_merged_payload_restores_every_partition(self, views):
        """Per-partition snapshots fold into one topology-free payload
        that restores into a single service: every session, the summed
        counters, and no ``shard`` stamp."""
        policies = generate_policies(
            views.names, PRINCIPALS, max_partitions=4, max_elements=20, seed=3
        )
        services = [DisclosureService(views) for _ in range(2)]
        for index, policy in enumerate(policies):
            principal = f"app-{index}"
            services[shard_for(principal, 2)].register(principal, policy)
        queries = list(WorkloadGenerator(max_subqueries=1, seed=7).stream(40))
        rng = random.Random(10)
        for _ in range(150):
            principal = f"app-{rng.randrange(PRINCIPALS)}"
            services[shard_for(principal, 2)].submit(principal, rng.choice(queries))

        payload = merge_snapshot_payloads(
            [snapshot_service(service) for service in services]
        )
        assert len(payload["sessions"]["sessions"]) == PRINCIPALS
        assert payload["metrics"]["decisions"] == 150
        assert "shard" not in payload  # merged payloads are topology-free

        restarted = DisclosureService(views)
        restore_service(restarted, json.loads(json.dumps(payload)))
        assert restarted.principal_count() == PRINCIPALS
        assert restarted.decisions.value == 150
