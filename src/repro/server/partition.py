"""Principal partitioning and the merges that undo it.

Sessions are principal-private and labels are principal-free, so a
deployment spread over N kernels (the replica pool's worker processes,
or the independent servers a :class:`repro.client.ShardedClient`
routes over) needs exactly three shared pieces:

:func:`shard_for`
    The stable owner of a principal (CRC-32, so it agrees across
    processes and interpreter runs — ``hash()`` does not under
    ``PYTHONHASHSEED``).
:func:`aggregate_metrics`
    Per-kernel ``/metrics`` payloads folded into one.
:func:`merge_snapshots`
    Per-kernel snapshot payloads folded into one restorable,
    topology-free payload.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, Sequence

from repro.obs.instruments import aggregate_latency


def shard_for(principal: Hashable, shard_count: int) -> int:
    """The partition index owning *principal*: ``crc32(str(principal)) % N``.

    Stable across processes, interpreter restarts, and
    ``PYTHONHASHSEED`` (unlike built-in ``hash``), so a dispatcher, its
    workers, and yesterday's exported session state all agree on
    ownership.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return zlib.crc32(str(principal).encode("utf-8")) % shard_count


def aggregate_metrics(snapshots: Sequence[Dict]) -> Dict:
    """Fold per-partition ``/metrics`` payloads into one aggregate payload.

    Counters and cache totals sum; latency percentiles are re-derived
    from the merged histogram buckets (exact to bucket resolution, not
    an average of per-partition percentiles); labeled registry sections
    merge series-by-series (:func:`repro.obs.merge_registry_snapshots`);
    the raw per-partition snapshots are preserved under ``"shards"``.
    """
    from repro.obs import merge_registry_snapshots

    def total(*path) -> int:
        out = 0
        for snap in snapshots:
            value: object = snap
            for key in path:
                value = value.get(key, {}) if isinstance(value, dict) else 0
            out += value if isinstance(value, (int, float)) else 0
        return out

    def cache_aggregate(name: str) -> Dict:
        hits = total(name, "hits")
        misses = total(name, "misses")
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": total(name, "evictions"),
            "size": total(name, "size"),
            "maxsize": total(name, "maxsize"),
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    return {
        "shard_count": len(snapshots),
        "uptime_seconds": max(
            (snap.get("uptime_seconds", 0.0) for snap in snapshots), default=0.0
        ),
        "decisions": total("decisions"),
        "accepted": total("accepted"),
        "refused": total("refused"),
        "peeks": total("peeks"),
        "sessions": {
            "active": total("sessions", "active"),
            "passive": total("sessions", "passive"),
            "resident": total("sessions", "resident"),
            "spilled": total("sessions", "spilled"),
            "faults": total("sessions", "faults"),
            "evictions": total("sessions", "evictions"),
            "clean_evictions": total("sessions", "clean_evictions"),
        },
        "label_cache": cache_aggregate("label_cache"),
        "parse_cache": cache_aggregate("parse_cache"),
        # Interner sizes sum across partitions: each kernel interns
        # independently, so the total is table entries held, not
        # distinct shapes seen by the deployment.
        "kernel": {
            "queries_interned": total("kernel", "queries_interned"),
            "labels_interned": total("kernel", "labels_interned"),
            "compiled_policies": total("kernel", "compiled_policies"),
        },
        "latency": aggregate_latency(
            [snap.get("latency", {}) for snap in snapshots]
        ),
        "registry": merge_registry_snapshots(
            [snap.get("registry") for snap in snapshots]
        ),
        "shards": list(snapshots),
    }


def merge_snapshots(payloads: Sequence[Dict]) -> Dict:
    """Fold per-partition snapshot payloads into one restorable payload.

    The merge mirrors why partitioning needs no coordination: sessions
    are disjoint across partitions (dict union), label-cache entries are
    principal-free (union, later payloads win ties), counters sum, and
    latency percentiles re-derive from merged buckets.  Kernel-local
    integer ids are meaningless across kernels, so the merge decodes
    every payload to canonical keys and packed labels and re-interns
    them: the result has the shape and the sections of
    :func:`repro.server.persist.snapshot_service`, carries no ``shard``
    stamp, and is topology-free by construction.
    """
    from repro.server.persist import (
        encode_interned_cache,
        payload_cache_entries,
        payload_states,
        sessions_payload,
    )

    sessions: Dict = {}
    cache: Dict = {}
    totals = {"decisions": 0, "accepted": 0, "refused": 0, "peeks": 0}
    latencies = []
    for payload in payloads:
        sessions.update(payload_states(payload))
        cache.update(payload_cache_entries(payload))
        metrics = payload.get("metrics") or {}
        for name in totals:
            value = metrics.get(name, 0)
            totals[name] += value if isinstance(value, int) else 0
        if isinstance(metrics.get("latency"), dict):
            latencies.append(metrics["latency"])
    return {
        "sessions": sessions_payload(sessions),
        "interning": encode_interned_cache(cache.items()),
        "metrics": {**totals, "latency": aggregate_latency(latencies)},
    }
