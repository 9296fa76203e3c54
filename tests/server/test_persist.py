"""Durable snapshots and warm restarts (:mod:`repro.server.persist`).

Two properties carry the subsystem:

* **Restart equivalence** — decisions after serve → snapshot → kill →
  warm-restart are byte-for-byte identical to an uninterrupted service,
  including refusals, the ``cached`` flag, and session evolution — for
  a same-shape restart *and* for restarts that change the partition
  count (sessions are re-hashed, because CRC-32 ownership depends on
  the count).
* **Corruption safety** — a truncated, bit-flipped, or wrong-format
  snapshot is rejected with :class:`SnapshotError` and a clear reason,
  and a state directory falls back to the newest *valid* chain.

Every file the stack writes is a ``repro.snapshot/3`` generation from
the one writer, :class:`SnapshotChain`, and it is the only format read:
the tests write the older releases' ``repro.snapshot/1`` and ``/2``
documents by hand to check that they are refused by name.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.core.canonical import encode_key
from repro.core.terms import Constant
from repro.errors import PolicyError, SnapshotError
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.policy.policy import PartitionPolicy
from repro.server.aio import dispatch
from repro.server.persist import (
    SnapshotChain,
    Snapshotter,
    collect_state,
    compact_chain,
    decode_interned_cache,
    encode_interned_cache,
    inspect_snapshot,
    load_snapshot,
    restore_collected,
    restore_service,
    save_snapshot,
    sessions_payload,
    snapshot_service,
)
from repro.server.service import DisclosureService
from repro.server.store import SessionState, decode_states, encode_states

from reference_oracle import ReferenceOracle

PRINCIPALS = 12


def _policies(views, seed: int = 3):
    return [
        [list(partition) for partition in policy]
        for policy in generate_policies(
            views.names, PRINCIPALS, max_partitions=4, max_elements=20, seed=seed
        )
    ]


def _query_pool():
    generator = WorkloadGenerator(max_subqueries=1, seed=7)
    return list(generator.stream(40))


def _traffic(seed: int, count: int):
    queries = _query_pool()
    rng = random.Random(seed)
    return [
        (f"app-{rng.randrange(PRINCIPALS)}", rng.choice(queries))
        for _ in range(count)
    ]


def _covering_traffic(seed: int, count: int):
    """Random traffic prefixed so every query shape occurs at least once.

    Equivalence phases use this for the *pre-snapshot* stream: a shape
    first seen after the restart would be a per-shard cache miss in a
    sharded deployment but a hit in the single-service reference —
    a warmth difference sharding always had (PR 2 strips ``cached`` for
    it), not something restarts introduce; full phase-1 coverage keeps
    the post-restart comparison byte-exact, ``cached`` included.
    """
    covering = [
        (f"app-{index % PRINCIPALS}", query)
        for index, query in enumerate(_query_pool())
    ]
    return covering + _traffic(seed, count)


def _registered_service(views, policies) -> DisclosureService:
    service = DisclosureService(views)
    for index, policy in enumerate(policies):
        service.register(f"app-{index}", policy)
    return service


def _wire(decisions) -> str:
    return json.dumps([d.as_dict() for d in decisions], sort_keys=True)


def _labels_of(views, query):
    """The label-cache entries a fresh service holds after one peek."""
    service = DisclosureService(views)
    service.register("probe", [["public_profile"]])
    service.peek("probe", query)
    return service.export_label_cache()


def _hand_written(path, fmt: str, payload) -> None:
    """A checksummed snapshot document laid out as the releases that
    wrote *fmt* wrote it (no writer emits ``/1`` or ``/2`` any more)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    document = {
        "format": fmt,
        "created": time.time(),
        "checksum": zlib.crc32(body.encode("utf-8")),
        "payload": payload,
    }
    path.write_text(json.dumps(document, sort_keys=True))


def _formats(directory) -> set:
    return {
        json.loads(path.read_text())["format"]
        for path in directory.glob("snapshot-*.json")
    }


# ----------------------------------------------------------------------
# Cache-entry encoding
# ----------------------------------------------------------------------
class TestCacheEntryEncoding:
    """The one label-cache encoding, on disk and on the pool pipe."""

    def _roundtrip(self, entries):
        return decode_interned_cache(
            json.loads(json.dumps(encode_interned_cache(entries)))
        )

    def test_roundtrips_every_constant_type(self):
        key = (
            (0, ("c", Constant("Cathy")), ("c", Constant(9))),
            (
                ("User", (0, 1, ("c", Constant(2.5)))),
                ("Likes", (("c", Constant(True)), ("c", Constant(None)))),
            ),
        )
        entries = [(key, (3, 7, 1 << 40))]
        assert self._roundtrip(entries) == entries
        # type distinctions survive: Constant(1) != Constant(True) != 1
        one = ((("c", Constant(1)),), ())
        true = ((("c", Constant(True)),), ())
        section = encode_interned_cache([(one, (1,)), (true, (2,))])
        assert len(section["queries"]) == 2  # two keys, not one interned
        out = decode_interned_cache(json.loads(json.dumps(section)))
        assert out[0][0] != out[1][0]
        assert [label for _, label in out] == [(1,), (2,)]

    def test_real_service_entries_roundtrip(self, views):
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(1, 120):
            service.submit(principal, query)
        entries = service.export_label_cache()
        assert self._roundtrip(entries) == entries

    def test_malformed_entries_are_rejected(self):
        def section(queries=(), labels=(), cache=()):
            return {
                "queries": list(queries), "labels": list(labels),
                "cache": list(cache),
            }

        with pytest.raises(SnapshotError, match="not an object"):
            decode_interned_cache([["key-only"]])
        with pytest.raises(SnapshotError, match="'cache' lists"):
            decode_interned_cache({"queries": []})
        with pytest.raises(SnapshotError, match="malformed interned cache entry"):
            decode_interned_cache(section(cache=[["key-only"]]))
        with pytest.raises(SnapshotError, match="malformed packed label"):
            decode_interned_cache(section(labels=[["not-an-int"]]))
        with pytest.raises(SnapshotError, match="unrecognized"):
            decode_interned_cache(section(queries=[["?"]]))
        with pytest.raises(SnapshotError, match="out of range"):
            decode_interned_cache(section(labels=[[1]], cache=[[0, 0]]))


# ----------------------------------------------------------------------
# Snapshot files: atomicity and corruption rejection
# ----------------------------------------------------------------------
class TestSnapshotFiles:
    def _payload(self, views):
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(2, 100):
            service.submit(principal, query)
        return snapshot_service(service)

    def test_save_load_roundtrip(self, views, tmp_path):
        payload = self._payload(views)
        path = save_snapshot(tmp_path / "snap.json", payload)
        document = load_snapshot(path)
        assert document["format"] == "repro.snapshot/3"
        written = dict(document["payload"])
        assert written.pop("delta")["of"] is None  # a lone full base
        assert written == json.loads(json.dumps(payload))
        assert not list(tmp_path.glob(".*tmp*")), "temp file left behind"

    def test_the_rename_is_made_durable(self, views, tmp_path, monkeypatch):
        """After ``os.replace`` the directory itself is fsynced, so the
        rename survives a power loss, not only a process kill.  Power
        loss cannot be tested in a sandbox; this checks the call: the
        file, then the directory once the new name is in place."""
        import stat

        path = tmp_path / "snap.json"
        synced = []
        real = os.fsync

        def recording(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.exists()))
            real(fd)

        monkeypatch.setattr(os, "fsync", recording)
        save_snapshot(path, self._payload(views))
        assert synced == [(False, False), (True, True)]

    @pytest.mark.parametrize("fmt", ["repro.snapshot/1", "repro.snapshot/2"])
    def test_older_formats_are_refused_by_name(self, views, tmp_path, fmt):
        """A document of an earlier release is refused with a typed
        error naming its format, and a state directory holding one
        lists it as skipped with that reason and restores nothing."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(2, 100):
            service.submit(principal, query)
        if fmt == "repro.snapshot/1":  # as that release laid it out
            payload = {
                "sessions": service.export_state(),
                "label_cache": [
                    [encode_key(key), list(label)]
                    for key, label in service.export_label_cache()
                ],
                "metrics": {"decisions": service.decisions.value},
            }
        else:
            payload = snapshot_service(service)
        path = tmp_path / "snapshot-00000001.json"
        _hand_written(path, fmt, payload)

        with pytest.raises(SnapshotError, match=f"unsupported format '{fmt}'"):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match=f"unsupported format '{fmt}'"):
            inspect_snapshot(path)
        collected = collect_state(tmp_path)
        assert collected.sources == [] and collected.sessions == {}
        [(skipped, reason)] = collected.skipped
        assert skipped == path and f"'{fmt}'" in reason

    def test_a_document_without_a_generation_header_is_refused(
        self, views, tmp_path
    ):
        path = tmp_path / "headerless.json"
        _hand_written(path, "repro.snapshot/3", self._payload(views))
        with pytest.raises(SnapshotError, match="no generation header"):
            load_snapshot(path)

    def test_payload_dedupes_tables(self, views, tmp_path):
        """A document stores each policy, canonical key, and packed
        label once, however many sessions or cache entries reference
        it."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(3, 200):
            service.submit(principal, query)
        entries = service.export_label_cache()
        path = save_snapshot(tmp_path / "snap.json", snapshot_service(service))
        loaded = load_snapshot(path)
        interning = loaded["payload"]["interning"]
        assert len(interning["cache"]) == len(entries)
        distinct_labels = {tuple(label) for _, label in entries}
        assert len(interning["labels"]) == len(distinct_labels)
        assert len(distinct_labels) < len(entries)  # labels are shared
        policies = loaded["payload"]["sessions"]["policies"]
        assert len(policies) == len({json.dumps(p) for p in policies})
        restored = DisclosureService(views)
        stats = restore_service(restored, loaded["payload"])
        assert (stats.sessions, stats.cache_entries) == (
            PRINCIPALS, len(entries)
        )

    def test_the_session_section_is_export_state(self, views):
        """One session encoding: a snapshot's ``sessions`` section is
        the service's own export, the table ``import_state`` reads."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(4, 100):
            service.submit(principal, query)
        assert snapshot_service(service)["sessions"] == service.export_state()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.json")

    def test_empty_and_truncated_files(self, views, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(SnapshotError, match="truncated or not JSON"):
            load_snapshot(empty)
        path = save_snapshot(tmp_path / "snap.json", self._payload(views))
        truncated = tmp_path / "truncated.json"
        truncated.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(SnapshotError, match="truncated or not JSON"):
            load_snapshot(truncated)

    def test_non_snapshot_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(SnapshotError, match="not a snapshot document"):
            load_snapshot(path)
        path.write_text('[1, 2, 3]')
        with pytest.raises(SnapshotError, match="not a snapshot document"):
            load_snapshot(path)

    def test_unknown_format_version(self, views, tmp_path):
        path = save_snapshot(tmp_path / "snap.json", self._payload(views))
        document = json.loads(path.read_text())
        document["format"] = "repro.snapshot/99"
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="unsupported format"):
            load_snapshot(path)

    def test_bit_flip_fails_the_checksum(self, views, tmp_path):
        path = save_snapshot(tmp_path / "snap.json", self._payload(views))
        document = json.loads(path.read_text())
        document["payload"]["metrics"]["decisions"] += 1  # the flip
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)

    def test_inspect_reports_counts(self, views, tmp_path):
        path = save_snapshot(tmp_path / "snap.json", self._payload(views))
        summary = inspect_snapshot(path)
        assert summary.sessions == PRINCIPALS
        assert summary.cache_entries > 0
        assert summary.decisions == 100


class TestStateDirectory:
    """The one writer's directory rules, for payload-fed bases
    (``snapshot save``, offline compaction) as for a service's own
    chain."""

    def _payload(self, views, principals: int):
        service = DisclosureService(views)
        policy = [["friends_photo"]]
        for index in range(principals):
            service.register(f"app-{index}", policy)
        return snapshot_service(service)

    def test_sequencing_and_pruning(self, views, tmp_path):
        """Every full base removes the files older than the base before
        it; a fresh writer finds that base by reading the directory."""
        writer = SnapshotChain(None, tmp_path)
        for n in range(5):
            writer.save(self._payload(views, n + 1))
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["snapshot-00000004.json", "snapshot-00000005.json"]
        assert len(collect_state(tmp_path).sessions) == 5
        SnapshotChain(None, tmp_path).save(self._payload(views, 6))
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["snapshot-00000005.json", "snapshot-00000006.json"]
        assert _formats(tmp_path) == {"repro.snapshot/3"}

    def test_falls_back_past_a_corrupt_newest(self, views, tmp_path):
        writer = SnapshotChain(None, tmp_path)
        writer.save(self._payload(views, 1))
        newest = writer.save(self._payload(views, 2))
        newest.write_text(newest.read_text()[:20])  # simulate torn disk
        collected = collect_state(tmp_path)
        assert [path.name for path in collected.sources] == [
            "snapshot-00000001.json"
        ]
        assert set(collected.sessions) == {"app-0"}
        assert [path for path, _ in collected.skipped] == [newest]

    def test_empty_directory(self, tmp_path):
        assert collect_state(tmp_path) is None
        assert collect_state(tmp_path / "never-created") is None

    def test_a_service_chain_without_a_service_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="payloads only"):
            SnapshotChain(None, tmp_path).save()


# ----------------------------------------------------------------------
# Restart equivalence: the acceptance property
# ----------------------------------------------------------------------
class TestRestartEquivalence:
    def _warm_pair(self, views, seed: int = 2):
        """An uninterrupted reference service and the phase-1 traffic."""
        policies = _policies(views)
        reference = _registered_service(views, policies)
        before = _covering_traffic(seed, 250)
        for principal, query in before:
            reference.submit(principal, query)
        return policies, reference, before

    def test_single_process_restart_is_byte_identical(self, views, tmp_path):
        policies, reference, before = self._warm_pair(views)
        path = SnapshotChain(reference, tmp_path).save()

        restarted = DisclosureService(views)  # "kill": a fresh process
        document = load_snapshot(path)
        stats = restore_service(restarted, document["payload"])
        assert stats.sessions == PRINCIPALS

        after = _traffic(99, 250)
        assert _wire(
            [reference.submit(p, q) for p, q in after]
        ) == _wire([restarted.submit(p, q) for p, q in after])
        # including refusals on both sides
        assert any(not d for d in (reference.peek(p, q) for p, q in after))
        # and identical end state, principal by principal
        for index in range(PRINCIPALS):
            principal = f"app-{index}"
            assert reference.live_partitions(principal) == restarted.live_partitions(
                principal
            )

    def test_warm_restart_restores_the_cache_hit_rate(self, views, tmp_path):
        """The ≥90% acceptance bar, deterministically: a warm-restarted
        service replays the workload at (here exactly) the pre-restart
        hit rate, while a cold restart measurably does not."""
        policies, reference, before = self._warm_pair(views)

        def replay_hit_rate(service) -> float:
            start = service.label_cache.stats()
            for principal, query in before:
                service.peek(principal, query)
            end = service.label_cache.stats()
            lookups = end.lookups - start.lookups
            return (end.hits - start.hits) / lookups

        pre = replay_hit_rate(reference)
        payload = snapshot_service(reference)
        warm = _registered_service(views, policies)
        restore_service(warm, payload)
        cold = _registered_service(views, policies)

        assert replay_hit_rate(warm) >= 0.9 * pre
        assert replay_hit_rate(cold) < replay_hit_rate(warm)

    def test_metrics_survive_the_restart(self, views, tmp_path):
        _, reference, before = self._warm_pair(views)
        payload = snapshot_service(reference)
        restarted = DisclosureService(views)
        restore_service(restarted, payload)
        snap = restarted.metrics_snapshot()
        assert snap["decisions"] == len(before)
        assert snap["latency"]["count"] == len(before)
        assert restarted.accepted.value == reference.accepted.value
        assert restarted.refused.value == reference.refused.value


# ----------------------------------------------------------------------
# State-directory collection
# ----------------------------------------------------------------------
class TestCollectState:
    def test_newest_file_wins_for_a_duplicated_principal(self, views, tmp_path):
        policies = _policies(views)
        older = _registered_service(views, policies)
        writer = SnapshotChain(None, tmp_path)
        writer.save(snapshot_service(older))

        newer = _registered_service(views, policies)
        for principal, query in _traffic(5, 150):
            newer.submit(principal, query)  # narrows some live bits
        writer.save(snapshot_service(newer))

        collected = collect_state(tmp_path)
        restored = DisclosureService(views)
        restored.import_state(sessions_payload(collected.sessions))
        for index in range(PRINCIPALS):
            principal = f"app-{index}"
            assert restored.live_partitions(principal) == newer.live_partitions(
                principal
            )

    def test_sessions_come_only_from_the_newest_generation(self, views, tmp_path):
        """A principal absent from the newest snapshot was removed on
        purpose (unregister, or an ephemeral session dropped fresh) —
        older generations must not resurrect it."""
        service = _registered_service(views, _policies(views))
        writer = SnapshotChain(None, tmp_path)
        writer.save(snapshot_service(service))  # generation 1: everyone
        service.unregister("app-0")
        writer.save(snapshot_service(service))  # generation 2: app-0 gone
        collected = collect_state(tmp_path)
        assert "app-0" not in collected.sessions
        assert len(collected.sessions) == PRINCIPALS - 1

    def test_cache_warmth_still_merges_from_older_generations(
        self, views, tmp_path
    ):
        """Labels are pure functions of the query, so warmth from older
        generations is never wrong — keep it even though their sessions
        are ignored."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(6, 100):
            service.submit(principal, query)
        writer = SnapshotChain(None, tmp_path)
        writer.save(snapshot_service(service))  # old: warm cache
        empty = _registered_service(views, _policies(views))
        writer.save(snapshot_service(empty))  # new: cold cache
        collected = collect_state(tmp_path)
        assert len(collected.cache_entries) == len(
            service.export_label_cache()
        )

    def test_corrupt_files_are_skipped_and_reported(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        SnapshotChain(service, tmp_path).save()
        bad = tmp_path / "snapshot-00000002.json"
        bad.write_text("{not json")
        collected = collect_state(tmp_path)
        assert len(collected.sessions) == PRINCIPALS
        assert [path.name for path, _ in collected.skipped] == [bad.name]

    def test_shard_files_are_reported_not_restored(self, views, tmp_path):
        """A directory the removed ``--shards`` release left behind
        restores nothing, and says why, rather than reading as empty."""
        service = _registered_service(views, _policies(views))
        save_snapshot(tmp_path / "shard-0.json", snapshot_service(service))
        collected = collect_state(tmp_path)
        assert (collected.sessions, collected.sources) == ({}, [])
        assert collected.skipped == [
            (
                tmp_path / "shard-0.json",
                "written by the removed --shards release; not restored",
            )
        ]
        with pytest.raises(SnapshotError, match="no valid snapshot"):
            compact_chain(tmp_path)


# ----------------------------------------------------------------------
# The background snapshotter
# ----------------------------------------------------------------------
class TestSnapshotter:
    def test_run_once_writes_through(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        snapshotter = Snapshotter(
            SnapshotChain(service, tmp_path).save, interval=3600
        )
        assert snapshotter.run_once()
        assert snapshotter.snapshots_taken == 1
        assert collect_state(tmp_path) is not None

    def test_interval_thread_snapshots_and_stops(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path)
        taken = threading.Event()

        def snap():
            chain.save()
            taken.set()

        snapshotter = Snapshotter(snap, interval=0.02).start()
        assert taken.wait(timeout=10), "no periodic snapshot within 10s"
        snapshotter.stop()
        assert snapshotter.snapshots_taken >= 2  # periodic + final

    def test_a_failing_snapshot_does_not_kill_the_loop(self):
        boom = RuntimeError("disk full")

        def snap():
            raise boom

        snapshotter = Snapshotter(snap, interval=3600)
        assert not snapshotter.run_once()
        assert snapshotter.last_error is boom
        snapshotter.stop(final_snapshot=False)

    def test_rejects_nonpositive_intervals(self):
        with pytest.raises(ValueError):
            Snapshotter(lambda: None, interval=0)


# ----------------------------------------------------------------------
# The wire route
# ----------------------------------------------------------------------
class TestInternalSnapshotRoute:
    def test_http_dispatch_returns_a_restorable_payload(self, views):
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(8, 150):
            service.submit(principal, query)
        status, payload = dispatch(service, "GET", "/internal/snapshot", None)
        assert status == 200
        payload = json.loads(json.dumps(payload))  # through the wire
        restarted = DisclosureService(views)
        restore_service(restarted, payload)

        after = _traffic(9, 150)
        assert _wire(
            [service.submit(p, q) for p, q in after]
        ) == _wire([restarted.submit(p, q) for p, q in after])


# ----------------------------------------------------------------------
# A pooled deployment: the parent's chain, restart with another replica count
# ----------------------------------------------------------------------
class TestPooledRestart:
    def _pool(self, views, replicas):
        from repro.server.pool import ReplicaPool

        kwargs = {"security_views": views}
        parent = DisclosureService(**kwargs)
        return parent, ReplicaPool(parent, replicas, service_kwargs=kwargs)

    @staticmethod
    def _admin(pool, route, body):
        status, _ = pool.dispatch_inline("POST", route, body)
        assert status == 200

    @staticmethod
    def _decide(pool, reference, traffic):
        got = pool.decide([(p, q, None) for p, q in traffic], update=True)
        want = [reference.submit(p, q) for p, q in traffic]
        for g, w in zip(got, want):
            assert (g.accepted, g.live_after) == (w.accepted, w.live_after)

    def _snapshot_a_pool(self, views, tmp_path, policies, reference, traffic):
        """A 2-replica pool decides *traffic*, then leaves only its
        snapshot in *tmp_path* (the kill: replicas gone, state on disk)."""
        parent, pool = self._pool(views, 2)
        pool.start()
        try:
            for index, policy in enumerate(policies):
                self._admin(
                    pool, "/v1/register",
                    {"principal": f"app-{index}", "policy": policy},
                )
            self._decide(pool, reference, traffic)
            # The writer ``serve --replicas N --state-dir`` runs: a cut
            # of the parent, which holds sessions, warmth and counters.
            path = SnapshotChain(parent, tmp_path).save()
            assert load_snapshot(path)["format"] == "repro.snapshot/3"
        finally:
            pool.close()
            parent.close()

    def _restored_pool(self, views, tmp_path, replicas, principals=PRINCIPALS):
        """The ``serve --replicas N --state-dir DIR`` composition: the
        directory replays into the parent, and the replicas start from
        it."""
        from repro.server.persist import restore_collected

        collected = collect_state(tmp_path)
        assert len(collected.sessions) == principals
        parent, pool = self._pool(views, replicas)
        pool.launch()
        restore_collected(parent, collected)
        return parent, pool.start()

    def test_warm_restart_with_more_replicas(self, views, tmp_path):
        """A 2-replica pool → its snapshot into the state directory →
        close → a 3-replica pool restored from it → decisions continue
        byte-identically vs an uninterrupted single service."""
        policies = _policies(views)
        reference = _registered_service(views, policies)
        before, after = _covering_traffic(21, 150), _traffic(22, 150)
        self._snapshot_a_pool(views, tmp_path, policies, reference, before)
        parent, pool = self._restored_pool(views, tmp_path, 3)
        try:
            got = pool.decide([(p, q, None) for p, q in after], update=True)
        finally:
            pool.close()
            parent.close()
        errors = [g for g in got if isinstance(g, dict)]
        assert not errors, errors[:2]
        want = [reference.submit(p, q) for p, q in after]
        assert _wire(got) == _wire(want)  # byte-identical, cached too

    def test_a_replica_killed_after_a_warm_restart_respawns_warm(
        self, views, tmp_path
    ):
        """A replica of a pool restored warm dies mid-stream; its respawn
        gets the parent's plane ahead of the parent's label cache, so the
        stream continues byte-identically with no plane drift."""
        import os
        import signal
        import time

        policies = _policies(views)
        reference = _registered_service(views, policies)
        before = _covering_traffic(31, 150)
        first, second = _traffic(32, 100), _traffic(33, 100)
        self._snapshot_a_pool(views, tmp_path, policies, reference, before)
        parent, pool = self._restored_pool(views, tmp_path, 2)
        try:
            got = pool.decide([(p, q, None) for p, q in first], update=True)
            victim = pool.handles[0]
            old_pid = victim.process.pid
            os.kill(old_pid, signal.SIGKILL)
            time.sleep(0.2)
            got += pool.decide([(p, q, None) for p, q in second], update=True)
            assert pool.handles[0].process.pid != old_pid
            respawns = sum(
                counter.value for _, counter in pool.respawns.series_items()
            )
        finally:
            pool.close()
            parent.close()
        assert respawns == 1
        errors = [g for g in got if isinstance(g, dict)]
        assert not errors, errors[:2]
        want = [reference.submit(p, q) for p, q in first + second]
        assert _wire(got) == _wire(want)

    def test_restart_through_a_delta_chain(self, views, tmp_path):
        """``serve --replicas 2 --state-dir`` cuts the parent like an
        unpooled server: a full base, then deltas.  A register, a reset
        and narrowing traffic between the cuts replay onto 3 replicas,
        and decisions continue byte-identically vs an uninterrupted
        single service, ``cached`` included."""
        policies = _policies(views)
        reference = _registered_service(views, policies)
        parent, pool = self._pool(views, 2)
        pool.start()
        try:
            chain = SnapshotChain(parent, tmp_path)
            for index, policy in enumerate(policies[:-1]):
                self._admin(
                    pool, "/v1/register",
                    {"principal": f"app-{index}", "policy": policy},
                )
            # The last principal is only registered after the base.
            late = f"app-{PRINCIPALS - 1}"
            phase = [(p, q) for p, q in _covering_traffic(41, 120) if p != late]
            self._decide(pool, reference, phase)
            base = chain.save()
            self._admin(
                pool, "/v1/register",
                {"principal": late, "policy": policies[-1]},
            )
            self._decide(pool, reference, _traffic(42, 80))
            first_delta = chain.save()
            self._admin(pool, "/v1/reset", {"principal": "app-0"})
            reference.reset("app-0")
            self._decide(pool, reference, _traffic(43, 80))
            second_delta = chain.save()
        finally:
            pool.close()
            parent.close()
        generations = [
            inspect_snapshot(path) for path in (base, first_delta, second_delta)
        ]
        assert [info.delta_of for info in generations] == [
            None, generations[0].generation, generations[1].generation,
        ]
        assert generations[1].sessions < PRINCIPALS  # deltas, not bases
        parent, pool = self._restored_pool(views, tmp_path, 3)
        after = _traffic(44, 150)
        try:
            got = pool.decide([(p, q, None) for p, q in after], update=True)
            metrics = pool.dispatch_inline("GET", "/metrics", None)[1]
        finally:
            pool.close()
            parent.close()
        want = [reference.submit(p, q) for p, q in after]
        assert _wire(got) == _wire(want)  # byte-identical, cached too
        assert metrics["decisions"] == reference.decisions.value


# ----------------------------------------------------------------------
# Incremental generations: export_generation and the snapshot chain
# ----------------------------------------------------------------------
class TestExportGeneration:
    def test_first_cut_is_full_and_starts_tracking(self, views):
        service = _registered_service(views, _policies(views))
        assert service.dirty_count() == 0  # nothing tracked before a cut
        state, removed, drained = service.export_generation()
        assert set(state["sessions"]) == {f"app-{i}" for i in range(PRINCIPALS)}
        assert removed == [] and drained == set()
        service.reset("app-1")
        assert service.dirty_count() == 1

    def test_delta_export_carries_only_dirty_sessions(self, views):
        service = _registered_service(views, _policies(views))
        service.export_generation(full=True)
        service.reset("app-3")  # the only mutation in this window
        state, removed, drained = service.export_generation()
        assert set(state["sessions"]) == {"app-3"}
        assert removed == [] and drained == {"app-3"}
        assert service.dirty_count() == 0

    def test_unregister_tombstones_ride_the_delta(self, views):
        service = _registered_service(views, _policies(views))
        service.export_generation(full=True)
        service.unregister("app-5")
        state, removed, _ = service.export_generation()
        assert "app-5" not in state["sessions"]
        assert removed == ["app-5"]
        # A full export lists every survivor, settling the tombstone.
        service.unregister("app-6")
        _, removed, _ = service.export_generation(full=True)
        assert removed == []
        _, removed, _ = service.export_generation()
        assert removed == []

    def test_a_failed_cut_loses_nothing(self, views):
        service = _registered_service(views, _policies(views))
        service.export_generation(full=True)
        service.reset("app-2")
        _, _, drained = service.export_generation()
        service.reset("app-4")
        service.restore_dirty(drained)  # the write of that cut failed
        state, _, _ = service.export_generation()
        assert set(state["sessions"]) == {"app-2", "app-4"}


class TestSnapshotChain:
    def test_first_save_is_full_then_deltas_link(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path)
        base = inspect_snapshot(chain.save())
        assert base.format == "repro.snapshot/3"
        assert base.generation == 1 and base.delta_of is None
        assert base.sessions == PRINCIPALS
        service.reset("app-0")
        delta = inspect_snapshot(chain.save())
        assert delta.generation == 2 and delta.delta_of == 1
        assert delta.sessions == 1  # only the dirtied session

    def test_delta_files_are_measurably_smaller_than_full(self, views, tmp_path):
        """The O(delta) claim, at the file level: one dirty session out
        of a whole population writes a fraction of the full base."""
        policies = _policies(views)
        service = DisclosureService(views)
        for index in range(60):
            service.register(f"app-{index}", policies[index % len(policies)])
        chain = SnapshotChain(service, tmp_path)
        full = inspect_snapshot(chain.save())
        service.reset("app-0")
        delta = inspect_snapshot(chain.save())
        assert delta.bytes * 5 < full.bytes

    def test_chain_replay_restores_the_latest_state(self, views, tmp_path):
        policies = _policies(views)
        reference = _registered_service(views, policies)
        chained = _registered_service(views, policies)
        chain = SnapshotChain(chained, tmp_path)
        chain.save()  # full base
        for phase_seed in (31, 32):
            for principal, query in _traffic(phase_seed, 120):
                reference.submit(principal, query)
                chained.submit(principal, query)
            chain.save()  # one delta per phase

        restarted = DisclosureService(views)
        collected = collect_state(tmp_path)
        assert len(collected.sources) == 3  # base + two deltas replayed
        restarted.import_state(sessions_payload(collected.sessions))
        restarted.warm_label_cache(collected.cache_entries)
        after = _traffic(33, 120)
        assert _wire(
            [reference.submit(p, q) for p, q in after]
        ) == _wire([restarted.submit(p, q) for p, q in after])

    def test_chain_replay_applies_tombstones(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path)
        chain.save()
        service.unregister("app-7")
        chain.save()
        collected = collect_state(tmp_path)
        assert "app-7" not in collected.sessions
        assert len(collected.sessions) == PRINCIPALS - 1

    def test_compact_every_forces_a_full_base_and_prunes(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path, compact_every=2)
        for _ in range(7):
            service.reset("app-0")
            chain.save()
        # Generations: 1 full, 2-3 deltas, 4 full, 5-6 deltas, 7 full.
        # The 7th save prunes everything older than the previous full.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"snapshot-{seq:08d}.json" for seq in (4, 5, 6, 7)]
        assert inspect_snapshot(tmp_path / names[-1]).delta_of is None

    def test_explicit_compact_forces_a_full_base(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path)
        chain.save()
        service.reset("app-0")
        info = inspect_snapshot(chain.compact())
        assert info.delta_of is None
        assert info.sessions == PRINCIPALS

    def test_broken_link_falls_back_to_the_valid_prefix(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path)
        chain.save()                      # 1: full, the trusted prefix
        service.register("extra-1", [["friends_photo"]])
        chain.save()                      # 2: delta carrying extra-1
        service.register("extra-2", [["friends_photo"]])
        chain.save()                      # 3: delta carrying extra-2
        (tmp_path / "snapshot-00000002.json").unlink()
        collected = collect_state(tmp_path)
        # Delta 3 links to the missing 2, so only the base is trusted.
        assert set(collected.sessions) == {
            f"app-{i}" for i in range(PRINCIPALS)
        }

    def test_corrupt_delta_falls_back_like_a_missing_one(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path)
        chain.save()
        service.register("extra-1", [["friends_photo"]])
        delta_path = chain.save()
        payload = delta_path.read_bytes()
        delta_path.write_bytes(payload[: len(payload) // 2])  # truncated
        collected = collect_state(tmp_path)
        assert "extra-1" not in collected.sessions
        assert any(path == delta_path for path, _ in collected.skipped)

    def test_compact_chain_folds_the_directory_to_one_full(
        self, views, tmp_path
    ):
        service = _registered_service(views, _policies(views))
        chain = SnapshotChain(service, tmp_path)
        chain.save()
        service.reset("app-0")
        chain.save()
        service.unregister("app-7")
        chain.save()

        path, removed = compact_chain(tmp_path)
        assert len(removed) == 3
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        info = inspect_snapshot(path)
        assert info.delta_of is None
        assert info.sessions == PRINCIPALS - 1
        collected = collect_state(tmp_path)
        assert "app-7" not in collected.sessions

    def test_compact_chain_refuses_an_empty_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="no valid snapshot"):
            compact_chain(tmp_path)

    def test_chain_restores_sessions_spilled_to_disk(self, views, tmp_path):
        """A full base must capture cold sessions living only in the
        spill log — iter_states reads through the disk tier."""
        policies = _policies(views)
        spilled = DisclosureService(
            views, max_active_sessions=2, spill_dir=tmp_path / "spill"
        )
        for index, policy in enumerate(policies):
            spilled.register(f"app-{index}", policy)
        for principal, query in _traffic(41, 80):
            spilled.submit(principal, query)
        assert spilled.store.cold_count() > 0
        chain = SnapshotChain(spilled, tmp_path / "state")
        chain.save()
        spilled.close()

        collected = collect_state(tmp_path / "state")
        assert set(collected.sessions) == {
            f"app-{i}" for i in range(PRINCIPALS)
        }

    def test_save_always_writes(self, views, tmp_path):
        """A direct save writes a generation even when nothing changed,
        and returns its path."""
        chain = SnapshotChain(_registered_service(views, _policies(views)), tmp_path)
        first, second = chain.save(), chain.save()
        assert first != second and first.exists() and second.exists()
        assert inspect_snapshot(second).delta_of == 1


    def test_a_chain_beside_an_older_file_starts_a_full_base(
        self, views, tmp_path
    ):
        """An older release's file is never a chain base: the next
        chain written into the directory starts with a full base and
        restores alone, and the old file stays listed as skipped."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(51, 60):
            service.submit(principal, query)
        _hand_written(
            tmp_path / "snapshot-00000001.json",
            "repro.snapshot/2",
            snapshot_service(service),
        )
        service.unregister("app-0")
        path = SnapshotChain(service, tmp_path).save()
        assert path.name == "snapshot-00000002.json"
        assert inspect_snapshot(path).delta_of is None
        collected = collect_state(tmp_path)
        assert collected.sources == [path]
        assert set(collected.sessions) == {
            f"app-{i}" for i in range(1, PRINCIPALS)
        }
        assert [p.name for p, _ in collected.skipped] == [
            "snapshot-00000001.json"
        ]


class TestIdleCut:
    """``save_changed``, the periodic cut: an idle service writes no
    generation, and each kind of durable change writes exactly one."""

    def _chain(self, views, tmp_path, **kwargs):
        service = _registered_service(views, _policies(views))
        service.submit("app-0", _query_pool()[0])
        chain = SnapshotChain(service, tmp_path, **kwargs)
        assert inspect_snapshot(chain.save_changed()).delta_of is None
        return service, chain

    def test_an_idle_service_writes_nothing(self, views, tmp_path):
        service, chain = self._chain(views, tmp_path)
        listing = sorted(tmp_path.iterdir())
        assert [chain.save_changed() for _ in range(10)] == [None] * 10
        assert sorted(tmp_path.iterdir()) == listing
        service.submit("app-1", _query_pool()[1])
        delta = chain.save_changed()
        assert inspect_snapshot(delta).delta_of == 1
        assert sorted(tmp_path.iterdir()) == listing + [delta]
        assert chain.save_changed() is None

    @pytest.mark.parametrize(
        "change",
        ["submit", "peek", "register", "reset", "unregister", "new-shape"],
    )
    def test_every_durable_change_is_written(self, views, tmp_path, change):
        """Each leg of the idle test on its own: a dirtied session, a
        tombstone, a new interner row, or only the metrics section (a
        peek of a cached shape changes nothing but the peek count)."""
        service, chain = self._chain(views, tmp_path)
        cached, novel = _query_pool()[0], _query_pool()[5]
        {
            "submit": lambda: service.submit("app-0", cached),
            "peek": lambda: service.peek("app-0", cached),
            "register": lambda: service.register("app-new", [["user_likes"]]),
            "reset": lambda: service.reset("app-3"),
            "unregister": lambda: service.unregister("app-3"),
            "new-shape": lambda: service.warm_label_cache(_labels_of(views, novel)),
        }[change]()
        assert chain.save_changed() is not None
        assert chain.save_changed() is None

    def test_only_written_generations_count_toward_compaction(
        self, views, tmp_path
    ):
        service, chain = self._chain(views, tmp_path, compact_every=2)
        kinds = []
        for index in range(3):
            assert [chain.save_changed() for _ in range(5)] == [None] * 5
            service.reset(f"app-{index}")
            kinds.append(inspect_snapshot(chain.save_changed()).delta_of)
        assert kinds == [1, 2, None]  # two deltas, then the full base


def _store_kwargs(store, tmp_path, resident):
    if store == "spill":
        return {"max_active_sessions": resident, "spill_dir": tmp_path / "spill"}
    return {"max_active_sessions": resident}


class TestDirtySet:
    """What changed since the last cut is one set of principals on the
    service: a delta reads only those, an idle cut reads none, and a
    dirty principal that is no longer stored is a tombstone."""

    def _population(self, views, tmp_path, store, count):
        policies = _policies(views)
        service = DisclosureService(views, **_store_kwargs(store, tmp_path, 64))
        states = [
            SessionState(tuple(map(tuple, policy)), (1 << len(policy)) - 1, False)
            for policy in policies
        ]
        service.import_state(
            sessions_payload(
                {f"app-{index}": states[index % len(states)] for index in range(count)}
            )
        )
        return service

    @pytest.mark.parametrize("store", ["ram", "spill"])
    def test_an_idle_cut_reads_no_session(self, views, tmp_path, store, monkeypatch):
        service = self._population(views, tmp_path, store, 20_000)
        chain = SnapshotChain(service, tmp_path / "state")
        chain.save_changed()  # the full base

        def refuse(*_args):
            raise AssertionError("an idle cut read the session store")

        monkeypatch.setattr(service.store, "iter_states", refuse)
        monkeypatch.setattr(service.store, "read_state", refuse)
        monkeypatch.setattr(service.store, "_read_cold", refuse)
        assert [chain.save_changed() for _ in range(3)] == [None] * 3
        service.close()

    @pytest.mark.parametrize("store", ["ram", "spill"])
    def test_a_one_principal_delta_reads_one_state(
        self, views, tmp_path, store, monkeypatch
    ):
        service = self._population(views, tmp_path, store, 2_000)
        chain = SnapshotChain(service, tmp_path / "state")
        chain.save()
        service.reset("app-7")
        reads = []
        read_state = service.store.read_state
        monkeypatch.setattr(
            service.store,
            "read_state",
            lambda principal: reads.append(principal) or read_state(principal),
        )
        monkeypatch.setattr(service.store, "iter_states", None)
        info = inspect_snapshot(chain.save_changed())
        assert reads == ["app-7"] and info.sessions == 1
        service.close()

    @pytest.mark.parametrize("store", ["ram", "spill"])
    def test_a_reset_anonymous_session_does_not_come_back(
        self, views, tmp_path, store
    ):
        """An anonymous principal narrows and is cut; then it is reset
        and dropped fresh by an eviction, which writes no record.  The
        next cut must still tombstone it, or a restart restores the
        narrowed state the base holds."""
        service = DisclosureService(
            views, default_policy=SERVED, **_store_kwargs(store, tmp_path, 1)
        )
        query = service.parse(*BIRTHDAY)
        chain = SnapshotChain(service, tmp_path / "state")
        service.submit("anon", query)
        assert service.live_partitions("anon") == (True, False)
        chain.save()
        service.reset("anon")
        service.submit("other", query)  # evicts "anon", fresh: no record
        chain.save()

        restarted = DisclosureService(views, default_policy=SERVED)
        restore_collected(restarted, collect_state(tmp_path / "state"))
        for principal in ("anon", "other"):
            assert restarted.live_partitions(principal) == (
                service.live_partitions(principal)
            )
        service.close()

    @pytest.mark.parametrize("store", ["ram", "spill"])
    def test_a_failed_write_loses_no_change(
        self, views, tmp_path, store, monkeypatch
    ):
        """A cut whose file cannot be written puts its principals back:
        the next generation carries them, and a restart sees them."""
        import repro.server.persist as persist

        service = self._population(views, tmp_path, store, 40)
        chain = SnapshotChain(service, tmp_path / "state")
        chain.save()
        service.reset("app-3")
        service.unregister("app-4")
        real = persist.save_snapshot

        def full_disk(*_args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(persist, "save_snapshot", full_disk)
        with pytest.raises(OSError):
            chain.save_changed()
        monkeypatch.setattr(persist, "save_snapshot", real)
        assert service.dirty_count() == 2
        service.reset("app-5")
        delta = load_snapshot(chain.save_changed())["payload"]
        assert delta["delta"]["removed"] == ["app-4"]
        assert set(delta["sessions"]["sessions"]) == {"app-3", "app-5"}
        collected = collect_state(tmp_path / "state")
        assert "app-4" not in collected.sessions
        assert len(collected.sessions) == 39
        service.close()


class TestEphemeralFlag:
    """The session table carries ``ephemeral``: the chain is the only
    thing a restart reads, so it must not make anonymous principals
    registered."""

    def test_only_ephemeral_entries_carry_the_third_element(self):
        partitions = tuple(map(tuple, SERVED))
        table = encode_states(
            [
                ("reg", SessionState(partitions, 0b01, False)),
                ("anon", SessionState(partitions, 0b01, True)),
            ]
        )
        assert table["sessions"] == {"reg": [0, 1], "anon": [0, 1, 1]}
        decoded = dict(decode_states(table))
        assert decoded["reg"].ephemeral is False  # a two-element entry
        assert decoded["anon"].ephemeral is True
        assert decoded["reg"].partitions is decoded["anon"].partitions

    @pytest.mark.parametrize("store", ["ram", "spill"])
    def test_a_restored_anonymous_session_stays_anonymous(
        self, views, tmp_path, store
    ):
        """Narrowed, cut, restored, reset and demoted: the restored
        twin drops the principal as the live one does, and a restart
        without a default policy refuses it."""
        services = [
            DisclosureService(
                views, default_policy=SERVED, **_store_kwargs(store, tmp_path / name, 4)
            )
            for name in ("live", "restored")
        ]
        live, restored = services
        query = live.parse(*BIRTHDAY)
        live.submit("anon", query)
        SnapshotChain(live, tmp_path / "first").save()
        restore_collected(restored, collect_state(tmp_path / "first"))
        chain = SnapshotChain(restored, tmp_path / "second")
        chain.save()
        for service in services:
            assert service.live_partitions("anon") == (True, False)
            service.reset("anon")
            with service._lock:
                service.store.demote("anon")
            assert "anon" not in service and service.principal_count() == 0
        chain.save_changed()
        for service in services:
            service.close()

        strict = DisclosureService(views)
        restore_collected(strict, collect_state(tmp_path / "second"))
        with pytest.raises(PolicyError, match="unknown principal"):
            strict.submit("anon", query)

    @pytest.mark.parametrize("store", ["ram", "spill"])
    def test_a_strict_service_restores_an_anonymous_entry_as_registered(
        self, views, tmp_path, store
    ):
        """A service without a default policy has no anonymous
        principals: a narrowed anonymous entry restores registered, so
        a reset and an eviction leave it served, fresh under its own
        policy, and exported without the flag."""
        anonymous = DisclosureService(views, default_policy=SERVED)
        query = anonymous.parse(*BIRTHDAY)
        anonymous.submit("anon", query)
        SnapshotChain(anonymous, tmp_path / "state").save()
        assert anonymous.export_state()["sessions"]["anon"] == [0, 0b01, 1]

        strict = DisclosureService(views, **_store_kwargs(store, tmp_path, 4))
        restore_collected(strict, collect_state(tmp_path / "state"))
        assert strict.live_partitions("anon") == (True, False)
        strict.reset("anon")
        with strict._lock:
            strict.store.demote("anon")
        assert "anon" in strict and strict.principal_count() == 1
        assert strict.live_partitions("anon") == (True, True)
        assert strict.export_state()["sessions"] == {"anon": [0, 0b11]}
        assert strict.submit("anon", strict.parse(*MUSIC)).accepted
        strict.close()


# ----------------------------------------------------------------------
# Served state directories: ``serve --state-dir``, pooled or not
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _serving(log_path, *args, stop=signal.SIGINT):
    """``python -m repro serve --port 0 ARGS`` in a subprocess leading
    its own process group; yields its URL, then sends *stop* to the
    whole group, as a terminal's Ctrl-C or a supervisor's ``killpg``
    does.  The stop must be clean: the final snapshot taken, exit 0
    within 10 s, and no process of the group (no replica) left.  A
    ``SIGKILL`` stop is a crash: it must kill, and no snapshot is
    taken."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
        PYTHONUNBUFFERED="1",
    )
    with open(log_path, "w+") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            url = None
            for _ in range(300):
                log.seek(0)
                found = re.search(r"http://[0-9.]+:[0-9]+", log.read())
                if found:
                    url = found.group(0)
                    break
                time.sleep(0.1)
            assert url, "server did not start"
            yield url
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(server.pid, stop)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(server.pid, signal.SIGKILL)
                server.wait()
                raise
    if stop == signal.SIGKILL:
        assert server.returncode == -signal.SIGKILL
        # The killed replicas are orphans now; init reaps them.
        for _ in range(100):
            try:
                os.killpg(server.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    else:
        assert server.returncode == 0, Path(log_path).read_text()
    with pytest.raises(ProcessLookupError):
        os.killpg(server.pid, 0)  # every replica went with its server


def _listing(directory) -> dict:
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in directory.iterdir()
    }


def _cli(*argv):
    from repro.__main__ import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


SERVED = [["user_birthday", "public_profile"], ["user_likes"]]
BIRTHDAY = ("SELECT birthday FROM user WHERE uid = me()", "fql", 3)
MUSIC = ("SELECT music FROM user WHERE uid = me()", "fql", 3)


_REPLICAS = pytest.mark.parametrize("replicas", [1, 2], ids=["unpooled", "pooled"])


class TestServedStateDirectory:
    def _decide(self, url, count: int) -> None:
        from repro.client import HttpClient, parse_text

        client = HttpClient(url, timeout=10)
        try:
            for index in range(4):
                client.register(f"app-{index}", SERVED)
            query = parse_text(*BIRTHDAY)
            rows = client.submit_many(
                [(f"app-{index % 4}", query) for index in range(count)]
            )
            assert [row for row in rows if "error" in row] == []
        finally:
            client.close()

    @_REPLICAS
    def test_every_file_written_is_v3(self, tmp_path, replicas):
        """Serving (periodic and shutdown snapshots), ``snapshot save``
        to a directory and to a file, and ``snapshot compact`` all
        write ``repro.snapshot/3`` through the one writer."""
        state, saved, out = tmp_path / "state", tmp_path / "saved", tmp_path / "out.json"
        with _serving(
            tmp_path / "serve.log", "--replicas", str(replicas),
            "--state-dir", str(state), "--snapshot-interval", "0.05",
        ) as url:
            self._decide(url, 20)
            time.sleep(0.3)  # periodic snapshots over the traffic
            assert _cli("snapshot", "save", "--url", url, "--state-dir", str(saved)) == 0
            assert _cli("snapshot", "save", "--url", url, "--out", str(out)) == 0
        assert len(list(state.glob("snapshot-*.json"))) >= 2
        assert _formats(state) == _formats(saved) == {"repro.snapshot/3"}
        assert load_snapshot(out)["format"] == "repro.snapshot/3"
        assert inspect_snapshot(out).sessions == 4
        assert _cli("snapshot", "compact", "--state-dir", str(state)) == 0
        assert _formats(state) == {"repro.snapshot/3"}
        assert len(collect_state(state).sessions) == 4

    @_REPLICAS
    def test_warm_restart_keeps_the_decision_counters(self, tmp_path, replicas):
        """The restored counters keep counting, pooled or not: ``/metrics``
        after a restart reads the history plus the new decisions, and
        the next snapshot carries that sum, counted once."""
        from repro.client import HttpClient

        state = tmp_path / "state"
        argv = ("--replicas", str(replicas), "--state-dir", str(state))
        with _serving(tmp_path / "first.log", *argv) as url:
            self._decide(url, 30)
        assert collect_state(state).metrics["decisions"] == 30
        with _serving(tmp_path / "second.log", *argv) as url:
            client = HttpClient(url, timeout=10)
            assert client.metrics()["decisions"] == 30
            self._decide(url, 5)
            metrics = client.metrics()
            assert (metrics["decisions"], metrics["latency"]["count"]) == (35, 35)
            assert client.snapshot()["metrics"]["decisions"] == 35
            client.close()
        assert collect_state(state).metrics["decisions"] == 35

    @_REPLICAS
    def test_sigterm_is_a_clean_stop(self, views, tmp_path, replicas):
        """SIGTERM to the server's process group (how the perf ledger
        and supervisors stop it) takes the final snapshot: with no
        periodic snapshot between start and stop, a restart from the
        directory holds exactly the reference oracle's state after the
        last request."""
        from repro.client import HttpClient, parse_text

        state = tmp_path / "state"
        argv = (
            "--replicas", str(replicas), "--state-dir", str(state),
            "--snapshot-interval", "3600",
        )
        oracle = ReferenceOracle(views)
        queries = [parse_text(*BIRTHDAY), parse_text(*MUSIC)]
        with _serving(tmp_path / "first.log", *argv, stop=signal.SIGTERM) as url:
            client = HttpClient(url, timeout=10)
            for index in range(6):
                client.register(f"app-{index}", SERVED)
                oracle.register(f"app-{index}", PartitionPolicy(SERVED, views))
            for step in range(24):
                principal, query = f"app-{step % 6}", queries[(step // 6 + step) % 2]
                decision = client.submit(principal, query)
                assert decision["accepted"] == oracle.submit(principal, query).accepted
            client.reset("app-5")
            oracle.reset("app-5")
            client.close()
        assert len(list(state.glob("snapshot-*.json"))) == 2  # start, stop

        with _serving(tmp_path / "second.log", *argv) as url:
            client = HttpClient(url, timeout=10)
            payload = client.snapshot()
            client.close()
        assert payload["metrics"]["decisions"] == 24
        sessions = dict(decode_states(payload["sessions"]))
        assert set(sessions) == set(oracle.monitors)
        for principal, state in sessions.items():
            live = {
                frozenset(partition)
                for bit, partition in enumerate(state.partitions)
                if state.live >> bit & 1
            }
            expected = {
                partition
                for partition, flag in zip(
                    PartitionPolicy(SERVED, views).partitions,
                    oracle.live_partitions(principal),
                )
                if flag
            }
            assert live == expected, principal

    @_REPLICAS
    def test_an_idle_server_writes_nothing(self, tmp_path, replicas):
        """Ten snapshot intervals without traffic leave the directory
        listing as it was; one submit then writes exactly one delta."""
        from repro.client import HttpClient, parse_text

        state = tmp_path / "state"
        with _serving(
            tmp_path / "serve.log", "--replicas", str(replicas),
            "--state-dir", str(state), "--snapshot-interval", "0.1",
        ) as url:
            client = HttpClient(url, timeout=10)
            client.register("app-0", SERVED)
            time.sleep(0.5)  # the registration's delta is written
            listing = _listing(state)
            time.sleep(1.0)  # ten intervals, idle
            assert _listing(state) == listing
            client.submit("app-0", parse_text(*BIRTHDAY))
            time.sleep(0.5)
            after = _listing(state)
            client.close()
            new = sorted(set(after) - set(listing))
            assert len(new) == 1, new
            assert inspect_snapshot(state / new[0]).delta_of is not None
            assert {name: after[name] for name in listing} == listing

    @staticmethod
    def _sessions(client) -> int:
        sessions = client.metrics()["sessions"]
        return sessions["resident"] + sessions["spilled"]

    def test_a_topology_change_leaves_no_stale_sessions(self, tmp_path):
        """One spill and state directory under ``--replicas`` 2, then 3,
        then 2: each replica's log starts empty and is primed from the
        chain, so ``/metrics`` counts every principal exactly once."""
        from repro.client import HttpClient, parse_text

        argv = (
            "--spill-dir", str(tmp_path / "spill"),
            "--state-dir", str(tmp_path / "state"),
            "--max-resident-sessions", "4",
        )
        query = parse_text(*BIRTHDAY)
        for run, replicas in enumerate((2, 3, 2)):
            with _serving(
                tmp_path / f"run-{run}.log", "--replicas", str(replicas), *argv
            ) as url:
                client = HttpClient(url, timeout=10)
                if run == 0:
                    for index in range(40):
                        client.register(f"app-{index}", SERVED)
                client.submit_many(
                    [(f"app-{index}", query) for index in range(run, 40, 3)]
                )
                assert self._sessions(client) == 40, run
                client.close()

    @_REPLICAS
    def test_a_crash_restores_only_the_last_cut(self, tmp_path, replicas):
        """A principal registered, narrowed and evicted after the last
        cut is in no snapshot; a restart after a SIGKILL must not find
        it in the spill directory either."""
        from repro.client import ClientError, HttpClient, parse_text

        state = tmp_path / "state"
        argv = (
            "--replicas", str(replicas), "--spill-dir", str(tmp_path / "spill"),
            "--state-dir", str(state), "--snapshot-interval", "3600",
            "--max-resident-sessions", "1",
        )
        birthday = parse_text(*BIRTHDAY)
        with _serving(tmp_path / "first.log", *argv, stop=signal.SIGKILL) as url:
            client = HttpClient(url, timeout=10)
            client.register("p", SERVED)
            assert _cli(
                "snapshot", "save", "--url", url, "--state-dir", str(state)
            ) == 0  # the last cut
            client.register("late", SERVED)
            assert client.submit("late", birthday)["accepted"]
            client.submit("p", birthday)  # evicts "late", narrowed
            client.close()

        with _serving(tmp_path / "second.log", *argv) as url:
            client = HttpClient(url, timeout=10)
            sessions = client.snapshot()["sessions"]["sessions"]
            assert sessions == {"p": [0, 0b11]}  # as the cut held it
            assert self._sessions(client) == 1
            with pytest.raises(ClientError) as refused:
                client.submit("late", parse_text(*MUSIC))
            assert refused.value.status == 404
            client.close()

    @_REPLICAS
    def test_a_spill_only_restart_starts_empty(self, tmp_path, replicas):
        """Without ``--state-dir`` nothing is restored: a Chinese Wall
        commitment is not rolled back to the registration the spill log
        held, the principal is simply unknown."""
        from repro.client import ClientError, HttpClient, parse_text

        argv = ("--replicas", str(replicas), "--spill-dir", str(tmp_path / "spill"))
        with _serving(tmp_path / "first.log", *argv, stop=signal.SIGTERM) as url:
            client = HttpClient(url, timeout=10)
            client.register("app", SERVED)
            assert client.submit("app", parse_text(*BIRTHDAY))["accepted"]
            assert not client.submit("app", parse_text(*MUSIC))["accepted"]
            client.close()

        with _serving(tmp_path / "second.log", *argv) as url:
            client = HttpClient(url, timeout=10)
            assert self._sessions(client) == 0
            with pytest.raises(ClientError) as refused:
                client.submit("app", parse_text(*MUSIC))
            assert refused.value.status == 404
            client.close()
