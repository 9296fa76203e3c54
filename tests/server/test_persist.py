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
  and the store falls back to the newest *valid* generation.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.core.terms import Constant
from repro.errors import SnapshotError
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.server.aio import dispatch
from repro.server.persist import (
    SnapshotChain,
    SnapshotStore,
    Snapshotter,
    collect_state,
    compact_chain,
    decode_cache_entries,
    encode_cache_entries,
    inspect_snapshot,
    load_snapshot,
    restore_service,
    save_pool_snapshot,
    save_snapshot,
    sessions_payload,
    snapshot_service,
)
from repro.server.service import DisclosureService

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


# ----------------------------------------------------------------------
# Cache-entry encoding
# ----------------------------------------------------------------------
class TestCacheEntryEncoding:
    def test_roundtrips_every_constant_type(self):
        key = (
            (0, ("c", Constant("Cathy")), ("c", Constant(9))),
            (
                ("User", (0, 1, ("c", Constant(2.5)))),
                ("Likes", (("c", Constant(True)), ("c", Constant(None)))),
            ),
        )
        entries = [(key, (3, 7, 1 << 40))]
        decoded = decode_cache_entries(
            json.loads(json.dumps(encode_cache_entries(entries)))
        )
        assert decoded == entries
        # type distinctions survive: Constant(1) != Constant(True) != 1
        one = ((("c", Constant(1)),), ())
        true = ((("c", Constant(True)),), ())
        out = decode_cache_entries(
            json.loads(json.dumps(encode_cache_entries([(one, (1,)), (true, (2,))])))
        )
        assert out[0][0] != out[1][0]

    def test_real_service_entries_roundtrip(self, views):
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(1, 120):
            service.submit(principal, query)
        entries = service.export_label_cache()
        decoded = decode_cache_entries(
            json.loads(json.dumps(encode_cache_entries(entries)))
        )
        assert decoded == entries

    def test_malformed_entries_are_rejected(self):
        with pytest.raises(SnapshotError, match="malformed cache entry"):
            decode_cache_entries([["key-only"]])
        with pytest.raises(SnapshotError, match="malformed packed label"):
            decode_cache_entries([[0, ["not-an-int"]]])
        with pytest.raises(SnapshotError, match="unrecognized"):
            decode_cache_entries([[["?"], [1]]])


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
        assert document["format"] == "repro.snapshot/2"
        assert document["payload"] == json.loads(json.dumps(payload))
        assert not list(tmp_path.glob(".*tmp*")), "temp file left behind"

    def test_v1_documents_still_restore(self, views, tmp_path):
        """Snapshots written by the pre-ID-plane release (format 1:
        per-principal partition lists + flat ``[key, label]`` cache
        pairs) must keep loading and restoring byte-identically."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(2, 100):
            service.submit(principal, query)
        v1_payload = {
            "sessions": service.export_state(),
            "label_cache": encode_cache_entries(service.export_label_cache()),
            "metrics": {"decisions": service.decisions.value},
        }
        path = tmp_path / "snapshot-00000001.json"
        save_snapshot(path, v1_payload)
        # Rewrite the header to the v1 format stamp (save writes v2).
        document = json.loads(path.read_text())
        document["format"] = "repro.snapshot/1"
        path.write_text(json.dumps(document, sort_keys=True))

        loaded = load_snapshot(path)
        assert loaded["format"] == "repro.snapshot/1"
        restored = DisclosureService(views)
        stats = restore_service(restored, loaded["payload"])
        assert stats.sessions == PRINCIPALS
        assert stats.cache_entries == len(service.export_label_cache())
        after = _traffic(77, 150)
        assert _wire(
            [service.submit(p, q) for p, q in after]
        ) == _wire([restored.submit(p, q) for p, q in after])
        # collect_state normalizes v1 files exactly like v2 ones.
        collected = collect_state(tmp_path)
        assert len(collected.sessions) == PRINCIPALS

    def test_v2_payload_dedupes_tables(self, views):
        """The ID-plane payload stores each policy, canonical key, and
        packed label once, however many sessions or cache entries
        reference it — and is smaller than the v1 encoding on the same
        state."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(3, 200):
            service.submit(principal, query)
        payload = snapshot_service(service)
        interning = payload["interning"]
        entries = service.export_label_cache()
        assert len(interning["cache"]) == len(entries)
        distinct_labels = {tuple(label) for _, label in entries}
        assert len(interning["labels"]) == len(distinct_labels)
        assert len(distinct_labels) < len(entries)  # labels are shared
        v1_bytes = len(
            json.dumps(
                {
                    "sessions": service.export_state(),
                    "label_cache": encode_cache_entries(entries),
                    "metrics": payload["metrics"],
                }
            )
        )
        v2_bytes = len(json.dumps(payload))
        assert v2_bytes < v1_bytes

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
        assert summary["sessions"] == PRINCIPALS
        assert summary["cache_entries"] > 0
        assert summary["decisions"] == 100


class TestSnapshotStore:
    def test_sequencing_and_pruning(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for n in range(5):
            store.save({"n": n})
        names = [path.name for path in store.paths()]
        assert names == ["snapshot-00000004.json", "snapshot-00000005.json"]
        _, document = store.load_latest()
        assert document["payload"] == {"n": 4}

    def test_falls_back_past_a_corrupt_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=4)
        store.save({"n": 0})
        newest = store.save({"n": 1})
        newest.write_text(newest.read_text()[:20])  # simulate torn disk
        path, document = store.load_latest()
        assert path.name == "snapshot-00000001.json"
        assert document["payload"] == {"n": 0}

    def test_empty_store(self, tmp_path):
        assert SnapshotStore(tmp_path).load_latest() is None
        assert collect_state(tmp_path) is None
        assert collect_state(tmp_path / "never-created") is None


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
        store = SnapshotStore(tmp_path)
        store.save(snapshot_service(reference))

        restarted = DisclosureService(views)  # "kill": a fresh process
        _, document = store.load_latest()
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
        store = SnapshotStore(tmp_path)
        store.save(snapshot_service(older))

        newer = _registered_service(views, policies)
        for principal, query in _traffic(5, 150):
            newer.submit(principal, query)  # narrows some live bits
        store.save(snapshot_service(newer))

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
        store = SnapshotStore(tmp_path)
        store.save(snapshot_service(service))  # generation 1: everyone
        service.unregister("app-0")
        store.save(snapshot_service(service))  # generation 2: app-0 gone
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
        store = SnapshotStore(tmp_path)
        store.save(snapshot_service(service))  # old: warm cache
        empty = _registered_service(views, _policies(views))
        store.save(snapshot_service(empty))  # new: cold cache
        collected = collect_state(tmp_path)
        assert len(collected.cache_entries) == len(
            service.export_label_cache()
        )

    def test_corrupt_files_are_skipped_and_reported(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        SnapshotStore(tmp_path).save(snapshot_service(service))
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
        store = SnapshotStore(tmp_path)
        snapshotter = Snapshotter(
            lambda: store.save(snapshot_service(service)), interval=3600
        )
        assert snapshotter.run_once()
        assert snapshotter.snapshots_taken == 1
        assert store.load_latest() is not None

    def test_interval_thread_snapshots_and_stops(self, views, tmp_path):
        service = _registered_service(views, _policies(views))
        store = SnapshotStore(tmp_path)
        taken = threading.Event()

        def snap():
            store.save(snapshot_service(service))
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
# A pooled deployment: merged snapshot, restart with another replica count
# ----------------------------------------------------------------------
class TestPooledRestart:
    def _snapshot_a_pool(self, views, tmp_path, policies, reference, traffic):
        """A 2-replica pool decides *traffic*, then leaves only a merged
        snapshot in *tmp_path* (the kill: replicas gone, state on disk)."""
        from repro.server.pool import ReplicaPool

        kwargs = {"security_views": views}
        parent = DisclosureService(**kwargs)
        pool = ReplicaPool(parent, 2, service_kwargs=kwargs).start()
        try:
            for index, policy in enumerate(policies):
                status, _ = pool.dispatch_inline(
                    "POST",
                    "/v1/register",
                    {"principal": f"app-{index}", "policy": policy},
                )
                assert status == 200
            got = pool.decide([(p, q, None) for p, q in traffic], update=True)
            want = [reference.submit(p, q) for p, q in traffic]
            for g, w in zip(got, want):
                assert (g.accepted, g.live_after) == (w.accepted, w.live_after)
            assert save_pool_snapshot(tmp_path, pool.snapshot_payloads())
        finally:
            pool.close()
            parent.close()

    def _restored_pool(self, views, tmp_path, replicas):
        """The ``serve --replicas N --state-dir DIR`` composition."""
        from repro.server.pool import ReplicaPool

        kwargs = {"security_views": views}
        collected = collect_state(tmp_path)
        assert len(collected.sessions) == PRINCIPALS
        parent = DisclosureService(**kwargs)
        parent.import_state(sessions_payload(collected.sessions))
        pool = ReplicaPool(
            parent, replicas, service_kwargs=kwargs,
            warm_entries=collected.cache_entries,
        ).start()
        return parent, pool

    def test_warm_restart_with_more_replicas(self, views, tmp_path):
        """A 2-replica pool → merged snapshot into the state directory →
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
        """A replica of a pool started with warm entries dies mid-stream;
        its respawn gets the parent's plane ahead of the warm frame, so
        the stream continues byte-identically with no plane drift."""
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


# ----------------------------------------------------------------------
# Incremental generations: export_generation and the snapshot chain
# ----------------------------------------------------------------------
class TestExportGeneration:
    def test_full_export_covers_everything_and_bumps_the_epoch(self, views):
        service = _registered_service(views, _policies(views))
        epoch_before = service.state_epoch
        state, watermark, removed = service.export_generation(0)
        assert set(state["sessions"]) == {f"app-{i}" for i in range(PRINCIPALS)}
        assert watermark == epoch_before
        assert removed == []
        assert service.state_epoch == watermark + 1

    def test_delta_export_carries_only_dirty_sessions(self, views):
        service = _registered_service(views, _policies(views))
        _, watermark, _ = service.export_generation(0)
        service.reset("app-3")  # the only mutation in this window
        state, _, removed = service.export_generation(watermark + 1)
        assert set(state["sessions"]) == {"app-3"}
        assert removed == []

    def test_unregister_tombstones_ride_the_delta(self, views):
        service = _registered_service(views, _policies(views))
        _, watermark, _ = service.export_generation(0)
        service.unregister("app-5")
        state, _, removed = service.export_generation(watermark + 1)
        assert "app-5" not in state["sessions"]
        assert removed == ["app-5"]
        # A full export lists every survivor, settling the tombstone.
        state, watermark, removed = service.export_generation(0)
        assert removed == []
        _, _, removed = service.export_generation(watermark + 1)
        assert removed == []

    def test_remove_sessions_discards_without_tombstones(self, views):
        service = _registered_service(views, _policies(views))
        _, watermark, _ = service.export_generation(0)
        assert service.remove_sessions(["app-1", "app-2", "no-such"]) == 2
        assert "app-1" not in service
        _, _, removed = service.export_generation(watermark + 1)
        assert removed == []


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

    def test_v2_snapshots_still_restore(self, views, tmp_path):
        """The pre-chain format keeps loading: a v2 sequence file is a
        valid chain base of length one."""
        service = _registered_service(views, _policies(views))
        for principal, query in _traffic(51, 60):
            service.submit(principal, query)
        SnapshotStore(tmp_path).save(snapshot_service(service))
        document = load_snapshot(next(tmp_path.iterdir()))
        assert document["format"] == "repro.snapshot/2"
        collected = collect_state(tmp_path)
        assert len(collected.sessions) == PRINCIPALS
