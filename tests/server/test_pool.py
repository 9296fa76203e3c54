"""The kernel replica pool: parity, plane deltas, crash recovery.

A pooled deployment must be observationally identical to one local
service — decisions, error taxonomy, admin routes, session evolution —
with the data plane spread across worker processes.  These suites hold
a :class:`ReplicaPool` and a twin local service to the same decision
stream (the ``cached`` flag excepted: label-cache warmth is
per-replica), then break the pool on purpose: kill -9 a replica
mid-stream and require the respawn to refault its sessions from the
parent mirror and keep the stream byte-identical.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.server.aio import dispatch
from repro.server.batch import decide_wire_items
from repro.server.kernel import ServiceDecision
from repro.server.partition import shard_for
from repro.server.pool import (
    REPLICA_UNAVAILABLE,
    ReplicaHandle,
    ReplicaPool,
    start_pooled_background,
)
from repro.server.service import DisclosureService
from repro.server.store import state_of

PRINCIPALS = ("alice", "bob", "carol", "dave", "erin")
REPLICAS = 2


def _assert_same_decision(want, got):
    """Decision equality modulo ``cached`` (warmth is per-replica)."""
    assert isinstance(got, ServiceDecision), got
    assert (want.accepted, want.principal, want.reason) == (
        got.accepted,
        got.principal,
        got.reason,
    )
    assert (want.live_before, want.live_after) == (
        got.live_before,
        got.live_after,
    )


def _traffic(seed: int, count: int):
    generator = WorkloadGenerator(max_subqueries=1, seed=seed)
    queries = list(generator.stream(64))
    import random

    rng = random.Random(seed + 17)
    return [
        (PRINCIPALS[rng.randrange(len(PRINCIPALS))], rng.choice(queries))
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def deployment(views, schema):
    """A 2-replica pool and its single-service twin, same policies."""
    kwargs = {"security_views": views, "schema": schema}
    local = DisclosureService(**kwargs)
    parent = DisclosureService(**kwargs)
    pool = ReplicaPool(parent, REPLICAS, service_kwargs=kwargs).start()
    policies = generate_policies(
        views.names, len(PRINCIPALS), max_partitions=4, max_elements=25,
        seed=3,
    )
    for principal, policy in zip(PRINCIPALS, policies):
        local.register(principal, policy)
        status, _ = pool.dispatch_inline(
            "POST",
            "/v1/register",
            {"principal": principal, "policy": [list(p) for p in policy]},
        )
        assert status == 200
    yield local, parent, pool
    pool.close()
    parent.close()
    local.close()


class TestDecideParity:
    def test_updates_and_peeks_match_local(self, deployment):
        local, _, pool = deployment
        traffic = _traffic(5, 80)
        for update in (True, False, True):
            entries = [(p, q, None) for p, q in traffic]
            want = decide_wire_items(local, entries, update=update)
            got = pool.decide(entries, update=update)
            assert len(want) == len(got)
            for w, g in zip(want, got):
                _assert_same_decision(w, g)

    def test_unknown_principal_is_isolated_per_item(self, deployment):
        local, _, pool = deployment
        (_, query), = _traffic(6, 1)
        entries = [("alice", query, None), ("ghost", query, None)]
        want = decide_wire_items(local, entries, update=True)
        got = pool.decide(entries, update=True)
        _assert_same_decision(want[0], got[0])
        assert got[1] == want[1]  # the same error dict, byte for byte
        assert got[1]["code"] == "unknown-principal"

    def test_parent_mirror_tracks_replica_sessions(self, deployment):
        local, parent, pool = deployment
        pool.decide(
            [(p, q, None) for p, q in _traffic(7, 40)], update=True
        )
        decide_wire_items(
            local, [(p, q, None) for p, q in _traffic(7, 40)], update=True
        )
        mirror = dict(parent.store.iter_states())
        for principal in PRINCIPALS:
            session = local.store.peek(principal)
            want = (
                state_of(session)
                if session is not None
                else dict(local.store.iter_states())[principal]
            )
            got = mirror[principal]
            assert (want.partitions, want.live) == (
                got.partitions,
                got.live,
            )

    def test_sessions_partition_by_crc32(self, deployment):
        _, _, pool = deployment
        for principal in PRINCIPALS:
            assert pool.owner_of(principal) == shard_for(principal, REPLICAS)


class TestInlineRoutes:
    def test_v1_batch_matches_local_dispatch(self, deployment):
        local, _, pool = deployment
        from repro.client.wire import query_to_datalog

        traffic = _traffic(8, 12)
        body = {
            "queries": [
                {"principal": p, "datalog": query_to_datalog(q)}
                for p, q in traffic
            ]
            + [
                {"principal": "ghost", "datalog": "q(X) :- likes(U, X)"},
                {"bad": "item"},
            ]
        }
        want_status, want = dispatch(local, "POST", "/v1/batch", body)
        got_status, got = pool.dispatch_inline("POST", "/v1/batch", body)
        assert (want_status, want["count"]) == (got_status, got["count"])
        for w, g in zip(want["decisions"], got["decisions"]):
            if "error" in w:
                assert w == g
            else:
                for key in ("accepted", "principal", "reason",
                            "live_before", "live_after"):
                    assert w[key] == g[key]

    def test_reset_restores_full_liveness_everywhere(self, deployment):
        local, parent, pool = deployment
        local.reset("alice")
        status, payload = pool.dispatch_inline(
            "POST", "/v1/reset", {"principal": "alice"}
        )
        assert (status, payload) == (200, {"reset": "alice"})
        (_, query), = _traffic(9, 1)
        want = decide_wire_items(local, [("alice", query, None)], update=True)
        got = pool.decide([("alice", query, None)], update=True)
        _assert_same_decision(want[0], got[0])

    def test_metrics_merge_across_replicas(self, deployment):
        _, _, pool = deployment
        snapshot = pool.metrics_snapshot()
        assert snapshot["replica_count"] == REPLICAS
        assert len(snapshot["replicas"]) == REPLICAS
        # Every decision in this module went through a replica; the sum
        # must cover them all (exact counts shift as tests are added).
        assert snapshot["decisions"] > 0
        vectors = {
            vector["name"] for vector in snapshot["registry"]["vectors"]
        }
        assert {"repro_pool_batches_total", "repro_pool_items_total"} <= vectors
        scalars = {
            scalar["name"] for scalar in snapshot["registry"]["scalars"]
        }
        assert "repro_pool_dispatch_seconds" in scalars

    def test_merged_snapshot_restores_into_one_service(
        self, deployment, views, schema
    ):
        local, _, pool = deployment
        merged = pool.merged_snapshot()
        sessions = merged["sessions"]["sessions"]
        assert set(PRINCIPALS) <= set(sessions)
        restored = DisclosureService(views, schema=schema)
        try:
            assert restored.import_state(merged["sessions"]) == len(sessions)
            (_, query), = _traffic(10, 1)
            want = pool.decide([("bob", query, None)], update=False)
            got = decide_wire_items(
                restored, [("bob", query, None)], update=False
            )
            _assert_same_decision(got[0], want[0])
        finally:
            restored.close()


class TestPlaneDeltas:
    def test_rotation_mid_stream_stays_exact(self, views, schema):
        """Tiny interner cap: the parent rotates planes every few
        shapes, replicas must adopt each epoch and stay id-exact."""
        kwargs = {"security_views": views, "schema": schema}
        local = DisclosureService(**kwargs)
        parent = DisclosureService(**kwargs)
        local.kernel.max_interned_shapes = 8
        parent.kernel.max_interned_shapes = 8
        pool = ReplicaPool(parent, REPLICAS, service_kwargs=kwargs).start()
        try:
            policies = generate_policies(
                views.names, len(PRINCIPALS), max_partitions=4,
                max_elements=25, seed=3,
            )
            for principal, policy in zip(PRINCIPALS, policies):
                local.register(principal, policy)
                status, _ = pool.dispatch_inline(
                    "POST",
                    "/v1/register",
                    {
                        "principal": principal,
                        "policy": [list(p) for p in policy],
                    },
                )
                assert status == 200
            epochs = set()
            for start in range(0, 60, 6):
                batch = [(p, q, None) for p, q in _traffic(30, 60)[start:start + 6]]
                want = decide_wire_items(local, batch, update=True)
                got = pool.decide(batch, update=True)
                for w, g in zip(want, got):
                    _assert_same_decision(w, g)
                epochs.add(parent.kernel.plane.epoch)
            assert len(epochs) > 1, "the cap never forced a rotation"
        finally:
            pool.close()
            parent.close()
            local.close()


class TestCrashRecovery:
    def test_kill_dash_nine_respawns_and_refaults(self, deployment):
        local, _, pool = deployment
        victim = pool.handles[0]
        old_pid = victim.process.pid
        os.kill(old_pid, signal.SIGKILL)
        time.sleep(0.2)
        traffic = _traffic(11, 40)
        entries = [(p, q, None) for p, q in traffic]
        want = decide_wire_items(local, entries, update=True)
        got = pool.decide(entries, update=True)
        for w, g in zip(want, got):
            _assert_same_decision(w, g)
        assert pool.handles[0].process.pid != old_pid
        snapshot = pool.metrics_snapshot()
        respawns = [
            series
            for vector in snapshot["registry"]["vectors"]
            if vector["name"] == "repro_pool_respawns_total"
            for series in vector["series"]
        ]
        assert sum(series["value"] for series in respawns) >= 1

    def test_both_replicas_die_both_recover(self, deployment):
        local, _, pool = deployment
        for handle in list(pool.handles):
            os.kill(handle.process.pid, signal.SIGKILL)
        time.sleep(0.2)
        traffic = _traffic(12, 30)
        entries = [(p, q, None) for p, q in traffic]
        want = decide_wire_items(local, entries, update=True)
        got = pool.decide(entries, update=True)
        for w, g in zip(want, got):
            _assert_same_decision(w, g)


CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]
BIRTHDAY = ("SELECT birthday FROM user WHERE uid = me()", "fql", 3)
MUSIC = ("SELECT music FROM user WHERE uid = me()", "fql", 3)


def _vec_total(vec) -> int:
    return sum(counter.value for _, counter in vec.series_items())


class _StubConnection:
    """A pipe end that answers every ``batch`` frame with a canned reply."""

    def __init__(self, reply):
        self.reply = reply
        self.sent = []

    def send_bytes(self, data):
        self.sent.append(json.loads(data))

    def recv_bytes(self):
        return json.dumps(self.reply).encode()


class TestReplyAlignment:
    """Rows are positional, so a reply that does not align with its
    frame fails the whole sub-batch and never reaches the mirror."""

    NARROWING = [1, 0, 3, 1, 0]

    @pytest.mark.parametrize(
        "rows",
        [
            [NARROWING],  # short: one row for three items
            [NARROWING] * 4,  # over-long
            [NARROWING, [1, 0, 3, 1], NARROWING],  # a four-field row
            [NARROWING, [1, 0, "3", 1, 0], NARROWING],  # a non-int field
            [NARROWING, [1, 0, 3, 1, 7], NARROWING],  # reason out of range
            [NARROWING, ["e", {"error": "x"}], NARROWING],  # the old tagged row
        ],
    )
    def test_misaligned_reply_fails_the_sub_batch(self, views, schema, rows):
        parent = DisclosureService(views, schema=schema)
        parent.register("app", CHINESE_WALL)
        pool = ReplicaPool(parent, 1)
        stub = _StubConnection(["ok", rows, ["accepted"]])
        pool.handles = [ReplicaHandle(0, None, stub)]
        query = parent.parse(*BIRTHDAY)
        spilled = parent.store.spill_count
        got = pool.decide([("app", query, None)] * 3, update=True)
        assert [frame[0] for frame in stub.sent] == ["plane", "batch"]
        assert len(got) == 3
        for entry in got:
            assert entry["code"] == REPLICA_UNAVAILABLE
        assert parent.store.spill_count == spilled
        assert _vec_total(pool.mirror_writes) == 0
        assert dict(parent.store.iter_states())["app"].live == 0b11

    def test_aligned_reply_decides_and_mirrors_the_last_narrowing(
        self, views, schema
    ):
        parent = DisclosureService(views, schema=schema)
        parent.register("app", CHINESE_WALL)
        pool = ReplicaPool(parent, 1)
        error = {"error": "unknown principal 'app'", "code": "unknown-principal"}
        rows = [[1, 0, 3, 1, 0], error, [0, 1, 1, 1, 1]]
        stub = _StubConnection(["ok", rows, ["yes", "no"]])
        pool.handles = [ReplicaHandle(0, None, stub)]
        query = parent.parse(*BIRTHDAY)
        got = pool.decide([("app", query, None)] * 3, update=True)
        assert (got[0].accepted, got[0].reason, got[0].principal) == (
            True, "yes", "app",
        )
        assert (got[0].live_before, got[0].live_after) == (3, 1)
        assert got[1] == error
        assert (got[2].accepted, got[2].cached, got[2].reason) == (
            False, True, "no",
        )
        assert _vec_total(pool.mirror_writes) == 1
        assert dict(parent.store.iter_states())["app"].live == 1


@pytest.fixture(scope="module")
def wall(views, schema, tmp_path_factory):
    """A pool under a default policy whose *parent* spills to disk, so
    registered and ephemeral principals both exist and every mirror
    write shows as log bytes; plus the single-service twin."""
    kwargs = {
        "security_views": views,
        "schema": schema,
        "default_policy": CHINESE_WALL,
    }
    local = DisclosureService(**kwargs)
    parent = DisclosureService(
        spill_dir=tmp_path_factory.mktemp("front"), **kwargs
    )
    pool = ReplicaPool(parent, REPLICAS, service_kwargs=kwargs).start()
    yield local, parent, pool
    pool.close()
    parent.close()
    local.close()


class TestDerivedMirror:
    """The parent mirror is read off ``live_before``/``live_after``."""

    REGISTERED = ("reg-a", "reg-b", "reg-c", "reg-d")

    def _register(self, local, pool, principal):
        local.register(principal, CHINESE_WALL)
        status, _ = pool.dispatch_inline(
            "POST", "/v1/register",
            {"principal": principal, "policy": CHINESE_WALL},
        )
        assert status == 200

    def test_mirror_equals_replica_states(self, wall):
        local, parent, pool = wall
        for principal in self.REGISTERED:
            self._register(local, pool, principal)
        birthday, music = parent.parse(*BIRTHDAY), parent.parse(*MUSIC)
        # Half of each population commits to a partition; the other
        # half is only peeked at or refused, so it never narrows.
        submits = [
            ("reg-a", birthday), ("anon-a", music), ("reg-b", music),
            ("anon-b", birthday), ("reg-a", music), ("anon-a", birthday),
        ]
        peeks = [("reg-c", birthday), ("anon-c", music), ("reg-d", music)]
        for traffic, update in ((submits, True), (peeks, False)):
            entries = [(p, q, None) for p, q in traffic]
            want = decide_wire_items(local, entries, update=update)
            got = pool.decide(entries, update=update)
            for w, g in zip(want, got):
                _assert_same_decision(w, g)
        assert {pool.owner_of(p) for p, _ in submits} == set(range(REPLICAS))
        replicas = pool.merged_snapshot()["sessions"]["sessions"]
        mirror = parent.export_state()["sessions"]
        assert set(mirror) == set(self.REGISTERED) | {"anon-a", "anon-b"}
        for principal, state in mirror.items():
            assert replicas[principal] == state, principal
        for principal in set(replicas) - set(mirror):
            # Held by a replica only: an untouched default-policy
            # session, which a respawn rebuilds identically from nothing.
            assert replicas[principal]["live"] == [True, True], principal
        assert mirror == local.export_state()["sessions"]
        ephemeral = {
            principal: state.ephemeral
            for principal, state in parent.store.iter_states()
        }
        assert ephemeral["anon-a"] and not ephemeral["reg-a"]

    def test_steady_state_and_peeks_write_nothing(self, wall, views, schema):
        local, parent, pool = wall
        birthday, music = parent.parse(*BIRTHDAY), parent.parse(*MUSIC)
        for principal in ("steady-a", "steady-b", "steady-c"):
            self._register(local, pool, principal)
        entries = [
            (principal, query, None)
            for principal in ("steady-a", "steady-b", "steady-c", "anon-s")
            for query in (birthday, music)
        ]
        ram_parent = DisclosureService(
            views, schema=schema, default_policy=CHINESE_WALL
        )
        ram_pool = ReplicaPool(
            ram_parent, REPLICAS, service_kwargs=pool.service_kwargs
        ).start()
        try:
            for subject, store_cost in (
                (pool, parent.store.log_bytes),
                (ram_pool, lambda: ram_parent.store.spill_count),
            ):
                # Peeks first, while a submit would still narrow.
                before = store_cost(), _vec_total(subject.mirror_writes)
                subject.decide(entries, update=False)
                assert (store_cost(), _vec_total(subject.mirror_writes)) == before
                subject.decide(entries, update=True)  # warm-up: narrows
                assert _vec_total(subject.mirror_writes) == before[1] + 4
                before = store_cost(), _vec_total(subject.mirror_writes)
                for _ in range(5):
                    got = subject.decide(entries, update=True)
                    assert all(isinstance(d, ServiceDecision) for d in got)
                assert (store_cost(), _vec_total(subject.mirror_writes)) == before
        finally:
            ram_pool.close()
            ram_parent.close()

    def test_respawn_resumes_with_the_narrowed_live_bits(self, wall):
        local, parent, pool = wall
        birthday, music = parent.parse(*BIRTHDAY), parent.parse(*MUSIC)
        self._register(local, pool, "victim")
        entries = [("victim", birthday, None), ("anon-v", music, None)]
        want = decide_wire_items(local, entries, update=True)
        got = pool.decide(entries, update=True)
        for w, g in zip(want, got):
            _assert_same_decision(w, g)
            assert g.live_after != g.live_before  # the batch narrowed
        respawns = _vec_total(pool.respawns)
        owners = {pool.owner_of(principal) for principal, _, _ in entries}
        for owner in owners:  # right after the batch that narrowed
            os.kill(pool.handles[owner].process.pid, signal.SIGKILL)
        probe = [
            ("victim", music, None), ("victim", birthday, None),
            ("anon-v", birthday, None), ("anon-v", music, None),
        ]
        want = decide_wire_items(local, probe, update=False)
        got = pool.decide(probe, update=False)
        for w, g in zip(want, got):
            _assert_same_decision(w, g)
        assert [g.accepted for g in got] == [False, True, False, True]
        assert _vec_total(pool.respawns) == respawns + len(owners)


class TestPooledFrontEndCrashScenario:
    def test_restart_mid_stream_digest_survives_a_replica_kill(
        self, views
    ):
        """kill -9 one replica mid-scenario through the real pooled
        front end: the respawn + session refault must leave the replayed
        decision stream byte-identical to an uninterrupted local run."""
        import asyncio

        from repro.client import AsyncHttpClient, LocalClient
        from repro.scenarios import (
            compile_scenario,
            get_scenario,
            replay_trace,
            replay_trace_async,
        )

        spec = get_scenario("restart-mid-stream").scaled(
            events=60, principals=16
        )
        trace = compile_scenario(spec, seed=7, view_names=views.names)
        local_report = replay_trace(
            trace, LocalClient(DisclosureService(views))
        )
        assert local_report.errors == 0

        handle = start_pooled_background(
            REPLICAS, service_kwargs={"security_views": views}
        )
        try:
            kill_at = len(trace) // 2
            victim_pid = handle.pool.handles[0].process.pid

            class KillingClient(AsyncHttpClient):
                sent = 0

                async def _decide(self, *args, **kwargs):
                    KillingClient.sent += 1
                    if KillingClient.sent == kill_at:
                        os.kill(victim_pid, signal.SIGKILL)
                    return await super()._decide(*args, **kwargs)

            async def drive():
                client = KillingClient(
                    f"http://{handle.host}:{handle.port}"
                )
                await client.connect()
                try:
                    return await replay_trace_async(trace, client)
                finally:
                    await client.close()

            report = asyncio.run(drive())
            assert KillingClient.sent > kill_at, "the kill never fired"
            assert report.errors == 0
            assert report.digest() == local_report.digest()
            assert handle.pool.handles[0].process.pid != victim_pid
        finally:
            handle.stop()
