"""The DecisionClient surface: local and HTTP transports, negotiation,
qid-delta sync, and resync after a server that lost its generations."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.client import (
    AsyncHttpClient,
    ClientError,
    HttpClient,
    LocalClient,
    StallError,
    parse_text,
)
from repro.server.aio import start_async_background
from repro.server.service import DisclosureService
from repro.server.store import decode_states
from repro.server.wire2 import gateway_for

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]

BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"
MUSIC = "SELECT music FROM user WHERE uid = me()"


def _states(service):
    """The service's sessions as ``{principal: SessionState}``: the
    exported table decoded, so equal states compare equal whatever
    order the store holds them in."""
    return dict(decode_states(service.export_state()))


@pytest.fixture()
def service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


@pytest.fixture()
def queries(schema):
    return {
        "birthday": parse_text(BIRTHDAY, "fql", schema=schema),
        "music": parse_text(MUSIC, "fql", schema=schema),
    }


@pytest.fixture()
def http_server(service):
    handle = start_async_background(service)
    yield handle
    handle.stop()


def _url(server) -> str:
    return f"http://{server.host}:{server.port}"


class _Driven:
    """An :class:`AsyncHttpClient` behind a blocking facade: each of its
    coroutines runs to completion on the facade's own event loop, so one
    test body drives either client."""

    def __init__(self, client):
        self._client = client
        self._loop = asyncio.new_event_loop()

    def __getattr__(self, name):
        attr = getattr(self._client, name)
        if not asyncio.iscoroutinefunction(attr):
            return attr
        return lambda *args, **kwargs: self._loop.run_until_complete(
            attr(*args, **kwargs)
        )

    def close(self):
        if not self._loop.is_closed():
            self._loop.run_until_complete(self._client.close())
            self._loop.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


@pytest.fixture(params=["sync", "async"])
def make_client(request):
    """``make_client(url, **kwargs)``: an :class:`HttpClient`, or an
    :class:`AsyncHttpClient` driven blocking — each core operation runs
    under both drivers."""
    made = []

    def make(url, **kwargs):
        if request.param == "sync":
            client = HttpClient(url, **kwargs)
        else:
            client = _Driven(AsyncHttpClient(url, **kwargs))
        made.append(client)
        return client

    yield make
    for client in made:
        client.close()


@pytest.fixture()
def silent_url():
    """A wedged server: the listener's backlog completes every connect,
    and nothing ever reads a request or answers it."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    listener.close()


class TestLocalClient:
    def test_submit_peek_cycle(self, service, queries):
        client = LocalClient(service)
        first = client.submit("app", queries["birthday"])
        assert first["accepted"] is True and first["live_after"] == 1
        peeked = client.peek("app", queries["music"])
        assert peeked["accepted"] is False
        assert peeked["live_after"] == peeked["live_before"] == 1

    def test_submit_many_matches_sequential_submits(self, views, queries):
        a = DisclosureService(views)
        b = DisclosureService(views)
        for service in (a, b):
            service.register("app", CHINESE_WALL)
        stream = [
            ("app", queries["birthday"]),
            ("app", queries["music"]),
            ("app", queries["birthday"]),
        ]
        sequential = [
            LocalClient(a).submit(principal, query)
            for principal, query in stream
        ]
        batched = LocalClient(b).submit_many(stream)
        assert batched == sequential

    def test_unknown_principal_raises_single_isolates_batch(
        self, service, queries
    ):
        client = LocalClient(service)
        with pytest.raises(ClientError) as excinfo:
            client.submit("ghost", queries["birthday"])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-principal"
        results = client.submit_many(
            [("ghost", queries["birthday"]), ("app", queries["birthday"])]
        )
        assert results[0]["code"] == "unknown-principal"
        assert results[1]["accepted"] is True

    def test_decide_group_and_peek_many(self, service, queries):
        client = LocalClient(service)
        group = client.decide_group(
            "app", [queries["birthday"], queries["music"]]
        )
        assert [d["accepted"] for d in group] == [True, False]
        peeks = client.peek_many(
            [("app", queries["birthday"]), ("app", queries["music"])]
        )
        # Peeks are independent probes against the committed state.
        assert [d["accepted"] for d in peeks] == [True, False]

    def test_register_reset_metrics_snapshot(self, service, queries):
        client = LocalClient(service)
        client.register("other", [["user_likes"]])
        assert client.submit("other", queries["music"])["accepted"] is True
        client.submit("app", queries["birthday"])
        client.reset("app")
        assert client.submit("app", queries["music"])["accepted"] is True
        metrics = client.metrics()
        assert metrics["decisions"] == 3
        snapshot = client.snapshot()
        assert set(snapshot["sessions"]["sessions"]) == {"app", "other"}

    def test_service_client_helper(self, service, queries):
        client = service.client()
        assert isinstance(client, LocalClient)
        assert client.submit("app", queries["birthday"])["accepted"] is True


class TestHttpClientV2:
    def test_decides_over_v2(self, http_server, queries):
        with HttpClient(_url(http_server)) as client:
            first = client.submit("app", queries["birthday"])
            assert first["accepted"] is True and first["principal"] == "app"
            refused = client.submit("app", queries["music"])
            assert refused["accepted"] is False

    def test_steady_state_ships_no_delta(self, http_server, queries):
        with HttpClient(_url(http_server)) as client:
            client.submit("app", queries["birthday"])
            assert client._state.synced == 1
            # The same shape again: the interner already holds it, so the
            # request is principals plus bare ints (no delta to ship).
            from repro.client.wire import single_body

            body = single_body(
                client._state, "app", queries["birthday"], peek=True,
                compact=False,
            )
            assert "delta" not in body and body["qid"] == 0

    def test_batch_and_group_round_trip(self, http_server, queries):
        with HttpClient(_url(http_server)) as client:
            results = client.submit_many(
                [
                    ("app", queries["birthday"]),
                    ("app", queries["music"]),
                    ("ghost", queries["birthday"]),
                ]
            )
            assert [r.get("accepted") for r in results[:2]] == [True, False]
            assert results[2]["code"] == "unknown-principal"
            group = client.decide_group(
                "app", [queries["birthday"]] * 3, peek=True
            )
            assert all(d["accepted"] for d in group)

    def test_compact_and_full_responses_agree(self, http_server, queries):
        dense = HttpClient(_url(http_server), compact=True)
        plain = HttpClient(_url(http_server), compact=False)
        items = [("app", queries["birthday"]), ("app", queries["music"])]
        try:
            dense.peek_many(items)  # warm the label cache for both forms
            assert dense.peek_many(items) == plain.peek_many(items)
            assert dense.peek("app", queries["birthday"]) == plain.peek(
                "app", queries["birthday"]
            )
        finally:
            dense.close()
            plain.close()

    def test_resyncs_after_server_loses_generations(
        self, http_server, service, queries, make_client
    ):
        with make_client(_url(http_server)) as client:
            assert client.submit("app", queries["birthday"])["accepted"]
            # Simulate a restart: the gateway forgets every generation.
            gateway_for(service).forget_all()
            decision = client.submit("app", queries["music"])
            assert decision["accepted"] is False  # wall already committed
            assert gateway_for(service).generation_count() == 1
            # A batch of known shapes (no delta) is re-sent the same way.
            gateway_for(service).forget_all()
            batch = client.submit_many(
                [("app", queries["birthday"]), ("app", queries["music"])]
            )
            assert [d["accepted"] for d in batch] == [True, False]
            assert gateway_for(service).generation_count() == 1

    def test_admin_surface(self, http_server, queries, make_client):
        with make_client(_url(http_server)) as client:
            client.register("other", [["user_likes"]])
            assert client.submit("other", queries["music"])["accepted"]
            client.reset("other")
            assert client.submit("other", queries["music"])["accepted"]
            metrics = client.metrics()
            assert metrics["decisions"] == 2
            snapshot = client.snapshot()
            assert "app" in snapshot["sessions"]["sessions"]
            with pytest.raises(ClientError) as excinfo:
                client.register("bad", [["no_such_view"]])
            assert excinfo.value.status == 400

    def test_unreachable_server_is_a_client_error(self, queries, make_client):
        client = make_client("http://127.0.0.1:9", protocol="v2", timeout=1.0)
        with pytest.raises(ClientError) as excinfo:
            client.submit("app", queries["birthday"])
        assert excinfo.value.status == 502
        assert not excinfo.value.retryable

    def test_a_silent_server_stalls_with_one_error_type(
        self, silent_url, queries, make_client
    ):
        """A request written to a server that never answers fails with
        the retryable 504 on both clients: the sync socket timeout and
        the async watchdog report the same fault the same way."""
        client = make_client(silent_url, protocol="v2", timeout=0.5)
        with pytest.raises(StallError) as excinfo:
            client.submit("app", queries["birthday"])
        assert excinfo.value.status == 504
        assert excinfo.value.retryable


class TestWireStateRotation:
    def test_crossing_the_key_cap_mid_call_rotates_cleanly(self, queries):
        """A multi-query call whose novel shapes cross the generation
        key cap must rotate and re-intern, never ship an over-cap delta
        the server would refuse."""
        from repro.client.wire import WireState

        state = WireState(keys_cap=2)
        gen_before = state.gen
        gen, base, delta, qids = state.encode_refs(
            [queries["birthday"], queries["music"], queries["birthday"]]
        )
        assert gen == gen_before and base == 0 and len(delta) == 2
        assert qids == [0, 1, 0]
        # Table is now at the cap: the next call rotates up front.
        gen2, base2, delta2, qids2 = state.encode_refs([queries["music"]])
        assert gen2 != gen and base2 == 0 and len(delta2) == 1
        assert qids2 == [0]
        assert state.generations == 2

    def test_mid_intern_overflow_rotates_and_reinterns(self, schema):
        from repro.client.parsing import parse_text
        from repro.client.wire import WireState

        state = WireState(keys_cap=3)
        seed = [
            parse_text("Q(a) :- Status(u, a, m, t, r)", "datalog"),
            parse_text("Q(b) :- Album(b, o, n, v)", "datalog"),
        ]
        state.encode_refs(seed)  # 2 of 3 slots used
        gen_before = state.gen
        novel = [
            parse_text("Q(x) :- Photo(x, a, o, v)", "datalog"),
            parse_text("Q(y) :- Video(y, o, tt, d)", "datalog"),
        ]
        gen, base, delta, qids = state.encode_refs(novel)  # would hit 4 > 3
        assert gen != gen_before  # rotated mid-call
        assert base == 0 and len(delta) == 2 and qids == [0, 1]
        assert base + len(delta) <= state.keys_cap


class TestProtocols:
    @pytest.mark.parametrize("protocol", ["v1", "auto", "v3"])
    def test_only_v2_is_accepted(self, protocol):
        for client_type in (HttpClient, AsyncHttpClient):
            with pytest.raises(ValueError, match="docs/http-api.md"):
                client_type("http://127.0.0.1:9", protocol=protocol)
        assert HttpClient("http://127.0.0.1:9", protocol="v2").compact

    def test_v1_and_v2_decide_identically(
        self, views, schema, queries, v1_driver
    ):
        """The v1 text routes (driven by the test-side driver) and the
        v2 client decide one stream identically."""
        streams = []
        for make in (v1_driver, HttpClient):
            service = DisclosureService(views, schema=schema)
            service.register("app", CHINESE_WALL)
            server = start_async_background(service)
            try:
                with make(_url(server)) as client:
                    streams.append(
                        client.submit_many(
                            [
                                ("app", queries["birthday"]),
                                ("app", queries["music"]),
                                ("app", queries["birthday"]),
                            ]
                        )
                    )
            finally:
                server.stop()
        assert streams[0] == streams[1]


class TestShardedClient:
    def test_routes_and_aggregates(self, views, queries):
        from repro.client import ShardedClient
        from repro.server.partition import shard_for

        services = [DisclosureService(views) for _ in range(3)]
        client = ShardedClient.for_services(services)
        principals = [f"app-{index}" for index in range(12)]
        for principal in principals:
            client.register(principal, CHINESE_WALL)
        for principal in principals:
            assert client.submit(principal, queries["birthday"])["accepted"]
            # The session lives on exactly the shard the hash names.
            owner = services[shard_for(principal, 3)]
            assert principal in owner
        metrics = client.metrics()
        assert metrics["decisions"] == len(principals)
        assert metrics["shard_count"] == 3
        snapshot = client.snapshot()
        assert len(snapshot["sessions"]["sessions"]) == len(principals)


    def test_refuses_clients_whose_methods_are_coroutines(self, views):
        from repro.client import ShardedClient

        with pytest.raises(TypeError, match="AsyncHttpClient"):
            ShardedClient(
                [
                    LocalClient(DisclosureService(views)),
                    AsyncHttpClient("http://127.0.0.1:9"),
                ]
            )


SHARD_PRINCIPALS = 18


def _shard_policies(views, seed):
    from repro.facebook.workload import generate_policies

    return generate_policies(
        views.names, SHARD_PRINCIPALS, max_partitions=5, max_elements=25, seed=seed
    )


def _shard_traffic(seed, count):
    import random

    from repro.facebook.workload import WorkloadGenerator

    queries = list(WorkloadGenerator(max_subqueries=1, seed=seed).stream(96))
    rng = random.Random(seed + 100)
    return [
        (f"app-{rng.randrange(SHARD_PRINCIPALS)}", rng.choice(queries))
        for _ in range(count)
    ]


def _without_cached(rows):
    # Decision semantics are route-invariant; ``cached`` is cache-locality
    # metadata and differs while per-shard caches warm independently.
    return [{k: v for k, v in row.items() if k != "cached"} for row in rows]


class TestShardedEquivalence:
    """Hash-partitioning principals across shards never changes a
    decision: a :class:`ShardedClient` answers exactly as one service."""

    @pytest.fixture()
    def deployment(self, views):
        from repro.client import ShardedClient

        single = LocalClient(DisclosureService(views))
        services = [DisclosureService(views) for _ in range(3)]
        sharded = ShardedClient.for_services(services)
        for index, policy in enumerate(_shard_policies(views, 6)):
            single.register(f"app-{index}", policy)
            sharded.register(f"app-{index}", policy)
        return single, sharded, services

    def test_sharded_batches_match_single_service(self, deployment):
        single, sharded, _ = deployment
        traffic = _shard_traffic(6, 500)
        expected = [single.submit(p, q) for p, q in traffic]
        got = []
        for start in range(0, len(traffic), 83):
            got.extend(sharded.submit_many(traffic[start : start + 83]))
        assert _without_cached(got) == _without_cached(expected)

    def test_single_submits_match_too(self, deployment):
        single, sharded, _ = deployment
        for principal, query in _shard_traffic(8, 200):
            want = single.submit(principal, query)
            got = sharded.submit(principal, query)
            assert _without_cached([got]) == _without_cached([want])

    def test_peek_batch_routes_and_changes_nothing(self, deployment):
        single, sharded, services = deployment
        traffic = _shard_traffic(9, 150)
        states = [_states(service) for service in services]
        expected = [single.peek(p, q) for p, q in traffic]
        got = sharded.peek_many(traffic)
        assert _without_cached(got) == _without_cached(expected)
        assert states == [_states(service) for service in services]

    def test_batch_reassembles_in_order_around_bad_items(
        self, deployment, queries
    ):
        single, sharded, _ = deployment
        traffic = _shard_traffic(4, 40)
        items = traffic[:3] + [("ghost", queries["music"])] + traffic[3:]
        got = sharded.submit_many(items)
        assert got[3]["code"] == "unknown-principal"
        assert [row["principal"] for row in got[:3] + got[4:]] == [
            principal for principal, _ in traffic
        ]
        expected = single.submit_many(traffic)
        assert _without_cached(got[:3] + got[4:]) == _without_cached(expected)

    def test_warmed_shards_are_byte_identical(self, views):
        """With label caches warmed from one export, even the ``cached``
        flags agree: full equality across routes."""
        from repro.client import ShardedClient

        warmup = DisclosureService(views)
        traffic = _shard_traffic(7, 400)
        policies = _shard_policies(views, 7)
        for index, policy in enumerate(policies):
            warmup.register(f"app-{index}", policy)
        for principal, query in traffic:
            warmup.submit(principal, query)
        entries = warmup.export_label_cache()
        assert entries

        single = DisclosureService(views)
        single.warm_label_cache(entries)
        services = [DisclosureService(views) for _ in range(3)]
        for service in services:
            assert service.warm_label_cache(entries) == len(entries)
        sharded = ShardedClient.for_services(services)
        for index, policy in enumerate(policies):
            single.register(f"app-{index}", policy)
            sharded.register(f"app-{index}", policy)

        expected = [single.submit(p, q).as_dict() for p, q in traffic]
        got = sharded.submit_many(traffic)
        assert got == expected
        assert all(row["cached"] for row in got)


class TestShardedServers:
    """Client-side routing over independent ``repro serve`` processes."""

    def test_register_query_batch_and_metrics(self, views):
        from repro.client import ShardedClient

        warmup = DisclosureService(views)
        policies = _shard_policies(views, 11)
        for index, policy in enumerate(policies):
            warmup.register(f"app-{index}", policy)
        for principal, query in _shard_traffic(11, 200):
            warmup.submit(principal, query)
        entries = warmup.export_label_cache()

        handles = []
        for _ in range(2):
            service = DisclosureService(views)
            service.warm_label_cache(entries)
            handles.append(start_async_background(service))
        try:
            sharded = ShardedClient([HttpClient(_url(h)) for h in handles])
            single = LocalClient(DisclosureService(views))
            single.service.warm_label_cache(entries)
            for index, policy in enumerate(policies):
                sharded.register(f"app-{index}", [list(p) for p in policy])
                single.register(f"app-{index}", policy)

            # Sequential over HTTP == one in-process service; the servers
            # imported a warm cache covering this traffic.
            for principal, query in _shard_traffic(11, 60):
                got = sharded.submit(principal, query)
                assert got == single.submit(principal, query)
                assert got["cached"] is True
            # A batch equals the continuation of the same stream (traffic
            # the warm-up never saw, so each cache warms on its own).
            more = _shard_traffic(12, 60)
            assert _without_cached(sharded.submit_many(more)) == (
                _without_cached(single.submit_many(more))
            )

            metrics = sharded.metrics()
            assert metrics["shard_count"] == 2
            assert metrics["decisions"] == 120
            # Both servers actually served traffic.
            assert all(
                shard["sessions"]["active"] + shard["sessions"]["passive"] > 0
                for shard in metrics["shards"]
            )
            sharded.close()
        finally:
            for handle in handles:
                handle.stop()

    def test_a_dead_shard_fails_only_its_own_principals(self, views, queries):
        from repro.client import ShardedClient
        from repro.server.partition import shard_for

        live = DisclosureService(views)
        sharded = ShardedClient(
            [
                LocalClient(live),
                HttpClient("http://127.0.0.1:9", protocol="v2", timeout=1.0),
            ]
        )
        ours = next(f"p-{i}" for i in range(100) if shard_for(f"p-{i}", 2) == 0)
        theirs = next(f"p-{i}" for i in range(100) if shard_for(f"p-{i}", 2) == 1)
        sharded.register(ours, CHINESE_WALL)
        assert sharded.submit(ours, queries["birthday"])["accepted"]
        with pytest.raises(ClientError) as excinfo:
            sharded.submit(theirs, queries["birthday"])
        assert excinfo.value.status == 502
        # The live shard's session saw exactly the one decision.
        assert live.metrics_snapshot()["decisions"] == 1


class TestQueryToDatalog:
    def test_roundtrip_through_the_parser(self):
        from repro.client.wire import query_to_datalog
        from repro.core.parser import parse_query
        from repro.facebook.workload import WorkloadGenerator

        generator = WorkloadGenerator(max_subqueries=2, seed=9)
        for query in generator.stream(50):
            assert parse_query(query_to_datalog(query)) == query
