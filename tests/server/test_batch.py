"""Batch-vs-sequential equivalence: the acceptance property of the
vectorized decision path.

For every traffic mix, splitting the same ``(principal, query)`` stream
into batches of any size and shape must produce decisions that are
byte-for-byte identical to N sequential :meth:`submit` calls — same
verdicts, same reasons, same ``cached`` flags, same live-bit evolution —
and must leave the service in an identical end state (sessions and
cache counters included).  The suites below drive that property across
random workloads, refusal interleavings, odd batch boundaries that
split principals across batches, and the wire layer's per-item error
isolation.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import PolicyError
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.server.aio import dispatch
from repro.server.service import DisclosureService

from reference_oracle import states_of

PRINCIPALS = 20


def _build_pair(views, seed: int):
    """Two services with identical registered principals."""
    sequential = DisclosureService(views)
    batched = DisclosureService(views)
    policies = generate_policies(
        views.names, PRINCIPALS, max_partitions=5, max_elements=25, seed=seed
    )
    for index, policy in enumerate(policies):
        sequential.register(f"app-{index}", policy)
        batched.register(f"app-{index}", policy)
    return sequential, batched


def _traffic(seed: int, count: int, max_subqueries: int = 2):
    generator = WorkloadGenerator(max_subqueries=max_subqueries, seed=seed)
    queries = list(generator.stream(max(64, count // 8)))
    rng = random.Random(seed * 31 + 1)
    return [
        (f"app-{rng.randrange(PRINCIPALS)}", rng.choice(queries))
        for _ in range(count)
    ]


def _wire(decisions) -> str:
    """Decisions as canonical JSON — the byte-identity yardstick."""
    return json.dumps([d.as_dict() for d in decisions], sort_keys=True)


class TestSubmitBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 333])
    def test_byte_identical_decisions_and_end_state(
        self, views, seed, batch_size
    ):
        """The property, across seeds and batch boundaries that split
        principals mid-stream (sizes coprime to the traffic length)."""
        sequential, batched = _build_pair(views, seed)
        traffic = _traffic(seed, 600)

        expected = [sequential.submit(p, q) for p, q in traffic]
        got = []
        for start in range(0, len(traffic), batch_size):
            got.extend(batched.submit_batch(traffic[start : start + batch_size]))

        assert _wire(got) == _wire(expected)
        assert states_of(batched) == states_of(sequential)
        # Both verdicts must actually occur or the property is vacuous.
        assert any(d.accepted for d in expected)
        assert any(not d.accepted for d in expected)

    def test_cache_counters_match_sequential(self, views):
        """The batch-local memo must account its skipped lookups, so
        ``/metrics`` reports the same hits/misses either way."""
        sequential, batched = _build_pair(views, 3)
        traffic = _traffic(3, 500)
        for principal, query in traffic:
            sequential.submit(principal, query)
        batched.submit_batch(traffic)

        seq_stats = sequential.label_cache.stats()
        bat_stats = batched.label_cache.stats()
        assert (seq_stats.hits, seq_stats.misses) == (
            bat_stats.hits,
            bat_stats.misses,
        )
        assert sequential.decisions.value == batched.decisions.value
        assert sequential.accepted.value == batched.accepted.value
        assert sequential.refused.value == batched.refused.value
        assert sequential.latency.count == batched.latency.count

    def test_disabled_cache_stays_equivalent(self, views):
        """With the cache disabled (the benchmark's cold series) every
        decision reports cached=False and every lookup counts a miss —
        batched exactly like sequential."""
        sequential = DisclosureService(views, label_cache_size=0)
        batched = DisclosureService(views, label_cache_size=0)
        for service in (sequential, batched):
            service.register("app", [["public_profile"], ["user_likes"]])
        generator = WorkloadGenerator(max_subqueries=1, seed=6)
        query = next(iter(generator.stream(1)))
        items = [("app", query)] * 5

        expected = [sequential.submit(p, q) for p, q in items]
        got = batched.submit_batch(items)
        assert _wire(got) == _wire(expected)
        assert [d.cached for d in got] == [False] * 5
        seq_stats = sequential.label_cache.stats()
        bat_stats = batched.label_cache.stats()
        assert (seq_stats.hits, seq_stats.misses) == (
            bat_stats.hits,
            bat_stats.misses,
        ) == (0, 5)

    def test_cached_flags_follow_first_occurrence(self, views):
        """First sight of a shape is a labeler run; repeats are hits —
        within one batch just as across sequential calls."""
        service = DisclosureService(views)
        service.register("app", [["public_profile"], ["user_likes"]])
        generator = WorkloadGenerator(max_subqueries=1, seed=9)
        query = next(iter(generator.stream(1)))
        decisions = service.submit_batch([("app", query)] * 4)
        assert [d.cached for d in decisions] == [False, True, True, True]

    def test_interleaved_batches_and_single_submits(self, views):
        """Mixing the two entry points on one service stays coherent."""
        sequential, mixed = _build_pair(views, 4)
        traffic = _traffic(4, 400)
        expected = [sequential.submit(p, q) for p, q in traffic]

        got = []
        cursor = 0
        rng = random.Random(7)
        while cursor < len(traffic):
            if rng.random() < 0.5:
                principal, query = traffic[cursor]
                got.append(mixed.submit(principal, query))
                cursor += 1
            else:
                size = rng.randrange(1, 50)
                got.extend(mixed.submit_batch(traffic[cursor : cursor + size]))
                cursor += size
        assert _wire(got) == _wire(expected)
        assert states_of(mixed) == states_of(sequential)

    def test_refusals_commit_state_inside_a_batch(self, views):
        """A Chinese-Wall commit in item i must refuse item j > i of the
        same batch, exactly as sequential submission would."""
        service = DisclosureService(views)
        service.register(
            "app", [["user_birthday", "public_profile"], ["user_likes"]]
        )
        birthday = service.parse(
            "SELECT birthday FROM user WHERE uid = me()", "fql"
        )
        likes = service.parse("SELECT music FROM user WHERE uid = me()", "fql")
        decisions = service.submit_batch(
            [("app", birthday), ("app", likes), ("app", birthday)]
        )
        assert [d.accepted for d in decisions] == [True, False, True]
        assert decisions[1].live_before == decisions[1].live_after == 1

    def test_empty_batch(self, views):
        service = DisclosureService(views)
        assert service.submit_batch([]) == []
        assert service.peek_batch([]) == []
        assert service.decisions.value == 0


class TestPeekBatch:
    def test_matches_sequential_peeks_and_changes_nothing(self, views):
        sequential, batched = _build_pair(views, 5)
        traffic = _traffic(5, 300)
        # Narrow some sessions first so peeks see committed state.
        for principal, query in traffic[:100]:
            sequential.submit(principal, query)
            batched.submit(principal, query)

        expected = [sequential.peek(p, q) for p, q in traffic]
        state_before = states_of(batched)
        got = batched.peek_batch(traffic)

        assert _wire(got) == _wire(expected)
        assert states_of(batched) == state_before
        assert batched.peeks.value == sequential.peeks.value

    def test_peek_batch_items_do_not_observe_each_other(self, views):
        """Unlike submit_batch, peeks are independent probes."""
        service = DisclosureService(views)
        service.register(
            "app", [["user_birthday", "public_profile"], ["user_likes"]]
        )
        birthday = service.parse(
            "SELECT birthday FROM user WHERE uid = me()", "fql"
        )
        likes = service.parse("SELECT music FROM user WHERE uid = me()", "fql")
        decisions = service.peek_batch([("app", birthday), ("app", likes)])
        # Both accepted: the birthday peek did not commit the wall.
        assert [d.accepted for d in decisions] == [True, True]


class TestBatchValidation:
    def test_unknown_principal_raises_with_no_state_change(self, views):
        """submit_batch validates every principal before any mutation —
        stricter than the sequential loop, which would apply the prefix."""
        service = DisclosureService(views)
        service.register("app", [["public_profile"], ["user_likes"]])
        generator = WorkloadGenerator(max_subqueries=1, seed=2)
        queries = list(generator.stream(4))
        state_before = states_of(service)
        with pytest.raises(PolicyError, match="ghost"):
            service.submit_batch(
                [("app", queries[0]), ("ghost", queries[1]), ("app", queries[2])]
            )
        assert states_of(service) == state_before
        assert service.decisions.value == 0

    def test_default_policy_admits_unknown_principals(self, views):
        service = DisclosureService(
            views, default_policy=[["public_profile"]]
        )
        generator = WorkloadGenerator(max_subqueries=1, seed=2)
        query = next(iter(generator.stream(1)))
        decisions = service.submit_batch([("anon-1", query), ("anon-2", query)])
        assert len(decisions) == 2


def _v1_batch(service, requests, peek=False):
    """``POST /v1/batch`` through the route table: the decision list."""
    status, payload = dispatch(
        service, "POST", "/v1/batch", {"queries": requests, "peek": peek}
    )
    assert status == 200 and payload["count"] == len(requests)
    return payload["decisions"]


class TestWireBatch:
    def test_per_item_error_isolation(self, views, schema):
        service = DisclosureService(views, schema=schema)
        service.register("app", [["user_birthday", "public_profile"]])
        fql = "SELECT birthday FROM user WHERE uid = me()"
        results = _v1_batch(
            service,
            [
                {"principal": "app", "fql": fql},
                {"principal": "ghost", "fql": fql},
                {"principal": "", "fql": fql},
                {"principal": "app"},
                "not an object",
                {"principal": "app", "sql": "SELECT nope FROM User"},
                {"principal": "app", "fql": fql, "me": "three"},
                {"principal": "app", "fql": fql, "me": True},
                {"principal": "app", "fql": fql},
            ],
        )
        assert results[0]["accepted"] is True
        assert results[1] == {"error": "unknown principal 'ghost'"}
        assert "principal" in results[2]["error"]
        assert "'sql', 'fql', 'datalog'" in results[3]["error"]
        assert "JSON object" in results[4]["error"]
        assert "error" in results[5]
        assert "'me'" in results[6]["error"]
        assert results[7] == {"error": "'me' must be an integer uid"}
        # The last valid item still decided, state having evolved only
        # through the valid items.
        assert results[8]["accepted"] is True
        assert service.decisions.value == 2

    def test_wire_batch_matches_independent_queries(self, views, schema):
        """A wire batch equals the same requests sent one at a time."""
        one_at_a_time = DisclosureService(views, schema=schema)
        batched = DisclosureService(views, schema=schema)
        for service in (one_at_a_time, batched):
            service.register(
                "app", [["user_birthday", "public_profile"], ["user_likes"]]
            )
        requests = [
            {"principal": "app", "fql": "SELECT birthday FROM user WHERE uid = me()"},
            {"principal": "app", "fql": "SELECT music FROM user WHERE uid = me()"},
            {"principal": "app", "datalog": "Q(b) :- User2(x, b)"},
            {"principal": "app", "fql": "SELECT birthday FROM user WHERE uid = me()"},
        ]
        expected = []
        for request in requests:
            text_key = "fql" if "fql" in request else "datalog"
            expected.append(
                one_at_a_time.submit(
                    request["principal"],
                    one_at_a_time.parse(request[text_key], text_key),
                ).as_dict()
            )
        got = _v1_batch(batched, requests)
        assert got == expected

    def test_wire_peek_flag(self, views, schema):
        service = DisclosureService(views, schema=schema)
        service.register("app", [["user_birthday"], ["user_likes"]])
        fql = "SELECT birthday FROM user WHERE uid = me()"
        before = states_of(service)
        results = _v1_batch(
            service, [{"principal": "app", "fql": fql}], peek=True
        )
        assert results[0]["accepted"] is True
        assert states_of(service) == before
        assert service.peeks.value == 1


class TestSessionMemoInvalidation:
    """The per-session mask/outcome memos must never outlive the state
    they were computed against."""

    def test_reregistration_discards_memos(self, views):
        service = DisclosureService(views)
        service.register("app", [["user_birthday", "public_profile"]])
        fql = "SELECT birthday FROM user WHERE uid = me()"
        query = service.parse(fql, "fql")
        assert service.submit_batch([("app", query)])[0].accepted
        # New policy without the birthday view: same query must now refuse.
        service.register("app", [["user_likes"]])
        assert not service.submit_batch([("app", query)])[0].accepted

    def test_reset_keeps_memos_valid(self, views):
        service = DisclosureService(views)
        service.register(
            "app", [["user_birthday", "public_profile"], ["user_likes"]]
        )
        birthday = service.parse(
            "SELECT birthday FROM user WHERE uid = me()", "fql"
        )
        likes = service.parse("SELECT music FROM user WHERE uid = me()", "fql")
        first = service.submit_batch([("app", birthday), ("app", likes)])
        assert [d.accepted for d in first] == [True, False]
        service.reset("app")
        second = service.submit_batch([("app", likes), ("app", birthday)])
        assert [d.accepted for d in second] == [True, False]

    def test_lru_demotion_mid_batch_traffic(self, views):
        """Batches over more principals than active-session slots."""
        roomy, cramped = (
            DisclosureService(views),
            DisclosureService(views, max_active_sessions=3),
        )
        policies = generate_policies(
            views.names, PRINCIPALS, max_partitions=4, max_elements=20, seed=8
        )
        for index, policy in enumerate(policies):
            roomy.register(f"app-{index}", policy)
            cramped.register(f"app-{index}", policy)
        traffic = _traffic(8, 400, max_subqueries=1)
        expected = roomy.submit_batch(traffic)
        got = []
        for start in range(0, len(traffic), 37):
            got.extend(cramped.submit_batch(traffic[start : start + 37]))
        assert _wire(got) == _wire(expected)
        assert cramped.active_session_count() <= 3
