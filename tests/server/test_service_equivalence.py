"""Cache-equivalence: the cached serving path must match a fresh monitor.

The acceptance property of the serving layer: for every principal and
every query sequence, the decisions (and labels) produced by
:class:`DisclosureService` — packed labels, shared canonical-query
cache, LRU sessions — are identical to those of a fresh, uncached
:class:`ReferenceMonitor` over the same security views and policy (the
shared oracle of ``reference_oracle.py``),
including refusals and the evolution of per-session live-partition
state.  Exercised over ≥ 1,000 Section 7.2 workload queries.
"""

from __future__ import annotations

import pytest

from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.policy.policy import PartitionPolicy
from repro.server.service import DisclosureService

from reference_oracle import ReferenceOracle

#: Principals × queries-per-principal: ≥ 1,000 total decisions.
PRINCIPALS = 6
QUERIES_PER_PRINCIPAL = 200


def _label_shape(disclosure_label):
    """A monitor label as a comparable multiset of determiner-name sets."""
    return sorted(sorted(a.determiners) for a in disclosure_label.atoms)


def _packed_shape(service, packed_label):
    """A service label decoded into the same comparable shape."""
    return sorted(sorted(names) for names in service.labeler.decode(packed_label))


@pytest.fixture(scope="module")
def workload(views):
    policies = generate_policies(
        views.names, PRINCIPALS, max_partitions=5, max_elements=25, seed=11
    )
    # Mixed realistic/complex queries, one deterministic stream per principal.
    streams = []
    for index in range(PRINCIPALS):
        generator = WorkloadGenerator(
            max_subqueries=1 + index % 3, seed=100 + index
        )
        streams.append(list(generator.stream(QUERIES_PER_PRINCIPAL)))
    return policies, streams


class TestCachedDecisionsMatchFreshMonitor:
    def test_interleaved_sessions_agree_step_by_step(self, views, workload):
        policies, streams = workload
        service = DisclosureService(views)
        oracle = ReferenceOracle(views)
        for index, policy in enumerate(policies):
            principal = f"app-{index}"
            partition_policy = PartitionPolicy(policy, views)
            service.register(principal, partition_policy)
            oracle.register(principal, partition_policy)

        total = accepted = refused = 0
        # Interleave principals round-robin so session states evolve
        # concurrently, the way real traffic arrives.
        for step in range(QUERIES_PER_PRINCIPAL):
            for index in range(PRINCIPALS):
                principal = f"app-{index}"
                query = streams[index][step]
                expected = oracle.submit(principal, query)
                got = service.submit(principal, query)

                assert got.accepted == expected.accepted, (
                    f"step {step}, {principal}: service "
                    f"{'accepted' if got.accepted else 'refused'} but monitor "
                    f"{'accepted' if expected.accepted else 'refused'} {query}"
                )
                assert _packed_shape(service, got.label) == _label_shape(
                    expected.label
                ), f"step {step}, {principal}: labels diverge on {query}"
                assert (
                    service.live_partitions(principal)
                    == oracle.live_partitions(principal)
                ), f"step {step}, {principal}: live-partition state diverged"
                total += 1
                accepted += got.accepted
                refused += not got.accepted

        assert total >= 1_000
        # The workload must actually exercise both verdicts.
        assert accepted > 0 and refused > 0
        # The shared cache saw real reuse across principals and steps.
        stats = service.label_cache.stats()
        assert stats.hits + stats.misses == total
        assert stats.hits > 0

    def test_second_pass_is_all_hits_and_still_identical(self, views, workload):
        policies, streams = workload
        service = DisclosureService(views)
        oracle = ReferenceOracle(views)
        for index, policy in enumerate(policies):
            service.register(f"app-{index}", PartitionPolicy(policy, views))

        # Pass 1 warms the cache.
        for index in range(PRINCIPALS):
            for query in streams[index]:
                service.submit(f"app-{index}", query)

        # Pass 2: reset sessions, replay against fresh monitors; every
        # label now comes from the cache and decisions still agree.
        hits_before = service.label_cache.stats().hits
        for index, policy in enumerate(policies):
            principal = f"app-{index}"
            service.reset(principal)
            oracle.register(principal, PartitionPolicy(policy, views))
            for query in streams[index]:
                expected = oracle.submit(principal, query)
                got = service.submit(principal, query)
                assert got.accepted == expected.accepted
                assert got.cached, f"expected a cache hit for {query}"
        replayed = PRINCIPALS * QUERIES_PER_PRINCIPAL
        assert service.label_cache.stats().hits == hits_before + replayed

    def test_uncached_service_agrees_with_cached_service(self, views, workload):
        policies, streams = workload
        cached = DisclosureService(views)
        uncached = DisclosureService(views, label_cache_size=0)
        for index, policy in enumerate(policies):
            partition_policy = PartitionPolicy(policy, views)
            cached.register(f"app-{index}", partition_policy)
            uncached.register(f"app-{index}", partition_policy)

        for index in range(PRINCIPALS):
            principal = f"app-{index}"
            for query in streams[index]:
                a = cached.submit(principal, query)
                b = uncached.submit(principal, query)
                assert a.accepted == b.accepted
                assert a.label == b.label
        assert uncached.label_cache.stats().hits == 0

    def test_lru_eviction_preserves_session_state(self, views, workload):
        """Demoting and rehydrating sessions must not change decisions."""
        policies, streams = workload
        roomy = DisclosureService(views)
        cramped = DisclosureService(views, max_active_sessions=2)
        for index, policy in enumerate(policies):
            partition_policy = PartitionPolicy(policy, views)
            roomy.register(f"app-{index}", partition_policy)
            cramped.register(f"app-{index}", partition_policy)

        for step in range(50):
            for index in range(PRINCIPALS):
                principal = f"app-{index}"
                query = streams[index][step]
                assert (
                    cramped.submit(principal, query).accepted
                    == roomy.submit(principal, query).accepted
                )
        assert cramped.active_session_count() <= 2
        assert cramped.principal_count() == PRINCIPALS

    def test_peek_matches_would_accept_without_state_change(self, views):
        policy = PartitionPolicy(
            [["user_birthday", "public_profile"], ["user_likes"]], views
        )
        service = DisclosureService(views)
        service.register("app", policy)
        oracle = ReferenceOracle(views)
        oracle.register("app", policy)
        generator = WorkloadGenerator(max_subqueries=1, seed=5)
        for query in generator.stream(100):
            assert service.peek("app", query).accepted == oracle.would_accept(
                "app", query
            )
            # Interleave some submits so live state narrows along the way.
            assert (
                service.submit("app", query).accepted
                == oracle.submit("app", query).accepted
            )
