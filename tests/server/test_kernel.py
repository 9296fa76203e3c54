"""The ID plane and the decision kernel.

Three properties carry the refactor:

* **qid-native equivalence** — decisions made through the kernel's own
  entry points (``decide`` / ``decide_many`` over bare interned ids,
  including label re-derivation from the canonical key with *no query
  object in hand*) are byte-identical to the service's full
  ``submit`` / ``submit_batch`` paths on a twin service, across a
  seeded random multi-principal workload.
* **canonical-key round trips** — :func:`query_from_key` rebuilds a
  representative whose canonical key and disclosure label match the
  original query's, for every shape the workload generator can produce
  (property-tested with hypothesis on top of the seeded sweep).
* **interner round trips** — exported interner tables import back into
  a fresh interner with identical positional ids, and the interned
  snapshot encoding survives a save → load → restore cycle with the
  kernel's cache intact.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import canonical_key, query_from_key
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.policy.policy import PartitionPolicy
from repro.server.interning import LabelInterner, QueryInterner
from repro.server.persist import (
    decode_interned_cache,
    encode_interned_cache,
    load_snapshot,
    restore_service,
    save_snapshot,
    snapshot_service,
)
from repro.server.service import DisclosureService

from reference_oracle import ReferenceOracle, states_of

PRINCIPALS = 10


def _build_pair(views, seed: int):
    reference = DisclosureService(views)
    kernel_side = DisclosureService(views)
    policies = generate_policies(
        views.names, PRINCIPALS, max_partitions=5, max_elements=25, seed=seed
    )
    for index, policy in enumerate(policies):
        reference.register(f"app-{index}", policy)
        kernel_side.register(f"app-{index}", policy)
    return reference, kernel_side


def _traffic(seed: int, count: int):
    generator = WorkloadGenerator(max_subqueries=2, seed=seed)
    queries = list(generator.stream(max(48, count // 8)))
    rng = random.Random(seed * 17 + 3)
    return [
        (f"app-{rng.randrange(PRINCIPALS)}", rng.choice(queries))
        for _ in range(count)
    ]


def _wire(decisions) -> str:
    return json.dumps([d.as_dict() for d in decisions], sort_keys=True)


class TestKernelEquivalence:
    def test_decide_over_bare_qids_matches_submit(self, views):
        """kernel.decide(qid, principal) with no query object — labels
        re-derived from the interned canonical key on every cache miss
        — is byte-identical to the full submit path."""
        reference, kernel_side = _build_pair(views, 1)
        kernel = kernel_side.kernel
        traffic = _traffic(1, 500)

        expected = [reference.submit(p, q) for p, q in traffic]
        got = [kernel.decide(kernel.intern(q), p) for p, q in traffic]
        assert _wire(got) == _wire(expected)
        assert states_of(kernel_side) == states_of(reference)

    def test_decide_without_query_object_still_labels(self, views):
        """A cold cache plus bare qids forces query_from_key labeling."""
        service = DisclosureService(views)
        service.register("app", [["user_birthday", "public_profile"]])
        kernel = service.kernel
        query = service.parse(
            "SELECT birthday FROM user WHERE uid = me()", "fql"
        )
        qid = kernel.intern(query)
        decision = kernel.decide(qid, "app")
        assert decision.accepted
        assert decision.cached is False
        assert decision.label == service.label_for(query)[0]

    def test_decide_many_matches_sequential_submits(self, views):
        reference, kernel_side = _build_pair(views, 2)
        kernel = kernel_side.kernel
        traffic = _traffic(2, 400)
        by_principal: dict = {}
        for principal, query in traffic:
            by_principal.setdefault(principal, []).append(query)

        for principal, queries in by_principal.items():
            expected = [reference.submit(principal, q) for q in queries]
            got = kernel.decide_many(
                [kernel.intern(q) for q in queries], principal, queries=queries
            )
            assert _wire(got) == _wire(expected)

    def test_peek_semantics_allocate_nothing(self, views):
        service = DisclosureService(views, default_policy=[["public_profile"]])
        kernel = service.kernel
        query = service.parse("SELECT name FROM user WHERE uid = me()", "fql")
        decision = kernel.decide(kernel.intern(query), "anon", update=False)
        assert decision.accepted
        assert service.principal_count() == 0

    def test_single_and_batch_share_every_memo(self, views):
        """One pipeline: after a submit_batch, the single path hits the
        same session memos (and vice versa) — there is no per-path
        memo state left to diverge."""
        reference, kernel_side = _build_pair(views, 3)
        traffic = _traffic(3, 300)
        expected = []
        got = []
        for start in range(0, len(traffic), 60):
            chunk = traffic[start : start + 60]
            expected.extend(reference.submit(p, q) for p, q in chunk)
            if (start // 60) % 2:
                got.extend(kernel_side.submit_batch(chunk))
            else:
                got.extend(kernel_side.submit(p, q) for p, q in chunk)
        assert _wire(got) == _wire(expected)
        assert states_of(kernel_side) == states_of(reference)

    def test_decide_many_tallies_tenants_like_decide(self, views):
        """decide_many is decide once per qid, per-tenant counts too."""
        looped = DisclosureService(views)
        grouped = DisclosureService(views)
        policy = [["user_birthday", "public_profile"], ["user_likes"]]
        texts = (
            "SELECT birthday FROM user WHERE uid = me()",
            "SELECT music FROM user WHERE uid = me()",
        )
        for service in (looped, grouped):
            service.register("a", policy)
        queries = [looped.parse(text, "fql") for text in texts]
        # Birthday commits "a" to partition 0; music is then refused.
        stream = [0, 0, 1, 0, 1]
        for index in stream:
            looped.kernel.decide(0, "a", query=queries[index])
        kernel = grouped.kernel
        kernel.decide(kernel.intern(queries[0]), "a")
        kernel.decide_many(
            [kernel.intern(queries[i]) for i in stream[1:]], "a"
        )
        assert _tenant_counts(grouped) == _tenant_counts(looped)
        assert _tenant_counts(looped) == {
            "repro_tenant_decisions_total": {"a": 5},
            "repro_tenant_refused_total": {"a": 2},
        }


TENANT_VECTORS = ("repro_tenant_decisions_total", "repro_tenant_refused_total")


def _tenant_counts(service):
    """The per-tenant counter vectors after a scrape (which drains)."""
    return {
        vector["name"]: {
            row["labels"]["tenant"]: row["value"] for row in vector["series"]
        }
        for vector in service.metrics_snapshot()["registry"]["vectors"]
        if vector["name"] in TENANT_VECTORS
    }


#: The default policy of the sampling property's anonymous peeks.
DEFAULT_POLICY = [["public_profile"], ["user_likes"]]

#: One operation of a mixed stream: (verb, principal index, argument).
#: Principal index 3 is an unregistered, default-policy principal (peek
#: only); for "register" the argument picks one of two policies.
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["submit", "submit", "peek", "register"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=39),
    ),
    max_size=60,
)


class TestSampledSingleDecisions:
    """A stage-sampled single decision runs as a group of one through
    decide_group; an unsampled one runs decide's inline step.  The two
    must be indistinguishable from outside."""

    @pytest.fixture(scope="class")
    def pools(self, views):
        queries = list(WorkloadGenerator(max_subqueries=2, seed=21).stream(40))
        policies = generate_policies(
            views.names, 6, max_partitions=4, max_elements=25, seed=21
        )
        return queries, policies

    @given(operations=_OPERATIONS)
    @settings(max_examples=40, deadline=None)
    def test_every_decision_matches_the_unsampled_path(
        self, views, pools, operations
    ):
        queries, policies = pools
        sampled = DisclosureService(
            views, default_policy=DEFAULT_POLICY, stage_sample_rate=1
        )
        unsampled = DisclosureService(
            views, default_policy=DEFAULT_POLICY, stage_sample_rate=0
        )
        oracle = ReferenceOracle(views)
        principals = ["app-0", "app-1", "app-2", "anon"]

        def register(principal, policy):
            for service in (sampled, unsampled):
                service.register(principal, policy)
            oracle.register(principal, PartitionPolicy(policy, views))

        for index in range(3):
            register(principals[index], policies[index])
        oracle.register("anon", PartitionPolicy(DEFAULT_POLICY, views))
        for verb, who, argument in operations:
            principal = principals[who]
            if verb == "register":
                if principal != "anon":
                    register(principal, policies[who + 3 * (argument % 2)])
                continue
            if principal == "anon":
                verb = "peek"  # never allocate the anonymous session
            query = queries[argument]
            got = getattr(sampled, verb)(principal, query)
            want = getattr(unsampled, verb)(principal, query)
            expected = getattr(oracle, verb)(principal, query)
            assert got.as_dict() == want.as_dict()
            assert got.label == want.label
            assert got.accepted == expected.accepted
            assert got.live_after == (
                oracle.live_bits(principal) if verb == "submit"
                else got.live_before
            )
        assert states_of(sampled) == states_of(unsampled)
        assert _tenant_counts(sampled) == _tenant_counts(unsampled)
        if any(verb != "register" for verb, _, _ in operations):
            counts = _stage_counts(sampled)
            for stage in ("canonicalize", "label", "mask", "outcome"):
                assert counts.get(stage), (stage, counts)


def _stage_counts(service):
    """Samples per kernel stage in ``repro_kernel_stage_seconds``."""
    for vector in service.metrics_snapshot()["registry"]["vectors"]:
        if vector["name"] == "repro_kernel_stage_seconds":
            return {
                row["labels"]["stage"]: row["histogram"]["count"]
                for row in vector["series"]
            }
    return {}


class TestPlaneRotation:
    """The shape cap bounds interner memory without changing decisions."""

    def _distinct_shape_traffic(self, service, count):
        """Queries with distinct constants — each a new canonical shape."""
        return [
            service.parse(f"Q(n) :- User2(u, n), Likes2(u, {i})", "datalog")
            for i in range(count)
        ]

    def test_rotation_caps_interner_growth(self, views):
        service = DisclosureService(views)
        service.register("app", [["public_profile"], ["user_likes"]])
        kernel = service.kernel
        kernel.max_interned_shapes = 16
        queries = self._distinct_shape_traffic(service, 100)
        for query in queries:
            service.submit("app", query)
        assert len(kernel.queries) <= 16
        assert kernel.stats()["plane_epoch"] > 0

    def test_decisions_identical_across_rotations(self, views):
        capped = DisclosureService(views)
        roomy = DisclosureService(views)
        for service in (capped, roomy):
            service.register(
                "app", [["user_birthday", "public_profile"], ["user_likes"]]
            )
        capped.kernel.max_interned_shapes = 8
        flood = self._distinct_shape_traffic(capped, 40)
        birthday = capped.parse(
            "SELECT birthday FROM user WHERE uid = me()", "fql"
        )
        likes = capped.parse("SELECT music FROM user WHERE uid = me()", "fql")
        stream = []
        for index, query in enumerate(flood):
            stream.append(query)
            if index % 5 == 0:
                stream.extend([birthday, likes])
        got = [capped.submit("app", q).as_dict() for q in stream]
        expected = [roomy.submit("app", q).as_dict() for q in stream]
        # cached flags legitimately differ (rotation empties the cache),
        # but verdict, reason, and live-bit evolution must not.
        for g, e in zip(got, expected):
            g.pop("cached")
            e.pop("cached")
        assert got == expected
        # The Chinese-Wall commitment survived every rotation.
        assert capped.live_partitions("app") == roomy.live_partitions("app")

    def test_rotation_carries_cache_counters(self, views):
        service = DisclosureService(views)
        service.register("app", [["public_profile"]])
        kernel = service.kernel
        kernel.max_interned_shapes = 8
        queries = self._distinct_shape_traffic(service, 30)
        lookups = 0
        for query in queries:
            service.submit("app", query)
            lookups += 1
            stats = service.label_cache.stats()
            assert stats.hits + stats.misses == lookups  # monotonic
        assert kernel.stats()["plane_epoch"] >= 3

    def test_decide_with_a_query_rotates_at_the_cap(self, views):
        """decide(qid, query=q) interns on the cap-respecting plane,
        exactly like decide_query."""
        epochs = []
        for form in ("decide", "decide_query"):
            service = DisclosureService(views)
            service.register("a", [["public_profile"], ["user_likes"]])
            kernel = service.kernel
            kernel.max_interned_shapes = 3
            for query in self._distinct_shape_traffic(service, 7):
                if form == "decide":
                    kernel.decide(0, "a", query=query)
                else:
                    kernel.decide_query(query, "a")
            assert len(kernel.queries) <= 3, form
            epochs.append(kernel.plane_epoch)
        assert epochs == [2, 2]

    def test_batch_path_rotates_too(self, views):
        """The cap is checked once per resolution pass, so one batch may
        overshoot by at most its own item count (≤ MAX_BATCH) — the next
        pass rotates."""
        service = DisclosureService(views)
        service.register("app", [["public_profile"], ["user_likes"]])
        kernel = service.kernel
        kernel.max_interned_shapes = 8
        queries = self._distinct_shape_traffic(service, 60)
        for start in (0, 30):
            chunk = [("app", q) for q in queries[start : start + 30]]
            assert len(service.submit_batch(chunk)) == 30
        assert kernel.stats()["plane_epoch"] > 0
        assert len(kernel.queries) <= 30


class TestCanonicalRoundTrip:
    def test_workload_queries_round_trip(self, views):
        generator = WorkloadGenerator(max_subqueries=3, seed=9)
        service = DisclosureService(views)
        for query in generator.stream(200):
            key = canonical_key(query)
            rebuilt = query_from_key(key)
            assert canonical_key(rebuilt) == key
            # Labeling is renaming-invariant: the representative labels
            # identically to the original.
            assert service.labeler.label_query(
                rebuilt
            ) == service.labeler.label_query(query)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_generator_seeds_round_trip(self, seed):
        generator = WorkloadGenerator(max_subqueries=3, seed=seed)
        for query in generator.stream(5):
            key = canonical_key(query)
            assert canonical_key(query_from_key(key)) == key


class TestInternerRoundTrip:
    def test_query_interner_positional_export_import(self, views):
        generator = WorkloadGenerator(max_subqueries=2, seed=4)
        interner = QueryInterner()
        queries = list(generator.stream(64))
        qids = [interner.intern(q) for q in queries]
        assert sorted(set(qids)) == list(range(len(interner)))

        fresh = QueryInterner()
        mapping = fresh.import_keys(interner.export_keys())
        # A fresh interner reproduces the exporter's id space exactly.
        assert mapping == list(range(len(interner)))
        for query, qid in zip(queries, qids):
            assert fresh.intern_key(canonical_key(query)) == qid
            assert fresh.key_of(qid) == interner.key_of(qid)

    def test_query_interner_translation_when_warm(self):
        exporter = QueryInterner()
        importer = QueryInterner()
        keys = [((0,), (("R", (0,)),)), ((0,), (("S", (0, 1)),))]
        for key in keys:
            exporter.intern_key(key)
        importer.intern_key(keys[1])  # importer saw S first
        mapping = importer.import_keys(exporter.export_keys())
        assert mapping == [1, 0]  # exporter ids translate, not collide

    def test_label_interner_round_trip(self):
        interner = LabelInterner()
        labels = [(3, 7), (1,), (3, 7), (2, 5, 9)]
        lids = [interner.intern(label) for label in labels]
        assert lids == [0, 1, 0, 2]
        fresh = LabelInterner()
        assert fresh.import_labels(interner.export_labels()) == [0, 1, 2]
        assert fresh.label_of(2) == (2, 5, 9)

    def test_interned_cache_encoding_round_trip(self, views):
        service = DisclosureService(views)
        service.register("app", [["public_profile"], ["user_likes"]])
        generator = WorkloadGenerator(max_subqueries=1, seed=5)
        for query in generator.stream(80):
            service.submit("app", query)
        entries = service.export_label_cache()
        encoded = json.loads(json.dumps(encode_interned_cache(entries)))
        assert decode_interned_cache(encoded) == entries

    def test_snapshot_restart_preserves_the_id_plane(self, views, tmp_path):
        """snapshot → save → load → restore: the restarted kernel's
        cache answers every pre-restart shape without relabeling, and
        continued decisions are byte-identical."""
        reference, _ = _build_pair(views, 6)
        before = _traffic(6, 300)
        for principal, query in before:
            reference.submit(principal, query)

        path = save_snapshot(tmp_path / "snap.json", snapshot_service(reference))
        restarted = DisclosureService(views)
        restore_service(restarted, load_snapshot(path)["payload"])

        assert dict(restarted.export_label_cache()) == dict(
            reference.export_label_cache()
        )
        after = _traffic(7, 200)
        got = [restarted.submit(p, q) for p, q in after]
        expected = [reference.submit(p, q) for p, q in after]
        assert _wire(got) == _wire(expected)
        # No labeler run happened on replayed shapes: every label came
        # from the restored qid → lid cache.
        hits_before = restarted.label_cache.stats().hits
        for principal, query in before:
            restarted.peek(principal, query)
        assert (
            restarted.label_cache.stats().hits == hits_before + len(before)
        )