"""Full-stack integration tests: workload → label → policy → SQLite.

These exercise the complete Figure 2 pipeline at moderate scale and
cross-validate the independent implementations against each other:

* symbolic monitor vs integer fast-path checker on identical streams;
* SQL execution vs the reference evaluator on permitted queries;
* all three labeler variants on the full Section 7.2 workload;
* the monitor pool across many principals.
"""

import hashlib
import random

import pytest

from repro.facebook.permissions import facebook_security_views
from repro.facebook.schema import facebook_schema
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.labeling.bitvector import BitVectorRegistry
from repro.labeling.cq_labeler import ConjunctiveQueryLabeler
from repro.labeling.pipeline import (
    TOP,
    BaselineLabeler,
    BitVectorLabeler,
    HashPartitionedLabeler,
)
from repro.order.disclosure_order import RewritingOrder
from repro.policy.checker import PolicyChecker
from repro.policy.policy import PartitionPolicy
from repro.policy.principals import MonitorPool


@pytest.fixture(scope="module")
def platform():
    schema = facebook_schema()
    views = facebook_security_views(schema)
    return schema, views


#: SHA-256 over ``repr`` of the packed labels of the perf ledger's 256
#: shapes (``POPULATION_SEED`` 0) per ``max_subqueries``, recorded from
#: commit cb52710 — the labeler that searched for every folding.  The
#: ``cold-label`` workload labels the ``max_subqueries=2`` shapes.
LEDGER_LABEL_DIGESTS = {
    1: "916698768ad33d9c56d203945e291c2d8811e2a5e32a77bc0b2456771d1da892",
    2: "9d645e1a93b6ca04c298aeebe2dbd50386ba312b03ad058a59646b3d1837f101",
    3: "785ee6267ef635f77a6c63986c70e085a1ce25150a4906ed3c9c0eb5d13ce911",
}


class TestLabelerVariantsOnWorkload:
    """All labeler variants agree across a real 200-query workload."""

    def check_agreement(self, platform, queries):
        """Packed ↔ decoded name sets ↔ ``ℓ+`` determiners ↔ GLB view sets;
        returns the digest of the packed labels."""
        _, views = platform
        baseline = BaselineLabeler(views)
        hashed = HashPartitionedLabeler(views)
        bits = BitVectorLabeler(views)
        reference = ConjunctiveQueryLabeler(views)
        order = RewritingOrder()
        digest = hashlib.sha256()

        for query in queries:
            symbolic = baseline.label_query(query)
            assert symbolic == hashed.label_query(query)

            ref_label = reference.label(query)
            packed = bits.label_query(query)
            digest.update(repr(packed).encode())
            decoded = bits.decode(packed)
            expected = tuple(
                sorted((a.determiners for a in ref_label), key=sorted)
            )
            assert decoded == expected

            if symbolic is TOP:
                assert ref_label.is_top
            else:
                assert not ref_label.is_top
                reconstructed = reference.label_views(ref_label)
                assert order.equivalent(symbolic, reconstructed)
        return digest.hexdigest()

    def test_agreement(self, platform):
        generator = WorkloadGenerator(platform[0], max_subqueries=3, seed=99)
        self.check_agreement(platform, generator.stream(200))

    def test_agreement_and_pinned_labels_on_the_ledger_shapes(self, platform):
        for max_subqueries, recorded in LEDGER_LABEL_DIGESTS.items():
            generator = WorkloadGenerator(max_subqueries=max_subqueries, seed=0)
            assert self.check_agreement(platform, generator.stream(256)) == recorded


class TestMonitorVsCheckerStreams:
    """The symbolic and integer policy paths agree on random streams."""

    def test_agreement(self, platform):
        _, views = platform
        registry = BitVectorRegistry(views)
        labeler = BitVectorLabeler(views)
        rng = random.Random(5)

        policies = generate_policies(views.names, 10, 3, 12, seed=2)
        generator = WorkloadGenerator(max_subqueries=2, seed=17)
        queries = list(generator.stream(150))

        for partitions in policies:
            policy = PartitionPolicy(partitions, views)
            pool = MonitorPool(views)
            pool.register("app", policy)
            checker = PolicyChecker(registry)
            principal = checker.add_principal(policy)
            for query in rng.sample(queries, 30):
                slow = pool.submit("app", query).accepted
                fast = checker.check(principal, labeler.label_query(query))
                assert slow == fast, (partitions, str(query))


class TestSqlExecutionUnderPolicy:
    def test_permitted_queries_match_reference_evaluator(self, platform):
        from repro.storage.database import seed_facebook
        from repro.storage.enforcement import EnforcedConnection
        from repro.storage.evaluator import evaluate_query

        schema, views = platform
        db = seed_facebook(users=20, seed=21)
        instance = db.instance()
        policy = PartitionPolicy.stateless(list(views.names), views)
        conn = EnforcedConnection(db, views, policy)

        generator = WorkloadGenerator(schema, max_subqueries=1, seed=4)
        answered = 0
        for query in generator.stream(60):
            result = conn.try_execute(query)
            if result is None:
                continue
            answered += 1
            assert result.rows == evaluate_query(query, instance)
        assert answered > 5  # the all-grants policy answers plenty


class TestManyPrincipals:
    def test_pool_of_fifty_apps(self, platform):
        _, views = platform
        pool = MonitorPool(views)
        policies = generate_policies(views.names, 50, 2, 10, seed=8)
        for index, partitions in enumerate(policies):
            pool.register(f"app{index}", PartitionPolicy(partitions, views))
        assert len(pool) == 50

        generator = WorkloadGenerator(max_subqueries=1, seed=31)
        queries = list(generator.stream(40))
        rng = random.Random(0)
        decisions = 0
        for query in queries:
            principal = f"app{rng.randrange(50)}"
            pool.submit(principal, query)
            decisions += 1
        assert decisions == 40
        # live vectors never become empty (refusals don't burn state)
        for index in range(50):
            assert any(pool.live_partitions(f"app{index}"))


class TestCumulativeDisclosureInvariant:
    """The §6.2 invariant: everything answered so far stays below some
    partition — re-checked from the raw decision history."""

    def test_invariant_holds_under_stream(self, platform):
        _, views = platform
        labeler = ConjunctiveQueryLabeler(views)
        policy_lists = generate_policies(views.names, 5, 3, 8, seed=14)
        generator = WorkloadGenerator(max_subqueries=2, seed=77)
        queries = list(generator.stream(80))

        for partitions in policy_lists:
            policy = PartitionPolicy(partitions, views)
            from repro.policy.monitor import ReferenceMonitor

            monitor = ReferenceMonitor(labeler, policy)
            answered = []
            for query in queries[:40]:
                if monitor.submit(query).accepted:
                    answered.append(query)
            if not answered:
                continue
            labels = [labeler.label(q) for q in answered]
            combined = labels[0]
            for label in labels[1:]:
                combined = combined.union(label)
            assert any(
                combined.satisfied_by(partition)
                for partition in policy.partitions
            )
