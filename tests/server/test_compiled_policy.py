"""Shared compiled policies: one memo plane per policy, many sessions.

Every session registered with a policy binds to that policy's one
:class:`~repro.server.kernel.CompiledPolicy` — grants, the lid → mask
memo, the (lid, live) → outcome memo, and the plane-epoch stamp that
says which plane their keys mean.  Sharing is only sound if no sequence
of submits, peeks, resets, re-registrations, unregistrations,
demotions, faults, plane rotations, snapshot cuts and restarts can
make one session read what another wrote under a different plane or
policy.  The state machine below drives M
registered principals over K < M policies, plus anonymous principals
under a default policy, through all of those and holds every decision
— verdict, reason, live bits before and after — and every restart
equal to the shared reference oracle (``reference_oracle.py``: one
plain :class:`~repro.policy.monitor.ReferenceMonitor` per principal,
sharing nothing), on both session stores.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.facebook.permissions import facebook_security_views
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.policy.policy import PartitionPolicy
from repro.server.batch import decide_wire_items
from repro.server.persist import SnapshotChain, collect_state, restore_collected
from repro.server.service import DisclosureService
from repro.server.store import InMemoryStore, SpillStore

from reference_oracle import ReferenceOracle

VIEWS = facebook_security_views()
#: K = 3 policies for M = 6 principals: every policy is shared.
POLICIES = [
    PartitionPolicy(policy, VIEWS)
    for policy in generate_policies(
        VIEWS.names, 3, max_partitions=4, max_elements=20, seed=5
    )
]
PRINCIPALS = [f"app-{index}" for index in range(6)]
#: Never registered up front: decided under the default policy.
ANONYMOUS = ["anon-0", "anon-1"]
DEFAULT_POLICY = POLICIES[0]
QUERIES = list(WorkloadGenerator(max_subqueries=1, seed=7).stream(12))

principals = st.sampled_from(PRINCIPALS + ANONYMOUS)
queries = st.sampled_from(QUERIES)
policy_indices = st.integers(0, len(POLICIES) - 1)


class SharedPlaneMachine(RuleBasedStateMachine):
    """Service vs. independent reference monitors, step by step."""

    spill = False

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-shared-")
        self.state_dir = os.path.join(self.root, "state")
        self.spill_dir = os.path.join(self.root, "spill-0")
        self.restarts = 0
        self.oracle = ReferenceOracle(VIEWS, DEFAULT_POLICY)
        #: The explicitly registered principals; every other one is
        #: anonymous (decided under the default policy).
        self.registered = set()
        self.service = self._open()

    def _open(self) -> DisclosureService:
        # Three resident slots for eight principals: most touches fault.
        # A low compaction threshold: the log is rewritten, and the
        # remembered offsets dropped, a few times per run.
        store = (
            SpillStore(self.spill_dir, max_resident=3, compact_min_dead=6)
            if self.spill
            else InMemoryStore(3)
        )
        service = DisclosureService(
            VIEWS, session_store=store, default_policy=DEFAULT_POLICY
        )
        # Three shapes per plane generation: rotations every few steps.
        service.kernel.max_interned_shapes = 3
        # A new process is a new writer: its first cut is a full base.
        self.chain = SnapshotChain(service, self.state_dir, compact_every=3)
        return service

    def _check_durable(self):
        """The durable state agrees with the oracle: every principal
        the service stores, with its ephemeral flag, and the fresh
        default for every other."""
        sessions = self.service.export_state()["sessions"]
        fresh = (1 << len(DEFAULT_POLICY)) - 1
        everyone = PRINCIPALS + ANONYMOUS
        assert {
            principal: sessions[principal][1] if principal in sessions else fresh
            for principal in everyone
        } == {principal: self.oracle.live_bits(principal) for principal in everyone}
        assert {
            principal: len(entry) == 3 for principal, entry in sessions.items()
        } == {principal: principal not in self.registered for principal in sessions}

    @invariant()
    def population(self):
        """After every step, ``restart`` included: the service stores
        exactly the registered principals plus the anonymous ones not
        at full live.  A fresh anonymous session may sit in the
        resident tier (it decided, or was reset, while resident); the
        cold tier never holds one, so those are counted apart and
        leave with their eviction."""
        fresh = (1 << len(DEFAULT_POLICY)) - 1
        expected = len(self.registered) + sum(
            1
            for principal in PRINCIPALS + ANONYMOUS
            if principal not in self.registered
            and self.oracle.live_bits(principal) != fresh
        )
        with self.service._lock:
            transient = sum(
                1
                for session in self.service.store.resident_sessions()
                if session.ephemeral and session.live == session.all_live
            )
        assert self.service.principal_count() - transient == expected

    def teardown(self):
        # Whatever path each session took, the durable state agrees.
        self._check_durable()
        self.service.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @initialize()
    def register_everyone(self):
        for index, principal in enumerate(PRINCIPALS):
            self._register(principal, index % len(POLICIES))

    def _register(self, principal, policy_index):
        policy = POLICIES[policy_index]
        self.service.register(principal, policy)
        self.oracle.register(principal, policy)
        self.registered.add(principal)

    def _check(self, decision, principal, query, update):
        before = self.oracle.live_bits(principal)
        expected = (self.oracle.submit if update else self.oracle.peek)(
            principal, query
        )
        after = self.oracle.live_bits(principal)
        assert update or after == before
        assert (
            decision.accepted,
            decision.reason,
            decision.live_before,
            decision.live_after,
        ) == (expected.accepted, expected.reason, before, after)

    @rule(principal=principals, query=queries)
    def submit(self, principal, query):
        self._check(self.service.submit(principal, query), principal, query, True)

    @rule(principal=principals, query=queries)
    def peek(self, principal, query):
        self._check(self.service.peek(principal, query), principal, query, False)

    @rule(items=st.lists(st.tuples(principals, queries), min_size=1, max_size=6))
    def submit_batch(self, items):
        for decision, (principal, query) in zip(
            self.service.submit_batch(items), items
        ):
            self._check(decision, principal, query, True)

    @rule(principal=principals)
    def reset(self, principal):
        self.service.reset(principal)
        self.oracle.reset(principal)

    @rule(principal=principals, policy_index=policy_indices)
    def reregister(self, principal, policy_index):
        self._register(principal, policy_index)

    @rule(principal=principals)
    def unregister(self, principal):
        self.service.unregister(principal)
        self.oracle.unregister(principal)
        self.registered.discard(principal)

    @rule()
    def cut(self):
        self.chain.save_changed()

    @rule()
    def restart(self):
        """Cut, then start over from the state directory alone: the
        replayed chain, restored into a fresh service, is the oracle's
        state, and decisions go on from it."""
        self.chain.save_changed()
        collected = collect_state(self.state_dir)
        self.service.close()
        self.restarts += 1
        self.spill_dir = os.path.join(self.root, f"spill-{self.restarts}")
        self.service = self._open()
        restore_collected(self.service, collected)
        self._check_durable()

    @rule(principal=principals)
    def demote(self, principal):
        with self.service._lock:
            self.service.store.demote(principal)

    @rule(principal=principals)
    def fault(self, principal):
        with self.service._lock:
            session = self.service._session(principal)
        assert session.live == self.oracle.live_bits(principal)

    @rule(
        first=principals,
        second=principals,
        query=queries,
        others=st.lists(queries, min_size=3, max_size=6),
    )
    def race_a_rotation(self, first, second, query, others):
        """*first* captures a plane, *second* decides past a rotation or
        two and refills whatever memos they share, then *first*'s
        decision lands — still computed on the plane it captured."""
        self.peek(first, query)
        captured = self.service.kernel.plane
        for other in others:
            self.peek(second, other)
        (decision,) = decide_wire_items(
            self.service, [(first, query, None)], update=True, plane=captured
        )
        self._check(decision, first, query, True)


class SpillSharedPlaneMachine(SharedPlaneMachine):
    spill = True


_settings = settings(max_examples=40, stateful_step_count=40, deadline=None)
TestSharedPlaneInMemory = SharedPlaneMachine.TestCase
TestSharedPlaneInMemory.settings = _settings
TestSharedPlaneSpill = SpillSharedPlaneMachine.TestCase
TestSharedPlaneSpill.settings = _settings


# ----------------------------------------------------------------------
# The rotation rule, pinned: the stamp travels with the shared memos
# ----------------------------------------------------------------------
def _distinguishing_queries():
    """Two shapes the first policy answers under different partitions."""
    kernel = DisclosureService(VIEWS).kernel
    policy = kernel.compile_policy(
        tuple(tuple(sorted(p)) for p in POLICIES[0].partitions)
    )
    masks = {}
    for query in WorkloadGenerator(max_subqueries=1, seed=7).stream(200):
        label, _ = kernel.label_for(query)
        mask = kernel.registry.satisfying_partitions_mask(label, policy.grants)
        masks.setdefault(mask, query)
        if len(masks) > 1:
            return list(masks.values())[:2]
    raise AssertionError("workload has no two shapes with different masks")


def test_a_stale_plane_decision_never_reads_newer_plane_memos():
    """Sessions A and B share a policy.  A decides shape 1 on plane 0
    (lid 0 means shape 1).  The plane rotates; B decides shape 2 on
    plane 1 (lid 0 now means shape 2) and refills the shared memos.  A
    decision for A that captured plane 0 must bypass them — a stamp
    kept per session would still say "plane 0" for A and read shape
    2's mask for shape 1."""
    first, second = _distinguishing_queries()
    service = DisclosureService(VIEWS)
    service.kernel.max_interned_shapes = 1
    for principal in ("a", "b"):
        service.register(principal, POLICIES[0])
    oracle = ReferenceOracle(VIEWS)
    oracle.register("a", POLICIES[0])

    plane0 = service.kernel.plane
    assert service.peek("a", first).accepted == oracle.would_accept("a", first)
    service.peek("b", second)  # one shape per plane: this rotates
    assert service.kernel.plane is not plane0
    assert service.store.peek("a").policy is service.store.peek("b").policy

    (decision,) = decide_wire_items(
        service, [("a", first, None)], update=True, plane=plane0
    )
    expected = oracle.submit("a", first)
    assert (decision.accepted, decision.reason) == (
        expected.accepted,
        expected.reason,
    )
    assert decision.live_after == oracle.live_bits("a")


# ----------------------------------------------------------------------
# Binding, not recompiling
# ----------------------------------------------------------------------
def test_sessions_of_one_policy_share_one_compiled_policy():
    service = DisclosureService(VIEWS, max_active_sessions=len(PRINCIPALS))
    for index, principal in enumerate(PRINCIPALS):
        service.register(principal, POLICIES[index % len(POLICIES)])
    assert service.kernel.stats()["compiled_policies"] == 0  # nothing resident
    for principal in PRINCIPALS:
        service.submit(principal, QUERIES[0])
    assert service.kernel.stats()["compiled_policies"] == len(POLICIES)
    sessions = [service.store.peek(principal) for principal in PRINCIPALS]
    for index, session in enumerate(sessions):
        assert session.policy is sessions[index % len(POLICIES)].policy
    # Re-registering with another policy re-binds on next touch.
    service.register(PRINCIPALS[0], POLICIES[1])
    service.submit(PRINCIPALS[0], QUERIES[0])
    assert service.store.peek(PRINCIPALS[0]).policy is sessions[1].policy
    assert service.metrics_snapshot()["kernel"]["compiled_policies"] == len(POLICIES)


def test_the_table_is_bounded_by_the_resident_tier():
    service = DisclosureService(VIEWS, max_active_sessions=1)
    for index, principal in enumerate(PRINCIPALS):
        service.register(principal, POLICIES[index % len(POLICIES)])
    for principal in PRINCIPALS:
        service.submit(principal, QUERIES[0])
        # One resident session: one policy referenced, one entry.
        assert service.kernel.stats()["compiled_policies"] == 1


def test_default_policy_peeks_bind_to_one_compiled_policy():
    service = DisclosureService(VIEWS, default_policy=POLICIES[0])
    assert service.kernel.stats()["compiled_policies"] == 1
    with service._lock:
        first = service._peek_session("anon-1")
        second = service._peek_session("anon-2")
    assert first.policy is second.policy is service._default_compiled
    service.submit("anon-3", QUERIES[0])
    assert service.store.peek("anon-3").policy is first.policy
    assert service.kernel.stats()["compiled_policies"] == 1


# ----------------------------------------------------------------------
# Dirty only when narrowed
# ----------------------------------------------------------------------
def _accepted_twice(service, principal):
    """A shape the principal's policy answers (so repeats never narrow)."""
    for query in QUERIES:
        if service.submit(principal, query).accepted:
            return query
    raise AssertionError("no accepted shape in the pool")


def test_non_narrowing_submits_leave_the_delta_empty():
    service = DisclosureService(VIEWS)
    service.register("a", POLICIES[0])
    query = _accepted_twice(service, "a")
    service.export_generation(full=True)
    for _ in range(25):
        decision = service.submit("a", query)
        assert decision.accepted and decision.live_after == decision.live_before
    service.peek("a", query)
    service.submit_batch([("a", query)] * 10)
    assert service.dirty_count() == 0
    state, removed, _ = service.export_generation()
    assert state["sessions"] == {} and removed == []


def test_a_narrowing_submit_still_lands_in_the_delta():
    service = DisclosureService(VIEWS)
    policy = next(p for p in POLICIES if len(p) > 1)
    service.register("a", policy)
    service.register("b", policy)
    service.export_generation(full=True)
    narrowing = None
    for query in QUERIES:
        decision = service.submit("a", query)
        if decision.live_after != decision.live_before:
            narrowing = query
            break
    assert narrowing is not None, "pool has no narrowing shape for the policy"
    service.submit_batch([("b", narrowing)])
    state, _, drained = service.export_generation()
    assert drained == {"a", "b"} and set(state["sessions"]) == {"a", "b"}


def test_clean_evictions_surface_in_metrics(tmp_path):
    service = DisclosureService(VIEWS, max_active_sessions=1, spill_dir=tmp_path)
    for principal in PRINCIPALS[:3]:
        service.register(principal, POLICIES[0])
    for _ in range(3):
        for principal in PRINCIPALS[:3]:
            service.peek(principal, QUERIES[0])  # faults in, changes nothing
    sessions = service.metrics_snapshot()["sessions"]
    assert sessions["evictions"] == 8
    assert sessions["clean_evictions"] == 8
    assert service.store.clean_eviction_count == 8
    service.close()
    assert DisclosureService(VIEWS).metrics_snapshot()["sessions"]["clean_evictions"] == 0
