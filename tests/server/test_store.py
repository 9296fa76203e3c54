"""The session memory tier (:mod:`repro.server.store`).

Three properties carry the subsystem:

* **API contract** — ``InMemoryStore`` and ``SpillStore`` implement the
  same :class:`SessionStore` protocol with identical observable
  semantics (LRU residency, demote-on-eviction, fresh-ephemeral drop
  on every cold write, discards), and a *custom* store plugged in via
  ``DisclosureService(session_store=...)`` drives the full service.
* **Spill round-trip** — any session state survives spill → fault
  byte-for-byte, read back from the log on disk (checked on randomized
  states by hypothesis), and a service running on the spill tier makes
  byte-identical decisions to an in-memory one — before and after a
  restart from the snapshot chain into the same, cleared, spill
  directory.  The log itself is scratch: a store opened on an old one
  starts empty.
* **Bounded residency** — a zipfian principal population far larger
  than ``max_resident`` runs entirely through the service while the
  resident tier never exceeds its cap; the population lives in the
  spill log, faulting back on touch.
"""

from __future__ import annotations

import json
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PolicyError, StoreError
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.server.kernel import CompiledPolicy
from repro.server.persist import SnapshotChain, collect_state, restore_collected
from repro.server.service import DisclosureService, Session
from repro.server.store import (
    InMemoryStore,
    SessionState,
    SpillStore,
    decode_states,
    encode_states,
    state_of,
)

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

PARTS = (("friends_photos", "friends_status"), ("user_birthday",))


def _session(principal, live=0b11, ephemeral=False, partitions=PARTS):
    """A minimal resident session; stores never touch the grant tables."""
    return Session(principal, CompiledPolicy(partitions, ()), live, ephemeral)


def _policies(views, count, seed=3):
    return [
        [list(partition) for partition in policy]
        for policy in generate_policies(
            views.names, count, max_partitions=4, max_elements=20, seed=seed
        )
    ]


def _query_pool(count=40, seed=7):
    return list(WorkloadGenerator(max_subqueries=1, seed=seed).stream(count))


def _strip_cached(decision):
    wire = decision.as_dict()
    wire.pop("cached", None)
    return wire


# ----------------------------------------------------------------------
# SessionState
# ----------------------------------------------------------------------
class TestSessionState:
    def test_is_a_plain_tuple_with_named_fields(self):
        state = SessionState(PARTS, 0b01, True)
        assert state.partitions == PARTS
        assert state.live == 0b01
        assert state.ephemeral is True
        assert tuple(state) == (PARTS, 0b01, True)

    def test_a_fourth_positional_argument_is_ignored(self):
        # The four-field form of an earlier release still constructs.
        assert SessionState(PARTS, 0b01, True, 7) == SessionState(PARTS, 0b01, True)

    def test_state_of_renders_a_resident_session(self):
        state = state_of(_session("app-1", live=0b10))
        assert state == SessionState(PARTS, 0b10, False)


# ----------------------------------------------------------------------
# The in-memory store (the default tier)
# ----------------------------------------------------------------------
class TestInMemoryStore:
    def test_max_resident_must_be_positive(self):
        with pytest.raises(ValueError, match="max_resident"):
            InMemoryStore(0)

    def test_get_touches_lru_order_and_peek_does_not(self):
        store = InMemoryStore(2)
        store.put("a", _session("a"))
        store.put("b", _session("b"))
        store.peek("a")  # no touch: "a" stays oldest
        store.get("a")   # touch: "a" is now newest
        store.put("c", _session("c"))  # evicts "b", the LRU
        assert store.peek("a") is not None
        assert store.peek("b") is None
        assert "b" in store  # demoted, not lost
        assert store.eviction_count == 1

    def test_eviction_demotes_to_the_cold_tier(self):
        store = InMemoryStore(1)
        store.put("a", _session("a", live=0b01))
        store.put("b", _session("b"))
        assert store.cold_count() == 1
        assert store.fault("a") == SessionState(PARTS, 0b01, False)
        assert store.fault_count == 1
        assert "a" not in store  # fault pops

    def test_fresh_ephemeral_sessions_are_dropped_not_stored(self):
        store = InMemoryStore(1)
        fresh = _session("a", ephemeral=True)
        fresh.live = fresh.all_live
        store.put("a", fresh)
        store.put("b", _session("b"))
        # "a" rebuilds identically from the default policy: no cold copy.
        assert "a" not in store
        # A *touched* ephemeral session is durable state and must spill.
        touched = _session("c", ephemeral=True, live=0b01)
        store.put("c", touched)
        store.put("d", _session("d"))
        assert "c" in store

    def test_on_demote_fires_before_every_resident_exit(self):
        drained = []
        store = InMemoryStore(1)
        store.on_demote = lambda session: drained.append(session.principal)
        store.put("a", _session("a"))
        store.put("b", _session("b"))      # eviction of "a"
        store.demote("b")                   # explicit demote
        store.put("c", _session("c"))
        store.discard("c")                  # discard of a resident
        assert drained == ["a", "b", "c"]

    def test_iter_states_spans_both_tiers(self):
        store = InMemoryStore(1)
        store.put("a", _session("a", live=0b01))
        store.put("b", _session("b", live=0b10))  # "a" is now cold
        states = dict(store.iter_states())
        assert set(states) == {"a", "b"}
        assert states["a"].live == 0b01
        assert states["b"].live == 0b10

    def test_read_state_reads_either_tier_and_changes_nothing(self):
        store = InMemoryStore(1)
        store.put("a", _session("a", live=0b01))
        store.put("b", _session("b", live=0b10))  # "a" is now cold
        assert store.read_state("a") == SessionState(PARTS, 0b01, False)
        assert store.read_state("b") == SessionState(PARTS, 0b10, False)
        assert store.read_state("nobody") is None
        assert store.cold_count() == 1 and store.fault_count == 0

    def test_the_encoder_rejects_non_string_principals(self):
        store = InMemoryStore(4)
        store.put(42, _session(42))
        with pytest.raises(PolicyError, match="not a string"):
            encode_states(store.iter_states())


# ----------------------------------------------------------------------
# The spill store (the disk tier)
# ----------------------------------------------------------------------
class TestSpillStore:
    def test_spill_then_fault_round_trips_exactly(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        state = SessionState(PARTS, 0b10, True)
        store.put_state("app-1", state)
        assert store.fault("app-1") == state
        assert store.fault("app-1") is None  # fault pops
        store.close()

    @pytest.mark.parametrize(
        "tail",
        [
            b"",
            b'["S","b",0,3',
            b"\x00garbage\n",
            b'["D","a"]\n',
            b'["S","a",0,1,0,7]\n',
        ],
        ids=["intact", "torn", "corrupt", "tombstone", "six-field"],
    )
    def test_an_existing_log_is_cleared_at_open(self, tmp_path, tail):
        """The log is scratch: whatever an earlier process left in the
        directory, a store opened on it starts empty."""
        store = SpillStore(tmp_path, max_resident=4)
        store.put_state("a", SessionState(PARTS, 0b01, False))
        store.close()
        log = tmp_path / "sessions.log"
        log.write_bytes(log.read_bytes() + tail)

        reopened = SpillStore(tmp_path, max_resident=4)
        assert reopened.cold_count() == 0 and reopened.log_bytes() == 0
        assert "a" not in reopened and reopened.fault("a") is None
        assert log.read_bytes() == b""
        reopened.put_state("b", SessionState(PARTS, 0b10, False))
        assert reopened.fault("b") == SessionState(PARTS, 0b10, False)
        reopened.close()

    def test_policies_are_interned_once(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        for index in range(20):
            store.put_state(f"app-{index}", SessionState(PARTS, 0b11, False))
        store.close()
        kinds = [
            json.loads(line)[0]
            for line in (tmp_path / "sessions.log").read_bytes().splitlines()
        ]
        assert kinds.count("P") == 1
        assert kinds.count("S") == 20

    def test_corrupt_interior_record_raises_store_error(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        store.put_state("a", SessionState(PARTS, 0b01, False))
        store.put_state("b", SessionState(PARTS, 0b10, False))
        log = tmp_path / "sessions.log"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[1] = b'["S","a",9,1,0]\n'  # undefined policy id, same length
        log.write_bytes(b"".join(lines))
        with pytest.raises(StoreError, match="bad record at byte"):
            store.fault("a")
        assert store.fault("b") == SessionState(PARTS, 0b10, False)
        store.close()

    def test_non_string_principals_are_rejected(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        with pytest.raises(StoreError, match="string principals"):
            store.put_state(42, SessionState(PARTS, 0b11, False))
        store.close()

    def test_compaction_drops_dead_records_and_preserves_state(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=2, compact_min_dead=8)
        for round_number in range(10):
            for index in range(4):
                store.put_state(
                    f"app-{index}",
                    SessionState(PARTS, 0b01 << round_number % 2, False),
                )
        assert store.compaction_count >= 1
        states = dict(store.iter_states())
        assert len(states) == 4
        assert all(state.live == 0b10 for state in states.values())
        # The compacted log holds exactly one live record per principal.
        kinds = [
            json.loads(line)[0]
            for line in (tmp_path / "sessions.log").read_bytes().splitlines()
        ]
        assert kinds.count("S") <= 4 + store._dead
        store.close()

    def test_observe_hook_times_spill_fault_and_compact(self, tmp_path):
        seen = []
        store = SpillStore(tmp_path, max_resident=4, compact_min_dead=1)
        store.observe = lambda op, seconds: seen.append(op)
        store.put_state("a", SessionState(PARTS, 0b01, False))
        store.fault("a")
        store.compact()
        assert "spill" in seen and "fault" in seen and "compact" in seen
        store.close()

    def test_log_bytes_tracks_the_append_head(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        assert store.log_bytes() == 0
        store.put_state("a", SessionState(PARTS, 0b01, False))
        assert store.log_bytes() == (tmp_path / "sessions.log").stat().st_size
        store.close()


# ----------------------------------------------------------------------
# Clean evictions and the tombstone rule
# ----------------------------------------------------------------------
def _log_kinds(tmp_path):
    return [
        json.loads(line)[0]
        for line in (tmp_path / "sessions.log").read_bytes().splitlines()
    ]


def _fault_in(store, principal):
    """What the service does on a miss: fault the state, bind, put."""
    state = store.fault(principal)
    session = _session(principal, state.live, state.ephemeral, state.partitions)
    store.put(principal, session)
    return session


class TestCleanEviction:
    def test_evicting_an_untouched_session_writes_nothing(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        state = SessionState(PARTS, 0b11, False)
        store.put_state("a", state)
        _fault_in(store, "a")
        before = store.log_bytes()
        store.demote("a")
        assert store.log_bytes() == before
        assert store.clean_eviction_count == 1
        assert store._dead == 0  # the record is live again, not garbage
        assert "a" in store and store.cold_count() == 1
        assert store.fault("a") == state  # and it is still the right one
        store.close()

    def test_a_narrowed_session_appends_exactly_one_record(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        store.put_state("a", SessionState(PARTS, 0b11, False))
        session = _fault_in(store, "a")
        session.live = 0b01
        kinds = _log_kinds(tmp_path)
        store.demote("a")
        assert _log_kinds(tmp_path) == kinds + ["S"]
        assert store.clean_eviction_count == 0
        assert store.fault("a") == SessionState(PARTS, 0b01, False)
        store.close()

    def test_lru_eviction_of_untouched_sessions_is_clean(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=2)
        for index in range(6):
            store.put_state(f"app-{index}", SessionState(PARTS, 0b11, False))
        before = store.log_bytes()
        for _ in range(3):
            for index in range(6):
                _fault_in(store, f"app-{index}")
        assert store.eviction_count == 16
        assert store.clean_eviction_count == 16
        assert store.log_bytes() == before
        assert store.compaction_count == 0
        store.close()

    def test_compaction_forgets_origins_and_eviction_still_round_trips(
        self, tmp_path
    ):
        store = SpillStore(tmp_path, max_resident=4, compact_min_dead=1)
        store.put_state("a", SessionState(PARTS, 0b11, False))
        store.put_state("b", SessionState(PARTS, 0b10, False))
        store.put_state("c", SessionState(PARTS, 0b01, False))
        untouched = _fault_in(store, "a")
        narrowed = _fault_in(store, "b")
        narrowed.live = 0b00
        store.compact()  # drops the records "a" and "b" were faulted from
        assert _log_kinds(tmp_path) == ["P", "S"]  # only "c" was cold
        store.demote("a")  # cannot be clean any more: its record is gone
        store.demote("b")
        assert store.clean_eviction_count == 0
        assert dict(store.iter_states()) == {
            "a": state_of(untouched),
            "b": SessionState(PARTS, 0b00, False),
            "c": SessionState(PARTS, 0b01, False),
        }
        assert store.fault("a") == SessionState(PARTS, 0b11, False)
        assert store.fault("b") == SessionState(PARTS, 0b00, False)
        store.close()

    def test_put_state_supersedes_a_resident_in_one_record(self, tmp_path):
        seen = []
        store = SpillStore(tmp_path, max_resident=4)
        store.on_demote = lambda session: seen.append(session.principal)
        store.put_state("a", SessionState(PARTS, 0b01, False))
        _fault_in(store, "a")
        kinds = _log_kinds(tmp_path)
        store.put_state("a", SessionState(PARTS, 0b11, False))
        assert _log_kinds(tmp_path) == kinds + ["S"]
        assert seen == ["a"] and store.peek("a") is None
        assert store.fault("a") == SessionState(PARTS, 0b11, False)
        store.close()

    def test_put_states_flushes_once(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4, compact_min_dead=8)
        states = [
            (f"app-{index % 5}", SessionState(PARTS, 1 + index % 3, False))
            for index in range(40)  # supersedes enough to compact mid-call
        ]
        store.put_states(states)
        assert store.compaction_count >= 1
        assert store.log_bytes() == (tmp_path / "sessions.log").stat().st_size
        assert store.fault("app-4") == SessionState(PARTS, 0b01, False)
        assert store.cold_count() == 4
        store.close()


class TestDiscards:
    def test_discarding_a_resident_writes_nothing(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        store.put_state("a", SessionState(PARTS, 0b11, False))
        _fault_in(store, "a").live = 0b01  # resident; its S record is on disk
        before = store.log_bytes()
        store.discard("a")
        assert store.log_bytes() == before
        assert "a" not in store and store.cold_count() == 0
        assert store._dead == 1  # the record it was faulted from
        store.close()

    def test_discarding_a_never_spilled_resident_writes_nothing(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        store.put("anon", _session("anon", ephemeral=True))
        store.discard("anon")
        assert store.log_bytes() == 0
        store.close()

    def test_a_reset_ephemeral_session_is_dropped_not_stored(self, tmp_path):
        store = SpillStore(tmp_path, max_resident=4)
        store.put_state("anon", SessionState(PARTS, 0b01, True))
        session = _fault_in(store, "anon")
        session.live = session.all_live  # reset while resident
        before = store.log_bytes()
        store.demote("anon")  # fresh + ephemeral: dropped, not stored
        assert "anon" not in store and store.log_bytes() == before
        store.close()

    @pytest.mark.parametrize("spill", [False, True], ids=["ram", "spill"])
    def test_a_fresh_ephemeral_put_state_is_a_discard(self, tmp_path, spill):
        store = SpillStore(tmp_path, max_resident=4) if spill else InMemoryStore(4)
        store.put_state("anon", SessionState(PARTS, 0b01, True))
        store.put_states([("anon", SessionState(PARTS, 0b11, True))])
        assert "anon" not in store and store.cold_count() == 0
        store.put("anon", _session("anon", 0b01, ephemeral=True))
        store.put_state("anon", SessionState(PARTS, 0b11, True))
        assert "anon" not in store and store.resident_count() == 0
        store.put_state("reg", SessionState(PARTS, 0b11, False))
        assert store.cold_count() == 1  # a registered fresh state is kept
        store.close()

    @pytest.mark.parametrize("spill", [False, True], ids=["ram", "spill"])
    def test_a_reset_anonymous_principal_costs_nothing(self, views, tmp_path, spill):
        """Anonymous principals narrowed through one resident slot, then
        reset: each is as fresh as one never seen, so none stays stored
        but the one still resident."""
        kwargs = {"spill_dir": tmp_path} if spill else {}
        service = DisclosureService(
            views,
            default_policy=[["public_profile"], ["user_likes"]],
            max_active_sessions=1,
            **kwargs,
        )
        query = service.parse("SELECT name FROM user WHERE uid = me()", "fql")
        anonymous = [f"anon-{index}" for index in range(100)]
        for principal in anonymous:
            assert service.submit(principal, query).live_after != 0b11
        for principal in anonymous:
            service.reset(principal)
        assert service.principal_count() <= 1
        assert service.store.cold_count() == 0
        for principal in anonymous:
            assert service.live_partitions(principal) == (True, True)
        service.close()

    def test_an_unregistered_principal_is_gone(self, views, tmp_path):
        service = DisclosureService(views, max_active_sessions=4, spill_dir=tmp_path)
        service.register("a", _policies(views, 1)[0])
        service.submit("a", _query_pool(1)[0])
        service.unregister("a")
        assert "a" not in service and service.principal_count() == 0
        with pytest.raises(PolicyError, match="unknown principal"):
            service.submit("a", _query_pool(1)[0])
        service.close()

    def test_replacements_are_one_record_each(self, views, tmp_path):
        service = DisclosureService(views, max_active_sessions=4, spill_dir=tmp_path)
        policy, other = _policies(views, 2)
        service.register("a", policy)
        service.submit("a", _query_pool(1)[0])  # resident now
        kinds = _log_kinds(tmp_path)
        service.register("a", other)  # re-register a resident
        service.reset("a")  # a fresh cold principal: its record says it all
        service.import_state(service.export_state())
        new = _log_kinds(tmp_path)[len(kinds):]
        assert [kind for kind in new if kind != "P"] == ["S", "S"]
        # Re-writing the very state a record already holds writes nothing.
        service.reset("a")
        assert _log_kinds(tmp_path)[len(kinds):] == new
        service.close()


# ----------------------------------------------------------------------
# Property: spill → fault round-trips any session state
# ----------------------------------------------------------------------

_view_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)
_partitions = st.lists(
    st.lists(_view_names, min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=4,
).map(tuple)


class TestSpillRoundTripProperty:
    @given(
        principal=st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            min_size=1,
            max_size=20,
        ),
        partitions=_partitions,
        ephemeral=st.booleans(),
        live_bits=st.integers(min_value=0),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_state_survives_spill_and_fault(
        self, principal, partitions, ephemeral, live_bits, data
    ):
        live = live_bits % (1 << len(partitions))
        state = SessionState(partitions, live, ephemeral)
        with tempfile.TemporaryDirectory() as spill_dir:
            store = SpillStore(spill_dir, max_resident=2)
            # A fresh ephemeral state is never stored: it rebuilds from
            # the default policy.  Anything else reads back from disk.
            fresh_ephemeral = ephemeral and live == (1 << len(partitions)) - 1
            expected = None if fresh_ephemeral else state
            for _ in range(2):  # the second write is a clean one
                store.put_state(principal, state)
                assert store.fault(principal) == expected
            store.close()


# ----------------------------------------------------------------------
# Property: the session table round-trips any population across stores
# ----------------------------------------------------------------------
_members = st.lists(
    st.tuples(
        st.integers(0, 2),  # policy
        st.integers(min_value=1),  # live, folded into range below
        st.booleans(),  # ephemeral
        st.booleans(),  # resident
    ),
    max_size=12,
)


class TestSessionTableProperty:
    @given(members=_members, spill_first=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_any_population_round_trips_across_stores(
        self, views, members, spill_first
    ):
        """``iter_states`` → ``export_state`` → JSON → ``import_state``
        into a fresh service on the other store gives back the same
        states, the ephemeral flag included.  A fresh ephemeral state
        is the one exception by design: the cold tier never holds one,
        so it only survives while resident."""
        with tempfile.TemporaryDirectory() as root:
            stores = [
                lambda: SpillStore(f"{root}/spill", max_resident=4),
                lambda: InMemoryStore(4),
            ]
            if not spill_first:
                stores.reverse()
            source, target = (
                DisclosureService(
                    views, session_store=make(), default_policy=[["public_profile"]]
                )
                for make in stores
            )
            policies = [source._normalize_policy(p) for p in _policies(views, 3)]
            with source._lock:
                for index, (policy, live, ephemeral, resident) in enumerate(members):
                    partitions = policies[policy]
                    state = SessionState(
                        partitions, live % ((1 << len(partitions)) - 1) + 1, ephemeral
                    )
                    source.store.put_state(f"p-{index}", state)
                    if resident:
                        source._session(f"p-{index}")  # faults it in
                held = dict(source.store.iter_states())
            table = json.loads(json.dumps(source.export_state()))
            assert table == source.export_state()
            assert target.import_state(table) == len(held)
            with target._lock:
                restored = dict(target.store.iter_states())
            fresh_ephemeral = {
                principal
                for principal, (partitions, live, ephemeral) in held.items()
                if ephemeral and live == (1 << len(partitions)) - 1
            }
            assert restored == {
                principal: state
                for principal, state in held.items()
                if principal not in fresh_ephemeral
            }
            assert dict(decode_states(table)) == held
            source.close()
            target.close()


# ----------------------------------------------------------------------
# Custom stores through the public constructor
# ----------------------------------------------------------------------
class DictStore(InMemoryStore):
    """The documented custom-store example: cold tier in a plain dict
    subclass — here just counting every cold write for visibility."""

    def __init__(self, max_resident=100):
        super().__init__(max_resident)
        self.cold_writes = 0

    def _store_cold(self, principal, state):
        self.cold_writes += 1
        super()._store_cold(principal, state)


class TestCustomStore:
    def test_service_accepts_a_session_store_instance(self, views):
        store = DictStore(max_resident=2)
        service = DisclosureService(views, session_store=store)
        assert service.store is store
        assert service.max_active_sessions == 2
        policies = _policies(views, 4)
        for index, policy in enumerate(policies):
            service.register(f"app-{index}", policy)
        for principal, query in zip(
            [f"app-{i}" for i in range(4)], _query_pool(4)
        ):
            service.submit(principal, query)
        # Four resident promotions through a cap of two: evictions ran
        # through the custom cold tier.
        assert store.eviction_count >= 1
        assert store.cold_writes >= 1
        assert service.principal_count() == 4


# ----------------------------------------------------------------------
# Service equivalence on the spill tier
# ----------------------------------------------------------------------
class TestServiceSpillEquivalence:
    PRINCIPALS = 10

    def _traffic(self, seed, count):
        queries = _query_pool()
        rng = random.Random(seed)
        return [
            (f"app-{rng.randrange(self.PRINCIPALS)}", rng.choice(queries))
            for _ in range(count)
        ]

    def test_spill_tier_decisions_match_in_memory(self, views, tmp_path):
        policies = _policies(views, self.PRINCIPALS)
        reference = DisclosureService(views)
        spilled = DisclosureService(
            views, max_active_sessions=3, spill_dir=tmp_path
        )
        for index, policy in enumerate(policies):
            reference.register(f"app-{index}", policy)
            spilled.register(f"app-{index}", policy)
        for principal, query in self._traffic(11, 300):
            assert (
                reference.submit(principal, query).as_dict()
                == spilled.submit(principal, query).as_dict()
            )
        store = spilled.store
        assert store.resident_count() <= 3
        assert store.fault_count > 0 and store.spill_count > 0
        spilled.close()

    def test_restart_finds_cold_sessions_on_disk_only(self, views, tmp_path):
        """Kill with *every* session cold: the chain's full base reads
        them from the spill log, and a restart restores them into the
        same (cleared) spill directory → byte-identical decisions."""
        policies = _policies(views, self.PRINCIPALS)
        reference = DisclosureService(views)
        spilled = DisclosureService(
            views, max_active_sessions=3, spill_dir=tmp_path / "spill"
        )
        for index, policy in enumerate(policies):
            reference.register(f"app-{index}", policy)
            spilled.register(f"app-{index}", policy)
        phase1 = self._traffic(13, 200)
        for principal, query in phase1:
            reference.submit(principal, query)
            spilled.submit(principal, query)
        # Demote everything: the only copy of each state is the spill log.
        for principal in [f"app-{i}" for i in range(self.PRINCIPALS)]:
            spilled.store.demote(principal)
        assert spilled.store.resident_count() == 0
        SnapshotChain(spilled, tmp_path / "state").save()
        spilled.close()
        del spilled

        restarted = DisclosureService(
            views, max_active_sessions=3, spill_dir=tmp_path / "spill"
        )
        assert restarted.principal_count() == 0  # the log is scratch
        restore_collected(restarted, collect_state(tmp_path / "state"))
        assert restarted.principal_count() == self.PRINCIPALS
        for principal, query in self._traffic(17, 200):
            assert _strip_cached(
                reference.submit(principal, query)
            ) == _strip_cached(restarted.submit(principal, query))
        # The restarted tier faulted its population back in on demand.
        assert restarted.store.fault_count > 0
        restarted.close()


# ----------------------------------------------------------------------
# Bounded residency under a zipfian population
# ----------------------------------------------------------------------
class TestBoundedResidency:
    def test_population_far_beyond_max_resident_stays_bounded(
        self, views, tmp_path
    ):
        """~2k zipfian principals through 48 resident slots: the resident
        tier never exceeds its cap while every decision still lands.
        (The CI bench scales this shape to 100k+ principals.)"""
        population = 2000
        cap = 48
        policies = _policies(views, 20)
        service = DisclosureService(
            views, max_active_sessions=cap, spill_dir=tmp_path
        )
        for index in range(population):
            service.register(f"app-{index}", policies[index % len(policies)])
            assert service.store.resident_count() <= cap
        queries = _query_pool(16)
        rng = random.Random(23)
        for _ in range(600):
            # Zipf-ish skew: quadratic bias toward the head of the ranking.
            rank = int(population * rng.random() ** 2.5)
            principal = f"app-{min(rank, population - 1)}"
            service.submit(principal, rng.choice(queries))
            assert service.store.resident_count() <= cap
        store = service.store
        assert service.principal_count() == population
        assert store.cold_count() >= population - cap
        assert store.log_bytes() > 0
        assert store.fault_count > 0
        assert store.eviction_count > 0
        sessions = service.metrics_snapshot()["sessions"]
        assert sessions["resident"] <= cap
        assert sessions["spilled"] == store.cold_count()
        service.close()
