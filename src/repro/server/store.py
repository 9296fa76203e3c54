"""Session memory tier: the :class:`SessionStore` API and its two tiers.

``DisclosureService`` historically kept every session in two inline
dicts — a resident LRU of live :class:`~repro.server.service.Session`
objects and a "passive" dict of demoted ``(partitions, live, ephemeral)``
tuples.  That design caps the principal population at RAM.  This module
extracts the session container behind a small, documented protocol so
the service, the batch path, and the persistence layer never touch a
dict directly, and so the container can be swapped:

``InMemoryStore``
    The default.  Byte-for-byte the old behavior: resident LRU +
    in-RAM cold dict.  Zero new failure modes, zero new dependencies.

``SpillStore``
    The million-session tier.  Cold sessions append their serializable
    ``(policy, live)`` state to an on-disk JSON-lines log keyed by
    principal and are faulted back in on touch.  RSS is bounded by
    ``max_resident`` plus a small per-principal index entry
    (offset + dirty epoch); the principal *population* lives on disk.
    A fault remembers which record the session came from, so evicting
    a session that still equals it (a *clean* eviction — the common
    case under churn) re-instates the index entry and writes nothing.

Stores are **not** thread-safe on their own — every store call is made
under the owning service's lock, exactly like the dicts they replace.

Custom stores
-------------
A service accepts any object implementing :class:`SessionStore` via
``DisclosureService(session_store=...)``.  The contract is small on
purpose: a store maps principals to either a *resident*
:class:`~repro.server.service.Session` (hot, mutable, owned by the
kernel) or a *cold* :class:`SessionState` (immutable, serializable).
The service promotes/demotes across the boundary; the store only
decides *where* each tier lives.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    BinaryIO,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ..analysis.markers import requires_lock
from ..core.formats import SESSIONS_FORMAT_V1
from ..errors import PolicyError, StoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from .service import Session

__all__ = ["SessionState", "SessionStore", "InMemoryStore", "SpillStore"]

#: Serialized-state format produced by :meth:`SessionStore.export_state`.
STATE_FORMAT = SESSIONS_FORMAT_V1

Partitions = Tuple[Tuple[str, ...], ...]


class SessionState(tuple):
    """Immutable, serializable snapshot of one session's durable state.

    ``partitions``
        The granted security policy: a tuple of partitions, each a
        tuple of view names.
    ``live``
        Bitmask over partitions — bit *i* set means partition *i* is
        still undisclosed (the principal may yet commit to it).
    ``ephemeral``
        True when the session was auto-created under a default policy
        rather than explicitly registered.
    ``dirty_epoch``
        The service ``state_epoch`` at the session's last mutation.
        Incremental snapshots export exactly the states with
        ``dirty_epoch >= since``.
    """

    __slots__ = ()

    def __new__(
        cls,
        partitions: Partitions,
        live: int,
        ephemeral: bool,
        dirty_epoch: int,
    ) -> "SessionState":
        return tuple.__new__(cls, (partitions, live, ephemeral, dirty_epoch))

    @property
    def partitions(self) -> Partitions:
        return self[0]

    @property
    def live(self) -> int:
        return self[1]

    @property
    def ephemeral(self) -> bool:
        return self[2]

    @property
    def dirty_epoch(self) -> int:
        return self[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionState(partitions={self[0]!r}, live={self[1]:#x}, "
            f"ephemeral={self[2]!r}, dirty_epoch={self[3]!r})"
        )


class SessionStore(Protocol):
    """Protocol every session container must implement.

    A store holds two tiers keyed by principal:

    * **resident** — live ``Session`` objects the kernel mutates in
      place.  At most ``max_resident`` of them; a store evicts
      least-recently-used residents through its demote path when
      ``put`` pushes it over.
    * **cold** — immutable :class:`SessionState` tuples.  A principal
      is in exactly one tier (or absent).

    Stores are driven under the owning service's lock and must not
    take locks of their own.  Two optional hooks connect the store
    back to the service:

    ``on_demote``
        Called with the ``Session`` object *before* it leaves the
        resident tier (eviction, explicit demote, discard, or
        overwrite).  The service uses it to drain pending per-tenant
        decision tallies — the only session-carried state that is not
        part of :class:`SessionState`.
    ``observe``
        ``(op, seconds)`` timing callback for the expensive tier
        operations: ``"spill"``, ``"fault"``, ``"compact"``.  Wired to
        the metrics plane when observability is enabled.
    """

    max_resident: int
    on_demote: Optional[Callable[["Session"], None]]
    observe: Optional[Callable[[str, float], None]]
    fault_count: int
    eviction_count: int
    spill_count: int

    def get(self, principal: Hashable) -> Optional["Session"]:
        """Return the resident session and mark it most recently used.

        Cold principals return ``None`` — promoting a cold state back
        to a ``Session`` needs the service's grant tables, so the
        caller pairs ``get`` with :meth:`fault`.
        """
        ...

    def peek(self, principal: Hashable) -> Optional["Session"]:
        """Return the resident session *without* touching LRU order."""
        ...

    def put(self, principal: Hashable, session: "Session") -> None:
        """Insert ``session`` as resident (most recently used).

        Evicts least-recently-used residents through the demote path
        while the resident tier exceeds ``max_resident``.
        """
        ...

    def demote(self, principal: Hashable) -> None:
        """Move a resident session to the cold tier (no-op if absent).

        Fires ``on_demote`` first.  A session that is *ephemeral and
        fresh* (``live`` covers every partition) is dropped instead of
        stored: an identical session can be rebuilt from the default
        policy on next touch, so storing it buys nothing.
        """
        ...

    def fault(self, principal: Hashable) -> Optional[SessionState]:
        """Pop and return the cold state for ``principal``.

        Returns ``None`` when the principal has no cold state.  The
        caller owns re-inserting the rebuilt session via :meth:`put`.
        """
        ...

    def discard(self, principal: Hashable) -> None:
        """Forget the principal entirely, from whichever tier holds it.

        Fires ``on_demote`` for a resident session so pending tallies
        are not lost.
        """
        ...

    def put_state(self, principal: Hashable, state: SessionState) -> None:
        """Write ``state`` straight to the cold tier, superseding
        whatever either tier held for the principal.

        Used by ``register``, ``reset`` and snapshot restore, where
        materializing a resident ``Session`` would only churn the LRU.
        A resident session for the principal is dropped (``on_demote``
        fires first), so a replacement is one call and one cold write.
        The shipped stores also offer ``put_states(pairs)``, the same
        write for many principals at once; the service uses it when a
        store has it.
        """
        ...

    def iter_states(self) -> Iterator[Tuple[Hashable, SessionState]]:
        """Yield ``(principal, state)`` for **every** principal, both tiers.

        Resident sessions are rendered to states on the fly.  For a
        spill store this reads the whole cold log — full snapshots and
        replica refaults only.
        """
        ...

    def iter_dirty_states(self, since: int) -> Iterator[Tuple[Hashable, SessionState]]:
        """Yield states with ``dirty_epoch >= since`` (both tiers).

        The incremental-snapshot read path: a spill store answers from
        its in-memory epoch index and reads only the matching log
        records, so the cost is O(delta) disk I/O, not O(population).
        """
        ...

    def export_state(self) -> Dict[str, object]:
        """Render both tiers as the durable ``repro.server/1`` document."""
        ...

    def resident_sessions(self) -> Iterator["Session"]:
        """Yield the resident ``Session`` objects (LRU order, oldest first)."""
        ...

    def resident_count(self) -> int:
        """Number of sessions in the resident tier."""
        ...

    def cold_count(self) -> int:
        """Number of principals in the cold tier."""
        ...

    def __contains__(self, principal: Hashable) -> bool:
        """True when either tier knows the principal."""
        ...

    def close(self) -> None:
        """Release any OS resources (file handles).  Idempotent."""
        ...


def state_of(session: "Session") -> SessionState:
    """Render a resident session as its serializable cold state."""

    return SessionState(
        session.partitions, session.live, session.ephemeral, session.dirty_epoch
    )


def iter_owned_states(
    store: SessionStore, owner: int, owners: int
) -> Iterator[Tuple[Hashable, SessionState]]:
    """The states (resident and cold) owned by replica *owner*.

    Ownership is the deployment-wide CRC-32 principal partitioning
    (:func:`repro.server.partition.shard_for` over *owners* peers) — the
    same assignment the replica-pool dispatcher routes by, so the slice this yields is exactly what a respawned
    worker must refault to resume where its predecessor died.  The
    caller serializes against concurrent mutation (the service lock).
    """
    from repro.server.partition import shard_for

    for principal, state in store.iter_states():
        if shard_for(principal, owners) == owner:
            yield principal, state


def state_dict(
    state: SessionState, expanded: Dict[Partitions, List[List[str]]]
) -> Dict[str, object]:
    """One ``export_state`` entry.

    *expanded* is the caller's per-export memo: sessions of one policy
    share one (read-only) ``partitions`` list, so an export of the whole
    population costs memory per distinct policy, not per principal.
    """

    partitions = state.partitions
    lists = expanded.get(partitions)
    if lists is None:
        lists = expanded[partitions] = [list(partition) for partition in partitions]
    live = state.live
    return {
        "partitions": lists,
        "live": [bool(live >> index & 1) for index in range(len(partitions))],
    }


class _StoreBase:
    """Shared demote/export logic for the concrete stores."""

    #: True when the cold tier survives process death (drives the
    #: ``repro_sessions_spilled`` gauge and restart semantics).
    persistent = False

    max_resident: int
    on_demote: Optional[Callable[["Session"], None]]
    observe: Optional[Callable[[str, float], None]]
    fault_count: int
    eviction_count: int
    spill_count: int
    _resident: "OrderedDict[Hashable, Session]"

    def __init__(self, max_resident: int) -> None:
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.max_resident = max_resident
        self.on_demote = None
        self.observe = None
        self.fault_count = 0
        self.eviction_count = 0
        self.spill_count = 0
        self._resident = OrderedDict()  # guarded-by: _lock

    # -- resident tier ---------------------------------------------------

    @requires_lock
    def get(self, principal: Hashable) -> Optional["Session"]:
        session = self._resident.get(principal)
        if session is not None:
            self._resident.move_to_end(principal)
        return session

    def peek(self, principal: Hashable) -> Optional["Session"]:
        return self._resident.get(principal)

    @requires_lock
    def put(self, principal: Hashable, session: "Session") -> None:
        existing = self._resident.pop(principal, None)
        if existing is not None and existing is not session and self.on_demote:
            self.on_demote(existing)
        self._resident[principal] = session
        while len(self._resident) > self.max_resident:
            _, evicted = self._resident.popitem(last=False)
            self.eviction_count += 1
            self._demote_session(evicted)

    @requires_lock
    def demote(self, principal: Hashable) -> None:
        session = self._resident.pop(principal, None)
        if session is not None:
            self._demote_session(session)

    def _demote_session(self, session: "Session") -> None:
        if self.on_demote is not None:
            self.on_demote(session)
        if session.ephemeral and session.live == session.all_live:
            # A fresh default-policy session rebuilds identically on next
            # touch; the cold tier would store pure redundancy.
            self._forget_cold(session.principal)
            return
        self._store_cold(session.principal, state_of(session))

    def _drop_resident(self, principal: Hashable) -> None:
        session = self._resident.pop(principal, None)
        if session is not None and self.on_demote is not None:
            self.on_demote(session)

    @requires_lock
    def discard(self, principal: Hashable) -> None:
        self._drop_resident(principal)
        self._forget_cold(principal)

    @requires_lock
    def put_state(self, principal: Hashable, state: SessionState) -> None:
        self._drop_resident(principal)
        self._store_cold(principal, state)

    def put_states(
        self, states: Iterable[Tuple[Hashable, SessionState]]
    ) -> None:
        """:meth:`put_state` for each ``(principal, state)`` pair."""

        for principal, state in states:
            self.put_state(principal, state)

    def resident_sessions(self) -> Iterator["Session"]:
        return iter(list(self._resident.values()))

    def resident_count(self) -> int:
        return len(self._resident)

    # -- export ----------------------------------------------------------

    def iter_states(self) -> Iterator[Tuple[Hashable, SessionState]]:
        for principal, state in self._iter_cold():
            yield principal, state
        for principal, session in list(self._resident.items()):
            yield principal, state_of(session)

    def iter_dirty_states(self, since: int) -> Iterator[Tuple[Hashable, SessionState]]:
        for principal, state in self._iter_cold_dirty(since):
            yield principal, state
        for principal, session in list(self._resident.items()):
            if session.dirty_epoch >= since:
                yield principal, state_of(session)

    def export_state(self) -> Dict[str, object]:
        entries: Dict[str, Dict[str, object]] = {}
        expanded: Dict[Partitions, List[List[str]]] = {}
        for principal, state in self.iter_states():
            if not isinstance(principal, str):
                raise PolicyError(
                    "cannot export state: principal %r is not a string" % (principal,)
                )
            entries[principal] = state_dict(state, expanded)
        return {"format": STATE_FORMAT, "sessions": entries}

    # -- hooks for subclasses -------------------------------------------

    def _store_cold(self, principal: Hashable, state: SessionState) -> None:
        """Make *state* the principal's cold state (it has no resident)."""
        raise NotImplementedError

    def _forget_cold(self, principal: Hashable) -> None:
        """Drop whatever cold state the principal has, durably."""
        raise NotImplementedError

    def _iter_cold(self) -> Iterator[Tuple[Hashable, SessionState]]:
        raise NotImplementedError

    def _iter_cold_dirty(self, since: int) -> Iterator[Tuple[Hashable, SessionState]]:
        raise NotImplementedError

    def close(self) -> None:
        return None


class InMemoryStore(_StoreBase):
    """The default store: resident LRU plus an in-RAM cold dict.

    Matches the pre-extraction service behavior exactly — demoted
    sessions keep living in RAM as compact :class:`SessionState`
    tuples, and nothing touches the filesystem.
    """

    def __init__(self, max_resident: int = 10_000) -> None:
        super().__init__(max_resident)
        self._cold: Dict[Hashable, SessionState] = {}  # guarded-by: _lock

    @requires_lock
    def _store_cold(self, principal: Hashable, state: SessionState) -> None:
        self.spill_count += 1
        self._cold[principal] = state

    @requires_lock
    def _forget_cold(self, principal: Hashable) -> None:
        self._cold.pop(principal, None)

    def fault(self, principal: Hashable) -> Optional[SessionState]:
        state = self._cold.pop(principal, None)
        if state is not None:
            self.fault_count += 1
        return state

    def _iter_cold(self) -> Iterator[Tuple[Hashable, SessionState]]:
        return iter(list(self._cold.items()))

    def _iter_cold_dirty(self, since: int) -> Iterator[Tuple[Hashable, SessionState]]:
        for principal, state in list(self._cold.items()):
            if state.dirty_epoch >= since:
                yield principal, state

    def cold_count(self) -> int:
        return len(self._cold)

    def __contains__(self, principal: Hashable) -> bool:
        return principal in self._resident or principal in self._cold


class SpillStore(_StoreBase):
    """Disk-backed cold tier: an append-only JSON-lines session log.

    Layout
    ------
    One file, ``<spill_dir>/sessions.log``, holding three record kinds
    (JSON arrays, one per line):

    ``["P", pid, [[view, ...], ...]]``
        Defines policy id ``pid`` as a partition list.  Policies are
        heavily shared across principals, so they are interned once
        and sessions reference them by id — the same dedup trick the
        v2 snapshot encoding uses.
    ``["S", principal, pid, live, ephemeral, dirty_epoch]``
        A spilled session state.  Later records for the same principal
        supersede earlier ones (last-writer-wins on replay).
    ``["D", principal]``
        Tombstone: the principal was discarded while a record of it
        was still in the log.

    An in-RAM index maps each cold principal to ``(byte offset,
    dirty_epoch)`` — ~100 bytes per principal instead of a whole
    session — so faults are one seek + one line read, and incremental
    snapshot exports scan the index in RAM and read only the dirty
    records from disk.

    Clean evictions
    ---------------
    A fault moves the principal's index entry to a resident-side map,
    ``principal -> (offset, state as read)``, that lives as long as the
    session stays resident (at most ``max_resident`` entries when every
    fault is followed by the ``put`` the protocol asks for).  Demoting
    a session whose state still equals that record puts the index
    entry back and is done: nothing is encoded, written, or flushed,
    and no record dies.  Only a session that changed while resident
    appends.  Compaction drops the records residents came from, so it
    clears the map; those sessions append when they leave.

    Durability & crash behavior
    ---------------------------
    Appends are flushed (not fsynced) per record — per call for
    :meth:`put_states`; snapshots remain the coherent durability cut.
    On open, an existing log is replayed so cold sessions survive a
    restart that reuses the spill directory.  A torn final record
    (crash mid-append) is truncated away silently; a corrupt *interior*
    record raises :class:`~repro.errors.StoreError`.  Faulting a
    principal leaves its record in the log — the bytes are compaction
    debt — so a crash (or a close) while the session is resident
    brings back that last cold state on reopen: the staleness window
    any snapshot restore already has, never a state the principal did
    not have.  What cannot come back is a principal that was
    discarded: the tombstone is written whenever a record of the
    principal is still in the log, cold *or* resident, and a
    replacement (``put_state``) supersedes by being the later record.

    Compaction
    ----------
    When dead records outnumber ``max(compact_min_dead, 2x live)``,
    the log is rewritten atomically (temp file + ``os.replace``) with a
    fresh policy table and one record per live principal.

    Principals must be strings (they travel through JSON); demoting a
    session with a non-string principal raises ``StoreError``.
    """

    LOG_NAME = "sessions.log"
    persistent = True

    def __init__(
        self,
        spill_dir: str | os.PathLike[str],
        max_resident: int = 10_000,
        *,
        compact_min_dead: int = 1024,
    ) -> None:
        super().__init__(max_resident)
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.spill_dir / self.LOG_NAME
        self.compact_min_dead = compact_min_dead
        self.compaction_count = 0
        #: Evictions and replacements that wrote nothing because the
        #: state still equalled the record it was faulted from.
        self.clean_eviction_count = 0
        # principal -> (byte offset of its live "S" record, dirty_epoch)
        self._index: Dict[str, Tuple[int, int]] = {}  # guarded-by: _lock
        # faulted principal -> (offset, state) of the record it came from
        self._origin: Dict[str, Tuple[int, SessionState]] = {}  # guarded-by: _lock
        self._flush_each = True
        self._policies: List[Partitions] = []
        self._policy_ids: Dict[Partitions, int] = {}
        self._dead = 0
        self._end = 0
        self._replay_log()
        self._append = open(self.path, "ab")
        self._read = open(self.path, "rb")

    # -- log plumbing ----------------------------------------------------

    def _replay_log(self) -> None:
        """Rebuild index + policy tables from an existing log, if any."""

        if not self.path.exists():
            self.path.touch()
            return
        data = self.path.read_bytes()
        offset = 0
        valid_end = 0
        for raw in data.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break  # torn tail: crash mid-append; truncate below
            try:
                record = json.loads(raw)
                kind = record[0]
                if kind == "P":
                    pid, partitions = record[1], record[2]
                    if pid != len(self._policies):
                        raise ValueError("policy ids must be dense")
                    self._policies.append(
                        tuple(tuple(str(v) for v in part) for part in partitions)
                    )
                elif kind == "S":
                    principal, pid, live, ephemeral, dirty = record[1:6]
                    if not 0 <= pid < len(self._policies):
                        raise ValueError(f"undefined policy id {pid}")
                    if principal in self._index:
                        self._dead += 1
                    self._index[str(principal)] = (offset, int(dirty))
                elif kind == "D":
                    if self._index.pop(str(record[1]), None) is not None:
                        self._dead += 1
                    self._dead += 1  # the tombstone itself is log garbage
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                raise StoreError(
                    f"corrupt spill log {self.path}: bad record at byte {offset}: {exc}"
                ) from exc
            offset += len(raw)
            valid_end = offset
        if valid_end != len(data):
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)
        for pid, partitions in enumerate(self._policies):
            self._policy_ids[partitions] = pid
        self._end = valid_end

    def _append_record(self, record: object) -> int:
        """Append one record; return its byte offset."""

        line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        offset = self._end
        self._append.write(line)
        if self._flush_each:
            self._append.flush()
        self._end += len(line)
        return offset

    def _policy_id(self, partitions: Partitions) -> int:
        pid = self._policy_ids.get(partitions)
        if pid is None:
            pid = len(self._policies)
            self._policies.append(partitions)
            self._policy_ids[partitions] = pid
            self._append_record(
                ["P", pid, [list(part) for part in partitions]]
            )
        return pid

    def _read_state(self, principal: str, offset: int) -> SessionState:
        self._read.seek(offset)
        raw = self._read.readline()
        try:
            record = json.loads(raw)
            if record[0] != "S" or record[1] != principal:
                raise ValueError(
                    f"expected S record for {principal!r}, found {record[:2]!r}"
                )
            return SessionState(
                self._policies[record[2]],
                int(record[3]),
                bool(record[4]),
                int(record[5]),
            )
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            raise StoreError(
                f"corrupt spill log {self.path}: bad record at byte {offset}: {exc}"
            ) from exc

    # -- cold tier -------------------------------------------------------

    @requires_lock
    def _store_cold(self, principal: Hashable, state: SessionState) -> None:
        if not isinstance(principal, str):
            raise StoreError(
                "SpillStore requires string principals; got %r" % (principal,)
            )
        origin = self._origin.pop(principal, None)
        if origin is not None and origin[1] == state:
            # Clean: the record it was faulted from still says it all.
            self._index[principal] = (origin[0], state.dirty_epoch)
            self._dead -= 1
            self.clean_eviction_count += 1
            return
        started = time.perf_counter() if self.observe else 0.0
        pid = self._policy_id(state.partitions)
        offset = self._append_record(
            ["S", principal, pid, state.live, int(state.ephemeral), state.dirty_epoch]
        )
        if principal in self._index:
            self._dead += 1
        self._index[principal] = (offset, state.dirty_epoch)
        self.spill_count += 1
        if self.observe:
            self.observe("spill", time.perf_counter() - started)
        self._maybe_compact()

    @requires_lock
    def _forget_cold(self, principal: Hashable) -> None:
        # Tombstone iff a record of the principal is still in the log:
        # its live one (indexed) or the one a resident was faulted from.
        on_disk = self._origin.pop(principal, None) is not None  # type: ignore[arg-type]
        if self._index.pop(principal, None) is not None:  # type: ignore[arg-type]
            self._dead += 1
            on_disk = True
        if on_disk:
            self._dead += 1  # the tombstone itself is log garbage
            self._append_record(["D", principal])
            self._maybe_compact()

    def put_states(
        self, states: Iterable[Tuple[Hashable, SessionState]]
    ) -> None:
        """Bulk :meth:`put_state` with one flush for the whole call."""

        self._flush_each = False
        try:
            super().put_states(states)
        finally:
            self._flush_each = True
            self._append.flush()

    @requires_lock
    def fault(self, principal: Hashable) -> Optional[SessionState]:
        entry = self._index.pop(principal, None)  # type: ignore[arg-type]
        if entry is None:
            return None
        started = time.perf_counter() if self.observe else 0.0
        offset, _ = entry
        state = self._read_state(principal, offset)  # type: ignore[arg-type]
        self._origin[principal] = (offset, state)  # type: ignore[index]
        self._dead += 1  # unreferenced unless a clean eviction re-instates it
        self.fault_count += 1
        if self.observe:
            self.observe("fault", time.perf_counter() - started)
        return state

    def _iter_cold(self) -> Iterator[Tuple[Hashable, SessionState]]:
        for principal, (offset, _) in list(self._index.items()):
            yield principal, self._read_state(principal, offset)

    def _iter_cold_dirty(self, since: int) -> Iterator[Tuple[Hashable, SessionState]]:
        for principal, (offset, dirty) in list(self._index.items()):
            if dirty >= since:
                yield principal, self._read_state(principal, offset)

    def cold_count(self) -> int:
        return len(self._index)

    def __contains__(self, principal: Hashable) -> bool:
        return principal in self._resident or principal in self._index

    # -- compaction ------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._dead >= max(self.compact_min_dead, 2 * len(self._index)):
            self.compact()

    def compact(self) -> None:
        """Atomically rewrite the log with only live records."""

        started = time.perf_counter() if self.observe else 0.0
        self._append.flush()  # a bulk write may be mid-call
        tmp_path = self.spill_dir / f".{self.LOG_NAME}.tmp-{os.getpid()}"
        policies: List[Partitions] = []
        policy_ids: Dict[Partitions, int] = {}
        index: Dict[str, Tuple[int, int]] = {}
        end = 0

        def emit(fh: BinaryIO, record: object) -> int:
            nonlocal end
            line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
            fh.write(line)
            offset = end
            end += len(line)
            return offset

        with open(tmp_path, "wb") as fh:
            for principal, (offset, dirty) in self._index.items():
                state = self._read_state(principal, offset)
                pid = policy_ids.get(state.partitions)
                if pid is None:
                    pid = len(policies)
                    policies.append(state.partitions)
                    policy_ids[state.partitions] = pid
                    emit(fh, ["P", pid, [list(part) for part in state.partitions]])
                index[principal] = (
                    emit(
                        fh,
                        [
                            "S",
                            principal,
                            pid,
                            state.live,
                            int(state.ephemeral),
                            state.dirty_epoch,
                        ],
                    ),
                    dirty,
                )
            fh.flush()
            os.fsync(fh.fileno())
        self._append.close()
        self._read.close()
        os.replace(tmp_path, self.path)
        self._append = open(self.path, "ab")
        self._read = open(self.path, "rb")
        self._index = index
        self._origin.clear()  # the records residents came from are gone
        self._policies = policies
        self._policy_ids = policy_ids
        self._dead = 0
        self._end = end
        self.compaction_count += 1
        if self.observe:
            self.observe("compact", time.perf_counter() - started)

    def log_bytes(self) -> int:
        """Current size of the spill log in bytes."""

        return self._end

    def close(self) -> None:
        for fh in (self._append, self._read):
            try:
                fh.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
