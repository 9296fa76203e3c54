"""The kernel replica pool: a multi-core data plane behind one front end.

Running N complete HTTP servers would make every worker re-parse JSON,
re-frame HTTP, and re-derive the interner plane, and a front end would
pay a full HTTP hop per sub-batch.  This module keeps exactly one
front end (the asyncio server of :mod:`repro.server.aio`)
and moves only the *data plane* — the
:class:`~repro.server.kernel.DecisionKernel` — into worker processes:

* **One dispatcher, N kernel replicas.**  The front end's per-tick
  drain partitions each coalesced batch by owning replica (the same
  CRC-32 principal assignment as :func:`repro.server.partition.shard_for`),
  ships qid-native sub-batches over ``multiprocessing`` pipes, and
  reassembles replies in arrival order — the drain's order-exactness
  guarantee survives because each tick is dispatched and gathered as a
  unit, and a principal's whole session lives on exactly one replica.
* **The parent owns interning.**  Replicas never intern a query shape:
  the dispatcher ships *plane deltas* — the canonical-key rows assigned
  since the replica's last sync, positionally exact because qids are
  dense and append-only (:meth:`QueryInterner.export_keys_since`) —
  ahead of any batch that references them, and propagates plane
  rotation as an epoch bump the replica adopts wholesale
  (:meth:`DecisionKernel.adopt_plane_epoch`).  Replicas therefore stay
  id-consistent with the parent by construction.  The lid space stays
  replica-local: labels are a pure function of the query shape, so each
  replica derives them independently (same packed labels, possibly
  different dense ids — nothing lid-shaped ever crosses the pipe).
* **The parent mirrors sessions — off the decisions.**  A principal's
  whole enforcement state is its policy plus one live bit vector
  (Section 6.2), the parent already holds every policy (it validated
  the ``register``), and every decision row reports the vector before
  and after.  So a reply ships *only* decision rows, and the parent
  writes a principal's new live bits to its own
  :class:`~repro.server.store.SessionStore` (RAM or spill tier) exactly
  when a row shows them narrowing — a steady-state frame writes
  nothing.  That mirror is what makes replicas disposable: when one
  dies (crash, kill -9), the dispatcher respawns it, refaults its owned
  principals from the mirror (:func:`~repro.server.store.iter_owned_states`),
  re-ships the plane, and replays the in-flight sub-batch once.

The pipe protocol is compact JSON frames (``Connection.send_bytes``),
one request/reply pair per frame except ``plane`` deltas, which are
one-way (the next batch is their acknowledgement).  Batch replies are
*positional*: one row per item, in item order, with no kind tag and no
principal echo — alignment is the protocol, and a reply that does not
align fails its sub-batch.  Canonical keys ride the same JSON-safe
codec snapshots and the v2 wire use
(:func:`repro.core.canonical.encode_key`).  See ``docs/pool.md`` for
the frame catalogue.

Equivalence contract: local == async-http == pooled, byte-for-byte on
cached-stripped decisions across the whole scenario suite
(``tests/scenarios/test_scenario_equivalence.py``); the `cached` flag
is the one legitimate divergence, since label-cache warmth is
per-replica.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.canonical import decode_key, encode_key
from repro.errors import PolicyError
from repro.server.batch import decide_wire_items
from repro.server.aio import dispatch, metrics_format, validate_batch_body
from repro.server.kernel import ServiceDecision
from repro.server.service import DisclosureService
from repro.server.partition import shard_for
from repro.server.store import (
    SessionState,
    SpillStore,
    iter_owned_states,
    state_of,
)

#: The per-item error entry for a replica that died and could not be
#: respawned in time; the asyncio front end maps it to HTTP 503.
REPLICA_UNAVAILABLE = "replica-unavailable"


def _encode(frame: object) -> bytes:
    return json.dumps(frame, separators=(",", ":")).encode("utf-8")


def _decode(data: bytes) -> List:
    return json.loads(data)


# ----------------------------------------------------------------------
# The worker side: one kernel replica per process
# ----------------------------------------------------------------------
def _worker_batch(service: DisclosureService, update: bool, items: List) -> List:
    """Decide one qid-native sub-batch; the replica half of ``batch``.

    Items are ``[principal, qid]`` pairs whose qids the parent already
    interned and shipped.  The reply is positional — one row per item,
    in item order: ``[accepted, cached, live_before, live_after,
    reason_index]`` for a decision (the index is into the frame's
    reason table) or the per-item error dict itself.  Nothing else
    rides along: the parent holds the items, and reads its mirror off
    ``live_before``/``live_after``.
    """
    entries = [(principal, None, qid) for principal, qid in items]
    results = decide_wire_items(
        service, entries, update=update, plane=service.kernel.plane
    )
    reasons: List[str] = []
    reason_index: Dict[str, int] = {}
    rows: List = []
    for result in results:
        if not isinstance(result, ServiceDecision):
            rows.append(result)
            continue
        index = reason_index.get(result.reason)
        if index is None:
            index = reason_index[result.reason] = len(reasons)
            reasons.append(result.reason)
        rows.append(
            [
                int(result.accepted),
                int(result.cached),
                result.live_before,
                result.live_after,
                index,
            ]
        )
    return ["ok", rows, reasons]


def _worker_restore(service: DisclosureService, rows: List) -> int:
    """Refault session states shipped by the parent (spawn/respawn)."""
    with service._lock:
        for principal, partitions, live, ephemeral in rows:
            service.store.put_state(
                principal,
                SessionState(
                    tuple(tuple(p) for p in partitions),
                    live,
                    bool(ephemeral),
                    service.state_epoch,
                ),
            )
    return len(rows)


def _replica_worker_main(
    index: int, conn, service_kwargs: Dict
) -> None:
    """Worker entry point: one service, one pipe, no HTTP.

    Top-level so it pickles under the ``spawn`` start method.  The loop
    is strictly request/reply (``plane`` frames excepted), so the parent
    and replica can never deadlock on a full pipe: at most one batch is
    in flight per replica.
    """
    if service_kwargs.get("spill_dir"):
        # Spill logs are single-writer: each replica owns its own
        # subdirectory.
        service_kwargs = dict(
            service_kwargs,
            spill_dir=os.path.join(
                os.fspath(service_kwargs["spill_dir"]), f"replica-{index}"
            ),
        )
    service = DisclosureService(**service_kwargs)
    kernel = service.kernel
    plane_error: Optional[str] = None
    conn.send_bytes(_encode(["ready", index]))
    while True:
        try:
            frame = _decode(conn.recv_bytes())
        except (EOFError, OSError):
            break
        kind = frame[0]
        if kind == "stop":
            break
        if kind == "plane":
            # One-way: errors are remembered and surfaced on the next
            # request/reply frame so the protocol never desynchronizes.
            try:
                _, epoch, floor, keys = frame
                plane = kernel.plane
                if plane.epoch != epoch:
                    plane = kernel.adopt_plane_epoch(epoch)
                if len(plane.queries) != floor:
                    raise RuntimeError(
                        f"plane drift: replica {index} holds "
                        f"{len(plane.queries)} keys, parent shipped from "
                        f"{floor}"
                    )
                intern_key = plane.queries.intern_key
                for key in keys:
                    intern_key(decode_key(key))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                plane_error = f"{type(exc).__name__}: {exc}"
            continue
        try:
            if plane_error is not None:
                reply: List = ["err", plane_error]
            elif kind == "batch":
                reply = _worker_batch(service, frame[1], frame[2])
            elif kind == "register":
                service.register(
                    frame[1], [tuple(p) for p in frame[2]]
                )
                reply = ["ok"]
            elif kind == "reset":
                try:
                    service.reset(frame[1])
                except PolicyError:
                    pass  # parent validated; a default-policy no-op
                reply = ["ok"]
            elif kind == "unregister":
                service.unregister(frame[1])
                reply = ["ok"]
            elif kind == "restore":
                reply = ["ok", _worker_restore(service, frame[1])]
            elif kind == "warm":
                from repro.server.persist import decode_cache_entries

                reply = ["ok", service.warm_label_cache(
                    decode_cache_entries(frame[1])
                )]
            elif kind == "metrics":
                reply = ["ok", service.metrics_snapshot()]
            elif kind == "snapshot":
                from repro.server.persist import snapshot_service

                reply = ["ok", snapshot_service(service)]
            else:
                reply = ["err", f"unknown frame kind {kind!r}"]
        except Exception as exc:  # noqa: BLE001 - report, don't die
            reply = ["err", f"{type(exc).__name__}: {exc}"]
        try:
            conn.send_bytes(_encode(reply))
        except (BrokenPipeError, OSError):
            break
    service.close()


# ----------------------------------------------------------------------
# The parent side: the dispatcher
# ----------------------------------------------------------------------
class ReplicaHandle:
    """One replica's process, pipe, and plane-sync watermark."""

    __slots__ = ("index", "process", "conn", "plane_epoch", "shipped")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: The plane epoch this replica last adopted (-1: never synced).
        self.plane_epoch = -1
        #: Count of qid rows shipped within that epoch.
        self.shipped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicaHandle({self.index}, pid={self.process.pid})"


class ReplicaPool:
    """N kernel-replica worker processes behind one parent service.

    The parent *service* never decides in pooled mode — it owns
    parsing, interning, the v2 gateway, admin validation, and the
    authoritative session mirror; every decision is dispatched to the
    replica owning its principal.  Construct, :meth:`start`, then hand
    the pool to :class:`repro.server.aio.AsyncDecisionServer`.
    """

    def __init__(
        self,
        service: DisclosureService,
        replicas: int,
        *,
        service_kwargs: Optional[Dict] = None,
        start_method: str = "spawn",
        ready_timeout: float = 60.0,
        warm_entries: Optional[List[Tuple]] = None,
    ):
        if replicas < 1:
            raise ValueError("need at least one kernel replica")
        self.service = service
        self.replicas = replicas
        self.service_kwargs = dict(service_kwargs or {})
        self.ready_timeout = ready_timeout
        import multiprocessing  # here, not above: embedded deployments never load it

        self._context = multiprocessing.get_context(start_method)
        self._warm_frame: Optional[List] = None
        if warm_entries:
            from repro.server.persist import encode_cache_entries

            # The parent owns interning: the warm keys enter its plane,
            # and each replica gets that plane ahead of the entries, so
            # warming interns nothing a replica's plane does not hold.
            service.kernel.intern_keys([key for key, _ in warm_entries])
            self._warm_frame = ["warm", encode_cache_entries(warm_entries)]
        self.handles: List[ReplicaHandle] = []
        #: Whether mirror applies may touch disk (spill-backed store).
        #: The async settle path sends those to the executor.
        self._mirror_blocking = isinstance(service.store, SpillStore)
        metrics = service.metrics
        #: Dispatch round-trip time (send → all replies applied), per
        #: tick segment; merged at scrape exactly like every histogram.
        self.dispatch_seconds = metrics.histogram(
            "repro_pool_dispatch_seconds"
        )
        self.batches = metrics.counter_vec(
            "repro_pool_batches_total", ("replica",)
        )
        self.items = metrics.counter_vec(
            "repro_pool_items_total", ("replica",)
        )
        self.respawns = metrics.counter_vec(
            "repro_pool_respawns_total", ("replica",)
        )
        #: Sessions written to the parent mirror because a decision row
        #: narrowed their live bits (0 per frame in steady state).
        self.mirror_writes = metrics.counter_vec(
            "repro_pool_mirror_writes_total", ("replica",)
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ReplicaPool":
        self.handles = [self._spawn(index) for index in range(self.replicas)]
        return self

    def close(self) -> None:
        for handle in self.handles:
            try:
                handle.conn.send_bytes(_encode(["stop"]))
            except (OSError, ValueError):
                pass
        for handle in self.handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.handles = []

    def _spawn(self, index: int) -> ReplicaHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_replica_worker_main,
            args=(index, child_conn, dict(self.service_kwargs)),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.ready_timeout):
            process.terminate()
            raise TimeoutError(
                f"kernel replica {index} did not come up within "
                f"{self.ready_timeout:g}s"
            )
        ready = _decode(parent_conn.recv_bytes())
        if ready[:1] != ["ready"]:
            process.terminate()
            raise RuntimeError(f"replica {index} sent {ready!r}, not ready")
        handle = ReplicaHandle(index, process, parent_conn)
        if self._warm_frame is not None:
            self._sync_plane(handle, self.service.kernel.plane)
            self._roundtrip(handle, self._warm_frame)
        # Refault this replica's principals from the parent mirror —
        # the same step whether this is a cold start, a warm restart
        # from a snapshot, or a mid-serve respawn after a crash.
        with self.service._lock:
            rows = [
                [
                    principal,
                    [list(p) for p in state.partitions],
                    state.live,
                    bool(state.ephemeral),
                ]
                for principal, state in iter_owned_states(
                    self.service.store, index, self.replicas
                )
            ]
        if rows:
            self._roundtrip(handle, ["restore", rows])
        return handle

    def _respawn(self, handle: ReplicaHandle) -> None:
        """Replace a dead replica in place; callers re-sync and replay."""
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)
        fresh = self._spawn(handle.index)
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.plane_epoch = fresh.plane_epoch
        handle.shipped = fresh.shipped
        self.respawns.labels(str(handle.index)).increment()

    # -- the pipe primitives -------------------------------------------
    def _check_reply(self, handle: ReplicaHandle, reply: Optional[List]) -> List:
        """An ``ok`` reply, or the replica's own error surfaced.

        Replicas answer ``["err", detail]`` for malformed or failed
        admin frames; that detail is the diagnosis, so it is raised
        verbatim rather than folded into a generic protocol failure.
        """
        if reply and reply[0] == "err":
            raise RuntimeError(
                f"replica {handle.index} error: "
                f"{reply[1] if len(reply) > 1 else 'unknown'}"
            )
        if not reply or reply[0] != "ok":
            raise RuntimeError(f"replica {handle.index} failed: {reply!r}")
        return reply

    def _roundtrip(self, handle: ReplicaHandle, frame: List) -> List:
        handle.conn.send_bytes(_encode(frame))
        reply = _decode(handle.conn.recv_bytes())
        return self._check_reply(handle, reply)

    async def _roundtrip_async(self, handle: ReplicaHandle, frame: List, asyncio) -> List:
        """:meth:`_roundtrip` awaited through the event loop.

        Both pipe ends are awaited for readiness first; the transfers
        themselves stay synchronous but bounded — the replica is
        draining (or filling) the other end concurrently.
        """
        await self._send_frame_async(handle, _encode(frame), asyncio)
        await self._wait_readable(handle, asyncio)
        reply = _decode(handle.conn.recv_bytes())  # repro: noqa[ASY01] - readability awaited above; remainder of a large reply streams in while the replica writes it
        return self._check_reply(handle, reply)

    def _plane_frames(self, handle: ReplicaHandle, plane) -> List[bytes]:
        """The encoded plane rows *handle* is missing, watermark advanced.

        Advancing ``plane_epoch``/``shipped`` here means the caller
        *must* deliver every returned frame (or let the failure path
        respawn, which resets both watermarks).
        """
        epoch = plane.epoch
        if handle.plane_epoch != epoch:
            keys = plane.queries.export_keys()
            handle.plane_epoch = epoch
            handle.shipped = len(keys)
            return [
                _encode(["plane", epoch, 0, [encode_key(key) for key in keys]])
            ]
        count = len(plane.queries)
        if handle.shipped < count:
            keys = plane.queries.export_keys_since(handle.shipped)
            start = handle.shipped
            handle.shipped += len(keys)
            return [
                _encode(
                    ["plane", epoch, start, [encode_key(key) for key in keys]]
                )
            ]
        return []

    def _sync_plane(self, handle: ReplicaHandle, plane) -> None:
        """Ship the qid rows *handle* is missing, ahead of their batch."""
        for data in self._plane_frames(handle, plane):
            handle.conn.send_bytes(data)

    async def _sync_plane_async(self, handle: ReplicaHandle, plane, asyncio) -> None:
        for data in self._plane_frames(handle, plane):
            await self._send_frame_async(handle, data, asyncio)

    async def _send_frame_async(self, handle: ReplicaHandle, data: bytes, asyncio) -> None:
        """Send one encoded frame without stalling the event loop.

        Pipe buffers are 64 KiB; a plane ship or a wide batch can
        exceed that while the replica is still busy, which is exactly
        when a bare ``send_bytes`` would block the loop.  Awaiting
        writability first keeps the wait on the loop; the send itself
        then drains against a replica that is actively reading.
        """
        await self._wait_writable(handle, asyncio)
        handle.conn.send_bytes(data)  # repro: noqa[ASY01] - writability awaited above; bounded drain against a reading replica

    @staticmethod
    async def _wait_writable(handle: ReplicaHandle, asyncio) -> None:
        """Yield until *handle*'s pipe accepts writes (or is dead)."""
        try:
            fd = handle.conn.fileno()
        except (OSError, ValueError):
            return  # dead pipe: the send will fail into the retry path
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        try:
            loop.add_writer(fd, lambda: ready.done() or ready.set_result(None))
        except (OSError, ValueError):
            return
        try:
            await ready
        finally:
            loop.remove_writer(fd)

    # -- the dispatch core ---------------------------------------------
    def owner_of(self, principal: Hashable) -> int:
        return shard_for(principal, self.replicas)

    def decide(
        self,
        entries: Sequence[Tuple],
        *,
        update: bool,
        plane=None,
        timings: Optional[Dict] = None,
    ) -> List:
        """The pooled :func:`~repro.server.batch.decide_wire_items`.

        Same entry and result shapes — ``(principal, query, qid)`` in,
        :class:`ServiceDecision`-or-error-dict out, aligned — so the
        asyncio drain and the v1 batch route swap it in transparently.
        Sub-batches go to every involved replica before any reply is
        awaited, so replicas decide concurrently; replies are gathered
        and applied in replica order, and the parent mirror absorbs
        every narrowed live vector before the call returns.
        """
        launched = self._launch(entries, update=update, plane=plane,
                                timings=timings)
        results, plane, pending, started = launched
        for handle, positions, frame, sent in pending:
            reply = self._try_recv(handle) if sent else None
            self._settle(handle, positions, frame, plane, reply, results)
        if pending:
            self._account(pending, started, timings)
        return results

    async def decide_async(
        self,
        entries: Sequence[Tuple],
        *,
        update: bool,
        plane=None,
        timings: Optional[Dict] = None,
    ) -> List:
        """:meth:`decide` for the asyncio front end: pipes are awaited.

        Sends and replies both go through the event loop's readiness
        callbacks, so the loop keeps parsing and queueing new requests
        while replicas compute.  The rare crash-recovery path (respawn +
        replay) runs in the default executor — correctness over latency
        when a process just died, but the loop still breathes.
        """
        import asyncio

        partitioned = self._partition(entries, update=update, plane=plane,
                                      timings=timings)
        results, plane, sub_frames, started = partitioned
        pending = []
        for handle, positions, frame in sub_frames:
            sent = True
            try:
                await self._sync_plane_async(handle, plane, asyncio)
                await self._send_frame_async(handle, _encode(frame), asyncio)
            except (OSError, ValueError):
                sent = False
            pending.append((handle, positions, frame, sent))
        for handle, positions, frame, sent in pending:
            reply = None
            if sent:
                await self._wait_readable(handle, asyncio)
                reply = self._try_recv(handle)  # repro: noqa[ASY01] - readability awaited above; bounded drain of an arriving reply
            await self._settle_async(handle, positions, frame, plane, reply,
                                     results, asyncio)
        if pending:
            self._account(pending, started, timings)
        return results

    @staticmethod
    async def _wait_readable(handle: ReplicaHandle, asyncio) -> None:
        """Yield until *handle*'s pipe has data (or EOF) to read."""
        try:
            if handle.conn.poll(0):
                return
            fd = handle.conn.fileno()
        except (OSError, ValueError):
            return  # dead pipe: the recv will fail into the retry path
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        try:
            loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
        except (OSError, ValueError):
            return
        try:
            await ready
        finally:
            loop.remove_reader(fd)

    def _partition(self, entries, *, update, plane, timings):
        """Validate, intern, and partition — no pipe I/O yet.

        Returns ``(results, plane, sub_frames, started)`` where
        *sub_frames* is ``[(handle, positions, frame), ...]`` in replica
        order, ready for either the sync or the awaited send path.
        """
        service = self.service
        if plane is None:
            plane = service.kernel.resolution_plane()
        entries = list(entries)
        results: List = [None] * len(entries)
        if not entries:
            return results, plane, [], 0.0
        label_started = perf_counter() if timings is not None else 0.0
        distinct = {principal for principal, _, _ in entries}
        # Unknown-principal isolation against the parent mirror — the
        # same pre-check decide_wire_items runs, against the same
        # authoritative session set.
        if service._default_policy is None:
            with service._lock:
                store = service.store
                distinct = {p for p in distinct if p in store}
        # One CRC-32 per distinct principal, not per item; a principal
        # left out of the map is an unknown one.
        replicas = self.replicas
        owner_of = {p: shard_for(p, replicas) for p in distinct}.get
        intern = plane.queries.intern
        sub_batches: List[Tuple[List[int], List]] = [
            ([], []) for _ in range(replicas)
        ]
        for index, (principal, query, qid) in enumerate(entries):
            owner = owner_of(principal)
            if owner is None:
                results[index] = {
                    "error": f"unknown principal {principal!r}",
                    "code": "unknown-principal",
                }
                continue
            positions, items = sub_batches[owner]
            positions.append(index)
            items.append([principal, intern(query) if qid is None else qid])
        if timings is not None:
            timings["label_us"] = (perf_counter() - label_started) * 1e6
        started = perf_counter()
        sub_frames = [
            (self.handles[owner], positions, ["batch", update, items])
            for owner, (positions, items) in enumerate(sub_batches)
            if items
        ]
        return results, plane, sub_frames, started

    def _launch(self, entries, *, update, plane, timings):
        """Validate, intern, partition, and send — the non-blocking half."""
        results, plane, sub_frames, started = self._partition(
            entries, update=update, plane=plane, timings=timings
        )
        pending = []
        for handle, positions, frame in sub_frames:
            sent = True
            try:
                self._sync_plane(handle, plane)
                handle.conn.send_bytes(_encode(frame))
            except (OSError, ValueError):
                sent = False
            pending.append((handle, positions, frame, sent))
        return results, plane, pending, started

    def _try_recv(self, handle: ReplicaHandle) -> Optional[List]:
        try:
            reply = _decode(handle.conn.recv_bytes())
        except (EOFError, OSError, ValueError):
            return None
        return reply if reply and reply[0] == "ok" else None

    def _absorb(self, handle, positions, frame, reply, results) -> Dict:
        """Fold one reply (or its absence) into *results*.

        Rows are positional, so decisions are rebuilt against the
        frame's own items.  Returns ``{principal: live}`` for every
        principal whose live bits a row narrowed — what is still to be
        mirrored, nothing for most frames.  No reply, a row count other
        than the item count, or a row that is neither five ints nor an
        error dict fails the whole sub-batch and mirrors nothing.
        """
        items = frame[2]
        narrowed: Dict[Hashable, int] = {}
        try:
            if reply is None or len(reply[1]) != len(items):
                raise ValueError("no reply, or not one row per item")
            reasons = reply[2]
            for position, (principal, _), row in zip(positions, items, reply[1]):
                if isinstance(row, dict):
                    results[position] = row
                    continue
                accepted, cached, live_before, live_after, reason = row
                # ``|`` is defined between ints only (TypeError for any
                # other field type); a negative field is just as foreign.
                if (accepted | cached | live_before | live_after | reason) < 0:
                    raise ValueError(f"negative field in row {row!r}")
                results[position] = ServiceDecision(
                    bool(accepted), principal, reasons[reason],
                    bool(cached), live_before, live_after, None,
                )
                if live_after != live_before:
                    # Live bits only narrow within a batch: last row wins.
                    narrowed[principal] = live_after
        except (TypeError, ValueError, LookupError):
            # Whatever rows were already placed are overwritten too.
            error = {
                "error": f"kernel replica {handle.index} unavailable",
                "code": REPLICA_UNAVAILABLE,
            }
            for position in positions:
                results[position] = dict(error)
            return {}
        return narrowed

    def _settle(self, handle, positions, frame, plane, reply, results) -> None:
        """Apply one replica's reply, retrying once through a respawn."""
        if reply is None:
            reply = self._retry(handle, plane, frame)
        narrowed = self._absorb(handle, positions, frame, reply, results)
        if narrowed:
            self._mirror(handle, narrowed)

    async def _settle_async(
        self, handle, positions, frame, plane, reply, results, asyncio
    ) -> None:
        """:meth:`_settle` with the blocking edges moved off the loop.

        The respawn-and-replay retry blocks for up to ``ready_timeout``
        (process start + mirror refault), so it runs in the default
        executor.  The mirror write — only when the frame narrowed
        someone — is a dict update under the parent lock unless the
        store spills to disk, in which case it goes to the executor too.
        """
        if reply is None:
            loop = asyncio.get_running_loop()
            reply = await loop.run_in_executor(
                None, self._retry, handle, plane, frame
            )
        narrowed = self._absorb(handle, positions, frame, reply, results)
        if narrowed:
            if self._mirror_blocking:
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, self._mirror, handle, narrowed
                )
            else:
                self._mirror(handle, narrowed)  # repro: noqa[ASY01] - RAM mirror: dict puts under an uncontended lock, microseconds

    def _retry(self, handle, plane, frame) -> Optional[List]:
        """One respawn + replay: refault from the mirror, re-ship the
        plane, resend the in-flight sub-batch.  The mirror reflects
        every *completed* batch, so the replay is exact unless the
        replica died inside this very frame — the documented
        at-least-once window (docs/pool.md)."""
        try:
            self._respawn(handle)
            self._sync_plane(handle, plane)
            handle.conn.send_bytes(_encode(frame))
        except (OSError, ValueError, TimeoutError, RuntimeError):
            return None
        return self._try_recv(handle)

    def _mirror(self, handle: ReplicaHandle, narrowed: Dict) -> None:
        """Write the live bits one frame narrowed into the parent mirror.

        Only ``live`` comes off the wire.  Policy and the ephemeral flag
        are the parent's own — it validated and applied every
        ``register`` before forwarding it — or, for a principal the
        parent has never stored, the default policy it was born from.
        """
        service = self.service
        store = service.store
        with service._lock:
            epoch = service.state_epoch
            for principal, live in narrowed.items():
                session = store.peek(principal)
                state = (
                    state_of(session)
                    if session is not None
                    else store.fault(principal)
                )
                if state is not None:
                    partitions, ephemeral = state.partitions, state.ephemeral
                elif service._default_policy is not None:
                    partitions, ephemeral = service._default_policy, True
                else:
                    continue  # unregistered while the frame was in flight
                store.put_state(
                    principal,
                    SessionState(partitions, live, ephemeral, epoch),
                )
        self.mirror_writes.labels(str(handle.index)).increment(len(narrowed))

    def _account(self, pending, started: float, timings) -> None:
        elapsed = perf_counter() - started
        self.dispatch_seconds.record(elapsed)
        if timings is not None:
            timings["decide_us"] = elapsed * 1e6
        for handle, positions, _, _ in pending:
            replica = str(handle.index)
            self.batches.labels(replica).increment()
            self.items.labels(replica).increment(len(positions))

    # -- admin / inline routes -----------------------------------------
    #: Inline routes the pool answers itself; :func:`dispatch`, where
    #: requests are otherwise counted, never sees them.
    _ANSWERED = frozenset(
        {("GET", "/metrics"), ("GET", "/internal/snapshot"), ("POST", "/v1/batch")}
    )
    #: Mutations the parent's dispatch validates and applies (and
    #: counts) first; the owning replica then follows.
    _FORWARDED = frozenset({("POST", "/v1/register"), ("POST", "/v1/reset")})

    def _claim(
        self, method: str, path: str, body: Optional[Dict]
    ) -> Optional[Tuple[str, str]]:
        """``(route, query_string)`` for an inline request the pool must
        serve (counted here when dispatch will not), else ``None``."""
        route, _, query_string = path.partition("?")
        if method == "POST" and body is None:
            return None
        if (method, route) in self._ANSWERED:
            requests = self.service.requests
            if requests is not None:
                requests.labels("async", route).increment()
        elif (method, route) not in self._FORWARDED:
            return None
        return route, query_string

    def dispatch_inline(
        self, method: str, path: str, body: Optional[Dict]
    ) -> Optional[Tuple[int, object]]:
        """Serve the inline routes that must not run on the parent alone.

        Returns ``None`` for routes the parent's ordinary dispatch
        handles correctly (``/healthz``, ``/v2/protocol``,
        ``/internal/trace``); everything session- or metrics-shaped is
        intercepted here so replicas and mirror stay in lockstep.
        ``POST /v2/batch`` is not an inline route in pooled mode: the
        front end resolves it and joins its entries to the tick's
        decision run, so :meth:`decide` is its data path.
        """
        claimed = self._claim(method, path, body)
        if claimed is None:
            return None
        route, query_string = claimed
        if route == "/metrics":
            fmt, error = metrics_format(query_string)
            if error is not None:
                return 400, {"error": error}
            return self._render_metrics(fmt, self.metrics_snapshot())
        if route == "/internal/snapshot":
            return 200, self.merged_snapshot()
        if route == "/v1/batch":
            return self._batch_v1(body)
        status, payload = dispatch(self.service, method, route, body)
        if status == 200:
            handle, frame = self._admin_frame(route, body)
            self._admin(handle, frame)
        return status, payload

    async def dispatch_inline_async(
        self, method: str, path: str, body: Optional[Dict]
    ) -> Optional[Tuple[int, object]]:
        """:meth:`dispatch_inline` for the asyncio front end.

        Same routes and payloads; replica pipes are awaited through the
        loop and respawns run in the default executor, so an admin call
        or merged scrape never stalls concurrently draining batches.
        """
        import asyncio

        claimed = self._claim(method, path, body)
        if claimed is None:
            return None
        route, query_string = claimed
        if route == "/metrics":
            fmt, error = metrics_format(query_string)
            if error is not None:
                return 400, {"error": error}
            snapshot = await self.metrics_snapshot_async(asyncio)
            return self._render_metrics(fmt, snapshot)
        if route == "/internal/snapshot":
            return 200, await self.merged_snapshot_async(asyncio)
        if route == "/v1/batch":
            return await self._batch_v1_async(body)
        status, payload = dispatch(self.service, method, route, body)
        if status == 200:
            handle, frame = self._admin_frame(route, body)
            await self._admin_async(handle, frame, asyncio)
        return status, payload

    @staticmethod
    def _render_metrics(fmt: str, snapshot: Dict) -> Tuple[int, object]:
        if fmt == "prometheus":
            from repro.obs import render_prometheus

            return 200, render_prometheus(snapshot)
        return 200, snapshot

    def _admin_frame(
        self, route: str, body: Dict
    ) -> Tuple[ReplicaHandle, List]:
        """The replica forward for a parent-validated admin mutation."""
        principal = body.get("principal")
        handle = self.handles[self.owner_of(principal)]
        if route == "/v1/register":
            partitions = [
                list(p)
                for p in self.service._normalize_policy(body["policy"])
            ]
            return handle, ["register", principal, partitions]
        return handle, ["reset", principal]

    def _admin(self, handle: ReplicaHandle, frame: List) -> None:
        """Forward an admin mutation; a dead replica is respawned, and
        the respawn's mirror refault already carries the mutation (the
        parent applied it first), so no replay is needed."""
        try:
            self._roundtrip(handle, frame)
        except (OSError, EOFError, ValueError, RuntimeError):
            try:
                self._respawn(handle)
            except (OSError, TimeoutError, RuntimeError):
                pass  # the next dispatch will retry the respawn

    async def _admin_async(self, handle: ReplicaHandle, frame: List, asyncio) -> None:
        """:meth:`_admin` awaited; the recovery respawn (process start +
        mirror refault, potentially seconds) runs in the executor."""
        try:
            await self._roundtrip_async(handle, frame, asyncio)
        except (OSError, EOFError, ValueError, RuntimeError):
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, self._respawn, handle)
            except (OSError, TimeoutError, RuntimeError):
                pass  # the next dispatch will retry the respawn

    def _batch_v1_prepare(self, body: Dict):
        """Parse and pre-validate a v1 batch on the parent — no pipes.

        Returns ``(error, results, positions, entries, peek)``; *error*
        is a ready HTTP response when validation already failed.
        """
        from repro.server.batch import parse_wire_request

        requests, peek, error = validate_batch_body(body)
        if error is not None:
            return error, [], [], [], False
        service = self.service
        results: List[Optional[Dict]] = [None] * len(requests)
        positions: List[int] = []
        entries: List[Tuple] = []
        for index, request in enumerate(requests):
            item, message = parse_wire_request(service, request)
            if message is not None:
                results[index] = {"error": message}
                continue
            principal = item[0]
            if principal not in service and service._default_policy is None:
                results[index] = {"error": f"unknown principal {principal!r}"}
                continue
            positions.append(index)
            entries.append((principal, item[1], None))
        return None, results, positions, entries, peek

    @staticmethod
    def _batch_v1_finish(results, positions, decided) -> Tuple[int, Dict]:
        for position, decision in zip(positions, decided):
            if isinstance(decision, ServiceDecision):
                results[position] = decision.as_dict()
            else:  # v1 keeps its historical error shape (no code)
                results[position] = {
                    "error": decision.get("error", "replica failure")
                }
        return 200, {"decisions": results, "count": len(results)}

    def _batch_v1(self, body: Dict) -> Tuple[int, Dict]:
        """``POST /v1/batch`` pooled: parse on the parent, decide on the
        replicas, reassemble in input order (the v1 error shapes)."""
        error, results, positions, entries, peek = self._batch_v1_prepare(body)
        if error is not None:
            return error
        decided = self.decide(entries, update=not peek) if entries else []
        return self._batch_v1_finish(results, positions, decided)

    async def _batch_v1_async(self, body: Dict) -> Tuple[int, Dict]:
        error, results, positions, entries, peek = self._batch_v1_prepare(body)
        if error is not None:
            return error
        decided = (
            await self.decide_async(entries, update=not peek)
            if entries
            else []
        )
        return self._batch_v1_finish(results, positions, decided)

    # -- merged views ---------------------------------------------------
    def metrics_snapshot(self) -> Dict:
        """One deployment-wide ``/metrics`` payload, merged at scrape.

        Replica snapshots merge through
        :func:`~repro.server.partition.aggregate_metrics`
        (counters sum, latency percentiles re-derive from merged
        buckets, registry series merge); the parent's own registry —
        request counters, pool dispatch timing, respawn counts — is
        folded in on top.  The parent never decides, so nothing double
        counts.
        """
        snapshots = []
        for handle in self.handles:
            reply = self._admin_reply(handle, ["metrics"])
            if reply is not None:
                snapshots.append(reply[1])
        return self._merge_metrics(snapshots)

    async def metrics_snapshot_async(self, asyncio) -> Dict:
        """:meth:`metrics_snapshot` with the replica scrapes awaited."""
        snapshots = []
        for handle in self.handles:
            reply = await self._admin_reply_async(handle, ["metrics"], asyncio)
            if reply is not None:
                snapshots.append(reply[1])
        return self._merge_metrics(snapshots)

    def _merge_metrics(self, snapshots: List[Dict]) -> Dict:
        from repro.obs import merge_registry_snapshots
        from repro.server.partition import aggregate_metrics

        merged = aggregate_metrics(snapshots)
        merged["replica_count"] = merged.pop("shard_count", len(snapshots))
        merged["replicas"] = merged.pop("shards", snapshots)
        parent = self.service.metrics_snapshot()
        merged["uptime_seconds"] = max(
            merged.get("uptime_seconds", 0.0),
            parent.get("uptime_seconds", 0.0),
        )
        merged["registry"] = merge_registry_snapshots(
            [merged.get("registry"), parent.get("registry")]
        )
        return merged

    def snapshot_payloads(self) -> List[Dict]:
        """Every live replica's snapshot payload (sessions, cache,
        counters) — the inputs of the pooled snapshot merge."""
        payloads = []
        for handle in self.handles:
            reply = self._admin_reply(handle, ["snapshot"])
            if reply is not None:
                payloads.append(reply[1])
        return payloads

    def merged_snapshot(self) -> Dict:
        """The replica payloads folded into one restorable, topology-free
        payload (:func:`~repro.server.partition.merge_snapshot_payloads`)."""
        from repro.server.partition import merge_snapshot_payloads

        return merge_snapshot_payloads(self.snapshot_payloads())

    async def merged_snapshot_async(self, asyncio) -> Dict:
        """:meth:`merged_snapshot` with the replica reads awaited."""
        from repro.server.partition import merge_snapshot_payloads

        payloads = []
        for handle in self.handles:
            reply = await self._admin_reply_async(
                handle, ["snapshot"], asyncio
            )
            if reply is not None:
                payloads.append(reply[1])
        return merge_snapshot_payloads(payloads)

    def _admin_reply(self, handle: ReplicaHandle, frame: List) -> Optional[List]:
        try:
            return self._roundtrip(handle, frame)
        except (OSError, EOFError, ValueError, RuntimeError):
            try:
                self._respawn(handle)
                return self._roundtrip(handle, frame)
            except (OSError, EOFError, ValueError, TimeoutError, RuntimeError):
                return None

    async def _admin_reply_async(
        self, handle: ReplicaHandle, frame: List, asyncio
    ) -> Optional[List]:
        try:
            return await self._roundtrip_async(handle, frame, asyncio)
        except (OSError, EOFError, ValueError, RuntimeError):
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, self._respawn, handle)
                return await self._roundtrip_async(handle, frame, asyncio)
            except (OSError, EOFError, ValueError, TimeoutError, RuntimeError):
                return None


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
class BackgroundPoolServer:
    """A pooled asyncio front end on a daemon thread (tests, benchmarks)."""

    def __init__(self, handle, pool: ReplicaPool, service: DisclosureService):
        self.handle = handle
        self.pool = pool
        self.service = service
        self.host = handle.host
        self.port = handle.port
        self.server = handle.server

    def stop(self, timeout: float = 5.0) -> None:
        self.handle.stop(timeout)
        self.pool.close()
        self.service.close()


def start_pooled_background(
    replicas: int,
    *,
    service_kwargs: Optional[Dict] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    start_method: str = "spawn",
) -> BackgroundPoolServer:
    """One pooled asyncio front end, ready to serve; returns a handle.

    *service_kwargs* configures both the parent (mirror) service and
    every replica — they must describe the same vocabulary and policy
    defaults or decisions would diverge from the single-process form.
    """
    from repro.server.aio import start_async_background

    kwargs = dict(service_kwargs or {})
    parent_kwargs = dict(kwargs)
    if parent_kwargs.get("spill_dir"):
        parent_kwargs["spill_dir"] = os.path.join(
            os.fspath(parent_kwargs["spill_dir"]), "front"
        )
    service = DisclosureService(**parent_kwargs)
    pool = ReplicaPool(
        service, replicas, service_kwargs=kwargs, start_method=start_method
    ).start()
    try:
        handle = start_async_background(service, host, port, pool=pool)
    except Exception:
        pool.close()
        service.close()
        raise
    return BackgroundPoolServer(handle, pool, service)
