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
  ships qid-native sub-batches over socketpairs to replica interpreters
  (:mod:`repro.server.replica`), and reassembles replies in arrival
  order — the drain's order-exactness
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
  process-local: labels are a pure function of the query shape, so
  nothing lid-shaped ever crosses the pipe — a label travels as its
  packed bits beside its qid.
* **The parent holds the durable state.**  Sessions, label warmth and
  decision counts all live in the parent, so a snapshot is a cut of the
  parent alone (``serve --replicas N --state-dir`` writes the same
  chain of full bases and deltas as an unpooled server) and a killed
  replica takes nothing with it.  A batch reply names the labels its
  frame newly cached, the parent imports them into its own cache, and
  every replica is primed from that cache at start and at respawn; the
  parent counts each decision it absorbs (:func:`batch.account`).
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
is the one legitimate divergence, since a replica's cache holds only
the shapes its own principals asked (and whatever it was primed with).
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import subprocess
import sys
from multiprocessing.connection import Connection
from time import monotonic, perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.canonical import decode_key, encode_key
from repro.errors import PolicyError, ReplicaStartError
from repro.server.batch import _blocking, account, admit_entries, decide_wire_items
from repro.server.kernel import ServiceDecision
from repro.server.service import DisclosureService
from repro.server.partition import shard_for
from repro.server.store import (
    SessionState,
    SpillStore,
    encode_states,
    iter_owned_states,
    state_of,
)

#: The per-item error entry for a replica that died and could not be
#: respawned in time; the asyncio front end maps it to HTTP 503.
REPLICA_UNAVAILABLE = "replica-unavailable"

#: Seconds a replica may take to announce itself before its start fails.
READY_TIMEOUT = 60.0

#: Where ``repro`` is imported from: a replica's interpreter must find
#: its entry module before the first frame hands it the parent's
#: ``sys.path``.
_PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


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
    interned and shipped.  The rows are positional — one per item, in
    item order: ``[accepted, cached, live_before, live_after,
    reason_index]`` for a decision (the index is into the frame's
    reason table) or the per-item error dict itself.  The parent holds
    the items, and reads its mirror off ``live_before``/``live_after``.
    The last section is ``[[qid, packed_label], ...]`` for every qid
    this frame put into the label cache (its uncached rows; none when
    the cache is disabled), which the parent's cache mirrors.
    """
    kernel = service.kernel
    entries = [(principal, None, qid) for principal, qid in items]
    results = decide_wire_items(service, entries, update=update, plane=kernel.plane)
    caching = kernel.label_cache.maxsize > 0
    reasons: List[str] = []
    reason_index: Dict[str, int] = {}
    rows: List = []
    labels: List = []
    for (_, qid), result in zip(items, results):
        if not isinstance(result, ServiceDecision):
            rows.append(result)
            continue
        if caching and not result.cached:
            labels.append([qid, result.label])
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
    return ["ok", rows, reasons, labels]


def _replica_worker_main(
    index: int, conn, service_kwargs: Dict
) -> None:
    """Worker loop: one service, one pipe, no HTTP.

    Run by :mod:`repro.server.replica` once the first frame has
    configured the process.  The loop is strictly request/reply
    (``plane`` frames excepted), so the parent and replica can never
    deadlock on a full pipe: at most one batch is in flight per replica.
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
            elif kind == "restore":
                reply = ["ok", service.import_state(frame[1])]
            elif kind == "warm":
                from repro.server.persist import decode_interned_cache

                reply = ["ok", service.warm_label_cache(
                    decode_interned_cache(frame[1])
                )]
            elif kind == "metrics":
                reply = ["ok", service.metrics_snapshot()]
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

    def __init__(self, index: int, process: subprocess.Popen, conn: Connection):
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
    parsing, interning, the v2 gateway, admin validation, the decision
    counts, and the authoritative mirror of sessions and label warmth;
    every decision is dispatched to the replica owning its principal.
    Construct, :meth:`start`, then hand the pool to
    :class:`repro.server.aio.AsyncDecisionServer`.  A caller with setup
    of its own (a warm restart into the parent) can :meth:`launch`
    first, so the replicas boot while it works, and :meth:`start`
    afterwards.

    Every pipe operation is one coroutine taking ``loop``: the asyncio
    front end passes its running loop, and ``loop=None`` runs the same
    body blocking (:func:`_blocking`) — for starts, and behind the two
    public façades :meth:`decide` and :meth:`dispatch_inline`.
    """

    def __init__(
        self,
        service: DisclosureService,
        replicas: int,
        *,
        service_kwargs: Optional[Dict] = None,
    ):
        if replicas < 1:
            raise ValueError("need at least one kernel replica")
        self.service = service
        self.replicas = replicas
        self.service_kwargs = dict(service_kwargs or {})
        self.handles: List[ReplicaHandle] = []
        #: True while an :class:`~repro.server.aio.AsyncDecisionServer`
        #: serves this pool; the blocking façades refuse to run then.
        self.served = False
        #: Whether mirror applies may touch disk (spill-backed store).
        #: A served pool sends those to the executor.
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
    def launch(self) -> "ReplicaPool":
        """Start every replica's interpreter and return at once.

        The replicas boot concurrently with whatever the caller does
        next; :meth:`start` waits for them.
        """
        if not self.handles:
            self.handles = self._launch(range(self.replicas))
        return self

    def start(self) -> "ReplicaPool":
        """Launch (unless :meth:`launch` already did), wait until every
        replica is ready, then bring each level with the parent.

        Raises :class:`~repro.errors.ReplicaStartError` for a replica
        that does not come up, after every replica is stopped.
        """
        self.launch()
        # A failed start keeps no handles: _bring_up reaps them all.
        handles, self.handles = self.handles, []
        self._bring_up(handles)
        self.handles = handles
        return self

    def close(self) -> None:
        for handle in self.handles:
            try:
                handle.conn.send_bytes(_encode(["stop"]))
            except (OSError, ValueError):
                pass
        for handle in self.handles:
            self._reap(handle, grace=5.0)
        self.handles = []

    def _launch(self, indices) -> List[ReplicaHandle]:
        """One child interpreter per index, each then sent its first frame.

        A replica is ``python -m repro.server.replica FD INDEX`` on one
        end of a socketpair.  Every child is running before any first
        frame is sent: a frame larger than the socket buffer waits for
        its replica to read it, and must not hold up the next launch.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH")))
        )
        handles: List[ReplicaHandle] = []
        try:
            for index in indices:
                ours, theirs = socket.socketpair()
                with ours, theirs:
                    fd = theirs.fileno()
                    process = subprocess.Popen(
                        [sys.executable, "-m", "repro.server.replica",
                         str(fd), str(index)],
                        pass_fds=(fd,),
                        env=env,
                    )
                    conn = Connection(ours.detach())
                handles.append(ReplicaHandle(index, process, conn))
            first = pickle.dumps(sys.path) + pickle.dumps(self.service_kwargs)
            for handle in handles:
                try:
                    handle.conn.send_bytes(first)
                except OSError:
                    pass  # it died: waiting for its ready frame says how
        except BaseException:
            for handle in handles:
                self._reap(handle)
            raise
        return handles

    def _bring_up(self, handles: List[ReplicaHandle]) -> None:
        """Wait for every launched replica's ``ready`` frame, then prime
        each in turn; on any failure stop and reap them all, and raise."""
        deadline = monotonic() + READY_TIMEOUT
        try:
            for handle in handles:
                self._await_ready(handle, deadline)
            for handle in handles:
                try:
                    self._prime(handle)
                except (EOFError, OSError) as exc:
                    raise self._failed(handle, "died while primed") from exc
        except BaseException:
            for handle in handles:
                self._reap(handle)
            raise

    def _await_ready(self, handle: ReplicaHandle, deadline: float) -> None:
        try:
            if not handle.conn.poll(max(0.0, deadline - monotonic())):
                raise self._failed(
                    handle, f"did not come up within {READY_TIMEOUT:g}s"
                )
            ready = _decode(handle.conn.recv_bytes())
        except (EOFError, OSError):
            raise self._failed(handle, "exited before it was ready") from None
        except ValueError:
            ready = None
        if ready != ["ready", handle.index]:
            raise self._failed(handle, f"sent {ready!r}, not ready")

    def _failed(self, handle: ReplicaHandle, detail: str) -> ReplicaStartError:
        return ReplicaStartError(handle.index, self._reap(handle, 5.0), detail)

    @staticmethod
    def _reap(handle: ReplicaHandle, grace: float = 0.0) -> int:
        """Close *handle*'s pipe and wait for its process to exit: *grace*
        seconds on its own (a replica ignores SIGTERM), then killed.
        Returns its exit status."""
        handle.conn.close()
        process = handle.process
        try:
            return process.wait(grace)
        except subprocess.TimeoutExpired:
            process.kill()
            return process.wait()

    def _prime(self, handle: ReplicaHandle) -> None:
        """Bring a ready replica level with the parent: the plane, then
        the parent's label cache, then its principals refaulted from the
        mirror — the same step for a cold start, a warm restart from a
        snapshot, and a mid-serve respawn after a crash."""
        kernel = self.service.kernel
        # Exported before the plane ships, so every key is on the
        # shipped plane and warming interns nothing new on the replica.
        entries = kernel.export_label_cache()
        _blocking(self._sync_plane(handle, kernel.plane, None))
        if entries:
            from repro.server.persist import encode_interned_cache

            frame = ["warm", encode_interned_cache(entries)]
            _blocking(self._roundtrip(handle, frame, None))
        with self.service._lock:
            table = encode_states(
                iter_owned_states(self.service.store, handle.index, self.replicas)
            )
        if table["sessions"]:
            _blocking(self._roundtrip(handle, ["restore", table], None))

    def _respawn(self, handle: ReplicaHandle) -> None:
        """Replace a dead replica in place; callers re-sync and replay.

        Raises :class:`~repro.errors.ReplicaStartError` if the new one
        does not come up.
        """
        self._reap(handle)
        (fresh,) = self._launch([handle.index])
        self._bring_up([fresh])
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.plane_epoch = fresh.plane_epoch
        handle.shipped = fresh.shipped
        self.respawns.labels(str(handle.index)).increment()

    # -- the pipe primitives -------------------------------------------
    # With a loop, a transfer first awaits its pipe end's readiness; the
    # transfer itself then stays synchronous but bounded, against a
    # replica draining (or filling) the other end.  With ``loop=None``
    # the waits return at once and the transfer does the waiting.
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

    async def _roundtrip(self, handle: ReplicaHandle, frame: List, loop) -> List:
        await self._send(handle, _encode(frame), loop)
        return self._check_reply(handle, await self._recv(handle, loop))

    async def _send(self, handle: ReplicaHandle, data: bytes, loop) -> None:
        """Send one encoded frame without stalling the event loop.

        Pipe buffers are 64 KiB; a plane ship or a wide batch can
        exceed that while the replica is still busy, which is exactly
        when a bare ``send_bytes`` would block the loop.
        """
        await self._wait_writable(handle, loop)
        handle.conn.send_bytes(data)  # repro: noqa[ASY01] - writability awaited above; bounded drain against a reading replica

    async def _recv(self, handle: ReplicaHandle, loop) -> List:
        await self._wait_readable(handle, loop)
        return _decode(handle.conn.recv_bytes())  # repro: noqa[ASY01] - readability awaited above; the rest of a large reply streams in while the replica writes it

    async def _try_recv(self, handle: ReplicaHandle, loop) -> Optional[List]:
        """The next reply if it is ``ok``; ``None`` for a dead pipe,
        undecodable bytes or an error reply (the retry path's cue)."""
        try:
            reply = await self._recv(handle, loop)
        except (EOFError, OSError, ValueError):
            return None
        return reply if reply and reply[0] == "ok" else None

    async def _sync_plane(self, handle: ReplicaHandle, plane, loop) -> None:
        """Ship the qid rows *handle* is missing, ahead of their batch.

        The watermark advances before the send, so a failed send must
        end in a respawn, which resets it.
        """
        epoch = plane.epoch
        if handle.plane_epoch != epoch:
            start, keys = 0, plane.queries.export_keys()
            handle.plane_epoch = epoch
        elif handle.shipped < len(plane.queries):
            start = handle.shipped
            keys = plane.queries.export_keys_since(start)
        else:
            return
        handle.shipped = start + len(keys)
        frame = ["plane", epoch, start, [encode_key(key) for key in keys]]
        await self._send(handle, _encode(frame), loop)

    @staticmethod
    async def _wait_writable(handle: ReplicaHandle, loop) -> None:
        """Yield until *handle*'s pipe accepts writes (or is dead)."""
        if loop is None:
            return
        try:
            fd = handle.conn.fileno()
        except (OSError, ValueError):
            return  # dead pipe: the send will fail into the retry path
        ready = loop.create_future()
        try:
            loop.add_writer(fd, lambda: ready.done() or ready.set_result(None))
        except (OSError, ValueError):
            return
        try:
            await ready
        finally:
            loop.remove_writer(fd)

    @staticmethod
    async def _wait_readable(handle: ReplicaHandle, loop) -> None:
        """Yield until *handle*'s pipe has data (or EOF) to read."""
        if loop is None:
            return
        try:
            if handle.conn.poll(0):
                return
            fd = handle.conn.fileno()
        except (OSError, ValueError):
            return  # dead pipe: the recv will fail into the retry path
        ready = loop.create_future()
        try:
            loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
        except (OSError, ValueError):
            return
        try:
            await ready
        finally:
            loop.remove_reader(fd)

    @staticmethod
    async def _offload(loop, function, *args):
        """Run a blocking step — a respawn (process start + mirror
        refault, up to ``READY_TIMEOUT``) or a spill-backed mirror
        write: in the default executor while a loop serves, so the loop
        keeps breathing; inline for a blocking caller."""
        if loop is None:
            return function(*args)  # no event loop to stall
        return await loop.run_in_executor(None, function, *args)

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
        """:meth:`decide_async`, blocking (the ledger's ``pool.decide``)."""
        return _blocking(
            self.decide_async(
                entries, update=update, plane=plane, timings=timings, loop=None
            ),
            self.served,
        )

    async def decide_async(
        self,
        entries: Sequence[Tuple],
        *,
        update: bool,
        plane=None,
        timings: Optional[Dict] = None,
        loop,
    ) -> List:
        """The pooled :func:`~repro.server.batch.decide_wire_items`.

        Same entry and result shapes — ``(principal, query, qid)`` in,
        :class:`ServiceDecision`-or-error-dict out, aligned — so the
        asyncio tick drain swaps it in transparently.
        Sub-batches go to every involved replica before any reply is
        awaited, so replicas decide concurrently; replies are gathered
        and applied in replica order, and the parent absorbs every
        narrowed live vector and newly cached label, and counts every
        decision, before the call returns.  Served, the loop keeps
        parsing and queueing new requests while replicas compute.
        """
        service = self.service
        if plane is None:
            plane = service.kernel.resolution_plane()
        entries = list(entries)
        results: List = [None] * len(entries)
        if not entries:
            return results
        begun = perf_counter()
        label_started = begun if timings is not None else 0.0
        # The parent admits and interns for its replicas, through the
        # same step as decide_wire_items, then sorts the admitted
        # positions by owner: one CRC-32 per distinct principal.
        admitted, qids, _ = admit_entries(service, plane, entries, results)
        replicas = self.replicas
        owners: Dict[Hashable, int] = {}
        sub_batches: List[Tuple[List[int], List]] = [
            ([], []) for _ in range(replicas)
        ]
        for index, qid in zip(admitted, qids):
            principal = entries[index][0]
            owner = owners.get(principal)
            if owner is None:
                owner = owners[principal] = shard_for(principal, replicas)
            positions, items = sub_batches[owner]
            positions.append(index)
            items.append([principal, qid])
        if timings is not None:
            timings["label_us"] = (perf_counter() - label_started) * 1e6
        started = perf_counter()
        pending = []
        for owner, (positions, items) in enumerate(sub_batches):
            if not items:
                continue
            handle = self.handles[owner]
            frame = ["batch", update, items]
            sent = True
            try:
                await self._sync_plane(handle, plane, loop)
                await self._send(handle, _encode(frame), loop)
            except (OSError, ValueError):
                sent = False
            pending.append((handle, positions, frame, sent))
        for handle, positions, frame, sent in pending:
            reply = await self._try_recv(handle, loop) if sent else None
            await self._settle(handle, positions, frame, plane, reply,
                               results, loop)
        if pending:
            self._count_frames(pending, started, timings)
        decided = accepted = 0
        for result in results:
            if type(result) is ServiceDecision:
                decided += 1
                accepted += result.accepted
        account(service, decided, accepted, update, begun)
        return results

    def _absorb(self, handle, positions, frame, plane, reply, results) -> Dict:
        """Fold one reply (or its absence) into *results* and the
        parent's label cache.

        Rows are positional, so decisions are rebuilt against the
        frame's own items.  Returns ``{principal: live}`` for every
        principal whose live bits a row narrowed — what is still to be
        mirrored, nothing for most frames.  No reply, a row count other
        than the item count, a row that is neither five ints nor an
        error dict, or a label entry that is not a qid of *plane* with
        its int label, fails the whole sub-batch and mirrors nothing.
        """
        items = frame[2]
        narrowed: Dict[Hashable, int] = {}
        try:
            _, rows, reasons, labels = reply
            if len(rows) != len(items):
                raise ValueError("not one row per item")
            key_of = plane.queries.key_of
            cache = []
            for qid, label in labels:
                label = tuple(label)
                if qid < 0 or any(type(bits) is not int for bits in label):
                    raise ValueError(f"malformed label entry for qid {qid!r}")
                cache.append((key_of(qid), label))
            for position, (principal, _), row in zip(positions, items, rows):
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
        except (TypeError, ValueError, LookupError):  # a None reply too
            # Whatever rows were already placed are overwritten too.
            error = {
                "error": f"kernel replica {handle.index} unavailable",
                "code": REPLICA_UNAVAILABLE,
            }
            for position in positions:
                results[position] = dict(error)
            return {}
        if cache:
            self.service.kernel.import_label_cache(cache)
        return narrowed

    async def _settle(
        self, handle, positions, frame, plane, reply, results, loop
    ) -> None:
        """Apply one replica's reply, retrying once through a respawn.

        The mirror write — only when the frame narrowed someone — is a
        dict update under the parent lock unless the store spills to
        disk, in which case it is offloaded like the respawn.
        """
        if reply is None:
            reply = await self._retry(handle, plane, frame, loop)
        narrowed = self._absorb(handle, positions, frame, plane, reply, results)
        if narrowed:
            if self._mirror_blocking:
                await self._offload(loop, self._mirror, handle, narrowed)
            else:
                self._mirror(handle, narrowed)  # repro: noqa[ASY01] - RAM mirror: dict puts under an uncontended lock, microseconds

    async def _retry(self, handle, plane, frame, loop) -> Optional[List]:
        """One respawn + replay: refault from the mirror, re-ship the
        plane, resend the in-flight sub-batch.  The mirror reflects
        every *completed* batch, so the replay is exact unless the
        replica died inside this very frame — the documented
        at-least-once window (docs/pool.md)."""
        try:
            await self._offload(loop, self._respawn, handle)
            await self._sync_plane(handle, plane, loop)
            await self._send(handle, _encode(frame), loop)
        except (OSError, ValueError, TimeoutError, RuntimeError):
            return None
        return await self._try_recv(handle, loop)

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
                store.put_state(principal, SessionState(partitions, live, ephemeral))
                service._mark_dirty(principal)
        self.mirror_writes.labels(str(handle.index)).increment(len(narrowed))

    def _count_frames(self, pending, started: float, timings) -> None:
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
    _ANSWERED = frozenset({("GET", "/metrics")})
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
            self.service.requests.labels("async", route).increment()
        elif (method, route) not in self._FORWARDED:
            return None
        return route, query_string

    def dispatch_inline(
        self, method: str, path: str, body: Optional[Dict]
    ) -> Optional[Tuple[int, object]]:
        """:meth:`dispatch_inline_async`, blocking."""
        return _blocking(
            self.dispatch_inline_async(method, path, body, loop=None),
            self.served,
        )

    async def dispatch_inline_async(
        self, method: str, path: str, body: Optional[Dict], *, loop
    ) -> Optional[Tuple[int, object]]:
        """Serve the inline routes that must not run on the parent alone.

        Returns ``None`` for routes the parent's ordinary dispatch
        handles correctly (``/healthz``, ``/v2/protocol``,
        ``/internal/trace``, and ``/internal/snapshot``, a cut of the
        parent's durable state); ``/metrics`` merges the replicas in,
        and the admin mutations are forwarded so replicas and mirror
        stay in lockstep.
        Neither batch route is inline: the front end resolves a batch
        and joins its entries to the tick's decision run, so
        :meth:`decide_async` is its data path.
        """
        claimed = self._claim(method, path, body)
        if claimed is None:
            return None
        from repro.server.aio import dispatch, metrics_format

        route, query_string = claimed
        if route == "/metrics":
            fmt, error = metrics_format(query_string)
            if error is not None:
                return 400, {"error": error}
            snapshot = await self.metrics_snapshot(loop)
            if fmt == "prometheus":
                from repro.obs import render_prometheus

                return 200, render_prometheus(snapshot)
            return 200, snapshot
        status, payload = dispatch(self.service, method, route, body)
        if status == 200:
            handle, frame = self._admin_frame(route, body)
            await self._admin(handle, frame, loop)
        return status, payload

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

    async def _admin(self, handle: ReplicaHandle, frame: List, loop) -> None:
        """Forward an admin mutation; a dead replica is respawned, and
        the respawn's mirror refault already carries the mutation (the
        parent applied it first), so no replay is needed."""
        try:
            await self._roundtrip(handle, frame, loop)
        except (OSError, EOFError, ValueError, RuntimeError):
            try:
                await self._offload(loop, self._respawn, handle)
            except (OSError, TimeoutError, RuntimeError):
                pass  # the next dispatch will retry the respawn

    # -- the merged view -----------------------------------------------
    async def metrics_snapshot(self, loop) -> Dict:
        """One deployment-wide ``/metrics`` payload, merged at scrape.

        The parent counts every decision it absorbs, so the decision
        counts, the latency histogram and every registry scalar are the
        parent's alone — a replica killed mid-stream takes none of them
        with it.  The replicas contribute what only they hold, merged
        through :func:`~repro.server.partition.aggregate_metrics`: the
        caches, the sessions, the kernel gauges and the labeled vectors
        (tenant, stage, spill), beside the parent's own vectors
        (requests, pool dispatch, respawns).
        """
        from repro.obs import merge_registry_snapshots
        from repro.server.partition import aggregate_metrics

        replies = [
            await self._admin_reply(handle, ["metrics"], loop)
            for handle in self.handles
        ]
        snapshots = [reply[1] for reply in replies if reply is not None]
        merged = aggregate_metrics(snapshots)
        merged["replica_count"] = merged.pop("shard_count", len(snapshots))
        merged["replicas"] = merged.pop("shards", snapshots)
        parent = self.service.metrics_snapshot()
        for name in ("decisions", "accepted", "refused", "peeks", "latency"):
            merged[name] = parent[name]
        merged["uptime_seconds"] = max(
            merged["uptime_seconds"], parent["uptime_seconds"]
        )
        merged["registry"] = merge_registry_snapshots(
            [{"vectors": merged["registry"]["vectors"]}, parent["registry"]]
        )
        return merged

    async def _admin_reply(
        self, handle: ReplicaHandle, frame: List, loop
    ) -> Optional[List]:
        try:
            return await self._roundtrip(handle, frame, loop)
        except (OSError, EOFError, ValueError, RuntimeError):
            try:
                await self._offload(loop, self._respawn, handle)
                return await self._roundtrip(handle, frame, loop)
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
    pool = ReplicaPool(service, replicas, service_kwargs=kwargs).start()
    try:
        handle = start_async_background(service, host, port, pool=pool)
    except Exception:
        pool.close()
        service.close()
        raise
    return BackgroundPoolServer(handle, pool, service)
