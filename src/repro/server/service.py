"""The multi-principal disclosure decision service.

This is the paper's deployment shape (Sections 3.4, 6, 7.2): an online
reference monitor mediating the query traffic of an app ecosystem with
very many principals.  Three observations make it fast and small:

* **Labels are principal-free** — one shared canonical-query →
  packed-label cache serves every session; a warm decision never runs
  the labeler at all.
* **Sessions are tiny** — per Section 6.2 a principal's entire
  enforcement state is its policy plus one live-partition bit vector
  (Example 6.3), so state serializes to a few bytes, an LRU of
  resident sessions can front millions of passive principals, and
  everything compiled from a policy (grant masks, decision memos) is
  built once per *policy* and shared by its sessions
  (:class:`~repro.server.kernel.CompiledPolicy`).
* **Decisions are integer ops** — queries and labels are interned into
  dense ids (:mod:`repro.server.interning`) and every decision runs
  through the one array-native :class:`~repro.server.kernel.DecisionKernel`,
  whether it arrives as a single call, a batch, or a replica sub-batch.

The service itself is the *session store and transport adapter*: it
owns registration, the LRU of resident sessions, serializable state,
parsing, and metrics — while the canonicalize → label → mask → outcome
pipeline lives entirely in the kernel.  The service exposes the same
accept/refuse semantics as :class:`~repro.policy.monitor.ReferenceMonitor`
over the same security views — the ``tests/server`` equivalence suite
holds the two paths bit-for-bit identical across the Facebook workload.
"""

from __future__ import annotations

import os
import threading
import time
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # import only for annotations (no runtime cycle)
    from repro.client.base import DecisionClient

from repro.core.queries import ConjunctiveQuery
from repro.core.schema import Schema
from repro.errors import ParseError, PolicyError
from repro.labeling.bitvector import PackedLabel
from repro.labeling.cq_labeler import SecurityViews
from repro.labeling.pipeline import BitVectorLabeler
from repro.policy.policy import PartitionPolicy
from repro.obs import MetricsRegistry, StageTimer, TraceBuffer
from repro.obs.timing import DEFAULT_SAMPLE_RATE, STAGES
from repro.server.cache import LabelCache
from repro.server.kernel import CompiledPolicy, DecisionKernel, ServiceDecision
from repro.server.store import (
    InMemoryStore,
    SessionState,
    SessionStore,
    SpillStore,
    decode_states,
    encode_states,
)

__all__ = ["DisclosureService", "ServiceDecision", "Session"]


class Session:
    """One principal's enforcement state (active in the LRU).

    Per Section 6.2 that is a policy plus one live bit vector, and the
    session holds exactly that: a handle on the policy's shared
    :class:`~repro.server.kernel.CompiledPolicy` (grants and decision
    memos, one per distinct policy, owned by the kernel) and ``live``.
    Faulting, re-registering, or peeking a principal therefore *binds*
    a session to an already-compiled policy; nothing is rebuilt.

    *ephemeral* marks sessions auto-created by a default policy (never
    explicitly registered); on demotion an ephemeral session whose state
    is still fresh is dropped rather than retained, so anonymous traffic
    cannot grow the passive store without bound.
    """

    __slots__ = (
        "principal",
        "policy",
        "live",
        "ephemeral",
        "pending_decided",
        "pending_refused",
    )

    def __init__(
        self,
        principal: Hashable,
        policy: CompiledPolicy,
        live: int,
        ephemeral: bool = False,
    ):
        self.principal = principal
        self.policy = policy
        self.live = live  # guarded-by: _lock
        self.ephemeral = ephemeral
        #: Per-tenant metric tallies, updated by the kernel inside the
        #: session lock it already holds (a plain int increment, so the
        #: single-query hot path never touches the labeled metric
        #: vectors).  Drained into ``repro_tenant_*_total`` whenever the
        #: registry is scraped and before the session object is dropped.
        self.pending_decided = 0
        self.pending_refused = 0

    @property
    def partitions(self) -> Tuple[Tuple[str, ...], ...]:
        return self.policy.partitions

    @property
    def all_live(self) -> int:
        return self.policy.all_live


class DisclosureService:
    """Per-principal disclosure sessions over one shared decision kernel.

    Thread-safety: every public method is safe to call from multiple
    threads — session state is guarded by one internal lock, and the
    caches and counters lock independently.  The service is *not*
    shareable across processes; for multi-process deployments each
    worker owns its own service and principals are hash-partitioned
    across workers by :func:`repro.server.partition.shard_for` (labels
    are principal-free, so workers can still share cache warmth through
    :meth:`export_label_cache` / :meth:`warm_label_cache`).

    Parameters
    ----------
    security_views:
        The platform vocabulary (defaults to the Section 7.2 Facebook
        views).
    schema:
        Schema for the SQL front end (defaults to the Facebook schema
        when *security_views* is also defaulted).
    max_active_sessions:
        How many sessions stay resident; excess principals are
        demoted to their serializable ``(policy, live)`` state and
        re-bound to their compiled policy on next touch.
    session_store:
        Any :class:`repro.server.store.SessionStore` implementation to
        hold the session tiers.  When given, it is used as-is (its own
        ``max_resident`` wins over *max_active_sessions*).  Defaults to
        :class:`~repro.server.store.InMemoryStore` — the historical
        all-RAM behavior.
    spill_dir:
        Shorthand for ``session_store=SpillStore(spill_dir,
        max_resident=max_active_sessions)``: demoted sessions append
        to an on-disk log under this directory and fault back in on
        touch, so RSS is bounded by the resident tier while the
        principal population lives on disk.  Ignored when
        *session_store* is given.
    label_cache_size:
        Entries in the kernel's shared qid → lid label cache (``0``
        disables caching — the benchmark's cold series).
    parse_cache_size:
        Entries in the request-text → parsed-query memo used by
        :meth:`parse`, which the v1 text routes (``/v1/query``,
        ``/v1/peek``, ``/v1/batch``) call.
    default_policy:
        When given, unknown principals get a session with this policy on
        first contact instead of raising.  Such sessions are *ephemeral*:
        read-only probes never allocate state, and a demoted session
        whose partitions are all still live is dropped rather than
        retained, so anonymous principals cannot exhaust memory.
    stage_sample_rate:
        One decision in this many records per-stage kernel timings into
        the ``repro_kernel_stage_seconds{stage=...}`` histograms
        (default 64; ``0`` disables stage timing entirely).
    """

    def __init__(
        self,
        security_views: Optional[SecurityViews] = None,
        *,
        schema: Optional[Schema] = None,
        max_active_sessions: int = 10_000,
        session_store: Optional[SessionStore] = None,
        spill_dir: "str | os.PathLike[str] | None" = None,
        label_cache_size: int = 1 << 16,
        parse_cache_size: int = 4096,
        default_policy: "PartitionPolicy | Iterable[Iterable[str]] | None" = None,
        stage_sample_rate: int = DEFAULT_SAMPLE_RATE,
    ):
        if security_views is None:
            from repro.facebook.permissions import facebook_security_views

            security_views = facebook_security_views()
            if schema is None:
                from repro.facebook.schema import facebook_schema

                schema = facebook_schema()
        self.security_views = security_views
        self.schema = schema
        self.labeler = BitVectorLabeler(security_views)
        self.registry = self.labeler.registry

        if max_active_sessions < 1:
            raise PolicyError("max_active_sessions must be >= 1")
        #: The session memory tier (see :mod:`repro.server.store`).
        #: Every session access in the service, the batch path, and the
        #: persistence layer goes through this object — never through a
        #: dict — so the tiering strategy is swappable.
        self.store: SessionStore
        if session_store is not None:
            self.store = session_store
        elif spill_dir is not None:
            self.store = SpillStore(spill_dir, max_resident=max_active_sessions)
        else:
            self.store = InMemoryStore(max_active_sessions)
        self.max_active_sessions = self.store.max_resident
        self.store.on_demote = self._drain_session_counts
        #: The principals whose durable state changed since the last
        #: snapshot cut (:meth:`export_generation`): registered,
        #: unregistered, reset, restored, or narrowed by an accept.
        #: ``None`` until the first cut, which is a full base, so a
        #: service that is never cut tracks nothing.
        self._dirty: Optional[Set[Hashable]] = None  # guarded-by: _lock
        #: The one decision pipeline every transport routes through.
        self.kernel = DecisionKernel(
            self.labeler, sessions=self, label_cache_size=label_cache_size
        )
        self.parse_cache = LabelCache(parse_cache_size)
        #: Raw nested-list policy -> its normal form (see
        #: :meth:`_normalize_policy`).
        self._policy_memo = LabelCache(1024)

        self._default_policy = (
            self._normalize_policy(default_policy)
            if default_policy is not None
            else None
        )
        #: Held strongly so every anonymous peek and first contact binds
        #: to the same compiled default policy, resident sessions or not.
        self._default_compiled = (
            self.kernel.compile_policy(self._default_policy)
            if self._default_policy is not None
            else None
        )
        #: Lazily created by :func:`repro.server.wire2.gateway_for`: the
        #: per-service v2 wire gateway (client-generation translation).
        self._wire2_gateway: Optional[object] = None

        self._lock = threading.RLock()

        #: The labeled metrics plane (see :mod:`repro.obs`).  The legacy
        #: attribute names below stay — they are the same instruments,
        #: registered in the registry so both the JSON ``/metrics`` form
        #: and the Prometheus exposition render from one snapshot.
        self.metrics = MetricsRegistry()
        self.decisions = self.metrics.counter("repro_decisions_total")
        self.accepted = self.metrics.counter("repro_accepted_total")
        self.refused = self.metrics.counter("repro_refused_total")
        self.peeks = self.metrics.counter("repro_peeks_total")
        self.latency = self.metrics.histogram("repro_request_latency_seconds")
        #: Ring buffer of spans from traced v2 requests (GET /internal/trace).
        self.traces = TraceBuffer()
        self.stage_sample_rate = stage_sample_rate
        #: Tenant counts accumulate on the Session objects (plain int
        #: fields bumped by the kernel under its existing lock) and
        #: drain into these vectors at scrape time — the warm
        #: single-query path must not pay a label lookup per call.
        self.tenant_decisions = self.metrics.counter_vec(
            "repro_tenant_decisions_total", ("tenant",)
        )
        self.tenant_refused = self.metrics.counter_vec(
            "repro_tenant_refused_total", ("tenant",)
        )
        self.requests = self.metrics.counter_vec(
            "repro_requests_total", ("transport", "route")
        )
        if self.stage_sample_rate > 0:
            stage_vec = self.metrics.histogram_vec(
                "repro_kernel_stage_seconds", ("stage",)
            )
            self.kernel.stage_timer = StageTimer(
                {stage: stage_vec.labels(stage) for stage in STAGES},
                rate=self.stage_sample_rate,
            )
        if self.store.observe is None:
            #: Spill-tier stage timing: one histogram per expensive tier
            #: op (spill / fault / compact).  The in-memory store never
            #: reports, so the vector stays empty unless a disk tier is
            #: actually configured.
            spill_vec = self.metrics.histogram_vec("repro_spill_seconds", ("op",))
            self.store.observe = lambda op, seconds: spill_vec.labels(op).record(
                seconds
            )
        self._started = time.time()

    def close(self) -> None:
        """Release the session store's OS resources (spill log handles).

        Idempotent; an all-RAM service has nothing to release.  Pairs
        with ``spill_dir=`` / ``session_store=`` deployments where the
        store holds open file handles.
        """
        self.store.close()

    def client(self) -> "DecisionClient":
        """This service behind the one :class:`repro.client.DecisionClient`
        API — the in-process backend of the transport-agnostic client
        protocol (swap it for an ``HttpClient`` without touching caller
        code)."""
        from repro.client.local import LocalClient

        return LocalClient(self)

    @property
    def label_cache(self) -> LabelCache:
        """The kernel's shared label cache (qid → lid), for stats and
        tests; decisions never consult it directly.  A property because
        the cache belongs to the current plane generation and rotates
        with it."""
        return self.kernel.label_cache

    # ------------------------------------------------------------------
    # Principal / session management
    # ------------------------------------------------------------------
    def register(
        self,
        principal: Hashable,
        policy: "PartitionPolicy | Iterable[Iterable[str]]",
    ) -> None:
        """Register *principal* with *policy*; re-registration resets state."""
        partitions = self._normalize_policy(policy)
        with self._lock:
            self.store.put_state(
                principal,
                SessionState(partitions, (1 << len(partitions)) - 1, False),
            )
            self._mark_dirty(principal)

    def unregister(self, principal: Hashable) -> None:
        with self._lock:
            if principal in self.store:
                self.store.discard(principal)
                self._mark_dirty(principal)

    def reset(self, principal: Hashable) -> None:
        """Forget the principal's history (a fresh session).

        For a principal only known through the default policy and never
        seen, this is a no-op — its state is already fresh; nothing is
        allocated.
        """
        with self._lock:
            session = self.store.peek(principal)
            if session is not None:
                session.live = session.all_live
                self._mark_dirty(principal)
                return
            state = self.store.fault(principal)
            if state is not None:
                self.store.put_state(
                    principal,
                    SessionState(
                        state.partitions,
                        (1 << len(state.partitions)) - 1,
                        state.ephemeral,
                    ),
                )
                self._mark_dirty(principal)
                return
            if self._default_policy is None:
                raise PolicyError(f"unknown principal {principal!r}")

    def _mark_dirty(self, principal: Hashable) -> None:
        """Record that *principal*'s durable state changed (caller holds
        the lock).  The kernel's narrowing branches inline this."""
        if self._dirty is not None:
            self._dirty.add(principal)

    def principal_count(self) -> int:
        with self._lock:
            return self.store.resident_count() + self.store.cold_count()

    def active_session_count(self) -> int:
        with self._lock:
            return self.store.resident_count()

    def live_partitions(self, principal: Hashable) -> Tuple[bool, ...]:
        """The Example 6.3 bit vector of the principal's session."""
        with self._lock:
            session = self._peek_session(principal)
            return tuple(
                bool(session.live >> i & 1) for i in range(len(session.partitions))
            )

    def __contains__(self, principal: object) -> bool:
        with self._lock:
            return principal in self.store

    def _normalize_policy(
        self, policy: "PartitionPolicy | Iterable[Iterable[str]]"
    ) -> Tuple[Tuple[str, ...], ...]:
        """*policy* validated and in normal form (sorted names per partition).

        A population shares few policies, so nested-list policies — the
        wire and snapshot form — are memoized: a repeat costs one probe
        instead of a :class:`PartitionPolicy` construction, and every
        principal of a policy holds the *same* tuple.
        """
        if isinstance(policy, PartitionPolicy):
            for partition in policy.partitions:
                for name in partition:
                    if name not in self.security_views:
                        raise PolicyError(f"unknown security view {name!r} in policy")
            return tuple(tuple(sorted(p)) for p in policy.partitions)
        key = tuple(tuple(part) for part in policy)
        partitions = self._policy_memo.get(key)
        if partitions is None:
            checked = PartitionPolicy(key, self.security_views)
            partitions = tuple(tuple(sorted(p)) for p in checked.partitions)
            self._policy_memo.put(key, partitions)
        return partitions  # type: ignore[return-value]

    def _session(self, principal: Hashable) -> Session:
        """The principal's active session, faulting and binding as needed."""
        session = self.store.get(principal)
        if session is not None:
            return session
        state = self.store.fault(principal)  # repro: noqa[ASY01] - spill faults on the decide path are bounded page-sized reads by design (docs/memory-tier.md); the tick drain IS the data plane
        if state is None:
            if self._default_policy is None:
                raise PolicyError(f"unknown principal {principal!r}")
            state = SessionState(
                self._default_policy, (1 << len(self._default_policy)) - 1, True
            )
        session = Session(
            principal,
            self.kernel.compile_policy(state.partitions),
            state.live,
            state.ephemeral,
        )
        self.store.put(principal, session)
        return session

    def _drain_session_counts(self, session: Optional[Session]) -> None:
        """Fold a session's pending tenant tallies into the metric vectors.

        Callers hold the service lock; the passed session is either
        still active or about to be discarded (evicted, unregistered,
        or re-registered) — either way its pending counts must land in
        ``repro_tenant_*_total`` before they become unreachable.
        """
        if session is None:
            return
        if session.pending_decided:
            self.tenant_decisions.labels(session.principal).increment(
                session.pending_decided
            )
            session.pending_decided = 0
        if session.pending_refused:
            self.tenant_refused.labels(session.principal).increment(
                session.pending_refused
            )
            session.pending_refused = 0

    def _flush_tenant_counts(self) -> None:
        """Drain every active session's tallies (called at scrape time)."""
        with self._lock:
            for session in self.store.resident_sessions():
                self._drain_session_counts(session)

    def _peek_session(self, principal: Hashable) -> Session:
        """Like :meth:`_session`, but an unknown default-policy principal
        gets a transient session that is never stored — read-only probes
        from anonymous principals must not allocate server state."""
        if principal in self.store or self._default_policy is None:
            return self._session(principal)
        policy = self._default_compiled
        return Session(principal, policy, policy.all_live, True)

    # ------------------------------------------------------------------
    # Labeling (the kernel's cache front)
    # ------------------------------------------------------------------
    def label_for(self, query: ConjunctiveQuery) -> Tuple[PackedLabel, bool]:
        """The packed label of *query* and whether it came from the cache."""
        return self.kernel.label_for(query)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def submit(self, principal: Hashable, query: ConjunctiveQuery) -> ServiceDecision:
        """Decide one query for one principal, updating session state."""
        start = time.perf_counter()
        decision = self.kernel.decide(0, principal, query=query)
        self.decisions.increment()
        (self.accepted if decision.accepted else self.refused).increment()
        self.latency.record(time.perf_counter() - start)
        return decision

    def peek(self, principal: Hashable, query: ConjunctiveQuery) -> ServiceDecision:
        """`would_accept`: the decision :meth:`submit` would make, stateless."""
        decision = self.kernel.decide(0, principal, update=False, query=query)
        self.peeks.increment()
        return decision

    def submit_batch(
        self, items: "Iterable[Tuple[Hashable, ConjunctiveQuery]]"
    ) -> List[ServiceDecision]:
        """Decide a batch of ``(principal, query)`` pairs, updating state.

        Semantically identical to calling :meth:`submit` once per item
        in order — the ``tests/server/test_batch.py`` suite holds the
        two paths byte-for-byte identical, decisions and end state —
        but decided by the one batch core,
        :func:`~repro.server.batch.decide_wire_items`, which amortizes
        the per-decision Python overhead (one intern per distinct
        object, one label-cache probe per distinct qid, one mask per
        distinct lid per session, one lock hold, bulk metrics).

        Returns the decisions in input order.  Every principal in the
        batch is validated *before* any state changes, under the same
        lock hold as the decide: an unknown principal (with no default
        policy) raises :class:`PolicyError` and leaves every session
        untouched — unlike the sequential loop, which would have
        applied the prefix.  Thread-safe.
        """
        return self._decide_batch(items, update=True)

    def peek_batch(
        self, items: "Iterable[Tuple[Hashable, ConjunctiveQuery]]"
    ) -> List[ServiceDecision]:
        """Batch form of :meth:`peek`: no session state is changed.

        Returns the decision :meth:`submit` *would* make for each item
        against the current state.  Note the difference from
        :meth:`submit_batch`: items here do not observe the effects of
        earlier items in the same batch, exactly as N sequential
        :meth:`peek` calls would not.  Unknown principals raise as in
        :meth:`submit_batch`.  Thread-safe.
        """
        return self._decide_batch(items, update=False)

    def _decide_batch(self, items, update: bool) -> List[ServiceDecision]:
        from repro.server.batch import decide_wire_items

        entries = [(principal, query, None) for principal, query in items]
        with self._lock:
            if self._default_policy is None:
                store = self.store
                for principal in dict.fromkeys(p for p, _, _ in entries):
                    if principal not in store:
                        raise PolicyError(f"unknown principal {principal!r}")
            return decide_wire_items(self, entries, update=update)

    def export_label_cache(self) -> List[Tuple]:
        """The shared label cache as picklable ``(key, label)`` pairs.

        Labels are principal-free, so these entries are valid for any
        service over the same security views — pool replicas import
        them at start so every replica starts warm
        (:class:`repro.server.pool.ReplicaPool`).  The kernel
        translates its private qid/lid plane back to canonical keys and
        packed labels on the way out.
        """
        return self.kernel.export_label_cache()

    def warm_label_cache(self, entries: "Iterable[Tuple]") -> int:
        """Import pairs from :meth:`export_label_cache`; returns count."""
        return self.kernel.import_label_cache(entries)

    # ------------------------------------------------------------------
    # Text front end (SQL / FQL / datalog)
    # ------------------------------------------------------------------
    def parse(self, text: str, dialect: str = "sql", me: int = 1) -> ConjunctiveQuery:
        """Parse request text into a query, memoized per (dialect, me, text).

        The parsing itself is the client stack's
        :func:`repro.client.parsing.parse_text` — one parse path for
        clients and service alike; this method adds the request-text
        memo cache and the service's schema.
        """
        key = (dialect, me if dialect == "fql" else None, text)
        query = self.parse_cache.get(key)
        if query is not None:
            return query
        if dialect == "sql" and self.schema is None:
            raise ParseError(
                "this service has no schema; SQL requests are unavailable"
            )
        from repro.client.parsing import parse_text

        query = parse_text(text, dialect, me, schema=self.schema)
        self.parse_cache.put(key, query)
        return query

    # ------------------------------------------------------------------
    # Serializable session state
    # ------------------------------------------------------------------
    def export_state(self) -> Dict:
        """Every principal's session as the session table
        (:func:`~repro.server.store.encode_states`): JSON-compatible,
        and what a snapshot's ``sessions`` section holds.

        Principals must be strings (the HTTP layer enforces this on the
        wire); anything else cannot round-trip through JSON keys, so it
        raises rather than silently losing the session on restore.
        """
        with self._lock:
            return encode_states(self.store.iter_states())

    def export_generation(
        self, full: bool = False
    ) -> Tuple[Dict, List[str], Set[Hashable]]:
        """Cut a snapshot generation: what changed since the last cut.

        Returns ``(state, removed, drained)``:

        * ``state`` — a session table (:meth:`export_state`'s form)
          holding every session when *full* (or on the first cut), else
          only the dirty principals that are still stored;
        * ``removed`` — the dirty principals no longer stored: the
          tombstones a delta needs so a restart does not bring them
          back (always empty for a full cut, which simply omits them);
        * ``drained`` — the dirty set this cut swapped out.  A caller
          whose write fails hands it to :meth:`restore_dirty`, so the
          next cut still covers it.

        Reading a dirty principal faults nothing in, and the swap
        happens under the same lock hold, so a session mutated
        concurrently with the cut lands in this generation or the
        next — never in neither.
        """
        with self._lock:
            drained = self._dirty
            if full or drained is None:
                state, removed = encode_states(self.store.iter_states()), []
            else:
                reads = [(p, self.store.read_state(p)) for p in drained]
                state = encode_states((p, s) for p, s in reads if s is not None)
                # A non-string principal was never exportable (the
                # encoder raises for one still stored), so it leaves
                # no tombstone either.
                removed = sorted(
                    p for p, s in reads if s is None and isinstance(p, str)
                )
            self._dirty = set()
        return state, removed, drained or set()

    def dirty_count(self) -> int:
        """How many principals changed since the last cut (0 before it)."""
        with self._lock:
            return len(self._dirty or ())

    def restore_dirty(self, principals: Iterable[Hashable]) -> None:
        """Put a failed cut's drained principals back into the dirty set."""
        with self._lock:
            if self._dirty is not None:
                self._dirty.update(principals)

    def import_state(self, table: Dict) -> int:
        """Restore a session table (:meth:`export_state`'s form); returns
        how many entries it held.

        Every entry is checked before any is stored, and each policy is
        validated against the security views once, however many
        principals share it.  A service without a default policy has no
        anonymous principals, so it restores an ephemeral entry as
        registered.
        """
        restored = decode_states(
            table, self._normalize_policy, anonymous=self._default_policy is not None
        )
        with self._lock:
            # ``put_states`` is the optional bulk form of ``put_state``
            # (one log flush per call on the spill tier).
            put_states = getattr(self.store, "put_states", None)
            if put_states is not None:
                put_states(restored)
            else:
                for principal, state in restored:
                    self.store.put_state(principal, state)
            if self._dirty is not None:
                self._dirty.update(principal for principal, _ in restored)
        return len(restored)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def restore_metrics(self, metrics: Dict) -> int:
        """Fold snapshotted counters back in; returns the decision count.

        The warm-restart half of :mod:`repro.server.persist`: a restarted
        service's ``/metrics`` keeps counting from where the snapshot
        left off instead of resetting to zero (uptime still restarts —
        it describes the process, not the history).  Latency buckets
        merge through :meth:`LatencyHistogram.add_bucket_counts`.
        """
        decisions = int(metrics.get("decisions", 0))
        self.decisions.increment(decisions)
        self.accepted.increment(int(metrics.get("accepted", 0)))
        self.refused.increment(int(metrics.get("refused", 0)))
        self.peeks.increment(int(metrics.get("peeks", 0)))
        latency = metrics.get("latency")
        if isinstance(latency, dict):
            self.latency.add_bucket_counts(
                latency.get("buckets", ()),
                mean_seconds=float(latency.get("mean_us", 0.0)) * 1e-6,
            )
        return decisions

    def metrics_snapshot(self) -> Dict:
        """Everything ``GET /metrics`` reports, as a plain dict."""
        self._flush_tenant_counts()
        with self._lock:
            active = self.store.resident_count()
            passive = self.store.cold_count()
            spilled = passive if getattr(self.store, "persistent", False) else 0
            faults = self.store.fault_count
            evictions = self.store.eviction_count
            clean = getattr(self.store, "clean_eviction_count", 0)
        return {
            "uptime_seconds": time.time() - self._started,
            "decisions": self.decisions.value,
            "accepted": self.accepted.value,
            "refused": self.refused.value,
            "peeks": self.peeks.value,
            "sessions": {
                # "active"/"passive" are the legacy names; "resident"/
                # "spilled" describe the memory tier (spilled counts
                # only principals whose cold state lives on disk).
                "active": active,
                "passive": passive,
                "resident": active,
                "spilled": spilled,
                "faults": faults,
                "evictions": evictions,
                # Evictions that wrote nothing: the session still
                # equalled the cold record it was faulted from.
                "clean_evictions": clean,
            },
            "label_cache": self.label_cache.stats().as_dict(),
            "parse_cache": self.parse_cache.stats().as_dict(),
            "kernel": self.kernel.stats(),
            "latency": self.latency.snapshot(),
            "registry": self.metrics.snapshot(),
        }
