"""The decision kernel: one array-native core for every serving path.

Before this module, the service evaluated the paper's single conceptual
object — the disclosure order, per principal, against packed partition
labels — through three diverging re-implementations: the single-query
path in :mod:`repro.server.service`, the vectorized path in
:mod:`repro.server.batch`, and a multi-process shard fan-out (since
retired), each with its own memoization of canonical keys, labels, and
session masks.  :class:`DecisionKernel` collapses
them: every transport interns its queries into dense integer ids
(:mod:`repro.server.interning`) and routes through the same
canonicalize → label → mask → outcome pipeline, expressed entirely as
flat int-keyed operations:

* **qid → lid** — the shared label cache, an LRU of ints
  (:class:`~repro.server.cache.LabelCache` keyed by qid, valued by
  lid).  A warm decision never touches a tuple.
* **lid → partition mask** — per *policy*, the satisfying-partitions
  bit vector of Example 6.3, memoized in ``CompiledPolicy.mask_memo``
  (a dict of ints) and computed in bulk by
  :meth:`BitVectorRegistry.satisfying_masks_by_id`.
* **(lid, live) → outcome** — per *policy*, the whole decision
  (verdict, reason string, surviving mask), memoized in
  ``CompiledPolicy.outcome_memo`` so recurring shapes against a stable
  live mask are two dict probes end to end.

Both memos are functions of the policy alone (Section 6.2: a
principal's state is its policy plus one live bit vector), so they
live on one :class:`CompiledPolicy` per distinct partition tuple,
shared by every session registered with that policy: a faulted,
re-registered, or transient session *binds* to the already-warm
structure instead of recompiling grants and refilling memos.

**Bounded memory: plane generations.**  Interners are append-only —
that is what lets everything carry bare ints — so by themselves they
would grow without bound under high-cardinality traffic (canonical
keys keep constants verbatim; every distinct constant is a new shape).
The kernel therefore scopes the whole ID plane to a *generation*
(:class:`_Plane`): interners, label cache, and vocabulary flags live
and die together.  When the shape count crosses ``max_interned_shapes``
the kernel atomically swaps in a fresh plane (cache counters carry
over) and bumps the epoch; compiled policies stamp the epoch their
memos were filled under and lazily drop them on first contact with a
newer plane (the stamp sits beside the dicts it guards — they are
shared, so a per-session stamp could not vouch for them).  Old plane
objects are never mutated, so a decision that raced a rotation still
computes correctly against the plane it captured — it just skips the
memos (see ``_sync_policy``).  Bare ids are only meaningful within the
plane that issued them; the transports call :meth:`decide` with a query
object (plane-atomic), or intern on a captured plane and pass it to
:meth:`resolve_many`, and id-native callers re-intern after a rotation.

The kernel owns no sessions and no metrics: the service remains the
session store (LRU, registration, serializable state) and the
transports keep their own counters.  It does own the table of compiled
policies (:meth:`DecisionKernel.compile_policy`), held by weak
reference so it is bounded by what resident sessions actually use.
What the kernel guarantees is that however a decision arrives — one
call, a batch, a replica sub-batch — it is computed over the same
integer plane and the same policy memos by one of two implementations,
chosen by call shape: :meth:`decide` for a single call (its inline
int-probe step is the warm single-query floor) and :meth:`decide_group`
for a batch and for a stage-sampled single decision.  The equivalence
suites hold the two byte-identical.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple
from weakref import WeakValueDictionary

from repro.analysis.markers import requires_lock
from repro.core.queries import ConjunctiveQuery
from repro.labeling.bitvector import PackedLabel
from repro.server.cache import LabelCache
from repro.server.interning import LabelInterner, QueryInterner

#: A normalised policy: sorted view names per partition.
Partitions = Tuple[Tuple[str, ...], ...]

#: The refusal reason for labels outside the security-view vocabulary.
_VOCABULARY_REASON = (
    "query requires information outside the security-view vocabulary"
)


class ServiceDecision:
    """One decision of the service (the wire-friendly Decision).

    Instances are immutable value objects; :meth:`as_dict` renders the
    stable wire schema that ``/v1/query``, ``/v1/peek``, and the items
    of ``/v1/batch`` return.  ``label`` (the packed disclosure label)
    stays server-side: it is an internal representation, not part of
    the wire contract.
    """

    __slots__ = (
        "accepted",
        "principal",
        "reason",
        "cached",
        "live_before",
        "live_after",
        "label",
    )

    def __init__(
        self,
        accepted: bool,
        principal: Hashable,
        reason: str,
        cached: bool,
        live_before: int,
        live_after: int,
        label: PackedLabel,
    ):
        self.accepted = accepted
        self.principal = principal
        self.reason = reason
        self.cached = cached
        self.live_before = live_before
        self.live_after = live_after
        self.label = label

    def __bool__(self) -> bool:
        return self.accepted

    def as_dict(self) -> Dict:
        """The decision as its stable JSON wire object.

        This is the documented response schema of the decision routes
        (see ``docs/http-api.md``); keys are never removed or renamed,
        only added:

        ===============  ======  ==============================================
        key              type    meaning
        ===============  ======  ==============================================
        ``accepted``     bool    ``True`` iff the query is answered
        ``principal``    str     the principal the decision is for
        ``reason``       str     human-readable accept/refuse explanation
        ``cached``       bool    label came from the shared cache (no labeling)
        ``live_before``  int     live-partition bits before the decision
        ``live_after``   int     live-partition bits after (== before for
                                 refusals and for ``peek``)
        ===============  ======  ==============================================

        ``live_before``/``live_after`` encode the Example 6.3 bit vector
        as an integer: bit *i* set means partition *i* of the principal's
        registered policy is still live.
        """
        return {
            "accepted": self.accepted,
            "principal": self.principal,
            "reason": self.reason,
            "cached": self.cached,
            "live_before": self.live_before,
            "live_after": self.live_after,
        }

    def __repr__(self) -> str:
        verdict = "ACCEPT" if self.accepted else "REFUSE"
        return f"ServiceDecision({verdict} {self.principal!r}: {self.reason})"


class CompiledPolicy:
    """Everything the kernel derives from a policy alone.

    One instance per distinct normalised partition tuple
    (:meth:`DecisionKernel.compile_policy` interns them), shared by
    every session registered with that policy — a session adds only its
    live bits.  The memo dicts live on the ID plane: both are keyed by
    dense integer label ids (lids), never by label tuples, and the
    kernel is their only writer and reader.
    """

    __slots__ = (
        "partitions",
        "grants",
        "all_live",
        "plane_epoch",
        "mask_memo",
        "outcome_memo",
        "__weakref__",
    )

    #: Entries per memo before it resets.
    MEMO_LIMIT = 4096

    def __init__(self, partitions: Partitions, grants: Tuple[Dict[int, int], ...]):
        self.partitions = partitions
        self.grants = grants
        self.all_live = (1 << len(partitions)) - 1
        #: The kernel plane generation the memos below were filled
        #: under; the kernel clears them on first contact with a newer
        #: plane (ids are generation-scoped).  The stamp belongs here,
        #: with the dicts: they are shared, so only a stamp that moves
        #: with them can say which plane their keys mean.
        self.plane_epoch = -1
        #: lid -> satisfying-partitions mask.  Sound for the policy's
        #: lifetime: the mask depends only on the label and the
        #: (immutable) grants.  Bounded by MEMO_LIMIT (reset when full).
        self.mask_memo: Dict[int, int] = {}  # guarded-by: _lock
        #: (lid, live) -> (accepted, reason, surviving), same soundness
        #: argument with the live bits added to the key.  In steady state
        #: a session's live mask is stable, so recurring shapes make
        #: whole decisions two dict probes.  Shares MEMO_LIMIT.
        self.outcome_memo: Dict[Tuple[int, int], Tuple[bool, str, int]] = {}  # guarded-by: _lock


class _Plane:
    """One generation of the ID plane.

    Interners, the qid → lid cache, and the per-lid vocabulary flags
    are only meaningful together, so they rotate together.  A plane is
    append-only for its whole life — rotation replaces the object, it
    never mutates one — which is what makes decisions that captured an
    older plane still correct.
    """

    __slots__ = ("epoch", "queries", "labels", "cache", "vocab", "vocab_lock")

    def __init__(self, epoch: int, cache: LabelCache):
        self.epoch = epoch
        self.queries = QueryInterner()
        self.labels = LabelInterner()
        self.cache = cache
        #: lid -> every packed atom has a non-⊤ mask (vocabulary check),
        #: precomputed once per distinct label instead of per decision.
        self.vocab: List[bool] = []
        self.vocab_lock = threading.Lock()


class DecisionKernel:
    """The canonicalize → label → mask → outcome pipeline over dense ids.

    Parameters
    ----------
    labeler:
        The bit-vector labeler (supplies the registry and, on cache
        misses, the labels themselves).
    sessions:
        The session store — any object with the service's session
        surface (``_lock``, ``_session``, ``_peek_session``).  In
        deployment this is the owning :class:`DisclosureService`.
    label_cache_size:
        Entries in the shared qid → lid cache (``0`` disables caching;
        every decision then re-runs the labeler — the benchmark's cold
        series).
    max_interned_shapes:
        Distinct query shapes per plane generation before the kernel
        rotates to a fresh plane (bounding interner memory).  Defaults
        to ``max(2 × label_cache_size, 65536)``.
    """

    def __init__(
        self,
        labeler,
        sessions=None,
        label_cache_size: int = 1 << 16,
        max_interned_shapes: Optional[int] = None,
    ):
        self.labeler = labeler
        self.registry = labeler.registry
        self._relation_bits = self.registry.layout.relation_bits
        self.sessions = sessions
        self.label_cache_size = label_cache_size
        self.max_interned_shapes = (
            max(2 * label_cache_size, 1 << 16)
            if max_interned_shapes is None
            else max_interned_shapes
        )
        self._plane = _Plane(0, LabelCache(label_cache_size))  # guarded-by: _plane_lock
        self._plane_lock = threading.Lock()
        #: partition tuple -> its one :class:`CompiledPolicy`.  Weak
        #: values: an entry lives exactly as long as some session (or
        #: the service's default policy) holds it, so the table is
        #: bounded by the resident tier, not by the population.
        self._compiled: "WeakValueDictionary[Partitions, CompiledPolicy]" = WeakValueDictionary()  # guarded-by: _lock
        #: Optional :class:`repro.obs.StageTimer`.  When set, a sampled
        #: fraction of decisions records canonicalize/label/mask/outcome
        #: stage durations; ``None`` costs one attribute load per call.
        self.stage_timer = None
        #: :meth:`decide`'s inlined copy of the stage-timer
        #: countdown (a method call per decision is measurable at the
        #: warm single-query floor; batch paths still use
        #: ``StageTimer.sample`` since theirs is amortized).  Starts at
        #: 1 so the first single-query decision is sampled.
        self._stage_countdown = 1

    # ------------------------------------------------------------------
    # The ID plane
    # ------------------------------------------------------------------
    @property
    def plane(self) -> _Plane:
        """The current plane generation (an opaque capture handle)."""
        return self._plane

    @property
    def plane_epoch(self) -> int:
        return self._plane.epoch

    @property
    def queries(self) -> QueryInterner:
        """The current plane's query interner."""
        return self._plane.queries

    @property
    def labels(self) -> LabelInterner:
        """The current plane's label interner."""
        return self._plane.labels

    @property
    def label_cache(self) -> LabelCache:
        """The current plane's shared qid → lid cache."""
        return self._plane.cache

    def intern(self, query: ConjunctiveQuery) -> int:
        """The dense qid of *query* in the **current** plane.

        Bare qids are invalidated by plane rotation; callers that hold
        ids across calls must be prepared to re-intern (the plane-atomic
        :meth:`decide` with *query* / :meth:`resolve_queries` never
        need to).
        """
        return self._plane.queries.intern(query)

    def label_of(self, lid: int) -> PackedLabel:
        """The packed label behind *lid* (current plane)."""
        return self._plane.labels.label_of(lid)

    def resolution_plane(self) -> _Plane:
        """The plane new work should resolve against, rotating at the cap.

        The cap is checked once per resolution pass, so a single batch
        may overshoot it by at most its own item count — bounded by the
        transport's batch limit (``MAX_BATCH`` on the wire), which is
        negligible against the cap itself.  External id-producers (the
        v2 wire gateway) must obtain their plane here, not from
        :attr:`plane`, so interning through them also respects the cap.
        """
        plane = self._plane
        if len(plane.queries) >= self.max_interned_shapes:
            plane = self._rotate(plane)
        return plane

    def intern_keys(
        self, keys: Iterable, *, plane: Optional[_Plane] = None
    ) -> Tuple[_Plane, List[int]]:
        """Bulk canonical-key ingestion: the qid-delta path.

        External id-producers — the v2 wire gateway absorbing a client's
        interner delta, a pool replica adopting a plane delta — hold
        canonical keys, not query objects.  This interns them in order
        against one plane (the cap-respecting resolution plane when
        *plane* is ``None``) and returns that plane with the kernel
        qid of each key.  The returned qids are only meaningful against
        the returned plane; callers that cache them must record which
        plane they belong to and rebuild after a rotation (the pattern
        the v2 gateway follows).
        """
        if plane is None:
            plane = self.resolution_plane()
        intern_key = plane.queries.intern_key
        return plane, [intern_key(key) for key in keys]

    def _rotate(self, full: _Plane) -> _Plane:
        """Swap in a fresh plane generation (idempotent under races)."""
        with self._plane_lock:
            plane = self._plane
            if plane is not full or len(plane.queries) < self.max_interned_shapes:
                return plane  # someone else already rotated
            cache = LabelCache(self.label_cache_size)
            cache.inherit_counters(plane.cache)
            self._plane = _Plane(plane.epoch + 1, cache)
            return self._plane

    def adopt_plane_epoch(self, epoch: int) -> _Plane:
        """Rotate to a fresh plane stamped *epoch* (the follower handshake).

        A kernel replica never interns or rotates on its own — its qid
        table is a positional mirror of the pool parent's, rebuilt from
        shipped key deltas — so when the parent's plane rotates, the
        parent propagates the bump and the replica adopts the new epoch
        wholesale: fresh interners, fresh cache (hit counters carried
        over, same as a local rotation).  Idempotent at the current
        epoch; refuses to travel backwards, since a stale epoch would
        silently mix id spaces.
        """
        with self._plane_lock:
            plane = self._plane
            if plane.epoch == epoch:
                return plane
            if epoch < plane.epoch:
                raise ValueError(
                    f"cannot adopt plane epoch {epoch} behind the current "
                    f"epoch {plane.epoch}"
                )
            cache = LabelCache(self.label_cache_size)
            cache.inherit_counters(plane.cache)
            self._plane = _Plane(epoch, cache)
            return self._plane

    @requires_lock
    def compile_policy(self, partitions: Partitions) -> CompiledPolicy:
        """The one :class:`CompiledPolicy` of *partitions* (normalised).

        Caller holds the service lock.  A hit *binds* — the grants are
        compiled and the memos warm from whichever sessions share the
        policy; only the first session of a policy pays
        ``grant_masks``.
        """
        compiled = self._compiled.get(partitions)
        if compiled is None:
            grants = tuple(self.registry.grant_masks(p) for p in partitions)
            compiled = self._compiled[partitions] = CompiledPolicy(partitions, grants)
        return compiled

    @staticmethod
    def _sync_policy(policy: CompiledPolicy, plane: _Plane) -> bool:
        """Align *policy*'s memos with *plane*; ``False`` means bypass.

        Caller holds the service lock.  A policy first touched by a
        newer plane drops its memos (their int keys belonged to the old
        generation).  The reverse — this decision captured an *older*
        plane than the memos were last filled under — means another
        thread rotated mid-flight: the decision is still computed
        correctly against its captured plane, but it must not read or
        write the (newer-generation) memos.
        """
        epoch = plane.epoch
        if policy.plane_epoch == epoch:
            return True
        if policy.plane_epoch < epoch:
            policy.mask_memo.clear()
            policy.outcome_memo.clear()
            policy.plane_epoch = epoch
            return True
        return False

    def _vocab_ok(self, plane: _Plane, lid: int) -> bool:
        """Whether *lid*'s label stays inside the view vocabulary."""
        flags = plane.vocab
        if lid >= len(flags):
            with plane.vocab_lock:
                label_of = plane.labels.label_of
                bits = self._relation_bits
                while len(flags) <= lid:
                    label = label_of(len(flags))
                    flags.append(all(packed >> bits for packed in label))
        return flags[lid]

    # ------------------------------------------------------------------
    # Labels (the shared cache front)
    # ------------------------------------------------------------------
    def _resolve(
        self, plane: _Plane, qid: int, query: Optional[ConjunctiveQuery]
    ) -> Tuple[int, bool]:
        """``(lid, cached)`` for *qid* in *plane*, labeling on a miss.

        *query* is the original object when the caller has one (the
        labeler runs directly on it); without one the kernel labels the
        representative rebuilt from the interned canonical key —
        labeling is renaming-invariant, so the result is identical.
        """
        lid = plane.cache.get(qid)
        if lid is not None:
            return lid, True
        if query is None:
            query = plane.queries.query_of(qid)
        lid = plane.labels.intern(self.labeler.label_query(query))
        plane.cache.put(qid, lid)
        return lid, False

    def label_for(
        self, query: ConjunctiveQuery
    ) -> Tuple[PackedLabel, bool]:
        """``(packed label, cached)`` for *query*, plane-atomically."""
        plane = self.resolution_plane()
        lid, cached = self._resolve(plane, plane.queries.intern(query), query)
        return plane.labels.label_of(lid), cached

    def resolve_many(
        self,
        qids: Sequence[int],
        queries: Optional[Sequence[ConjunctiveQuery]] = None,
        *,
        plane: Optional[_Plane] = None,
        sampled: Optional[bool] = None,
    ) -> Tuple[_Plane, List[int], List[bool]]:
        """Bulk resolve of pre-interned qids with batch-local memoization.

        *qids* must belong to *plane* (or to the current plane when
        ``plane=None``).  The returned ``cached`` flags match what
        sequential :meth:`decide` calls would have reported: the first
        occurrence of a qid missing from the cache is ``False`` (the
        labeler ran), every later occurrence is ``True``.  Hit/miss
        counters end up identical too — repeats served from the
        batch-local memo are folded back in via
        :meth:`LabelCache.record_hits`, or as misses (and ``False``
        flags) when the cache is disabled (``maxsize <= 0``), which
        hits nothing sequentially either.

        One deliberate approximation survives from the pre-kernel batch
        path: a cache so small that it *evicts mid-batch* would
        sequentially re-miss an evicted qid, while the batch memo still
        reports it as a hit.  Decisions are unaffected (labels are
        deterministic); only the flag and the counters can flatter such
        an undersized cache.

        *sampled* is the caller's stage-timer sample decision for this
        batch (the batch core draws one for its intern loop and this
        label pass); ``None`` draws one here.
        """
        if plane is None:
            plane = self.resolution_plane()
        total = len(qids)
        timer = self.stage_timer
        if timer is None or not total:
            sampled = False
        elif sampled is None:
            sampled = timer.sample()
        started = perf_counter() if sampled else None
        lids: List[int] = [0] * total
        flags: List[bool] = [False] * total
        cache = plane.cache
        cache_enabled = cache.maxsize > 0
        seen: Dict[int, int] = {}
        memoized = 0
        for index, qid in enumerate(qids):
            lid = seen.get(qid)
            if lid is not None:
                lids[index] = lid
                flags[index] = cache_enabled
                memoized += 1
                continue
            lid = cache.get(qid)
            if lid is not None:
                flags[index] = True
            else:
                query = queries[index] if queries is not None else None
                if query is None:
                    query = plane.queries.query_of(qid)
                lid = plane.labels.intern(self.labeler.label_query(query))
                cache.put(qid, lid)
            seen[qid] = lid
            lids[index] = lid
        if memoized:
            if cache_enabled:
                cache.record_hits(memoized)
            else:
                cache.record_misses(memoized)
        if started is not None:
            timer.observe_many("label", (perf_counter() - started) / total, total)
        return plane, lids, flags

    def resolve_queries(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> Tuple[_Plane, List[int], List[bool]]:
        """Intern and resolve *queries* in one plane-atomic pass: intern
        on the captured resolution plane, then :meth:`resolve_many`."""
        plane = self.resolution_plane()
        intern = plane.queries.intern
        return self.resolve_many(
            [intern(query) for query in queries], queries, plane=plane
        )

    # ------------------------------------------------------------------
    # Masks and outcomes (per compiled policy, int-keyed)
    # ------------------------------------------------------------------
    def _ensure_masks(
        self, plane: _Plane, policy: CompiledPolicy, lids: Iterable[int]
    ) -> Dict[int, int]:
        """Fill ``policy.mask_memo`` for every distinct lid in *lids*."""
        memo = policy.mask_memo
        if len(memo) > policy.MEMO_LIMIT:
            memo.clear()
        missing = [lid for lid in dict.fromkeys(lids) if lid not in memo]
        if missing:
            label_of = plane.labels.label_of
            memo.update(
                self.registry.satisfying_masks_by_id(
                    missing, [label_of(lid) for lid in missing], policy.grants
                )
            )
        return memo

    def evaluate(
        self,
        plane: _Plane,
        policy: CompiledPolicy,
        live_before: int,
        lid: int,
        anywhere: Optional[int] = None,
    ) -> Tuple[bool, str, int]:
        """``(accepted, reason, surviving)`` for *lid* under *policy*
        with *live_before* partitions live.

        Pure: touches neither a session nor the memos.  *anywhere* is
        the precomputed satisfying-partitions mask; ``None`` computes it
        fresh (the rotation-bypass path relies on that).  ``surviving``
        is the post-decision live mask for an accept and the unchanged
        live mask for a refusal.
        """
        if not self._vocab_ok(plane, lid):
            return False, _VOCABULARY_REASON, live_before

        grants = policy.grants
        if anywhere is None:
            anywhere = self.registry.satisfying_partitions_mask(
                plane.labels.label_of(lid), grants
            )
        surviving = anywhere & live_before

        if not surviving:
            if anywhere:
                indices = [i for i in range(len(grants)) if anywhere >> i & 1]
                reason = (
                    f"query is permitted by partitions {indices} "
                    "but earlier queries committed to others"
                )
            else:
                reason = "no policy partition discloses enough to answer the query"
            return False, reason, live_before

        indices = [i for i in range(len(grants)) if surviving >> i & 1]
        return True, f"answered under partition(s) {indices}", surviving

    # ------------------------------------------------------------------
    # Decisions: the only entry points the transports use
    # ------------------------------------------------------------------
    def decide_query(
        self,
        query: ConjunctiveQuery,
        principal: Hashable,
        *,
        update: bool = True,
    ) -> ServiceDecision:
        """:meth:`decide` for a query object (no qid in hand)."""
        return self.decide(0, principal, update=update, query=query)

    def decide(
        self,
        qid: int,
        principal: Hashable,
        *,
        update: bool = True,
        query: Optional[ConjunctiveQuery] = None,
    ) -> ServiceDecision:
        """Decide one query for one principal: the single-decision body.

        With *query* given — what ``DisclosureService.submit`` / ``peek``
        pass — the id is interned from the object on the captured
        resolution plane (*qid* is ignored), so the call is
        plane-atomic and respects ``max_interned_shapes``.  Without
        one, *qid* must come from the **current** plane (a rotation
        invalidates bare ids — re-intern after one; id-native callers
        can watch :attr:`plane_epoch`).  With ``update=True`` the
        principal's session narrows on accept (the ``submit``
        semantics); with ``update=False`` nothing changes and unknown
        default-policy principals get a transient session (the ``peek``
        semantics).  Label resolution runs outside the session lock;
        the decision itself inside it.

        A sampled decision times canonicalize and label here, then
        decides as a group of one through :meth:`decide_group`, which
        times mask and outcome; the decision is the same either way.
        The sampler's countdown is inlined: a method call per decision
        is measurable at the warm single-query floor.
        """
        timer = self.stage_timer
        sampled = False
        if timer is not None:
            remaining = self._stage_countdown - 1
            if remaining > 0:
                self._stage_countdown = remaining
            else:
                self._stage_countdown = timer.rate
                sampled = True
                started = perf_counter()
        if query is None:
            plane = self._plane
        else:
            plane = self.resolution_plane()
            qid = plane.queries.intern(query)
        if sampled:
            interned = perf_counter()
        lid, cached = self._resolve(plane, qid, query)
        if sampled:
            if query is not None:
                timer.observe("canonicalize", interned - started)
            timer.observe("label", perf_counter() - interned)
        sessions = self.sessions
        with sessions._lock:
            session = (
                sessions._session(principal)
                if update
                else sessions._peek_session(principal)
            )
            if sampled:
                out = [None]
                self.decide_group(
                    plane, session, (0,), (lid,), (cached,), update, out, True
                )
                return out[0]
            policy = session.policy
            live_before = session.live
            if self._sync_policy(policy, plane):
                # The whole decision is a function of (lid, live) under
                # the policy: in steady state, one dict probe.
                memo = policy.outcome_memo
                key = (lid, live_before)
                outcome = memo.get(key)
                if outcome is None:
                    if len(memo) > policy.MEMO_LIMIT:
                        memo.clear()
                    anywhere = self._ensure_masks(plane, policy, (lid,))[lid]
                    outcome = self.evaluate(
                        plane, policy, live_before, lid, anywhere
                    )
                    memo[key] = outcome
            else:
                outcome = self.evaluate(plane, policy, live_before, lid)
            accepted, reason, surviving = outcome
            if update:
                if surviving != live_before:
                    # Only a narrowing accept is a durable mutation; a
                    # refusal returns the live mask unchanged.
                    session.live = surviving
                    dirty = sessions._dirty
                    if dirty is not None:
                        dirty.add(principal)
                session.pending_decided += 1
                if not accepted:
                    session.pending_refused += 1
            live_after = surviving if (accepted and update) else live_before
            return ServiceDecision(
                accepted,
                principal,
                reason,
                cached,
                live_before,
                live_after,
                plane.labels.label_of(lid),
            )

    def decide_many(
        self,
        qids: Sequence[int],
        principal: Hashable,
        *,
        update: bool = True,
        queries: Optional[Sequence[ConjunctiveQuery]] = None,
    ) -> List[ServiceDecision]:
        """Decide a sequence of current-plane qids for one principal.

        Semantically identical to calling :meth:`decide` once per qid
        in order, with the label stage bulk-resolved and the session
        lock taken once.  Same rotation caveat as :meth:`decide`; with
        *queries* given, the qids are advisory and the call is
        plane-atomic (ids re-derive from the objects).
        """
        if queries is not None:
            plane, lids, flags = self.resolve_queries(queries)
        else:
            plane, lids, flags = self.resolve_many(
                qids, None, plane=self._plane
            )
        sessions = self.sessions
        decisions: List[Optional[ServiceDecision]] = [None] * len(lids)
        with sessions._lock:
            session = (
                sessions._session(principal)
                if update
                else sessions._peek_session(principal)
            )
            self.decide_group(
                plane, session, range(len(lids)), lids, flags, update, decisions
            )
        return decisions  # type: ignore[return-value]

    def decide_group(
        self,
        plane: _Plane,
        session,
        indices: Sequence[int],
        lids: Sequence[int],
        flags: Sequence[bool],
        update: bool,
        out: List,
        sampled: Optional[bool] = None,
    ) -> int:
        """The batch inner loop: one session's decisions, written in place.

        Caller holds the session lock; *lids* belong to *plane*.  For
        each position in *indices*, decides ``lids[index]`` with cached
        flag ``flags[index]`` and stores the decision at
        ``out[index]``; returns the accepted count.  Two memo layers:
        the policy-wide ``(lid, live) → outcome`` memo skips the
        partition walk and reason formatting across batches; a
        batch-local ``(lid, live, cached) → decision`` memo reuses
        whole immutable :class:`ServiceDecision` objects for exact
        repeats within the group.  Updating groups tally the session's
        per-tenant counts here, under the caller's lock.

        *sampled* is the caller's stage-timer sample decision (a sampled
        single :meth:`decide` passes ``True``); ``None`` draws one here.
        """
        timer = self.stage_timer
        if sampled is None:
            sampled = timer is not None and len(indices) > 0 and timer.sample()
        t0 = perf_counter() if sampled else 0.0
        policy = session.policy
        # Most groups are one or two decisions against a policy already
        # synced and lids already masked: test both before paying setup.
        if policy.plane_epoch == plane.epoch or self._sync_policy(policy, plane):
            masks = policy.mask_memo
            for index in indices:
                if lids[index] not in masks:
                    masks = self._ensure_masks(
                        plane, policy, (lids[i] for i in indices)
                    )
                    break
            outcome_memo = policy.outcome_memo
            if len(outcome_memo) > policy.MEMO_LIMIT:
                outcome_memo.clear()
        else:
            # Rotation bypass: stale plane, never touch the shared memos.
            label_of = plane.labels.label_of
            distinct = dict.fromkeys(lids[i] for i in indices)
            masks = self.registry.satisfying_masks_by_id(
                list(distinct),
                [label_of(lid) for lid in distinct],
                policy.grants,
            )
            outcome_memo = {}
        t1 = perf_counter() if sampled else 0.0
        principal = session.principal
        live_at_entry = session.live
        decision_memo: Dict[Tuple[int, int, bool], ServiceDecision] = {}
        evaluate = self.evaluate
        label_of = plane.labels.label_of
        accepted_count = 0
        for index in indices:
            lid = lids[index]
            cached = flags[index]
            live_before = session.live
            decision_key = (lid, live_before, cached)
            decision = decision_memo.get(decision_key)
            if decision is None:
                outcome_key = (lid, live_before)
                outcome = outcome_memo.get(outcome_key)
                if outcome is None:
                    outcome = evaluate(plane, policy, live_before, lid, masks[lid])
                    outcome_memo[outcome_key] = outcome
                accepted, reason, surviving = outcome
                live_after = surviving if (accepted and update) else live_before
                decision = ServiceDecision(
                    accepted,
                    principal,
                    reason,
                    cached,
                    live_before,
                    live_after,
                    label_of(lid),
                )
                decision_memo[decision_key] = decision
            if decision.accepted:
                accepted_count += 1
                if update:
                    session.live = decision.live_after
            out[index] = decision
        if session.live != live_at_entry:
            # Live bits only ever narrow, so equal ends mean no accept
            # in the group changed them: nothing durable happened.
            dirty = self.sessions._dirty
            if dirty is not None:
                dirty.add(principal)
        if update:
            # Tallied before the caller's next _session() can evict (and
            # so drain) this session.
            session.pending_decided += len(indices)
            session.pending_refused += len(indices) - accepted_count
        if sampled:
            group = len(indices)
            timer.observe_many("mask", (t1 - t0) / group, group)
            timer.observe_many("outcome", (perf_counter() - t1) / group, group)
        return accepted_count

    # ------------------------------------------------------------------
    # Cache transport (warmth and snapshots)
    # ------------------------------------------------------------------
    def export_label_cache(self) -> List[Tuple]:
        """The shared label cache as ``(canonical_key, label)`` pairs.

        The qid/lid plane is private to one kernel generation, so the
        exported (picklable, JSON-encodable) form speaks canonical keys
        and packed labels — valid for any service over the same
        security views, exactly as before the ID plane existed.
        """
        plane = self._plane
        key_of = plane.queries.key_of
        label_of = plane.labels.label_of
        return [
            (key_of(qid), label_of(lid))
            for qid, lid in plane.cache.export_entries()
        ]

    def export_label_cache_since(
        self, plane_epoch: int, qid_floor: int
    ) -> Tuple[int, int, List[Tuple]]:
        """Incremental form of :meth:`export_label_cache`.

        Returns ``(plane_epoch, qid_count, entries)`` where *entries*
        covers only cache lines whose qid is >= *qid_floor* — qids are
        interned append-only within a plane generation, so any entry
        below the floor already appeared in an earlier export of the
        same generation.  When the plane rotated since *plane_epoch*
        (new generation, ids re-dealt), every entry is exported.

        An old-qid entry that was evicted and later re-cached between
        two exports never reappears in a delta; chain *replay* absorbs
        this by merging cache entries from every generation file, so a
        restart can only see extra warmth, never wrong labels.
        """
        plane = self._plane
        key_of = plane.queries.key_of
        label_of = plane.labels.label_of
        floor = qid_floor if plane.epoch == plane_epoch else 0
        return (
            plane.epoch,
            len(plane.queries),
            [
                (key_of(qid), label_of(lid))
                for qid, lid in plane.cache.export_entries()
                if qid >= floor
            ],
        )

    def import_label_cache(self, entries) -> int:
        """Import ``(canonical_key, label)`` pairs; returns the count."""
        plane = self._plane
        count = 0
        for key, label in entries:
            qid = plane.queries.intern_key(key)
            lid = plane.labels.intern(tuple(label))
            plane.cache.put(qid, lid)
            count += 1
        return count

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """ID-plane gauges for ``/metrics`` (the ``kernel`` section)."""
        plane = self._plane
        return {
            "queries_interned": len(plane.queries),
            "labels_interned": len(plane.labels),
            "plane_epoch": plane.epoch,
            "compiled_policies": len(self._compiled),
        }
