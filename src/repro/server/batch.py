"""The batch transport adapter over the decision kernel.

One-at-a-time serving pays a fixed Python toll per decision: an intern
probe, a locked cache lookup, three counter locks, and a histogram
update.  Real app-ecosystem traffic is heavily repetitive — the same
handful of query shapes, per principal, per tick — so a batch of
decisions can share almost all of that work.  Since the ID-plane
refactor the sharing itself lives in
:class:`~repro.server.kernel.DecisionKernel` (bulk label resolution,
per-session mask and outcome memos, all keyed by dense integer ids);
this module is only the *transport*: :func:`decide_wire_items` turns
an ordered ``(principal, query, qid)`` stream into per-principal groups
of qids, routes each group through the kernel, and does the batch
bookkeeping.

The plan for a batch:

1. **Admit** (:func:`admit_entries`, shared with the replica pool) —
   unknown principals are isolated, and every query object becomes a
   dense qid (once per distinct object, pinned on the object itself);
   v2 entries arrive with their qid already translated.
2. **Labels** (:meth:`DecisionKernel.resolve_many`) — the shared
   qid → lid cache is consulted once per distinct qid; repeats within
   the batch are served from a batch-local memo (and accounted as
   cache hits so ``/metrics`` matches the sequential path).
3. **Grouping** — item indices are grouped by principal, preserving
   input order within each group.  Sessions are independent, so
   deciding group-by-group is exactly equivalent to deciding the whole
   batch in input order.
4. **Decide** (:meth:`DecisionKernel.decide_group`) — per group, masks
   are bulk-computed once per distinct lid and each decision reduces
   to int-keyed memo probes, with whole decisions reused for exact
   repeats.
5. **Bookkeeping** (:func:`account`, shared with the replica pool's
   parent) — counters are incremented in bulk, and the latency
   histogram records the amortized per-decision time once per batch.

Equivalence with the sequential path — byte-identical decisions and
identical end state — is the acceptance property of this module, held
by ``tests/server/test_batch.py`` across refusal interleavings,
repeated shapes, and cross-principal traffic.  :func:`parse_wire_request`
is the one v1 body validation, for single requests and batch items.
"""

from __future__ import annotations

import time
from typing import Any, Coroutine, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.queries import ConjunctiveQuery
from repro.errors import PolicyError, ReproError

T = TypeVar("T")

#: One parsed v1 decision request or batch item: a principal and a query.
BatchItem = Tuple[Hashable, ConjunctiveQuery]

def admit_entries(
    service,
    plane,
    entries: "Sequence[Tuple[Hashable, Optional[ConjunctiveQuery], Optional[int]]]",
    results: List,
) -> Tuple[List[int], List[int], bool]:
    """The admission step of every batch decide: ``(positions, qids,
    sampled)``.

    An entry whose principal is unknown (no default policy) gets its
    ``{"error": ..., "code": "unknown-principal"}`` entry in *results*
    and is left out; every other entry's index goes to *positions* and
    its qid on *plane* to *qids* (query objects are interned here, v2
    entries arrive with their qid).  One stage-sample decision is drawn
    per batch: a sampled batch times this intern loop as the
    ``canonicalize`` stage, once per entry it interned, and *sampled*
    tells the caller to time its label pass too.
    :func:`decide_wire_items` and the replica pool's
    :meth:`~repro.server.pool.ReplicaPool.decide_async` both admit
    through it, against the same authoritative session set.
    """
    if service._default_policy is None:
        distinct = {principal for principal, _, _ in entries}
        with service._lock:
            store = service.store
            unknown = {p for p in distinct if p not in store}
    else:
        unknown = frozenset()
    positions: List[int] = []
    qids: List[int] = []
    intern = plane.queries.intern
    timer = service.kernel.stage_timer
    sampled = timer is not None and timer.sample()
    started = time.perf_counter() if sampled else 0.0
    for index, (principal, query, qid) in enumerate(entries):
        if principal in unknown:
            results[index] = {
                "error": f"unknown principal {principal!r}",
                "code": "unknown-principal",
            }
            continue
        positions.append(index)
        qids.append(intern(query) if qid is None else qid)
    if sampled:
        interned = sum(1 for index in positions if entries[index][2] is None)
        if interned:
            timer.observe_many(
                "canonicalize", (time.perf_counter() - started) / interned, interned
            )
    return positions, qids, sampled


def decide_wire_items(
    service,
    entries: "Sequence[Tuple[Hashable, Optional[ConjunctiveQuery], Optional[int]]]",
    *,
    update: bool,
    plane: object = None,
    timings: Optional[Dict] = None,
) -> List:
    """Per-item-isolated bulk decide over mixed query/qid entries.

    This is the one batch decision core: both batch routes, the
    asyncio front end's tick drain, :meth:`DisclosureService.submit_batch`
    and :class:`repro.client.LocalClient` all decide through it (the
    replica pool's :meth:`~repro.server.pool.ReplicaPool.decide_async`
    runs it on each replica), so they produce identical decisions and
    identical error entries by construction.

    Each entry is ``(principal, query, qid)`` where exactly one of
    *query* (a parsed object, interned here) or *qid* (already interned
    against *plane* — the v2 gateway's translation output) may be
    ``None``.  *plane* must be the kernel plane any given qids belong
    to; with ``plane=None`` the current resolution plane is captured
    (entries must then carry query objects).

    Principals are isolated rather than all-or-nothing (that is
    :meth:`DisclosureService.submit_batch`'s own pre-check): an unknown
    principal (no default policy) yields an
    ``{"error": ..., "code": "unknown-principal"}`` entry at its index
    while every other item is still decided — the v2 wire taxonomy.
    Returns a list aligned with *entries* whose elements are
    :class:`~repro.server.kernel.ServiceDecision` objects or error
    dicts.  State evolves in entry order, exactly as sequential
    submits of the valid items would.

    *timings*, when given, receives ``label_us`` (intern + label
    resolution) and ``decide_us`` (the locked mask/outcome pass) wall
    times for this call — the per-request kernel stage breakdown of a
    traced v2 request.
    """
    entries = list(entries)
    total = len(entries)
    if not total:
        return []
    start = time.perf_counter()

    kernel = service.kernel
    if plane is None:
        plane = kernel.resolution_plane()

    results: List = [None] * total
    positions, qids, sampled = admit_entries(service, plane, entries, results)
    if not positions:
        return results

    label_started = time.perf_counter() if timings is not None else 0.0
    plane, group_lids, group_flags = kernel.resolve_many(
        qids, [entries[index][1] for index in positions], plane=plane,
        sampled=sampled,
    )
    if timings is not None:
        decide_started = time.perf_counter()
        timings["label_us"] = (decide_started - label_started) * 1e6
    lids: List[int] = [0] * total
    flags: List[bool] = [False] * total
    for position, lid, flag in zip(positions, group_lids, group_flags):
        lids[position] = lid
        flags[position] = flag

    groups: Dict[Hashable, List[int]] = {}
    for position in positions:
        groups.setdefault(entries[position][0], []).append(position)

    accepted_count = 0
    decided = 0
    with service._lock:
        for principal, indices in groups.items():
            try:
                session = (
                    service._session(principal)
                    if update
                    else service._peek_session(principal)
                )
            except PolicyError as exc:
                # The principal vanished between validation and decision
                # (a concurrent unregister): isolate it like any other
                # unknown principal.
                error = {"error": str(exc), "code": "unknown-principal"}
                for index in indices:
                    results[index] = dict(error)
                continue
            accepted_count += kernel.decide_group(
                plane, session, indices, lids, flags, update, results
            )
            decided += len(indices)
    if timings is not None:
        timings["decide_us"] = (time.perf_counter() - decide_started) * 1e6
    account(service, decided, accepted_count, update, start)
    return results


def account(
    service, decided: int, accepted: int, update: bool, started: float
) -> None:
    """Count *decided* decisions, *accepted* of them accepted, begun at
    ``perf_counter()`` *started*: the one bookkeeping step behind the
    ``decisions``/``accepted``/``refused``/``peeks`` counters and the
    latency histogram.

    :func:`decide_wire_items` accounts each batch it decides, and the
    replica pool's parent each batch it absorbs from its replicas, so a
    pooled deployment counts every decision once, in the process that
    outlives its replicas.  Updating decisions record the amortized
    per-decision time; peeks only count.
    """
    if not decided:
        return
    if update:
        service.decisions.increment(decided)
        service.accepted.increment(accepted)
        service.refused.increment(decided - accepted)
        service.latency.record_many(
            (time.perf_counter() - started) / decided, decided
        )
    else:
        service.peeks.increment(decided)


def parse_wire_request(
    service, request: object, noun: str = "batch item"
) -> "Tuple[Optional[BatchItem], Optional[str]]":
    """Turn one v1 decision request into ``((principal, query), None)``
    or ``(None, error_message)``.

    The one v1 body validator: ``/v1/query`` and ``/v1/peek`` bodies
    (*noun* ``"request"``) and ``/v1/batch`` items (the default) run
    the same principal, dialect and ``me`` checks and the same parse, so
    a batch item fails with the message the equivalent standalone call
    would have produced, named for what it is.
    """
    if not isinstance(request, dict):
        return None, f"{noun} must be a JSON object"
    principal = request.get("principal")
    if not isinstance(principal, str) or not principal:
        return None, f"{noun} needs a non-empty string 'principal'"
    text = dialect = None
    for candidate in ("sql", "fql", "datalog"):
        if candidate in request:
            text, dialect = request[candidate], candidate
            break
    if not isinstance(text, str):
        return None, f"{noun} needs one of 'sql', 'fql', 'datalog'"
    me = request.get("me", 1)
    if not isinstance(me, int) or isinstance(me, bool):
        return None, "'me' must be an integer uid"
    try:
        query = service.parse(text, dialect, me)
    except ReproError as exc:
        return None, str(exc)
    return (principal, query), None


def _blocking(coro: Coroutine[Any, Any, T], served: bool = False) -> T:
    """Run a coroutine that never suspends to its result, without a loop.

    Its users build coroutines whose waits return at once when no loop
    drives them: the tick drain run unpooled, every replica-pool
    coroutine given ``loop=None``, the sync HTTP client's operations
    (:mod:`repro.client.core` over a blocking shell) and the scenario
    engine's replay of a sync client.  Each finishes within its first
    ``send``, so a blocking call costs one coroutine object, not an
    event loop.  A suspension would break that invariant, so it raises
    rather than waits.  *served* refuses the call outright: while an
    event loop serves a pool, its tick drain owns the replica pipes.
    """
    if served:
        coro.close()
        raise RuntimeError(
            "the replica pool is served by an event loop; "
            "only its tick drain may use the replica pipes"
        )
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError(
        "a coroutine run without an event loop suspended; "
        "it must finish within its first step"
    )
