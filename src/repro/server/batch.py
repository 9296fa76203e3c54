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

1. **Intern** — every query object becomes a dense qid (once per
   distinct object, pinned on the object itself); v2 entries arrive
   with their qid already translated.
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
5. **Bookkeeping** — the service lock is taken once, counters are
   incremented in bulk, and the latency histogram records the
   amortized per-decision time once per batch.

Equivalence with the sequential path — byte-identical decisions and
identical end state — is the acceptance property of this module, held
by ``tests/server/test_batch.py`` across refusal interleavings,
repeated shapes, and cross-principal traffic.  :func:`parse_wire_request`
is the per-item validation of ``/v1/batch``.
"""

from __future__ import annotations

import time
from typing import Any, Coroutine, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.queries import ConjunctiveQuery
from repro.errors import PolicyError, ReproError

T = TypeVar("T")

#: One parsed ``/v1/batch`` item: a principal and a query.
BatchItem = Tuple[Hashable, ConjunctiveQuery]

#: Wire error for a batch entry that is not a JSON object.
ITEM_NOT_OBJECT_ERROR = "batch item must be a JSON object"

#: Wire error for a batch entry without a usable principal.
ITEM_PRINCIPAL_ERROR = "batch item needs a non-empty string 'principal'"

#: Wire error for a batch entry without query text.
ITEM_TEXT_ERROR = "batch item needs one of 'sql', 'fql', 'datalog'"

#: Wire error for a batch entry with a non-integer ``me``.
ITEM_ME_ERROR = "'me' must be an integer uid"


def observe_canonicalize(timer, started: float, entries, positions) -> None:
    """Record a sampled intern loop that began at *started* as the
    ``canonicalize`` stage, once per entry at *positions* it interned.

    Entries that arrive with a qid (v2, interned by the gateway) were
    canonicalized before the loop and are not counted.
    """
    interned = sum(1 for index in positions if entries[index][2] is None)
    if interned:
        timer.observe_many(
            "canonicalize", (time.perf_counter() - started) / interned, interned
        )


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
    if service._default_policy is None:
        distinct = {principal for principal, _, _ in entries}
        with service._lock:
            unknown = {
                principal
                for principal in distinct
                if principal not in service.store
            }
    else:
        unknown = frozenset()

    positions: List[int] = []
    qids: List[int] = []
    queries: List[Optional[ConjunctiveQuery]] = []
    intern = plane.queries.intern
    # One sample decision per batch: it times this intern loop as the
    # canonicalize stage and resolve_many's label pass.
    timer = kernel.stage_timer
    sampled = timer is not None and timer.sample()
    canonicalize_started = time.perf_counter() if sampled else 0.0
    for index, (principal, query, qid) in enumerate(entries):
        if principal in unknown:
            results[index] = {
                "error": f"unknown principal {principal!r}",
                "code": "unknown-principal",
            }
            continue
        positions.append(index)
        qids.append(intern(query) if qid is None else qid)
        queries.append(query)
    if sampled:
        observe_canonicalize(timer, canonicalize_started, entries, positions)
    if not positions:
        return results

    label_started = time.perf_counter() if timings is not None else 0.0
    plane, group_lids, group_flags = kernel.resolve_many(
        qids, queries, plane=plane, sampled=sampled
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
    tally = update and kernel.tenant_accounting
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
            group_accepted = kernel.decide_group(
                plane, session, indices, lids, flags, update, results
            )
            accepted_count += group_accepted
            decided += len(indices)
            if tally:
                # Tallied before the next group's _session() can evict
                # (and so drain) this session; see the kernel's single path.
                session.pending_decided += len(indices)
                session.pending_refused += len(indices) - group_accepted
    if timings is not None:
        timings["decide_us"] = (time.perf_counter() - decide_started) * 1e6

    if decided:
        if update:
            service.decisions.increment(decided)
            service.accepted.increment(accepted_count)
            service.refused.increment(decided - accepted_count)
            service.latency.record_many(
                (time.perf_counter() - start) / decided, decided
            )
        else:
            service.peeks.increment(decided)
    return results


def parse_wire_request(
    service, request: object
) -> "Tuple[Optional[BatchItem], Optional[str]]":
    """Turn one wire request into ``((principal, query), None)`` or
    ``(None, error_message)``.

    Mirrors the single-request validation of the HTTP layer so that a
    batch item fails with the same message the equivalent standalone
    ``/v1/query`` call would have produced.
    """
    if not isinstance(request, dict):
        return None, ITEM_NOT_OBJECT_ERROR
    principal = request.get("principal")
    if not isinstance(principal, str) or not principal:
        return None, ITEM_PRINCIPAL_ERROR
    text = dialect = None
    for candidate in ("sql", "fql", "datalog"):
        if candidate in request:
            text, dialect = request[candidate], candidate
            break
    if not isinstance(text, str):
        return None, ITEM_TEXT_ERROR
    me = request.get("me", 1)
    if not isinstance(me, int) or isinstance(me, bool):
        return None, ITEM_ME_ERROR
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
