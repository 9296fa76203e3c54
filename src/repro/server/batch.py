"""The batch transport adapter over the decision kernel.

One-at-a-time serving pays a fixed Python toll per decision: an intern
probe, a locked cache lookup, three counter locks, and a histogram
update.  Real app-ecosystem traffic is heavily repetitive — the same
handful of query shapes, per principal, per tick — so a batch of
decisions can share almost all of that work.  Since the ID-plane
refactor the sharing itself lives in
:class:`~repro.server.kernel.DecisionKernel` (bulk label resolution,
per-session mask and outcome memos, all keyed by dense integer ids);
this module is only the *transport*: it turns an ordered
``(principal, query)`` stream into per-principal groups of qids, routes
each group through the kernel, and does the batch bookkeeping.

The plan for a batch:

1. **Intern** — every query becomes a dense qid (once per distinct
   object, pinned on the object itself).
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
repeated shapes, and cross-principal traffic.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.queries import ConjunctiveQuery
from repro.errors import PolicyError, ReproError

#: One submit-batch item: a principal and a parsed query.
BatchItem = Tuple[Hashable, ConjunctiveQuery]

#: Wire error for a batch entry that is not a JSON object.
ITEM_NOT_OBJECT_ERROR = "batch item must be a JSON object"

#: Wire error for a batch entry without a usable principal.
ITEM_PRINCIPAL_ERROR = "batch item needs a non-empty string 'principal'"

#: Wire error for a batch entry without query text.
ITEM_TEXT_ERROR = "batch item needs one of 'sql', 'fql', 'datalog'"

#: Wire error for a batch entry with a non-integer ``me``.
ITEM_ME_ERROR = "'me' must be an integer uid"


def decide_batch(
    service,
    items: Iterable[BatchItem],
    *,
    update: bool,
    qids: Optional[Sequence[int]] = None,
    qids_plane: object = None,
) -> List:
    """Decide *items* as one batch; the core of ``submit_batch``.

    With ``update=True`` session state evolves item by item exactly as
    sequential submits would; with ``update=False`` every item is a
    stateless peek.  Principals are validated before any state change.
    *qids* lets a caller that already interned the queries (the shard
    router ships qids ahead of the sub-batch) skip the intern stage; it
    must be index-aligned with *items* and carry the kernel plane it
    was interned against in *qids_plane* — if that plane has rotated
    away, the qids are silently re-derived from the query objects.
    """
    items = list(items)
    total = len(items)
    if not total:
        return []
    start = time.perf_counter()

    kernel = service.kernel
    queries = [query for _, query in items]
    if qids is not None and qids_plane is kernel.plane:
        plane, lids, cached_flags = kernel.resolve_many(
            qids, queries, plane=qids_plane
        )
    else:
        plane, lids, cached_flags = kernel.resolve_queries(queries)

    groups: "OrderedDict[Hashable, List[int]]" = OrderedDict()
    for index, (principal, _) in enumerate(items):
        groups.setdefault(principal, []).append(index)

    decisions: List = [None] * total
    accepted_count = 0
    tally = update and kernel.tenant_accounting
    with service._lock:
        if update and service._default_policy is None:
            # All-or-nothing validation: no session may change if any
            # principal in the batch is unknown.
            for principal in groups:
                if principal not in service.store:
                    raise PolicyError(f"unknown principal {principal!r}")
        for principal, indices in groups.items():
            session = (
                service._session(principal)
                if update
                else service._peek_session(principal)
            )
            group_accepted = kernel.decide_group(
                plane, session, indices, lids, cached_flags, update, decisions
            )
            accepted_count += group_accepted
            if tally:
                # Tallied before the next group's _session() can evict
                # (and so drain) this session; see the kernel's single path.
                session.pending_decided += len(indices)
                session.pending_refused += len(indices) - group_accepted

    if update:
        service.decisions.increment(total)
        service.accepted.increment(accepted_count)
        service.refused.increment(total - accepted_count)
        service.latency.record_many(
            (time.perf_counter() - start) / total, total
        )
    else:
        service.peeks.increment(total)
    return decisions


def decide_wire_items(
    service,
    entries: "Sequence[Tuple[Hashable, Optional[ConjunctiveQuery], Optional[int]]]",
    *,
    update: bool,
    plane: object = None,
    timings: Optional[Dict] = None,
) -> List:
    """Per-item-isolated bulk decide over mixed query/qid entries.

    This is the shared decision core of every v2 surface — the
    ``/v2/batch`` route, the asyncio front end's per-tick drain, and
    :class:`repro.client.LocalClient` — so all three produce identical
    decisions and identical error entries by construction.

    Each entry is ``(principal, query, qid)`` where exactly one of
    *query* (a parsed object, interned here) or *qid* (already interned
    against *plane* — the v2 gateway's translation output) may be
    ``None``.  *plane* must be the kernel plane any given qids belong
    to; with ``plane=None`` the current resolution plane is captured
    (entries must then carry query objects).

    Unlike :func:`decide_batch`, principals are isolated rather than
    all-or-nothing: an unknown principal (no default policy) yields an
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
    if not positions:
        return results

    label_started = time.perf_counter() if timings is not None else 0.0
    plane, group_lids, group_flags = kernel.resolve_many(
        qids, queries, plane=plane
    )
    if timings is not None:
        decide_started = time.perf_counter()
        timings["label_us"] = (decide_started - label_started) * 1e6
    lids: List[int] = [0] * total
    flags: List[bool] = [False] * total
    for position, lid, flag in zip(positions, group_lids, group_flags):
        lids[position] = lid
        flags[position] = flag

    groups: "OrderedDict[Hashable, List[int]]" = OrderedDict()
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
    if not isinstance(me, int):
        return None, ITEM_ME_ERROR
    try:
        query = service.parse(text, dialect, me)
    except ReproError as exc:
        return None, str(exc)
    return (principal, query), None


def decide_batch_wire(
    service, requests: Sequence[object], peek: bool = False
) -> List[Dict]:
    """Per-item-isolated wire batch; the core of ``/v1/batch``.

    Malformed items, parse failures, and unknown principals become
    ``{"error": ...}`` entries at their index; every valid item is
    decided.  Valid items see exactly the state evolution they would
    have seen had the invalid ones never been sent — which is also what
    N independent ``/v1/query`` calls yield, since an erroneous call
    never changes session state.
    """
    results: List[Optional[Dict]] = [None] * len(requests)
    valid: List[Tuple[int, BatchItem]] = []
    for index, request in enumerate(requests):
        item, error = parse_wire_request(service, request)
        if error is not None:
            results[index] = {"error": error}
            continue
        principal = item[0]
        if principal not in service and service._default_policy is None:
            results[index] = {"error": f"unknown principal {principal!r}"}
            continue
        valid.append((index, item))
    if valid:
        batch = [item for _, item in valid]
        try:
            decided = (
                service.peek_batch(batch)
                if peek
                else service.submit_batch(batch)
            )
        except PolicyError as exc:
            # A principal vanished between validation and decision (a
            # concurrent unregister): fail the whole remainder softly
            # rather than 500 the request.
            for index, _ in valid:
                results[index] = {"error": str(exc)}
        else:
            for (index, _), decision in zip(valid, decided):
                results[index] = decision.as_dict()
    return results  # type: ignore[return-value]
