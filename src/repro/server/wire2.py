"""Server side of the qid-native ``/v2`` wire protocol.

The ``/v1`` wire re-ships and re-parses full query text on every
request: a steady-state deployment whose traffic cycles a few thousand
query shapes pays datalog/SQL parsing, canonicalization, and key
hashing per decision — work the in-process path eliminated long ago
through the interned ID plane.  The v2 protocol extends that plane
across the wire, the way the replica pool ships qids plus interner
deltas to its kernel replicas (:mod:`repro.server.pool`):

* The **client** runs its own
  :class:`~repro.server.interning.QueryInterner` under a random
  *generation* id.  A request carries dense client qids plus the
  *delta* of canonical keys the server has not seen from this
  generation (``base`` = how many keys the server already holds).
  Repeat traffic ships a few ints per decision.
* The **server** (this module) keeps one
  :class:`WireGateway` per service: a bounded LRU of generations, each
  a key table plus its translation into the kernel's current plane
  (rebuilt after a plane rotation, extended by deltas otherwise).
* Decisions run through
  :func:`repro.server.batch.decide_wire_items` — the same per-item
  isolated, qid-native core the asyncio front end and
  :class:`repro.client.LocalClient` use — so every v2 surface produces
  identical decisions by construction.

**The v2 error taxonomy.**  Every v2 error body is
``{"error": <message>, "code": <slug>}`` so clients can react without
parsing prose:

=====================  ======  ===========================================
code                   status  meaning
=====================  ======  ===========================================
``bad-request``        400     malformed body / missing or mistyped field
``bad-delta``          400     an interner delta entry does not decode,
                               or the generation key cap is exceeded
``unknown-generation`` 409     the request assumes the server holds more
                               keys than it does (evicted generation or a
                               server restart) — resync with ``base=0``
                               and the full key table, then retry
``unknown-qid``        400     a qid outside the generation's key table
``oversized-batch``    400     more items than ``MAX_BATCH``
``unknown-principal``  404     single-query form only; in a batch it is a
                               per-item ``{"error", "code"}`` entry
=====================  ======  ===========================================

**Content negotiation.**  ``GET /v2/protocol`` advertises the versions
and limits a server speaks, for other implementors; the clients in
``repro.client`` speak v2 without asking.  Within v2, a
request with ``"compact": true`` negotiates the dense response form:
decision rows become int arrays with a per-response deduplicated reason
table instead of full JSON objects — the response-side analogue of the
qid delta.  Both forms carry identical information; clients re-inflate
compact rows into the stable v1 decision dicts.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.canonical import (
    CanonicalKey,
    canonical_key,
    decode_key,
    query_from_key,
)
from repro.server.batch import decide_wire_items
from repro.server.kernel import ServiceDecision

#: Maximum accepted request body (8 MiB — enough for a large batch).
MAX_BODY = 8 << 20

#: Maximum entries in one ``/v1/batch`` or ``/v2/batch`` request.
MAX_BATCH = 10_000

#: Client generations one gateway remembers (LRU beyond this).
GENERATION_CAP = 64

#: Canonical keys one generation may hold; deltas past this are refused
#: (clients rotate to a fresh generation instead).
GENERATION_KEYS_CAP = 1 << 16

#: The v2 error codes (see the module docstring for the taxonomy).
BAD_REQUEST = "bad-request"
BAD_DELTA = "bad-delta"
UNKNOWN_GENERATION = "unknown-generation"
UNKNOWN_QID = "unknown-qid"
OVERSIZED_BATCH = "oversized-batch"
UNKNOWN_PRINCIPAL = "unknown-principal"


class WireError(Exception):
    """A v2 request-shaped failure: carries the HTTP status and code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code

    def payload(self) -> Dict:
        return {"error": str(self), "code": self.code}


def _decode_delta_key(index: int, encoded: object) -> CanonicalKey:
    """Decode AND validate one delta entry; raises the bad-delta error.

    Decodability alone is not enough: the key enters the kernel's
    shared interner, where decision processing later rebuilds a
    representative query from it (``query_from_key``) — a structurally
    decodable but malformed key would crash *that* code path, on some
    later request, for whichever connection triggered it.  So the full
    contract is checked here, at the trust boundary: the key must
    rebuild into a query whose canonical key is the key itself (true
    for every genuinely canonical key by construction).
    """
    try:
        key = decode_key(encoded)
        rebuilt = query_from_key(key)
    except Exception as exc:  # noqa: BLE001 - any malformation → 400
        raise WireError(
            400, BAD_DELTA, f"delta entry {index}: {exc}"
        ) from None
    if canonical_key(rebuilt) != key:
        raise WireError(
            400,
            BAD_DELTA,
            f"delta entry {index} is not a canonical query key",
        )
    return key


class _Generation:
    """One client interner generation and its kernel translation."""

    __slots__ = ("keys", "plane", "qids")

    def __init__(self) -> None:
        #: client qid -> canonical key (client qids are list indices).
        self.keys: List[CanonicalKey] = []
        #: The kernel plane :attr:`qids` belongs to (rebuilt on rotation).
        self.plane: object = None
        #: client qid -> kernel qid, aligned with :attr:`keys`.
        self.qids: List[int] = []


class WireGateway:
    """Translates one service's v2 traffic onto its decision kernel.

    Holds the per-generation key tables and their kernel-qid
    translations.  All methods are thread-safe (an embedding may call
    :func:`repro.server.aio.dispatch` from several threads); the asyncio
    front end shares the same gateway from its single loop thread.
    """

    def __init__(self, service):
        self.service = service
        self._generations: "OrderedDict[str, _Generation]" = OrderedDict()  # guarded-by: _lock
        #: The last-resolved generation, already at the LRU end: a
        #: connection's requests all name it, so they skip the probe.
        self._hot: Optional[Tuple[str, _Generation]] = None  # guarded-by: _lock
        self._lock = threading.Lock()

    def generation_count(self) -> int:
        with self._lock:
            return len(self._generations)

    def forget_all(self) -> None:
        """Drop every generation (tests simulate a server restart)."""
        with self._lock:
            self._generations.clear()
            self._hot = None

    def resolve(
        self,
        gen: object,
        base: object,
        delta: object,
        refs: Sequence[int],
    ) -> Tuple[object, List[int]]:
        """Absorb a delta and translate client qids into kernel qids.

        Returns ``(plane, kernel_qids)`` — the kernel plane the ids are
        valid against (pass it straight to
        :func:`~repro.server.batch.decide_wire_items`).  Raises
        :class:`WireError` for every taxonomy case.
        """
        # Exact-type tests: decoded JSON values have no subclasses.
        if type(gen) is not str or not gen:
            raise WireError(
                400, BAD_REQUEST, "request needs a non-empty string 'gen'"
            )
        if base is None:
            base = 0
        if type(base) is not int or base < 0:
            raise WireError(
                400, BAD_REQUEST, "'base' must be a non-negative integer"
            )
        if delta is None:
            delta = ()
        elif type(delta) is not list:
            raise WireError(
                400, BAD_DELTA, "'delta' must be a list of encoded keys"
            )
        kernel = self.service.kernel
        with self._lock:
            hot = self._hot
            if hot is not None and hot[0] == gen:
                entry = hot[1]
            else:
                entry = self._generations.get(gen)
                if entry is None:
                    entry = _Generation()
                    self._generations[gen] = entry
                    while len(self._generations) > GENERATION_CAP:
                        self._generations.popitem(last=False)
                else:
                    self._generations.move_to_end(gen)
                self._hot = gen, entry
            keys = entry.keys
            if base > len(keys):
                raise WireError(
                    409,
                    UNKNOWN_GENERATION,
                    f"generation {gen!r} holds {len(keys)} keys but the "
                    f"request assumes {base}; resync from base 0",
                )
            if base + len(delta) > GENERATION_KEYS_CAP:
                raise WireError(
                    400,
                    BAD_DELTA,
                    f"delta would grow generation {gen!r} past the "
                    f"{GENERATION_KEYS_CAP}-key cap; rotate to a fresh "
                    "generation",
                )
            for offset, encoded in enumerate(delta):
                index = base + offset
                if index < len(keys):
                    continue  # a concurrent request already shipped it
                keys.append(_decode_delta_key(index, encoded))
            # Translate into the kernel's current plane: rebuild after a
            # rotation, extend for freshly appended keys otherwise.
            plane = kernel.resolution_plane()
            if entry.plane is not plane:
                entry.plane = plane
                _, entry.qids = kernel.intern_keys(keys, plane=plane)
            elif len(entry.qids) < len(keys):
                _, grown = kernel.intern_keys(
                    keys[len(entry.qids) :], plane=plane
                )
                entry.qids.extend(grown)
            table = entry.qids
            size = len(keys)
            kernel_qids: List[int] = []
            for qid in refs:
                if type(qid) is not int or not 0 <= qid < size:
                    raise WireError(
                        400,
                        UNKNOWN_QID,
                        f"qid {qid!r} is outside generation {gen!r} "
                        f"({size} keys interned)",
                    )
                kernel_qids.append(table[qid])
            return plane, kernel_qids


_GATEWAY_LOCK = threading.Lock()


def gateway_for(service) -> WireGateway:
    """The service's singleton :class:`WireGateway` (created lazily)."""
    gateway = getattr(service, "_wire2_gateway", None)
    if gateway is None:
        with _GATEWAY_LOCK:
            gateway = getattr(service, "_wire2_gateway", None)
            if gateway is None:
                gateway = WireGateway(service)
                service._wire2_gateway = gateway
    return gateway


# ----------------------------------------------------------------------
# Response rendering: full dicts or the negotiated compact rows
# ----------------------------------------------------------------------
#: JSON text of the reasons sent lately (a tick repeats a handful).
_REASON_JSON: Dict[str, bytes] = {}


def render_single(decision_or_error, compact: bool):
    """One decision (or per-item error) as its response payload; the
    compact row as its JSON bytes, ``json.dumps`` of ``[accepted,
    cached, live_before, live_after, reason]`` byte for byte."""
    if isinstance(decision_or_error, ServiceDecision):
        if compact:
            reason = decision_or_error.reason
            encoded = _REASON_JSON.get(reason)
            if encoded is None:
                if len(_REASON_JSON) >= 1024:
                    _REASON_JSON.clear()
                encoded = _REASON_JSON[reason] = json.dumps(reason).encode()
            return b"[%d, %d, %d, %d, %b]" % (
                decision_or_error.accepted,
                decision_or_error.cached,
                decision_or_error.live_before,
                decision_or_error.live_after,
                encoded,
            )
        return decision_or_error.as_dict()
    return decision_or_error  # an error dict, identical in both forms


def render_batch(
    results: Sequence, principal_indices: Sequence[int], compact: bool
) -> Dict:
    """A :func:`decide_wire_items` result list as the batch response."""
    if not compact:
        return {
            "decisions": [
                item.as_dict() if isinstance(item, ServiceDecision) else item
                for item in results
            ],
            "count": len(results),
        }
    reasons: List[str] = []
    reason_index: Dict[str, int] = {}
    rows: List = []
    for item, principal_idx in zip(results, principal_indices):
        if not isinstance(item, ServiceDecision):
            rows.append(item)
            continue
        index = reason_index.get(item.reason)
        if index is None:
            index = len(reasons)
            reason_index[item.reason] = index
            reasons.append(item.reason)
        rows.append(
            [
                int(item.accepted),
                int(item.cached),
                item.live_before,
                item.live_after,
                index,
                principal_idx,
            ]
        )
    return {
        "compact": True,
        "decisions": rows,
        "reasons": reasons,
        "count": len(rows),
    }


# ----------------------------------------------------------------------
# The /v2 route handlers
# ----------------------------------------------------------------------
def protocol_info(service) -> Dict:
    """``GET /v2/protocol``: the versions and limits this server speaks."""
    return {
        "versions": ["v1", "v2"],
        "wire": "qid-delta",
        "compact": True,
        "trace": True,
        "max_batch": MAX_BATCH,
        "max_body": MAX_BODY,
        "generation_keys_cap": GENERATION_KEYS_CAP,
    }


def _principal_of(body: Dict) -> str:
    principal = body.get("principal")
    if type(principal) is not str or not principal:
        raise WireError(
            400, BAD_REQUEST, "request needs a non-empty string 'principal'"
        )
    return principal


def _flag_of(body: Dict, name: str) -> bool:
    value = body.get(name, False)
    if type(value) is not bool:
        raise WireError(400, BAD_REQUEST, f"'{name}' must be a boolean")
    return value


def resolve_single(
    service, body: Dict
) -> Tuple[str, bool, bool, bool, object, int]:
    """Validate and translate a ``/v2/query`` body (the shared half).

    Returns ``(principal, peek, compact, trace, plane, kernel_qid)``;
    raises :class:`WireError` for every request-shaped failure.  The tick
    drain and :func:`handle_query` both call this, so their validation
    cannot drift.
    """
    principal = _principal_of(body)
    peek = _flag_of(body, "peek")
    compact = _flag_of(body, "compact")
    trace = _flag_of(body, "trace")
    qid = body.get("qid")
    if type(qid) is not int:
        raise WireError(400, BAD_REQUEST, "'qid' must be an integer")
    plane, qids = gateway_for(service).resolve(
        body.get("gen"), body.get("base"), body.get("delta"), (qid,)
    )
    return principal, peek, compact, trace, plane, qids[0]


def traced_payload(
    service, result: ServiceDecision, span: Dict, started: float, timings: Dict
) -> Dict:
    """The traced full-dict response of *result*.

    *span* gains the decide pass's stage *timings*, amortized over its
    ``coalesced`` members, and the serialization and total times; it
    lands on the wire (``payload["trace"]``) and in the service's
    :class:`~repro.obs.TraceBuffer` (``GET /internal/trace``).
    """
    rendered = perf_counter()
    payload = result.as_dict()
    coalesced = span["coalesced"]
    span["label_us"] = timings.get("label_us", 0.0) / coalesced
    span["decide_us"] = timings.get("decide_us", 0.0) / coalesced
    span["serialize_us"] = (perf_counter() - rendered) * 1e6
    span["total_us"] = (rendered - started) * 1e6
    traces = getattr(service, "traces", None)
    if traces is not None:
        traces.append(span)
    payload["trace"] = span
    return payload


def single_error_status(result: Dict) -> int:
    """HTTP status for a per-item error promoted to a single response."""
    return 404 if result.get("code") == UNKNOWN_PRINCIPAL else 400


def handle_query(service, body: Dict) -> Tuple[int, object]:
    """``POST /v2/query``: one qid-native decision.

    With ``"trace": true`` the response is always the full dict form
    (``compact`` is ignored — a span needs a key to hang off) and
    carries a ``trace`` object: per-stage kernel timings plus queue and
    serialization accounting.  A request routed through
    :func:`repro.server.aio.dispatch` is decided alone, so ``queue_us``
    is 0 and ``coalesced`` is 1 here; the tick drain fills in real values.
    """
    try:
        principal, peek, compact, trace, plane, qid = resolve_single(
            service, body
        )
    except WireError as exc:
        return exc.status, exc.payload()
    timings: Optional[Dict] = {} if trace else None
    started = perf_counter()
    (result,) = decide_wire_items(
        service,
        [(principal, None, qid)],
        update=not peek,
        plane=plane,
        timings=timings,
    )
    if isinstance(result, dict):  # per-item error taxonomy, promoted
        return single_error_status(result), result
    if trace:
        span = {
            "transport": "http",
            "principal": principal,
            "qid": body.get("qid"),
            "peek": peek,
            "coalesced": 1,
            "queue_us": 0.0,
        }
        return 200, traced_payload(service, result, span, started, timings)
    if compact:
        # A route answers JSON values (dispatch's contract); the
        # asyncio tick path sends render_single's bytes instead.
        return 200, [
            int(result.accepted),
            int(result.cached),
            result.live_before,
            result.live_after,
            result.reason,
        ]
    return 200, result.as_dict()


def resolve_batch(service, body: Dict):
    """Validate a ``/v2/batch`` body down to decidable wire entries.

    Returns ``(peek, compact, principal_indices, plane, entries)`` where
    *entries* is the ``(principal, None, qid)`` list every decide core
    accepts — :func:`decide_wire_items` locally,
    :meth:`repro.server.pool.ReplicaPool.decide` in pooled mode.  Raises
    :class:`WireError` on any malformed field, so both callers share one
    validation surface byte for byte.
    """
    peek = _flag_of(body, "peek")
    compact = _flag_of(body, "compact")
    items = body.get("items")
    if not isinstance(items, list):
        raise WireError(
            400, BAD_REQUEST, "batch needs an 'items' list of [p, qid]"
        )
    if len(items) > MAX_BATCH:
        raise WireError(
            400,
            OVERSIZED_BATCH,
            f"batch of {len(items)} exceeds the {MAX_BATCH} limit",
        )
    principals = body.get("principals")
    if not isinstance(principals, list) or not all(
        isinstance(p, str) and p for p in principals
    ):
        raise WireError(
            400,
            BAD_REQUEST,
            "batch needs a 'principals' list of non-empty strings",
        )
    principal_indices: List[int] = []
    qid_refs: List[int] = []
    for item in items:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], int)
            or isinstance(item[0], bool)
            or not 0 <= item[0] < len(principals)
        ):
            raise WireError(
                400,
                BAD_REQUEST,
                f"batch item {item!r} is not a valid "
                "[principal_index, qid] pair",
            )
        principal_indices.append(item[0])
        qid_refs.append(item[1])
    plane, qids = gateway_for(service).resolve(
        body.get("gen"), body.get("base"), body.get("delta"), qid_refs
    )
    entries = [
        (principals[principal_idx], None, qid)
        for principal_idx, qid in zip(principal_indices, qids)
    ]
    return peek, compact, principal_indices, plane, entries


def handle_batch(service, body: Dict) -> Tuple[int, object]:
    """``POST /v2/batch``: a qid-native batch, per-item isolated."""
    try:
        peek, compact, principal_indices, plane, entries = resolve_batch(
            service, body
        )
    except WireError as exc:
        return exc.status, exc.payload()
    results = decide_wire_items(
        service, entries, update=not peek, plane=plane
    )
    return 200, render_batch(results, principal_indices, compact)


def dispatch_v2(
    service, method: str, path: str, body: Optional[Dict]
) -> Optional[Tuple[int, object]]:
    """Route a ``/v2/*`` request; ``None`` when *path* is not v2's."""
    if not path.startswith("/v2/"):
        return None
    if method == "GET":
        if path == "/v2/protocol":
            return 200, protocol_info(service)
        return 404, {"error": f"unknown route {path}", "code": BAD_REQUEST}
    if method != "POST":
        return 405, {
            "error": f"unsupported method {method}",
            "code": BAD_REQUEST,
        }
    if body is None:
        return 400, {"error": "request needs a JSON body", "code": BAD_REQUEST}
    if path == "/v2/query":
        return handle_query(service, body)
    if path == "/v2/batch":
        return handle_batch(service, body)
    return 404, {"error": f"unknown route {path}", "code": BAD_REQUEST}
