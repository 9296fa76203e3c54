"""Client half of the qid-native v2 wire protocol.

The shared state machine behind :class:`~repro.client.HttpClient` and
:class:`~repro.client.AsyncHttpClient`: a local
:class:`~repro.server.interning.QueryInterner` under a random
*generation* id, a high-water mark of how many of its keys the server
has been shipped, and the request/response codecs.

Sync discipline is optimistic: a request carries the delta of keys the
server has not seen yet and the mark advances at *send* time.  If the
server disagrees — it answers ``409 unknown-generation`` after evicting
the generation or restarting — the client calls :meth:`WireState.resync`
and re-sends with ``base=0`` and the full key table; qids never change
within a generation, so the retried request is otherwise identical.
When the local table crosses the server's advertised key cap the client
rotates to a fresh generation.

The server applies deltas append-only in ``base`` order, so a caller
builds each request (:meth:`WireState.encode_refs` runs inside every
body builder) and queues it for transmission with no suspension in
between: the client core (:class:`repro.client.http.ClientCore`) opens
the connection first, then builds, then queues.
"""

from __future__ import annotations

import json
import secrets
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.canonical import encode_key
from repro.core.queries import ConjunctiveQuery
from repro.server.interning import QueryInterner
from repro.server.wire2 import GENERATION_KEYS_CAP


def query_to_datalog(query: ConjunctiveQuery) -> str:
    """Render a query as parseable datalog (the v1 HTTP wire format)."""
    head = f"{query.head_name}({', '.join(str(t) for t in query.head_terms)})"
    return f"{head} :- {', '.join(str(a) for a in query.body)}"


class WireState:
    """One client's interner generation and its server sync mark."""

    __slots__ = ("keys_cap", "gen", "interner", "synced", "generations")

    def __init__(self, keys_cap: int = GENERATION_KEYS_CAP):
        self.keys_cap = keys_cap
        #: How many generations this state has run through (observability).
        self.generations = 0
        self._rotate()

    def _rotate(self) -> None:
        self.gen = secrets.token_hex(8)
        self.interner = QueryInterner()
        self.synced = 0
        self.generations += 1

    def resync(self) -> None:
        """The server lost this generation: re-ship the whole table next."""
        self.synced = 0

    def encode_refs(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> Tuple[str, int, Optional[List], List[int]]:
        """``(gen, base, delta, qids)`` for a request over *queries*.

        Interns every query locally, advances the sync mark, and
        returns the delta of encoded canonical keys the server still
        needs (``None`` when it needs none — the steady state, where a
        request is principals plus bare ints).  Must be followed by the
        request's queueing with no suspension; see the module docstring.
        """
        if len(self.interner) >= self.keys_cap:
            self._rotate()
        qids = [self.interner.intern(query) for query in queries]
        if len(self.interner) > self.keys_cap:
            # This call's novel shapes crossed the cap mid-intern: a
            # delta past the cap would be refused server-side
            # (bad-delta), so rotate now and re-intern into the fresh
            # generation.  A single call can never itself exceed the
            # cap — the wire's batch limit is far smaller.
            self._rotate()
            qids = [self.interner.intern(query) for query in queries]
        base = self.synced
        count = len(self.interner)
        if count == base:
            return self.gen, base, None, qids
        key_of = self.interner.key_of
        delta = [encode_key(key_of(qid)) for qid in range(base, count)]
        self.synced = count
        return self.gen, base, delta, qids


class TraceSampler:
    """Turns a client's ``trace`` parameter into per-request decisions.

    ``False`` never traces, ``True`` traces every decision, and an
    integer ``N >= 1`` traces one decision in N (the first immediately,
    so a short session still yields a span).  A per-call override wins
    outright and does not consume the countdown.
    """

    __slots__ = ("every", "_countdown")

    def __init__(self, trace: object = False):
        if trace is True:
            self.every = 1
        elif trace is False or trace is None:
            self.every = 0
        elif isinstance(trace, int) and trace >= 1:
            self.every = trace
        else:
            raise ValueError(
                "trace must be a bool or an integer sampling period >= 1, "
                f"got {trace!r}"
            )
        self._countdown = 1

    def should(self, override: Optional[bool] = None) -> bool:
        if override is not None:
            return bool(override)
        if not self.every:
            return False
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.every
            return True
        return False


def single_body(
    state: WireState,
    principal: str,
    query: ConjunctiveQuery,
    *,
    peek: bool,
    compact: bool,
    trace: bool = False,
) -> Dict:
    """The ``POST /v2/query`` body for one decision.

    With *trace* the server returns the full-dict payload carrying a
    ``"trace"`` span (``compact`` is ignored for that request).
    """
    gen, base, delta, qids = state.encode_refs((query,))
    # ``base`` is always declared, delta or not: it is how the server
    # detects a lost generation (eviction or restart) and answers 409
    # instead of misreading bare qids as out of range.
    body: Dict = {
        "gen": gen,
        "base": base,
        "principal": principal,
        "qid": qids[0],
    }
    if delta is not None:
        body["delta"] = delta
    if peek:
        body["peek"] = True
    if compact:
        body["compact"] = True
    if trace:
        body["trace"] = True
    return body


def batch_body(
    state: WireState,
    items: Sequence[Tuple[str, ConjunctiveQuery]],
    *,
    peek: bool,
    compact: bool,
) -> Tuple[Dict, List[str]]:
    """``(POST /v2/batch body, principals table)`` for an item stream."""
    gen, base, delta, qids = state.encode_refs([query for _, query in items])
    principals: List[str] = []
    principal_index: Dict[str, int] = {}
    wire_items: List[List[int]] = []
    for (principal, _), qid in zip(items, qids):
        index = principal_index.get(principal)
        if index is None:
            index = len(principals)
            principal_index[principal] = index
            principals.append(principal)
        wire_items.append([index, qid])
    body: Dict = {
        "gen": gen,
        "base": base,
        "principals": principals,
        "items": wire_items,
    }
    if delta is not None:
        body["delta"] = delta
    if peek:
        body["peek"] = True
    if compact:
        body["compact"] = True
    return body, principals


def resync_body(state: WireState, body: Dict) -> Dict:
    """Rebuild *body* after a 409: ``base=0`` plus the full key table.

    qids are stable within a generation, so only the delta changes.
    Queue it with no suspension after the build, as for
    :meth:`WireState.encode_refs`.
    """
    state.resync()
    key_of = state.interner.key_of
    count = len(state.interner)
    rebuilt = dict(body)
    rebuilt["base"] = 0
    rebuilt["delta"] = [encode_key(key_of(qid)) for qid in range(count)]
    state.synced = count
    return rebuilt


def single_request(
    state: WireState,
    principal: str,
    query: ConjunctiveQuery,
    *,
    peek: bool,
    compact: bool,
    trace: bool = False,
) -> bytes:
    """The ``POST /v2/query`` both clients send for one decision:
    ``json.dumps`` of :func:`single_body`'s dict, byte for byte, without
    building the dict.  A 409 re-sends ``resync_body`` of its
    ``json.loads`` (JSON objects keep their key order)."""
    gen, base, delta, qids = state.encode_refs((query,))
    body = b'{"gen": %b, "base": %d, "principal": %b, "qid": %d' % (
        json.dumps(gen).encode(), base, json.dumps(principal).encode(), qids[0],
    )
    if delta is not None:
        body += b', "delta": ' + json.dumps(delta).encode()
    if peek:
        body += b', "peek": true'
    if compact:
        body += b', "compact": true'
    if trace:
        body += b', "trace": true'
    return body + b"}"


def inflate_single(payload: object, principal: str) -> Dict:
    """A ``/v2/query`` payload (full or compact) as the stable dict."""
    if isinstance(payload, dict):
        return payload
    accepted, cached, live_before, live_after, reason = payload  # type: ignore[misc]
    return {
        "accepted": bool(accepted),
        "principal": principal,
        "reason": reason,
        "cached": bool(cached),
        "live_before": live_before,
        "live_after": live_after,
    }


def inflate_batch(payload: Dict, principals: Sequence[str]) -> List[Dict]:
    """A ``/v2/batch`` payload (full or compact) as stable dicts."""
    decisions = payload.get("decisions", [])
    if not payload.get("compact"):
        return list(decisions)
    reasons = payload.get("reasons", [])
    out: List[Dict] = []
    for row in decisions:
        if isinstance(row, dict):  # a per-item error entry
            out.append(row)
            continue
        accepted, cached, live_before, live_after, reason_idx, principal_idx = row
        out.append(
            {
                "accepted": bool(accepted),
                "principal": principals[principal_idx],
                "reason": reasons[reason_idx],
                "cached": bool(cached),
                "live_before": live_before,
                "live_after": live_after,
            }
        )
    return out
