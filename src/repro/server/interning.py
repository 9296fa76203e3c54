"""The interning plane: dense integer ids for queries and labels.

Everything above the core layer that used to key its memoization on
rich objects — canonical-key tuples, packed-label tuples — now keys on
two dense id spaces:

* **qid** — one id per distinct canonical query shape
  (:class:`QueryInterner`).  The canonical key is computed once per
  query *object* (memoized through the ``_canonical_key`` slot) and
  hashed into the interner once per object (pinned through the
  ``_interned`` slot), so steady-state traffic that cycles parsed query
  objects resolves its qid with two attribute loads.
* **lid** — one id per distinct packed label (:class:`LabelInterner`).
  Distinct labels are far fewer than distinct query shapes (many shapes
  share a label), so per-session memoization keyed by lid is both
  smaller and faster than keying by the label tuple itself.

Both interners are append-only: ids are dense, assigned in first-seen
order, and never reused or dropped — that is what lets sessions,
caches, and snapshots carry bare integers with no lifetime protocol.
Export/import is positional (a table in id order), so a snapshot stores
each key and each label exactly once no matter how many sessions or
cache entries reference it.

Thread-safety: reads are lock-free (CPython dict/list reads are atomic
and the tables only grow); inserts take the interner's lock and
re-check, so a race between two first-sightings of the same shape
yields one id.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Sequence

from repro.core.canonical import CanonicalKey, canonical_key, query_from_key
from repro.core.queries import ConjunctiveQuery
from repro.labeling.bitvector import PackedLabel


class QueryInterner:
    """Canonical query shapes ⇄ dense ``qid`` integers.

    The hot entry point is :meth:`intern`, which pins the assigned qid
    on the query object itself (the ``_interned`` slot) so repeat
    traffic over the same parsed object skips even the key hash.  The
    pin records this interner's :attr:`token` alongside the qid: an
    object that travels between services (equivalence tests drive the
    same query objects through several services) re-resolves against
    whichever interner sees it, rather than leaking one service's ids
    into another.  The token — a bare sentinel, not the interner — is
    what the pin holds, so a query object outliving a retired interner
    generation (plane rotation, router reset) keeps a few bytes alive,
    never the retired key table.
    """

    __slots__ = ("_ids", "_keys", "_lock", "token")

    def __init__(self) -> None:
        self._ids: Dict[CanonicalKey, int] = {}  # guarded-by: _lock
        self._keys: List[CanonicalKey] = []  # guarded-by: _lock
        self._lock = threading.Lock()
        #: Identity sentinel for object pins (see class docstring).
        self.token = object()

    def __len__(self) -> int:
        return len(self._keys)

    def intern(self, query: ConjunctiveQuery) -> int:
        """The qid of *query*, assigning the next dense id on first sight."""
        pinned = getattr(query, "_interned", None)
        if pinned is not None and pinned[0] is self.token:
            return pinned[1]
        qid = self.intern_key(canonical_key(query))
        try:
            query._interned = (self.token, qid)
        except AttributeError:
            pass  # duck-typed query without the slot: still correct
        return qid

    def intern_key(self, key: CanonicalKey) -> int:
        """The qid of a canonical *key* (assigning on first sight)."""
        qid = self._ids.get(key)
        if qid is not None:
            return qid
        with self._lock:
            qid = self._ids.get(key)
            if qid is None:
                qid = len(self._keys)
                self._keys.append(key)
                self._ids[key] = qid
            return qid

    def key_of(self, qid: int) -> CanonicalKey:
        """The canonical key behind *qid* (ids are dense and permanent)."""
        return self._keys[qid]

    def query_of(self, qid: int) -> ConjunctiveQuery:
        """A representative query for *qid* (see :func:`query_from_key`)."""
        return query_from_key(self._keys[qid])

    def export_keys(self) -> List[CanonicalKey]:
        """The key table in qid order (qid *is* the list index)."""
        with self._lock:
            return list(self._keys)

    def export_keys_since(self, start: int) -> List[CanonicalKey]:
        """The key table slice from qid *start* on (the delta form).

        Ids are dense and append-only, so a consumer that has already
        absorbed qids ``0..start-1`` only needs this suffix to stay
        positionally exact — the replica-pool dispatcher ships these
        deltas ahead of each batch instead of re-exporting the table.
        """
        with self._lock:
            return self._keys[start:]

    def import_keys(self, keys: Iterable[CanonicalKey]) -> List[int]:
        """Intern *keys* in order; returns the local qid of each.

        The returned list translates the exporter's id space into this
        interner's: entry *i* is the local qid of the exporter's qid
        *i*.  Importing into a fresh interner reproduces the exporter's
        ids exactly; importing into a warm one maps them.
        """
        return [self.intern_key(key) for key in keys]


class LabelInterner:
    """Packed labels ⇄ dense ``lid`` integers (same contract as qids)."""

    __slots__ = ("_ids", "_labels", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[PackedLabel, int] = {}  # guarded-by: _lock
        self._labels: List[PackedLabel] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._labels)

    def intern(self, label: PackedLabel) -> int:
        """The lid of *label*, assigning the next dense id on first sight."""
        lid = self._ids.get(label)
        if lid is not None:
            return lid
        with self._lock:
            lid = self._ids.get(label)
            if lid is None:
                lid = len(self._labels)
                self._labels.append(label)
                self._ids[label] = lid
            return lid

    def label_of(self, lid: int) -> PackedLabel:
        """The packed label behind *lid*."""
        return self._labels[lid]

    def export_labels(self) -> List[PackedLabel]:
        """The label table in lid order (lid *is* the list index)."""
        with self._lock:
            return list(self._labels)

    def import_labels(self, labels: Iterable[Sequence[int]]) -> List[int]:
        """Intern *labels* in order; returns the local lid of each."""
        return [self.intern(tuple(label)) for label in labels]
