"""The shared serving-path LRU cache.

A disclosure label is a function of the query alone: Section 5's labeler
never consults the principal, the policy, or any session state.  In a
multi-principal deployment the same handful of query shapes therefore
recurs across *every* session (each app asks the same questions about
different users), so one shared cache in front of the labeler removes
the expensive fold/dissect/match pipeline from the hot path entirely.

Since the ID-plane refactor the decision kernel keys this cache by
dense integer query ids (qid → lid; see :mod:`repro.server.kernel`),
so a warm lookup hashes one int instead of a nested canonical-key
tuple.  The canonical-key protocol itself — the renaming-invariant
structural form that makes shape-level caching sound — lives in
:mod:`repro.core.canonical`; :func:`canonical_key` is re-exported here
for compatibility.  The class is key-agnostic: the parse cache keys it
by request text, and the snapshot transport still speaks canonical
keys at the edges.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.canonical import CanonicalKey, canonical_key

__all__ = [
    "CacheStats",
    "CanonicalKey",
    "LabelCache",
    "canonical_key",
]


class CacheStats:
    """A point-in-time snapshot of cache effectiveness counters."""

    __slots__ = ("hits", "misses", "evictions", "size", "maxsize")

    def __init__(self, hits: int, misses: int, evictions: int, size: int, maxsize: int):
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.size = size
        self.maxsize = maxsize

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when the cache has never been consulted)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.3f}, size={self.size}/{self.maxsize})"
        )


class LabelCache:
    """A thread-safe LRU map from canonical keys to computed values.

    Used for canonical-query → packed-label (the shared decision-path
    cache) and, bounded separately, for request-text → parsed-query in
    the HTTP front end.  ``maxsize <= 0`` disables caching entirely —
    every lookup is a miss — which gives benchmarks an honest "cold"
    series without a second code path.
    """

    def __init__(self, maxsize: int = 65536):
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value for *key*, or ``None`` (counts a hit/miss)."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert *key* → *value*, evicting the least recently used entry."""
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], object]
    ) -> object:
        """Return the cached value, computing and inserting on a miss.

        *compute* runs outside the lock; concurrent misses on the same
        key may compute twice, but labeling is deterministic so the
        duplicates are identical — a deliberate trade against holding
        the lock across the (slow) labeler.
        """
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def record_hits(self, count: int) -> None:
        """Account *count* extra hits observed outside the cache.

        The batch decision path memoizes repeated keys locally so a
        thousand-item batch takes the cache lock a handful of times, not
        a thousand; this keeps the hit/miss counters identical to what
        the same traffic would have recorded one :meth:`get` at a time.
        (LRU recency of the memoized keys is not refreshed — the one
        observable difference from per-item lookups.)
        """
        if count <= 0:
            return
        with self._lock:
            self._hits += count

    def record_misses(self, count: int) -> None:
        """Account *count* extra misses observed outside the cache.

        The disabled-cache (``maxsize <= 0``) counterpart of
        :meth:`record_hits`: a batch still resolves repeated shapes from
        its local memo, but a disabled cache would have missed every one
        of those lookups, and the counters must say so.
        """
        if count <= 0:
            return
        with self._lock:
            self._misses += count

    def export_entries(self) -> List[Tuple[Hashable, object]]:
        """Every ``(key, value)`` pair, least- to most-recently used.

        The transport for warming sibling caches: labels are a function
        of the query alone, so a pool replica that imports another
        service's exported entries starts with the same warm hit rate.
        Pairs are plain tuples — picklable whenever keys and values are,
        which holds for canonical query keys and packed labels.
        """
        with self._lock:
            return list(self._data.items())

    def import_entries(self, entries: Iterable[Tuple[Hashable, object]]) -> int:
        """Insert pairs from :meth:`export_entries`; returns how many.

        Imports count as neither hits nor misses; eviction applies as
        usual, so importing more than ``maxsize`` entries keeps the
        most recently imported ones.
        """
        count = 0
        for key, value in entries:
            self.put(key, value)
            count += 1
        return count

    def inherit_counters(self, other: "LabelCache") -> None:
        """Fold *other*'s lifetime counters into this (fresh) cache.

        Used when the kernel rotates to a new ID-plane generation: the
        replacement cache starts empty but ``/metrics`` hit/miss/
        eviction history must stay monotonic across the swap.
        """
        with other._lock:
            hits, misses, evictions = (
                other._hits,
                other._misses,
                other._evictions,
            )
        with self._lock:
            self._hits += hits
            self._misses += misses
            self._evictions += evictions

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                self._hits,
                self._misses,
                self._evictions,
                len(self._data),
                self.maxsize,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._data
