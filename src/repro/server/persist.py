"""Durable snapshots and warm restarts for the serving stack.

The decision service is stateful by design: every future decision of a
principal depends on its accumulated live-partition state, and the
steady-state throughput of the whole deployment depends on the shared
canonical-query → packed-label cache being warm.  A restart that loses
either is not a restart — it is a new, differently-behaving service.
This module makes restarts safe and cheap:

* **Snapshot documents** — one JSON document per snapshot carrying the
  sessions (:meth:`DisclosureService.export_state`), the label cache
  (:meth:`DisclosureService.export_label_cache`, re-encoded to survive
  JSON), and the metrics counters, wrapped in a format-version header
  and a CRC-32 checksum over the canonicalized payload bytes.
* **Crash safety** — :func:`save_snapshot` writes a temporary file in
  the target directory, fsyncs it, and atomically renames it over the
  destination, so a crash mid-write leaves the previous snapshot
  intact.  :func:`load_snapshot` rejects truncation, bit flips, and
  unknown formats with :class:`SnapshotError` and a reason, never a
  crash.
* **A state directory** — :class:`SnapshotStore` keeps a bounded
  sequence of ``snapshot-<seq>.json`` files (single-process serving);
  sharded serving keeps one ``shard-<i>.json`` per worker.
  :func:`collect_state` merges whatever mixture a directory holds —
  including files left by a run with a *different* shard count — and
  :func:`partition_sessions` re-hashes principals for the new topology
  (CRC-32 shard assignment is shard-count-dependent, so rebalancing is
  mandatory, not optional).
* **A background snapshotter** — :class:`Snapshotter` runs a snapshot
  callable every *interval* seconds on a daemon thread; the httpd and
  every shard worker run one (``repro serve --state-dir DIR
  --snapshot-interval S``).

The restart-equivalence suite (``tests/server/test_persist.py``) holds
the core guarantee: decisions after snapshot → kill → warm restart are
byte-for-byte identical to an uninterrupted service, for the same and
for a changed shard count.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.canonical import decode_key, encode_key
from repro.core.formats import (
    SESSIONS_FORMAT_V1,
    SESSIONS_FORMAT_V2,
    SNAPSHOT_FORMAT_V1,
    SNAPSHOT_FORMAT_V2,
    SNAPSHOT_FORMAT_V3,
)
from repro.errors import SnapshotError
from repro.server.service import DisclosureService

#: Format-version header written on every new full, self-contained
#: snapshot document.  Bump on any change a previous release could not
#: read.
SNAPSHOT_FORMAT = SNAPSHOT_FORMAT_V2

#: Every format this build can *read*.  Version 1 stored sessions as
#: per-principal partition lists and the label cache as flat
#: ``[key, label]`` pairs; version 2 stores the interner tables once
#: (each canonical key and each packed label exactly once) and
#: references them by dense integer id, and deduplicates session
#: policies into a table referenced by index; version 3 adds the
#: incremental-generation header on the same section encodings.
READABLE_FORMATS = (SNAPSHOT_FORMAT_V1, SNAPSHOT_FORMAT, SNAPSHOT_FORMAT_V3)

#: Session-table formats: v1 is the live ``export_state`` wire form;
#: v2 is the ID-plane file form (policy table + ``[index, live_int]``).
_SESSIONS_V1 = SESSIONS_FORMAT_V1
_SESSIONS_V2 = SESSIONS_FORMAT_V2

#: How many sequence-numbered snapshots a :class:`SnapshotStore` keeps.
DEFAULT_KEEP = 4

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{8})\.json$")
_SHARD_NAME = re.compile(r"^shard-(\d+)\.json$")


# ----------------------------------------------------------------------
# JSON-safe encoding of cache entries
# ----------------------------------------------------------------------
def _encode(obj):
    """A canonical-cache-key element as a JSON-round-trippable value.

    The codec itself lives with the canonical-key protocol
    (:func:`repro.core.canonical.encode_key` — the v2 wire protocol's
    interner deltas share it); this wrapper only converts its
    ``ValueError`` into the snapshot error taxonomy.
    """
    try:
        return encode_key(obj)
    except ValueError as exc:
        raise SnapshotError(str(exc)) from exc


def _decode(obj):
    """Inverse of :func:`_encode` (same :class:`SnapshotError` wrapping)."""
    try:
        return decode_key(obj)
    except ValueError as exc:
        raise SnapshotError(str(exc)) from exc


def encode_cache_entries(entries: Iterable[Tuple]) -> List[List]:
    """``export_label_cache()`` pairs as JSON-safe ``[key, label]`` lists."""
    return [
        [_encode(key), [int(packed) for packed in label]]
        for key, label in entries
    ]


def decode_cache_entries(data: Iterable) -> List[Tuple]:
    """JSON-safe pairs back into ``warm_label_cache()`` form."""
    entries = []
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise SnapshotError(f"malformed cache entry {item!r}")
        key, label = item
        if not isinstance(label, (list, tuple)) or not all(
            isinstance(packed, int) for packed in label
        ):
            raise SnapshotError(f"malformed packed label {label!r}")
        entries.append((_decode(key), tuple(label)))
    return entries


# ----------------------------------------------------------------------
# ID-plane encoding: tables once, references by dense integer id
# ----------------------------------------------------------------------
def encode_sessions(exported: Dict) -> Dict:
    """``export_state()`` output as the v2 session table.

    Distinct policies (partition tuples) are stored once in a table;
    each session becomes ``[policy_index, live_int]``.  Deployments
    where many principals share a policy (the default-policy fleet, the
    Figure 6 generator's repeats) shrink accordingly.
    """
    policies: List[List[List[str]]] = []
    index_of: Dict[Tuple, int] = {}
    sessions: Dict[str, List[int]] = {}
    for principal, state in exported.get("sessions", {}).items():
        partitions = tuple(tuple(p) for p in state["partitions"])
        index = index_of.get(partitions)
        if index is None:
            index = len(policies)
            index_of[partitions] = index
            policies.append([list(p) for p in partitions])
        live = 0
        for bit, flag in enumerate(state["live"]):
            if flag:
                live |= 1 << bit
        sessions[principal] = [index, live]
    return {"format": _SESSIONS_V2, "policies": policies, "sessions": sessions}


def decode_sessions(data: Dict) -> Dict:
    """Any readable session table back into the ``export_state`` v1 form.

    v1 payloads pass through unchanged; v2 payloads expand the policy
    table (sessions of one policy share one expanded ``partitions``
    list — treat it as read-only).  Raises :class:`SnapshotError` on
    anything malformed.
    """
    if not isinstance(data, dict):
        raise SnapshotError("session table is not an object")
    fmt = data.get("format")
    if fmt == _SESSIONS_V1:
        return data
    if fmt != _SESSIONS_V2:
        raise SnapshotError(f"unrecognized session-table format {fmt!r}")
    policies = data.get("policies")
    sessions = data.get("sessions")
    if not isinstance(policies, list) or not isinstance(sessions, dict):
        raise SnapshotError("v2 session table needs 'policies' and 'sessions'")
    # One expanded partition list per *policy*, shared (read-only) by
    # every session that references it: a population restores in memory
    # proportional to its distinct policies, not to its size.
    expanded = [[list(p) for p in partitions] for partitions in policies]
    out: Dict[str, Dict] = {}
    for principal, entry in sessions.items():
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(value, int) for value in entry)
        ):
            raise SnapshotError(
                f"session {principal!r}: expected [policy_index, live_bits]"
            )
        index, live = entry
        if not 0 <= index < len(policies):
            raise SnapshotError(
                f"session {principal!r}: policy index {index} out of range"
            )
        partitions = expanded[index]
        out[principal] = {
            "partitions": partitions,
            "live": [bool(live >> bit & 1) for bit in range(len(partitions))],
        }
    return {"format": _SESSIONS_V1, "sessions": out}


def encode_interned_cache(entries: Iterable[Tuple]) -> Dict:
    """``export_label_cache()`` pairs as the v2 interned-cache section.

    Each distinct canonical key and each distinct packed label is
    stored exactly once, in its own table; the cache itself is a list
    of ``[key_index, label_index]`` pairs in LRU order.  Many query
    shapes share a label, so the label table is the big win — the
    duplication v1 paid per entry disappears.
    """
    keys: List = []
    key_index: Dict = {}
    labels: List[List[int]] = []
    label_index: Dict[Tuple, int] = {}
    pairs: List[List[int]] = []
    for key, label in entries:
        ki = key_index.get(key)
        if ki is None:
            ki = len(keys)
            key_index[key] = ki
            keys.append(_encode(key))
        label = tuple(label)
        li = label_index.get(label)
        if li is None:
            li = len(labels)
            label_index[label] = li
            labels.append([int(packed) for packed in label])
        pairs.append([ki, li])
    return {"queries": keys, "labels": labels, "cache": pairs}


def decode_interned_cache(data: Dict) -> List[Tuple]:
    """The v2 interned-cache section back into ``warm_label_cache`` pairs."""
    if not isinstance(data, dict):
        raise SnapshotError("interned cache section is not an object")
    keys_in = data.get("queries")
    labels_in = data.get("labels")
    pairs = data.get("cache")
    if not all(isinstance(part, list) for part in (keys_in, labels_in, pairs)):
        raise SnapshotError(
            "interned cache needs 'queries', 'labels', and 'cache' lists"
        )
    keys = [_decode(key) for key in keys_in]
    labels: List[Tuple[int, ...]] = []
    for label in labels_in:
        if not isinstance(label, list) or not all(
            isinstance(packed, int) for packed in label
        ):
            raise SnapshotError(f"malformed packed label {label!r}")
        labels.append(tuple(label))
    entries: List[Tuple] = []
    for pair in pairs:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(value, int) for value in pair)
        ):
            raise SnapshotError(f"malformed interned cache entry {pair!r}")
        ki, li = pair
        if not (0 <= ki < len(keys) and 0 <= li < len(labels)):
            raise SnapshotError(f"interned cache entry {pair!r} out of range")
        entries.append((keys[ki], labels[li]))
    return entries


def payload_sessions(payload: Dict) -> Dict[str, Dict]:
    """The per-principal session dicts of any readable payload."""
    sessions = payload.get("sessions")
    if not sessions:
        return {}
    return decode_sessions(sessions).get("sessions", {})


def payload_cache_entries(payload: Dict) -> List[Tuple]:
    """The ``warm_label_cache`` pairs of any readable payload."""
    if "interning" in payload:
        return decode_interned_cache(payload["interning"])
    return decode_cache_entries(payload.get("label_cache", []))


# ----------------------------------------------------------------------
# Snapshot payloads: service state in, service state out
# ----------------------------------------------------------------------
def snapshot_service(
    service: DisclosureService,
    *,
    shard_index: Optional[int] = None,
    shard_count: Optional[int] = None,
) -> Dict:
    """The full durable state of *service* as a JSON-compatible payload.

    Carries sessions, the interned label cache, and metrics counters,
    in the v2 ID-plane form: the policy, canonical-key, and packed-label
    tables are each stored once and everything else references them by
    dense integer index (smaller snapshots, faster restore).  Shard
    workers stamp their ``(index, count)`` so a later restart knows the
    topology the file was written under.
    """
    payload = {
        "sessions": encode_sessions(service.export_state()),
        "interning": encode_interned_cache(service.export_label_cache()),
        "metrics": _service_metrics(service),
    }
    if shard_index is not None and shard_count is not None:
        payload["shard"] = {"index": shard_index, "count": shard_count}
    return payload


def _service_metrics(service: DisclosureService) -> Dict:
    """The metrics section every snapshot kind carries in full."""
    return {
        "decisions": service.decisions.value,
        "accepted": service.accepted.value,
        "refused": service.refused.value,
        "peeks": service.peeks.value,
        "latency": service.latency.snapshot(),
    }


class RestoreStats:
    """What a warm restore brought back (for logs and the CLI report)."""

    __slots__ = ("sessions", "cache_entries", "decisions")

    def __init__(self, sessions: int, cache_entries: int, decisions: int):
        self.sessions = sessions
        self.cache_entries = cache_entries
        self.decisions = decisions

    def __repr__(self) -> str:
        return (
            f"RestoreStats(sessions={self.sessions}, "
            f"cache_entries={self.cache_entries}, decisions={self.decisions})"
        )


def restore_service(
    service: DisclosureService,
    payload: Dict,
    *,
    include_metrics: bool = True,
) -> RestoreStats:
    """Load a :func:`snapshot_service` payload into *service*.

    Sessions and cache entries always restore; metrics counters restore
    only with *include_metrics* (a rebalanced restart merges sessions
    from several old shards, where per-shard counter continuity is no
    longer meaningful).  Raises :class:`SnapshotError` on a payload that
    does not validate — the service is left with whatever prefix
    imported, so callers restoring into a *fresh* service (the only
    supported direction) should discard it on failure.
    """
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload is not an object")
    from repro.errors import PolicyError

    sessions = payload.get("sessions")
    try:
        restored = (
            service.import_state(decode_sessions(sessions)) if sessions else 0
        )
    except PolicyError as exc:
        raise SnapshotError(f"snapshot sessions do not restore: {exc}") from exc
    entries = payload_cache_entries(payload)
    imported = service.warm_label_cache(entries)
    decisions = 0
    metrics = payload.get("metrics")
    if include_metrics and isinstance(metrics, dict):
        decisions = service.restore_metrics(metrics)
    return RestoreStats(restored, imported, decisions)


# ----------------------------------------------------------------------
# Snapshot files: atomic, versioned, checksummed
# ----------------------------------------------------------------------
def _canonical_payload_bytes(payload: Dict) -> bytes:
    """The checksummed byte form of a payload.

    ``sort_keys`` plus compact separators make the serialization a pure
    function of the payload's value, so the checksum computed at save
    time matches one recomputed from the parsed document at load time.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def save_snapshot(path: "Path | str", payload: Dict) -> Path:
    """Atomically write *payload* as a snapshot document at *path*.

    Write-temp + fsync + rename: a crash at any point leaves either the
    old file or the new file, never a torn mixture.  The temporary file
    lives in the destination directory so the rename cannot cross
    filesystems.  A payload carrying a ``delta`` generation header is
    stamped as v3; everything else stays the self-contained v2.
    """
    path = Path(path)
    body = _canonical_payload_bytes(payload)
    document = {
        "format": SNAPSHOT_FORMAT_V3 if "delta" in payload else SNAPSHOT_FORMAT,
        "created": time.time(),
        "checksum": zlib.crc32(body),
        "payload": payload,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        if temp.exists():  # a failure before the rename: don't litter
            temp.unlink()
    return path


def load_snapshot(path: "Path | str") -> Dict:
    """Read and validate a snapshot document; returns the whole document.

    Every way a file can be wrong maps to a :class:`SnapshotError` with
    a reason: unreadable, truncated/not-JSON, not a snapshot document,
    an unknown format version, or a checksum mismatch.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise SnapshotError(
            f"snapshot {path} is truncated or not JSON: {exc}"
        ) from exc
    if not isinstance(document, dict) or "payload" not in document:
        raise SnapshotError(f"snapshot {path} is not a snapshot document")
    fmt = document.get("format")
    if fmt not in READABLE_FORMATS:
        raise SnapshotError(
            f"snapshot {path} has unsupported format {fmt!r} "
            f"(this build reads {', '.join(map(repr, READABLE_FORMATS))})"
        )
    payload = document["payload"]
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot {path} payload is not an object")
    checksum = document.get("checksum")
    actual = zlib.crc32(_canonical_payload_bytes(payload))
    if checksum != actual:
        raise SnapshotError(
            f"snapshot {path} failed its checksum "
            f"(stored {checksum!r}, computed {actual}): corrupt or tampered"
        )
    return document


class SnapshotInfo:
    """Typed summary of one validated snapshot file.

    Replaces the ad-hoc dicts the inspect path used to pass around.
    ``generation``/``delta_of``/``epoch`` are ``None`` for v1/v2 files
    (which are always self-contained); ``delta_of is None`` on a v3
    file means a *full* chain base.  Supports ``info["key"]`` as a
    compatibility bridge for callers that treated the summary as a
    mapping.
    """

    __slots__ = (
        "path",
        "format",
        "created",
        "checksum",
        "generation",
        "delta_of",
        "epoch",
        "sessions",
        "removed",
        "cache_entries",
        "decisions",
        "bytes",
        "shard",
    )

    def __init__(
        self,
        path: str,
        format: str,
        created: Optional[float],
        checksum: Optional[int],
        generation: Optional[int],
        delta_of: Optional[int],
        epoch: Optional[int],
        sessions: int,
        removed: int,
        cache_entries: int,
        decisions: int,
        bytes: int,
        shard: Optional[Dict],
    ):
        self.path = path
        self.format = format
        self.created = created
        self.checksum = checksum
        self.generation = generation
        self.delta_of = delta_of
        self.epoch = epoch
        self.sessions = sessions
        self.removed = removed
        self.cache_entries = cache_entries
        self.decisions = decisions
        self.bytes = bytes
        self.shard = shard

    def as_dict(self) -> Dict:
        summary: Dict = {
            "path": self.path,
            "format": self.format,
            "created": self.created,
            "checksum": self.checksum,
            "sessions": self.sessions,
            "cache_entries": self.cache_entries,
            "decisions": self.decisions,
            "bytes": self.bytes,
        }
        if self.generation is not None:
            summary["generation"] = self.generation
            summary["delta_of"] = self.delta_of
            summary["epoch"] = self.epoch
            summary["removed"] = self.removed
        if self.shard is not None:
            summary["shard"] = self.shard
        return summary

    def __getitem__(self, key: str):
        return self.as_dict()[key]

    def __repr__(self) -> str:
        kind = (
            "full"
            if self.delta_of is None
            else f"delta-of-{self.delta_of}"
        )
        return (
            f"SnapshotInfo({self.path}: {self.format} {kind}, "
            f"{self.sessions} sessions, {self.cache_entries} cache entries)"
        )


def inspect_snapshot(path: "Path | str") -> SnapshotInfo:
    """A typed summary of one snapshot file (validates fully)."""
    document = load_snapshot(path)
    payload = document["payload"]
    sessions = payload.get("sessions") or {}
    metrics = payload.get("metrics") or {}
    if "interning" in payload:
        cache_entries = len((payload["interning"] or {}).get("cache", []))
    else:
        cache_entries = len(payload.get("label_cache", []))
    delta = payload.get("delta")
    if not isinstance(delta, dict):
        delta = None
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    return SnapshotInfo(
        path=str(path),
        format=document["format"],
        created=document.get("created"),
        checksum=document.get("checksum"),
        generation=delta.get("generation") if delta else None,
        delta_of=delta.get("of") if delta else None,
        epoch=delta.get("epoch") if delta else None,
        sessions=len(sessions.get("sessions", {})),
        removed=len(delta.get("removed") or ()) if delta else 0,
        cache_entries=cache_entries,
        decisions=metrics.get("decisions", 0),
        bytes=size,
        shard=payload.get("shard"),
    )


# ----------------------------------------------------------------------
# The state directory
# ----------------------------------------------------------------------
class SnapshotStore:
    """Sequence-numbered snapshots in a state directory, pruned to *keep*.

    Used by single-process serving: every :meth:`save` writes the next
    ``snapshot-<seq>.json`` and removes the oldest beyond *keep*, so a
    corrupt latest file (a crash between fsync and rename cannot cause
    one, but a disk can) still leaves older valid generations for
    :meth:`load_latest` to fall back to.
    """

    def __init__(self, state_dir: "Path | str", keep: int = DEFAULT_KEEP):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.state_dir = Path(state_dir)
        self.keep = keep
        self.state_dir.mkdir(parents=True, exist_ok=True)

    def _numbered(self) -> List[Tuple[int, Path]]:
        found = []
        for entry in self.state_dir.iterdir():
            match = _SNAPSHOT_NAME.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        found.sort()
        return found

    def paths(self) -> List[Path]:
        """Snapshot files, oldest first."""
        return [entry for _, entry in self._numbered()]

    def save(self, payload: Dict) -> Path:
        numbered = self._numbered()
        last = numbered[-1][0] if numbered else 0
        path = save_snapshot(
            self.state_dir / f"snapshot-{last + 1:08d}.json", payload
        )
        for stale in self.paths()[: -self.keep]:
            stale.unlink(missing_ok=True)
        return path

    def load_latest(self) -> Optional[Tuple[Path, Dict]]:
        """``(path, document)`` of the newest *valid* snapshot, else None.

        Invalid files are skipped (newest-first), never raised — losing
        warmth beats refusing to start.
        """
        for path in reversed(self.paths()):
            try:
                return path, load_snapshot(path)
            except SnapshotError:
                continue
        return None


def save_pool_snapshot(
    state_dir: "Path | str", payloads: List[Dict], keep: int = DEFAULT_KEEP
) -> Optional[Path]:
    """Persist one merged snapshot of a replica-pool deployment.

    *payloads* are the per-replica ``snapshot_service`` payloads the
    pool dispatcher gathered over its pipes; they merge through the
    same topology-free fold the shard router serves
    (:func:`repro.server.shard.merge_snapshot_payloads` — sessions are
    partition-disjoint, caches union, counters sum), so the file is an
    ordinary single-service snapshot: a restart with a *different*
    ``--replicas`` count restores it by re-partitioning, exactly like a
    resharded restart.  Writes the next ``snapshot-<seq>.json`` through
    :class:`SnapshotStore` (full views from merged payloads — the
    delta machinery of :class:`SnapshotChain` needs one service's
    dirty-epoch stream and does not apply here).  Returns the path, or
    ``None`` when every replica was unreachable.
    """
    if not payloads:
        return None
    from repro.server.shard import merge_snapshot_payloads

    return SnapshotStore(state_dir, keep=keep).save(
        merge_snapshot_payloads(payloads)
    )


class SnapshotChain:
    """Incremental generation writer: a full base plus dirty deltas.

    The qid/lid plane is append-only and sessions stamp a
    ``dirty_epoch`` on every durable mutation, so after one *full* base
    each :meth:`save` writes only:

    * sessions with ``dirty_epoch >= since`` (plus the tombstones of
      principals unregistered in the window), via
      :meth:`DisclosureService.export_generation`;
    * label-cache entries whose qid was interned since the last cut,
      via :meth:`DecisionKernel.export_label_cache_since`;
    * the (cheap, always-full) metrics counters.

    Snapshot cost becomes O(delta), not O(state).  Every
    ``compact_every`` deltas — or on :meth:`compact` — the next write
    is a fresh full base, and files older than the *previous* full are
    pruned, so the directory always holds at most two replayable
    chains (the live one plus one fallback, mirroring
    :class:`SnapshotStore`'s skip-corrupt semantics).

    Files use the same ``snapshot-<seq>.json`` names as
    :class:`SnapshotStore`; :func:`collect_state` replays the chain on
    restart.  A chain always *starts* with a full base: dirty epochs
    live in process memory, so a restarted writer cannot know what an
    earlier process already captured.
    """

    def __init__(
        self,
        service: DisclosureService,
        state_dir: "Path | str",
        *,
        compact_every: int = 8,
    ):
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.service = service
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every
        self._next_since = 0
        self._deltas_since_full = 0
        self._last_generation: Optional[int] = None
        self._last_full: Optional[int] = None
        self._plane_epoch = -1
        self._qid_floor = 0

    def _numbered(self) -> List[Tuple[int, Path]]:
        found = []
        for entry in self.state_dir.iterdir():
            match = _SNAPSHOT_NAME.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        found.sort()
        return found

    def save(self) -> Path:
        """Write the next generation (full when the chain calls for it)."""
        full = (
            self._last_generation is None
            or self._deltas_since_full >= self.compact_every
        )
        return self._write(full)

    def compact(self) -> Path:
        """Force the next generation to be a full base (prunes history)."""
        return self._write(True)

    def _write(self, full: bool) -> Path:
        numbered = self._numbered()
        seq = (numbered[-1][0] + 1) if numbered else 1
        since = 0 if full else self._next_since
        state, watermark, removed = self.service.export_generation(since)
        plane_epoch, qid_count, entries = (
            self.service.kernel.export_label_cache_since(
                self._plane_epoch, 0 if full else self._qid_floor
            )
        )
        payload = {
            "sessions": encode_sessions(state),
            "interning": encode_interned_cache(entries),
            "metrics": _service_metrics(self.service),
            "delta": {
                "generation": seq,
                "of": None if full else self._last_generation,
                "epoch": watermark,
                "removed": removed,
                "plane_epoch": plane_epoch,
                "qid_floor": 0 if full else self._qid_floor,
            },
        }
        path = save_snapshot(
            self.state_dir / f"snapshot-{seq:08d}.json", payload
        )
        self._next_since = watermark + 1
        self._plane_epoch = plane_epoch
        self._qid_floor = qid_count
        self._last_generation = seq
        if full:
            self._deltas_since_full = 0
            if self._last_full is not None:
                cutoff = self._last_full
                for old_seq, old_path in numbered:
                    if old_seq < cutoff:
                        old_path.unlink(missing_ok=True)
            self._last_full = seq
        else:
            self._deltas_since_full += 1
        return path


def compact_chain(state_dir: "Path | str") -> Tuple[Path, List[Path]]:
    """Offline compaction: fold a directory's chain into one full base.

    Replays whatever :func:`collect_state` can trust, writes the merged
    result as the next-sequence *full* v3 generation, and removes every
    older sequence file (shard files are left alone).  Returns the new
    path and the removed ones.  Raises :class:`SnapshotError` when the
    directory holds nothing replayable.
    """
    state_dir = Path(state_dir)
    collected = collect_state(state_dir)
    if collected is None:
        raise SnapshotError(f"no valid snapshot under {state_dir}")
    numbered = []
    for entry in state_dir.iterdir():
        match = _SNAPSHOT_NAME.match(entry.name)
        if match:
            numbered.append((int(match.group(1)), entry))
    numbered.sort()
    seq = (numbered[-1][0] + 1) if numbered else 1
    payload = {
        "sessions": encode_sessions(sessions_payload(collected.sessions)),
        "interning": encode_interned_cache(collected.cache_entries),
        "metrics": collected.metrics
        if isinstance(collected.metrics, dict)
        else {},
        "delta": {
            "generation": seq,
            "of": None,
            "epoch": 0,
            "removed": [],
            "plane_epoch": -1,
            "qid_floor": 0,
        },
    }
    path = save_snapshot(state_dir / f"snapshot-{seq:08d}.json", payload)
    removed = []
    for _, old_path in numbered:
        old_path.unlink(missing_ok=True)
        removed.append(old_path)
    return path, removed


def shard_snapshot_path(state_dir: "Path | str", index: int) -> Path:
    """Where shard *index* keeps its current snapshot."""
    return Path(state_dir) / f"shard-{index}.json"


class CollectedState:
    """Everything a state directory knows, merged across file kinds."""

    __slots__ = (
        "sessions",
        "cache_entries",
        "metrics",
        "sources",
        "skipped",
        "sharded",
    )

    def __init__(
        self,
        sessions: Dict[str, Dict],
        cache_entries: List[Tuple],
        metrics: Optional[Dict],
        sources: List[Path],
        skipped: List[Tuple[Path, str]],
        sharded: bool,
    ):
        #: principal -> the export_state per-session dict.
        self.sessions = sessions
        #: decoded ``warm_label_cache`` pairs, deduplicated.
        self.cache_entries = cache_entries
        #: metrics of the newest source.  Meaningful for a same-shape
        #: restart (newest file carries the full history); one shard's
        #: counters are *not* the deployment's, so check :attr:`sharded`
        #: before restoring them.
        self.metrics = metrics
        self.sources = sources
        self.skipped = skipped
        #: True when any contributing file was a per-shard snapshot.
        self.sharded = sharded


def collect_state(state_dir: "Path | str") -> Optional[CollectedState]:
    """The newest complete state a directory holds, plus merged warmth.

    Handles all three directory histories: sequence files from
    single-process runs, ``shard-<i>.json`` files from sharded runs,
    and mixtures left by switching between the two.  **Sessions** come
    only from the newest complete *generation* — the newest valid
    sequence file, or the merged set of shard files, whichever is
    newer (by the documents' ``created`` stamps).  Older generations
    must not contribute sessions: a principal deliberately absent from
    the newest snapshot (unregistered, or an ephemeral session dropped
    fresh) would otherwise be resurrected with stale state, breaking
    restart equivalence.  **Cache entries** merge from every valid
    file: a label is a pure function of the query, so old warmth is
    never wrong, only extra.  Damaged files are collected into
    ``skipped`` and otherwise ignored.  Returns ``None`` when the
    directory holds no valid snapshot at all.
    """
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        return None
    # Sequence files carry their chain order in the name; shard files
    # are ordered by their created stamps.
    sequence_docs: List[Tuple[int, float, Path, Dict]] = []
    shard_docs: List[Tuple[float, Path, Dict]] = []
    skipped: List[Tuple[Path, str]] = []
    for entry in sorted(state_dir.iterdir()):
        seq_match = _SNAPSHOT_NAME.match(entry.name)
        if not (seq_match or _SHARD_NAME.match(entry.name)):
            continue
        try:
            document = load_snapshot(entry)
        except SnapshotError as exc:
            skipped.append((entry, str(exc)))
            continue
        created = float(document.get("created") or 0.0)
        if seq_match:
            sequence_docs.append((int(seq_match.group(1)), created, entry, document))
        else:
            shard_docs.append((created, entry, document))
    if not (sequence_docs or shard_docs):
        return None
    sequence_docs.sort(key=lambda item: item[0])
    shard_docs.sort(key=lambda item: item[0])

    chain = _sequence_chain(sequence_docs)

    # The sequence chain is one complete generation; the shard files
    # together are the other.  The newer one wins sessions.
    chain_age = chain[-1][1] if chain else float("-inf")
    shard_age = shard_docs[-1][0] if shard_docs else float("-inf")
    use_shards = bool(shard_docs) and (not chain or shard_age >= chain_age)
    sessions: Dict[str, Dict] = {}
    if use_shards:
        sources = [path for _, path, _ in shard_docs]
        for _, _, document in shard_docs:  # oldest first: newest wins ties
            sessions.update(payload_sessions(document["payload"]))
        newest_payload = shard_docs[-1][2]["payload"]
    else:
        sources = [path for _, _, path, _ in chain]
        for _, _, _, document in chain:
            payload = document["payload"]
            delta = payload.get("delta")
            if isinstance(delta, dict):
                # Apply a generation's removals before its updates, so
                # an unregister + re-register in one window nets out to
                # the re-registered state.
                for principal in delta.get("removed") or ():
                    sessions.pop(principal, None)
            sessions.update(payload_sessions(payload))
        newest_payload = chain[-1][3]["payload"] if chain else {}

    cache: Dict = {}
    for _, _, _, document in sequence_docs:
        for key, label in payload_cache_entries(document["payload"]):
            cache[key] = label
    for _, _, document in shard_docs:
        for key, label in payload_cache_entries(document["payload"]):
            cache[key] = label

    return CollectedState(
        sessions,
        list(cache.items()),
        newest_payload.get("metrics"),
        sources,
        skipped,
        use_shards,
    )


def _sequence_chain(
    sequence_docs: List[Tuple[int, float, Path, Dict]]
) -> List[Tuple[int, float, Path, Dict]]:
    """The longest replayable suffix chain of a sequence directory.

    Finds the newest *full* document (v1/v2, or v3 with ``of: null``)
    and extends it with each following delta whose ``of`` links to the
    generation before it.  A broken link — a skipped-corrupt file, a
    delta written by a different chain — ends the replay there: the
    valid prefix is still a coherent state, which is exactly the
    corrupt-file fallback :class:`SnapshotStore` restores have always
    had.  Returns ``[]`` when the directory holds only orphan deltas.
    """
    base_index: Optional[int] = None
    for index in range(len(sequence_docs) - 1, -1, -1):
        delta = sequence_docs[index][3]["payload"].get("delta")
        if not isinstance(delta, dict) or delta.get("of") is None:
            base_index = index
            break
    if base_index is None:
        return []
    chain = [sequence_docs[base_index]]
    base_delta = sequence_docs[base_index][3]["payload"].get("delta")
    expected_of = (
        base_delta.get("generation")
        if isinstance(base_delta, dict)
        else sequence_docs[base_index][0]
    )
    for member in sequence_docs[base_index + 1 :]:
        delta = member[3]["payload"].get("delta")
        if not isinstance(delta, dict) or delta.get("of") != expected_of:
            break
        chain.append(member)
        expected_of = delta.get("generation")
    return chain


def partition_sessions(
    sessions: Dict[str, Dict], shard_count: int
) -> List[Dict[str, Dict]]:
    """Re-hash principals onto *shard_count* shards.

    CRC-32 shard assignment depends on the shard count, so session
    files written under one ``--shards N`` must be re-partitioned —
    never replayed file-to-worker — when N changes.  Re-hashing is also
    correct when N is unchanged (each principal lands where it was).
    """
    from repro.server.shard import shard_for

    partitioned: List[Dict[str, Dict]] = [{} for _ in range(shard_count)]
    for principal, state in sessions.items():
        partitioned[shard_for(principal, shard_count)][principal] = state
    return partitioned


def sessions_payload(sessions: Dict[str, Dict]) -> Dict:
    """Wrap per-principal session dicts in the ``export_state`` format."""
    from repro.server.service import _STATE_FORMAT

    return {"format": _STATE_FORMAT, "sessions": sessions}


def clean_stale_shards(state_dir: "Path | str", shard_count: int) -> List[Path]:
    """Remove shard files outside ``0..shard_count-1``; returns removals.

    Called after a rebalanced restart has absorbed every old file, so a
    later restart cannot resurrect sessions from a dead topology.
    """
    removed = []
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        return removed
    for entry in sorted(state_dir.iterdir()):
        match = _SHARD_NAME.match(entry.name)
        if match and int(match.group(1)) >= shard_count:
            entry.unlink(missing_ok=True)
            removed.append(entry)
    return removed


# ----------------------------------------------------------------------
# The background snapshotter
# ----------------------------------------------------------------------
class Snapshotter:
    """Runs *snapshot* every *interval* seconds on a daemon thread.

    The callable does the whole job (typically ``lambda:
    store.save(snapshot_service(service))``); this class only owns the
    cadence and the thread.  Exceptions from the callable are recorded
    on :attr:`last_error` and do not kill the thread — a full disk at
    2 a.m. should cost snapshots, not the serving loop.  :meth:`stop`
    takes one final snapshot by default so planned shutdowns never lose
    the tail of the session history.
    """

    def __init__(self, snapshot: Callable[[], object], interval: float = 30.0):
        if interval <= 0:
            raise ValueError("snapshot interval must be > 0 seconds")
        self._snapshot = snapshot
        self.interval = interval
        self.snapshots_taken = 0
        self.last_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def run_once(self) -> bool:
        """Take one snapshot now; ``True`` on success."""
        try:
            self._snapshot()
        except Exception as exc:  # noqa: BLE001 - keep serving
            self.last_error = exc
            return False
        self.snapshots_taken += 1
        return True

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.run_once()

    def start(self) -> "Snapshotter":
        if self._thread is not None:
            raise RuntimeError("snapshotter already started")
        self._thread = threading.Thread(
            target=self._loop, name="snapshotter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_snapshot: bool = True, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        if final_snapshot:
            self.run_once()
