"""Durable snapshots and warm restarts for the serving stack.

The decision service is stateful by design: every future decision of a
principal depends on its accumulated live-partition state, and the
steady-state throughput of the whole deployment depends on the shared
canonical-query → packed-label cache being warm.  A restart that loses
either is not a restart — it is a new, differently-behaving service.
This module makes restarts safe and cheap:

* **Snapshot documents** — one ``repro.snapshot/3`` JSON document per
  generation carrying the sessions and the label cache as interned
  tables, the metrics counters, and a ``delta`` header placing it in a
  chain, wrapped in a format-version header and a CRC-32 checksum over
  the canonicalized payload bytes.  It is the only format this build
  reads: an older document is refused with a :class:`SnapshotError`
  naming its format.
* **Crash safety** — :func:`save_snapshot` writes a temporary file in
  the target directory, fsyncs it, atomically renames it over the
  destination and fsyncs the directory, so a crash mid-write leaves
  the previous snapshot intact.  :func:`load_snapshot` rejects
  truncation, bit flips, and unknown formats with
  :class:`SnapshotError` and a reason, never a crash.
* **A state directory** — :class:`SnapshotChain`, the one writer,
  keeps a bounded sequence of ``snapshot-<seq>.json`` files, pooled or
  not.  :func:`collect_state` replays whatever chain a directory
  holds, and names every file it could not use and why.
* **A background snapshotter** — :class:`Snapshotter` runs a snapshot
  callable every *interval* seconds on a daemon thread (``repro serve
  --state-dir DIR --snapshot-interval S``); an idle server's periodic
  cut writes nothing.

The restart-equivalence suite (``tests/server/test_persist.py``) holds
the core guarantee: decisions after snapshot → kill → warm restart are
byte-for-byte identical to an uninterrupted service, for the same and
for a changed partition count.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.canonical import decode_key, encode_key
from repro.core.formats import SNAPSHOT_FORMAT_V3
from repro.errors import PolicyError, SnapshotError
from repro.server.service import DisclosureService
from repro.server.store import SessionState, decode_states, encode_states

#: The format-version header of every snapshot file this build writes
#: and the only one it reads: a generation (full base or delta) of
#: interned sections.  Bump on any change a previous release could not
#: read.
SNAPSHOT_FORMAT = SNAPSHOT_FORMAT_V3

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{8})\.json$")
_SHARD_NAME = re.compile(r"^shard-(\d+)\.json$")
#: Why a ``shard-<i>.json`` file is reported and left alone.
_SHARD_SKIPPED = "written by the removed --shards release; not restored"


# ----------------------------------------------------------------------
# JSON-safe encoding of canonical keys
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


# ----------------------------------------------------------------------
# ID-plane encoding: tables once, references by dense integer id
# ----------------------------------------------------------------------
def encode_interned_cache(entries: Iterable[Tuple]) -> Dict:
    """``export_label_cache()`` pairs as the interned-cache section.

    The one label-cache encoding, in a snapshot and in the pool's
    ``warm`` frame.  Each distinct canonical key and each distinct
    packed label is stored exactly once, in its own table; the cache
    itself is a list of ``[key_index, label_index]`` pairs in LRU
    order.  Many query shapes share a label, so each label is written
    once however many entries carry it.
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
    """The interned-cache section back into ``warm_label_cache`` pairs."""
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


def payload_states(payload: Dict) -> List[Tuple[str, SessionState]]:
    """The ``(principal, SessionState)`` pairs of a snapshot payload's
    session table; a malformed table is a :class:`SnapshotError`."""
    sessions = payload.get("sessions")
    if not sessions:
        return []
    try:
        return decode_states(sessions)
    except PolicyError as exc:
        raise SnapshotError(f"snapshot sessions do not decode: {exc}") from exc


def payload_cache_entries(payload: Dict) -> List[Tuple]:
    """The ``warm_label_cache`` pairs of a snapshot payload."""
    interning = payload.get("interning")
    return decode_interned_cache(interning) if interning else []


# ----------------------------------------------------------------------
# Snapshot payloads: service state in, service state out
# ----------------------------------------------------------------------
def snapshot_service(service: DisclosureService) -> Dict:
    """The full durable state of *service* as a JSON-compatible payload.

    Carries sessions, the interned label cache, and metrics counters,
    in the ID-plane form: the policy, canonical-key, and packed-label
    tables are each stored once and everything else references them by
    dense integer index (smaller snapshots, faster restore).
    """
    return {
        "sessions": service.export_state(),
        "interning": encode_interned_cache(service.export_label_cache()),
        "metrics": metrics_section(service),
    }


def metrics_section(service: DisclosureService) -> Dict:
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


def restore_service(service: DisclosureService, payload: Dict) -> RestoreStats:
    """Load a :func:`snapshot_service` payload into *service*.

    Sessions, cache entries and metrics counters restore.  Raises
    :class:`SnapshotError` on a payload that does not validate — the
    service is left with whatever prefix imported, so callers restoring
    into a *fresh* service (the only supported direction) should
    discard it on failure.
    """
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload is not an object")
    sessions = payload.get("sessions")
    try:
        restored = service.import_state(sessions) if sessions else 0
    except PolicyError as exc:
        raise SnapshotError(f"snapshot sessions do not restore: {exc}") from exc
    entries = payload_cache_entries(payload)
    imported = service.warm_label_cache(entries)
    decisions = 0
    metrics = payload.get("metrics")
    if isinstance(metrics, dict):
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


def _generation_header(
    generation: int,
    of: Optional[int] = None,
    removed: Iterable = (),
    plane_epoch: int = -1,
    qid_floor: int = 0,
) -> Dict:
    """The ``delta`` header linking a v3 document into a chain: a full
    base when *of* is ``None``, else an increment on generation *of*."""
    return {
        "generation": generation,
        "of": of,
        "removed": list(removed),
        "plane_epoch": plane_epoch,
        "qid_floor": qid_floor,
    }


def save_snapshot(path: "Path | str", payload: Dict) -> Path:
    """Atomically write *payload* as a ``repro.snapshot/3`` document.

    Write-temp + fsync + rename + fsync of the directory: a crash at
    any point leaves either the old file or the new file, never a torn
    mixture, and once this returns the rename itself is on disk.  The
    temporary file lives in the destination directory so the rename
    cannot cross filesystems.  A payload without a ``delta`` generation
    header (a lone file, ``snapshot save --out``) is written as a full
    base of generation 1; a state directory's files come from
    :class:`SnapshotChain`, which numbers them.
    """
    path = Path(path)
    if "delta" not in payload:
        payload = {**payload, "delta": _generation_header(1)}
    body = _canonical_payload_bytes(payload)
    header = json.dumps(
        {
            "checksum": zlib.crc32(body),
            "created": time.time(),
            "format": SNAPSHOT_FORMAT,
        },
        sort_keys=True,
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with open(temp, "wb") as handle:
            # The payload is serialized once: its checksummed bytes
            # close the document as the last of its sorted keys.
            handle.write(header[:-1] + b', "payload": ')
            handle.write(body)
            handle.write(b"}")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        _fsync_dir(path.parent)
    finally:
        if temp.exists():  # a failure before the rename: don't litter
            temp.unlink()
    return path


def _fsync_dir(directory: Path) -> None:
    """Make a rename in *directory* durable (POSIX: fsync the directory)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_snapshot(path: "Path | str") -> Dict:
    """Read and validate a snapshot document; returns the whole document.

    Every way a file can be wrong maps to a :class:`SnapshotError` with
    a reason: unreadable, truncated/not-JSON, not a snapshot document,
    any format but ``repro.snapshot/3`` (an older release's file
    included, named by its format), a checksum mismatch, or a payload
    without its ``delta`` generation header.
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
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot {path} has unsupported format {fmt!r} "
            f"(this build reads {SNAPSHOT_FORMAT!r} only)"
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
    if not isinstance(payload.get("delta"), dict):
        raise SnapshotError(f"snapshot {path} has no generation header")
    return document


class SnapshotInfo(NamedTuple):
    """Typed summary of one validated snapshot file.

    ``delta_of is None`` means a *full* chain base.
    """

    path: str
    format: str
    created: Optional[float]
    checksum: Optional[int]
    generation: int
    delta_of: Optional[int]
    sessions: int
    removed: int
    cache_entries: int
    decisions: int
    bytes: int

    def __repr__(self) -> str:
        kind = "full" if self.delta_of is None else f"delta-of-{self.delta_of}"
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
    delta = payload["delta"]
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    return SnapshotInfo(
        path=str(path),
        format=document["format"],
        created=document.get("created"),
        checksum=document.get("checksum"),
        generation=delta.get("generation"),
        delta_of=delta.get("of"),
        sessions=len(sessions.get("sessions", {})),
        removed=len(delta.get("removed") or ()),
        cache_entries=len((payload.get("interning") or {}).get("cache", [])),
        decisions=metrics.get("decisions", 0),
        bytes=size,
    )


# ----------------------------------------------------------------------
# The state directory: one writer
# ----------------------------------------------------------------------
def _numbered(state_dir: Path) -> List[Tuple[int, Path]]:
    """The directory's ``snapshot-<seq>.json`` files, oldest first."""
    found = []
    for entry in state_dir.iterdir():
        match = _SNAPSHOT_NAME.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort()
    return found


def _newest_base(numbered: List[Tuple[int, Path]]) -> Optional[int]:
    """The sequence number of the newest valid full base, if any."""
    for seq, path in reversed(numbered):
        try:
            delta = load_snapshot(path)["payload"]["delta"]
        except SnapshotError:
            continue
        if delta.get("of") is None:
            return seq
    return None


class SnapshotChain:
    """The one snapshot writer: a full base, then dirty deltas.

    Every file a state directory holds is a ``repro.snapshot/3``
    generation written here, serving or not, pooled or not.  With a
    *service*, the qid/lid plane is append-only and the service keeps
    the set of principals whose durable state changed since the last
    cut, so after one *full* base each :meth:`save` writes only:

    * the dirty principals' sessions, and a tombstone for each dirty
      principal no longer stored, via
      :meth:`DisclosureService.export_generation`;
    * label-cache entries whose qid was interned since the last cut,
      via :meth:`DecisionKernel.export_label_cache_since`;
    * the (cheap, always-full) metrics counters.

    Snapshot cost becomes O(delta), not O(state), and the periodic cut
    (:meth:`save_changed`) writes no generation for an idle service.
    A write that fails puts the cut's principals back into the dirty
    set, so the next generation still carries them.  Every
    ``compact_every`` deltas written — or on :meth:`compact` — the
    next write is a fresh full base.  ``save(payload)`` writes a
    :func:`snapshot_service`-shaped payload gathered elsewhere (a
    pulled ``/internal/snapshot``, an offline compaction) as the next
    full base; *service* may then be ``None``.

    One pruning rule holds for every full base: the files older than
    the *previous* full base go, so the directory holds at most two
    replayable chains (the live one plus one fallback for a corrupt
    newest base).  A writer that has not yet written a base finds the
    previous one by reading the directory newest-first.

    A chain always *starts* with a full base: the dirty set lives in
    process memory, so a restarted writer cannot know what an earlier
    process already captured.  :func:`collect_state` replays the chain
    on restart.
    """

    def __init__(
        self,
        service: Optional[DisclosureService],
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
        self._deltas_since_full = 0
        self._last_generation: Optional[int] = None
        self._last_full: Optional[int] = None
        self._plane_epoch = -1
        self._qid_floor = 0
        #: The metrics section of the last generation written.
        self._metrics: Optional[Dict] = None

    def save(self, payload: Optional[Dict] = None) -> Path:
        """Write the next generation: *payload* as a full base, else a
        cut of the service (full when the chain calls for it).  Always
        writes; returns the path written."""
        if payload is not None:
            return self._append(payload, None)
        return self._cut(self._full_due())

    def save_changed(self) -> Optional[Path]:
        """The periodic cut: :meth:`save`, unless nothing durable changed
        since the last generation written — an empty dirty set, the
        same plane epoch and qid count, and the same metrics section.
        Then nothing is written and ``None`` returned, so an idle
        server's directory stays as it is and only written generations
        count toward ``compact_every``.  The check reads no session."""
        service = self.service
        if self._last_generation is not None and service is not None:
            plane = service.kernel.plane
            if (
                not service.dirty_count()
                and plane.epoch == self._plane_epoch
                and len(plane.queries) == self._qid_floor
                and metrics_section(service) == self._metrics
            ):
                return None
        return self.save()

    def compact(self) -> Path:
        """Force the next generation to be a full base (prunes history)."""
        return self._cut(True)

    def _full_due(self) -> bool:
        return (
            self._last_generation is None
            or self._deltas_since_full >= self.compact_every
        )

    def _cut(self, full: bool) -> Path:
        """Write the service's state since the last cut (all of it when
        *full*) as the next generation."""
        service = self.service
        if service is None:
            raise ValueError("a chain without a service saves payloads only")
        state, removed, drained = service.export_generation(full)
        plane_epoch, qid_count, entries = service.kernel.export_label_cache_since(
            self._plane_epoch, 0 if full else self._qid_floor
        )
        metrics = metrics_section(service)
        try:
            path = self._append(
                {
                    "sessions": state,
                    "interning": encode_interned_cache(entries),
                    "metrics": metrics,
                },
                None if full else self._last_generation,
                removed=removed,
                plane_epoch=plane_epoch,
                qid_floor=0 if full else self._qid_floor,
            )
        except BaseException:
            service.restore_dirty(drained)
            raise
        self._plane_epoch = plane_epoch
        self._qid_floor = qid_count
        self._metrics = metrics
        return path

    def _append(self, sections: Dict, of: Optional[int], **header) -> Path:
        """Write *sections* as the next generation, extending *of*
        (``None``: a full base), and apply the pruning rule."""
        numbered = _numbered(self.state_dir)
        seq = (numbered[-1][0] + 1) if numbered else 1
        payload = dict(sections)
        payload["delta"] = _generation_header(seq, of, **header)
        path = save_snapshot(self.state_dir / f"snapshot-{seq:08d}.json", payload)
        self._last_generation = seq
        if of is not None:
            self._deltas_since_full += 1
            return path
        self._deltas_since_full = 0
        previous = (
            self._last_full
            if self._last_full is not None
            else _newest_base(numbered)
        )
        if previous is not None:
            for old_seq, old_path in numbered:
                if old_seq < previous:
                    old_path.unlink(missing_ok=True)
        self._last_full = seq
        return path


def compact_chain(state_dir: "Path | str") -> Tuple[Path, List[Path]]:
    """Offline compaction: fold a directory's chain into one full base.

    Replays whatever :func:`collect_state` can trust, writes the merged
    result as the next-sequence full generation, and removes every
    older sequence file.  Returns the new path and the removed ones.
    Raises :class:`SnapshotError` when the directory holds nothing
    replayable.
    """
    state_dir = Path(state_dir)
    collected = collect_state(state_dir)
    if collected is None or not collected.sources:
        raise SnapshotError(f"no valid snapshot under {state_dir}")
    numbered = _numbered(state_dir)
    path = SnapshotChain(None, state_dir).save(
        {
            "sessions": sessions_payload(collected.sessions),
            "interning": encode_interned_cache(collected.cache_entries),
            "metrics": collected.metrics
            if isinstance(collected.metrics, dict)
            else {},
        }
    )
    for _, old_path in numbered:
        old_path.unlink(missing_ok=True)
    return path, [old_path for _, old_path in numbered]


class CollectedState:
    """Everything a state directory knows, merged across its files."""

    __slots__ = ("sessions", "cache_entries", "metrics", "sources", "skipped")

    def __init__(
        self,
        sessions: Dict[str, SessionState],
        cache_entries: List[Tuple],
        metrics: Optional[Dict],
        sources: List[Path],
        skipped: List[Tuple[Path, str]],
    ):
        #: principal -> its replayed :class:`SessionState`.
        self.sessions = sessions
        #: decoded ``warm_label_cache`` pairs, deduplicated.
        self.cache_entries = cache_entries
        #: metrics of the newest source (it carries the full history).
        self.metrics = metrics
        #: The chain the sessions came from, oldest first; empty when
        #: no file in the directory could be restored.
        self.sources = sources
        #: ``(path, reason)`` for every snapshot-like file not used.
        self.skipped = skipped


def collect_state(state_dir: "Path | str") -> Optional[CollectedState]:
    """The newest complete state a directory holds, plus merged warmth.

    **Sessions** come only from the newest replayable chain of sequence
    files (:func:`_sequence_chain`).  Older generations must not
    contribute sessions: a principal deliberately absent from the
    newest snapshot (unregistered, or an ephemeral session dropped
    fresh) would otherwise be resurrected with stale state, breaking
    restart equivalence.  **Cache entries** merge from every valid
    file: a label is a pure function of the query, so old warmth is
    never wrong, only extra.  Damaged files, and the ``shard-<i>.json``
    files of the removed ``--shards`` release, are listed in
    ``skipped`` with the reason, so a restart says why it restored
    less.  Returns ``None`` when the directory holds no snapshot file.
    """
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        return None
    sequence_docs: List[Tuple[int, Path, Dict]] = []
    skipped: List[Tuple[Path, str]] = []
    for entry in sorted(state_dir.iterdir()):
        if _SHARD_NAME.match(entry.name):
            skipped.append((entry, _SHARD_SKIPPED))
            continue
        match = _SNAPSHOT_NAME.match(entry.name)
        if not match:
            continue
        try:
            document = load_snapshot(entry)
        except SnapshotError as exc:
            skipped.append((entry, str(exc)))
            continue
        sequence_docs.append((int(match.group(1)), entry, document))
    if not (sequence_docs or skipped):
        return None
    sequence_docs.sort(key=lambda item: item[0])

    chain = _sequence_chain(sequence_docs)
    sessions: Dict[str, SessionState] = {}
    for _, _, document in chain:
        payload = document["payload"]
        # Apply a generation's removals before its updates, so an
        # unregister + re-register in one window nets out to the
        # re-registered state.
        for principal in payload["delta"].get("removed") or ():
            sessions.pop(principal, None)
        sessions.update(payload_states(payload))
    newest_payload = chain[-1][2]["payload"] if chain else {}

    cache: Dict = {}
    for _, _, document in sequence_docs:
        for key, label in payload_cache_entries(document["payload"]):
            cache[key] = label

    return CollectedState(
        sessions,
        list(cache.items()),
        newest_payload.get("metrics"),
        [path for _, path, _ in chain],
        skipped,
    )


def _sequence_chain(
    sequence_docs: List[Tuple[int, Path, Dict]]
) -> List[Tuple[int, Path, Dict]]:
    """The longest replayable suffix chain of a sequence directory.

    Finds the newest *full* document (``of: null``) and extends it with
    each following delta whose ``of`` links to the generation before
    it.  A broken link — a skipped-corrupt file, a delta written by a
    different chain — ends the replay there: the
    valid prefix is still a coherent state, and a corrupt newest base
    falls back to the base before it, which the pruning rule of
    :class:`SnapshotChain` keeps.  Returns ``[]`` when the directory
    holds only orphan deltas.
    """
    headers = [document["payload"]["delta"] for _, _, document in sequence_docs]
    bases = [index for index, delta in enumerate(headers) if delta.get("of") is None]
    if not bases:
        return []
    base_index = bases[-1]
    chain = [sequence_docs[base_index]]
    expected_of = headers[base_index].get("generation")
    for member, delta in zip(sequence_docs[base_index + 1 :], headers[base_index + 1 :]):
        if delta.get("of") != expected_of:
            break
        chain.append(member)
        expected_of = delta.get("generation")
    return chain


def sessions_payload(sessions: Dict[str, SessionState]) -> Dict:
    """A ``{principal: SessionState}`` map as the session table."""
    return encode_states(sessions.items())


def restore_collected(service: DisclosureService, collected: CollectedState) -> int:
    """Load what :func:`collect_state` replayed into a fresh *service*:
    the sessions, the label-cache warmth and the counters.  Returns the
    number of sessions restored.  Every warm restart of a state
    directory goes through here: ``serve --state-dir`` (pooled or
    not), ``snapshot load --state-dir`` and the scenario engine's
    restart replay."""
    restored = service.import_state(sessions_payload(collected.sessions))
    service.warm_label_cache(collected.cache_entries)
    if collected.metrics:
        service.restore_metrics(collected.metrics)
    return restored


# ----------------------------------------------------------------------
# The background snapshotter
# ----------------------------------------------------------------------
class Snapshotter:
    """Runs *snapshot* every *interval* seconds on a daemon thread.

    The callable does the whole job (typically a
    :meth:`SnapshotChain.save_changed`); this class only owns the
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
