"""The one registry for every versioned on-disk / on-wire format string.

Every durable artifact the stack writes carries a ``format`` header of
the shape ``repro.<artifact>/<version>``, and every reader dispatches on
it.  Those strings are load-bearing: a typo'd header writes documents no
release can read back, and a version bumped in the writer but not the
reader turns restart into data loss.  So the literals live *here*, once,
and everywhere else imports them — the FMT01 checker
(:mod:`repro.analysis`) fails CI on any ``repro.<x>/<n>`` literal inlined
outside this module.

Adding a version:

1. add the constant here (never edit an existing one — old documents
   keep their header forever),
2. teach the reader to accept it (e.g. ``persist.READABLE_FORMATS``),
3. only then switch the writer to emit it.
"""

from __future__ import annotations

__all__ = [
    "POLICY_FORMAT_V1",
    "SESSIONS_FORMAT_V1",
    "SESSIONS_FORMAT_V2",
    "SNAPSHOT_FORMAT_V1",
    "SNAPSHOT_FORMAT_V2",
    "SNAPSHOT_FORMAT_V3",
    "TRACE_FORMAT_V1",
]

#: Full self-contained snapshot, sessions as per-principal partition
#: lists, label cache as flat ``[key, label]`` pairs.  Read-only: no
#: writer emits it; :data:`repro.server.persist.READABLE_FORMATS` keeps
#: read support forever.
SNAPSHOT_FORMAT_V1 = "repro.snapshot/1"

#: Full self-contained snapshot with interned tables: each canonical
#: key and packed label stored once, referenced by dense integer id;
#: session policies deduplicated into a table referenced by index.
#: Read-only, like v1: its sections live on inside v3.
SNAPSHOT_FORMAT_V2 = "repro.snapshot/2"

#: The one written snapshot format: every file ``SnapshotChain`` (the
#: only writer) or ``save_snapshot`` writes, pooled or not.  v2's
#: section encodings plus a ``delta`` header linking the document into
#: a chain — a full base (``of: null``) or an increment holding only
#: the sessions dirtied and the interner rows added since the
#: generation it extends.
SNAPSHOT_FORMAT_V3 = "repro.snapshot/3"

#: Session-table export (``SessionStore.export_state`` /
#: ``DisclosureService.export_state``): the live wire form.
SESSIONS_FORMAT_V1 = "repro.server/1"

#: Session-table file form inside v3 snapshot sections: policy table
#: plus ``[index, live_int]`` rows.
SESSIONS_FORMAT_V2 = "repro.server/2"

#: Scenario trace documents (:mod:`repro.scenarios.trace`): a header
#: line then one JSON event per line, replayable against any transport.
TRACE_FORMAT_V1 = "repro.trace/1"

#: Serialized partition policies (:mod:`repro.policy.serialization`):
#: partition table plus optional labeler vocabulary.
POLICY_FORMAT_V1 = "repro.policy/1"
