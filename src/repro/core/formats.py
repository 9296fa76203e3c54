"""The one registry for every versioned on-disk / on-wire format string.

Every durable artifact the stack writes carries a ``format`` header of
the shape ``repro.<artifact>/<version>``, and every reader dispatches on
it.  Those strings are load-bearing: a typo'd header writes documents no
release can read back, and a version bumped in the writer but not the
reader turns restart into data loss.  So the literals live *here*, once,
and everywhere else imports them — the FMT01 checker
(:mod:`repro.analysis`) fails CI on any ``repro.<x>/<n>`` literal inlined
outside this module.

Each artifact has one readable version: a reader accepts its own
format and refuses any other with an error naming the format it found.
Adding a version:

1. add the constant here (never edit an existing one's value — a
   refused document must still be named by what it says it is),
2. switch the reader and the writer to it together (e.g.
   ``persist.SNAPSHOT_FORMAT``),
3. delete the constant it replaces once nothing reads or writes it.
"""

from __future__ import annotations

__all__ = [
    "POLICY_FORMAT_V1",
    "SESSIONS_FORMAT_V2",
    "SNAPSHOT_FORMAT_V3",
    "TRACE_FORMAT_V1",
]

#: The one snapshot format, written and read: every file
#: ``SnapshotChain`` (the only writer) or ``save_snapshot`` writes,
#: pooled or not.  Interned sections (each canonical key, packed label
#: and session policy stored once, referenced by dense index) plus a
#: ``delta`` header linking the document into a chain — a full base
#: (``of: null``) or an increment holding only the sessions dirtied and
#: the interner rows added since the generation it extends.  Files of
#: the earlier ``repro.snapshot/1`` and ``/2`` releases are refused.
SNAPSHOT_FORMAT_V3 = "repro.snapshot/3"

#: The one session encoding, the session table: a policy table plus
#: ``[policy_index, live]`` entries (``[policy_index, live, 1]`` for an
#: ephemeral session).  Written by ``store.encode_states`` alone — for
#: ``DisclosureService.export_state``/``export_generation``, every
#: snapshot's ``sessions`` section (``snapshot_service``,
#: ``SnapshotChain``, ``compact_chain``, ``partition.merge_snapshots``)
#: and the replica pool's ``restore`` frame — and read by
#: ``store.decode_states`` alone, for ``DisclosureService.import_state``
#: and ``persist.collect_state`` (through ``persist.payload_states``).
#: The earlier version-1 bool-list document is refused with an error
#: naming its format.
SESSIONS_FORMAT_V2 = "repro.server/2"

#: Scenario trace documents (:mod:`repro.scenarios.trace`): a header
#: line then one JSON event per line, replayable against any transport.
TRACE_FORMAT_V1 = "repro.trace/1"

#: Serialized partition policies (:mod:`repro.policy.serialization`):
#: partition table plus optional labeler vocabulary.
POLICY_FORMAT_V1 = "repro.policy/1"
