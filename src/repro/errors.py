"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors, schema violations, policy
refusals, and internal invariant breaks.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation, attribute, or arity does not match the schema."""


class ParseError(ReproError):
    """A datalog or SQL string could not be parsed into a conjunctive query.

    Attributes
    ----------
    text:
        The input that failed to parse.
    position:
        Character offset of the failure, or ``None`` when unknown.
    """

    def __init__(self, message: str, text: str = "", position: "int | None" = None):
        super().__init__(message)
        self.text = text
        self.position = position


class UnsupportedQueryError(ParseError):
    """The query parsed, but uses features outside conjunctive queries.

    Raised, for example, for SQL with ``OR``, ``NOT``, aggregates,
    subqueries, or non-equality predicates.  The disclosure labeler of the
    paper is defined for conjunctive queries only (Section 2.3).
    """


class QueryError(ReproError):
    """A structurally invalid conjunctive query (e.g. unsafe head variable)."""


class UnificationError(ReproError):
    """Two atoms could not be unified (used internally by GenMGU)."""


class LabelingError(ReproError):
    """A labeling operation failed, e.g. a set ``F`` does not induce a labeler."""


class PolicyError(ReproError):
    """A security policy is malformed (e.g. not internally consistent)."""


class QueryRefusedError(ReproError):
    """The reference monitor refused a query under the active policy.

    Attributes
    ----------
    query:
        The refused query (any representation accepted by the monitor).
    reason:
        Human-readable explanation of the refusal.
    """

    def __init__(self, query: object, reason: str = "query refused by security policy"):
        super().__init__(reason)
        self.query = query
        self.reason = reason


class StorageError(ReproError):
    """A failure in the SQLite-backed storage substrate."""


class TraceError(ReproError):
    """A scenario trace file is missing, truncated, corrupt, or incompatible.

    Raised by :mod:`repro.scenarios.trace` when a trace cannot be
    trusted: unreadable JSON lines, an unknown format version, an event
    count or CRC-32 checksum that does not match the header, or an event
    whose shape is not one the replay engine knows.  Like
    :class:`SnapshotError`, loading code treats the error as "this file
    cannot be replayed" plus a clear message — never as a crash.
    """


class StoreError(ReproError):
    """The session memory tier cannot serve or persist a session.

    Raised by :mod:`repro.server.store` when the cold tier is unusable:
    a spill log with a corrupt interior record, a principal that cannot
    round-trip through the on-disk encoding (non-string principals are
    not spillable), or an I/O failure underneath the log.  A torn final
    record — the crash-mid-append signature — is *not* an error; the
    store truncates it and carries on, exactly like the snapshot
    loader's corrupt-file fallback.
    """


class SnapshotError(ReproError):
    """A service snapshot is missing, truncated, corrupt, or incompatible.

    Raised by :mod:`repro.server.persist` when a snapshot file cannot be
    trusted: unreadable JSON, an unknown format version, a checksum
    mismatch, or a payload whose structure does not round-trip.  Loading
    code treats the error as "this file does not exist" plus a clear
    message — never as a crash — so a damaged snapshot can only cost
    warmth, not availability.
    """


class ReplicaStartError(ReproError, RuntimeError):
    """A kernel replica did not come up.

    Raised by :class:`repro.server.pool.ReplicaPool` when a replica it
    launched exits, answers with something other than its ``ready``
    frame, or stays silent past the ready timeout.  Every replica that
    start launched has been stopped and reaped by the time it is
    raised.  *index* names the replica and *status* is its exit status
    (negative: the signal that ended it); the replica's own traceback,
    if it printed one, is on its standard error.
    """

    def __init__(self, index: int, status: int, detail: str):
        super().__init__(
            f"kernel replica {index} {detail} (exit status {status})"
        )
        self.index = index
        self.status = status
