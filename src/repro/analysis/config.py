"""What the checkers know about *this* project.

The rules are generic AST machinery; this module pins them to the
repro stack: which module is the format registry, which modules speak
the pool frame protocol, and — for LCK01 — the set of guarded-by
declarations the codebase is *required* to carry.  That last list is
the drift contract: deleting a ``# guarded-by`` comment from the code
makes LCK01 fail with a "declaration missing" finding, so annotations
are load-bearing, not decorative.

Tests point these fields at fixture corpora to exercise each rule on
seeded-good/seeded-bad snippets without the real tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

__all__ = ["AnalysisConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class AnalysisConfig:
    # -- FMT01 ----------------------------------------------------------
    #: The only module allowed to spell ``repro.<artifact>/<n>`` literals.
    formats_module: str = "repro.core.formats"

    # -- WIRE01 ---------------------------------------------------------
    pool_module: str = "repro.server.pool"
    wire2_module: str = "repro.server.wire2"
    aio_module: str = "repro.server.aio"
    client_wire_module: str = "repro.client.wire"
    client_package: str = "repro.client"
    #: Worker-side functions in the pool module (name prefix match).
    pool_worker_prefix: str = "_worker"
    pool_worker_main: str = "_replica_worker_main"
    #: (worker render fn, parent unpack fn) positional pool-row pairs.
    pool_row_pairs: Tuple[Tuple[str, str], ...] = (
        ("_worker_batch", "_absorb"),
    )
    #: The status-line reason map in the aio module.
    reason_map_name: str = "_REASON"
    #: (server render fn, client inflate fn) compact-row pairs.
    row_pairs: Tuple[Tuple[str, str], ...] = (
        ("render_single", "inflate_single"),
        ("handle_query", "inflate_single"),
        ("render_batch", "inflate_batch"),
    )
    #: Root class of the typed client error hierarchy, and where its
    #: exports must appear.
    client_error_root: str = "ClientError"

    # -- LCK01 ----------------------------------------------------------
    #: ``(module, class, field, lock)`` declarations the tree must carry.
    required_guarded: FrozenSet[Tuple[str, str, str, str]] = field(
        default_factory=lambda: frozenset(
            {
                ("repro.server.service", "Session", "live", "_lock"),
                ("repro.server.kernel", "CompiledPolicy", "mask_memo", "_lock"),
                ("repro.server.kernel", "CompiledPolicy", "outcome_memo", "_lock"),
                ("repro.server.kernel", "DecisionKernel", "_compiled", "_lock"),
                ("repro.server.service", "DisclosureService", "_dirty", "_lock"),
                ("repro.server.kernel", "DecisionKernel", "_plane", "_plane_lock"),
                ("repro.server.store", "_StoreBase", "_resident", "_lock"),
                ("repro.server.store", "InMemoryStore", "_cold", "_lock"),
                ("repro.server.store", "SpillStore", "_index", "_lock"),
                ("repro.server.store", "SpillStore", "_origin", "_lock"),
                ("repro.server.interning", "QueryInterner", "_ids", "_lock"),
                ("repro.server.interning", "QueryInterner", "_keys", "_lock"),
                ("repro.server.interning", "LabelInterner", "_ids", "_lock"),
                ("repro.server.cache", "LabelCache", "_data", "_lock"),
                ("repro.server.wire2", "WireGateway", "_generations", "_lock"),
            }
        )
    )

    # -- ASY01 ----------------------------------------------------------
    #: Bare-name calls that block.
    blocking_names: FrozenSet[str] = frozenset(
        {"open", "urlopen", "create_connection", "getaddrinfo"}
    )
    #: ``module.attr`` calls that block.
    blocking_dotted: FrozenSet[Tuple[str, str]] = frozenset(
        {
            ("time", "sleep"),
            ("os", "fsync"),
            ("socket", "create_connection"),
            ("subprocess", "run"),
        }
    )
    #: Method calls that block regardless of receiver.
    blocking_methods: FrozenSet[str] = frozenset(
        {
            "recv_bytes", "send_bytes", "sendall", "getresponse",
            "read_bytes", "write_bytes", "read_text", "write_text",
            "readline",
        }
    )
    #: Method calls that block only on I/O-ish receivers (``conn.send``
    #: yes, ``transport.write`` no — transports are loop-native).
    blocking_methods_ioish: FrozenSet[str] = frozenset(
        {"write", "flush", "send", "recv", "read"}
    )
    ioish_receiver_hints: Tuple[str, ...] = ("log", "file", "sock", "conn", "pipe", "fh")


DEFAULT_CONFIG = AnalysisConfig()
