"""The online policy decision service (the paper's deployment shape).

* :mod:`repro.server.kernel` — the :class:`DecisionKernel`: the one
  canonicalize → label → mask → outcome pipeline every transport
  (single, batch, replica) routes through, expressed over dense ids
* :mod:`repro.server.interning` — the ID plane: :class:`QueryInterner`
  (canonical query shape → qid) and :class:`LabelInterner` (packed
  label → lid)
* :mod:`repro.server.service` — per-principal sessions with LRU
  eviction and serializable state; the session store the kernel
  decides against
* :mod:`repro.server.store` — the :class:`SessionStore` memory tier:
  resident LRU + cold tier, in RAM (:class:`InMemoryStore`) or
  spilled to an on-disk log (:class:`SpillStore`,
  ``python -m repro serve --spill-dir DIR``)
* :mod:`repro.server.cache` — the shared LRU (the kernel's qid → lid
  label cache; labels are principal-free)
* :mod:`repro.server.batch` — the batch transport adapter
  (``submit_batch`` / ``/v1/batch``)
* :mod:`repro.server.partition` — the CRC-32 principal partitioning
  and the metrics and snapshot merges every multi-kernel deployment
  shares
* :mod:`repro.server.pool` — the kernel replica pool: one front end,
  N kernel worker processes fed over pipes
  (``python -m repro serve --replicas N``)
* :mod:`repro.server.persist` — durable, checksummed snapshots and
  warm restarts (``python -m repro serve --state-dir DIR``,
  ``python -m repro snapshot``)
* :mod:`repro.server.aio` — the asyncio HTTP front end with per-tick
  request coalescing, and its route table :func:`dispatch`
  (``python -m repro serve``)
* :mod:`repro.server.wire2` — server side of the qid-native ``/v2``
  wire protocol (client side: :mod:`repro.client.wire`)
"""

from repro.server.aio import (
    AsyncDecisionServer,
    dispatch,
    serve_async,
    start_async_background,
)
from repro.server.cache import CacheStats, LabelCache, canonical_key
from repro.server.interning import LabelInterner, QueryInterner
from repro.server.kernel import DecisionKernel
from repro.server.partition import aggregate_metrics, shard_for
from repro.server.persist import (
    SnapshotChain,
    SnapshotInfo,
    SnapshotStore,
    Snapshotter,
    collect_state,
    compact_chain,
    load_snapshot,
    restore_service,
    save_snapshot,
    snapshot_service,
)
from repro.server.service import DisclosureService, ServiceDecision, Session
from repro.server.store import (
    InMemoryStore,
    SessionState,
    SessionStore,
    SpillStore,
    state_of,
)

from repro.server.wire2 import WireGateway, gateway_for

__all__ = [
    "AsyncDecisionServer",
    "CacheStats",
    "DecisionKernel",
    "DisclosureService",
    "LabelCache",
    "LabelInterner",
    "QueryInterner",
    "InMemoryStore",
    "ServiceDecision",
    "Session",
    "SessionState",
    "SessionStore",
    "SnapshotChain",
    "SnapshotInfo",
    "SnapshotStore",
    "Snapshotter",
    "SpillStore",
    "WireGateway",
    "aggregate_metrics",
    "canonical_key",
    "collect_state",
    "compact_chain",
    "dispatch",
    "state_of",
    "gateway_for",
    "load_snapshot",
    "serve_async",
    "start_async_background",
    "restore_service",
    "save_snapshot",
    "shard_for",
    "snapshot_service",
]
