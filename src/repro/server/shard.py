"""Sharded multi-process serving: principals hash-partitioned over workers.

The decision service is CPU-bound pure Python, so one process tops out
at one core no matter how many threads serve connections.  The way past
that — and the architecture every future scaling PR plugs into — is the
classic partitioned design:

* **Sessions partition perfectly.**  A principal's enforcement state is
  private to that principal (one policy, one live-partition bit vector),
  so hash-partitioning principals across N workers needs no cross-shard
  coordination, ever: every route that touches state carries the
  principal that owns it.
* **Labels replicate perfectly.**  Labels are a function of the query
  alone, so each worker runs its own label cache and all caches converge
  on the same entries; a new worker starts warm by importing another
  service's exported entries (:meth:`DisclosureService.export_label_cache`).
* **Interning is per-kernel, translation is cheap.**  Each worker's
  :class:`~repro.server.kernel.DecisionKernel` assigns its own dense
  query ids, so the in-process router keeps one interner of its own and
  a per-backend qid translation table: a fan-out ships already-interned
  qids plus the *delta* of canonical keys the worker has not seen,
  instead of re-canonicalizing every query per worker.

The pieces:

:func:`shard_for`
    The stable hash (CRC-32, so it agrees across processes and
    interpreter runs — ``hash()`` does not under ``PYTHONHASHSEED``).
:class:`ShardRouter`
    Routes wire requests to per-shard backends: single-principal routes
    go to the owning shard, ``/v1/batch`` is split by shard and
    reassembled in order, ``/metrics`` fans out and aggregates.
:class:`LocalShardBackend` / :class:`HTTPShardBackend`
    The two backend kinds: an in-process :class:`DisclosureService`
    (tests, benchmarks, and the equivalence suite) or a worker process
    reached over HTTP (the real deployment).
:func:`start_shard_workers` / :func:`stop_shard_workers`
    Spawn/terminate worker processes, each running its own service and
    HTTP server on an ephemeral port.
:func:`serve_sharded`
    The ``python -m repro serve --shards N`` composition: N workers
    plus a front-end :func:`make_server` bound to the router.

Process-safety: the router itself holds no mutable decision state —
its only state is the backend list — so one router instance may be
shared by all front-end server threads.  Worker processes never talk
to each other.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # import only for annotations: the pool is lazy
    from concurrent.futures import ThreadPoolExecutor

from repro.server.batch import ITEM_NOT_OBJECT_ERROR, ITEM_PRINCIPAL_ERROR
from repro.server.httpd import (
    dispatch,
    make_server,
    metrics_format,
    validate_batch_body,
)
from repro.server.metrics import aggregate_latency
from repro.server.service import DisclosureService

#: Why the sharded front end refuses ``/v2``, and what to use instead —
#: served on every ``/v2/*`` POST and on the ``GET /v2/protocol`` probe
#: so downgrade-capable clients negotiate v1 instead of failing.
_V2_SHARDED_HINT = (
    "v2 endpoints are served per-shard; use a shard-aware client "
    "(repro.client.ShardedClient) against the workers, or run "
    "`repro serve --async --replicas N` — the kernel replica pool "
    "serves full v2 from a single front end"
)


def shard_for(principal: Hashable, shard_count: int) -> int:
    """The shard index owning *principal*: ``crc32(str(principal)) % N``.

    Stable across processes, interpreter restarts, and
    ``PYTHONHASHSEED`` (unlike built-in ``hash``), so a router, its
    workers, and yesterday's exported session state all agree on
    ownership.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return zlib.crc32(str(principal).encode("utf-8")) % shard_count


class LocalShardBackend:
    """A shard served by an in-process :class:`DisclosureService`.

    Requests go through the same :func:`repro.server.httpd.dispatch`
    route table as a real worker's HTTP server, so router behavior is
    testable (and benchmarkable) without sockets or processes.
    """

    def __init__(self, service: Optional[DisclosureService] = None, **kwargs):
        self.service = service or DisclosureService(**kwargs)

    def request(self, method: str, path: str, body: Optional[Dict]) -> Tuple[int, Dict]:
        return dispatch(self.service, method, path, body)

    def close(self) -> None:
        pass


class HTTPShardBackend:
    """A shard reached over HTTP (a worker from :func:`start_shard_workers`).

    Keeps one persistent ``http.client`` connection per calling thread
    (connections are not thread-safe; the front-end server is
    one-thread-per-connection), reconnecting once on a dropped peer.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    def _connection(self, fresh: bool = False):
        from http.client import HTTPConnection

        connection = getattr(self._local, "connection", None)
        if connection is None or fresh:
            if connection is not None:
                connection.close()
            connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.connection = connection
        return connection

    def request(self, method: str, path: str, body: Optional[Dict]) -> Tuple[int, Dict]:
        """One request/response against the worker.

        Retries exactly once, and only on ``RemoteDisconnected`` — the
        stale keep-alive signature (the worker closed an idle persistent
        connection between our requests, before reading anything).  A
        timeout or garbled response is *not* retried: the worker may
        already have applied a mutating POST, and re-sending would
        double-apply it; the router surfaces those as 502 instead.
        """
        from http.client import RemoteDisconnected

        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        for attempt in (0, 1):
            connection = self._connection(fresh=bool(attempt))
            try:
                connection.request(method, path, payload, headers)
                response = connection.getresponse()
                return response.status, json.loads(response.read())
            except RemoteDisconnected:
                if attempt:
                    raise
            except Exception:
                self.close()
                raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None


class ShardRouter:
    """Hash-partitions the decision API across per-shard backends.

    The router exposes the same ``dispatch(method, path, body) →
    (status, payload)`` surface as :func:`repro.server.httpd.dispatch`,
    so :func:`repro.server.httpd.make_server` accepts a router wherever
    it accepts a service — the front-end HTTP server needs no special
    cases.

    Routing rules:

    * ``/v1/query`` / ``/v1/peek`` / ``/v1/register`` / ``/v1/reset`` —
      forwarded verbatim to the shard owning ``body["principal"]``.
    * ``/v1/batch`` — split into per-shard sub-batches (items keep
      their relative order, which per-principal equivalence only
      requires *within* a principal, and a principal never spans
      shards), forwarded, and reassembled in input order.  Items
      without a routable principal get their error entries from the
      router itself, with the same messages a worker would produce.
    * ``/metrics`` — fanned out to every shard and aggregated
      (:func:`aggregate_metrics`); per-shard snapshots ride along under
      ``"shards"``.
    * ``/healthz`` — ok iff every shard is ok.

    Thread-safety: stateless apart from the fixed backend list; safe to
    call from any number of front-end threads concurrently (backends
    manage their own per-thread connections).
    """

    def __init__(self, backends: Sequence):
        if not backends:
            raise ValueError("a ShardRouter needs at least one backend")
        self.backends = list(backends)
        # Per-shard sub-batches are forwarded concurrently: a persistent
        # pool (not per-call threads) so HTTP backends keep their
        # per-thread connections alive across batches.
        self._fanout: "Optional[ThreadPoolExecutor]" = None
        self._fanout_lock = threading.Lock()
        # The router's own query interner (local backends): queries are
        # canonicalized once here, and each backend gets a router-qid →
        # local-qid translation table extended by interner deltas.  The
        # interner is replaced wholesale when it crosses the shape cap
        # (the same unbounded-growth defence as the kernel's plane
        # rotation); maps record which (router interner, backend plane)
        # pair they translate between and rebuild when either moves.
        from repro.server.interning import QueryInterner

        self._interner = QueryInterner()
        self._qid_maps: Dict[int, Tuple[object, object, List[int]]] = {}
        self._intern_lock = threading.Lock()

    #: Distinct query shapes the router interner holds before it resets.
    ROUTER_SHAPE_CAP = 1 << 16

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.backends)

    def shard_for(self, principal: Hashable) -> int:
        return shard_for(principal, len(self.backends))

    def backend_for(self, principal: Hashable):
        return self.backends[self.shard_for(principal)]

    def service_for(self, principal: Hashable) -> DisclosureService:
        """The owning in-process service (local backends only)."""
        return self.backend_for(principal).service

    # ------------------------------------------------------------------
    def dispatch(self, method: str, path: str, body: Optional[Dict]) -> Tuple[int, object]:
        """Route one wire request; the router's entire public wire API."""
        route, _, query_string = path.partition("?")
        if method == "GET":
            if route == "/metrics":
                fmt, error = metrics_format(query_string)
                if error is not None:
                    return 400, {"error": error}
                snapshot = self.metrics_snapshot()
                if fmt == "prometheus":
                    # Rendered *after* the merge, so one scrape of the
                    # router sees deployment-wide counters and exact
                    # merged histograms, not one shard's.
                    from repro.obs import render_prometheus

                    return 200, render_prometheus(snapshot)
                return 200, snapshot
            if route == "/healthz":
                return self._healthz()
            if route == "/v2/protocol":
                # The negotiated form of the 501 below: HttpClient's
                # protocol probe hits this route first, so old clients
                # fall back to v1 cleanly instead of tripping over 501s
                # on their first decision.
                return 501, {
                    "error": _V2_SHARDED_HINT,
                    "code": "bad-request",
                    "protocols": ["v1"],
                }
            if route == "/internal/trace":
                return 200, self._traces()
            if route == "/internal/snapshot":
                return self._snapshot()
            return 404, {"error": f"unknown route {path}"}
        if method != "POST":
            return 405, {"error": f"unsupported method {method}"}
        if body is None:
            return 400, {"error": "request needs a JSON body"}
        if path.startswith("/v2/"):
            # v2 qids are scoped to one worker's gateway; a front-end
            # router cannot split a shared interner delta across shards.
            # The shard-aware client (repro.client.ShardedClient) routes
            # principals client-side and speaks v2 to each worker
            # directly — and `serve --async --replicas N` serves full v2
            # from one front end by keeping interning in the parent.
            return 501, {
                "error": _V2_SHARDED_HINT,
                "code": "bad-request",
            }
        if path == "/v1/batch":
            return self._dispatch_batch(body)
        if path in ("/v1/query", "/v1/peek", "/v1/register", "/v1/reset"):
            principal = body.get("principal")
            if not isinstance(principal, str) or not principal:
                return 400, {
                    "error": "request needs a non-empty string 'principal'"
                }
            return self._request(self.shard_for(principal), method, path, body)
        return 404, {"error": f"unknown route {path}"}

    def _request(
        self, shard: int, method: str, path: str, body: Optional[Dict]
    ) -> Tuple[int, Dict]:
        """Forward to one backend; a dead or garbling worker becomes a
        502 JSON error instead of an unhandled exception in the front
        end's request thread."""
        from http.client import HTTPException

        try:
            return self.backends[shard].request(method, path, body)
        except (OSError, ValueError, HTTPException) as exc:
            return 502, {"error": f"shard {shard} unreachable: {exc}"}

    def _dispatch_batch(self, body: Dict) -> Tuple[int, Dict]:
        queries, peek, error = validate_batch_body(body)
        if error is not None:
            return error

        results: List[Optional[Dict]] = [None] * len(queries)
        by_shard: Dict[int, List[int]] = {}
        for index, request in enumerate(queries):
            if not isinstance(request, dict):
                results[index] = {"error": ITEM_NOT_OBJECT_ERROR}
                continue
            principal = request.get("principal")
            if not isinstance(principal, str) or not principal:
                results[index] = {"error": ITEM_PRINCIPAL_ERROR}
                continue
            by_shard.setdefault(self.shard_for(principal), []).append(index)

        def forward(shard: int, indices: List[int]):
            sub_body = {
                "queries": [queries[i] for i in indices],
                "peek": peek,
            }
            return self._request(shard, "POST", "/v1/batch", sub_body)

        if len(by_shard) > 1:
            pool = self._fanout_pool()
            outcomes = list(
                pool.map(lambda item: forward(*item), by_shard.items())
            )
        else:
            outcomes = [forward(shard, indices) for shard, indices in by_shard.items()]

        for (shard, indices), (status, payload) in zip(
            by_shard.items(), outcomes
        ):
            if status != 200:
                error = {"error": payload.get("error", f"shard {shard} error")}
                for index in indices:
                    results[index] = dict(error)
                continue
            for index, decision in zip(indices, payload["decisions"]):
                results[index] = decision
        return 200, {"decisions": results, "count": len(results)}

    def _fanout_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        with self._fanout_lock:
            if self._fanout is None:
                # Several front-end request threads fan out through this
                # one pool concurrently, so size it for backends × a few
                # in-flight batches, not for a single request.
                self._fanout = ThreadPoolExecutor(
                    max_workers=min(32, 4 * len(self.backends)),
                    thread_name_prefix="shard-fanout",
                )
            return self._fanout

    def _snapshot(self) -> Tuple[int, Dict]:
        """``GET /internal/snapshot``: one merged payload for all shards.

        Sessions merge disjointly (each principal lives on exactly one
        shard), caches merge because labels are principal-free, and
        counters sum — so the result restores into *any* topology via
        :func:`repro.server.persist.partition_sessions`.  A dead shard
        fails the whole snapshot (502): a capture silently missing one
        shard's sessions would restore as silent state loss.
        """
        payloads = []
        for shard in range(len(self.backends)):
            status, payload = self._request(
                shard, "GET", "/internal/snapshot", None
            )
            if status != 200:
                return 502, {
                    "error": f"shard {shard} snapshot failed: "
                    + str(payload.get("error", status))
                }
            payloads.append(payload)
        return 200, merge_snapshot_payloads(payloads)

    def _traces(self) -> Dict:
        """``GET /internal/trace``: every shard's ring, shard-tagged.

        Traces concatenate in shard order (each shard's own oldest-first
        order preserved); ``seq`` numbers are per-shard, so the shard
        tag is what makes them globally meaningful.  An unreachable
        shard contributes an empty ring plus an ``error`` entry under
        ``"shards"`` rather than failing the scrape.
        """
        merged = {"capacity": 0, "recorded": 0, "dropped": 0, "traces": []}
        states: List[Dict] = []
        for shard in range(len(self.backends)):
            status, payload = self._request(
                shard, "GET", "/internal/trace", None
            )
            if status != 200 or not isinstance(payload, dict):
                states.append(
                    {"shard": shard, "error": f"trace scrape failed ({status})"}
                )
                continue
            states.append({"shard": shard, "recorded": payload.get("recorded", 0)})
            merged["capacity"] += payload.get("capacity", 0)
            merged["recorded"] += payload.get("recorded", 0)
            merged["dropped"] += payload.get("dropped", 0)
            for span in payload.get("traces", ()):
                tagged = dict(span)
                tagged["shard"] = shard
                merged["traces"].append(tagged)
        merged["shards"] = states
        return merged

    def _healthz(self) -> Tuple[int, Dict]:
        states = []
        for shard in range(len(self.backends)):
            status, payload = self._request(shard, "GET", "/healthz", None)
            states.append(status == 200 and bool(payload.get("ok")))
        ok = all(states)
        return (200 if ok else 503), {"ok": ok, "shards": states}

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict:
        """Aggregated metrics across every shard (``GET /metrics``).

        An unreachable shard contributes an ``{"error": ...}`` snapshot
        (zeros in the aggregate) rather than failing the whole report.
        """
        snapshots = []
        for shard in range(len(self.backends)):
            status, payload = self._request(shard, "GET", "/metrics", None)
            if status != 200:
                payload = {"error": payload.get("error", f"shard {shard} error")}
            snapshots.append(payload)
        return aggregate_metrics(snapshots)

    # ------------------------------------------------------------------
    # Object-level conveniences (local backends only): the in-process
    # sharded deployment used by tests and benchmarks.
    # ------------------------------------------------------------------
    def client(self) -> "object":
        """This deployment behind the shard-aware
        :class:`repro.client.ShardedClient` (local backends only)."""
        from repro.client.sharded import ShardedClient

        return ShardedClient.for_services(
            [backend.service for backend in self.backends]
        )

    def register(self, principal: Hashable, policy) -> None:
        self.service_for(principal).register(principal, policy)

    def reset(self, principal: Hashable) -> None:
        self.service_for(principal).reset(principal)

    def submit(self, principal: Hashable, query):
        return self.service_for(principal).submit(principal, query)

    def peek(self, principal: Hashable, query):
        return self.service_for(principal).peek(principal, query)

    def submit_batch(self, items: Iterable[Tuple[Hashable, object]]) -> List:
        return self._batch(items, peek=False)

    def peek_batch(self, items: Iterable[Tuple[Hashable, object]]) -> List:
        return self._batch(items, peek=True)

    def _batch(self, items, peek: bool) -> List:
        from repro.server.batch import decide_batch
        from repro.server.interning import QueryInterner

        items = list(items)
        with self._intern_lock:
            if len(self._interner) > self.ROUTER_SHAPE_CAP:
                self._interner = QueryInterner()
                self._qid_maps.clear()
            interner = self._interner
        intern = interner.intern
        router_qids = [intern(query) for _, query in items]
        by_shard: Dict[int, List[int]] = {}
        for index, (principal, _) in enumerate(items):
            by_shard.setdefault(self.shard_for(principal), []).append(index)
        decisions: List = [None] * len(items)
        for shard, indices in by_shard.items():
            service = self.backends[shard].service
            sub = [items[i] for i in indices]
            sub_qids, plane = self._local_qids(
                interner, shard, [router_qids[i] for i in indices]
            )
            decided = decide_batch(
                service, sub, update=not peek, qids=sub_qids, qids_plane=plane
            )
            for index, decision in zip(indices, decided):
                decisions[index] = decision
        return decisions

    def _local_qids(
        self, interner, shard: int, router_qids: List[int]
    ) -> "Tuple[List[int], object]":
        """Translate router qids into *shard*'s kernel qids.

        The translation table grows by interner *deltas*: a router qid
        the backend has not seen yet ships as its canonical key (read
        straight off the router's interner — the query is never
        re-canonicalized), interned once into the backend's kernel.
        Returns the local qids plus the backend plane they belong to;
        a map built for a rotated-away router interner or backend plane
        is discarded and rebuilt.
        """
        with self._intern_lock:
            kernel = self.backends[shard].service.kernel
            # resolution_plane (not .plane): interning through the
            # router must trigger the backend's shape-cap rotation too.
            plane = kernel.resolution_plane()
            entry = self._qid_maps.get(shard)
            if entry is None or entry[0] is not interner or entry[1] is not plane:
                entry = (interner, plane, [])
                self._qid_maps[shard] = entry
            mapping = entry[2]
            known = len(interner)
            if len(mapping) < known:
                key_of = interner.key_of
                intern_key = plane.queries.intern_key
                mapping.extend(
                    intern_key(key_of(router_qid))
                    for router_qid in range(len(mapping), known)
                )
            return [mapping[router_qid] for router_qid in router_qids], plane

    def __contains__(self, principal: object) -> bool:
        return principal in self.backend_for(principal).service

    def close(self) -> None:
        with self._fanout_lock:
            if self._fanout is not None:
                self._fanout.shutdown(wait=False)
                self._fanout = None
        for backend in self.backends:
            backend.close()


def aggregate_metrics(snapshots: Sequence[Dict]) -> Dict:
    """Fold per-shard ``/metrics`` payloads into one aggregate payload.

    Counters and cache totals sum; latency percentiles are re-derived
    from the merged histogram buckets (exact to bucket resolution, not
    an average of per-shard percentiles); labeled registry sections
    merge series-by-series (:func:`repro.obs.merge_registry_snapshots`);
    the raw per-shard snapshots are preserved under ``"shards"``.
    """
    from repro.obs import merge_registry_snapshots

    def total(*path) -> int:
        out = 0
        for snap in snapshots:
            value: object = snap
            for key in path:
                value = value.get(key, {}) if isinstance(value, dict) else 0
            out += value if isinstance(value, (int, float)) else 0
        return out

    def cache_aggregate(name: str) -> Dict:
        hits = total(name, "hits")
        misses = total(name, "misses")
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": total(name, "evictions"),
            "size": total(name, "size"),
            "maxsize": total(name, "maxsize"),
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    return {
        "shard_count": len(snapshots),
        "uptime_seconds": max(
            (snap.get("uptime_seconds", 0.0) for snap in snapshots), default=0.0
        ),
        "decisions": total("decisions"),
        "accepted": total("accepted"),
        "refused": total("refused"),
        "peeks": total("peeks"),
        "sessions": {
            "active": total("sessions", "active"),
            "passive": total("sessions", "passive"),
            "resident": total("sessions", "resident"),
            "spilled": total("sessions", "spilled"),
            "faults": total("sessions", "faults"),
            "evictions": total("sessions", "evictions"),
            "clean_evictions": total("sessions", "clean_evictions"),
        },
        "label_cache": cache_aggregate("label_cache"),
        "parse_cache": cache_aggregate("parse_cache"),
        # Interner sizes sum across shards: each worker's kernel interns
        # independently, so the total is table entries held, not
        # distinct shapes seen by the deployment.
        "kernel": {
            "queries_interned": total("kernel", "queries_interned"),
            "labels_interned": total("kernel", "labels_interned"),
            "compiled_policies": total("kernel", "compiled_policies"),
        },
        "latency": aggregate_latency(
            [snap.get("latency", {}) for snap in snapshots]
        ),
        "registry": merge_registry_snapshots(
            [snap.get("registry") for snap in snapshots]
        ),
        "shards": list(snapshots),
    }


def merge_snapshot_payloads(payloads: Sequence[Dict]) -> Dict:
    """Fold per-shard snapshot payloads into one restorable payload.

    The merge mirrors why sharding needs no coordination: sessions are
    disjoint across shards (dict union), label-cache entries are
    principal-free (union, later shards win ties), counters sum, and
    latency percentiles re-derive from merged buckets.  Per-shard
    payloads arrive in whatever readable snapshot form the worker wrote
    (the interned v2 tables, in this release); shard-local integer ids
    are meaningless across kernels, so the merge decodes everything to
    canonical keys and packed labels and emits the plain (v1-style)
    sections.  The result carries no ``shard`` stamp — it is
    topology-free by construction.
    """
    from repro.server.persist import (
        encode_cache_entries,
        payload_cache_entries,
        payload_sessions,
    )
    from repro.server.service import _STATE_FORMAT

    sessions: Dict[str, Dict] = {}
    cache: Dict = {}
    totals = {"decisions": 0, "accepted": 0, "refused": 0, "peeks": 0}
    latencies = []
    for payload in payloads:
        sessions.update(payload_sessions(payload))
        for key, label in payload_cache_entries(payload):
            cache[key] = label
        metrics = payload.get("metrics") or {}
        for name in totals:
            value = metrics.get(name, 0)
            totals[name] += value if isinstance(value, int) else 0
        if isinstance(metrics.get("latency"), dict):
            latencies.append(metrics["latency"])
    return {
        "sessions": {"format": _STATE_FORMAT, "sessions": sessions},
        "label_cache": encode_cache_entries(cache.items()),
        "metrics": {**totals, "latency": aggregate_latency(latencies)},
    }


# ----------------------------------------------------------------------
# Multi-process workers
# ----------------------------------------------------------------------
class ShardWorker:
    """A handle on one spawned worker: its process and bound address."""

    __slots__ = ("index", "process", "host", "port")

    def __init__(self, index: int, process, host: str, port: int):
        self.index = index
        self.process = process
        self.host = host
        self.port = port

    def __repr__(self) -> str:
        return f"ShardWorker({self.index} @ {self.host}:{self.port})"


def _shard_worker_main(
    index: int,
    host: str,
    ready_queue,
    service_kwargs: Dict,
    warm_entries: Optional[List[Tuple]],
    restore_sessions: Optional[Dict] = None,
    persist_kwargs: Optional[Dict] = None,
) -> None:
    """Worker entry point: own service, own HTTP server, ephemeral port.

    Top-level so it pickles under the ``spawn`` start method; reports
    ``(index, port)`` on *ready_queue* once the socket is bound.
    *restore_sessions* is this shard's slice of a rebalanced warm
    restart (``export_state`` format); *persist_kwargs* — ``state_dir``,
    ``snapshot_interval``, ``shard_count`` — turns on the worker's own
    background snapshotter writing ``shard-<index>.json``.
    """
    if service_kwargs.get("spill_dir"):
        # Spill logs are single-writer: each worker owns its own
        # subdirectory so two shards never append to one log.
        import os.path

        service_kwargs = dict(
            service_kwargs,
            spill_dir=os.path.join(
                os.fspath(service_kwargs["spill_dir"]), f"shard-{index}"
            ),
        )
    service = DisclosureService(**service_kwargs)
    if warm_entries:
        service.warm_label_cache(warm_entries)
    if restore_sessions:
        service.import_state(restore_sessions)
    snapshotter = None
    if persist_kwargs and persist_kwargs.get("state_dir"):
        from repro.server.persist import (
            Snapshotter,
            save_snapshot,
            shard_snapshot_path,
            snapshot_service,
        )

        path = shard_snapshot_path(persist_kwargs["state_dir"], index)
        shard_count = persist_kwargs.get("shard_count", 1)
        interval = persist_kwargs.get("snapshot_interval")
        snapshotter = Snapshotter(
            lambda: save_snapshot(
                path,
                snapshot_service(
                    service, shard_index=index, shard_count=shard_count
                ),
            ),
            interval=30.0 if interval is None else interval,
        )
        snapshotter.run_once()  # the rebalanced state is durable pre-traffic
        snapshotter.start()
    server = make_server(service, host, 0)
    ready_queue.put((index, server.server_address[1]))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if snapshotter is not None:
            snapshotter.stop()


def start_shard_workers(
    count: int,
    *,
    host: str = "127.0.0.1",
    service_kwargs: Optional[Dict] = None,
    warm_entries: Optional[List[Tuple]] = None,
    restore_sessions_by_shard: Optional[List[Optional[Dict]]] = None,
    persist_kwargs: Optional[Dict] = None,
    start_method: Optional[str] = None,
    ready_timeout: float = 30.0,
) -> List[ShardWorker]:
    """Spawn *count* worker processes, each serving its own shard.

    Every worker builds its own :class:`DisclosureService` from
    *service_kwargs* (which must be picklable — e.g. ``default_policy``
    as plain lists) and, when *warm_entries* is given, imports the
    exported label cache so all shards start equally warm.
    *restore_sessions_by_shard* hands each worker its slice of a warm
    restart (index-aligned, already re-hashed for *count* shards by
    :func:`repro.server.persist.partition_sessions`); *persist_kwargs*
    (``state_dir``, ``snapshot_interval``) makes every worker run a
    background snapshotter over its own ``shard-<i>.json``.  Blocks
    until every worker has bound its port or *ready_timeout* elapses
    (then tears everything down and raises ``TimeoutError``).
    """
    if count < 1:
        raise ValueError("need at least one shard worker")
    if restore_sessions_by_shard is not None and len(
        restore_sessions_by_shard
    ) != count:
        raise ValueError(
            "restore_sessions_by_shard must have exactly one entry per "
            "shard (re-partition with persist.partition_sessions first)"
        )
    worker_persist = dict(persist_kwargs or {})
    if worker_persist:
        worker_persist["shard_count"] = count
    import multiprocessing  # here, not above: see ReplicaPool.__init__

    context = multiprocessing.get_context(start_method)
    queue = context.Queue()
    processes = [
        context.Process(
            target=_shard_worker_main,
            args=(
                index,
                host,
                queue,
                dict(service_kwargs or {}),
                warm_entries,
                restore_sessions_by_shard[index]
                if restore_sessions_by_shard
                else None,
                worker_persist or None,
            ),
            daemon=True,
        )
        for index in range(count)
    ]
    for process in processes:
        process.start()

    def reap() -> None:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=5)

    import queue as queue_module

    ports: Dict[int, int] = {}
    try:
        for _ in range(count):
            index, port = queue.get(timeout=ready_timeout)
            ports[index] = port
    except queue_module.Empty:
        reap()
        raise TimeoutError(
            f"only {len(ports)}/{count} shard workers became ready "
            f"within {ready_timeout}s (see worker stderr for the cause)"
        ) from None
    except BaseException:
        reap()  # startup failed for a non-timeout reason: re-raise it
        raise
    return [
        ShardWorker(index, process, host, ports[index])
        for index, process in enumerate(processes)
    ]


def stop_shard_workers(workers: Iterable[ShardWorker], timeout: float = 5.0) -> None:
    """Terminate workers and reap them (idempotent)."""
    workers = list(workers)
    for worker in workers:
        if worker.process.is_alive():
            worker.process.terminate()
    for worker in workers:
        worker.process.join(timeout=timeout)


def router_for_workers(workers: Sequence[ShardWorker]) -> ShardRouter:
    """A :class:`ShardRouter` over HTTP backends for spawned *workers*."""
    return ShardRouter(
        [HTTPShardBackend(worker.host, worker.port) for worker in workers]
    )


def serve_sharded(
    shard_count: int,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    service_kwargs: Optional[Dict] = None,
    warm_entries: Optional[List[Tuple]] = None,
    state_dir: "Optional[str]" = None,
    snapshot_interval: Optional[float] = None,
):
    """Build the ``serve --shards N`` deployment (not yet serving).

    Returns ``(front_server, router, workers)``: *front_server* is a
    :class:`DecisionHTTPServer` whose handler dispatches into *router*;
    the caller runs ``front_server.serve_forever()`` and must
    :func:`stop_shard_workers` on the way out.

    With *state_dir*, startup warm-loads whatever the directory holds —
    files from any earlier shard count, or from single-process runs —
    re-hashes every principal for *shard_count* shards, removes shard
    files of the dead topology, and hands each worker its slice plus
    the merged label cache; each worker then keeps its own
    ``shard-<i>.json`` fresh every *snapshot_interval* seconds.
    """
    restore_by_shard: Optional[List[Optional[Dict]]] = None
    persist_kwargs: Optional[Dict] = None
    collected = None
    if state_dir is not None:
        from repro.server.persist import (
            collect_state,
            partition_sessions,
            sessions_payload,
        )

        persist_kwargs = {
            "state_dir": str(state_dir),
            "snapshot_interval": snapshot_interval,
        }
        collected = collect_state(state_dir)
        if collected is not None:
            restore_by_shard = [
                sessions_payload(shard_sessions) if shard_sessions else None
                for shard_sessions in partition_sessions(
                    collected.sessions, shard_count
                )
            ]
            # Canonical keys are hashable, so a dict dedups; entries the
            # caller passed explicitly win over recovered ones.
            merged = dict(collected.cache_entries)
            merged.update(warm_entries or [])
            warm_entries = list(merged.items())
    workers = start_shard_workers(
        shard_count,
        host=host,
        service_kwargs=service_kwargs,
        warm_entries=warm_entries,
        restore_sessions_by_shard=restore_by_shard,
        persist_kwargs=persist_kwargs,
    )
    if state_dir is not None and collected is not None:
        from repro.errors import SnapshotError
        from repro.server.persist import (
            clean_stale_shards,
            load_snapshot,
            shard_snapshot_path,
        )

        # Every worker wrote its rebalanced shard-<i>.json (run_once
        # precedes the ready handshake) — verify each file really is
        # the *new* topology's (a failed initial write would leave a
        # stale old-topology file that merely existing can't reveal)
        # before removing the old files, which until now were the only
        # durable copy of the absorbed sessions.
        def _freshly_written(index: int) -> bool:
            try:
                document = load_snapshot(shard_snapshot_path(state_dir, index))
            except SnapshotError:
                return False
            stamp = document["payload"].get("shard") or {}
            return (
                stamp.get("index") == index
                and stamp.get("count") == shard_count
            )

        if all(_freshly_written(index) for index in range(shard_count)):
            clean_stale_shards(state_dir, shard_count)
    router = router_for_workers(workers)
    front_server = make_server(router, host, port)
    return front_server, router, workers
