"""The traced run: peel the stack level by level, from outside.

Each level of a workload's chain replays the same first requests on a
**fresh, identically seeded and identically warmed** service, so state
evolves the same way at every level; the harness records a span around
every call (name, start, end, parent, request id), keeps the spans in
memory, and writes them to ``out/trace-<workload>.jsonl`` at the end.
A layer's self time is its level minus the level inside it, so the
rows of the waterfall sum to the outermost level by construction; the
same outermost level replayed with no spans is the end-to-end figure
the sum is compared with, and the difference between the two is
``bench.tracing_overhead_frac``.

Two chains cover the six workloads:

* **call chain** (``embedded-single``, ``cold-label``, ``spill-churn``)::

      kernel.decide(qid, query=...) -> service.submit -> LocalClient.submit

* **wire chain** (``embedded-batch``, ``http-single``, ``pooled-batch``;
  a request carries 2000, 1 and 64 items)::

      kernel.resolve_queries + decide_group -> batch.decide_wire_items
        -> LocalClient.submit_many                        (embedded-batch)
        -> wire2.handle_* [-> ReplicaPool.decide] -> loopback round trip

Layers a workload's chain does not cross report 0.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import shutil
import statistics
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.client import AsyncHttpClient, LocalClient
from repro.client import wire as client_wire
from repro.core.canonical import canonical_key
from repro.facebook.permissions import facebook_security_views
from repro.facebook.workload import WorkloadGenerator
from repro.server import wire2
from repro.server.aio import start_async_background
from repro.server.batch import decide_wire_items
from repro.server.pool import ReplicaPool, start_pooled_background
from repro.server.service import DisclosureService
from repro.server.store import SessionState, SpillStore

from . import stats, sut
from .drive import fresh_scratch, make_target
from .oracle import Oracle
from .spec import (
    OUT_DIR,
    SHAPES,
    TRACE_REQUESTS,
    VERIFY_PREFIX,
    WORKLOADS,
    Workload,
    metric_table,
    phase_seconds,
)
from .traffic import (
    PEEK,
    POPULATION_SEED,
    REGISTER,
    Op,
    Stream,
    poisson_offsets,
)

#: ``(call, args)`` per request of a pass.
Plan = List[Tuple[Callable, tuple]]
#: Builds the plan that replays a run of ops at one level.
PlanOf = Callable[[Sequence[Op]], Plan]

#: Requests a level that crosses a process or a socket replays (a pipe
#: hop or a round trip costs two orders of magnitude more than a call,
#: so those levels cover a prefix of the trace).
CROSS_PROCESS_REQUESTS = 1_024


class Tracer:
    """Spans held in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[str], int]] = []
        #: Microseconds per decision of each recorded level.
        self.levels: Dict[str, float] = {}

    def record(self, name: str, parent: Optional[str], stamps: Sequence[float],
               decisions: int) -> None:
        """Turn a pass's boundary stamps into one span per request."""
        add = self.spans.append
        for request, (start, end) in enumerate(zip(stamps, stamps[1:])):
            add((name, start, end, parent, request))
        self.levels[name] = (stamps[-1] - stamps[0]) / decisions * 1e6

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def traced_pass(plan: Plan) -> List[float]:
    """Run *plan*, stamping the clock at every call boundary."""
    stamps = [perf_counter()]
    stamp = stamps.append
    for call, args in plan:
        call(*args)
        stamp(perf_counter())
    return stamps


def untraced_pass(plan: Plan) -> float:
    """Run *plan* with no spans; returns the elapsed seconds."""
    started = perf_counter()
    for call, args in plan:
        call(*args)
    return perf_counter() - started


def mean_us(call: Callable, argument_lists: Sequence[tuple]) -> float:
    """Mean microseconds of ``call(*args)`` over *argument_lists*."""
    started = perf_counter()
    for args in argument_lists:
        call(*args)
    return (perf_counter() - started) / max(1, len(argument_lists)) * 1e6


def _decisions_of(result) -> List:
    """The decisions a call returned: one, a batch, or none."""
    if result is None:  # a re-registration
        return []
    if isinstance(result, dict) and "decisions" in result:  # a /v2/batch payload
        return result["decisions"]
    if isinstance(result, list) and result and not isinstance(result[0], (bool, int)):
        return result  # a list of decisions (a compact row starts with an int)
    return [result]


def _verdict(decision) -> Tuple[bool, int, int]:
    """``(accepted, live_before, live_after)`` of a decision in any form."""
    if isinstance(decision, dict):
        return (bool(decision["accepted"]), decision["live_before"],
                decision["live_after"])
    if isinstance(decision, (list, tuple)):  # a compact v2 row
        return bool(decision[0]), decision[2], decision[3]
    return decision.accepted, decision.live_before, decision.live_after


def _vec_values(vec) -> Dict[str, int]:
    return {labels["replica"]: counter.value for labels, counter in vec.series_items()}


class Peel:
    """Shared state of one traced run."""

    def __init__(self, workload: Workload, seed: int, seconds: float, token: str):
        self.workload = workload
        self.seed = seed
        self.token = token
        self.views = facebook_security_views()
        self.stream = Stream(workload, seed, self.views.names)
        self.size = workload.batch or 1
        count = TRACE_REQUESTS if seconds >= 10 else VERIFY_PREFIX // self.size + 1
        #: The first *count* requests, or as many as the stream holds.
        self.ops: List[Op] = self.stream.ops[
            : min(count, len(self.stream.ops) // self.size) * self.size
        ]
        self.decisions = self.decisions_in(self.ops)
        #: The prefix the cross-process levels replay.
        self.far_ops = self.ops[: CROSS_PROCESS_REQUESTS * self.size]
        self.warm_ops = self.ops[: min(len(self.ops), workload.warm_requests)]
        self.principals = sorted({op.principal for op in self.ops})
        self.scratch = fresh_scratch(token)
        self.state_dir: Optional[Path] = None
        self.tracer = Tracer()
        self.layers: Dict[str, float] = {
            row["name"]: 0.0 for row in metric_table("per_layer")
        }
        #: Per level, the verdict of every decision of its warm replay.
        self.verdicts: Dict[str, List] = {}
        #: What the calls of the latest warm replay returned.
        self.warm_results: List = []
        self.build_s: List[float] = []

    @staticmethod
    def decisions_in(ops: Sequence[Op]) -> int:
        return sum(1 for op in ops if op.kind != REGISTER)

    def requests(self, ops: Sequence[Op]) -> List[List[Tuple[str, object]]]:
        """*ops* cut into the ``(principal, query)`` items of each request."""
        return [
            self.stream.items(ops[start : start + self.size])
            for start in range(0, len(ops), self.size)
        ]

    # -- fresh, identically seeded, identically warmed services ---------
    def service(self, **kwargs) -> DisclosureService:
        started = perf_counter()
        service = sut.build_service(
            self.workload, self.stream, self.views,
            spill_dir=self.scratch / f"spill-{len(self.build_s)}",
            state_dir=self.state_dir, **kwargs,
        )
        self.build_s.append(perf_counter() - started)
        for shape in self.stream.shapes:
            service.label_for(shape)
        return service

    def warmed(self, name: str, plan_of: PlanOf, admin) -> Plan:
        """Replay the warm prefix through *plan_of*, put every principal
        back to its registered state, and return the plan of the trace.

        *admin* is whatever resets and re-registers principals at this
        level (the service itself, or the pool in front of it).  The
        warm replay starts from the same registered state at every
        level, so its verdicts are what the levels are checked against
        each other and the oracle with — outside any timed pass.
        """
        self.restore(admin)
        self.warm_results = [call(*args) for call, args in plan_of(self.warm_ops)]
        self.verdicts[name] = [
            _verdict(d) for result in self.warm_results for d in _decisions_of(result)
        ]
        self.restore(admin)
        return plan_of(self.ops)

    def restore(self, admin) -> None:
        """Every traced principal back to its registered policy, fresh."""
        stream = self.stream
        for principal in self.principals:
            if principal in stream.churned:
                admin.register(
                    principal, stream.policies[stream.policy_index(principal)]
                )
            else:
                admin.reset(principal)

    def level(self, name: str, parent: Optional[str], plan: Plan,
              decisions: Optional[int] = None) -> None:
        """Replay *plan* with a span per call; *decisions* says how many
        it carries when it is not the whole trace."""
        self.tracer.record(name, parent, traced_pass(plan), decisions or self.decisions)

    def untraced_us(self, plan: Plan) -> float:
        return untraced_pass(plan) / self.decisions * 1e6

    def untraced_again(self, plan: Plan, service: DisclosureService) -> float:
        """The pass just traced on *service*, replayed from the same
        state with no spans: the end-to-end figure of the waterfall."""
        self.restore(service)
        return self.untraced_us(plan)


# ----------------------------------------------------------------------
# The call chain: one decision per call
# ----------------------------------------------------------------------
CALL_LEVELS = ("client.local", "service.submit", "kernel.decide")


def _call_plan(peel: Peel, service: DisclosureService, level: str) -> PlanOf:
    """How *level* of the call chain replays ops on *service*."""
    kernel, shapes, policies = service.kernel, peel.stream.shapes, peel.stream.policies
    if level == "kernel.decide":
        # With the object passed along, the qid is re-derived from its
        # pin: the plane-atomic form, and the one `submit` itself uses
        # (a bare qid with the label cache off would have the kernel
        # rebuild a query from its key on every call).
        submits = [partial(kernel.decide, 0, query=shape) for shape in shapes]
        peeks = [partial(kernel.decide, 0, update=False, query=s) for s in shapes]
        submit_of = lambda op: (submits[op.index], (op.principal,))  # noqa: E731
        peek_of = lambda op: (peeks[op.index], (op.principal,))  # noqa: E731
    else:
        target = service if level == "service.submit" else LocalClient(service)
        submit_of = lambda op: (target.submit, (op.principal, shapes[op.index]))  # noqa: E731
        peek_of = lambda op: (target.peek, (op.principal, shapes[op.index]))  # noqa: E731

    def plan_of(ops: Sequence[Op]) -> Plan:
        return [
            (service.register, (op.principal, policies[op.index]))
            if op.kind == REGISTER
            else (peek_of if op.kind == PEEK else submit_of)(op)
            for op in ops
        ]

    return plan_of


def call_chain(peel: Peel) -> Tuple[str, float]:
    """Peel the call chain; returns the outermost level's name and its
    untraced microseconds per decision."""
    layers, levels = peel.layers, peel.tracer.levels
    parent = None
    untraced = 0.0
    for name in CALL_LEVELS:
        service = peel.service()
        plan = peel.warmed(name, _call_plan(peel, service, name), service)
        counters = _counters_before(service)
        peel.level(name, parent, plan)
        if parent is None:
            _counters_after(peel, service, counters)
            untraced = peel.untraced_again(plan, service)
            _store_extras(peel, service)
        if name == "service.submit":
            _service_extras(peel, service)
        service.close()
        parent = name

    layers["kernel.decide_us"] = levels["kernel.decide"]
    layers["service.submit_us"] = levels["service.submit"]
    layers["service.self_us"] = levels["service.submit"] - levels["kernel.decide"]
    return CALL_LEVELS[0], untraced


def _counters_before(service: DisclosureService):
    store = service.store
    return service.label_cache.stats(), store.fault_count, store.eviction_count, (
        store.compaction_count if isinstance(store, SpillStore) else 0
    )


def _counters_after(peel: Peel, service: DisclosureService, before) -> None:
    """Cache, interner and store counters across the outermost pass."""
    cache, faults, evictions, compactions = before
    after = service.label_cache.stats()
    lookups = after.lookups - cache.lookups
    layers, store = peel.layers, service.store
    layers["cache.hit_frac"] = (after.hits - cache.hits) / lookups if lookups else 0.0
    layers["cache.evictions"] = after.evictions - cache.evictions
    layers["labeling.labels_computed"] = after.misses - cache.misses
    kernel = service.kernel.stats()
    layers["kernel.queries_interned"] = kernel["queries_interned"]
    layers["kernel.labels_interned"] = kernel["labels_interned"]
    layers["store.faults"] = store.fault_count - faults
    layers["store.evictions"] = store.eviction_count - evictions
    if not isinstance(store, SpillStore):
        return
    layers["store.compactions"] = store.compaction_count - compactions
    layers["store.resident_peak"] = service.metrics_snapshot()["sessions"]["resident"]


def _store_extras(peel: Peel, service: DisclosureService) -> None:
    """``get`` and ``compact`` on the spill store the trace just churned
    (after the untraced replay: compaction rewrites the log under it)."""
    layers, store = peel.layers, service.store
    if not isinstance(store, SpillStore):
        return
    layers["store.get_us"] = mean_us(store.get, [(p,) for p in peel.principals])
    started = perf_counter()
    store.compact()
    layers["store.compact_s"] = perf_counter() - started
    layers["store.log_bytes"] = store.log_bytes()
    layers["store.bytes_per_session"] = store.log_bytes() / max(1, store.cold_count())


def _service_extras(peel: Peel, service: DisclosureService) -> None:
    """``intern``, ``peek`` and ``register`` on the service that just
    replayed the trace."""
    stream, layers = peel.stream, peel.layers
    decisions = [op for op in peel.ops[:VERIFY_PREFIX] if op.kind != REGISTER]
    layers["kernel.intern_us"] = mean_us(
        service.kernel.intern, [(stream.shapes[op.index],) for op in decisions]
    )
    layers["service.peek_us"] = mean_us(
        service.peek, [(op.principal, stream.shapes[op.index]) for op in decisions]
    )
    layers["service.register_us"] = mean_us(
        service.register,
        [(p, stream.policies[stream.policy_index(p)]) for p in peel.principals[:100]],
    )


# ----------------------------------------------------------------------
# The wire chain: a request carries `batch` items (1 for http-single)
# ----------------------------------------------------------------------
def _kernel_plan(peel: Peel, service: DisclosureService, inner: List) -> PlanOf:
    """The batch adapter's two kernel calls, made directly.

    ``resolve_queries`` once per request, then ``decide_group`` once per
    principal under the session lock — what ``server.batch`` does, minus
    its own bookkeeping.  *inner* collects the clock around both calls
    and the group count of every request.
    """
    kernel = service.kernel

    def one(items) -> List:
        t0 = perf_counter()
        plane, lids, flags = kernel.resolve_queries([q for _, q in items])
        t1 = perf_counter()
        groups: Dict[str, List[int]] = {}
        for index, (principal, _) in enumerate(items):
            groups.setdefault(principal, []).append(index)
        out: List = [None] * len(items)
        t2 = perf_counter()
        with service._lock:
            for principal, indices in groups.items():
                kernel.decide_group(
                    plane, service._session(principal), indices, lids, flags,
                    True, out,
                )
        inner.append((t0, t1, t2, perf_counter(), len(groups)))
        return out

    return lambda ops: [(one, (items,)) for items in peel.requests(ops)]


def _entries_plan(peel: Peel, decide: Callable) -> PlanOf:
    """``decide_wire_items`` / ``ReplicaPool.decide`` over wire entries."""
    return lambda ops: [
        (decide, ([(p, q, None) for p, q in items],)) for items in peel.requests(ops)
    ]


def _bodies(peel: Peel, ops: Sequence[Op], state: client_wire.WireState) -> List[Dict]:
    """Client-built ``/v2`` request bodies for *ops*, in send order."""
    if peel.workload.batch:
        return [
            client_wire.batch_body(state, items, peek=False, compact=True)[0]
            for items in peel.requests(ops)
        ]
    return [
        client_wire.single_body(state, p, q, peek=False, compact=True)
        for ((p, q),) in peel.requests(ops)
    ]


def _handle_plan(peel: Peel, service: DisclosureService) -> PlanOf:
    """``wire2.handle_query`` / ``handle_batch`` on client-built bodies.

    One client interner generation spans warm-up and trace, as one
    connection's would; a 409 is answered the way the client answers it.
    """
    state = client_wire.WireState()
    handle = wire2.handle_batch if peel.workload.batch else wire2.handle_query

    def checked(body: Dict):
        status, payload = handle(service, body)
        if status == 409:
            peel.layers["client.resyncs"] += 1
            status, payload = handle(service, client_wire.resync_body(state, body))
        if status != 200:
            raise RuntimeError(f"wire2 answered {status}: {payload}")
        return payload

    return lambda ops: [(checked, (body,)) for body in _bodies(peel, ops, state)]


def _kernel_levels(peel: Peel) -> None:
    """The innermost level of the wire chain, and ``decide_many`` beside it."""
    layers = peel.layers
    service = peel.service()
    inner: List = []
    plan = peel.warmed("kernel", _kernel_plan(peel, service, inner), service)
    del inner[:]  # the warm replay's clocks
    peel.level("kernel", "batch.wire_items", plan)
    for request, (t0, t1, t2, t3, _) in enumerate(inner):
        peel.tracer.spans.append(("kernel.resolve_queries", t0, t1, "kernel", request))
        peel.tracer.spans.append(("kernel.decide_group", t2, t3, "kernel", request))
    layers["kernel.resolve_us"] = sum(s[1] - s[0] for s in inner) / peel.decisions * 1e6
    layers["kernel.decide_group_us"] = (
        sum(s[3] - s[2] for s in inner) / peel.decisions * 1e6
    )
    layers["batch.groups_per_batch"] = statistics.fmean(s[4] for s in inner)
    service.close()

    service = peel.service()
    per_principal: Dict[str, List] = {}
    for op in peel.ops:
        per_principal.setdefault(op.principal, []).append(peel.stream.shapes[op.index])
    arrays = [
        ([service.kernel.intern(q) for q in queries], principal)
        for principal, queries in per_principal.items()
    ]
    layers["kernel.decide_many_us"] = (
        mean_us(service.kernel.decide_many, arrays) * len(arrays) / peel.decisions
    )
    service.close()


def _batch_adapter(peel: Peel, parent: str) -> None:
    """``service.submit_batch``, and the wire form the chain goes through."""
    layers = peel.layers
    service = peel.service()
    plan = peel.warmed(
        "batch.decide_batch",
        lambda ops: [(service.submit_batch, (items,)) for items in peel.requests(ops)],
        service,
    )
    layers["batch.decide_batch_us"] = peel.untraced_us(plan)
    layers["batch.self_us"] = (
        layers["batch.decide_batch_us"]
        - layers["kernel.resolve_us"] - layers["kernel.decide_group_us"]
    )
    service.close()

    service = peel.service()
    decide = partial(decide_wire_items, service, update=True)
    plan = peel.warmed("batch.wire_items", _entries_plan(peel, decide), service)
    peel.level("batch.wire_items", parent, plan)
    service.close()


def wire_chain(peel: Peel) -> Tuple[str, float]:
    """Peel the wire chain; returns the outermost level's name and its
    untraced microseconds per decision."""
    workload, layers, levels = peel.workload, peel.layers, peel.tracer.levels
    _kernel_levels(peel)
    if workload.transport != "http":
        _batch_adapter(peel, "client.local")
        service = peel.service()
        client = LocalClient(service)
        plan = peel.warmed(
            "client.local",
            lambda ops: [(client.submit_many, (items,)) for items in peel.requests(ops)],
            service,
        )
        counters = _counters_before(service)
        peel.level("client.local", None, plan)
        _counters_after(peel, service, counters)
        untraced = peel.untraced_again(plan, service)
        service.close()
        return "client.local", untraced

    pooled = workload.replicas > 1
    _batch_adapter(peel, "pool.decide" if pooled else "wire2.handle")
    # wire2: handle_query / handle_batch on client-built bodies, no socket
    service = peel.service()
    plan = peel.warmed("wire2.handle", _handle_plan(peel, service), service)
    payloads = peel.warm_results
    counters = _counters_before(service)
    peel.level("wire2.handle", "aio.roundtrip", plan)
    _counters_after(peel, service, counters)
    key = "wire2.handle_batch_us" if workload.batch else "wire2.handle_query_us"
    layers[key] = levels["wire2.handle"]
    layers["wire2.self_us"] = levels["wire2.handle"] - levels["batch.wire_items"]
    _render_and_codec(peel, service, payloads)
    service.close()

    if pooled:
        _pool_level(peel)
    return "aio.roundtrip", asyncio.run(_loopback(peel))


def _render_and_codec(peel: Peel, service: DisclosureService, payloads: List) -> None:
    """``wire2.render_*`` and the client codec, on the warm replay's data."""
    workload, layers = peel.workload, peel.layers
    requests = peel.requests(peel.warm_ops)
    decisions = peel.decisions_in(peel.warm_ops)
    decided = decide_wire_items(
        service, [(p, q, None) for p, q in requests[0]], update=False
    )
    if workload.batch:
        indices = list(range(len(decided)))
        layers["wire2.render_us"] = mean_us(
            wire2.render_batch, [(decided, indices, True)] * 64
        ) / len(decided)
    else:
        layers["wire2.render_us"] = mean_us(
            wire2.render_single, [(decided[0], True)] * 4096
        )

    state = client_wire.WireState()
    started = perf_counter()
    encoded = [json.dumps(body).encode() for body in _bodies(peel, peel.warm_ops, state)]
    layers["client.encode_us"] = (perf_counter() - started) / decisions * 1e6
    layers["client.request_bytes"] = statistics.fmean(len(raw) for raw in encoded)

    responses = [json.dumps(payload).encode() for payload in payloads]
    started = perf_counter()
    if workload.batch:
        for raw, items in zip(responses, requests):
            # The principals table batch_body would have sent.
            table = list(dict.fromkeys(principal for principal, _ in items))
            client_wire.inflate_batch(json.loads(raw), table)
    else:
        for raw, ((principal, _),) in zip(responses, requests):
            client_wire.inflate_single(json.loads(raw), principal)
    layers["client.inflate_us"] = (perf_counter() - started) / decisions * 1e6
    layers["client.response_bytes"] = statistics.fmean(len(raw) for raw in responses)


class _PoolAdmin:
    """``reset`` / ``register`` through the pool, so replicas follow."""

    def __init__(self, pool: ReplicaPool):
        self.pool = pool

    def reset(self, principal: str) -> None:
        self.pool.dispatch_inline("POST", "/v1/reset", {"principal": principal})

    def register(self, principal: str, policy: list) -> None:
        self.pool.dispatch_inline(
            "POST", "/v1/register", {"principal": principal, "policy": policy}
        )


def _pool_level(peel: Peel) -> None:
    """``ReplicaPool.decide`` called directly: the pipe hop, no HTTP."""
    layers = peel.layers
    service = peel.service()
    started = perf_counter()
    pool = ReplicaPool(service, peel.workload.replicas).start()
    layers["pool.spawn_s"] = perf_counter() - started
    try:
        plan = peel.warmed(
            "pool.decide",
            _entries_plan(peel, partial(pool.decide, update=True)),
            _PoolAdmin(pool),
        )
        batches, items = _vec_values(pool.batches), _vec_values(pool.items)
        peel.level("pool.decide", "aio.roundtrip", plan[:CROSS_PROCESS_REQUESTS],
                   peel.decisions_in(peel.far_ops))
        sent = {r: n - batches.get(r, 0) for r, n in _vec_values(pool.batches).items()}
        shipped = {r: n - items.get(r, 0) for r, n in _vec_values(pool.items).items()}
        layers["pool.batches"] = sum(sent.values())
        layers["pool.items_per_frame"] = sum(shipped.values()) / sum(sent.values())
        layers["pool.replica_skew"] = (
            max(shipped.values()) / statistics.fmean(shipped.values())
        )
        layers["pool.dispatch_p50_us"] = pool.dispatch_seconds.percentile(0.5) * 1e6
        layers["pool.respawns"] = sum(_vec_values(pool.respawns).values())
    finally:
        pool.close()
        service.close()
    layers["pool.decide_us"] = peel.tracer.levels["pool.decide"]
    layers["pool.hop_us"] = layers["pool.decide_us"] - peel.tracer.levels["batch.wire_items"]


async def _loopback(peel: Peel) -> float:
    """One request in flight against an in-process front end.

    The front end runs on its own thread of this process; with a single
    request in flight client and server never compete for the
    interpreter, so the round trip is the serial chain of one request.
    Returns the untraced microseconds per decision.
    """
    workload, layers, stream = peel.workload, peel.layers, peel.stream
    ops = peel.far_ops
    decisions = peel.decisions_in(ops)

    def start():
        if workload.replicas > 1:
            return start_pooled_background(workload.replicas)
        return start_async_background(DisclosureService(peel.views))

    async def send_all(client: AsyncHttpClient, some_ops: Sequence[Op],
                       inflight: int, stamps: Optional[List[float]] = None,
                       results: Optional[List] = None) -> None:
        send = client.submit_many if workload.batch else client.submit
        requests = iter(peel.requests(some_ops))

        async def slot() -> None:
            for items in requests:
                result = await (send(items) if workload.batch else send(*items[0]))
                if stamps is not None:
                    stamps.append(perf_counter())
                if results is not None:
                    results.append(result)

        await asyncio.gather(*(slot() for _ in range(inflight)))

    async def prepared(handle) -> AsyncHttpClient:
        client = AsyncHttpClient(f"http://{handle.host}:{handle.port}")
        await client.connect()
        for principal in stream.principals:
            await client.register(
                principal, stream.policies[stream.policy_index(principal)]
            )
        # One at a time over the prefix the oracle checks, so the
        # replies come back in request order; the rest pipelined.
        checked = peel.warm_ops[: VERIFY_PREFIX // peel.size * peel.size]
        results: List = []
        await send_all(client, checked, 1, results=results)
        peel.verdicts["aio.roundtrip"] = [
            _verdict(d) for result in results for d in _decisions_of(result)
        ]
        await send_all(client, peel.warm_ops[len(checked):], workload.inflight)
        for principal in peel.principals:
            await client.reset(principal)
        return client

    handle = start()
    try:
        client = await prepared(handle)
        stamps = [perf_counter()]
        await send_all(client, ops, 1, stamps)
        peel.tracer.record("aio.roundtrip", None, stamps, decisions)
        for principal in peel.principals:
            await client.reset(principal)
        started = perf_counter()
        await send_all(client, ops, 1)
        untraced = (perf_counter() - started) / decisions * 1e6

        # The drain's coalescing under the workload's own concurrency.
        server = handle.server
        ticks, drained = server.ticks, server.drained
        await send_all(client, ops, workload.inflight)
        layers["aio.ticks"] = server.ticks - ticks
        layers["aio.requests_per_tick"] = (
            (server.drained - drained) / max(1, server.ticks - ticks)
        )
        await client.close()
    finally:
        handle.stop()

    levels = peel.tracer.levels
    inside = levels["pool.decide"] if workload.replicas > 1 else levels["batch.wire_items"]
    layers["aio.roundtrip_us"] = levels["aio.roundtrip"]
    layers["aio.self_us"] = (
        levels["aio.roundtrip"] - layers["client.encode_us"]
        - layers["client.inflate_us"] - layers["wire2.self_us"] - inside
    )
    return untraced


# ----------------------------------------------------------------------
# Microbenchmarks beside the chains
# ----------------------------------------------------------------------
def labeling_layer(peel: Peel) -> None:
    """``canonical_key`` on fresh query objects; the labeler per shape."""
    workload, layers = peel.workload, peel.layers
    fresh = list(
        WorkloadGenerator(
            max_subqueries=workload.max_subqueries, seed=POPULATION_SEED
        ).stream(SHAPES)
    )
    layers["labeling.canonical_us"] = mean_us(canonical_key, [(q,) for q in fresh])
    service = peel.service()
    layers["labeling.label_us"] = mean_us(
        service.labeler.label_query, [(q,) for q in peel.stream.shapes] * 4
    )
    service.close()


def store_layer(peel: Peel) -> None:
    """``SpillStore`` appends and faults on a scratch store of 4096 sessions."""
    store = SpillStore(peel.scratch / "store-bench", max_resident=16)
    partitions = tuple(tuple(sorted(peel.views.names)[:3]) for _ in range(2))
    names = [f"p-{index}" for index in range(4096)]
    state = SessionState(partitions, 0b11, False, 1)
    try:
        peel.layers["store.put_state_us"] = mean_us(
            store.put_state, [(n, state) for n in names]
        )
        peel.layers["store.fault_us"] = mean_us(store.fault, [(n,) for n in names])
    finally:
        store.close()


def obs_overhead(peel: Peel) -> None:
    """Stage sampling at the production rate against none, interleaved."""
    rates: Dict[int, List[float]] = {64: [], 0: []}
    plans = {}
    for sample_rate in rates:
        service = peel.service(stage_sample_rate=sample_rate)
        plans[sample_rate] = peel.warmed(
            f"obs-{sample_rate}", _call_plan(peel, service, "service.submit"), service
        )
    for _ in range(7):
        for sample_rate, plan in plans.items():
            rates[sample_rate].append(len(plan) / untraced_pass(plan))
    peel.layers["obs.overhead_frac"] = 1 - (
        statistics.median(rates[64]) / statistics.median(rates[0])
    )


async def paced_diagnostics(peel: Peel, seconds: float) -> Tuple[int, int]:
    """A paced window on an HTTP workload's own target: open-loop
    latency and the generator-honesty numbers beside it."""
    workload, layers = peel.workload, peel.layers
    target = make_target(
        workload, peel.stream, peel.views, peel.scratch, peel.token, peel.state_dir
    )
    try:
        await target.setup()
        await target.warm(workload.warm_requests // peel.size)
        offsets = poisson_offsets(
            random.Random(peel.seed + 2), workload.paced_rate, seconds
        )
        paced = await target.paced(seconds, offsets)
    finally:
        await target.close()
    layers["bench.paced_p50_us"], layers["bench.paced_p99_us"] = stats.percentiles_us(
        paced.latencies
    )
    layers["bench.slo_miss_frac"] = paced.slo_miss_frac(workload.slo_ms / 1e3)
    layers["bench.failed_frac"] = paced.failed / max(1, paced.decisions + paced.failed)
    layers["bench.paced_late_p99_us"] = stats.percentiles_us(paced.lateness)[1]
    layers["bench.backlog_end"] = paced.backlog_end
    layers["bench.loadgen_cpu_frac"] = paced.loadgen_cpu_s / paced.wall_s
    return paced.decisions + paced.failed, paced.failed


# ----------------------------------------------------------------------
def _waterfall(peel: Peel, outermost: str) -> List[Dict]:
    """Self time per layer: each level minus the level inside it."""
    levels, layers = peel.tracer.levels, peel.layers
    if "kernel.decide" in levels:
        # What the labeler cost inside the kernel's level: its time per
        # shape times the labels the traced pass computed.
        labeling = (
            layers["labeling.label_us"] * layers["labeling.labels_computed"]
            / peel.decisions
        )
        rows = [
            ("labeling", labeling),
            ("kernel.decide", levels["kernel.decide"] - labeling),
            ("service", layers["service.self_us"]),
            ("client.local", levels["client.local"] - levels["service.submit"]),
        ]
    else:
        rows = [
            ("kernel", levels["kernel"]),
            ("batch", levels["batch.wire_items"] - levels["kernel"]),
        ]
        if outermost == "client.local":
            rows.append(
                ("client.local", levels["client.local"] - levels["batch.wire_items"])
            )
        else:
            if "pool.decide" in levels:
                rows.append(("pool.hop", layers["pool.hop_us"]))
            rows += [
                ("wire2", layers["wire2.self_us"]),
                ("client.codec", layers["client.encode_us"] + layers["client.inflate_us"]),
                ("aio", layers["aio.self_us"]),
            ]
    return [{"layer": layer, "self_us": value} for layer, value in rows]


def _check(peel: Peel) -> List[str]:
    """Every level replayed the same requests from the same state: the
    verdict streams must be one stream, and its prefix the oracle's."""
    oracle = Oracle(peel.stream, peel.views)
    reference = max(peel.verdicts.values(), key=len)
    decisions = iter(reference)
    for op in peel.ops[:VERIFY_PREFIX]:
        if op.kind == REGISTER:
            oracle.check(op, None)
            continue
        accepted, before, after = next(decisions)
        oracle.check(op, {"accepted": accepted, "live_before": before,
                          "live_after": after})
    problems = list(oracle.mismatches)
    for level, verdicts in peel.verdicts.items():
        if verdicts != reference[: len(verdicts)]:
            problems.append(f"level {level} decided differently from the others")
    return problems


def run_traced(name: str, seed: int, seconds: float, *, token: str) -> Dict:
    workload = WORKLOADS[name]
    peel = Peel(workload, seed, seconds, token)
    layers = peel.layers
    layers["bench.calibration_ns"] = stats.calibration_ns()
    # As in an untraced run: the generated inputs stay out of the
    # collector's way.
    gc.collect()
    gc.freeze()
    try:
        if workload.max_resident:
            peel.state_dir = peel.scratch / "state"
            saved = sut.write_snapshot_chain(peel.stream, peel.views, peel.state_dir)
            for key, value in saved.items():
                layers[f"persist.{key}"] = value
        if workload.batch or workload.transport == "http":
            outermost, untraced_us = wire_chain(peel)
        else:
            outermost, untraced_us = call_chain(peel)
        labeling_layer(peel)
        if workload.max_resident:
            store_layer(peel)
            layers["persist.restore_s"] = statistics.median(peel.build_s)
            layers["persist.restored_sessions"] = workload.principals
        if name == "embedded-single":
            obs_overhead(peel)
        attempted = failed = 0
        paced_s = phase_seconds(workload, seconds)[1]
        if paced_s:
            attempted, failed = asyncio.run(paced_diagnostics(peel, paced_s))
    finally:
        shutil.rmtree(peel.scratch, ignore_errors=True)

    mismatches = _check(peel)
    attempted += sum(len(verdicts) for verdicts in peel.verdicts.values())
    failed += len(mismatches)

    layers["bench.tracing_overhead_frac"] = peel.tracer.levels[outermost] / untraced_us - 1
    waterfall = _waterfall(peel, outermost)
    layers["waterfall.sum_us"] = sum(row["self_us"] for row in waterfall)
    layers["waterfall.end_to_end_us"] = untraced_us
    # The tail of the same level, from its spans: one request at a time,
    # so a closed-loop latency.
    layers["waterfall.end_to_end_p99_us"] = stats.percentiles_us(
        [end - start for level, start, end, _, _ in peel.tracer.spans
         if level == outermost]
    )[1]
    peel.tracer.write(OUT_DIR / f"trace-{name}.jsonl")

    report = [f"  waterfall ({outermost}, us per decision):"]
    report += [f"    {row['layer']:<22} {row['self_us']:>12.3f}" for row in waterfall]
    report.append(
        f"    {'sum':<22} {layers['waterfall.sum_us']:>12.3f}   end to end "
        f"{untraced_us:.3f} (tracing overhead "
        f"{layers['bench.tracing_overhead_frac']:+.1%}, "
        f"{len(peel.tracer.spans)} spans in out/trace-{name}.jsonl)"
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "stream_digest": peel.stream.digest(),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "mismatches": mismatches[:10],
        "layers": layers,
        "waterfall": waterfall,
        "report": report,
    }
