"""The replay engine: drive a trace through any client, gate on SLOs.

:func:`replay_trace` walks a trace's events in order through one
:class:`~repro.client.base.DecisionClient` — any backend: in-process,
HTTP, asyncio HTTP (via :func:`replay_trace_async`), client-side
sharded — and returns a :class:`ScenarioReport`:

* the **decision stream**, every ``decide``/``peek`` outcome as the
  stable wire dict in event order.  Replay is deterministic, so the
  stream's digest (:func:`decision_digest`) is the transport-
  equivalence witness: local == http == async-http == sharded, byte
  for byte (``cached`` flags excepted on cold caches — cache locality
  is not a decision);
* the **latency histogram** (mergeable via
  :func:`repro.obs.instruments.aggregate_latency`), sampled per
  decision — pure service time in fast replay, lateness-corrected from
  the trace's own timestamps in timed replay (:class:`OpenLoopSchedule`);
* the **SLO verdicts** against the scenario's targets (or the floors
  committed in ``benchmarks/BENCH_BASELINE.json`` — the CI gate).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Awaitable, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.client.base import ClientError, DecisionClient
from repro.client.parsing import parse_text
from repro.core.queries import ConjunctiveQuery
from repro.obs.instruments import LatencyHistogram
from repro.scenarios.spec import ScenarioSpec, SLOTarget, get_scenario
from repro.scenarios.trace import Trace
from repro.server.batch import _blocking

__all__ = [
    "OpenLoopSchedule",
    "ScenarioReport",
    "decision_digest",
    "replay_trace",
    "replay_trace_async",
    "replay_trace_with_restart",
    "run_scenario",
]

#: The SLO metrics a verdict row can gate on.
_SLO_METRICS = ("p50_us", "p95_us", "p99_us")


class OpenLoopSchedule:
    """Lateness-corrected open-loop pacing (the coordinated-omission fix).

    :meth:`delay_until` returns ``(scheduled, remaining_delay)`` for
    the offset ``origin + offset``; the caller pauses for the delay (if
    positive) and measures latency from the *scheduled* time, so a loop
    that falls behind surfaces queueing delay in its samples instead of
    silently thinning the offered load.  Timed replay uses a trace's
    event timestamps as the offsets.
    """

    __slots__ = ("origin",)

    def __init__(self, origin: Optional[float] = None):
        self.origin = time.perf_counter() if origin is None else origin

    def delay_until(self, offset: float) -> Tuple[float, float]:
        scheduled = self.origin + offset
        return scheduled, scheduled - time.perf_counter()


def decision_digest(
    decisions: Sequence[Dict], *, include_cached: bool = False
) -> str:
    """SHA-256 over the canonical decision stream.

    ``cached`` flags are stripped by default: whether a label came from
    the shared cache depends on cache locality, not on the decision,
    so cold backends legitimately differ there (warmed ones agree even
    with ``include_cached=True`` — full byte equality).
    """
    if include_cached:
        stream = list(decisions)
    else:
        stream = []
        for entry in decisions:
            entry = dict(entry)
            entry.pop("cached", None)
            stream.append(entry)
    payload = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ScenarioReport:
    """The outcome of one scenario replay (see module docstring)."""

    __slots__ = (
        "scenario",
        "transport",
        "seed",
        "events",
        "decides",
        "peeks",
        "accepted",
        "refused",
        "errors",
        "elapsed",
        "timed",
        "slo",
        "decisions",
        "histogram",
    )

    def __init__(
        self,
        scenario: str,
        transport: str,
        seed: int,
        slo: Optional[SLOTarget],
        timed: bool,
    ):
        self.scenario = scenario
        self.transport = transport
        self.seed = seed
        self.slo = slo
        self.timed = timed
        self.events = 0
        self.decides = 0
        self.peeks = 0
        self.accepted = 0
        self.refused = 0
        self.errors = 0
        self.elapsed = 0.0
        #: The stable wire dicts, in event order (decide and peek only).
        self.decisions: List[Dict] = []
        self.histogram = LatencyHistogram()

    # -- accounting (done by the replay loop) -------------------------
    def _count(self, outcome: Dict) -> None:
        self.decisions.append(outcome)
        if "error" in outcome:
            self.errors += 1
        elif outcome.get("accepted"):
            self.accepted += 1
        else:
            self.refused += 1

    @property
    def qps(self) -> float:
        return (
            (self.decides + self.peeks) / self.elapsed if self.elapsed else 0.0
        )

    def digest(self, *, include_cached: bool = False) -> str:
        return decision_digest(
            self.decisions, include_cached=include_cached
        )

    # -- the SLO gate --------------------------------------------------
    def verdicts(
        self, floors: Optional[Mapping[str, float]] = None
    ) -> List[Tuple[str, float, float, bool]]:
        """``(metric, limit_us, measured_us, ok)`` per gated percentile.

        *floors* overrides the spec's intrinsic targets (the CI gate
        passes the committed ``BENCH_BASELINE.json`` scenario floors).
        """
        if floors is None:
            floors = self.slo.as_dict() if self.slo is not None else {}
        snapshot = self.histogram.snapshot()
        rows = []
        for metric in _SLO_METRICS:
            limit = floors.get(metric)
            if limit is None:
                continue
            measured = float(snapshot.get(metric, 0.0))
            rows.append((metric, float(limit), measured, measured <= limit))
        return rows

    def ok(self, floors: Optional[Mapping[str, float]] = None) -> bool:
        """Every gated percentile under its floor, and no replay errors."""
        return self.errors == 0 and all(
            verdict for _, _, _, verdict in self.verdicts(floors)
        )

    def hist_payload(self) -> Dict:
        """The per-scenario histogram artifact (CI uploads one each)."""
        return {
            "scenario": self.scenario,
            "transport": self.transport,
            "seed": self.seed,
            "timed": self.timed,
            "events": self.events,
            "decides": self.decides,
            "peeks": self.peeks,
            "accepted": self.accepted,
            "refused": self.refused,
            "errors": self.errors,
            "elapsed": self.elapsed,
            "qps": self.qps,
            "slo": self.slo.as_dict() if self.slo is not None else None,
            "verdicts": [
                {
                    "metric": metric,
                    "limit_us": limit,
                    "measured_us": measured,
                    "ok": verdict,
                }
                for metric, limit, measured, verdict in self.verdicts()
            ],
            "digest": self.digest(),
            "latency": self.histogram.snapshot(),
        }

    def render(self, floors: Optional[Mapping[str, float]] = None) -> str:
        mode = "timed replay" if self.timed else "fast replay"
        lines = [
            f"scenario:   {self.scenario} ({mode}, {self.transport}, "
            f"seed {self.seed})",
            f"events:     {self.events} "
            f"({self.decides} decides, {self.peeks} peeks; "
            f"{self.accepted} accepted, {self.refused} refused, "
            f"{self.errors} errors)",
            f"elapsed:    {self.elapsed:.2f} s ({self.qps:,.0f} decisions/sec)",
        ]
        for metric, limit, measured, verdict in self.verdicts(floors):
            status = "ok" if verdict else "FAIL"
            lines.append(
                f"slo {metric.removesuffix('_us'):>5}:  "
                f"{measured:>10.1f} µs <= {limit:>10.1f} µs  [{status}]"
            )
        lines.append(f"digest:     {self.digest()}")
        return "\n".join(lines)


class _QueryMemo:
    """datalog text → parsed query, shared across a replay (the pool
    repeats shapes, so parsing is amortized to the distinct ones)."""

    def __init__(self) -> None:
        self._memo: Dict[str, ConjunctiveQuery] = {}

    def __call__(self, text: str) -> ConjunctiveQuery:
        query = self._memo.get(text)
        if query is None:
            query = self._memo[text] = parse_text(text, "datalog")
        return query


def _report_for(
    trace: Trace, transport: str, slo: Optional[SLOTarget], timed: bool
) -> ScenarioReport:
    """An empty report for *trace*; without *slo*, the spec's SLO if
    the trace names a known scenario."""
    if slo is None:
        try:
            slo = get_scenario(trace.scenario).slo
        except ValueError:
            slo = None
    return ScenarioReport(trace.scenario, transport, trace.seed, slo, timed)


class _NoSuspend:
    """A blocking :class:`DecisionClient`'s calls as coroutines that
    never suspend, so :func:`_replay_events` drives it under
    :func:`~repro.server.batch._blocking` with no event loop."""

    __slots__ = ("client",)

    def __init__(self, client: DecisionClient):
        self.client = client

    async def register(self, principal: Hashable, policy: Any) -> None:
        self.client.register(principal, policy)

    async def reset(self, principal: Hashable) -> None:
        self.client.reset(principal)

    async def submit(self, principal: Hashable, query: ConjunctiveQuery) -> Dict:
        return self.client.submit(principal, query)

    async def peek(self, principal: Hashable, query: ConjunctiveQuery) -> Dict:
        return self.client.peek(principal, query)


async def _sleep_blocking(delay: float) -> None:
    """The timed-replay pause of a sync replay: a plain sleep."""
    time.sleep(delay)  # repro: noqa[ASY01] - runs under _blocking, never on an event loop


async def _replay_events(
    report: ScenarioReport,
    events: Sequence[Dict],
    client: Any,
    parse: _QueryMemo,
    pause: Callable[[float], Awaitable[None]],
    rate_scale: float = 1.0,
) -> None:
    """The one replay loop: *events* in order through *client*, whose
    ``register``/``reset``/``submit``/``peek`` are coroutines.

    A timed report paces each decision to its event's timestamp
    (divided by *rate_scale*) on an :class:`OpenLoopSchedule`, awaiting
    *pause* for the delay, and samples latency from the scheduled time.
    """
    clock = time.perf_counter
    schedule = OpenLoopSchedule()
    for event in events:
        report.events += 1
        op = event["op"]
        principal = event["principal"]
        if op == "register":
            try:
                await client.register(principal, event["policy"])
            except ClientError:
                report.errors += 1
            continue
        if op == "reset":
            try:
                await client.reset(principal)
            except ClientError:
                report.errors += 1
            continue
        query = parse(event["datalog"])
        if report.timed:
            start, delay = schedule.delay_until(event["t"] / rate_scale)
            if delay > 0:
                await pause(delay)
        else:
            start = clock()
        try:
            if op == "peek":
                report.peeks += 1
                outcome = await client.peek(principal, query)
            else:
                report.decides += 1
                outcome = await client.submit(principal, query)
        except ClientError as exc:
            outcome = {"error": str(exc), "code": exc.code}
        report.histogram.record(clock() - start)
        report._count(outcome)


async def _replay(
    trace: Trace,
    client: Any,
    pause: Callable[[float], Awaitable[None]],
    *,
    timed: bool,
    rate_scale: float,
    transport: str,
    slo: Optional[SLOTarget],
) -> ScenarioReport:
    """A whole trace through :func:`_replay_events`, timed end to end."""
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    report = _report_for(trace, transport, slo, timed)
    begin = time.perf_counter()
    await _replay_events(
        report, trace.events, client, _QueryMemo(), pause, rate_scale
    )
    report.elapsed = time.perf_counter() - begin
    return report


def replay_trace(
    trace: Trace,
    client: DecisionClient,
    *,
    timed: bool = False,
    rate_scale: float = 1.0,
    transport: str = "local",
    slo: Optional[SLOTarget] = None,
) -> ScenarioReport:
    """Replay *trace* through *client* in event order.

    Fast replay (the default) issues events back to back and samples
    pure service time — the deterministic mode the equivalence suite
    and the CI gate run.  With ``timed=True``, decisions are paced to
    the trace's own timestamps (divided by *rate_scale*) on an
    :class:`OpenLoopSchedule`, and samples are lateness-corrected
    from the scheduled time, so an engine that cannot keep up shows
    the queueing delay in its percentiles.

    The replay loop is a coroutine; here it runs blocking through
    :func:`~repro.server.batch._blocking`, with no event loop.
    """
    return _blocking(
        _replay(
            trace,
            _NoSuspend(client),
            _sleep_blocking,
            timed=timed,
            rate_scale=rate_scale,
            transport=transport,
            slo=slo,
        )
    )


def replay_trace_with_restart(
    trace: Trace,
    *,
    restart_at: float = 0.5,
    state_dir: "str | None" = None,
    spill_dir: "str | None" = None,
    max_resident_sessions: Optional[int] = None,
    slo: Optional[SLOTarget] = None,
) -> ScenarioReport:
    """Replay *trace* across a snapshot + kill + warm-restart.

    The first ``restart_at`` fraction of the trace runs against a fresh
    in-process service.  The service is then snapshotted (one
    :class:`~repro.server.persist.SnapshotChain` generation under
    *state_dir*) and dropped — close, delete, no surviving in-memory
    state — and a second service is rebuilt purely from the snapshot
    chain (:func:`~repro.server.persist.collect_state` → session import,
    label-cache warmth, metric continuity) before the remaining events
    replay against it.

    The returned report spans the whole trace, so its
    :meth:`~ScenarioReport.digest` is directly comparable to an
    uninterrupted :func:`replay_trace` of the same trace: decisions are
    state-deterministic, so the two digests must match — the restart
    correctness witness the CI gate checks (``cached`` flags are
    excluded by default; cache locality legitimately differs across a
    restart).

    With *spill_dir*, both service lifetimes run the disk-backed
    :class:`~repro.server.store.SpillStore` tier — each under its own
    subdirectory (``before``/``after``), so the restart restores from
    the snapshot chain alone and the equivalence also witnesses that
    spilled cold sessions are captured by the chain.  Unless
    *max_resident_sessions* overrides it, the spill runs cap residency
    at 32 sessions so every named scenario actually evicts and faults
    rather than merely configuring the tier.  Without *state_dir* a
    temporary directory is used and removed afterwards.

    Fast (deterministic) replay only; ``elapsed`` includes the restart
    downtime, but the SLO verdicts gate on per-decision percentiles,
    which do not.
    """
    import os
    import tempfile

    from repro.client.local import LocalClient
    from repro.server.persist import (
        SnapshotChain,
        collect_state,
        sessions_payload,
    )
    from repro.server.service import DisclosureService

    if not 0.0 < restart_at < 1.0:
        raise ValueError("restart_at must be strictly between 0 and 1")
    events = trace.events
    split = max(1, int(len(events) * restart_at)) if events else 0
    report = _report_for(trace, "local+restart", slo, False)
    parse = _QueryMemo()
    clock = time.perf_counter
    if max_resident_sessions is None and spill_dir is not None:
        max_resident_sessions = 32

    def build_service(half: str) -> DisclosureService:
        kwargs: Dict = {}
        if max_resident_sessions is not None:
            kwargs["max_active_sessions"] = max_resident_sessions
        if spill_dir is not None:
            kwargs["spill_dir"] = os.path.join(os.fspath(spill_dir), half)
        return DisclosureService(**kwargs)

    def replay(part: Sequence[Dict], service: DisclosureService) -> None:
        client = _NoSuspend(LocalClient(service))
        _blocking(_replay_events(report, part, client, parse, _sleep_blocking))

    owned_tmp = None
    if state_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-restart-")
        state_dir = owned_tmp.name
    try:
        service = build_service("before")
        begin = clock()
        replay(events[:split], service)
        # The "kill": one snapshot generation, then drop the service.
        SnapshotChain(service, state_dir).save()
        service.close()
        del service
        # The warm restart: rebuilt purely from the snapshot chain.
        service = build_service("after")
        collected = collect_state(state_dir)
        if collected is not None:
            service.import_state(sessions_payload(collected.sessions))
            service.warm_label_cache(collected.cache_entries)
            if collected.metrics:
                service.restore_metrics(collected.metrics)
        replay(events[split:], service)
        report.elapsed = clock() - begin
        service.close()
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()
    return report


async def replay_trace_async(
    trace: Trace,
    client: Any,
    *,
    timed: bool = False,
    rate_scale: float = 1.0,
    transport: str = "async-http",
    slo: Optional[SLOTarget] = None,
) -> ScenarioReport:
    """:func:`replay_trace` for an :class:`~repro.client.AsyncHttpClient`.

    The same replay loop, awaited: events are awaited strictly in
    order — the replay is a single logical stream, so transport
    equivalence compares like with like (the server's tick coalescing
    is free to batch whatever lands in one tick; ordering is preserved
    by the drain).
    """
    import asyncio

    return await _replay(
        trace,
        client,
        asyncio.sleep,
        timed=timed,
        rate_scale=rate_scale,
        transport=transport,
        slo=slo,
    )


def run_scenario(
    spec: "ScenarioSpec | str",
    client: Optional[DecisionClient] = None,
    *,
    seed: Optional[int] = None,
    timed: bool = False,
    rate_scale: float = 1.0,
    transport: str = "local",
) -> ScenarioReport:
    """Compile *spec* (or the named scenario) and replay it.

    Without *client*, a fresh in-process service over the Facebook
    vocabulary is built — the ``--transport local`` shape CI runs.
    """
    from repro.scenarios.generators import compile_scenario

    if isinstance(spec, str):
        spec = get_scenario(spec)
    trace = compile_scenario(spec, seed=seed)
    if client is None:
        from repro.client.local import LocalClient

        client = LocalClient()
    return replay_trace(
        trace,
        client,
        timed=timed,
        rate_scale=rate_scale,
        transport=transport,
        slo=spec.slo,
    )
