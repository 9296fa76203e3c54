"""Load generation: one process, one thread, one loop, one connection.

A *request* is ``(call, args, decisions)``: what to invoke on the
client, with what, and how many decisions it carries (a batch carries
many, a re-registration none).  Embedded targets call it directly;
the HTTP target awaits it on the one pipelined connection.  Both offer
the same two timed phases:

* **closed loop** — the next request is sent only when a slot's
  previous one completed (1 slot embedded, ``inflight`` slots HTTP).
  Feeds ``decisions_per_s``, ``latency_*`` and ``cpu_us_per_decision``.
* **paced (open loop, HTTP only)** — requests leave on a seeded Poisson
  schedule whether or not earlier ones finished; each is timed from the
  moment it was **due**, so a stall is charged to every request it
  delayed.  Feeds ``paced_*``, ``slo_miss_frac`` and the
  generator-honesty diagnostics.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.client import AsyncHttpClient, ClientError, LocalClient

from . import sut
from .spec import OUT_DIR, REPO_ROOT, SLICE_SECONDS, Workload
from .traffic import PEEK, REGISTER, SUBMIT, Stream

#: ``(call, args, decisions)`` with *call* an index into ``Target.calls``.
Request = Tuple[int, tuple, int]

#: How close to a due time ``asyncio.sleep`` is trusted to wake up.
_TIMER_GRAIN_S = 0.002

_SUBMIT, _PEEK, _REGISTER, _SUBMIT_MANY = range(4)
_CALL_OF = {SUBMIT: _SUBMIT, PEEK: _PEEK, REGISTER: _REGISTER}


class Closed:
    """What a closed-loop window measured, slice by slice."""

    def __init__(self) -> None:
        self.slice_rates: List[float] = []
        #: Per slice, the latency of every timed request.
        self.slice_latencies: List[List[float]] = []
        self.decisions = 0
        self.failed = 0
        self.wall_s = 0.0
        self.sut_cpu_s = 0.0
        self.loadgen_cpu_s = 0.0


class Paced:
    """What a paced window measured."""

    def __init__(self) -> None:
        #: Completion minus due time, per answered request.
        self.latencies: List[float] = []
        #: Send minus due time: how late the generator itself ran.
        self.lateness: List[float] = []
        self.requests = 0
        self.decisions = 0
        self.failed = 0
        #: Requests in flight half way through the window, and requests
        #: still unanswered one latency limit after its end; a backlog
        #: still growing means the rate is over capacity and the
        #: latencies are not a steady state.
        self.backlog_mid = 0
        self.backlog_end = 0
        #: How far behind its schedule the generator sent the last request.
        self.behind_s = 0.0
        self.wall_s = 0.0
        self.loadgen_cpu_s = 0.0

    def slo_miss_frac(self, limit_s: float) -> float:
        """Share of offered requests failed, never answered, or later
        than *limit_s* from their due time."""
        missed = (
            sum(1 for value in self.latencies if value > limit_s)
            + self.failed + self.backlog_end
        )
        return missed / max(1, self.requests + self.backlog_end)

    @property
    def over_capacity(self) -> bool:
        """A backlog already large half way and larger still at the end,
        or a generator that ended the window far behind its schedule.

        One stall (a compaction, a collector pause) leaves a backlog at
        one of the two marks and drains; a rate above capacity leaves
        one at both, growing.
        """
        return (
            self.backlog_end > self.backlog_mid > self.requests // 100
            or self.behind_s > 0.05 * self.wall_s
        )


class Target:
    """Shared request building over a stream; subclasses add transport."""

    def __init__(self, workload: Workload, stream: Stream, views, scratch: Path):
        self.workload = workload
        self.stream = stream
        self.views = views
        self.scratch = scratch
        self.client = None
        #: The client methods a request's *call* indexes; rebound by
        #: every set-up, so the request list itself is built once.
        self.calls: Tuple[Callable, ...] = ()
        #: Position in ``requests`` the next phase starts from.
        self.cursor = 0
        shapes, policies = stream.shapes, stream.policies
        if workload.batch:
            self.requests: List[Request] = [
                (_SUBMIT_MANY, (items,), len(items)) for items in stream.batches()
            ]
        else:
            self.requests = [
                (
                    _CALL_OF[op.kind],
                    (op.principal, policies[op.index] if op.kind == REGISTER
                     else shapes[op.index]),
                    0 if op.kind == REGISTER else 1,
                )
                for op in stream.ops
            ]

    def _bind(self, client) -> None:
        self.client = client
        self.calls = (client.submit, client.peek, client.register, client.submit_many)
        self.cursor = 0

    def register_request(self, principal: str) -> Request:
        """Re-registration of *principal* with its population policy."""
        stream = self.stream
        return (
            _REGISTER,
            (principal, stream.policies[stream.policy_index(principal)]),
            0,
        )

    def take(self, count: int) -> List[Request]:
        """The next *count* requests, cycling through the stream."""
        out: List[Request] = []
        while len(out) < count:
            chunk = self.requests[self.cursor : self.cursor + count - len(out)]
            out.extend(chunk)
            self.cursor = (self.cursor + len(chunk)) % len(self.requests)
        return out


# ----------------------------------------------------------------------
# Embedded: the service runs inside this process
# ----------------------------------------------------------------------
class EmbeddedTarget(Target):
    def __init__(self, workload, stream, views, scratch, state_dir=None):
        super().__init__(workload, stream, views, scratch)
        self.state_dir = state_dir
        self.service = None
        self._spill_dirs = 0

    async def setup(self) -> None:
        # An embedded deployment pays the program's imports at process
        # start; this process paid them once, so each set-up pays them
        # again in a fresh interpreter to keep its repeats alike.
        subprocess.run(
            [sys.executable, "-c", "import repro.client.local, repro.server.persist"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), check=True,
        )
        spill_dir = None
        if self.workload.max_resident:
            self._spill_dirs += 1
            spill_dir = self.scratch / f"spill-{self._spill_dirs}"
        self.service = sut.build_service(
            self.workload, self.stream, self.views,
            spill_dir=spill_dir, state_dir=self.state_dir,
        )
        self._bind(LocalClient(self.service))

    async def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    async def reset(self, principals: Sequence[str]) -> None:
        for principal in principals:
            self.client.reset(principal)

    async def call(self, request: Request):
        call, args, _ = request
        return self.calls[call](*args)

    async def decided(self) -> int:
        return self.service.decisions.value + self.service.peeks.value

    def sut_pids(self) -> List[int]:
        return [os.getpid()]

    async def warm(self, count: int) -> Tuple[int, int]:
        decisions = 0
        calls = self.calls
        for call, args, weight in self.take(count):
            calls[call](*args)
            decisions += weight
        return decisions, 0

    async def closed(self, seconds: float) -> Closed:
        out = Closed()
        requests, calls = self.requests, self.calls
        total = len(requests)
        every = self.workload.latency_sample_every
        untimed = every - 1
        index = self.cursor
        cpu_started = time.process_time()
        window_started = perf_counter()
        for _ in range(round(seconds / SLICE_SECONDS)):
            done = 0
            latencies: List[float] = []
            started = perf_counter()
            deadline = started + SLICE_SECONDS
            while True:
                if index + every > total:
                    index = 0
                for call, args, weight in requests[index : index + untimed]:
                    calls[call](*args)
                    done += weight
                call, args, weight = requests[index + untimed]
                before = perf_counter()
                calls[call](*args)
                after = perf_counter()
                latencies.append(after - before)
                done += weight
                index += every
                if after >= deadline:
                    break
            out.slice_rates.append(done / (after - started))
            out.slice_latencies.append(latencies)
            out.decisions += done
        out.wall_s = perf_counter() - window_started
        out.sut_cpu_s = out.loadgen_cpu_s = time.process_time() - cpu_started
        self.cursor = index % total
        return out


# ----------------------------------------------------------------------
# HTTP: `repro serve --async` in a subprocess, one pipelined connection
# ----------------------------------------------------------------------
class HttpTarget(Target):
    def __init__(self, workload, stream, views, scratch, token: str):
        super().__init__(workload, stream, views, scratch)
        self.token = token
        self.server: Optional[sut.Server] = None

    async def setup(self) -> None:
        # The generator's collector pauses would be charged to the
        # server's latencies; the program under test is another process.
        gc.disable()
        self.server = sut.Server(self.workload, self.token)
        self._bind(AsyncHttpClient(self.server.url, protocol="v2"))
        await self.client.connect()
        for principal in self.stream.principals:
            await self.call(self.register_request(principal))

    async def close(self) -> None:
        try:
            if self.client is not None:
                await self.client.close()
        finally:
            self.client = None
            if self.server is not None:
                self.server.stop()
                self.server = None

    async def reset(self, principals: Sequence[str]) -> None:
        for principal in principals:
            await self.client.reset(principal)

    async def call(self, request: Request):
        call, args, _ = request
        return await self.calls[call](*args)

    async def decided(self) -> int:
        metrics = await self.client.metrics()
        return metrics["decisions"] + metrics["peeks"]

    def sut_pids(self) -> List[int]:
        return self.server.pids()

    async def _slots(self, requests: Sequence[Request], on_done) -> None:
        """Drive *requests* through ``inflight`` closed-loop slots."""
        iterator = iter(requests)
        calls = self.calls

        async def slot() -> None:
            for call, args, weight in iterator:
                started = perf_counter()
                try:
                    await calls[call](*args)
                except ClientError:
                    on_done(started, perf_counter(), weight, False)
                else:
                    on_done(started, perf_counter(), weight, True)

        await asyncio.gather(*(slot() for _ in range(self.workload.inflight)))

    async def warm(self, count: int) -> Tuple[int, int]:
        tally = [0, 0]  # decided, failed

        def on_done(_started, _ended, weight, ok) -> None:
            tally[0 if ok else 1] += weight

        await self._slots(self.take(count), on_done)
        return tally[0], tally[1]

    async def closed(self, seconds: float) -> Closed:
        out = Closed()
        slices = round(seconds / SLICE_SECONDS)
        counts = [0] * slices
        out.slice_latencies = [[] for _ in range(slices)]
        pids = self.sut_pids()
        origin = perf_counter()
        deadline = origin + seconds

        def endless():
            # The window ends by the clock, not by a request count.
            while perf_counter() < deadline:
                yield from self.take(64)

        def on_done(started, ended, weight, ok) -> None:
            if not ok:
                out.failed += weight
                return
            out.decisions += weight
            slot = int((ended - origin) / SLICE_SECONDS)
            if slot < slices:  # the last replies land just past the window
                counts[slot] += weight
                out.slice_latencies[slot].append(ended - started)

        sut_cpu = sut.cpu_seconds(pids)
        own_cpu = time.process_time()
        await self._slots(endless(), on_done)
        out.wall_s = perf_counter() - origin
        out.sut_cpu_s = sut.cpu_seconds(pids) - sut_cpu
        out.loadgen_cpu_s = time.process_time() - own_cpu
        out.slice_rates = [count / SLICE_SECONDS for count in counts]
        return out

    async def paced(self, seconds: float, offsets: Sequence[float]) -> Paced:
        out = Paced()
        requests = self.take(len(offsets))
        latencies, lateness = out.latencies, out.lateness
        loop = asyncio.get_running_loop()
        calls = self.calls
        #: Tasks are held only while their request is in flight.
        pending = set()
        drained = asyncio.Event()
        sent = 0

        async def one(due: float, request: Request) -> None:
            call, args, weight = request
            lateness.append(perf_counter() - due)
            try:
                await calls[call](*args)
            except ClientError:
                out.failed += weight
            else:
                latencies.append(perf_counter() - due)
                out.decisions += weight
            pending.discard(asyncio.current_task())
            if not pending:
                drained.set()

        own_cpu = time.process_time()
        origin = perf_counter()
        half = seconds / 2
        mid_marked = False
        for offset, request in zip(offsets, requests):
            due = origin + offset
            # The loop's timers are millisecond-grained: sleep to within
            # that of the due time, then poll the loop (replies keep
            # arriving) until the clock says go.
            delay = due - perf_counter() - _TIMER_GRAIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            await asyncio.sleep(0)
            while perf_counter() < due:
                await asyncio.sleep(0)
            if not mid_marked and offset >= half:
                mid_marked = True
                out.backlog_mid = len(pending)
            drained.clear()
            pending.add(loop.create_task(one(due, request)))
            sent += 1
            out.behind_s = perf_counter() - due
        # Whatever is still unanswered one latency limit after the
        # window ended is backlog (and has missed the limit).
        limit = self.workload.slo_ms / 1e3
        await asyncio.sleep(max(0.0, origin + seconds + limit - perf_counter()))
        out.backlog_end = len(pending)
        if pending:
            await drained.wait()
        out.requests = sent
        out.wall_s = perf_counter() - origin
        out.loadgen_cpu_s = time.process_time() - own_cpu
        return out


def make_target(workload: Workload, stream: Stream, views, scratch: Path,
                token: str, state_dir: Optional[Path] = None) -> Target:
    if workload.transport == "http":
        return HttpTarget(workload, stream, views, scratch, token)
    return EmbeddedTarget(workload, stream, views, scratch, state_dir)


def fresh_scratch(token: str) -> Path:
    """A private directory under ``out/`` for spill logs and snapshots."""
    scratch = OUT_DIR / f"run-{token}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    return scratch
