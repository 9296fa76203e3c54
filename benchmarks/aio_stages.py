"""Where the asyncio front end's CPU goes on the ``http-single`` stream.

An outside-in harness: nothing under ``src/`` knows about it.  It
replays the perf ledger's ``http-single`` request stream (its
population, its shapes and its seeded order) through
:class:`repro.server.aio._HttpProtocol` over a fake transport, in ticks
of 64 pipelined requests (the workload's in-flight depth), with each
request rendered the way the clients render it.  Two passes:

* an unwrapped pass, whose thread CPU is the front end's transport-free
  cost per request;
* a wrapped pass, where the front end's methods are replaced from
  outside by wrappers that charge thread CPU to one stage each
  (framing, accept, resolve, decide, answer, write, and the drain's
  own remainder).  Nested stages are subtracted, so the column sums to
  the wrapped total; wrapped minus unwrapped is the wrappers' own cost.

It also reports the share of requests each repeated-input memo served
(the parsed-head memo, the gateway's hot generation, the reason JSON
memo), read off the memos themselves from outside.  With
``--scenarios`` it reports those shares for every named scenario
replayed through an in-process ``serve --async`` by the async client.

Every answer is checked against a :class:`repro.client.LocalClient`
replay of the same operations on a twin service (scenarios: the decision
digest against the local replay's).  A mismatch exits 1.  No timing is
checked; the figures are for reading::

    PYTHONPATH=src python benchmarks/aio_stages.py [--seed 1] [--ops 16384]
    PYTHONPATH=src python benchmarks/aio_stages.py --smoke
    PYTHONPATH=src python benchmarks/aio_stages.py --scenarios
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.ledger.spec import WORKLOADS  # noqa: E402
from benchmarks.ledger.sut import build_service  # noqa: E402
from benchmarks.ledger.traffic import PEEK, SUBMIT, Stream  # noqa: E402
from repro.client import LocalClient  # noqa: E402
from repro.client import wire as client_wire  # noqa: E402
from repro.facebook.permissions import facebook_security_views  # noqa: E402
from repro.server import aio, batch, wire2  # noqa: E402

TICK = 64
STAGES = ("framing", "accept", "resolve", "decide", "answer", "write", "drain")
_LENGTH = re.compile(rb"Content-Length: (\d+)")


class _Transport:
    """Collects writes; nothing reaches a socket."""

    def __init__(self) -> None:
        self.writes: List[bytes] = []
        self.closed = False

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        pass

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed


class _CountingDict(dict):
    """A memo dict that counts its ``get`` hits and misses."""

    def __init__(self) -> None:
        super().__init__()
        self.hits = self.misses = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value


class _Shares:
    """Memo hit counters, read off each memo right before it is probed."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.heads = None
        self._undo: List[Callable[[], None]] = []

    def install(self, server) -> None:
        if hasattr(server, "heads"):  # the parsed-head memo (absent in older trees)
            server.heads = self.heads = _CountingDict()
        resolve = wire2.WireGateway.resolve

        def counted_resolve(gateway, gen, *args):
            hot = getattr(gateway, "_hot", None)
            self.counts["gen", hot is not None and hot[0] == gen] += 1
            return resolve(gateway, gen, *args)

        render = aio.render_single
        reasons = getattr(wire2, "_REASON_JSON", None)

        def counted_render(result, compact):
            if compact and reasons is not None and hasattr(result, "reason"):
                self.counts["reason", result.reason in reasons] += 1
            return render(result, compact)

        wire2.WireGateway.resolve = counted_resolve
        aio.render_single = counted_render
        self._undo += [
            lambda: setattr(wire2.WireGateway, "resolve", resolve),
            lambda: setattr(aio, "render_single", render),
        ]

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def report(self) -> str:
        parts = []
        heads = self.heads
        if heads is not None and heads.hits + heads.misses:
            parts.append(_share("head memo", heads.hits, heads.hits + heads.misses))
        for name, label in (("gen", "hot generation"), ("reason", "reason memo")):
            hits = self.counts[name, True]
            total = hits + self.counts[name, False]
            if total:
                parts.append(_share(label, hits, total))
        return ", ".join(parts) or "no memos in this tree"


def _share(label: str, hits: int, total: int) -> str:
    return f"{label} {hits / total:.2%} of {total}"


class _Stages:
    """Exclusive thread CPU per stage, charged by wrappers installed
    from outside over the front end's methods."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = dict.fromkeys(STAGES, 0.0)
        self._stack: List[float] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, owner, name: str, stage: str) -> None:
        inner = getattr(owner, name)
        stack, seconds = self._stack, self.seconds
        clock = time.thread_time

        def timed(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                spent = clock() - started
                nested = stack.pop()
                seconds[stage] += spent - nested
                if stack:
                    stack[-1] += spent

        setattr(owner, name, timed)
        self._undo.append(lambda: setattr(owner, name, inner))

    def install(self) -> None:
        self._wrap(aio._HttpProtocol, "data_received", "framing")
        self._wrap(aio.AsyncDecisionServer, "accept", "accept")
        self._wrap(aio, "resolve_single", "resolve")
        self._wrap(batch, "decide_wire_items", "decide")
        self._wrap(aio.AsyncDecisionServer, "_answer", "answer")
        self._wrap(aio._HttpProtocol, "flush", "write")
        self._wrap(aio.AsyncDecisionServer, "_drain", "drain")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _request_bytes(stream: Stream, ops, host: str = "127.0.0.1:8080") -> List[bytes]:
    """Each op as the async client puts it on the wire (same head, same
    body bytes as ``json.dumps`` of the client's body dict)."""
    state = client_wire.WireState()
    prefix = (
        f"POST /v2/query HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\nContent-Length: "
    ).encode()
    out = []
    for op in ops:
        body = json.dumps(client_wire.single_body(
            state, op.principal, stream.shapes[op.index],
            peek=op.kind == PEEK, compact=True,
        )).encode()
        out.append(b"%b%d\r\n\r\n%b" % (prefix, len(body), body))
    return out


def _responses(data: bytes) -> List[Tuple[int, object]]:
    out, start = [], 0
    while start < len(data):
        head_end = data.index(b"\r\n\r\n", start)
        length = int(_LENGTH.search(data, start, head_end).group(1))
        body = data[head_end + 4 : head_end + 4 + length]
        out.append((int(data[start:head_end].split()[1]), json.loads(body)))
        start = head_end + 4 + length
    return out


def _drive(server, ticks: List[bytes]) -> Tuple[float, bytes]:
    """Feed each tick as one read; ``(thread CPU seconds, written bytes)``."""

    async def main() -> Tuple[float, bytes]:
        protocol = aio._HttpProtocol(server)
        transport = _Transport()
        protocol.connection_made(transport)
        started = time.thread_time()
        for tick in ticks:
            protocol.data_received(tick)
            while protocol._responses:
                await asyncio.sleep(0)
        return time.thread_time() - started, b"".join(transport.writes)

    return asyncio.run(main())


def stream_split(seed: int, ops_count: int) -> int:
    workload = WORKLOADS["http-single"]
    views = facebook_security_views()
    stream = Stream(workload, seed, views.names)
    ops = [op for op in stream.ops if op.kind in (SUBMIT, PEEK)][: 3 * ops_count]
    warm, plain, wrapped = ops[:ops_count], ops[ops_count : 2 * ops_count], ops[2 * ops_count :]
    service = build_service(workload, stream, views)
    twin = LocalClient(build_service(workload, stream, views))
    server = aio.AsyncDecisionServer(service)
    shares = _Shares()
    shares.install(server)
    stages = _Stages()
    failed = 0
    results = {}
    for name, part in (("warm", warm), ("plain", plain), ("wrapped", wrapped)):
        requests = _request_bytes(stream, part)
        ticks = [b"".join(requests[i : i + TICK]) for i in range(0, len(requests), TICK)]
        if name == "wrapped":
            stages.install()
        try:
            cpu, written = _drive(server, ticks)
        finally:
            stages.uninstall()
        results[name] = cpu / len(part) * 1e6
        answers = _responses(written)
        if len(answers) != len(part):
            print(f"MISMATCH {name}: {len(answers)} answers for {len(part)} requests")
            failed += 1
            continue
        for op, (status, payload) in zip(part, answers):
            query = stream.shapes[op.index]
            want = (twin.peek if op.kind == PEEK else twin.submit)(op.principal, query)
            got = client_wire.inflate_single(payload, op.principal) if status == 200 else payload
            if got != want:
                print(f"MISMATCH {name}: {op} answered {status} {got!r}, want {want!r}")
                failed += 1
                break
    shares.uninstall()
    per_request = {stage: stages.seconds[stage] / len(wrapped) * 1e6 for stage in STAGES}
    print(f"http-single seed {seed}: {len(plain)} requests per pass in ticks of {TICK}")
    print(f"  server CPU, unwrapped   {results['plain']:7.2f} us/request")
    print(f"  server CPU, wrapped     {results['wrapped']:7.2f} us/request "
          f"(wrappers +{results['wrapped'] - results['plain']:.2f})")
    for stage in STAGES:
        print(f"    {stage:<10}            {per_request[stage]:7.2f}")
    print(f"  memo shares (all passes): {shares.report()}")
    print("  decisions " + ("MISMATCH" if failed else "match the LocalClient replay"))
    return 1 if failed else 0


def scenario_shares(events: int) -> int:
    from repro.client import AsyncHttpClient
    from repro.scenarios import (
        compile_scenario, get_scenario, replay_trace, replay_trace_async,
    )
    from repro.scenarios.spec import scenario_names

    failed = 0
    for name in scenario_names():
        spec = get_scenario(name)
        if events:
            spec = spec.scaled(min(events, spec.events), None)
        trace = compile_scenario(spec)
        local = replay_trace(trace, LocalClient())
        handle = aio.start_async_background()
        shares = _Shares()
        shares.install(handle.server)

        async def replay(url: str, trace=trace):
            client = AsyncHttpClient(url)
            await client.connect()
            try:
                return await replay_trace_async(trace, client)
            finally:
                await client.close()

        try:
            report = asyncio.run(replay(f"http://{handle.host}:{handle.port}"))
        finally:
            handle.stop()
            shares.uninstall()
        same = report.digest() == local.digest()
        failed += not same
        print(f"{name:<22} {len(trace.events):>6} events: {shares.report()}; "
              f"digest {'matches' if same else 'MISMATCHES'} the local replay")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=16384,
                        help="requests per pass (three passes: warm, plain, wrapped)")
    parser.add_argument("--smoke", action="store_true",
                        help="a short stream and short scenarios (what CI runs)")
    parser.add_argument("--scenarios", action="store_true",
                        help="memo shares of every scenario through async-http")
    parser.add_argument("--events", type=int, default=0,
                        help="cap each scenario's events (0: the spec's own)")
    args = parser.parse_args(argv)
    if args.smoke:
        return stream_split(args.seed, 1024) | scenario_shares(400)
    if args.scenarios:
        return scenario_shares(args.events)
    return stream_split(args.seed, args.ops)


if __name__ == "__main__":
    sys.exit(main())
