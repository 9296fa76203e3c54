"""One untraced run of one workload: set-up, verify prefix, two windows.

Order of a run::

    calibration loop
    generate the stream from the seed            (untimed)
    [spill-churn] write the snapshot chain       (untimed prep)
    set-up, SETUP_REPEATS times; keep the last   -> setup_s (median)
    reset touched principals; verify prefix against the oracle; reset
    closed-loop window                           -> decisions_per_s, latency_*, cpu_us_per_decision
    [HTTP] paced window                          -> paced_*, slo_miss_frac
    [spill-churn] one delta save on the live service
    decision-count cross-check, peak RSS, teardown
    calibration loop
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import statistics
import time
from typing import Dict, List, Optional

from repro.client import ClientError
from repro.facebook.permissions import facebook_security_views
from repro.server.persist import SnapshotChain

from . import stats, sut
from .drive import Closed, Paced, Target, fresh_scratch, make_target
from .oracle import Oracle
from .spec import (
    SETUP_REPEATS,
    VERIFY_PREFIX,
    WORKLOADS,
    Workload,
    phase_seconds,
)
from .traffic import Stream, poisson_offsets


async def _restore(target: Target, principals) -> None:
    """Back to the registered policy with a fresh history."""
    churned = target.stream.churned
    await target.reset([p for p in principals if p not in churned])
    for principal in principals:
        if principal in churned:
            await target.call(target.register_request(principal))


async def verify_prefix(
    target: Target, oracle: Oracle, flip: Optional[int] = None
) -> int:
    """Replay the first requests one at a time against the oracle.

    Returns how many decisions were sent; mismatches accumulate on
    *oracle*.  *flip* inverts the verdict of that request before the
    comparison — the self-test that proves the check can fail.
    """
    workload, stream = target.workload, target.stream
    ops = stream.ops[:VERIFY_PREFIX]
    touched = sorted({op.principal for op in ops})
    await _restore(target, touched)
    target.cursor = 0
    position = sent = 0
    size = workload.batch or 1
    while position < len(ops):
        (request,) = target.take(1)
        sent += request[2]
        batch_ops = ops[position : position + size]
        try:
            result = await target.call(request)
        except ClientError as exc:
            result = {"error": str(exc)}
        decisions = result if workload.batch else [result]
        for op, decision in zip(batch_ops, decisions):
            if flip is not None and oracle.checked == flip and isinstance(decision, dict):
                decision = dict(decision, accepted=not decision.get("accepted"))
            oracle.check(op, decision)
        position += size
    # The timed windows start from each principal's registered state.
    await _restore(target, touched)
    target.cursor = 0
    return sent


async def _run(workload: Workload, seed: int, seconds: float, token: str,
               setup_repeats: int, flip: Optional[int]) -> Dict:
    views = facebook_security_views()
    calibration_before = stats.calibration_ns()
    stream = Stream(workload, seed, views.names)
    scratch = fresh_scratch(token)
    state_dir = None
    if workload.max_resident:
        state_dir = scratch / "state"
        sut.write_snapshot_chain(stream, views, state_dir)

    target = make_target(workload, stream, views, scratch, token, state_dir)
    # The generated inputs are the harness's, not the program's: keep
    # them out of every later collection so a full GC pass costs what
    # the program's own heap costs.
    gc.collect()
    gc.freeze()
    attempted = failed = 0
    try:
        setups: List[float] = []
        for repeat in range(setup_repeats):
            if repeat:
                await target.close()
            started = time.perf_counter()
            await target.setup()
            warmed, warm_failed = await target.warm(
                workload.warm_requests // (workload.batch or 1)
            )
            setups.append(time.perf_counter() - started)

        oracle = Oracle(stream, views)
        verified = await verify_prefix(target, oracle, flip)
        attempted += warmed + warm_failed + verified
        failed += warm_failed + len(oracle.mismatches)

        closed_s, paced_s = phase_seconds(workload, seconds)
        closed: Closed = await target.closed(closed_s)
        paced = Paced()
        if paced_s:
            offsets = poisson_offsets(
                random.Random(seed + 2), workload.paced_rate, paced_s
            )
            paced = await target.paced(paced_s, offsets)

        if state_dir is not None:
            # The churned service must still cut a base and a delta.
            chain = SnapshotChain(target.service, scratch / "state-after")
            chain.save()
            chain.save()

        sent = warmed + verified + closed.decisions + paced.decisions
        decided = await target.decided()
        rss_mb = sut.peak_rss_mb(target.sut_pids())
    finally:
        await target.close()
        shutil.rmtree(scratch, ignore_errors=True)
    calibration_after = stats.calibration_ns()

    attempted += closed.decisions + closed.failed + paced.decisions + paced.failed
    attempted += paced.backlog_end
    failed += closed.failed + paced.failed + abs(sent - decided)

    # Per slice first, then the median over slices.
    per_slice = [stats.percentiles_us(values) for values in closed.slice_latencies]
    rate_q1, rate, rate_q3 = stats.quartiles(closed.slice_rates)
    metrics = {
        "decisions_per_s": rate,
        "latency_p50_us": statistics.median(p50 for p50, _ in per_slice),
        "latency_p99_us": statistics.median(p99 for _, p99 in per_slice),
        "cpu_us_per_decision": closed.sut_cpu_s / closed.decisions * 1e6,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
        "failed_frac": failed / attempted,
    }
    bench = {
        "calibration_ns": calibration_before,
        "calibration_shift": calibration_after / calibration_before - 1,
        "loadgen_cpu_frac": (
            (closed.loadgen_cpu_s + paced.loadgen_cpu_s) / (closed.wall_s + paced.wall_s)
        ),
    }
    if paced_s:
        metrics["paced_p50_us"], metrics["paced_p99_us"] = stats.percentiles_us(
            paced.latencies
        )
        metrics["slo_miss_frac"] = paced.slo_miss_frac(workload.slo_ms / 1e3)
        bench["paced_late_p99_us"] = stats.percentiles_us(paced.lateness)[1]
        bench["backlog_mid"] = paced.backlog_mid
        bench["backlog_end"] = paced.backlog_end
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "stream_digest": stream.digest(),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not paced.over_capacity,
        "mismatches": oracle.mismatches[:10],
        "metrics": metrics,
        "decisions_per_s_iqr": rate_q3 - rate_q1,
        "latency_samples": sum(len(values) for values in closed.slice_latencies),
        "paced_samples": len(paced.latencies),
        "paced_over_capacity": paced.over_capacity,
        "setup_samples": setups,
        "bench": bench,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    token: str,
    setup_repeats: int = SETUP_REPEATS,
    flip: Optional[int] = None,
) -> Dict:
    """Run workload *name* once, untraced; returns the detail record."""
    return asyncio.run(
        _run(WORKLOADS[name], seed, seconds, token, setup_repeats, flip)
    )
