"""The fixed part of the ledger: workload shapes and the metric catalogue.

Names, units, directions and regression bounds live in ``BENCHMARK.json``
at the repository root (one source for the driver and the harness);
this module adds what a name cannot say — how each workload's traffic
is shaped and how long each phase runs.  Every value here is a constant
on both sides of any later comparison: ``--seed`` is the only argument
that changes inputs and ``--seconds`` the only one that changes how
long a run measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"

#: Environment variable carrying the run token into every spawned
#: server (a caller may set it), so a test can prove none outlives its run.
TOKEN_ENV = "REPRO_LEDGER_TOKEN"

#: Requests checked one by one against the paper's reference monitor
#: before anything is timed.
VERIFY_PREFIX = 2_000

#: Requests the traced pass peels, level by level.
TRACE_REQUESTS = 20_000

#: Operations generated per stream; the closed loop cycles through them.
STREAM_OPS = 1 << 17

#: Distinct Section 7.2 query shapes per workload.
SHAPES = 256

#: Share of ``--seconds`` an HTTP workload spends in its closed-loop
#: window; the rest is its paced (open-loop) window.  Embedded workloads
#: have no paced window and spend it all closed-loop.
CLOSED_SHARE = 2 / 3

#: Length of one slice of the closed-loop window.  Throughput and
#: latency percentiles are taken per slice and reported as the median
#: over slices, so a burst of interference from the box spoils a slice,
#: not the run.
SLICE_SECONDS = 1.0

#: How often a full run repeats set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One named traffic mix (see ``README.md`` for why each exists)."""

    name: str
    #: ``embedded`` runs the service inside the bench process; ``http``
    #: launches ``python -m repro serve --async`` as a subprocess.
    transport: str
    principals: int
    #: Distinct Figure 6 policies shared by the principals.
    policies: int
    max_subqueries: int
    label_cache_size: int = 1 << 16
    #: Items per request (0: single-decision requests).
    batch: int = 0
    #: Requests in flight on the one connection (HTTP only).
    inflight: int = 1
    #: Kernel replicas behind the front end (HTTP only).
    replicas: int = 1
    #: Zipf exponent of principal popularity (0: uniform).
    zipf: float = 0.0
    #: Share of decisions that are stateless peeks.
    peek_share: float = 0.0
    #: A random principal re-registers every this many operations.
    reregister_every: int = 0
    #: Resident-session cap of the spill tier (0: all-RAM store).
    max_resident: int = 0
    #: Open-loop arrival rate, requests per second (HTTP only).
    paced_rate: float = 0.0
    #: A paced request later than this missed its limit.
    slo_ms: float = 0.0
    #: The closed loop times one request in this many (where a call is
    #: a few microseconds, so the timer stays under 1% of the loop).
    latency_sample_every: int = 1
    #: Requests replayed untimed during set-up (caches, session memos).
    warm_requests: int = 20_000


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "embedded-single", "embedded", principals=100, policies=100,
            max_subqueries=1, latency_sample_every=16,
        ),
        Workload(
            "embedded-batch", "embedded", principals=100, policies=100,
            max_subqueries=1, batch=2_000,
        ),
        Workload(
            "cold-label", "embedded", principals=100, policies=100,
            max_subqueries=2, label_cache_size=0, warm_requests=2_000,
        ),
        Workload(
            "spill-churn", "embedded", principals=20_000, policies=64,
            max_subqueries=1, zipf=1.1, peek_share=0.2, reregister_every=50,
            max_resident=512,
        ),
        Workload(
            "http-single", "http", principals=100, policies=100,
            max_subqueries=1, inflight=64, paced_rate=8_000, slo_ms=10.0,
        ),
        Workload(
            "pooled-batch", "http", principals=100, policies=100,
            max_subqueries=1, batch=64, inflight=4, replicas=2,
            paced_rate=200, slo_ms=50.0,
        ),
    )
}


def load_benchmark() -> Dict:
    """``BENCHMARK.json`` as a dict."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def metric_table(section: str) -> List[Dict]:
    """The ``end_to_end`` or ``per_layer`` rows of ``BENCHMARK.json``."""
    return load_benchmark()[section]


#: Metrics the ledger records and ``compare`` judges but that cannot be
#: end-to-end rows of ``BENCHMARK.json``, whose rows must exist, be
#: non-zero and hold their run-to-run spread inside their bound on all
#: six workloads: the two ratios are 0 on a healthy run, the paced
#: window exists only on the HTTP workloads, and the closed-loop tail
#: spreads past 0.10 from run to run on this box (``results/spread.md``).
#: A traced run reports each of them among its diagnostics.
LEDGER_ONLY: Dict[str, Dict] = {
    "latency_p99_us": {"unit": "us", "better": "lower", "bound": 0.25},
    "paced_p50_us": {"unit": "us", "better": "lower", "bound": 0.10},
    "paced_p99_us": {"unit": "us", "better": "lower", "bound": 0.10},
    "slo_miss_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


def phase_seconds(workload: Workload, seconds: float) -> Tuple[float, float]:
    """``(closed-loop window, paced window)`` for one run of *seconds*."""
    if workload.transport != "http":
        return seconds, 0.0
    closed = seconds * CLOSED_SHARE
    return closed, seconds - closed
