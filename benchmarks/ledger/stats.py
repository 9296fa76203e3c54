"""Small statistics used by every phase: percentiles, spread, calibration."""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List, Sequence, Tuple


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[rank]


def percentiles_us(seconds: Sequence[float]) -> Tuple[float, float]:
    """``(p50, p99)`` in microseconds of durations given in seconds."""
    ordered = sorted(seconds)
    return percentile(ordered, 0.50) * 1e6, percentile(ordered, 0.99) * 1e6


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` the way the driver computes them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def calibration_ns(rounds: int = 5, iterations: int = 200_000) -> float:
    """Nanoseconds per iteration of a fixed pure-Python loop (median).

    Says how fast the box was when the row was measured: a shift
    between the reading before and after a workload, or between two
    ledgers, marks numbers that measured the machine, not the program.
    """
    samples: List[float] = []
    for _ in range(rounds):
        start = perf_counter()
        acc = 0
        for value in range(iterations):
            acc += value * value % 7
        samples.append((perf_counter() - start) / iterations * 1e9)
    return statistics.median(samples)
