"""``compare A.json B.json``: judge ledger B against ledger A, cell by cell.

One row per metric and workload: both medians, the ratio **and its
base**, the fixed bound, and a verdict:

* ``unresolved`` — the run-to-run spread of either side (interquartile
  distance over median) exceeds the bound, so the cell cannot say
  ``same``;
* ``worse`` / ``better`` — B's median moved past the bound;
* ``same`` — it did not.

``failed_frac`` and ``slo_miss_frac`` have no tolerance: any rise is
``worse``.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

from . import spec


def _spread(cell: Dict) -> float:
    return (cell["q3"] - cell["q1"]) / cell["median"] if cell["median"] else 0.0


def judge(a: Dict, b: Dict, better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, ratio)`` for one metric cell of two ledgers."""
    base, value = a["median"], b["median"]
    ratio = value / base if base else (1.0 if not value else float("inf"))
    if bound == 0.0:
        return ("worse" if value > base else "same"), ratio
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved", ratio
    gain = ratio - 1 if better == "higher" else 1 - ratio
    if gain < -bound:
        return "worse", ratio
    return ("better" if gain > bound else "same"), ratio


def compare_main(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    rows = {row["name"]: row for row in spec.metric_table("end_to_end")}
    rows.update(spec.LEDGER_ONLY)
    print(
        f"A = {path_a} ({a['repeat']} run(s) of {a['seconds']:g} s)\n"
        f"B = {path_b} ({b['repeat']} run(s) of {b['seconds']:g} s)"
    )
    print(f"{'workload':<16} {'metric':<20} {'A median':>14} {'B median':>14} "
          f"{'B/A (base A)':>13} {'bound':>6}  verdict")
    worse = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, cell_a in entry_a["metrics"].items():
            cell_b = entry_b["metrics"].get(metric)
            if cell_b is None or metric not in rows:
                continue
            row = rows[metric]
            verdict, ratio = judge(cell_a, cell_b, row["better"], row["bound"])
            worse += verdict == "worse"
            print(
                f"{workload:<16} {metric:<20} {cell_a['median']:>14,.4f} "
                f"{cell_b['median']:>14,.4f} {ratio:>12.3f}x {row['bound']:>6.2f}  "
                f"{verdict}"
            )
    print(f"{worse} cell(s) worse")
    return 1 if worse else 0
