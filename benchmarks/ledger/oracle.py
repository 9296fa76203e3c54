"""The correctness oracle: the paper's reference monitor, one per principal.

Every workload starts by sending its first requests one at a time
through the same client the timed window uses and comparing each
verdict and the surviving live partitions with a plain
:class:`repro.policy.ReferenceMonitor` over the unoptimized
:class:`ConjunctiveQueryLabeler` — no cache, no interning, no memo
shared with the serving stack.  A mismatch is a failed operation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.labeling.cq_labeler import ConjunctiveQueryLabeler
from repro.policy.monitor import ReferenceMonitor
from repro.policy.policy import PartitionPolicy

from .traffic import PEEK, REGISTER, Op, Stream


def _bits(live: Sequence[bool]) -> int:
    out = 0
    for index, flag in enumerate(live):
        if flag:
            out |= 1 << index
    return out


class Oracle:
    """Reference monitors for the principals a stream prefix touches.

    Monitors start from a fresh session, so the caller resets each
    touched principal on the system under test before replaying.
    """

    def __init__(self, stream: Stream, views):
        self.stream = stream
        self.views = views
        self.labeler = ConjunctiveQueryLabeler(views)
        self.monitors: Dict[str, ReferenceMonitor] = {}
        self.mismatches: List[str] = []
        self.checked = 0

    def _monitor(self, principal: str) -> ReferenceMonitor:
        monitor = self.monitors.get(principal)
        if monitor is None:
            monitor = self._fresh(self.stream.policy_index(principal))
            self.monitors[principal] = monitor
        return monitor

    def _fresh(self, policy_index: int) -> ReferenceMonitor:
        policy = PartitionPolicy(self.stream.policies[policy_index], self.views)
        return ReferenceMonitor(self.labeler, policy)

    def apply_register(self, op: Op) -> None:
        self.monitors[op.principal] = self._fresh(op.index)

    def check(self, op: Op, decision: Optional[Dict]) -> bool:
        """Advance the monitor by *op* and compare *decision* with it."""
        self.checked += 1
        if op.kind == REGISTER:
            self.apply_register(op)
            return True
        monitor = self._monitor(op.principal)
        query = self.stream.shapes[op.index]
        before = _bits(monitor.live_partitions)
        if op.kind == PEEK:
            accepted = monitor.would_accept(query)
            after = before
        else:
            accepted = monitor.submit(query).accepted
            after = _bits(monitor.live_partitions)
        problem = None
        if not isinstance(decision, dict) or "accepted" not in decision:
            problem = f"no decision ({decision!r})"
        elif bool(decision["accepted"]) != accepted:
            problem = f"verdict {decision['accepted']} != reference {accepted}"
        elif decision["live_before"] != before or decision["live_after"] != after:
            problem = (
                f"live {decision['live_before']:b}->{decision['live_after']:b}"
                f" != reference {before:b}->{after:b}"
            )
        if problem is not None:
            self.mismatches.append(
                f"request {self.checked - 1} {op.kind} {op.principal} "
                f"shape {op.index}: {problem}"
            )
            return False
        return True
