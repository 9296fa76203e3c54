"""The decision-level oracle the serving tests share.

One plain :class:`~repro.policy.monitor.ReferenceMonitor` per principal
over :class:`~repro.labeling.cq_labeler.ConjunctiveQueryLabeler` — the
dissect-based labeler, no packed labels, no caches, no shared memos.
The optimized path (the bit-vector labeler on canonical keys, the
kernel's planes and compiled policies) is checked against it decision
by decision.
"""

from __future__ import annotations

import copy
from typing import Dict, Hashable, Optional

from repro.labeling.cq_labeler import ConjunctiveQueryLabeler
from repro.policy.monitor import Decision, ReferenceMonitor
from repro.policy.policy import PartitionPolicy
from repro.server.store import decode_states


def live_bits(flags) -> int:
    """Live-partition flags as the kernel's bit vector."""
    return sum(1 << index for index, flag in enumerate(flags) if flag)


def states_of(service) -> Dict:
    """A service's sessions as ``{principal: SessionState}``: its
    exported table decoded, so equal states compare equal whatever
    order the store holds them in (policy indices follow that order)."""
    return dict(decode_states(service.export_state()))


class ReferenceOracle:
    """Independent reference monitors, one per principal.

    With a *default_policy*, an unknown principal is decided as a fresh
    monitor under it, as the service's anonymous sessions are: a submit
    keeps that monitor, a peek or a read does not.
    """

    def __init__(self, views, default_policy: Optional[PartitionPolicy] = None):
        self.labeler = ConjunctiveQueryLabeler(views)
        self.default_policy = default_policy
        self.monitors: Dict[Hashable, ReferenceMonitor] = {}

    def register(self, principal: Hashable, policy: PartitionPolicy) -> None:
        """A fresh monitor for *principal* (re-registering starts over)."""
        self.monitors[principal] = ReferenceMonitor(self.labeler, policy)

    def unregister(self, principal: Hashable) -> None:
        self.monitors.pop(principal, None)

    def _monitor(self, principal: Hashable) -> ReferenceMonitor:
        """The principal's monitor, or a transient default-policy one."""
        monitor = self.monitors.get(principal)
        if monitor is None:
            if self.default_policy is None:
                raise KeyError(principal)
            monitor = ReferenceMonitor(self.labeler, self.default_policy)
        return monitor

    def submit(self, principal: Hashable, query) -> Decision:
        monitor = self.monitors[principal] = self._monitor(principal)
        return monitor.submit(query)

    def peek(self, principal: Hashable, query) -> Decision:
        """The decision :meth:`submit` would make; no state changes."""
        # submit rebinds the monitor's live flags, never mutates them.
        return copy.copy(self._monitor(principal)).submit(query)

    def would_accept(self, principal: Hashable, query) -> bool:
        return self._monitor(principal).would_accept(query)

    def reset(self, principal: Hashable) -> None:
        self._monitor(principal).reset()

    def live_partitions(self, principal: Hashable):
        return self._monitor(principal).live_partitions

    def live_bits(self, principal: Hashable) -> int:
        return live_bits(self.live_partitions(principal))
