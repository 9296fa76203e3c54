"""``repro.analysis`` — project-aware static analysis for the repro stack.

ruff and mypy check Python; this package checks *this codebase*: the
invariants that otherwise live only in prose ("bumped under the
kernel's already-held lock", "never a blocked thread in the event
loop", "frame catalogue parity between parent and replica") become
machine-checked rules that fail CI, not review comments.

One AST parse per file feeds every pass; a shared project-wide call
graph (:mod:`repro.analysis.callgraph`) lets lock and async facts
propagate through helpers.  Four rules ship:

* **LCK01** (:mod:`repro.analysis.lck01`) — fields declared
  ``# guarded-by: <lock>`` may only be mutated under ``with <x>.<lock>``
  or in helpers marked ``*_locked`` / ``@requires_lock``, with
  held-ness propagated through the call graph.
* **ASY01** (:mod:`repro.analysis.asy01`) — blocking primitives
  (``time.sleep``, pipe/socket/file I/O, blind ``lock.acquire``)
  reachable from ``async def`` bodies or event-loop callbacks.
* **WIRE01** (:mod:`repro.analysis.wire01`) — wire parity: pool frame
  catalogue and positional-row arity, v2 error taxonomy and status
  reasons, compact-row arity between server render and client inflate,
  client error exports.
* **FMT01** (:mod:`repro.analysis.fmt01`) — versioned format strings
  (``repro.snapshot/N``…) must come from :mod:`repro.core.formats`.

Findings are :class:`repro.analysis.findings.Finding` records; inline
``# repro: noqa[RULE]`` comments waive a line (ASY01 waivers also cut
the call edge on that line), and a committed ``analysis-baseline.json``
holds triaged-but-deferred findings, each with a required reason.
``repro analyze`` is the CLI front end (see docs/static-analysis.md).
"""

from repro.analysis.findings import Baseline, BaselineError, Finding
from repro.analysis.markers import requires_lock

__all__ = ["Baseline", "BaselineError", "Finding", "requires_lock"]
