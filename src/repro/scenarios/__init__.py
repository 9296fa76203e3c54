"""``repro.scenarios`` — the trace-driven app-ecosystem scenario engine.

The Section 7.2 workload generator samples i.i.d. queries; production
traffic does not.  This package compiles *named scenarios* — zipfian
principal skew, mid-stream policy churn, adversarial probe-then-commit
principals, flash-crowd arrivals — into replayable, checksummed trace
files and drives them through any :class:`~repro.client.DecisionClient`
backend with per-scenario SLO verdicts:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` /
  :class:`SLOTarget` and the named-scenario registry
* :mod:`repro.scenarios.generators` — :func:`compile_scenario`:
  ``(spec, seed)`` → a deterministic event stream
* :mod:`repro.scenarios.trace` — the versioned JSONL trace format
  (CRC-32 checksummed; corrupt files raise
  :class:`repro.errors.TraceError`)
* :mod:`repro.scenarios.engine` — :func:`replay_trace` /
  :func:`replay_trace_async` / :func:`replay_trace_with_restart` /
  :func:`run_scenario` and the :class:`ScenarioReport` with SLO
  verdicts and histogram artifacts

CLI: ``python -m repro scenario list|compile|run|verify`` (see
``docs/scenarios.md``).
"""

from repro.scenarios.engine import (
    OpenLoopSchedule,
    ScenarioReport,
    decision_digest,
    replay_trace,
    replay_trace_async,
    replay_trace_with_restart,
    run_scenario,
)
from repro.scenarios.generators import compile_scenario
from repro.scenarios.spec import (
    SCENARIOS,
    ScenarioSpec,
    SLOTarget,
    get_scenario,
    scenario_names,
)
from repro.scenarios.trace import (
    TRACE_FORMAT,
    Trace,
    load_trace,
    loads_trace,
    trace_bytes,
    write_trace,
)

__all__ = [
    "OpenLoopSchedule",
    "SCENARIOS",
    "SLOTarget",
    "ScenarioReport",
    "ScenarioSpec",
    "TRACE_FORMAT",
    "Trace",
    "compile_scenario",
    "decision_digest",
    "get_scenario",
    "load_trace",
    "loads_trace",
    "replay_trace",
    "replay_trace_async",
    "replay_trace_with_restart",
    "run_scenario",
    "scenario_names",
    "trace_bytes",
    "write_trace",
]
