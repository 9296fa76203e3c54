"""The perf ledger: six fixed workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root names the workloads, the
end-to-end metrics with their regression bounds, and the per-layer
metrics; this package is the harness that measures them.  See
``README.md`` beside this file for what each workload stresses, which
layer metric should move which end-to-end cell, and how to read the
waterfall a traced run prints.

Entry points::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.ledger run [--workload W] [--seed S] [--trace] [--json OUT]
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json

Nothing under ``src/`` knows about the ledger: every layer is measured
from outside, by timing calls into its public functions.
"""
