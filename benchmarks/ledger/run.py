"""The benchmark command of ``BENCHMARK.json``: one workload, one run.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then one JSON object as the
last line of standard output.  Exits non-zero without a result when the
program under test is missing or an output is wrong.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process; dict layouts, and
        # with them per-decision costs, would differ from run to run.
        os.execve(
            sys.executable, [sys.executable] + sys.argv,
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/ledger: no program to measure under {root / 'src'}")
    # The script's own directory must not shadow the package layout.
    sys.path[0:1] = [str(root / "src"), str(root)]
    from benchmarks.ledger import cli

    sys.exit(cli.contract_main(sys.argv[1:]))
