"""``repro analyze`` — the CLI front end over :mod:`repro.analysis`.

Exit codes: 0 clean, 1 findings (or, under ``--check``, stale baseline
entries), 2 usage/baseline errors.  ``--json`` emits a machine-readable
report; ``--write-baseline`` snapshots the current findings into a
baseline file, every entry stamped with the (required) ``--reason``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.analysis.findings import Baseline, BaselineError

__all__ = ["add_arguments", "run"]

DEFAULT_BASELINE = "analysis-baseline.json"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as JSON",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report everything)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: additionally fail on stale baseline entries",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write current findings to FILE as the new baseline",
    )
    parser.add_argument(
        "--reason", default=None,
        help="reason recorded on every entry --write-baseline creates",
    )


def _load_baseline(args: argparse.Namespace) -> Optional[Baseline]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Baseline.load(Path(args.baseline))
    default = Path(DEFAULT_BASELINE)
    if default.exists():
        return Baseline.load(default)
    return None


def run(args: argparse.Namespace) -> int:
    # Here, not above: every CLI verb imports this module to register
    # the arguments of ``analyze``, and only ``analyze`` needs the rules.
    from repro.analysis.runner import run_analysis

    try:
        baseline = _load_baseline(args)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_analysis([Path(p) for p in args.paths], baseline=baseline)

    if args.write_baseline:
        if not (args.reason or "").strip():
            print(
                "error: --write-baseline requires --reason "
                "(every baselined finding carries one)",
                file=sys.stderr,
            )
            return 2
        snapshot = Baseline.from_findings(result.findings, args.reason.strip())
        snapshot.save(Path(args.write_baseline))
        print(
            f"wrote {len(snapshot.entries)} entries to {args.write_baseline}"
        )
        return 0

    if args.as_json:
        print(
            json.dumps(
                {
                    "files": result.files,
                    "findings": [f.as_dict() for f in result.findings],
                    "baselined": [f.as_dict() for f in result.baselined],
                    "stale_baseline_entries": result.stale_entries,
                },
                indent=2,
            )
        )
    else:
        for finding in result.findings:
            print(finding.render())
        summary = (
            f"{result.files} files, {len(result.findings)} findings"
        )
        if result.baselined:
            summary += f", {len(result.baselined)} baselined"
        if result.stale_entries:
            summary += f", {len(result.stale_entries)} stale baseline entries"
        print(summary)
        for entry in result.stale_entries:
            print(
                f"stale baseline entry: {entry['rule']} {entry['path']}: "
                f"{entry['message']}"
            )

    if result.findings:
        return 1
    if args.check and result.stale_entries:
        return 1
    return 0
