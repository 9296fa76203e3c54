"""Command lines: the contract entry, the suite runner and ``compare``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import secrets
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import spec, stats

#: ``--seconds`` of the suite's ``--smoke`` mode.
SMOKE_SECONDS = 3.0


def _raise_interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt


def _print_metrics(values: Dict[str, float], table: Sequence[Dict]) -> None:
    for row in table:
        name = row["name"]
        if name in values:
            print(f"  {name:<28} {values[name]:>16,.4f} {row['unit']}")


def _result_line(detail: Dict, values: Dict[str, float], table: Sequence[Dict]) -> str:
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
                for row in table
            },
        }
    )


def contract_main(argv: Sequence[str]) -> int:
    """``run.py``: one workload, one run, the result as the last line."""
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, help="also write the full record here")
    parser.add_argument("--setup-repeats", type=int, default=spec.SETUP_REPEATS)
    parser.add_argument(
        "--flip", type=int,
        help="self-test: invert the verdict of this verify-prefix request",
    )
    args = parser.parse_args(argv)
    # A terminated run must still reap the servers it spawned.
    signal.signal(signal.SIGTERM, _raise_interrupt)
    token = os.environ.get(spec.TOKEN_ENV) or secrets.token_hex(6)

    from . import sut

    try:
        if args.trace:
            from . import layers

            detail = layers.run_traced(
                args.workload, args.seed, args.seconds, token=token
            )
            table = spec.metric_table("per_layer")
            values = detail["layers"]
        else:
            from . import runner

            detail = runner.run_workload(
                args.workload, args.seed, args.seconds, token=token,
                setup_repeats=args.setup_repeats, flip=args.flip,
            )
            table = spec.metric_table("end_to_end")
            values = detail["metrics"]
    finally:
        # No process this run started may outlive it, whichever way out.
        sut.reap_children()

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} stream={detail['stream_digest'][:12]}")
    _print_metrics(values, table)
    for line in detail.get("report", ()):
        print(line)
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(detail, indent=1))
    for problem in detail["mismatches"]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(_result_line(detail, values, table))
    return 0 if detail["correct"] else 1


# ----------------------------------------------------------------------
# The suite: every workload, child process per run
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int,
           setup_repeats: int) -> Dict:
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail_path = spec.OUT_DIR / f"detail-{workload}-{trace}-{os.getpid()}.json"
    command = [
        sys.executable, str(spec.LEDGER_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--detail", str(detail_path), "--setup-repeats", str(setup_repeats),
    ]
    completed = subprocess.run(command, cwd=spec.REPO_ROOT, stdout=subprocess.PIPE,
                               text=True)
    sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
    if not detail_path.exists():
        raise SystemExit(f"{workload}: run failed with code {completed.returncode}")
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    detail["exit_code"] = completed.returncode
    return detail


def _summarise(samples: List[float], unit: str) -> Dict:
    q1, median, q3 = stats.quartiles(samples)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": samples}


def suite_main(args: argparse.Namespace) -> int:
    names = args.workload or list(spec.WORKLOADS)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    setup_repeats = 1 if args.smoke else spec.SETUP_REPEATS
    units = {
        row["name"]: row["unit"]
        for section in ("end_to_end", "per_layer")
        for row in spec.metric_table(section)
    }
    units.update((name, row["unit"]) for name, row in spec.LEDGER_ONLY.items())
    ledger: Dict = {
        "ledger": 1,
        "seed": args.seed,
        "seconds": seconds,
        "repeat": args.repeat,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    worst = 0
    for name in names:
        runs = [
            _child(name, args.seed, seconds, 0, setup_repeats)
            for _ in range(args.repeat)
        ]
        traced = [
            _child(name, args.seed, seconds, 1, setup_repeats)
            for _ in range(args.repeat if args.trace else 0)
        ]
        worst = max([worst] + [run["exit_code"] for run in runs + traced])
        entry = {
            "stream_digest": runs[0]["stream_digest"],
            "metrics": {
                metric: _summarise([run["metrics"][metric] for run in runs],
                                   units[metric])
                for metric in runs[0]["metrics"]
            },
            "bench": {
                key: _summarise([run["bench"][key] for run in runs], "")
                for key in runs[0]["bench"]
            },
            "failed": sum(run["failed"] for run in runs + traced),
        }
        if traced:
            entry["layers"] = {
                metric: _summarise([run["layers"][metric] for run in traced],
                                   units[metric])
                for metric in traced[0]["layers"]
            }
            entry["waterfall"] = traced[-1]["waterfall"]
        ledger["workloads"][name] = entry
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(ledger, indent=1))
        print(f"ledger written to {args.json}")
    return worst


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="verb", required=True)
    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append", choices=sorted(spec.WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     default=float(spec.load_benchmark()["run_seconds"]))
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload; the ledger keeps medians and quartiles")
    run.add_argument("--trace", action="store_true",
                     help="add the traced pass: per-layer metrics and the waterfall")
    run.add_argument("--smoke", action="store_true",
                     help=f"{SMOKE_SECONDS:g} s runs, one set-up each, verify prefix kept")
    run.add_argument("--json", type=Path, help="write the ledger here")
    compare = sub.add_parser("compare", help="judge ledger B against ledger A")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.verb == "compare":
        from .compare import compare_main

        return compare_main(args.a, args.b)
    return suite_main(args)
