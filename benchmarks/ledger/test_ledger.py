"""Self-tests of the perf ledger (run by explicit path, not by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

They drive the real command lines in ``--smoke`` size: names match
``BENCHMARK.json``, the same seed reproduces the request stream and
every count a single client produces, a flipped verdict fails the
oracle, and no ``repro serve`` outlives a run however it ends.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT)]

from benchmarks.ledger import compare, spec, sut  # noqa: E402
from benchmarks.ledger.traffic import Stream  # noqa: E402
from repro.facebook.permissions import facebook_security_views  # noqa: E402

RUN = [sys.executable, str(spec.LEDGER_DIR / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_once(*args: str, token: str = "", **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, **({sut.TOKEN_ENV: token} if token else {}))
    return subprocess.run(
        RUN + list(args), cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=170, **kwargs,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def processes_with(token: str) -> list:
    """Pids whose environment carries *token* (servers and replicas)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if f"{sut.TOKEN_ENV}={token}".encode() in environ:
            found.append(int(entry))
    return found


def defunct_pids() -> set:
    """Ended processes nobody has waited for.  They carry no
    environment, so :func:`processes_with` cannot see them."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = sut._stat_fields(int(entry))
            if fields is not None and fields[0] == "Z":
                found.add(int(entry))
    return found


def test_names_match_benchmark_json():
    bench = spec.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    names = [w["name"] for w in bench["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for row in bench[section]:
            names.append(row["name"])
            assert UNIT.match(row["unit"]), row
            assert row["better"] in ("higher", "lower"), row
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    bounds = {row["name"]: row["bound"] for row in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert not set(bounds) & set(spec.LEDGER_ONLY)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert bench["paths"] == ["benchmarks/ledger"]
    assert bench["command"][1].startswith(bench["paths"][0] + "/")


def test_same_seed_same_stream():
    names = facebook_security_views().names
    for workload in spec.WORKLOADS.values():
        first = Stream(workload, 3, names).digest()
        assert first == Stream(workload, 3, names).digest()
        assert first != Stream(workload, 4, names).digest()


def test_compare_judges_each_cell():
    def cell(q1, median, q3):
        return {"q1": q1, "median": median, "q3": q3}

    steady = cell(99, 100, 101)
    assert compare.judge(steady, cell(99, 100, 101), "higher", 0.1)[0] == "same"
    assert compare.judge(steady, cell(79, 80, 81), "higher", 0.1)[0] == "worse"
    assert compare.judge(steady, cell(79, 80, 81), "lower", 0.1)[0] == "better"
    assert compare.judge(steady, cell(60, 80, 100), "higher", 0.1)[0] == "unresolved"
    # The two ratios tolerate nothing: any rise is worse.
    assert compare.judge(cell(0, 0, 0), cell(0, 0.001, 0), "lower", 0.0)[0] == "worse"
    assert compare.judge(cell(0, 0, 0), cell(0, 0, 0), "lower", 0.0)[0] == "same"


def test_smoke_runs_every_workload():
    started = time.monotonic()
    ledger = spec.OUT_DIR / "smoke-test.json"
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--smoke",
         "--json", str(ledger)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert time.monotonic() - started < 60
    document = json.loads(ledger.read_text())
    ledger.unlink()
    expected = {row["name"] for row in spec.metric_table("end_to_end")}
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    for name, entry in document["workloads"].items():
        # The paced window, and so three of the ledger-only metrics,
        # exists on the HTTP workloads alone.
        extra = (
            set(spec.LEDGER_ONLY) if spec.WORKLOADS[name].transport == "http"
            else {"latency_p99_us", "failed_frac"}
        )
        assert expected | extra == set(entry["metrics"]), name
        assert entry["metrics"]["failed_frac"]["median"] == 0, name
        for metric in expected:
            assert entry["metrics"][metric]["median"] > 0, (name, metric)
    # `compare` of a ledger with itself: nothing worse, exit 0.
    ledger.write_text(json.dumps(document))
    assert compare.compare_main(ledger, ledger) == 0
    ledger.unlink()


@pytest.mark.parametrize("workload", ["embedded-batch", "spill-churn"])
def test_same_seed_same_counts(workload):
    """Counts a single client produces repeat exactly for a fixed seed."""
    runs = [
        run_once("--workload", workload, "--seed", "5", "--seconds", "3", "--trace", "1")
        for _ in range(2)
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    first, second = (result_of(r)["metrics"] for r in runs)
    expected = {row["name"] for row in spec.metric_table("per_layer")}
    assert set(first) == expected
    # Snapshot files carry a wall-clock stamp and latency floats, so
    # their sizes wobble by a few bytes; every other count is exact.
    counts = [
        row["name"] for row in spec.metric_table("per_layer")
        if row["unit"] in ("count", "bytes")
        and not row["name"].startswith(("bench.", "persist."))
    ]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "spill-churn":
        assert first["store.faults"]["value"] > 0
    trace = spec.OUT_DIR / f"trace-{workload}.jsonl"
    span = json.loads(trace.read_text().splitlines()[0])
    assert set(span) == {"name", "start", "end", "parent", "request"}


def test_flipped_verdict_fails_the_oracle():
    completed = run_once(
        "--workload", "embedded-single", "--seed", "1", "--seconds", "3",
        "--trace", "0", "--setup-repeats", "1", "--flip", "7",
    )
    assert completed.returncode == 1
    result = result_of(completed)
    assert result["correct"] is False and result["failed"] == 1
    assert "MISMATCH request 7" in completed.stderr


def test_servers_are_reaped_on_success_and_failure():
    defunct = defunct_pids()
    ok = run_once(
        "--workload", "pooled-batch", "--seed", "1", "--seconds", "3",
        "--trace", "0", "--setup-repeats", "2", token="reap-ok",
    )
    assert ok.returncode == 0, ok.stderr
    assert set(result_of(ok)["metrics"]) == {
        row["name"] for row in spec.metric_table("end_to_end")
    }
    assert processes_with("reap-ok") == []
    bad = run_once(
        "--workload", "http-single", "--seed", "1", "--seconds", "3",
        "--trace", "0", "--setup-repeats", "1", "--flip", "3", token="reap-bad",
    )
    assert bad.returncode == 1
    assert processes_with("reap-bad") == []
    # A traced run has a replica pool, and with it multiprocessing's
    # resource tracker, inside the bench process itself.
    traced = run_once(
        "--workload", "pooled-batch", "--seed", "1", "--seconds", "3",
        "--trace", "1", token="reap-traced",
    )
    assert traced.returncode == 0, traced.stderr
    assert processes_with("reap-traced") == []
    assert defunct_pids() - defunct == set()


def test_servers_are_reaped_on_ctrl_c():
    token = "reap-int"
    defunct = defunct_pids()
    child = subprocess.Popen(
        RUN + ["--workload", "pooled-batch", "--seed", "1", "--seconds", "30",
               "--trace", "0"],
        cwd=ROOT, env=dict(os.environ, **{sut.TOKEN_ENV: token}),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        # Front end, two replicas and the bench process itself.
        while len(processes_with(token)) < 4 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(processes_with(token)) >= 4
        time.sleep(1.0)  # well into a window, not just set-up
        child.send_signal(signal.SIGINT)
        assert child.wait(timeout=30) != 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert processes_with(token) == []
    assert defunct_pids() - defunct == set()


def test_no_program_no_result():
    """In a directory holding only the benchmark, the command fails
    without printing a result."""
    stage = spec.OUT_DIR / "bare-checkout"
    target = stage / "benchmarks" / "ledger"
    target.mkdir(parents=True, exist_ok=True)
    try:
        for path in spec.LEDGER_DIR.glob("*.py"):
            (target / path.name).write_bytes(path.read_bytes())
        (stage / "BENCHMARK.json").write_bytes(
            (ROOT / "BENCHMARK.json").read_bytes()
        )
        completed = subprocess.run(
            [sys.executable, "benchmarks/ledger/run.py", "--workload",
             "embedded-single", "--seed", "1", "--seconds", "3", "--trace", "0"],
            cwd=stage, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode != 0
        assert "{" not in completed.stdout
    finally:
        import shutil

        shutil.rmtree(stage)
