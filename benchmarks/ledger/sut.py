"""The system under test: embedded services and ``repro serve`` subprocesses.

Embedded workloads build a :class:`DisclosureService` inside the bench
process.  HTTP workloads launch ``python -m repro serve --async`` with
production defaults as a **subprocess**, so the load generator never
shares the server's interpreter lock; the process group the server
leads (its kernel replicas included) is what CPU and memory are read
from, and what :meth:`Server.stop` reaps.

A killed server cannot wait for its own children, so the bench process
makes itself their reaper (:func:`adopt_orphans`): whatever a server
leaves behind is handed to the bench, which waits for each, and no
process, running or defunct, outlives a run.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.server.persist import SnapshotChain, collect_state, sessions_payload
from repro.server.service import DisclosureService

from .spec import OUT_DIR, REPO_ROOT, TOKEN_ENV, Workload
from .traffic import SUBMIT, Stream

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Decisions applied between the full base and the delta of the
#: snapshot chain ``spill-churn`` restarts from.
CHAIN_DELTA_SUBMITS = 3_000


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.
    return raw[raw.rfind(")") + 2 :].split()


def _pids_where(field: int, value: int, defunct: bool) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or int(fields[field]) != value:
            continue
        if defunct or fields[0] != "Z":
            pids.append(int(entry))
    return pids


def group_pids(pgid: int, defunct: bool = False) -> List[int]:
    """Every process in process group *pgid*.

    A defunct process holds no memory and runs no code, so accounting
    leaves it out; reaping (*defunct* true) must still see it.
    """
    return _pids_where(2, pgid, defunct)


def child_pids() -> List[int]:
    """Every child of this process, defunct ones included."""
    return _pids_where(1, os.getpid(), True)


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU consumed so far by *pids*."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICKS


def peak_rss_mb(pids: List[int]) -> float:
    """``VmHWM`` summed over *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024


# ----------------------------------------------------------------------
# Reaping
# ----------------------------------------------------------------------
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent its orphaned descendants fall to.

    A server's replicas and its multiprocessing resource tracker are
    the server's children; when the server dies they would fall to
    init, out of this process's reach, and stay in the process table
    for as long as init leaves them there.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def reap_children() -> None:
    """Kill and wait for every process this one is still parent of.

    The last step of a run, on every path out of it.  After the
    targets have closed the one child left is multiprocessing's
    resource tracker, when a traced run had a replica pool inside the
    bench process: it ends only after its parent has, so a finished
    run would still leave it running for a moment.  Everything it
    tracked was released when the pool closed.
    """
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# ----------------------------------------------------------------------
# Embedded services
# ----------------------------------------------------------------------
def write_snapshot_chain(stream: Stream, views, state_dir: Path) -> Dict[str, float]:
    """Untimed prep for ``spill-churn``: a full base plus one delta.

    Registers the whole population on an all-RAM service, saves the
    base, applies the stream's first submits, and saves the delta the
    restart will replay.  Returns the save times and file sizes (the
    ``persist.*`` layer metrics of a traced run).
    """
    service = DisclosureService(views)
    for principal in stream.principals:
        service.register(
            principal, stream.policies[stream.policy_index(principal)]
        )
    chain = SnapshotChain(service, state_dir)
    started = time.perf_counter()
    full = chain.save()
    full_s = time.perf_counter() - started
    applied = 0
    for op in stream.ops:
        if op.kind == SUBMIT:
            service.submit(op.principal, stream.shapes[op.index])
            applied += 1
            if applied == CHAIN_DELTA_SUBMITS:
                break
    started = time.perf_counter()
    delta = chain.save()
    delta_s = time.perf_counter() - started
    service.close()
    return {
        "full_save_s": full_s,
        "delta_save_s": delta_s,
        "full_bytes": full.stat().st_size,
        "delta_bytes": delta.stat().st_size,
    }


def build_service(
    workload: Workload,
    stream: Stream,
    views,
    *,
    spill_dir: Optional[Path] = None,
    state_dir: Optional[Path] = None,
    **service_kwargs,
) -> DisclosureService:
    """A service holding the workload's population.

    With *state_dir* the population is restored the way ``repro serve
    --state-dir`` restarts (``collect_state`` replays the chain, then
    ``import_state`` and ``warm_label_cache``); otherwise every
    principal is registered.
    """
    kwargs = dict(label_cache_size=workload.label_cache_size)
    if workload.max_resident:
        kwargs.update(spill_dir=spill_dir, max_active_sessions=workload.max_resident)
    kwargs.update(service_kwargs)
    service = DisclosureService(views, **kwargs)
    if state_dir is not None:
        collected = collect_state(state_dir)
        if collected is None or collected.skipped:
            raise RuntimeError(f"snapshot chain under {state_dir} did not replay")
        service.import_state(sessions_payload(collected.sessions))
        service.warm_label_cache(collected.cache_entries)
    else:
        for principal in stream.principals:
            service.register(
                principal, stream.policies[stream.policy_index(principal)]
            )
    return service


# ----------------------------------------------------------------------
# Subprocess servers
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --async`` subprocess leading its own group."""

    def __init__(self, workload: Workload, token: str, ready_timeout: float = 60.0):
        adopt_orphans()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "repro", "serve", "--async", "--port", "0"]
        if workload.replicas > 1:
            command += ["--replicas", str(workload.replicas)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONHASHSEED"] = "0"  # as for the bench process itself
        env[TOKEN_ENV] = token
        self.log_path = OUT_DIR / f"server-{token}-{time.monotonic_ns()}.log"
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=REPO_ROOT,
                start_new_session=True,
            )
        self.pid = self.process.pid
        try:
            self.url = self._await_url(ready_timeout)
        except BaseException:
            self.stop()
            raise

    def _await_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if " on http://" in line:
                    return line.rsplit(" ", 1)[1].strip()
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"`repro serve` did not come up: {self.log_path.read_text(errors='replace')}"
        )

    def pids(self) -> List[int]:
        return group_pids(self.pid)

    def _reap(self) -> List[int]:
        """Wait for every member that has ended; returns those left."""
        for pid in group_pids(self.pid, defunct=True):
            if pid == self.pid:
                self.process.poll()
            else:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass  # ours to wait for once the server, its parent, is gone
        return group_pids(self.pid, defunct=True)

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate the server's whole group and wait until each
        member is gone from the process table."""
        for signum in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.pid, signum)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + timeout
            while self._reap() and time.monotonic() < deadline:
                time.sleep(0.005)
            if not self._reap():
                break
        self.process.wait()
        self.log_path.unlink(missing_ok=True)
