"""Command-line interface: label queries, audit docs, inspect lattices.

Usage::

    python -m repro label "SELECT time FROM Meetings" [--views FILE]
    python -m repro label-fql "SELECT birthday FROM user WHERE uid = me()"
    python -m repro audit
    python -m repro lattice
    python -m repro evaluate          # alias of python -m repro.harness
    python -m repro serve [--host H] [--port P] [--replicas N]
                          [--state-dir DIR] [--snapshot-interval S]
                          [--spill-dir DIR] [--max-resident-sessions N]
                          [--stage-sample-rate N]
    python -m repro metrics [--url URL] [--watch S] [--prometheus]
    python -m repro snapshot save|load|inspect|compact [FILE] [--state-dir DIR]
                                                       [--url URL]
    python -m repro scenario list
    python -m repro scenario compile NAME --out FILE [--seed N] [--events N]
    python -m repro scenario run [NAME | --all] [--transport local|http|async-http]
                                 [--url URL] [--replicas N] [--trace FILE] [--timed]
                                 [--restart-at FRACTION] [--spill-dir DIR]
                                 [--hist-dir DIR] [--check BASELINE.json]
    python -m repro scenario verify FILE [--spec NAME]

``label`` parses the query against the Figure 1 calendar schema (or a
custom datalog view file with its implied schema) and prints the
labeling report; ``label-fql`` does the same for FQL over the Facebook
schema; ``audit`` prints Table 2; ``lattice`` prints the Figure 3
disclosure lattice and its DOT rendering; ``serve`` starts the JSON
decision service over the Facebook vocabulary, served from an asyncio
event loop whose per-tick drain coalesces concurrent requests into bulk
decisions (``--replicas N`` keeps that single front end and moves the
data plane into N kernel-replica worker processes fed over pipes —
multi-core throughput with no HTTP between front end and kernels;
``--state-dir`` makes sessions, label cache, and counters durable
across restarts via incremental snapshot generations; ``--spill-dir``
adds the disk-backed cold-session tier with
``--max-resident-sessions`` warm sessions in RAM); ``metrics``
pretty-prints a running server's ``/metrics`` (``--watch S`` refreshes
every S seconds, ``--prometheus`` dumps the text exposition); ``snapshot``
saves, restores, inspects, and compacts the durable snapshot files
(``compact`` folds a delta chain into one full snapshot); ``scenario``
is the trace-driven workload engine (``list`` names the scenarios,
``compile`` writes a replayable checksummed trace file, ``run`` replays
scenarios through a :class:`repro.client.DecisionClient` backend with
per-scenario SLO verdicts — nonzero exit on a violated floor —
``--restart-at F`` snapshots, kills, and warm-restarts the local
service after fraction F of the trace and digest-checks the result
against an uninterrupted replay, ``verify`` validates a trace file and
proves it recompiles byte-identically from its embedded spec).

The installed console script ``repro`` (see ``pyproject.toml``) is an
alias for ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

FIGURE1_VIEWS = """
V1(x, y)    :- Meetings(x, y)
V2(x)       :- Meetings(x, y)
V3(x, y, z) :- Contacts(x, y, z)
"""


def _cmd_label(args: argparse.Namespace) -> int:
    from repro.core.schema import example_schema
    from repro.labeling.cq_labeler import ConjunctiveQueryLabeler, SecurityViews
    from repro.core.sqlparser import sql_to_query

    if args.views:
        with open(args.views) as handle:
            definitions = handle.read()
        views = SecurityViews.from_definitions(definitions)
        from repro.core.schema import Relation, Schema

        relations = {}
        for name in views.names:
            view = views.view(name)
            relations.setdefault(
                view.relation,
                Relation(view.relation, [f"a{i}" for i in range(view.arity)]),
            )
        schema = Schema(relations.values())
    else:
        views = SecurityViews.from_definitions(FIGURE1_VIEWS)
        schema = example_schema()

    if args.query.lstrip().lower().startswith("select"):
        query = sql_to_query(args.query, schema)
    else:
        from repro.core.parser import parse_query

        query = parse_query(args.query)

    labeler = ConjunctiveQueryLabeler(views)
    label = labeler.label(query)
    print(f"query: {query}")
    for atom_label in label:
        if atom_label.is_top:
            print(f"  atom {atom_label.atom}: ⊤ (no view determines it)")
        else:
            print(
                f"  atom {atom_label.atom}: "
                f"{{{', '.join(sorted(atom_label.determiners))}}}"
            )
    if not label.is_top:
        needed = label.required_alternatives(views)
        rendered = " AND ".join(
            "(" + " or ".join(sorted(a)) + ")" for a in needed
        )
        print(f"  required permissions: {rendered}")
    return 0


def _cmd_label_fql(args: argparse.Namespace) -> int:
    from repro.facebook.fql import fql_to_query
    from repro.facebook.permissions import facebook_security_views
    from repro.facebook.schema import facebook_schema
    from repro.labeling.cq_labeler import ConjunctiveQueryLabeler

    schema = facebook_schema()
    views = facebook_security_views(schema)
    query = fql_to_query(args.query, args.me, schema)
    labeler = ConjunctiveQueryLabeler(views)
    label = labeler.label(query)
    print(f"query: {query}")
    for atom_label in label:
        if atom_label.is_top:
            print(f"  atom over {atom_label.atom.relation}: ⊤")
        else:
            print(
                f"  atom over {atom_label.atom.relation}: "
                f"{{{', '.join(sorted(atom_label.determiners))}}}"
            )
    return 0


def _cmd_audit(_args: argparse.Namespace) -> int:
    from repro.facebook.audit import audit_documentation

    report = audit_documentation()
    print(report.summary())
    print()
    print(report.render_table2())
    return 0


def _cmd_lattice(_args: argparse.Namespace) -> int:
    from repro.core.tagged import TaggedAtom
    from repro.order.disclosure_lattice import DisclosureLattice
    from repro.order.disclosure_order import RewritingOrder
    from repro.order.viz import to_dot

    def pat(relation, *items):
        return TaggedAtom.from_pattern(relation, list(items))

    v1 = pat("Meetings", "x:d", "y:d")
    v2 = pat("Meetings", "x:d", "y:e")
    v4 = pat("Meetings", "x:e", "y:d")
    v5 = pat("Meetings", "x:e", "y:e")
    names = {v1: "V1", v2: "V2", v4: "V4", v5: "V5"}
    lattice = DisclosureLattice.from_universe(RewritingOrder(), (v1, v2, v4, v5))
    print(lattice.render(names))
    print()
    print(to_dot(lattice, names, title="Figure 3"))
    return 0


def _cmd_evaluate(_args: argparse.Namespace) -> int:
    from repro.harness.__main__ import main as harness_main

    return harness_main(["--quick"])


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.service import DisclosureService

    default_policy = None
    if args.default_policy:
        import json

        default_policy = json.loads(args.default_policy)
    if args.state_dir and args.snapshot_interval <= 0:
        print(
            "error: --snapshot-interval must be > 0 seconds", file=sys.stderr
        )
        return 2
    if args.replicas < 1:
        print("error: --replicas must be >= 1", file=sys.stderr)
        return 2

    if args.replicas > 1:
        return _serve_pooled(args, default_policy)

    service = DisclosureService(
        max_active_sessions=args.max_resident_sessions or args.max_sessions,
        spill_dir=args.spill_dir,
        label_cache_size=args.cache_size,
        default_policy=default_policy,
        stage_sample_rate=args.stage_sample_rate,
    )
    if args.spill_dir:
        print(
            f"spill tier: cold sessions under {args.spill_dir} "
            f"(max {service.max_active_sessions} resident)"
        )
    snapshotter = None
    if args.state_dir:
        from pathlib import Path

        from repro.server.persist import (
            SnapshotChain,
            Snapshotter,
            clean_stale_shards,
            collect_state,
            sessions_payload,
        )

        chain = SnapshotChain(service, args.state_dir)
        collected = collect_state(args.state_dir)
        if collected is None:
            leftover = sorted(
                entry.name
                for entry in Path(args.state_dir).glob("*.json")
                if entry.name.startswith(("snapshot-", "shard-"))
            )
            if leftover:
                print(
                    f"warning: no valid snapshot among {leftover}; "
                    "starting cold (files left in place)"
                )
        snapshotter = Snapshotter(
            chain.save,
            interval=args.snapshot_interval,
        )
        if collected is not None:
            restored = service.import_state(
                sessions_payload(collected.sessions)
            )
            warmed = service.warm_label_cache(collected.cache_entries)
            if collected.metrics and not collected.sharded:
                service.restore_metrics(collected.metrics)
            print(
                f"warm restart: {restored} sessions, {warmed} cache "
                f"entries from {len(collected.sources)} snapshot file(s)"
            )
            for path, reason in collected.skipped:
                print(f"  skipped {path.name}: {reason}")
            if snapshotter.run_once():  # restored state durable pre-traffic
                # ...and only then may the absorbed shard files go: if
                # the write failed they are still the sole durable copy.
                clean_stale_shards(args.state_dir, 0)
            else:
                print(
                    f"warning: initial snapshot failed "
                    f"({snapshotter.last_error}); keeping existing files"
                )
        else:
            snapshotter.run_once()
        snapshotter.start()
        print(
            f"snapshots: {chain.state_dir} every "
            f"{args.snapshot_interval:g}s (incremental, full base every "
            f"{chain.compact_every} deltas)"
        )
    return _serve_async(service, args, snapshotter)


def _serve_async(service, args: argparse.Namespace, snapshotter) -> int:
    """The ``serve`` composition: one asyncio front end."""
    import asyncio

    from repro.server.aio import AsyncDecisionServer

    async def run() -> None:
        server = AsyncDecisionServer(service, args.host, args.port)
        await server.start()
        print(
            f"disclosure decision service (asyncio) on "
            f"http://{server.host}:{server.port}"
        )
        print(
            "routes: POST /v1/register /v1/query /v1/peek /v1/batch "
            "/v1/reset /v2/query /v2/batch; GET /v2/protocol /metrics "
            "/healthz (single decisions coalesce per event-loop tick)"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if snapshotter is not None:
            snapshotter.stop()  # takes the final shutdown snapshot
        service.close()
    return 0


def _serve_pooled(args: argparse.Namespace, default_policy) -> int:
    """``serve --replicas N``: the kernel replica pool.

    One asyncio front end (parsing, interning, admin, session mirror)
    dispatching every decision to N kernel-replica worker processes
    over pipes — multi-core throughput with no HTTP hop per worker.
    See ``docs/pool.md``.
    """
    import asyncio
    import os.path

    from repro.server.aio import AsyncDecisionServer
    from repro.server.pool import ReplicaPool
    from repro.server.service import DisclosureService

    service_kwargs = {
        "max_active_sessions": args.max_resident_sessions or args.max_sessions,
        "label_cache_size": args.cache_size,
        "default_policy": default_policy,
        "stage_sample_rate": args.stage_sample_rate,
    }
    parent_kwargs = dict(service_kwargs)
    if args.spill_dir:
        # Replica i spills under DIR/replica-<i> (derived in the
        # worker); the front end's mirror spills beside them.
        service_kwargs["spill_dir"] = args.spill_dir
        parent_kwargs["spill_dir"] = os.path.join(args.spill_dir, "front")
        print(
            f"spill tier: per-replica logs under "
            f"{args.spill_dir}/replica-<i> (mirror under "
            f"{args.spill_dir}/front)"
        )
    service = DisclosureService(**parent_kwargs)

    warm_entries = None
    snapshotter = None
    if args.state_dir:
        from repro.server.persist import collect_state, sessions_payload

        collected = collect_state(args.state_dir)
        if collected is not None:
            restored = service.import_state(
                sessions_payload(collected.sessions)
            )
            warm_entries = collected.cache_entries
            print(
                f"warm restart: {restored} sessions, "
                f"{len(warm_entries)} cache entries from "
                f"{len(collected.sources)} snapshot file(s); replicas "
                f"refault their partitions at spawn"
            )
            for path, reason in collected.skipped:
                print(f"  skipped {path.name}: {reason}")

    pool = ReplicaPool(
        service,
        args.replicas,
        service_kwargs=service_kwargs,
        warm_entries=warm_entries,
    ).start()
    if args.state_dir:
        from repro.server.persist import Snapshotter, save_pool_snapshot

        snapshotter = Snapshotter(
            lambda: save_pool_snapshot(
                args.state_dir, pool.snapshot_payloads()
            ),
            interval=args.snapshot_interval,
        )
        snapshotter.run_once()
        snapshotter.start()
        print(
            f"snapshots: {args.state_dir} every "
            f"{args.snapshot_interval:g}s (merged across replicas)"
        )

    async def run() -> None:
        server = AsyncDecisionServer(
            service, args.host, args.port, pool=pool
        )
        await server.start()
        print(
            f"disclosure decision service (asyncio, {args.replicas} "
            f"kernel replicas) on http://{server.host}:{server.port}"
        )
        print(
            "routes: POST /v1/register /v1/query /v1/peek /v1/batch "
            "/v1/reset /v2/query /v2/batch; GET /v2/protocol /metrics "
            "/healthz (decisions dispatch to replicas by principal hash)"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if snapshotter is not None:
            snapshotter.stop()  # final merged snapshot, replicas still up
        pool.close()
        service.close()
    return 0


def _snapshot_targets(args: argparse.Namespace):
    """The snapshot files a ``snapshot load|inspect`` invocation names."""
    from pathlib import Path

    if args.file:
        return [Path(args.file)]
    if args.state_dir:
        state_dir = Path(args.state_dir)
        if not state_dir.is_dir():
            return []
        return sorted(
            entry
            for entry in state_dir.iterdir()
            if entry.name.endswith(".json")
            and (
                entry.name.startswith("snapshot-")
                or entry.name.startswith("shard-")
            )
        )
    return None


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.errors import SnapshotError
    from repro.server.persist import (
        SnapshotStore,
        compact_chain,
        inspect_snapshot,
        load_snapshot,
        restore_service,
        save_snapshot,
    )

    if args.action == "compact":
        if not args.state_dir:
            print("error: snapshot compact needs --state-dir DIR",
                  file=sys.stderr)
            return 2
        try:
            path, removed = compact_chain(args.state_dir)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        info = inspect_snapshot(path)
        print(
            f"compacted {len(removed)} file(s) into {path} "
            f"({info.sessions} sessions, {info.cache_entries} cache "
            f"entries, {info.bytes} bytes)"
        )
        return 0

    if args.action == "save":
        if not args.url:
            print("error: snapshot save needs --url of a running server",
                  file=sys.stderr)
            return 2
        if not (args.state_dir or args.out):
            print("error: snapshot save needs --state-dir or --out",
                  file=sys.stderr)
            return 2
        import json
        from urllib.error import URLError
        from urllib.request import urlopen

        try:
            with urlopen(
                args.url.rstrip("/") + "/internal/snapshot", timeout=30
            ) as response:
                payload = json.loads(response.read())
        except (URLError, OSError, ValueError) as exc:
            print(f"error: cannot pull snapshot from {args.url}: {exc}",
                  file=sys.stderr)
            return 1
        if args.out:
            path = save_snapshot(args.out, payload)
        else:
            path = SnapshotStore(args.state_dir).save(payload)
        sessions = len((payload.get("sessions") or {}).get("sessions", {}))
        # Single-process servers return the interned (v2) payload; a
        # pooled front end returns the merged form with plain entries.
        cache_entries = (payload.get("interning") or {}).get(
            "cache"
        ) or payload.get("label_cache", [])
        print(
            f"saved {path} ({sessions} sessions, "
            f"{len(cache_entries)} cache entries)"
        )
        return 0

    targets = _snapshot_targets(args)
    if targets is None:
        print("error: pass a snapshot FILE or --state-dir DIR", file=sys.stderr)
        return 2
    if not targets:
        print("no snapshot files found", file=sys.stderr)
        return 1

    if args.action == "inspect":
        failures = 0
        for path in targets:
            try:
                info = inspect_snapshot(path)
            except SnapshotError as exc:
                failures += 1
                print(f"{path}: INVALID — {exc}")
                continue
            extra = ""
            if info.generation is not None:
                kind = (
                    "full"
                    if info.delta_of is None
                    else f"delta of {info.delta_of}"
                )
                extra += f", generation {info.generation} ({kind})"
                if info.removed:
                    extra += f", {info.removed} removed"
            if info.shard:
                extra += f", shard {info.shard['index']}/{info.shard['count']}"
            print(
                f"{path}: {info.format}, "
                f"{info.sessions} sessions, "
                f"{info.cache_entries} cache entries, "
                f"{info.decisions} decisions{extra}, "
                f"{info.bytes} bytes, checksum ok"
            )
        # Any invalid file is a failed inspection (matching `load`):
        # monitoring that gates on the exit code must see corruption.
        return 1 if failures else 0

    # load: validate end-to-end by restoring into a fresh service.
    from repro.server.service import DisclosureService

    service = DisclosureService()
    restored = 0
    for path in targets:
        try:
            stats = restore_service(service, load_snapshot(path)["payload"])
        except SnapshotError as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            return 1
        restored += 1
        print(
            f"{path}: restored {stats.sessions} sessions, "
            f"{stats.cache_entries} cache entries, "
            f"{stats.decisions} decisions"
        )
    print(
        f"ok: {restored} file(s) restore cleanly; service now holds "
        f"{service.principal_count()} principals, "
        f"{len(service.label_cache)} cached labels"
    )
    return 0


def _scenario_spec(args: argparse.Namespace, name: str):
    """The (possibly resized) named spec an invocation asks for."""
    from repro.scenarios import get_scenario

    spec = get_scenario(name)
    if args.events or args.principals:
        spec = spec.scaled(args.events or spec.events, args.principals)
    return spec


def _scenario_client(args: argparse.Namespace):
    """A fresh client for ``scenario run`` (local builds its own service)."""
    from repro.client import HttpClient, LocalClient

    if args.transport == "local":
        return LocalClient()
    if not args.url:
        raise ValueError(f"the {args.transport} transport needs a --url target")
    return HttpClient(args.url, protocol=args.protocol)


def _scenario_restart_replay(args: argparse.Namespace, trace, slo):
    """The ``--restart-at`` path: snapshot + kill + warm-restart replay,
    digest-checked against an uninterrupted replay of the same trace."""
    from repro.client import LocalClient
    from repro.scenarios import replay_trace, replay_trace_with_restart

    if args.transport != "local":
        raise ValueError("--restart-at needs the local transport")
    if args.timed:
        raise ValueError(
            "--restart-at replays in fast (deterministic) mode; drop --timed"
        )
    if not 0.0 < args.restart_at < 1.0:
        raise ValueError("--restart-at must be strictly between 0 and 1")
    baseline = replay_trace(trace, LocalClient(), slo=slo)
    report = replay_trace_with_restart(
        trace,
        restart_at=args.restart_at,
        spill_dir=args.spill_dir,
        slo=slo,
    )
    match = report.digest() == baseline.digest()
    tier = f" (spill tier under {args.spill_dir})" if args.spill_dir else ""
    print(
        f"restart @ {args.restart_at:.0%}: digest "
        + ("matches" if match else "MISMATCHES")
        + f" the uninterrupted replay{tier}"
    )
    if not match:
        # A mismatch is a correctness failure: fail the gate the same
        # way a replay error would.
        report.errors += 1
    return report


def _scenario_replay(args: argparse.Namespace, trace, slo):
    """One trace through the requested transport; returns the report."""
    from repro.scenarios import replay_trace, replay_trace_async

    if getattr(args, "restart_at", None) is not None:
        return _scenario_restart_replay(args, trace, slo)
    if args.transport == "async-http":
        import asyncio

        from repro.client import AsyncHttpClient

        replicas = getattr(args, "replicas", 1)
        if args.url and replicas > 1:
            raise ValueError(
                "--replicas starts its own pooled server; pass either "
                "--replicas N or --url, not both"
            )
        if not args.url and replicas <= 1:
            raise ValueError(
                "the async-http transport needs a --url target (or "
                "--replicas N to start a pooled front end in-process)"
            )
        handle = None
        url = args.url
        if replicas > 1:
            from repro.server.pool import start_pooled_background

            handle = start_pooled_background(replicas)
            url = f"http://{handle.host}:{handle.port}"

        async def drive():
            client = AsyncHttpClient(url, protocol=args.protocol)
            await client.connect()
            try:
                return await replay_trace_async(
                    trace,
                    client,
                    timed=args.timed,
                    rate_scale=args.rate_scale,
                    slo=slo,
                )
            finally:
                await client.close()

        try:
            return asyncio.run(drive())
        finally:
            if handle is not None:
                handle.stop()
    with _scenario_client(args) as client:
        return replay_trace(
            trace,
            client,
            timed=args.timed,
            rate_scale=args.rate_scale,
            transport=args.transport,
            slo=slo,
        )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run as run_analyze

    return run_analyze(args)


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.errors import TraceError
    from repro.scenarios import (
        SCENARIOS,
        ScenarioSpec,
        compile_scenario,
        load_trace,
        trace_bytes,
        write_trace,
    )

    if args.action == "list":
        for name, spec in SCENARIOS.items():
            slo = spec.slo
            print(
                f"{name:<18} {spec.events:>6} decides, "
                f"{spec.principals:>4} principals; SLO p50<{slo.p50_us:g}µs "
                f"p95<{slo.p95_us:g}µs p99<{slo.p99_us:g}µs"
            )
            print(f"{'':<18} {spec.description}")
        return 0

    if args.action == "compile":
        if len(args.names) != 1:
            print("error: scenario compile takes exactly one NAME",
                  file=sys.stderr)
            return 2
        if not args.out:
            print("error: scenario compile needs --out FILE", file=sys.stderr)
            return 2
        try:
            spec = _scenario_spec(args, args.names[0])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        trace = compile_scenario(spec, seed=args.seed)
        path = write_trace(args.out, trace)
        print(
            f"compiled {spec.name} (seed {trace.seed}) -> {path}: "
            f"{len(trace)} events, {path.stat().st_size} bytes, "
            f"crc {trace.crc:#010x}"
        )
        return 0

    if args.action == "verify":
        if len(args.names) != 1:
            print("error: scenario verify takes exactly one trace FILE",
                  file=sys.stderr)
            return 2
        path = args.names[0]
        try:
            trace = load_trace(path)
        except TraceError as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            return 1
        print(
            f"{path}: {len(trace)} events, scenario "
            f"{trace.scenario or '(unnamed)'}, seed {trace.seed}, "
            f"checksum ok"
        )
        spec_dict = dict(trace.spec)
        if args.spec:
            try:
                spec = _scenario_spec(args, args.spec)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif spec_dict:
            spec = ScenarioSpec.from_dict(spec_dict)
        else:
            print(f"{path}: no embedded spec; checksum-only verification")
            return 0
        recompiled = compile_scenario(spec, seed=trace.seed)
        if trace_bytes(recompiled) == trace_bytes(trace):
            print(
                f"{path}: recompiles byte-identically from "
                f"(spec {spec.name!r}, seed {trace.seed})"
            )
            return 0
        print(
            f"{path}: MISMATCH — recompiling (spec {spec.name!r}, seed "
            f"{trace.seed}) yields a different trace",
            file=sys.stderr,
        )
        return 1

    # run -----------------------------------------------------------------
    if args.trace and (args.names or args.all):
        print("error: pass --trace FILE or scenario names, not both",
              file=sys.stderr)
        return 2
    floors_by_name = {}
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        # A pooled replay pays a real cross-process pipe round trip per
        # decision, so it gates on its own (looser) committed floors.
        section = "scenarios"
        if getattr(args, "replicas", 1) > 1 and "scenarios_pooled" in baseline:
            section = "scenarios_pooled"
        floors_by_name = baseline.get(section, {})
    jobs = []  # (name, trace, spec-or-None)
    if args.trace:
        try:
            trace = load_trace(args.trace)
        except TraceError as exc:
            print(f"{args.trace}: INVALID — {exc}", file=sys.stderr)
            return 1
        jobs.append((trace.scenario or args.trace, trace, None))
    else:
        names = list(SCENARIOS) if args.all else args.names
        if not names:
            print("error: scenario run needs NAME(s), --all, or --trace FILE",
                  file=sys.stderr)
            return 2
        for name in names:
            try:
                spec = _scenario_spec(args, name)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            jobs.append((name, compile_scenario(spec, seed=args.seed), spec))

    failures = 0
    for position, (name, trace, spec) in enumerate(jobs):
        slo = spec.slo if spec is not None else None
        try:
            report = _scenario_replay(args, trace, slo)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
            return 1
        floors = floors_by_name.get(name)
        if position:
            print()
        print(report.render(floors))
        if not report.ok(floors):
            failures += 1
            print(f"SLO GATE FAILED for {name}", file=sys.stderr)
        if args.hist_out and len(jobs) == 1:
            with open(args.hist_out, "w") as handle:
                json.dump(report.hist_payload(), handle, indent=2)
                handle.write("\n")
            print(f"histogram written to {args.hist_out}")
        elif args.hist_dir:
            from pathlib import Path

            directory = Path(args.hist_dir)
            directory.mkdir(parents=True, exist_ok=True)
            target = directory / f"{name}.json"
            with open(target, "w") as handle:
                json.dump(report.hist_payload(), handle, indent=2)
                handle.write("\n")
            print(f"histogram written to {target}")
    return 1 if failures else 0


def _render_metrics(snapshot: dict) -> str:
    """The human-facing lines of ``repro metrics`` (JSON form)."""
    latency = snapshot.get("latency") or {}
    sessions = snapshot.get("sessions") or {}
    cache = snapshot.get("label_cache") or {}
    lines = [
        f"decisions:  {snapshot.get('decisions', 0)} "
        f"({snapshot.get('accepted', 0)} accepted, "
        f"{snapshot.get('refused', 0)} refused; "
        f"peeks {snapshot.get('peeks', 0)})",
        f"latency:    p50 {latency.get('p50_us', 0.0):.1f} µs   "
        f"p95 {latency.get('p95_us', 0.0):.1f} µs   "
        f"p99 {latency.get('p99_us', 0.0):.1f} µs",
        f"sessions:   {sessions.get('active', 0)} active, "
        f"{sessions.get('passive', 0)} passive",
        f"label cache: {cache.get('hit_rate', 0.0):.1%} hit rate "
        f"({cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses)",
    ]
    if "replica_count" in snapshot:
        lines.append(f"replicas:   {snapshot['replica_count']}")
    for vector in (snapshot.get("registry") or {}).get("vectors", []):
        if vector.get("name") != "repro_kernel_stage_seconds":
            continue
        stages = []
        for series in vector.get("series", []):
            histogram = series.get("histogram") or {}
            if histogram.get("count"):
                stages.append(
                    f"{series.get('labels', {}).get('stage')} "
                    f"p95 {histogram.get('p95_us', 0.0):.1f} µs"
                )
        if stages:
            lines.append("kernel:     " + "   ".join(stages) + " (sampled)")
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import time
    from urllib.error import URLError
    from urllib.request import urlopen

    if args.watch is not None and args.watch <= 0:
        print("error: --watch needs a positive interval", file=sys.stderr)
        return 2
    target = (args.url or "http://127.0.0.1:8080").rstrip("/") + "/metrics"
    if args.prometheus:
        target += "?format=prometheus"
    first = True
    while True:
        try:
            with urlopen(target, timeout=10) as response:
                body = response.read().decode("utf-8")
        except (URLError, OSError, ValueError) as exc:
            print(f"error: cannot reach {target}: {exc}", file=sys.stderr)
            return 1
        if not first:
            print("---")
        first = False
        if args.prometheus:
            print(body, end="" if body.endswith("\n") else "\n")
        else:
            print(_render_metrics(json.loads(body)))
        if args.watch is None:
            return 0
        sys.stdout.flush()
        time.sleep(args.watch)


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (also introspected by the docs checker)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Fine-grained disclosure control for app ecosystems "
        "(SIGMOD 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    label = sub.add_parser("label", help="label a SQL or datalog query")
    label.add_argument("query")
    label.add_argument(
        "--views", help="datalog file of security views (default: Figure 1)"
    )
    label.set_defaults(func=_cmd_label)

    fql = sub.add_parser("label-fql", help="label an FQL query")
    fql.add_argument("query")
    fql.add_argument("--me", type=int, default=1, help="caller's uid")
    fql.set_defaults(func=_cmd_label_fql)

    audit = sub.add_parser("audit", help="print the Table 2 audit")
    audit.set_defaults(func=_cmd_audit)

    lattice = sub.add_parser("lattice", help="print the Figure 3 lattice")
    lattice.set_defaults(func=_cmd_lattice)

    evaluate = sub.add_parser("evaluate", help="quick evaluation run")
    evaluate.set_defaults(func=_cmd_evaluate)

    serve = sub.add_parser("serve", help="run the JSON decision service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--async", dest="async_mode", action="store_true",
        help="accepted and ignored: the asyncio front end, whose "
        "per-tick drain coalesces concurrent decision requests into "
        "bulk decisions, is the only front end",
    )
    serve.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="kernel replica worker processes behind the single "
        "asyncio front end (principals hash-partitioned across "
        "replicas, no HTTP between front end and data plane)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=10_000,
        help="resident compiled sessions before LRU demotion",
    )
    serve.add_argument(
        "--max-resident-sessions", type=int, metavar="N",
        help="alias of --max-sessions with the memory-tier name: compiled "
        "sessions resident in RAM before demotion (takes precedence)",
    )
    serve.add_argument(
        "--spill-dir", metavar="DIR",
        help="spill demoted sessions to an append-only log under DIR "
        "instead of keeping them in RAM (bounded RSS; --replicas "
        "workers use DIR/replica-<i>)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1 << 16,
        help="entries in the shared query-label cache (0 disables)",
    )
    serve.add_argument(
        "--default-policy",
        help='JSON partition list (e.g. \'[["public_profile"]]\') '
        "auto-registered for unknown principals",
    )
    serve.add_argument(
        "--state-dir",
        help="directory for durable snapshots; startup warm-loads the "
        "newest valid state (re-partitioned if --replicas changed)",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=30.0,
        help="seconds between background snapshots (with --state-dir)",
    )
    serve.add_argument(
        "--stage-sample-rate", type=int, default=64,
        help="sample 1 in N decisions for per-stage kernel timing "
        "histograms (repro_kernel_stage_seconds; 0 disables)",
    )
    serve.set_defaults(func=_cmd_serve)

    metrics = sub.add_parser(
        "metrics", help="pretty-print a running server's /metrics"
    )
    metrics.add_argument(
        "--url", help="server base URL (default: http://127.0.0.1:8080)"
    )
    metrics.add_argument(
        "--watch", type=float,
        help="refresh every this many seconds until interrupted",
    )
    metrics.add_argument(
        "--prometheus", action="store_true",
        help="dump the text exposition (GET /metrics?format=prometheus) "
        "instead of the human summary",
    )
    metrics.set_defaults(func=_cmd_metrics)

    snapshot = sub.add_parser(
        "snapshot", help="save, restore-check, or inspect durable snapshots"
    )
    snapshot.add_argument(
        "action", choices=("save", "load", "inspect", "compact"),
        help="save: pull state from a running server; load: restore "
        "file(s) into a fresh service to prove they are valid; "
        "inspect: print header, generation chain, counts, and checksum "
        "status; compact: fold a --state-dir's delta chain into one "
        "full snapshot",
    )
    snapshot.add_argument(
        "file", nargs="?", help="one snapshot file (or use --state-dir)"
    )
    snapshot.add_argument(
        "--state-dir", help="operate on every snapshot file in this directory"
    )
    snapshot.add_argument(
        "--url",
        help="(save) running server whose GET /internal/snapshot to capture "
        "(a pooled front end returns the merged, topology-free state)",
    )
    snapshot.add_argument(
        "--out", help="(save) write this exact file instead of a store entry"
    )
    snapshot.set_defaults(func=_cmd_snapshot)

    scenario = sub.add_parser(
        "scenario",
        help="compile, replay, and verify trace-driven workload scenarios",
    )
    scenario.add_argument(
        "action", choices=("list", "compile", "run", "verify"),
        help="list the named scenarios; compile one to a trace file; "
        "run (replay) scenarios with SLO verdicts; verify a trace file's "
        "checksum and byte-identical recompilation",
    )
    scenario.add_argument(
        "names", nargs="*", metavar="NAME",
        help="scenario name(s) (compile/run), or the trace FILE (verify)",
    )
    scenario.add_argument(
        "--all", action="store_true",
        help="run every named scenario (the CI shape)",
    )
    scenario.add_argument(
        "--out", metavar="FILE", help="trace file to write (compile)"
    )
    scenario.add_argument(
        "--trace", metavar="FILE",
        help="replay this trace file instead of compiling a named scenario",
    )
    scenario.add_argument(
        "--spec", metavar="NAME",
        help="verify against this named spec instead of the trace's "
        "embedded fingerprint",
    )
    scenario.add_argument(
        "--seed", type=int,
        help="override the spec's seed (same spec + seed = same trace)",
    )
    scenario.add_argument(
        "--events", type=int,
        help="scale the scenario to this many decide events",
    )
    scenario.add_argument(
        "--principals", type=int,
        help="scale the scenario to this many principals",
    )
    scenario.add_argument(
        "--transport", choices=("local", "http", "async-http"),
        default="local",
        help="client transport to replay through (default: local, a "
        "fresh in-process service per scenario)",
    )
    scenario.add_argument(
        "--url", help="server URL for the http/async-http transports"
    )
    scenario.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="async-http transport without --url: start an in-process "
        "pooled front end with N kernel replicas and replay against it",
    )
    scenario.add_argument(
        "--protocol", choices=("auto", "v1", "v2"), default="auto",
        help="HTTP wire protocol (auto negotiates v2, falling back to "
        "v1 against older servers)",
    )
    scenario.add_argument(
        "--timed", action="store_true",
        help="pace replay to the trace's own timestamps (lateness-"
        "corrected percentiles) instead of back-to-back fast replay",
    )
    scenario.add_argument(
        "--restart-at", type=float, metavar="FRACTION",
        help="local transport only: snapshot + kill + warm-restart the "
        "service after this fraction (0..1) of the trace, then verify "
        "the decision digest equals an uninterrupted replay",
    )
    scenario.add_argument(
        "--spill-dir", metavar="DIR",
        help="(with --restart-at) give the replayed services a disk "
        "spill tier under DIR to prove tier-independence of decisions",
    )
    scenario.add_argument(
        "--rate-scale", type=float, default=1.0, metavar="X",
        help="divide trace timestamps by X in timed replay (2.0 = "
        "replay twice as fast as recorded)",
    )
    scenario.add_argument(
        "--hist-out", metavar="FILE",
        help="write the (single) scenario's histogram artifact to FILE",
    )
    scenario.add_argument(
        "--hist-dir", metavar="DIR",
        help="write one histogram artifact per scenario to DIR/<name>.json",
    )
    scenario.add_argument(
        "--check", metavar="BASELINE.json",
        help="gate each scenario on the floors committed under the "
        "baseline's `scenarios` key (exit 1 on any violation)",
    )
    scenario.set_defaults(func=_cmd_scenario)

    analyze = sub.add_parser(
        "analyze",
        help="project-aware static analysis (lock discipline, "
        "blocking-in-async, wire parity, format registry)",
    )
    from repro.analysis.cli import add_arguments as _add_analyze_arguments

    _add_analyze_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
