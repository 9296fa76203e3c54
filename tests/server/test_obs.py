"""The observability plane end to end: the front end, pooled or not,
exposes the same metrics in both forms, traced requests return spans,
and the scrape verb works against a live server."""

from __future__ import annotations

import asyncio
import io
import json
import time
import urllib.error
import urllib.request
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main as cli_main
from repro.client import AsyncHttpClient, HttpClient, LocalClient, parse_text
from repro.obs import PROMETHEUS_CONTENT_TYPE, parse_prometheus, sample_value
from repro.server.aio import start_async_background
from repro.server.service import DisclosureService

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]
BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"
MUSIC = "SELECT music FROM user WHERE uid = me()"


@pytest.fixture()
def service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


@pytest.fixture()
def async_server(service):
    handle = start_async_background(service)
    yield f"http://{handle.host}:{handle.port}", service
    handle.stop()


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers.get("Content-Type"), response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read()


def _post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _drive_traffic(base_url):
    _post(f"{base_url}/v1/query", {"principal": "app", "fql": BIRTHDAY})
    _post(f"{base_url}/v1/query", {"principal": "app", "fql": MUSIC})
    _post(f"{base_url}/v1/peek", {"principal": "app", "fql": BIRTHDAY})


def _assert_forms_agree(base_url):
    """The core acceptance property: the Prometheus exposition parses
    with the in-repo parser and agrees with the JSON form on every
    counter and histogram count."""
    status, _, raw = _get(f"{base_url}/metrics")
    assert status == 200
    snapshot = json.loads(raw)
    status, content_type, text = _get(f"{base_url}/metrics?format=prometheus")
    assert status == 200
    assert content_type == PROMETHEUS_CONTENT_TYPE
    parsed = parse_prometheus(text.decode())

    for key in ("decisions", "accepted", "refused", "peeks"):
        assert sample_value(parsed, f"repro_{key}_total") == snapshot[key], key
    assert (
        sample_value(parsed, "repro_request_latency_seconds_count")
        == snapshot["latency"]["count"]
    )
    for vec in snapshot["registry"]["vectors"]:
        for row in vec["series"]:
            if vec["kind"] == "histogram":
                got = sample_value(parsed, vec["name"] + "_count", row["labels"])
                assert got == row["histogram"]["count"], vec["name"]
            elif vec["name"] == "repro_requests_total":
                # This family counts requests *including these scrapes*,
                # so the later exposition legitimately reads higher.
                got = sample_value(parsed, vec["name"], row["labels"])
                assert got is not None and got >= row["value"], row["labels"]
            else:
                got = sample_value(parsed, vec["name"], row["labels"])
                assert got == row["value"], vec["name"]
    return snapshot, parsed


class TestFrontEnd:
    def test_prometheus_agrees_with_json(self, async_server):
        base_url, _ = async_server
        _drive_traffic(base_url)
        snapshot, parsed = _assert_forms_agree(base_url)
        assert snapshot["decisions"] == 2 and snapshot["peeks"] == 1
        # Tenant accounting reached the labeled vectors at scrape time.
        assert sample_value(
            parsed, "repro_tenant_decisions_total", {"tenant": "app"}
        ) == 2

    def test_accept_negotiation(self, async_server):
        base_url, _ = async_server
        status, content_type, _ = _get(
            f"{base_url}/metrics", {"Accept": "text/plain"}
        )
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        status, content_type, raw = _get(
            f"{base_url}/metrics", {"Accept": "application/json"}
        )
        assert status == 200 and "json" in content_type
        json.loads(raw)
        # An explicit query parameter always beats the Accept header.
        status, content_type, raw = _get(
            f"{base_url}/metrics?format=json", {"Accept": "text/plain"}
        )
        assert status == 200 and "json" in content_type
        # Prometheus scrapers send a wildcard tail; that must not flip
        # a JSON-indicating Accept into the text form.
        status, _, text = _get(
            f"{base_url}/metrics",
            {"Accept": "text/plain;version=0.0.4;q=0.5, */*;q=0.1"},
        )
        assert status == 200
        parse_prometheus(text.decode())

    def test_unknown_format_is_rejected(self, async_server):
        base_url, _ = async_server
        status, _, raw = _get(f"{base_url}/metrics?format=xml")
        assert status == 400
        assert "format" in json.loads(raw)["error"]

    def test_stage_histograms_populate(self, views, schema):
        # Served traffic is decided by the tick drain's batch core, which
        # times its intern loop as canonicalize, then label, mask and
        # outcome.
        service = DisclosureService(views, schema=schema, stage_sample_rate=1)
        service.register("app", CHINESE_WALL)
        handle = start_async_background(service)
        try:
            base_url = f"http://{handle.host}:{handle.port}"
            _drive_traffic(base_url)
            _, parsed = _assert_forms_agree(base_url)
        finally:
            handle.stop()
        for stage in ("canonicalize", "label", "mask", "outcome"):
            count = sample_value(
                parsed, "repro_kernel_stage_seconds_count", {"stage": stage}
            )
            assert count is not None and count >= 1, stage

    def test_served_v1_batch_times_canonicalize(self, views, schema):
        service = DisclosureService(views, schema=schema, stage_sample_rate=1)
        service.register("app", CHINESE_WALL)
        handle = start_async_background(service)
        try:
            base_url = f"http://{handle.host}:{handle.port}"
            status, body = _post(
                f"{base_url}/v1/batch",
                {"queries": [
                    {"principal": "app", "fql": BIRTHDAY},
                    {"principal": "app", "fql": MUSIC},
                ]},
            )
            assert status == 200 and body["count"] == 2
            _, parsed = _assert_forms_agree(base_url)
        finally:
            handle.stop()
        assert sample_value(
            parsed, "repro_kernel_stage_seconds_count", {"stage": "canonicalize"}
        ) == 2

    def test_v2_entries_arrive_interned(self, views, schema):
        # The v2 gateway interns before the batch core runs, so v2
        # traffic leaves canonicalize empty and fills label.
        service = DisclosureService(views, schema=schema, stage_sample_rate=1)
        service.register("app", CHINESE_WALL)
        handle = start_async_background(service)
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def drive(url):
            client = AsyncHttpClient(url)
            await client.peek("app", birthday)
            await client.close()

        try:
            base_url = f"http://{handle.host}:{handle.port}"
            asyncio.run(drive(base_url))
            _, parsed = _assert_forms_agree(base_url)
        finally:
            handle.stop()
        assert sample_value(
            parsed, "repro_kernel_stage_seconds_count", {"stage": "label"}
        )
        assert not sample_value(
            parsed, "repro_kernel_stage_seconds_count", {"stage": "canonicalize"}
        )

    def test_sampled_local_submit_many_times_canonicalize(self, views, schema):
        # At 1 in 2 the batch's one sample decision (the countdown's
        # first) must time both its intern loop and its label pass: a
        # second draw would skip the label pass.
        service = DisclosureService(views, schema=schema, stage_sample_rate=2)
        service.register("app", CHINESE_WALL)
        queries = [parse_text(text, "fql", schema=schema) for text in (BIRTHDAY, MUSIC)]
        LocalClient(service).submit_many([("app", query) for query in queries])
        stages = next(
            vector
            for vector in service.metrics_snapshot()["registry"]["vectors"]
            if vector["name"] == "repro_kernel_stage_seconds"
        )
        counts = {
            row["labels"]["stage"]: row["histogram"]["count"]
            for row in stages["series"]
        }
        assert counts["canonicalize"] == 2 and counts["label"] == 2, counts

    def test_unsampled_batch_reads_no_stage_clock(self, views, schema, monkeypatch):
        from repro.server import batch, kernel

        service = DisclosureService(views, schema=schema, stage_sample_rate=1000)
        service.register("app", CHINESE_WALL)
        query = parse_text(BIRTHDAY, "fql", schema=schema)
        client = LocalClient(service)
        client.submit_many([("app", query)])  # the countdown's first sample
        reads = []
        real = batch.time.perf_counter

        def counting():
            reads.append(1)
            return real()

        monkeypatch.setattr(batch.time, "perf_counter", counting)
        monkeypatch.setattr(kernel, "perf_counter", counting)
        client.submit_many([("app", query)])
        # Only the batch core's own latency clock (start and end).
        assert len(reads) == 2

    def test_single_path_samples_every_stage(self, async_server, schema):
        # The countdown starts at 1, so the very first in-process submit
        # samples every stage even at the default 1-in-64 rate.
        base_url, service = async_server
        service.submit("app", parse_text(BIRTHDAY, "fql", schema=schema))
        _, parsed = _assert_forms_agree(base_url)
        for stage in ("canonicalize", "label", "mask", "outcome"):
            count = sample_value(
                parsed, "repro_kernel_stage_seconds_count", {"stage": stage}
            )
            assert count is not None and count >= 1, stage

    def test_trace_ring_route(self, async_server):
        base_url, _ = async_server
        _drive_traffic(base_url)
        status, _, raw = _get(f"{base_url}/internal/trace")
        assert status == 200
        ring = json.loads(raw)
        assert set(ring) >= {"capacity", "recorded", "dropped", "traces"}

    def test_prometheus_agrees_after_v2_traffic(self, async_server, schema):
        base_url, _ = async_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def drive():
            client = AsyncHttpClient(base_url)
            await asyncio.gather(*[client.peek("app", birthday) for _ in range(9)])
            await client.close()

        asyncio.run(drive())
        snapshot, _ = _assert_forms_agree(base_url)
        assert snapshot["peeks"] == 9


TENANTS = [f"tenant-{index}" for index in range(6)]
TENANT_VECTORS = ("repro_tenant_decisions_total", "repro_tenant_refused_total")


def _tenant_series(snapshot):
    return {
        vector["name"]: {
            row["labels"]["tenant"]: row["value"] for row in vector["series"]
        }
        for vector in snapshot["registry"]["vectors"]
        if vector["name"] in TENANT_VECTORS
    }


class TestTenantParity:
    """Per-tenant counts after a scrape do not depend on the path that
    decided: the kernel's single path, both batch cores, the asyncio
    front end and a replica pool all tally on the session, and a spill
    store this small evicts (and so drains) sessions between groups."""

    @pytest.fixture()
    def traffic(self, schema):
        import random

        rng = random.Random(11)
        queries = [
            parse_text(text, "fql", schema=schema)
            for text in (BIRTHDAY, MUSIC, "SELECT name FROM user WHERE uid = me()")
        ]
        return [(rng.choice(TENANTS), rng.choice(queries)) for _ in range(160)]

    @staticmethod
    def _chunks(traffic):
        return [traffic[i : i + 40] for i in range(0, len(traffic), 40)]

    @pytest.mark.parametrize("resident", [1, 3])
    def test_every_path_tallies_the_same(
        self, views, schema, traffic, tmp_path, resident
    ):
        from repro.client import LocalClient
        from repro.server.pool import start_pooled_background

        kwargs = {"security_views": views, "schema": schema,
                  "max_active_sessions": resident}

        def local(name):
            service = DisclosureService(
                spill_dir=tmp_path / name, **kwargs
            )
            for tenant in TENANTS:
                service.register(tenant, CHINESE_WALL)
            return service

        results = {}
        service = local("single")
        for principal, query in traffic:
            service.submit(principal, query)
        results["single"] = _tenant_series(service.metrics_snapshot())

        service = local("submit_many")
        for chunk in self._chunks(traffic):
            LocalClient(service).submit_many(chunk)
        results["submit_many"] = _tenant_series(service.metrics_snapshot())

        service = local("submit_batch")
        for chunk in self._chunks(traffic):
            service.submit_batch(chunk)
        results["submit_batch"] = _tenant_series(service.metrics_snapshot())

        async def drive(url, register):
            client = AsyncHttpClient(url)
            if register:
                for tenant in TENANTS:
                    await client.register(tenant, CHINESE_WALL)
            for chunk in self._chunks(traffic):
                await asyncio.gather(*[client.submit(*item) for item in chunk])
            snapshot = await client.metrics()
            await client.close()
            return _tenant_series(snapshot)

        handle = start_async_background(local("async"))
        try:
            url = f"http://{handle.host}:{handle.port}"
            results["async"] = asyncio.run(drive(url, register=False))
        finally:
            handle.stop()
            handle.server.service.close()

        pooled = start_pooled_background(
            2, service_kwargs=dict(kwargs, spill_dir=tmp_path / "pooled")
        )
        try:
            url = f"http://{pooled.host}:{pooled.port}"
            results["pooled"] = asyncio.run(drive(url, register=True))
        finally:
            pooled.stop()

        want = results.pop("single")
        assert sum(want["repro_tenant_decisions_total"].values()) == len(traffic)
        assert sum(want["repro_tenant_refused_total"].values()) > 0
        for path, got in results.items():
            assert got == want, path


class TestPooledFrontEnd:
    def test_merged_prometheus_agrees_with_merged_json(self, views, schema):
        from repro.server.pool import start_pooled_background

        pooled = start_pooled_background(
            2, service_kwargs={"security_views": views, "schema": schema}
        )
        try:
            base_url = f"http://{pooled.host}:{pooled.port}"
            for principal in ("app", "other"):
                _post(
                    f"{base_url}/v1/register",
                    {"principal": principal, "policy": CHINESE_WALL},
                )
            for principal in ("app", "other") * 3:
                _post(
                    f"{base_url}/v1/query",
                    {"principal": principal, "fql": BIRTHDAY},
                )
            snapshot, parsed = _assert_forms_agree(base_url)
        finally:
            pooled.stop()
        assert snapshot["decisions"] == 6
        # The merged totals equal the sum over the per-replica snapshots.
        replica_total = sum(r["decisions"] for r in snapshot["replicas"])
        assert sample_value(parsed, "repro_decisions_total") == replica_total

    def test_parent_times_canonicalize_for_its_replicas(self, views, schema):
        # Replicas receive qids; the parent's intern loop is the
        # canonicalize stage of a pooled deployment.
        from repro.server.pool import start_pooled_background

        pooled = start_pooled_background(
            2,
            service_kwargs={
                "security_views": views, "schema": schema, "stage_sample_rate": 1,
            },
        )
        try:
            base_url = f"http://{pooled.host}:{pooled.port}"
            _post(
                f"{base_url}/v1/register",
                {"principal": "app", "policy": CHINESE_WALL},
            )
            status, body = _post(
                f"{base_url}/v1/batch",
                {"queries": [
                    {"principal": "app", "fql": BIRTHDAY},
                    {"principal": "app", "fql": MUSIC},
                ]},
            )
            assert status == 200 and body["count"] == 2
            _, parsed = _assert_forms_agree(base_url)
        finally:
            pooled.stop()
        for stage in ("canonicalize", "label", "mask", "outcome"):
            count = sample_value(
                parsed, "repro_kernel_stage_seconds_count", {"stage": stage}
            )
            assert count is not None and count >= 1, stage


def _span_is_sane(span, wall_seconds):
    stage_sum_us = span["label_us"] + span["decide_us"] + span["serialize_us"]
    assert stage_sum_us <= span["total_us"] + span["serialize_us"] + 1.0
    assert span["total_us"] <= wall_seconds * 1e6
    assert span["queue_us"] >= 0.0
    assert span["coalesced"] >= 1


class TestTracing:
    def test_traced_v2_request_through_the_sync_client(
        self, async_server, schema
    ):
        base_url, service = async_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)
        client = HttpClient(base_url, trace=True)
        started = time.perf_counter()
        decision = client.submit("app", birthday)
        wall = time.perf_counter() - started
        span = decision["trace"]
        assert span["transport"] == "async"
        assert span["principal"] == "app"
        assert span["peek"] is False
        _span_is_sane(span, wall)
        ring = service.traces.snapshot()
        assert ring["recorded"] == 1
        assert ring["traces"][0]["principal"] == "app"

    def test_traced_v2_request_through_the_async_client(
        self, async_server, schema
    ):
        base_url, service = async_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def drive():
            client = AsyncHttpClient(base_url, trace=True)
            started = time.perf_counter()
            decision = await client.submit("app", birthday)
            wall = time.perf_counter() - started
            untraced = await client.peek("app", birthday, trace=False)
            await client.close()
            return decision, wall, untraced

        decision, wall, untraced = asyncio.run(drive())
        span = decision["trace"]
        assert span["transport"] == "async"
        assert span["qid"] is not None
        _span_is_sane(span, wall)
        assert "trace" not in untraced
        ring = service.traces.snapshot()
        assert ring["recorded"] == 1

    def test_sampled_tracing_traces_one_in_n(self, async_server, schema):
        base_url, service = async_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def drive():
            client = AsyncHttpClient(base_url, trace=3)
            decisions = []
            for _ in range(9):  # sequential: deterministic countdown
                decisions.append(await client.peek("app", birthday))
            await client.close()
            return decisions

        decisions = asyncio.run(drive())
        traced = [d for d in decisions if "trace" in d]
        assert len(traced) == 3
        assert service.traces.snapshot()["recorded"] == 3


class TestMetricsCli:
    def test_summary_and_prometheus_forms(self, async_server):
        base_url, _ = async_server
        _drive_traffic(base_url)
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["metrics", "--url", base_url])
        assert code == 0
        assert "decisions" in buffer.getvalue()

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["metrics", "--url", base_url, "--prometheus"])
        assert code == 0
        parsed = parse_prometheus(buffer.getvalue())
        assert sample_value(parsed, "repro_decisions_total") == 2

    def test_unreachable_server_fails_cleanly(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["metrics", "--url", "http://127.0.0.1:9"])
        assert code == 1
