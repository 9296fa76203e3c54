"""The HTTP routes end to end (real sockets, ephemeral port).

Every route is held to the same answers on both deployments of the one
front end: a single process, and a two-replica pool whose replicas
decide and whose parent answers the rest.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.server.aio import start_async_background
from repro.server.pool import start_pooled_background
from repro.server.service import DisclosureService
from repro.server.wire2 import MAX_BATCH

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]


@pytest.fixture(params=["async", "pooled"])
def server(request, views, schema):
    if request.param == "pooled":
        handle = start_pooled_background(
            2, service_kwargs={"security_views": views, "schema": schema}
        )
    else:
        handle = start_async_background(DisclosureService(views, schema=schema))
    yield handle
    handle.stop()


def _call(server, path, body=None):
    url = f"http://{server.host}:{server.port}{path}"
    if body is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestDecisionRoutes:
    def test_register_query_peek_reset_cycle(self, server):
        status, body = _call(
            server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL}
        )
        assert status == 200 and body["registered"] == "app"

        status, body = _call(
            server,
            "/v1/query",
            {
                "principal": "app",
                "fql": "SELECT birthday FROM user WHERE uid = me()",
                "me": 3,
            },
        )
        assert status == 200
        assert body["accepted"] is True
        assert body["live_after"] == 1  # committed to partition 0

        # Peek at the now-walled-off likes partition: refused, no change.
        status, body = _call(
            server,
            "/v1/peek",
            {"principal": "app", "fql": "SELECT music FROM user WHERE uid = me()"},
        )
        assert status == 200
        assert body["accepted"] is False
        assert body["live_after"] == body["live_before"] == 1

        status, body = _call(server, "/v1/reset", {"principal": "app"})
        assert status == 200 and body["reset"] == "app"
        status, body = _call(
            server,
            "/v1/query",
            {"principal": "app", "fql": "SELECT music FROM user WHERE uid = me()"},
        )
        assert status == 200 and body["accepted"] is True

    def test_sql_and_datalog_dialects(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        status, body = _call(
            server,
            "/v1/query",
            {"principal": "app", "sql": "SELECT birthday FROM User WHERE rel = 'self'"},
        )
        assert status == 200 and body["accepted"] is True
        status, body = _call(
            server,
            "/v1/peek",
            {"principal": "app", "datalog": "Q(b) :- User2(x, b)"},
        )
        # Unknown relation labels to ⊤: decided (refused), not an error.
        assert status == 200 and body["accepted"] is False

    def test_refusal_is_a_200_decision(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": [["user_email"]]})
        status, body = _call(
            server,
            "/v1/query",
            {"principal": "app", "fql": "SELECT music FROM user WHERE uid = me()"},
        )
        assert status == 200
        assert body["accepted"] is False
        assert "partition" in body["reason"]


class TestBatchRoute:
    def test_batch_decides_every_item_in_order(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        status, body = _call(
            server,
            "/v1/batch",
            {
                "queries": [
                    {
                        "principal": "app",
                        "fql": "SELECT birthday FROM user WHERE uid = me()",
                    },
                    {
                        "principal": "app",
                        "fql": "SELECT music FROM user WHERE uid = me()",
                    },
                    {
                        "principal": "app",
                        "sql": "SELECT birthday FROM User WHERE rel = 'self'",
                    },
                ]
            },
        )
        assert status == 200 and body["count"] == 3
        accepted = [entry["accepted"] for entry in body["decisions"]]
        # Item 0 commits the wall, so item 1 (likes) is refused and
        # item 2 (birthday again, via SQL) is accepted.
        assert accepted == [True, False, True]

    def test_batch_isolates_bad_items(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        status, body = _call(
            server,
            "/v1/batch",
            {
                "queries": [
                    {"principal": "app", "datalog": "Q(b) :- User(x, b)"},
                    {"principal": "ghost", "datalog": "Q(b) :- User(x, b)"},
                    {"principal": "app"},
                    ["not", "an", "object"],
                ]
            },
        )
        assert status == 200 and body["count"] == 4
        decisions = body["decisions"]
        assert "accepted" in decisions[0]
        assert "unknown principal" in decisions[1]["error"]
        assert "'sql', 'fql', 'datalog'" in decisions[2]["error"]
        assert "JSON object" in decisions[3]["error"]

    def test_batch_peek_changes_nothing(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        request = {
            "queries": [
                {
                    "principal": "app",
                    "fql": "SELECT birthday FROM user WHERE uid = me()",
                },
                {
                    "principal": "app",
                    "fql": "SELECT music FROM user WHERE uid = me()",
                },
            ],
            "peek": True,
        }
        status, body = _call(server, "/v1/batch", request)
        assert status == 200
        # Peeks are independent probes: both partitions still live.
        assert [e["accepted"] for e in body["decisions"]] == [True, True]
        status, metrics = _call(server, "/metrics")
        assert metrics["decisions"] == 0 and metrics["peeks"] == 2

    def test_batch_validation_errors(self, server):
        status, body = _call(server, "/v1/batch", {"queries": "nope"})
        assert status == 400 and "'queries'" in body["error"]
        status, body = _call(
            server, "/v1/batch", {"queries": [], "peek": "yes"}
        )
        assert status == 400 and "'peek'" in body["error"]

    def test_oversized_batch_is_rejected(self, server):
        queries = [{"principal": "app", "sql": "x"}] * (MAX_BATCH + 1)
        status, body = _call(server, "/v1/batch", {"queries": queries})
        assert status == 400 and "exceeds" in body["error"]


class TestMetricsRoutes:
    def test_metrics_reports_caches_and_latency(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        fql = "SELECT birthday FROM user WHERE uid = me()"
        for _ in range(3):
            _call(server, "/v1/query", {"principal": "app", "fql": fql})
        status, body = _call(server, "/metrics")
        assert status == 200
        assert body["decisions"] == 3
        assert body["label_cache"]["hits"] == 2
        assert body["label_cache"]["hit_rate"] == pytest.approx(2 / 3)
        assert body["latency"]["count"] == 3
        assert body["latency"]["p95_us"] > 0
        assert body["sessions"]["active"] == 1

    def test_healthz(self, server):
        status, body = _call(server, "/healthz")
        assert status == 200 and body == {"ok": True}

    def test_internal_snapshot_round_trips_over_the_wire(self, server, views):
        """GET /internal/snapshot returns the service's full durable
        state, restorable into a fresh service byte-for-byte."""
        from repro.server.persist import restore_service

        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        fql = "SELECT birthday FROM user WHERE uid = me()"
        status, body = _call(server, "/v1/query", {"principal": "app", "fql": fql})
        assert status == 200 and body["accepted"] is True

        status, payload = _call(server, "/internal/snapshot")
        assert status == 200
        restored = DisclosureService(views)
        stats = restore_service(restored, payload)
        assert stats.sessions == 1 and stats.decisions == 1
        # The wall commitment survived: likes are refused on the copy
        # exactly as they would be on the live server.
        decision = restored.peek(
            "app",
            restored.parse("SELECT music FROM user WHERE uid = me()", "fql"),
        )
        assert decision.accepted is False
        assert decision.live_before == 1


class TestErrorHandling:
    def test_unknown_route(self, server):
        status, body = _call(server, "/v1/nope", {"principal": "x"})
        assert status == 404 and "unknown route" in body["error"]
        status, body = _call(server, "/nope")
        assert status == 404

    def test_missing_principal(self, server):
        status, body = _call(server, "/v1/query", {"sql": "SELECT 1"})
        assert status == 400 and "principal" in body["error"]

    def test_non_string_principal_is_400_not_a_crash(self, server):
        # Lists/dicts are unhashable and ints would not survive state
        # serialization: all must be rejected cleanly, on every route.
        for bad in (["a"], {"x": 1}, 7, ""):
            for path, extra in (
                ("/v1/query", {"sql": "SELECT name FROM User"}),
                ("/v1/peek", {"sql": "SELECT name FROM User"}),
                ("/v1/register", {"policy": [["public_profile"]]}),
                ("/v1/reset", {}),
            ):
                status, body = _call(
                    server, path, {"principal": bad, **extra}
                )
                assert status == 400, (path, bad)
                assert "principal" in body["error"]

    def test_missing_query_text(self, server):
        status, body = _call(server, "/v1/query", {"principal": "app"})
        assert status == 400 and "sql" in body["error"]

    def test_unknown_principal_is_404(self, server):
        status, body = _call(
            server,
            "/v1/query",
            {"principal": "ghost", "fql": "SELECT name FROM user WHERE uid = me()"},
        )
        assert status == 404 and "unknown principal" in body["error"]

    def test_parse_error_is_400(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        status, body = _call(
            server, "/v1/query", {"principal": "app", "sql": "SELECT nope FROM User"}
        )
        assert status == 400 and "error" in body

    def test_bad_policy_is_400(self, server):
        status, body = _call(
            server, "/v1/register", {"principal": "app", "policy": [["no_such_view"]]}
        )
        assert status == 400 and "unknown security view" in body["error"]

    def test_invalid_json_body(self, server):
        request = urllib.request.Request(
            f"http://{server.host}:{server.port}/v1/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_empty_body(self, server):
        request = urllib.request.Request(
            f"http://{server.host}:{server.port}/v1/query", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_me_type(self, server):
        _call(server, "/v1/register", {"principal": "app", "policy": CHINESE_WALL})
        status, body = _call(
            server,
            "/v1/query",
            {"principal": "app", "fql": "SELECT name FROM user", "me": "three"},
        )
        assert status == 400 and "'me'" in body["error"]
