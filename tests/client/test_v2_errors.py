"""The v2 error taxonomy: every failure is a typed JSON error.

Driven through :func:`repro.server.aio.dispatch` (the route table the
front end serves), so the statuses and codes here are exactly what the
wire returns.
"""

from __future__ import annotations

import pytest

from repro.core.canonical import canonical_key, encode_key
from repro.server.aio import dispatch
from repro.server.service import DisclosureService
from repro.server.wire2 import MAX_BATCH
from repro.server.wire2 import (
    GENERATION_CAP,
    GENERATION_KEYS_CAP,
    WireGateway,
    gateway_for,
)

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]


@pytest.fixture()
def service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


@pytest.fixture()
def key(service):
    query = service.parse("SELECT birthday FROM user WHERE uid = me()", "fql")
    return encode_key(canonical_key(query))


def _query(service, body):
    return dispatch(service, "POST", "/v2/query", body)


def _batch(service, body):
    return dispatch(service, "POST", "/v2/batch", body)


class TestRequestShape:
    def test_missing_generation(self, service):
        status, payload = _query(
            service, {"principal": "app", "qid": 0}
        )
        assert (status, payload["code"]) == (400, "bad-request")
        assert "'gen'" in payload["error"]

    def test_bad_principal(self, service, key):
        for bad in (None, "", 7, ["x"]):
            status, payload = _query(
                service,
                {"gen": "g", "base": 0, "delta": [key], "qid": 0,
                 "principal": bad},
            )
            assert (status, payload["code"]) == (400, "bad-request")

    def test_bad_qid_and_flags(self, service, key):
        status, payload = _query(
            service,
            {"gen": "g", "base": 0, "delta": [key], "principal": "app",
             "qid": "zero"},
        )
        assert (status, payload["code"]) == (400, "bad-request")
        status, payload = _query(
            service,
            {"gen": "g", "base": 0, "delta": [key], "principal": "app",
             "qid": 0, "peek": "yes"},
        )
        assert (status, payload["code"]) == (400, "bad-request")

    def test_bad_base(self, service, key):
        for bad in (-1, True, "0"):
            status, payload = _query(
                service,
                {"gen": "g", "base": bad, "delta": [key], "principal": "app",
                 "qid": 0},
            )
            assert (status, payload["code"]) == (400, "bad-request")

    def test_unknown_v2_route(self, service):
        status, payload = dispatch(service, "POST", "/v2/nope", {"x": 1})
        assert status == 404 and payload["code"] == "bad-request"
        status, payload = dispatch(service, "GET", "/v2/query", None)
        assert status == 404


class TestMalformedDeltas:
    def test_undecodable_delta_entry(self, service):
        for garbage in ("not-a-key", ["q", 1], [], {"t": []}, 1.5):
            status, payload = _query(
                service,
                {"gen": "g", "base": 0, "delta": [garbage],
                 "principal": "app", "qid": 0},
            )
            assert (status, payload["code"]) == (400, "bad-delta")

    def test_decodable_but_malformed_key_is_rejected_not_interned(
        self, service
    ):
        """A key that decodes structurally but is not a valid canonical
        key must be refused at the trust boundary — interning it would
        crash decision processing later (query_from_key runs on it)."""
        # A body "atom" that is not a (relation, codes) pair.
        evil = ["t", [["t", [0]], ["t", [["s", "Status"], 1, 0, 2]]]]
        status, payload = _query(
            service,
            {"gen": "g", "base": 0, "delta": [evil], "principal": "app",
             "qid": 0},
        )
        assert (status, payload["code"]) == (400, "bad-delta")
        # Nothing leaked into the kernel's shared interner.
        assert service.kernel.stats()["queries_interned"] == 0

    def test_non_canonical_key_is_rejected(self, service):
        """Variables out of first-occurrence order: decodes, rebuilds,
        but is not the canonical key of any query — refused."""
        sneaky = ["t", [["t", [1]], ["t", [["t", [["s", "R"], ["t", [1, 0]]]]]]]]
        status, payload = _query(
            service,
            {"gen": "g", "base": 0, "delta": [sneaky], "principal": "app",
             "qid": 0},
        )
        assert (status, payload["code"]) == (400, "bad-delta")

    def test_delta_not_a_list(self, service):
        status, payload = _query(
            service,
            {"gen": "g", "base": 0, "delta": "nope", "principal": "app",
             "qid": 0},
        )
        assert (status, payload["code"]) == (400, "bad-delta")

    def test_delta_past_the_key_cap(self, service, key):
        status, payload = _query(
            service,
            {"gen": "g", "base": GENERATION_KEYS_CAP, "delta": [key],
             "principal": "app", "qid": 0},
        )
        # base beyond what the server holds trips the resync answer
        # first; an in-range base with a cap-crossing delta is bad-delta.
        assert status in (400, 409)
        gateway = gateway_for(service)
        with pytest.raises(Exception) as excinfo:
            gateway.resolve("g2", 0, [key] * (GENERATION_KEYS_CAP + 1), ())
        assert excinfo.value.code == "bad-delta"

    def test_partial_delta_failure_keeps_the_prefix(self, service, key):
        gateway = gateway_for(service)
        with pytest.raises(Exception) as excinfo:
            gateway.resolve("g", 0, [key, "garbage"], ())
        assert excinfo.value.code == "bad-delta"
        # The valid prefix was absorbed: a retry from base 1 succeeds.
        _, qids = gateway.resolve("g", 1, [key], (0,))
        assert len(qids) == 1


class TestUnknownGeneration:
    def test_assuming_keys_the_server_lacks_is_409(self, service, key):
        status, payload = _query(
            service,
            {"gen": "fresh", "base": 3, "principal": "app", "qid": 0},
        )
        assert (status, payload["code"]) == (409, "unknown-generation")
        assert "resync" in payload["error"]

    def test_evicted_generation_is_409(self, service, key):
        gateway = gateway_for(service)
        gateway.resolve("old", 0, [key], (0,))
        for index in range(GENERATION_CAP):
            gateway.resolve(f"filler-{index}", 0, [], ())
        status, payload = _query(
            service, {"gen": "old", "base": 1, "principal": "app", "qid": 0}
        )
        assert (status, payload["code"]) == (409, "unknown-generation")

    def test_unknown_qid_within_a_known_generation(self, service, key):
        status, payload = _query(
            service,
            {"gen": "g", "base": 0, "delta": [key], "principal": "app",
             "qid": 5},
        )
        assert (status, payload["code"]) == (400, "unknown-qid")


class TestBatchErrors:
    def test_oversized_batch(self, service, key):
        status, payload = _batch(
            service,
            {"gen": "g", "base": 0, "delta": [key],
             "principals": ["app"],
             "items": [[0, 0]] * (MAX_BATCH + 1)},
        )
        assert (status, payload["code"]) == (400, "oversized-batch")

    def test_malformed_items_and_principals(self, service, key):
        base = {"gen": "g", "base": 0, "delta": [key]}
        status, payload = _batch(
            service, {**base, "principals": ["app"], "items": "nope"}
        )
        assert (status, payload["code"]) == (400, "bad-request")
        status, payload = _batch(
            service, {**base, "principals": ["app"], "items": [[0]]}
        )
        assert (status, payload["code"]) == (400, "bad-request")
        status, payload = _batch(
            service, {**base, "principals": ["app"], "items": [[1, 0]]}
        )
        assert (status, payload["code"]) == (400, "bad-request")
        status, payload = _batch(
            service, {**base, "principals": [""], "items": [[0, 0]]}
        )
        assert (status, payload["code"]) == (400, "bad-request")

    def test_unknown_principal_isolates_per_item(self, service, key):
        status, payload = _batch(
            service,
            {"gen": "g", "base": 0, "delta": [key],
             "principals": ["app", "ghost"],
             "items": [[0, 0], [1, 0], [0, 0]]},
        )
        assert status == 200
        decisions = payload["decisions"]
        assert "accepted" in decisions[0]
        assert decisions[1]["code"] == "unknown-principal"
        assert "accepted" in decisions[2]

    def test_unknown_principal_single_is_404(self, service, key):
        status, payload = _query(
            service,
            {"gen": "g", "base": 0, "delta": [key], "principal": "ghost",
             "qid": 0},
        )
        assert (status, payload["code"]) == (404, "unknown-principal")


class TestGatewayBounds:
    def test_generation_lru_is_bounded(self, views):
        service = DisclosureService(views)
        gateway = WireGateway(service)
        for index in range(GENERATION_CAP + 10):
            gateway.resolve(f"gen-{index}", 0, [], ())
        assert gateway.generation_count() == GENERATION_CAP
