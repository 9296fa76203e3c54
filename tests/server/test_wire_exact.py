"""The v2 single path's memos and renderers change no byte and no verdict.

* Both byte renderers — the compact single response
  (:func:`repro.server.wire2.render_single`) and the single request body
  (:func:`repro.client.wire.single_request`) — equal ``json.dumps`` of
  the value they stand for, for arbitrary ints (live masks wider than 64
  bits included) and escape-heavy or non-ASCII strings.
* The gateway's hot generation evicts exactly what a plain LRU model
  evicts, survives ``forget_all`` (a 409 resync still works) and a plane
  rotation between two requests of one generation.
* The asyncio front end answers a compact single sent with
  ``Connection: close``, and sends a body led by ``{\\x00`` through
  :func:`json.loads` (which decodes it as UTF-16).
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import wire as client_wire
from repro.core.canonical import canonical_key, encode_key
from repro.server.aio import AsyncDecisionServer, _HttpProtocol
from repro.server.aio import dispatch
from repro.server.kernel import ServiceDecision
from repro.server.service import DisclosureService
from repro.server.wire2 import GENERATION_CAP, gateway_for, render_single

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]
BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"
MUSIC = "SELECT music FROM user WHERE uid = me()"

#: Strings JSON has to escape, and strings it has to \\u-encode.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f \ud800'),
        st.characters(),
    ),
    max_size=40,
)
#: Live masks are unbounded ints: a policy may have more than 64 partitions.
MASK = st.integers(min_value=0, max_value=1 << 200)


class TestResponseRenderer:
    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.booleans(), MASK, MASK, TEXT)
    def test_compact_row_equals_json_dumps(
        self, accepted, cached, live_before, live_after, reason
    ):
        decision = ServiceDecision(
            accepted, "app", reason, cached, live_before, live_after, ()
        )
        want = json.dumps(
            [int(accepted), int(cached), live_before, live_after, reason]
        ).encode()
        assert render_single(decision, True) == want
        assert render_single(decision, True) == want  # the memoised reason

    def test_full_form_and_errors_are_untouched(self):
        decision = ServiceDecision(True, "app", "ok", False, 3, 1, ())
        assert render_single(decision, False) == decision.as_dict()
        error = {"error": "unknown principal 'x'", "code": "unknown-principal"}
        assert render_single(error, True) is error


class _Refs:
    """A wire state whose ``encode_refs`` answers fixed values."""

    def __init__(self, gen, base, delta, qid):
        self.refs = gen, base, delta, [qid]

    def encode_refs(self, queries):
        return self.refs


class TestRequestRenderer:
    @settings(max_examples=300, deadline=None)
    @given(
        TEXT.filter(bool),
        st.one_of(TEXT, st.integers(), st.booleans()),
        st.integers(min_value=0, max_value=1 << 80),
        st.integers(min_value=0, max_value=1 << 80),
        st.one_of(st.none(), st.lists(st.one_of(TEXT, st.lists(TEXT)), max_size=4)),
        st.booleans(), st.booleans(), st.booleans(),
    )
    def test_body_equals_json_dumps(
        self, gen, principal, qid, base, delta, peek, compact, trace
    ):
        flags = dict(peek=peek, compact=compact, trace=trace)
        state = _Refs(gen, base, delta, qid)
        data = client_wire.single_request(state, principal, None, **flags)
        body = client_wire.single_body(state, principal, None, **flags)
        assert data == json.dumps(body).encode()

    def test_the_clients_body_is_single_body_dumped(self, views, schema):
        service = DisclosureService(views, schema=schema)
        queries = [service.parse(text, "fql", 3) for text in (BIRTHDAY, MUSIC)]
        sent, reference = client_wire.WireState(), client_wire.WireState()
        reference.gen = sent.gen
        for index, query in enumerate(queries * 2):
            flags = dict(peek=index % 2 == 1, compact=index < 2, trace=index == 3)
            data = client_wire.single_request(
                sent, "café \"app\"", query, **flags
            )
            body = client_wire.single_body(
                reference, "café \"app\"", query, **flags
            )
            assert data == json.dumps(body).encode()
            # A 409 re-sends resync_body of the decoded bytes: the same
            # key order, so the same bytes as resyncing the dict.
            assert json.dumps(
                client_wire.resync_body(sent, json.loads(data))
            ) == json.dumps(client_wire.resync_body(reference, body))


def _service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


class TestHotGeneration:
    def test_evictions_match_an_lru_model(self, views, schema):
        service = _service(views, schema)
        key = encode_key(canonical_key(service.parse(BIRTHDAY, "fql", 3)))
        gateway = gateway_for(service)
        model: "OrderedDict[str, None]" = OrderedDict()
        # Runs of one generation, interleaved across far more than the cap.
        order = [f"g{(i * 7) % 150}" for i in range(600)]
        order = [gen for gen in order for _ in range(1 + len(gen) % 3)]
        for gen in order:
            known = gen in model
            status, payload = dispatch(service, "POST", "/v2/query", {
                "gen": gen, "base": 1 if known else 0,
                "delta": None if known else [key],
                "principal": "app", "qid": 0, "peek": True,
            })
            assert status == 200, payload
            model[gen] = None
            model.move_to_end(gen)
            while len(model) > GENERATION_CAP:
                model.popitem(last=False)
            assert list(gateway._generations) == list(model)

    def test_forget_all_then_resync(self, views, schema):
        service = _service(views, schema)
        query = service.parse(BIRTHDAY, "fql", 3)
        state = client_wire.WireState()
        for _ in range(2):
            data = client_wire.single_request(
                state, "app", query, peek=True, compact=True
            )
            assert dispatch(service, "POST", "/v2/query", json.loads(data))[0] == 200
        gateway_for(service).forget_all()
        data = client_wire.single_request(
            state, "app", query, peek=True, compact=True
        )
        status, payload = dispatch(service, "POST", "/v2/query", json.loads(data))
        assert (status, payload["code"]) == (409, "unknown-generation")
        retried = client_wire.resync_body(state, json.loads(data))
        status, payload = dispatch(service, "POST", "/v2/query", retried)
        assert status == 200 and payload[0] == 1

    def test_plane_rotation_between_two_requests(self, views, schema):
        service = _service(views, schema)
        twin = _service(views, schema)
        state = client_wire.WireState()
        texts = (BIRTHDAY, MUSIC, BIRTHDAY)
        for index, text in enumerate(texts):
            if index == 1:
                kernel = service.kernel  # a rotation mid-generation
                kernel.adopt_plane_epoch(kernel.plane.epoch + 1)
            query = service.parse(text, "fql", 3)
            body = client_wire.single_body(state, "app", query, peek=False,
                                           compact=False)
            status, payload = dispatch(service, "POST", "/v2/query", body)
            assert status == 200
            want = twin.submit("app", twin.parse(text, "fql", 3)).as_dict()
            assert {**payload, "cached": None} == {**want, "cached": None}
        assert service.kernel.plane.epoch > 0


class _Transport:
    def __init__(self):
        self.writes = []
        self.closed = False

    def set_write_buffer_limits(self, high=None, low=None):
        pass

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed


def _written(service, data):
    async def main():
        protocol = _HttpProtocol(AsyncDecisionServer(service))
        transport = _Transport()
        protocol.connection_made(transport)
        protocol.data_received(data)
        for _ in range(50):
            if transport.closed:
                break
            await asyncio.sleep(0)
        return transport

    return asyncio.run(main())


def _post(path, body, *, close=False):
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        + ("Connection: close\r\n" if close else "")
        + f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestFrontEndBytes:
    def test_compact_single_with_connection_close_is_answered(
        self, views, schema
    ):
        service = _service(views, schema)
        query = service.parse(BIRTHDAY, "fql", 3)
        data = client_wire.single_request(
            client_wire.WireState(), "app", query, peek=False, compact=True
        )
        transport = _written(service, _post("/v2/query", data, close=True))
        assert transport.closed
        (written,) = transport.writes
        head, body = written.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert json.loads(body)[0] == 1

    def test_only_small_heads_are_memoised(self, views, schema):
        async def main():
            server = AsyncDecisionServer(_service(views, schema))
            protocol = _HttpProtocol(server)
            protocol.connection_made(_Transport())
            small = b"GET /healthz HTTP/1.1\r\nHost: x"
            large = small + b"\r\nX-Pad: " + b"p" * 2048
            protocol.data_received(small + b"\r\n\r\n" + large + b"\r\n\r\n")
            for _ in range(5):
                await asyncio.sleep(0)
            return server.heads

        assert list(asyncio.run(main())) == [b"GET /healthz HTTP/1.1\r\nHost: x"]

    def test_a_body_led_by_nul_goes_through_json_loads(self, views, schema):
        service = DisclosureService(views, schema=schema)
        body = json.dumps(
            {"principal": "app", "policy": CHINESE_WALL}
        ).encode("utf-16-le")
        assert body[:2] == b"{\x00"
        transport = _written(service, _post("/v1/register", body, close=True))
        (written,) = transport.writes
        assert json.loads(written.split(b"\r\n\r\n", 1)[1]) == {
            "registered": "app", "partitions": 2,
        }
