"""WIRE01 on seeded corpora: frame parity, reason-map coverage,
compact-row arity, and client error exports."""

from __future__ import annotations

POOL_GOOD = '''
def _encode(frame):
    return b""

class Pool:
    def dispatch(self, handle):
        frame = ["batch", True, []]
        handle.conn.send_bytes(_encode(frame))
        self._roundtrip(handle, ["metrics"])
        self._roundtrip(handle, ["stop"])

    def _check(self, reply):
        if not reply or reply[0] != "ok":
            raise RuntimeError(reply)
        if reply[0] == "err":
            raise RuntimeError(reply[1])
        return reply

def _replica_worker_main(conn):
    while True:
        kind = conn.recv()[0]
        if kind == "batch":
            reply = ["ok", [], []]
        elif kind == "metrics":
            reply = ["ok", {}]
        elif kind == "stop":
            break
        else:
            reply = ["err", "unknown"]
        conn.send(reply)
'''


def test_matched_catalogue_is_clean(corpus):
    corpus.write("pool.py", POOL_GOOD)
    assert corpus.by_rule(pool_module="pool").get("WIRE01", []) == []


def test_parent_frame_the_worker_never_handles(corpus):
    corpus.write(
        "pool.py",
        POOL_GOOD + '''
class Admin:
    def rollover(self, handle):
        self._admin(handle, ["rollover", 7])
''',
    )
    findings = corpus.by_rule(pool_module="pool")["WIRE01"]
    assert len(findings) == 1
    assert "'rollover'" in findings[0].message
    assert "never handled by the replica worker" in findings[0].message


def test_worker_reply_the_parent_never_matches(corpus):
    corpus.write(
        "pool.py",
        POOL_GOOD.replace(
            'reply = ["err", "unknown"]',
            'reply = ["fatal", "unknown"]',
        ),
    )
    findings = corpus.by_rule(pool_module="pool")["WIRE01"]
    assert len(findings) == 1
    assert "'fatal'" in findings[0].message
    assert "never matched by the parent" in findings[0].message


def test_handled_but_never_sent_is_tolerated(corpus):
    corpus.write(
        "pool.py",
        POOL_GOOD.replace(
            'elif kind == "stop":',
            'elif kind in ("stop", "drain"):',
        ),
    )
    assert corpus.by_rule(pool_module="pool").get("WIRE01", []) == []


POOL_ROWS = '''
def _worker_batch(results):
    rows = []
    for result in results:
        rows.append(
            [result.accepted, result.cached, result.before, result.after, 0]
        )
    return ["ok", rows, ["reason"]]

class Pool:
    def _absorb(self, reply):
        _, rows, reasons = reply
        for row in rows:
            accepted, cached, before, after, reason = row
'''


def test_pool_row_arity_match_is_clean(corpus):
    corpus.write("pool.py", POOL_GOOD + POOL_ROWS)
    assert corpus.by_rule(pool_module="pool").get("WIRE01", []) == []


def test_pool_row_the_parent_reads_at_another_arity(corpus):
    corpus.write(
        "pool.py",
        POOL_GOOD + POOL_ROWS.replace("result.after, 0]", "result.after]"),
    )
    findings = corpus.by_rule(pool_module="pool")["WIRE01"]
    assert len(findings) == 1
    assert "pool-row arity mismatch" in findings[0].message
    assert "_worker_batch renders 4 fields" in findings[0].message
    assert "_absorb unpacks 5" in findings[0].message


def test_status_without_reason_phrase(corpus):
    corpus.write(
        "aio.py",
        '''
        _REASON = {200: "OK", 400: "Bad Request"}

        def status_line(status):
            return f"HTTP/1.1 {status} {_REASON.get(status, 'OK')}"

        def fail():
            return 503, {"error": "overloaded"}
        ''',
    )
    findings = corpus.by_rule(aio_module="aio")["WIRE01"]
    assert len(findings) == 1
    assert "status 503" in findings[0].message


def test_covered_statuses_are_clean(corpus):
    corpus.write(
        "aio.py",
        '''
        _REASON = {200: "OK", 503: "Service Unavailable"}

        def fail():
            return 503, {"error": "overloaded"}
        ''',
    )
    assert corpus.by_rule(aio_module="aio").get("WIRE01", []) == []


def test_compact_row_arity_mismatch(corpus):
    corpus.write(
        "wire2.py",
        '''
        def render_single(decision):
            return [decision.accepted, decision.reason, decision.live]
        ''',
    )
    corpus.write(
        "cwire.py",
        '''
        def inflate_single(row):
            accepted, reason = row
            return accepted, reason
        ''',
    )
    findings = corpus.by_rule(
        wire2_module="wire2", client_wire_module="cwire"
    )["WIRE01"]
    assert len(findings) == 1
    assert "renders 3 fields" in findings[0].message
    assert "unpacks 2" in findings[0].message


def test_compact_row_arity_match_is_clean(corpus):
    corpus.write(
        "wire2.py",
        '''
        def render_single(decision):
            return [decision.accepted, decision.reason, decision.live]
        ''',
    )
    corpus.write(
        "cwire.py",
        '''
        def inflate_single(row):
            accepted, reason, live = row
            return accepted, reason, live
        ''',
    )
    assert corpus.by_rule(
        wire2_module="wire2", client_wire_module="cwire"
    ).get("WIRE01", []) == []


def test_unexported_client_error_subclass(corpus):
    corpus.write(
        "clientpkg/__init__.py",
        '''
        from clientpkg.errors import ClientError

        __all__ = ["ClientError"]
        ''',
    )
    corpus.write(
        "clientpkg/errors.py",
        '''
        class ClientError(Exception):
            pass

        class StallError(ClientError):
            pass
        ''',
    )
    findings = corpus.by_rule(client_package="clientpkg")["WIRE01"]
    assert len(findings) == 1
    assert "StallError" in findings[0].message
    assert "not exported" in findings[0].message


def test_exported_subclasses_are_clean(corpus):
    corpus.write(
        "clientpkg/__init__.py",
        '''
        from clientpkg.errors import ClientError, StallError

        __all__ = ["ClientError", "StallError"]
        ''',
    )
    corpus.write(
        "clientpkg/errors.py",
        '''
        class ClientError(Exception):
            pass

        class StallError(ClientError):
            pass
        ''',
    )
    assert corpus.by_rule(client_package="clientpkg").get("WIRE01", []) == []
