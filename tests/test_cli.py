"""Tests for the ``python -m repro`` command-line interface."""

import io
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestLabelCommand:
    def test_sql_query(self):
        code, out = run_cli("label", "SELECT time FROM Meetings")
        assert code == 0
        assert "V1" in out and "V2" in out
        assert "required permissions: (V2)" in out

    def test_datalog_query(self):
        code, out = run_cli("label", "Q(x) :- Meetings(x, 'Cathy')")
        assert code == 0
        assert "required permissions: (V1)" in out

    def test_join_query(self):
        code, out = run_cli(
            "label",
            "SELECT m.time FROM Meetings m, Contacts c "
            "WHERE m.person = c.person",
        )
        assert code == 0
        assert "(V3) AND (V1)" in out or "(V1) AND (V3)" in out

    def test_custom_views_file(self, tmp_path):
        views_file = tmp_path / "views.datalog"
        views_file.write_text(
            "W1(a, b) :- Logs(a, b)\nW2(a) :- Logs(a, b)\n"
        )
        code, out = run_cli(
            "label", "W(a) :- Logs(a, b)", "--views", str(views_file)
        )
        assert code == 0
        assert "W1" in out and "W2" in out


class TestOtherCommands:
    def test_label_fql(self):
        code, out = run_cli(
            "label-fql",
            "SELECT birthday FROM user WHERE uid = me()",
            "--me", "3",
        )
        assert code == 0
        assert "user_birthday" in out

    def test_audit(self):
        code, out = run_cli("audit")
        assert code == 0
        assert "6 of 42" in out
        assert "relationship_status" in out

    def test_lattice(self):
        code, out = run_cli("lattice")
        assert code == 0
        assert "⇓{V5}" in out
        assert "digraph" in out

    def test_serve_options(self):
        import argparse

        from repro.__main__ import build_parser

        parser = build_parser()
        (commands,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(commands.choices["serve"]._option_string_actions) == {
            "-h", "--help", "--host", "--port", "--async", "--replicas",
            "--max-sessions", "--max-resident-sessions", "--spill-dir",
            "--cache-size", "--default-policy", "--state-dir",
            "--snapshot-interval", "--stage-sample-rate",
        }
        # --replicas stands alone; --async is accepted for old command
        # lines and changes nothing.
        assert parser.parse_args(["serve", "--replicas", "2"]).replicas == 2
        assert parser.parse_args(["serve", "--async"]).replicas == 1

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli("nope")


class TestSnapshotCommand:
    @pytest.fixture()
    def snapshot_file(self, tmp_path):
        from repro.server import DisclosureService
        from repro.server.persist import save_snapshot, snapshot_service

        service = DisclosureService()
        service.register("app1", [["public_profile"], ["user_likes"]])
        service.submit(
            "app1",
            service.parse("SELECT name FROM user WHERE uid = me()", "fql"),
        )
        return save_snapshot(
            tmp_path / "snap.json", snapshot_service(service)
        )

    def test_inspect(self, snapshot_file):
        code, out = run_cli("snapshot", "inspect", str(snapshot_file))
        assert code == 0
        assert "1 sessions" in out and "checksum ok" in out

    def test_load_restores_into_a_fresh_service(self, snapshot_file):
        code, out = run_cli("snapshot", "load", str(snapshot_file))
        assert code == 0
        assert "restored 1 sessions" in out
        assert "restore cleanly" in out

    def test_inspect_rejects_a_corrupt_file(self, snapshot_file):
        snapshot_file.write_text("{broken")
        code, out = run_cli("snapshot", "inspect", str(snapshot_file))
        assert code == 1
        assert "INVALID" in out and "truncated or not JSON" in out

    def test_save_pulls_from_a_running_server(self, tmp_path):
        from repro.server import DisclosureService, start_async_background

        service = DisclosureService()
        service.register("app1", [["public_profile"]])
        server = start_async_background(service)
        try:
            code, out = run_cli(
                "snapshot", "save",
                "--url", f"http://{server.host}:{server.port}",
                "--state-dir", str(tmp_path / "state"),
            )
        finally:
            server.stop()
        assert code == 0
        assert "snapshot-00000001.json" in out and "1 sessions" in out

    def test_save_without_url_is_a_usage_error(self):
        code, _ = run_cli("snapshot", "save")
        assert code == 2

    def test_missing_target_is_a_usage_error(self):
        code, _ = run_cli("snapshot", "inspect")
        assert code == 2

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli()


class TestScenarioCommand:
    def run_cli2(self, *argv):
        """run_cli plus captured stderr (scenario errors go there)."""
        import contextlib

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_list_names_every_scenario(self):
        code, out = run_cli("scenario", "list")
        assert code == 0
        for name in (
            "zipfian-steady", "policy-churn", "adversarial-probe",
            "flash-crowd",
        ):
            assert name in out
        assert "SLO" in out

    def test_compile_run_verify_cycle(self, tmp_path):
        trace = tmp_path / "zs.jsonl"
        code, out = run_cli(
            "scenario", "compile", "zipfian-steady",
            "--out", str(trace), "--events", "40", "--principals", "10",
            "--seed", "5",
        )
        assert code == 0
        assert "compiled zipfian-steady (seed 5)" in out
        assert trace.exists()

        code, out = run_cli("scenario", "verify", str(trace))
        assert code == 0
        assert "checksum ok" in out
        assert "byte-identically" in out

        code, out = run_cli("scenario", "run", "--trace", str(trace))
        assert code == 0
        assert "zipfian-steady" in out and "digest:" in out
        assert "0 errors" in out

    def test_run_named_scenario_with_slo_verdicts(self, tmp_path):
        hist = tmp_path / "hist.json"
        code, out = run_cli(
            "scenario", "run", "adversarial-probe",
            "--events", "40", "--principals", "10",
            "--hist-out", str(hist),
        )
        assert code == 0
        assert "[ok]" in out and "FAIL" not in out
        import json as json_module

        payload = json_module.loads(hist.read_text())
        assert payload["scenario"] == "adversarial-probe"
        assert payload["latency"]["count"] > 0

    def test_run_all_writes_one_artifact_per_scenario(self, tmp_path):
        hist_dir = tmp_path / "hist"
        code, out = run_cli(
            "scenario", "run", "--all",
            "--events", "30", "--principals", "8",
            "--hist-dir", str(hist_dir),
        )
        assert code == 0
        assert sorted(p.name for p in hist_dir.iterdir()) == [
            "adversarial-probe.json", "flash-crowd.json",
            "policy-churn.json", "restart-mid-stream.json",
            "zipfian-steady.json",
        ]

    def test_run_gates_on_check_floors(self, tmp_path):
        import json as json_module

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json_module.dumps({
            "scenarios": {
                "zipfian-steady": {
                    "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0,
                }
            }
        }))
        code, out, err = self.run_cli2(
            "scenario", "run", "zipfian-steady",
            "--events", "30", "--principals", "8",
            "--check", str(baseline),
        )
        assert code == 1
        assert "FAIL" in out
        assert "SLO GATE FAILED" in err

    def test_unknown_scenario_name_is_a_usage_error(self):
        code, _, err = self.run_cli2("scenario", "run", "no-such")
        assert code == 2
        assert "unknown scenario" in err and "zipfian-steady" in err

    def test_verify_missing_trace_file_fails_typed(self, tmp_path):
        code, _, err = self.run_cli2(
            "scenario", "verify", str(tmp_path / "missing.jsonl")
        )
        assert code == 1
        assert "INVALID" in err and "cannot read" in err

    def test_verify_corrupt_trace_fails_typed(self, tmp_path):
        trace = tmp_path / "zs.jsonl"
        code, _ = run_cli(
            "scenario", "compile", "zipfian-steady",
            "--out", str(trace), "--events", "20", "--principals", "6",
        )
        assert code == 0
        data = trace.read_bytes().splitlines(keepends=True)
        trace.write_bytes(b"".join(data[:-2]))  # truncate two events
        code, _, err = self.run_cli2("scenario", "verify", str(trace))
        assert code == 1
        assert "INVALID" in err and "truncated" in err

    def test_compile_without_out_is_a_usage_error(self):
        code, _, err = self.run_cli2("scenario", "compile", "zipfian-steady")
        assert code == 2
        assert "--out" in err

    def test_run_without_names_is_a_usage_error(self):
        code, _, err = self.run_cli2("scenario", "run")
        assert code == 2
        assert "NAME" in err

    def test_http_transport_without_url_is_a_usage_error(self):
        code, _, err = self.run_cli2(
            "scenario", "run", "zipfian-steady",
            "--events", "10", "--principals", "4", "--transport", "http",
        )
        assert code == 2
        assert "--url" in err

    def test_help_documents_the_actions(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("scenario", "--help")
        assert excinfo.value.code == 0
