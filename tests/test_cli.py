"""End-to-end CLI tests: exit codes, JSON output, traces."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from joinstate.cli import main

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


def path(rel):
    return str(PROGRAMS / rel)


class TestCheck:
    def test_accepted_exits_zero(self, capsys):
        assert main(["check", path("accepted/future-user.cob")]) == 0

    def test_json_does_not_depend_on_hash_seed(self):
        # Dependency clashes are found by walking sets of names, whose
        # iteration order follows the per-process string hash seed.
        src = str(PROGRAMS.parent / "src")
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "joinstate.cli", "check", "--json",
                 path("rejected/future-user-deadlock.cob")],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 1, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_rejected_exits_one_with_diagnostic(self, capsys):
        code = main(["check", path("rejected/future-user-deadlock.cob")])
        assert code == 1
        assert "IncompatibleDeps" in capsys.readouterr().err

    def test_json_report(self, capsys):
        main(["check", path("accepted/pi.cob"), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "accepted"
        assert {"verdict", "diagnostics", "objects", "boundedSubtypeUses"} <= set(data)

    def test_missing_file_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", path("no-such-file.cob")])
        assert exc.value.code == 64

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", path("accepted/pi.cob"), "--frobnicate"])
        assert exc.value.code == 64

    def test_parse_error_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cob"
        bad.write_text("new obj : [ in done")
        assert main(["check", str(bad)]) == 65


class TestRun:
    def test_terminated_prints_and_exits_zero(self, capsys):
        code = main(["run", path("accepted/future-user.cob"), "--seed", "2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["42"]

    def test_rejected_program_refused(self, capsys):
        assert main(["run", path("rejected/self-dependency.cob")]) == 1

    def test_no_typecheck_reaches_runtime_verdict(self, capsys):
        code = main([
            "run", path("rejected/future-user-deadlock.cob"), "--no-typecheck",
        ])
        assert code == 3

    def test_step_budget_exit_code(self, capsys):
        code = main([
            "run", path("accepted/sieve.cob"), "--max-steps", "5000",
        ])
        assert code == 4

    def test_monitor_violation_exit_code(self, tmp_path, capsys):
        src = "new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B"
        bad = tmp_path / "double.cob"
        bad.write_text(src)
        assert main(["run", str(bad), "--no-typecheck"]) == 2

    @pytest.mark.parametrize(
        "rel", ["rejected/extra-message.cob", "rejected/missing-message.cob"]
    )
    def test_incomplete_protocol_at_quiescence_exit_code(self, rel, capsys):
        assert main(["run", path(rel), "--no-typecheck"]) == 2
        assert "obj@1 ends with messages" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "src,typecheck",
        [
            ("System!Print(1 / 0)", True),
            ("System!Print(1 % 0)", True),
            ("System!Foo(1)", False),
            (
                "new obj : *Ping(#Number) [ Ping(n) |> System!Print(n) ]"
                " in System!Print(obj < 1)",
                False,
            ),
        ],
    )
    def test_runtime_fault_exit_code(self, tmp_path, capsys, src, typecheck):
        bad = tmp_path / "fault.cob"
        bad.write_text(src)
        argv = ["run", str(bad), "--json"]
        if not typecheck:
            argv.append("--no-typecheck")
        assert main(argv) == 5
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "RuntimeFault"
        assert data["violation"]

    def test_deep_nesting_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "deep.cob"
        bad.write_text(
            "new o : " + "(" * 3000 + "A" + ")" * 3000 + " [ A |> done ] in o!A"
        )
        assert main(["check", str(bad)]) == 65
        assert "nested more than" in capsys.readouterr().err

    def test_json_summary(self, capsys):
        main(["run", path("accepted/future-class.cob"), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "Terminated"
        assert data["outputs"] == [42.0, 42.0]

    def test_trace_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        main([
            "run", path("accepted/future-user.cob"), "--trace-json", str(out),
        ])
        events = json.loads(out.read_text())
        assert events and {"step", "kind", "obj", "tags", "detail"} <= set(events[0])
        assert any(e["kind"] == "print" for e in events)

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("JOINSTATE_SEED", "5")
        assert main(["run", path("accepted/future-user.cob")]) == 0


class TestExplain:
    def test_program_listing(self, capsys):
        code = main(["explain", path("accepted/future-user.cob"), "--deps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "type #FutureT" in out
        assert "live: yes" in out
        assert "pattern:" in out

    def test_parikh_lines(self, capsys):
        main(["explain", "--type", "*(A . B)", "--parikh"])
        out = capsys.readouterr().out
        assert "normal form:" in out
        assert "N·(" in out

    def test_standalone_type_facts(self, capsys):
        main(["explain", "--type", "1 + A", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["nullable"] is True
        assert data["usable"] is True

    def test_needs_input_or_type(self, capsys):
        assert main(["explain"]) == 64


class TestFuzz:
    def test_accepted_program_summary(self, capsys):
        code = main([
            "fuzz", path("accepted/future-class.cob"), "--seeds", "8",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["verdicts"] == {"Terminated": 8}
        assert data["violations"] == 0

    def test_rejected_program_needs_flag(self, capsys):
        assert main(["fuzz", path("rejected/future-user-deadlock.cob")]) == 1

    def test_expect_violation_mode(self, capsys):
        code = main([
            "fuzz", path("rejected/future-user-deadlock.cob"),
            "--seeds", "6", "--expect-violation",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"] == {"Deadlocked": 6}

    def test_runtime_fault_is_a_violation(self, tmp_path, capsys):
        bad = tmp_path / "fault.cob"
        bad.write_text("System!Print(1) & System!Print(1 / 0)")
        code = main(["fuzz", str(bad), "--seeds", "3", "--check-solution"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"] == {"RuntimeFault": 3}
        assert data["violations"] == 3

    def test_check_solution_mode(self, capsys):
        code = main([
            "fuzz", path("accepted/future-user.cob"),
            "--seeds", "4", "--check-solution",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["invariantFailures"] == 0
