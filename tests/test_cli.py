"""End-to-end CLI tests: exit codes, JSON output, traces."""

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from joinstate.cli import main
from joinstate.desugar import load_program
from joinstate.runtime import Soup, run

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


def path(rel):
    return str(PROGRAMS / rel)


# A rule that uses four objects of the enclosing scope, two per branch.
OUTER_SCOPE = """
new a : *Ping [ Ping |> done ] in
new b : *Ping [ Ping |> done ] in
new c : *Ping [ Ping |> done ] in
new d : *Ping [ Ping |> done ] in
new o : Go(#Number) [
    Go(n) |> if n < 1 then a!Ping & b!Ping else c!Ping & d!Ping
] in o!Go(0)
"""


def assert_usage_error(argv, capsys, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert message in capsys.readouterr().err


class TestCheck:
    def test_accepted_exits_zero(self, capsys):
        assert main(["check", path("accepted/future-user.cob")]) == 0

    def test_json_does_not_depend_on_hash_seed(self, tmp_path):
        # Dependency clashes and names used from an enclosing scope are
        # found by walking collections of names, whose set iteration order
        # would follow the per-process string hash seed.
        outer = tmp_path / "outer-scope.cob"
        outer.write_text(OUTER_SCOPE)
        src = str(PROGRAMS.parent / "src")
        for program in (path("rejected/future-user-deadlock.cob"), str(outer)):
            outputs = set()
            for seed in ("0", "1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                proc = subprocess.run(
                    [sys.executable, "-m", "joinstate.cli", "check", "--json",
                     program],
                    capture_output=True, text=True, env=env, check=False,
                )
                assert proc.returncode == 1, proc.stderr
                outputs.add(proc.stdout)
            assert len(outputs) == 1, program

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

    def test_negative_bound_is_usage_error(self, capsys):
        assert_usage_error(
            ["check", path("accepted/pi.cob"), "--bound", "-1"],
            capsys, "--bound: must be at least 0",
        )

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", path("accepted/pi.cob"), "--frobnicate"])
        assert exc.value.code == 64

    def test_parse_error_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cob"
        bad.write_text("new obj : [ in done")
        assert main(["check", str(bad)]) == 65

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize(
        "src,col", [("System!Print(²)", 14), ("System!Print(1²)", 15)]
    )
    def test_superscript_digit_is_a_parse_error(
        self, tmp_path, capsys, command, src, col
    ):
        bad = tmp_path / "sup.cob"
        bad.write_text(src, encoding="utf-8")
        assert main([command, str(bad)]) == 65
        assert f"1:{col}: unexpected character '²'" in capsys.readouterr().err

    def test_decimal_digit_of_any_script_is_a_number(self, tmp_path, capsys):
        src = tmp_path / "arabic.cob"
        src.write_text("System!Print(٣)", encoding="utf-8")
        assert main(["check", str(src)]) == 0
        assert main(["run", str(src)]) == 0
        assert capsys.readouterr().out.splitlines() == ["3"]

    # A tag with two arities in one subtype question: in a declared type,
    # in a subtype check between #A and #B, and on the way to a run.
    MIXED_ARITY = "new o : M(N) . M [ M(x) |> done ] in done"
    MIXED_ARITY_SUBTYPE = """
    type #A = M(N) and #B = M
    new k : K(#B) [ K(x) |> x!M ] in
    new a : #A [ M(n) |> done ] in
    k!K(a)
    """

    @pytest.mark.parametrize(
        "argv,src",
        [
            (["explain", "--type", "M(A) . M", "--parikh"], None),
            (["check"], MIXED_ARITY),
            (["check"], MIXED_ARITY_SUBTYPE),
            (["run", "--no-typecheck"], MIXED_ARITY),
        ],
        ids=["explain-type", "check-decl", "check-subtype", "run-unchecked"],
    )
    def test_mixed_tag_arities_are_a_data_error(self, tmp_path, capsys, argv, src):
        if src is not None:
            bad = tmp_path / "arity.cob"
            bad.write_text(src)
            argv = [*argv, str(bad)]
        assert main(argv) == 65
        assert capsys.readouterr().err == (
            "joinstate: tag M used with inconsistent arities\n"
        )

    @pytest.mark.parametrize("command", ["check", "run", "explain"])
    def test_non_utf8_source_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.cob"
        bad.write_bytes(b"done \xff")
        with pytest.raises(SystemExit) as exc:
            main([command, str(bad)])
        assert exc.value.code == 65
        err = capsys.readouterr().err
        assert err.startswith(f"joinstate: {bad}: ") and "0xff" in err


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
        for src in (
            "new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B",
            # An anonymous block past the slot's last argument.
            "new o : M(#Number) [ M(n) |> done ] in o!M(1, [ R |> done ])",
        ):
            bad = tmp_path / "bad.cob"
            bad.write_text(src)
            assert main(["run", str(bad), "--no-typecheck"]) == 2, src

    # A pattern binding more arguments than A carries leaves its variables,
    # z too, undeclared: the reply to z.Get is outside z's protocol 1.
    ARITY_MISMATCHED_PATTERN = """
    type #G = Get(Reply(#Number))
    new o : 1 + A(#Number) . C(#G) [
        A(x, y) & C(z) |> let v = z.Get in System!Print(v)
    ] in
    new g : *#G [ Get(r) |> r!Reply(7) ] in
    o!A(1) & o!C(g)
    """

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_rejected_pattern_leaves_variables_undeclared(
        self, tmp_path, capsys, seed
    ):
        bad = tmp_path / "bad.cob"
        bad.write_text(self.ARITY_MISMATCHED_PATTERN)
        assert main(["check", str(bad)]) == 1
        assert "AritySumError" in capsys.readouterr().err
        assert main(["run", str(bad), "--no-typecheck", "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "verdict: MonitorViolation (cont@3 holds messages [Reply] outside"
            " its protocol 1) after 2 steps"
        )

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

    def test_seed_env_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("JOINSTATE_SEED", "abc")
        assert_usage_error(
            ["run", path("accepted/future-user.cob")],
            capsys, "JOINSTATE_SEED must be an integer",
        )

    def test_negative_max_steps_is_usage_error(self, capsys):
        assert_usage_error(
            ["run", path("accepted/future-user.cob"), "--max-steps", "-1"],
            capsys, "--max-steps: must be at least 0",
        )


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

    def test_no_seeds_is_usage_error(self, capsys):
        assert_usage_error(
            ["fuzz", path("accepted/future-class.cob"), "--seeds", "-3"],
            capsys, "--seeds: must be at least 1",
        )

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

    # One step of a race: A(0) faults and A(1), A(2) do not, so the
    # verdicts depend on which seeds run.
    RACE = (
        "new o : *A(#Number) [ A(n) |> System!Print(1 / n) ]"
        " in o!A(0) & o!A(1) & o!A(2)"
    )

    def test_seed_picks_the_first_seed(self, tmp_path, capsys, monkeypatch):
        race = tmp_path / "race.cob"
        race.write_text(self.RACE)
        program = load_program(self.RACE)

        def summary(*flags):
            main(["fuzz", str(race), "--seeds", "4", "--max-steps", "1", *flags])
            data = json.loads(capsys.readouterr().out)
            first = data["firstSeed"]
            assert data["verdicts"] == Counter(
                run(program, seed=s, max_steps=1).verdict
                for s in range(first, first + 4)
            )
            return data

        monkeypatch.delenv("JOINSTATE_SEED", raising=False)
        assert summary()["firstSeed"] == 0
        at3, at9 = summary("--seed", "3"), summary("--seed", "9")
        assert (at3["firstSeed"], at9["firstSeed"]) == (3, 9)
        assert at3["verdicts"] != at9["verdicts"]
        monkeypatch.setenv("JOINSTATE_SEED", "9")
        assert summary() == at9

    def test_check_solution_mode(self, capsys, monkeypatch):
        # Each seed is one run that also tests the invariant.
        inits = Counter()
        init = Soup.__init__

        def counted(soup, *args, **kwargs):
            inits["soup"] += 1
            init(soup, *args, **kwargs)

        monkeypatch.setattr(Soup, "__init__", counted)
        code = main([
            "fuzz", path("accepted/future-user.cob"),
            "--seeds", "4", "--check-solution",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["invariantFailures"] == 0
        assert inits["soup"] == 4

    # Two As against a one-A protocol break the invariant from the start,
    # which the monitors report at once.
    @pytest.mark.parametrize(
        "monitors,verdicts,code",
        [("on", {"MonitorViolation": 3}, 0), ("off", {"Terminated": 3}, 1)],
        ids=["monitors-on", "monitors-off"],
    )
    def test_invariant_failures_are_counted(
        self, tmp_path, capsys, monitors, verdicts, code
    ):
        bad = tmp_path / "twice.cob"
        bad.write_text("new o : A [ A |> done ] in o!A & o!A")
        assert main([
            "fuzz", str(bad), "--expect-violation", "--check-solution",
            "--seeds", "3", "--monitors", monitors,
        ]) == code
        data = json.loads(capsys.readouterr().out)
        assert data["invariantFailures"] == 3
        assert data["verdicts"] == verdicts
