"""End-to-end CLI tests: exit codes, JSON output, traces."""

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from joinstate import runtime
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

    # A tag's messages of different arities are different slots, so a
    # program that mixes them gets an ordinary verdict with positions: a
    # send or pattern that does not pin down its slot is AmbiguousArgs.
    MIXED_ARITY = "new o : M(N) . M [ M(x) |> done ] in done"
    MIXED_ARITY_SUBTYPE = """
    type #A = M(N) and #B = M
    new k : K(#B) [ K(x) |> x!M ] in
    new a : #A [ M(n) |> done ] in
    k!K(a)
    """
    MIXED_ARITY_PATTERN = (
        "type #A = M(#Number) . M\n"
        "new o : #A [ M(n) & M |> done ] in o!M(1) & o!M"
    )
    MIXED_ARITY_ACCEPTED = (
        "type #T = 1 + A . M(#Number) + B . M\n"
        "new o : #T [ A & M(x) |> done | B & M |> done ] in o!(A & M(1))"
    )
    # A user CLOSURE(#Number) slot meets the CLOSURE(A, A) of the
    # continuation that captures a and b.
    MIXED_ARITY_CLOSURE = """type #R = Reply(#Number) . CLOSURE(#Number)
and #S = *Get(#R)
new s : #S [ Get(r) |> r!Reply(1) & r!CLOSURE(2) ] in
new a : *A [ A |> done ] in new b : *A [ A |> done ] in
    let n = s.Get in a!A & b!A & System!Print(n)
"""

    @pytest.mark.parametrize(
        "argv,src,code,lines",
        [
            (["explain", "--type", "M(A) . M", "--parikh"], None, 0,
             ["parikh: M + M(A)"]),
            (["check"], MIXED_ARITY, 1, ["1:1: AmbiguousArgs: "]),
            (["check"], MIXED_ARITY_SUBTYPE, 1,
             ["4:5: ProtocolViolation: usage of a#3: #B does not refine #A"]),
            (["check"], MIXED_ARITY_PATTERN, 1,
             ["2:1: AmbiguousArgs: rule M & M of o#1"]),
            (["check"], MIXED_ARITY_ACCEPTED, 0, ["verdict: accepted"]),
            (["check"], MIXED_ARITY_CLOSURE, 1, ["5:5: "] * 3),
            (["run", "--no-typecheck"], MIXED_ARITY, 2,
             ["verdict: MonitorViolation (o@1 ends with messages []"]),
        ],
        ids=[
            "explain-type", "check-decl", "check-subtype", "check-pattern",
            "check-accepted", "check-closure", "run-unchecked",
        ],
    )
    def test_mixed_tag_arities_get_a_verdict(
        self, tmp_path, capsys, argv, src, code, lines
    ):
        if src is not None:
            prog = tmp_path / "arity.cob"
            prog.write_text(src)
            argv = [*argv, str(prog)]
        assert main(argv) == code
        # A verdict prints to stdout, rejection diagnostics to stderr.
        out = "".join(capsys.readouterr())
        assert "joinstate:" not in out
        # Each expected line starts some output line, in order.
        found = iter(out.splitlines())
        for want in lines:
            assert any(line.startswith(want) for line in found), out

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

    def test_rule_taking_two_of_a_thousand_payloads(self, tmp_path, capsys):
        # A(x) & A(y) draws from 1,500 distinct A payloads at the end.
        src = tmp_path / "many-payloads.cob"
        src.write_text(
            "type #Sink = *A(#Number) . *GO and #Gen = *G(#Number, #Sink)\n"
            "new o : #Sink [ A(x) & A(y) & GO |> System!Print(x + y) ] in\n"
            "new gen : #Gen [ G(n, s) |> if n = 0 then s!GO"
            " else s!A(n) & gen!G(n - 1, s) ] in\n"
            "gen!G(1500, o)\n"
        )
        for seed, total in (("0", "1736"), ("1", "482")):
            code = main(["run", str(src), "--seed", seed])
            out, err = capsys.readouterr()
            assert code == 0
            assert out.splitlines() == [total]
            assert err.splitlines() == ["verdict: Terminated after 1502 steps"]

    def test_printed_boolean(self, tmp_path, capsys):
        src = tmp_path / "bool.cob"
        src.write_text("System!Print(7 = 7) & System!Print(1 < 0)")
        trace = tmp_path / "trace.json"
        assert main(["run", str(src), "--no-typecheck",
                     "--trace-json", str(trace)]) == 0
        assert capsys.readouterr().out.splitlines() == ["true", "false"]
        details = [e["detail"] for e in json.loads(trace.read_text())]
        assert details == ["true", "false"]
        assert main(["run", str(src), "--no-typecheck", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"] == [True, False]

    def test_rejected_program_refused(self, capsys):
        assert main(["run", path("rejected/self-dependency.cob")]) == 1

    def test_no_typecheck_reaches_runtime_verdict(self, capsys):
        code = main([
            "run", path("rejected/future-user-deadlock.cob"), "--no-typecheck",
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "decl,send,code,verdict",
        [
            # The leftover M carries no argument, unlike the relevant slot.
            ("1 + M + M(Reply(#Number))", "o!M", 0, "Terminated"),
            # Of the relevant slot's arity, but it carries a number, which
            # nobody waits on.
            ("1 + M(#Number) + M(Reply(#Number))", "o!M(5)", 0, "Terminated"),
            # An object at the relevant argument waits forever.
            ("1 + M(#Number) + M(Reply(#Number))",
             "new k : 1 + Reply(#Number) [ Reply(n) |> done ] in o!M(k)", 3,
             "Deadlocked (o@1)"),
        ],
    )
    def test_deadlock_respects_the_leftover_arity(
        self, tmp_path, capsys, decl, send, code, verdict
    ):
        src = tmp_path / "left.cob"
        src.write_text(f"new o : {decl} [ A |> done ] in {send}")
        assert main(["run", str(src), "--no-typecheck"]) == code
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"verdict: {verdict} after 0 steps"
        )

    def test_step_budget_exit_code(self, capsys):
        code = main([
            "run", path("accepted/sieve.cob"), "--max-steps", "5000",
        ])
        assert code == 4

    # A soup that quiesces on its last allowed step gets the verdict it
    # gets with no budget, not StepBudgetExhausted.
    @pytest.mark.parametrize(
        "rel,steps,code,verdict",
        [
            ("accepted/future-user.cob", 3, 0, "Terminated"),
            ("rejected/future-user-deadlock.cob", 1, 3,
             "Deadlocked (future@1, user@2)"),
            ("rejected/mutual-dependency.cob", 0, 3, "Deadlocked (obj1@1, obj2@2)"),
        ],
    )
    def test_quiescence_on_the_last_allowed_step(
        self, capsys, rel, steps, code, verdict
    ):
        argv = ["run", path(rel), "--no-typecheck"]
        assert main(argv) == code
        unbudgeted = capsys.readouterr().err.splitlines()[-1]
        assert unbudgeted == f"verdict: {verdict} after {steps} steps"
        assert main([*argv, "--max-steps", str(steps)]) == code
        assert capsys.readouterr().err.splitlines()[-1] == unbudgeted

    def test_monitor_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cob"
        bad.write_text("new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B")
        assert main(["run", str(bad), "--no-typecheck"]) == 2

    # A pattern binding more arguments than A carries leaves its variables,
    # z too, undeclared; the run faults when the pattern takes A.
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
        assert main(["run", str(bad), "--no-typecheck", "--seed", seed]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "verdict: RuntimeFault (RuntimeError_: message A/1 taken by a"
            " pattern A/2) after 1 steps"
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
            ("new o : 1 + A(#Number) [ A(n) |> n!B ] in o!A(1)", False),
            ("new o : *M(#Number) [ M(x) |> System!Print(x) ] in o!M", False),
            # An anonymous block past the pattern's last argument.
            ("new o : M(#Number) [ M(n) |> done ] in o!M(1, [ R |> done ])", False),
            # Pow outside its domain, and objects passed to builtins as
            # numbers.
            (
                "new o : *Reply(#Number) [ Reply(x) |> System!Print(x) ]"
                " in Number!Pow(-8, 0.5, o)",
                True,
            ),
            (
                "new o : *Reply(#Number) [ Reply(x) |> System!Print(x) ]"
                " in Number!Pow(o, 2, o)",
                False,
            ),
            (
                "new o : *Reply(#Number) [ Reply(x) |> System!Print(x) ]"
                " in System!Print(o)",
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

    @pytest.mark.parametrize(
        "cond,shown",
        [
            ("1", "1"),
            ("a", "a@1"),
        ],
    )
    def test_unchecked_condition_must_be_a_boolean(
        self, tmp_path, capsys, cond, shown
    ):
        # Branching by Python truthiness took the then branch of both.
        bad = tmp_path / "cond.cob"
        bad.write_text(
            "new a : *Ping [ Ping |> done ] in"
            f" if {cond} then System!Print(1) else System!Print(2)"
        )
        assert main(["check", str(bad)]) == 1
        assert "condition must be a boolean" in capsys.readouterr().err
        assert main(["run", str(bad), "--no-typecheck"]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert (
            "RuntimeFault (RuntimeError_: condition must be a boolean, "
            f"got {shown}) after 0 steps" in err
        )

    @pytest.mark.parametrize(
        "expr",
        [
            "N * N",
            "N + N",
            "0 - N - N",
            "N / 0.1",
            "(N * N) - (N * N)",
        ],
    )
    def test_overflow_is_a_runtime_fault(self, tmp_path, capsys, expr):
        # A float overflowed to inf (or nan) silently, and `--json` then
        # wrote Infinity or NaN, which JSON does not allow.
        bad = tmp_path / "overflow.cob"
        bad.write_text(f"System!Print({expr.replace('N', '9' * 308)})")
        assert main(["run", str(bad), "--json"]) == 5

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert data["verdict"] == "RuntimeFault"
        assert data["violation"].startswith("OverflowError: ")
        assert data["outputs"] == []

    def test_number_too_large_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.cob"
        bad.write_text("System!Print(" + "9" * 400 + ")")
        assert main(["run", str(bad), "--no-typecheck"]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "joinstate: 1:14: number too large\n"
        # The largest literal a float holds still reads as a number.
        bad.write_text("System!Print(" + "9" * 308 + ")")
        assert main(["run", str(bad)]) == 0

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

    def test_unwritable_trace_is_a_cantcreat_error(self, tmp_path, capsys):
        # Writing the trace raised FileNotFoundError, a traceback and exit 1.
        out = tmp_path / "missing" / "trace.json"
        argv = ["run", path("accepted/future-user.cob"), "--trace-json", str(out)]
        assert main(argv) == 73
        err = capsys.readouterr().err
        assert err == f"joinstate: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_unwritable_trace_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # The path was first opened after the whole run, so a bad one cost
        # up to --max-steps steps before exit 73.
        inits = Counter()
        init = Soup.__init__

        def counted(soup, *args, **kwargs):
            inits["soup"] += 1
            init(soup, *args, **kwargs)

        monkeypatch.setattr(Soup, "__init__", counted)
        out = tmp_path / "missing" / "trace.json"
        argv = ["run", path("accepted/sieve.cob"), "--trace-json", str(out)]
        assert main(argv) == 73
        assert inits["soup"] == 0
        assert capsys.readouterr().out == ""

    def test_trace_file_holds_the_runs_events(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        src = path("accepted/future-class.cob")
        assert main(["run", src, "--seed", "3", "--trace-json", str(out)]) == 0
        program = load_program(pathlib.Path(src).read_text(), src)
        events = [vars(e) for e in run(program, seed=3, trace=True).trace]
        assert out.read_text() == json.dumps(events, indent=2)

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
        code = main(["explain", path("accepted/future-user.cob")])
        assert code == 0
        out = capsys.readouterr().out
        assert "type #FutureT" in out
        assert "live: yes" in out
        assert "pattern:" in out

    def test_lists_only_declared_types(self, capsys):
        # The builtin #Bool and #Number are not the program's declarations.
        assert main(["explain", path("accepted/future-user.cob")]) == 0
        types = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("type ")]
        assert [ln.split(" = ")[0] for ln in types] == ["type #FutureT", "type #UserT"]
        assert main(["explain", path("accepted/future-user.cob"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data["types"]) == ["#FutureT", "#UserT"]

    def test_program_parikh_text(self, capsys):
        code = main(["explain", path("accepted/future-user.cob"), "--parikh"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("type #FutureT ="))
        assert lines[at + 1:at + 3] == [
            "  parikh: RESOLVED(#Number) + N·(Get(Reply(#Number)))",
            "  parikh: EMPTY + Resolve(#Number) + N·(Get(Reply(#Number)))",
        ]

    def test_program_parikh_json(self, capsys):
        code = main(["explain", path("accepted/future-user.cob"), "--parikh",
                     "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["types"]["#FutureT"]["parikh"] == [
            "RESOLVED(#Number) + N·(Get(Reply(#Number)))",
            "EMPTY + Resolve(#Number) + N·(Get(Reply(#Number)))",
        ]

    def test_rejected_program_json(self, capsys):
        code = main(["explain", path("rejected/mutual-dependency.cob"), "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "rejected"
        assert data["diagnostics"] == [{
            "code": "IncompatibleDeps",
            "message": "objects obj1#1 and obj2#3 may wait on each other",
        }]

    def test_deps_flag_is_gone(self, capsys):
        assert_usage_error(
            ["explain", path("accepted/future-user.cob"), "--deps"],
            capsys, "unrecognized arguments: --deps",
        )

    def test_parikh_lines(self, capsys):
        main(["explain", "--type", "*(A . B)", "--parikh"])
        out = capsys.readouterr().out
        assert "normal form:" in out
        assert "N·(" in out

    def test_parikh_period_with_a_count_above_one(self, capsys):
        assert main(["explain", "--type", "*(A . A)", "--parikh"]) == 0
        assert "parikh: ⟨⟩ + N·(2·A)\n" in capsys.readouterr().out

    def test_star_image_is_one_component(self, capsys):
        # A, taken any number of times, is a period beside *B's.
        assert main(["explain", "--type", "*(A + *B)", "--parikh"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("parikh:")] == [
            "parikh: ⟨⟩ + N·(B) + N·(A)"
        ]

    @pytest.mark.parametrize(
        "expr,message",
        [("A +", "1:4: expected a type, found ''"),
         ("#Foo", "1:1: unknown type name #Foo"),
         ("A . #Foo", "1:5: unknown type name #Foo"),
         ("#Number . *#Bar", "1:12: unknown type name #Bar")],
    )
    def test_bad_standalone_type_is_a_data_error(self, capsys, expr, message):
        assert main(["explain", "--type", expr]) == 65
        assert capsys.readouterr().err == f"joinstate: {message}\n"

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

    def test_seeds_share_one_compiled_program(self, capsys, monkeypatch):
        # Each `new` node is declared once, however many seeds run.
        calls = Counter()
        resolve = runtime.resolve_closure_types

        def counted(checker, p):
            calls[id(p)] += 1
            return resolve(checker, p)

        monkeypatch.setattr(runtime, "resolve_closure_types", counted)
        src = path("accepted/future-class.cob")
        assert main(["fuzz", src, "--seeds", "20", "--check-solution"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == {"Terminated": 20}
        assert set(calls.values()) == {1}
        # As many nodes as one compile declares.
        nodes = len(calls)
        calls.clear()
        runtime.Plan(load_program(pathlib.Path(src).read_text(), src))
        assert len(calls) == nodes > 1

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
