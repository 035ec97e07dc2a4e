"""Checker tests: the program corpus plus targeted unit cases."""

import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest

from joinstate import semilinear
from joinstate.checker import check_program
from joinstate.core import If, NewObj, Par
from joinstate.desugar import load_program
from joinstate.runtime import Soup, run

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
MANIFEST = json.loads((PROGRAMS / "manifest.json").read_text())
CORPUS = MANIFEST["accepted"] + sorted(MANIFEST["rejected"])


def check_source(src):
    return check_program(load_program(src))


def news(p):
    """Every object definition in a core process."""
    if isinstance(p, NewObj):
        yield p
        for rule in p.rules:
            yield from news(rule.body)
        yield from news(p.body)
    elif isinstance(p, Par):
        for q in p.parts:
            yield from news(q)
    elif isinstance(p, If):
        yield from news(p.then)
        yield from news(p.els)


def check_file(rel):
    path = PROGRAMS / rel
    return check_program(load_program(path.read_text(), str(path)))


class TestCorpus:
    @pytest.mark.parametrize("rel", MANIFEST["accepted"])
    def test_accepted(self, rel):
        report = check_file(rel)
        assert report.verdict == "accepted", [str(d) for d in report.diagnostics]

    @pytest.mark.parametrize("rel,code", sorted(MANIFEST["rejected"].items()))
    def test_rejected_with_expected_code(self, rel, code):
        report = check_file(rel)
        assert report.verdict == "rejected"
        assert set(report.codes()) == {code}, [str(d) for d in report.diagnostics]

    @pytest.mark.parametrize("rel", CORPUS)
    def test_program_left_as_loaded(self, rel):
        path = PROGRAMS / rel
        program = load_program(path.read_text(), str(path))
        decls = [(p, p.decl) for p in news(program.process)]
        check_program(program)
        assert all(p.decl is decl for p, decl in decls)
        assert all((p.decl is None) == (p.closure is not None) for p, _ in decls)

    @pytest.mark.parametrize("rel", CORPUS)
    def test_each_question_is_computed_once_per_algebra(self, rel, monkeypatch):
        # Keyed by the algebra, so a question asked again of a new algebra
        # (a soup builds its own) is a new computation.
        computed: Counter = Counter()

        def counted(fn, key):
            def wrapper(alg, t, arg):
                computed[fn.__name__, alg, t, key(arg)] += 1
                return fn(alg, t, arg)

            return wrapper

        monkeypatch.setattr(
            semilinear, "_parikh", counted(semilinear._parikh, lambda a: a)
        )
        monkeypatch.setattr(
            semilinear,
            "_arg_determinate",
            counted(
                semilinear._arg_determinate, lambda tags: tuple(sorted(tags.items()))
            ),
        )
        path = PROGRAMS / rel
        program = load_program(path.read_text(), str(path))
        check_program(program)
        Soup(program, monitors=False)
        assert computed
        assert [k for k, n in computed.items() if n > 1] == []

    def test_checks_share_no_memo(self):
        # Each report, from one process checking the whole corpus, equals
        # the one from a process that checks that program alone.
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        together = [
            json.dumps(check_file(rel).to_json(), indent=2) + "\n" for rel in CORPUS
        ]
        for rel, report in zip(CORPUS, together):
            alone = subprocess.run(
                [sys.executable, "-m", "joinstate.cli", "check", "--json",
                 str(PROGRAMS / rel)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert alone.stdout == report, rel

    def test_report_json_shape(self):
        report = check_file("accepted/future-user.cob")
        data = report.to_json()
        assert data["verdict"] == "accepted"
        assert data["diagnostics"] == []
        names = {o["name"].split("#")[0] for o in data["objects"]}
        assert {"future", "user"} <= names
        future = next(o for o in data["objects"] if o["name"].startswith("future"))
        assert future["live"] is True
        assert {"EMPTY": 1, "Resolve": 1} in future["patterns"]
        assert isinstance(data["boundedSubtypeUses"], list)


class TestCompositionality:
    # Each object is checked against its declaration alone, so swapping one
    # object's rules for others accepted against the same declaration moves
    # nothing else in the report.  The swapped rules bind the same names in
    # the same order, so every binder keeps its uid.
    @pytest.mark.parametrize(
        "rel,rules,swapped",
        [
            ("accepted/future-user.cob", "Reply(n) |> System!Print(n)",
             "Reply(n) |> if n > 0 then System!Print(n)"
             " else System!Print(0 - n)"),
            ("rejected/future-user-deadlock.cob",
             "future!RESOLVED(n) & r!Reply(n)", "r!Reply(n) & future!RESOLVED(n)"),
            ("rejected/mutual-dependency.cob", "B(x) |> x!A",
             "B(x) |> if true then x!A else x!A"),
            ("rejected/double-dependency.cob", "D(y) |> x!B(y)",
             "D(y) |> if 1 < 2 then x!B(y) else x!B(y)"),
            ("rejected/nested-call-deadlock.cob",
             "user!Reply(n) & this!RESOLVED(n)", "this!RESOLVED(n) & user!Reply(n)"),
        ],
    )
    def test_swapping_one_objects_rules_changes_nothing_else(
        self, rel, rules, swapped
    ):
        source = (PROGRAMS / rel).read_text()
        assert source.count(rules) == 1
        before = check_source(source)
        after = check_source(source.replace(rules, swapped))
        assert after.to_json() == before.to_json()
        assert [str(d) for d in after.diagnostics] == [
            str(d) for d in before.diagnostics
        ]


class TestProtocolViolations:
    def test_unused_relevant_object_is_an_unmet_obligation(self):
        report = check_source("new obj : A [ A |> obj!A ] in done")
        assert report.codes() == ["ObligationUnmet"]

    def test_unused_nullable_object_is_fine(self):
        report = check_source("new obj : 1 + A [ A |> done ] in done")
        assert report.verdict == "accepted"

    def test_reaction_must_restore_the_protocol(self):
        # Consuming an A without re-sending one leaves the object short.
        report = check_source(
            "new obj : *A · B [ A & B |> done | A |> done ] in obj!A & obj!B"
        )
        assert "ProtocolViolation" in report.codes()

    def test_wrong_argument_kind(self):
        report = check_source("new obj : A(#Number) [ A(x) |> done ] in obj!A(obj)")
        assert "ProtocolViolation" in report.codes()

    def test_arity_mismatch(self):
        report = check_source("new obj : A(#Number) [ A(x) |> done ] in obj!A")
        assert "AritySumError" in report.codes()

    # Each input reaches a checker path that no other test runs.
    @pytest.mark.parametrize(
        "src,text",
        [
            ("System!Print(true + 1)",
             "1:1: ProtocolViolation: operator '+' needs numeric operands"),
            ("if 1 then done else done", "condition must be a boolean"),
            ("new o : 1 + A(#Number) [ A(n) |> n!B ] in o!A(1)",
             "send to n#2: #Number accepts no messages"),
            ("new o : 1 + A(B) [ A(x) |> x!B ] in o!A(1)",
             "A expects an object with protocol B"),
            ("new p : 1 + B [ B |> done ] in"
             " new o : 1 + A(0) [ A(x) |> done ] in o!A(p)",
             "UnusableArg: send to o#2: argument type 0 of A has no valid"
             " configuration"),
            ("new o : 1 + Get [ Get |> done ] in let v = o.Get in"
             " System!Print(v)",
             "AritySumError: Get of 1 + Get has no continuation argument"),
            ("new o : A(#Number) [ A(n) |> done ] in"
             " o!A([ Reply(v) |> done ])",
             "does not accept a continuation there (argument type #Number)"),
        ],
    )
    def test_diagnostic_text(self, src, text):
        diagnostics = [str(d) for d in check_source(src).diagnostics]
        assert any(text in d for d in diagnostics), diagnostics

    def test_call_to_a_missing_method_is_reported_once(self):
        # The continuation's base and the send both resolve Put, which
        # reported the same diagnostic twice.
        report = check_source(
            "new o : *Get(Reply(#Number)) [ Get(r) |> r!Reply(1) ] in\n"
            "let x = o.Put() in System!Print(x)"
        )
        assert [str(d) for d in report.diagnostics] == [
            "2:1: ProtocolViolation: send to o#1: Put fits no configuration"
            " of *Get(Reply(#Number))"
        ]

    def test_reply_pattern_binds_too_many_names(self):
        report = check_source(
            "type #F = *Get(Reply(#Number))\n"
            "new f : #F [ Get(r) |> r!Reply(1) ] in\n"
            "let a, b = f.Get in System!Print(a)"
        )
        assert [str(d) for d in report.diagnostics] == [
            "3:1: AritySumError: reply to cont#5: Reply carries 1 argument(s),"
            " pattern binds 2",
            "3:1: ProtocolViolation: usage of cont#5: Reply(#Number) does not"
            " refine 1 (configuration not covered: Reply)",
        ]

    def test_boolean_argument_is_a_condition(self):
        src = (
            "new o : *B(#Bool) [ B(b) |> if b then System!Print(1)"
            " else System!Print(2) ] in o!B(1 < 2)"
        )
        report = check_source(src)
        assert report.verdict == "accepted", [str(d) for d in report.diagnostics]
        assert run(load_program(src), seed=0).outputs == [1.0]

    def test_boolean_argument_is_no_operand(self):
        report = check_source(
            "new o : *B(#Bool) [ B(b) |> System!Print(b + 1) ] in o!B(1 < 2)"
        )
        assert [str(d) for d in report.diagnostics] == [
            "1:29: ProtocolViolation: operator '+' needs numeric operands"
        ]

    def test_doubling_type_is_rejected(self):
        # #T0 = A, #Ti+1 = #Ti . #Ti: #T16 owes 2^16 A's, which one rule
        # consuming an A never restores.
        decls = " ".join(f"and #T{i + 1} = #T{i} . #T{i}" for i in range(16))
        report = check_source(
            f"type #T0 = A {decls} new o : #T16 [ A |> done ] in done"
        )
        assert report.codes() == ["ProtocolViolation", "ObligationUnmet"]

    def test_boolean_condition_accepted(self):
        report = check_source("if true then System!Print(1) else done")
        assert report.verdict == "accepted", [str(d) for d in report.diagnostics]

    def test_rule_using_outer_object_rejected(self):
        report = check_source(
            "new a : A · B(1) [ A |> done | B(x) |> done ] in"
            " new b : C [ C |> a!A ] in b!C & a!B(b)"
        )
        assert "ProtocolViolation" in report.codes()


class TestBoundedUses:
    def test_bounded_argument_check_is_reported(self):
        # K's argument is accepted only up to the engine's bound, so the use
        # of x is a bounded one.
        report = check_source(
            "type #T = (B + D + *C) . (M(C) + C . D)\n"
            "new x : *K(*#T) [ K(y) |> done ] in\n"
            "new o : *Use(*K(1 + #T . *#T)) [ Use(z) |> done ] in\n"
            "o!Use(x)\n"
        )
        assert report.verdict == "accepted"
        assert report.bounded_subtype_uses == [
            {
                "context": "usage of x#1",
                "declared": "*K(*#T)",
                "usage": "*K(1 + #T . *#T)",
                "bound": 4,
            }
        ]


class TestLiveness:
    def test_unhandled_branch_with_relevant_argument(self):
        # A configuration holding an A never triggers the only rule, and A
        # carries an object that would be stuck forever.
        report = check_source(
            "new obj : A(Reply(#Number)) + B [ B |> done ] in obj!B"
        )
        assert "NotLive" in report.codes()

    def test_unhandled_branch_without_arguments_is_live(self):
        report = check_source("new obj : A + B [ B |> done ] in obj!B")
        assert "NotLive" not in report.codes()


class TestRuleDiagnostics:
    def test_dead_rule(self):
        report = check_source(
            "new obj : A [ A |> done | B |> done ] in obj!A"
        )
        assert "DeadReaction" in report.codes()

    def test_ambiguous_pattern(self):
        report = check_source(
            "new aux : 1 + B [ B |> done ] in"
            " new obj : A · M(B) + M(C) [ M(x) |> x!B | A & M(x) |> x!B ]"
            " in obj!A & obj!M(aux)"
        )
        assert "AmbiguousArgs" in report.codes()

    def test_many_tags_with_several_slots(self):
        # Five tags of three slots each, each taken four times by one rule.
        tags = "ABCDE"
        decl = "*(" + " + ".join(
            f"{t} + {t}(#Number) + {t}(1 + Z)" for t in tags
        ) + ")"
        pattern = " & ".join(t for t in tags for _ in range(4))
        start = time.perf_counter()
        report = check_source(f"new o : {decl} [ {pattern} |> done ] in done")
        assert time.perf_counter() - start < 0.1
        counts = " & ".join(f"{t} x4" for t in tags)
        assert [str(d) for d in report.diagnostics] == [
            f"1:1: AmbiguousArgs: rule {pattern} of o#1: {counts}"
            f" does not pin down argument types in {decl}"
        ]

    def test_unusable_argument_type(self):
        report = check_source(
            "new obj : A(0) [ A(x) |> done ] in done"
        )
        assert "UnusableArg" in report.codes()


class TestContinuationTyping:
    FUTURE = (PROGRAMS / "accepted" / "future-class.cob").read_text()

    def test_closure_argument_gets_principal_usage(self):
        src = self.FUTURE.replace(
            "future!Resolve(42) & System!Print(future.Get) & System!Print(future.Get)",
            "future!Resolve(42) & System!Print(future.Get)",
        )
        report = check_program(load_program(src))
        assert report.verdict == "accepted", [str(d) for d in report.diagnostics]
        conts = [o for o in report.objects if o.name.text == "cont"]
        assert conts and all(o.live for o in conts)

    def test_sync_result_must_be_consumed(self):
        # The generator hands back a fresh source that is never drained.
        src = """
        type #Get   = Get(#Reply)
        and  #Reply = Reply(#Number, #Get)

        class Generator [
          New(n: #Number, r: Reply(#Get)) |>
            new this : FROM(#Number) · #Get [
              FROM(n) & Get(target) |> this!FROM(n + 1) & target!Reply(n, this)
            ] in this!FROM(n) & r!Reply(this)
        ]
        let g = Generator.New(2) in
        let n, rest = g.Get in System!Print(n)
        """
        report = check_program(load_program(src))
        assert "ObligationUnmet" in report.codes()
