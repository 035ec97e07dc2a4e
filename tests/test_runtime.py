"""Execution tests: termination, outputs, determinism, monitors, deadlock."""

import copy
import dataclasses
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from joinstate import checker as checker_module
from joinstate import runtime
from joinstate import types as ty
from joinstate.checker import Checker, check_program, closure_decl
from joinstate.cli import main
from joinstate.core import BinOp, If, NewObj, Par, Send, Var
from joinstate.desugar import load_program
from joinstate.oracle import enabled_reactions, reaction, reference_picks
from joinstate.parser import MAX_NESTING, ParseError
from joinstate.runtime import (
    Soup,
    _regroup,
    _unrank_picks,
    run,
)
from joinstate.semilinear import fits, tag_caps
from joinstate.types import TypeAlgebra

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
PI_DEPTH_3 = (PROGRAMS / "accepted" / "pi.cob").read_text().replace(
    "Worker.New(10, 0)", "Worker.New(3, 0)"
)


def load_file(rel):
    return load_program((PROGRAMS / rel).read_text(), rel)


def run_source(src, **kw):
    return run(load_program(src), **kw)


class TestBasics:
    def test_trivial_send_and_react(self):
        result = run_source(
            "new obj : *Ping(#Number) [ Ping(n) |> System!Print(n + 1) ]"
            " in obj!Ping(41)"
        )
        assert result.verdict == "Terminated"
        assert result.outputs == [42.0]

    def test_join_pattern_waits_for_both(self):
        result = run_source(
            "new obj : *(A(#Number) · B(#Number))"
            " [ A(x) & B(y) |> System!Print(x * y) ]"
            " in obj!A(6) & obj!B(7)"
        )
        assert result.verdict == "Terminated"
        assert result.outputs == [42.0]

    def test_builtin_pow(self):
        result = run_source(
            "new obj : 1 + Reply(#Number) [ Reply(n) |> System!Print(n) ]"
            " in Number!Pow(2, 10, obj)"
        )
        assert result.outputs == [1024.0]

    def test_conditionals_and_arithmetic(self):
        result = run_source(
            "new obj : *Go(#Number) [ Go(n) |>"
            " if n % 2 = 0 then System!Print(n / 2) else System!Print(3 * n + 1) ]"
            " in obj!Go(7) & obj!Go(10)"
        )
        assert sorted(result.outputs) == [5.0, 22.0]

    def test_step_budget(self):
        result = run_source(
            "new obj : *A [ A |> obj!A ] in obj!A", max_steps=50
        )
        assert result.verdict == "StepBudgetExhausted"
        assert result.steps == 50

    @pytest.mark.parametrize(
        "rel,steps,verdict",
        [
            ("accepted/future-user.cob", 3, "Terminated"),
            ("rejected/future-user-deadlock.cob", 1, "Deadlocked"),
            ("rejected/mutual-dependency.cob", 0, "Deadlocked"),
        ],
    )
    def test_quiescing_on_the_last_allowed_step(self, rel, steps, verdict):
        # Quiescence is judged before the budget, with or without a trace.
        program = load_file(rel)
        for trace in (False, True):
            free = run(program, seed=0, trace=trace)
            budgeted = run(program, seed=0, max_steps=steps, trace=trace)
            assert (free.verdict, free.steps) == (verdict, steps)
            assert budgeted == free
        if steps:
            short = run(program, seed=0, max_steps=steps - 1)
            assert short.verdict == "StepBudgetExhausted"

    def test_trace_format(self):
        result = run_source(
            "new obj : *Ping(#Number) [ Ping(n) |> System!Print(n) ]"
            " in obj!Ping(5)",
            trace=True,
        )
        kinds = [e.kind for e in result.trace]
        assert "new" in kinds and "react" in kinds and "print" in kinds


class TestDeterminism:
    SRC = (
        "new obj : *T(#Number) [ T(n) |> System!Print(n) ]"
        " in obj!T(1) & obj!T(2) & obj!T(3) & obj!T(4)"
    )

    def test_same_seed_same_run(self):
        a = run_source(self.SRC, seed=7)
        b = run_source(self.SRC, seed=7)
        assert a.outputs == b.outputs

    def test_seeds_shuffle_schedules(self):
        seen = {tuple(run_source(self.SRC, seed=s).outputs) for s in range(12)}
        assert len(seen) > 1

    @pytest.mark.parametrize(
        "rel", ["future-class", "future-user", "pi", "sieve"]
    )
    def test_copied_soup_runs_as_the_original(self, rel):
        # Copied mid-run, both go on to the same end from the same state.
        soup = Soup(load_file(f"accepted/{rel}.cob"), seed=1)
        for _ in range(2):
            soup.step()
        ends = []
        for s in (soup, copy.deepcopy(soup)):
            while s.violation is None and s.steps < 2000 and s.step():
                pass
            stuck = None if s.enabled_count() else [repr(o) for o in s.quiesce()]
            ends.append((s.steps, s.outputs, s.violation, stuck))
        assert ends[0] == ends[1]


class TestUniformity:
    # Small soups with equal payloads, joins over several tags, several
    # rules per object, and patterns that take two copies of one tag.
    SOURCES = (
        "new a : *A(#Number) · *B(#Number)"
        " [ A(x) & B(y) |> System!Print(x * y) | A(x) |> System!Print(x) ] in"
        " new b : *T(#Number) [ T(n) |> System!Print(n) ] in"
        " a!A(1) & a!A(1) & a!A(2) & a!B(5) & a!B(6) & a!B(6)"
        " & b!T(3) & b!T(3) & b!T(4)",
        "new obj : *A(#Number) · *B(#Number)"
        " [ A(x) & A(y) & B(z) |> System!Print(x + y + z) | B(z) |> done ] in"
        " obj!A(1) & obj!A(1) & obj!A(1) & obj!A(2) & obj!A(3)"
        " & obj!B(7) & obj!B(8)",
    )

    @staticmethod
    def scheduled(soup):
        """The reaction behind every index the scheduler can draw."""
        out = Counter()
        for i in range(soup.enabled_count()):
            inst, rule_idx, selection = reaction(soup, i)
            out[inst.oid, rule_idx, frozenset(selection)] += 1
        return out

    def check_along_run(self, program, seed):
        soup = Soup(program, seed=seed, monitors=False)
        while True:
            # Every enabled triple is drawn by exactly one index.
            assert self.scheduled(soup) == Counter(enabled_reactions(soup))
            if not soup.step():
                break

    @pytest.mark.parametrize("index", range(len(SOURCES)))
    def test_indices_match_enabled_reactions(self, index):
        program = load_program(self.SOURCES[index])
        for seed in range(4):
            self.check_along_run(program, seed)

    @staticmethod
    def kept_ways(caps, k):
        """The count of ways to take m <= k items from groups of the given
        capacities, built as the soup keeps it, one delivery at a time."""
        ways = [1] + [0] * k
        for cap in caps:
            for copies in range(cap):
                _regroup(ways, copies, copies + 1)
        return ways

    @pytest.mark.parametrize("seed", range(20))
    def test_unranking_follows_the_enumeration(self, seed):
        rng = random.Random(seed)
        groups = [(i, rng.randint(1, 4)) for i in range(rng.randint(1, 6))]
        k = rng.randint(1, 6)
        # The kept count may run past k, for a larger k of another rule.
        ways = self.kept_ways([cap for _, cap in groups], k + rng.randint(0, 2))
        kept = list(ways)
        refs = list(reference_picks(groups, k))
        assert ways[k] == len(refs)
        for r in range(2 * len(refs)):
            q, pick = _unrank_picks(ways, groups, k, r)
            assert q == r // len(refs)
            assert tuple(pick) == refs[r % len(refs)]
        assert ways == kept

    @pytest.mark.parametrize("seed", range(20))
    def test_kept_counts_follow_the_payloads(self, seed):
        # The soup keeps, per tag taken k >= 2 times, the ways to take m <= k
        # messages, updated in place as one payload's copies change.
        rng = random.Random(seed)
        k = rng.randint(2, 5)
        caps = [0] * rng.randint(1, 6)
        ways = [1] + [0] * k
        for _ in range(60):
            g = rng.randrange(len(caps))
            new = max(0, caps[g] + rng.choice((-2, -1, 1, 1, 2)))
            _regroup(ways, caps[g], new)
            caps[g] = new
            groups = list(enumerate(caps))
            assert ways == [
                len(list(reference_picks(groups, m))) for m in range(k + 1)
            ]

    def test_many_payloads_are_counted_once(self, monkeypatch):
        # Recounting a rule that takes A twice over every A payload after
        # each delivery made this run quadratic: 1,130,248 payload groups
        # counted over 1,502 steps.  Kept, the count changes by one group's
        # factor per delivery or consumption, and the one firing of the
        # rule divides out at most one factor per payload group.
        regrouped = Counter()

        def counting(ways, old, new):
            regrouped["groups"] += 1
            _regroup(ways, old, new)

        monkeypatch.setattr("joinstate.runtime._regroup", counting)
        result = run_source(
            "type #Sink = *A(#Number) . *GO and #Gen = *G(#Number, #Sink)"
            " new o : #Sink [ A(x) & A(y) & GO |> System!Print(x + y) ] in"
            " new gen : #Gen [ G(n, s) |> if n = 0 then s!GO"
            " else s!A(n) & gen!G(n - 1, s) ] in gen!G(1500, o)",
            seed=0,
        )
        assert result.verdict == "Terminated" and result.steps == 1502
        assert regrouped["groups"] <= 2 * result.steps

    def test_indices_match_enabled_reactions_in_pi(self):
        self.check_along_run(load_program(PI_DEPTH_3), seed=2)

    @staticmethod
    def reference_fire(soup, index):
        """The mailbox and bindings that firing index should leave, from
        the reference decoder: the selection is taken out, and each
        pattern message, in pattern order, binds the last message of its
        tag still unbound in the selection."""
        inst, rule_idx, selection = reaction(soup, index)
        mailbox = {tag: dict(msgs) for tag, msgs in inst.mailbox.items()}
        by_tag = {}
        for msg, copies in selection:
            mailbox[msg[0]][msg] -= copies
            by_tag.setdefault(msg[0], []).extend([msg] * copies)
        left = {}
        for tag, msgs in mailbox.items():
            msgs = {msg: n for msg, n in msgs.items() if n}
            if msgs:
                left[tag] = msgs
        bound = {}
        for m in inst.kind.node.rules[rule_idx].pattern:
            bound.update(zip([x.uid for x in m.params], by_tag[m.tag].pop()[1]))
        return inst, left, bound

    # One rule takes A twice and another once, so either kind of
    # consumption changes the kept count of ways to take two As.
    MIXED = (
        "new obj : *A(#Number) · *B"
        " [ A(x) & A(y) |> System!Print(x - y) | A(x) & B |> System!Print(x) ]"
        " in obj!A(1) & obj!A(1) & obj!A(2) & obj!A(3) & obj!B & obj!B"
    )

    @pytest.mark.parametrize("index", range(len(SOURCES) + 2))
    def test_fire_agrees_with_reference_decoder(self, index):
        program = load_program((self.SOURCES + (PI_DEPTH_3, self.MIXED))[index])
        for seed in range(4):
            soup = Soup(program, seed=seed, monitors=False)
            while soup.enabled_count():
                assert self.scheduled(soup) == Counter(enabled_reactions(soup))
                for i in range(soup.enabled_count()):
                    inst, mailbox, bound = self.reference_fire(soup, i)
                    twin = copy.deepcopy(soup)
                    fired = twin.instances[inst.oid.serial]
                    envs = []
                    fired.kind = dataclasses.replace(fired.kind, rules=tuple(
                        (takes, lambda soup, env: envs.append(env), label)
                        for takes, _, label in fired.kind.rules
                    ))
                    twin.fire(i)
                    # Compared as text, so the order of what is left, which
                    # later draws depend on, must agree too.
                    assert repr(fired.mailbox) == repr(mailbox), (seed, i)
                    assert fired.counts == {
                        tag: sum(msgs.values()) for tag, msgs in mailbox.items()
                    }
                    [env] = envs
                    assert {x: env[x] for x in bound} == bound
                soup.step()


class TestQuiescence:
    def test_leftover_plain_messages_terminate(self):
        # A resolved future keeps its RESOLVED message forever; nobody is
        # blocked by it because its payload is just a number.
        result = run(load_file("accepted/future-user.cob"))
        assert result.verdict == "Terminated"
        assert result.outputs == [42.0]

    def test_unmatched_waiting_message_is_deadlock(self):
        # The Get message carries a reply continuation that will never be
        # answered: the A needed to complete the join never arrives.
        result = run_source(
            "new obj : 1 + A · Get(Reply(#Number))"
            " [ A & Get(r) |> r!Reply(1) ] in"
            " new user : 1 + Reply(#Number) [ Reply(n) |> System!Print(n) ] in"
            " obj!Get(user)",
            monitors=False,
        )
        assert result.verdict == "Deadlocked"
        assert result.deadlocked

    def test_deadlock_trace_counts_copies(self):
        # Two copies of one Get payload wait on an A that never comes.
        result = run_source(
            "new obj : *(A . Get(Reply(#Number)))"
            " [ A & Get(r) |> r!Reply(1) ] in"
            " new user : *Reply(#Number) [ Reply(n) |> System!Print(n) ] in"
            " obj!Get(user) & obj!Get(user)",
            trace=True,
        )
        assert result.verdict == "Deadlocked"
        [event] = [e for e in result.trace if e.kind == "deadlock"]
        assert (event.obj, event.tags) == ("obj@1", "Get,Get")

    def test_rejected_deadlock_program_deadlocks_at_runtime(self):
        result = run(load_file("rejected/future-user-deadlock.cob"))
        assert result.verdict == "Deadlocked"

    @pytest.mark.parametrize(
        "rel,leftover",
        [("rejected/extra-message.cob", "[B]"), ("rejected/missing-message.cob", "[A]")],
    )
    def test_incomplete_protocol_is_a_violation(self, rel, leftover):
        # Each leaves half of an A · B pair behind: nobody waits on it, but
        # the mailbox is no whole configuration of *(A · B).
        for seed in range(3):
            result = run(load_file(rel), seed=seed)
            assert result.verdict == "MonitorViolation"
            assert f"obj@1 ends with messages {leftover}" in result.violation
            assert run(load_file(rel), seed=seed, monitors=False).verdict == (
                "Terminated"
            )

    def test_deadlock_takes_precedence(self):
        # The Get message is both waiting forever and short of an A.
        result = run_source(
            "new obj : 1 + A · Get(Reply(#Number))"
            " [ A & Get(r) |> r!Reply(1) ] in"
            " new user : 1 + Reply(#Number) [ Reply(n) |> System!Print(n) ] in"
            " obj!Get(user)"
        )
        assert result.verdict == "Deadlocked"
        assert result.violation is None


class TestMixedArities:
    # M(#Number) and M are two slots of M: each rule pins down its own.
    SOURCE = (
        "type #T = 1 + A . M(#Number) + B . M\n"
        "new o : #T [ A & M(x) |> done | B & M |> done ] in o!(A & M(1))"
    )

    def test_accepted_program_keeps_its_invariant(self):
        program = load_program(self.SOURCE)
        assert check_program(program).verdict == "accepted"
        for seed in range(50):
            result = run(program, seed=seed, check_solution=True)
            assert result.verdict == "Terminated", seed
            assert not result.invariant_failed, seed


class TestRuntimeFaults:
    def test_division_by_zero_at_start(self):
        result = run_source("System!Print(1 / 0)")
        assert result.verdict == "RuntimeFault"
        assert result.violation.startswith("ZeroDivisionError")

    def test_fault_inside_a_reaction_keeps_earlier_outputs(self):
        result = run_source(
            "new obj : *First(#Number) · *Then(#Number)"
            " [ First(n) |> System!Print(n) & obj!Then(n - 1)"
            " | Then(n) |> System!Print(1 % n) ] in obj!First(1)"
        )
        assert result.verdict == "RuntimeFault"
        assert result.violation.startswith("ValueError")
        assert (result.steps, result.outputs) == (2, [1.0])

    def test_missing_builtin_method(self):
        result = run_source("System!Foo(1)")
        assert result.verdict == "RuntimeFault"
        assert "System has no method Foo/1" in result.violation

    def test_arithmetic_on_an_object(self):
        result = run_source(
            "new obj : *Ping(#Number) [ Ping(n) |> System!Print(n) ]"
            " in System!Print(obj + 1)"
        )
        assert result.verdict == "RuntimeFault"
        assert "cannot apply + to obj@1 and 1" in result.violation

    @pytest.mark.parametrize("src", [
        "new o : *M(#Number) [ M(x) |> System!Print(x) ] in o!M",
        # A tag taken twice by one rule is bound on another path.
        "new o : *M(#Number) [ M(x) & M(y) |> System!Print(x + y) ]"
        " in o!M(1) & o!M",
        # The parameter is read in a later reaction of an object the
        # body creates.
        "new o : *M(#Number) [ M(x) |> new p : P [ P |> System!Print(x) ]"
        " in p!P ] in o!M",
    ], ids=["once", "twice", "later"])
    def test_parameter_a_short_message_left_unbound(self, src):
        # Only an unchecked program sends these; reading x used to escape
        # as a KeyError.
        result = run_source(src)
        assert result.verdict == "RuntimeFault"
        assert result.violation == (
            "RuntimeError_: message M/0 taken by a pattern M/1"
        )
        assert result.outputs == []

    @pytest.mark.parametrize("call,fault", [
        ("Number!Pow(-8, 0.5, o)", "ValueError: math domain error"),
        # The checker rejects these two; run_source does not check.
        ("Number!Pow(o, 2, o)", "Number!Pow takes numbers, not o@1"),
        ("System!Print(o)", "System!Print takes numbers, not o@1"),
    ], ids=["pow-domain", "pow-object", "print-object"])
    def test_bad_builtin_argument(self, call, fault):
        result = run_source(
            "new o : *Reply(#Number) [ Reply(x) |> System!Print(x) ] in " + call
        )
        assert result.verdict == "RuntimeFault"
        assert result.violation.endswith(fault)
        assert result.outputs == []

    def test_unread_parameter_of_a_short_message(self):
        # Nothing reads y, but the firing takes M with too few arguments.
        result = run_source(
            "new o : *M(#Number, #Number) [ M(x, y) |> System!Print(x) ]"
            " in o!M(1)"
        )
        assert result.verdict == "RuntimeFault"
        assert result.violation == (
            "RuntimeError_: message M/1 taken by a pattern M/2"
        )
        assert result.outputs == []

    def test_extra_argument_is_not_dropped(self):
        result = run_source(
            "new o : *M(#Number) [ M(x) |> System!Print(x) ] in o!M(1, 2)"
        )
        assert result.verdict == "RuntimeFault"
        assert result.violation == (
            "RuntimeError_: message M/2 taken by a pattern M/1"
        )
        assert result.outputs == []


class TestOperators:
    """Every binary operator, run without the checker, so objects can be
    operands too."""

    OBJECTS = "new a : *P [ P |> done ] in new b : *P [ P |> done ] in "

    @pytest.mark.parametrize("expr,value", [
        ("7 + 2", 9.0),
        ("7 - 2", 5.0),
        ("7 * 2", 14.0),
        ("7 / 2", 3.5),
        ("7 % 2", 1.0),
        ("-7 % 2", -1.0),  # math.fmod: the sign of the dividend
        ("7 = 2", False),
        ("7 != 2", True),
        ("7 < 2", False),
        ("7 <= 7", True),
        ("7 > 2", True),
        ("2 >= 7", False),
        ("a = a", True),
        ("a = b", False),
        ("a != b", True),
        ("a != a", False),
        ("a < b", True),
        ("b < a", False),
    ])
    def test_value(self, expr, value):
        result = run_source(self.OBJECTS + f"System!Print({expr})")
        assert result.verdict == "Terminated"
        assert result.outputs == [value]
        assert type(result.outputs[0]) is type(value)

    @pytest.mark.parametrize("expr,fault", [
        ("1 / 0", "ZeroDivisionError: float division by zero"),
        ("1 % 0", "ValueError: math domain error"),
        ("a + 1", "RuntimeError_: cannot apply + to a@1 and 1"),
        ("1 < b", "RuntimeError_: cannot apply < to 1 and b@2"),
        # Python's bool is an int, but arithmetic takes numbers only.
        ("2 + (1 < 2)", "RuntimeError_: cannot apply + to 2 and true"),
        ("(7 = 2) - 1", "RuntimeError_: cannot apply - to false and 1"),
        ("true * true", "RuntimeError_: cannot apply * to true and true"),
        ("1 / (2 = 2)", "RuntimeError_: cannot apply / to 1 and true"),
        ("false % 2", "RuntimeError_: cannot apply % to false and 2"),
    ])
    def test_fault(self, expr, fault):
        result = run_source(self.OBJECTS + f"System!Print({expr})")
        assert (result.verdict, result.violation) == ("RuntimeFault", fault)


class TestNestingLimit:
    """Programs nested as deep as the parser allows run without overflowing
    Python's stack, through the API and the CLI."""

    @staticmethod
    def chain(depth):
        """`new`, `let` and `if`, in turn, nested depth levels deep."""
        heads = [
            (f"new o{i} : *A [ A |> done ] in ", f"let v{i} = {i} in ",
             f"if {i} < {i + 1} then ")[i % 3]
            for i in range(depth)
        ]
        return "".join(heads) + "System!Print(1)" + " else done" * (depth // 3)

    def check_runs(self, src, output, tmp_path, capsys):
        # Leave 150 frames fewer than the recursion limit.
        def beneath(frames):
            return run_source(src) if frames == 0 else beneath(frames - 1)

        result = beneath(150)
        assert (result.verdict, result.outputs) == ("Terminated", [output])
        program = tmp_path / "deep.cob"
        program.write_text(src)
        assert main(["run", str(program)]) == 0
        assert capsys.readouterr().out == f"{output:g}\n"

    def test_process_chain_at_the_limit(self, tmp_path, capsys):
        depth = MAX_NESTING - 3
        with pytest.raises(ParseError, match="nested more than"):
            load_program(self.chain(depth + 1))
        self.check_runs(self.chain(depth), 1.0, tmp_path, capsys)

    def test_longest_sum(self, tmp_path, capsys):
        terms = MAX_NESTING - 2
        with pytest.raises(ParseError, match="nested more than"):
            load_program("System!Print(" + " + ".join(["1"] * (terms + 1)) + ")")
        src = "System!Print(" + " + ".join(["1"] * terms) + ")"
        self.check_runs(src, float(terms), tmp_path, capsys)


class TestRejectedProgramsMisbehave:
    def test_every_seed(self):
        manifest = json.loads((PROGRAMS / "manifest.json").read_text())
        verdicts = Counter()
        for rel in manifest["rejected"]:
            program = load_file(rel)
            seen = {run(program, seed=seed).verdict for seed in range(30)}
            assert len(seen) == 1, (rel, seen)
            verdicts.update(seen)
        assert verdicts == {"Deadlocked": 6, "MonitorViolation": 2}


def test_no_state_crosses_runs():
    """run(pi, seed=3) comes out the same first thing in a fresh process,
    after runs of the other accepted programs, and after pi on another
    seed."""
    script = """if True:
        import hashlib, pathlib, sys
        from joinstate.desugar import load_program
        from joinstate.runtime import run

        def load(name):
            return load_program(pathlib.Path(sys.argv[1], name).read_text())

        pi = load("pi.cob")

        def digest():
            r = run(pi, seed=3, trace=True)
            text = repr((r.verdict, r.steps, r.outputs, r.created, r.trace))
            print(hashlib.sha256(text.encode()).hexdigest())

        digest()
        run(load("sieve.cob"), seed=3, max_steps=3000)
        run(load("future-user.cob"), seed=3)
        run(load("future-class.cob"), seed=3)
        digest()
        run(pi, seed=4)
        digest()
    """
    env = dict(os.environ, PYTHONPATH=str(PROGRAMS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(PROGRAMS / "accepted")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    digests = proc.stdout.split()
    assert len(digests) == 3 and len(set(digests)) == 1, digests


class TestCheckedAndUncheckedRunsAgree:
    """The checker leaves the program as it found it, so a checked program
    runs exactly like the same program loaded without checking."""

    @pytest.mark.parametrize(
        "rel", sorted(str(p.relative_to(PROGRAMS)) for p in PROGRAMS.rglob("*.cob"))
    )
    def test_same_runs(self, rel):
        checked, unchecked = load_file(rel), load_file(rel)
        check_program(checked)
        # The sieve never ends.
        max_steps = 1000 if "sieve" in rel else 100_000
        for seed in range(5):
            a, b = (
                run(p, seed=seed, max_steps=max_steps, trace=True)
                for p in (checked, unchecked)
            )
            assert (a.verdict, a.steps, a.outputs, a.created) == (
                b.verdict, b.steps, b.outputs, b.created
            ), seed
            assert a.trace == b.trace, seed


class TestMonitors:
    def test_protocol_breach_caught(self):
        # Two As against a strictly one-A protocol.
        result = run_source(
            "new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B"
        )
        assert result.verdict == "MonitorViolation"
        assert "obj" in result.violation

    # Every object at every step; the last, the breach of TestCheckSolution,
    # gives a mailbox that does not fit.
    FIT_SOURCES = TestUniformity.SOURCES + (
        PI_DEPTH_3, "new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B",
    )

    @pytest.mark.parametrize("index", range(len(FIT_SOURCES)))
    def test_count_test_agrees_with_derivatives(self, index):
        # The monitors test each mailbox's per-tag counts against its
        # declared type's caps; the reference derives the type by the tags.
        program = load_program(self.FIT_SOURCES[index])
        answers = Counter()
        for seed in range(2):
            soup = Soup(program, seed=seed)
            alg = soup.alg
            while True:
                for inst in soup.instances.values():
                    expected = alg.usable(
                        alg.derivative_config(inst.kind.decl, inst.tags())
                    )
                    assert fits(inst.kind.caps, inst.counts) == expected
                    answers[expected] += 1
                if soup.violation is not None or not soup.step():
                    break
        breach = index == len(self.FIT_SOURCES) - 1
        assert answers[False] == (2 if breach else 0), answers

    def test_draining_mailbox_derives_nothing(self, monkeypatch):
        # Deriving the declared type by every message left after each
        # consumption took 565,502 derivatives in this run; the count test
        # derives nothing, and quiescence derives the leftover GO once.
        # `derivative` recurses through itself, so only outermost calls count.
        calls = Counter()
        derivative = TypeAlgebra.derivative

        def counted(alg, t, a):
            calls["derivative"] += calls["depth"] == 0
            calls["depth"] += 1
            try:
                return derivative(alg, t, a)
            finally:
                calls["depth"] -= 1

        monkeypatch.setattr(TypeAlgebra, "derivative", counted)
        result = run_source(
            "type #Sink = *A(#Number) . *GO and #Gen = *G(#Number, #Sink)"
            " new o : #Sink [ A(x) & A(y) & GO |> System!Print(x + y) & o!GO ]"
            " in new gen : #Gen [ G(n, s) |> if n = 0 then s!GO"
            " else s!A(n) & gen!G(n - 1, s) ] in gen!G(1500, o)",
            seed=1,
        )
        assert result.verdict == "Terminated"
        assert (result.steps, len(result.outputs)) == (2251, 750)
        assert calls["derivative"] <= 5

    def test_draining_mailbox_is_tested_once(self, monkeypatch):
        # `fits` is downward closed, so a mailbox that only shrank and
        # fitted still fits: 100 firings make no test after the first.
        calls = Counter()

        def counted(caps, counts):
            calls["fits"] += 1
            return fits(caps, counts)

        monkeypatch.setattr("joinstate.runtime.fits", counted)
        result = run_source(
            "new o : *A(#Number) [ A(n) |> done ] in "
            + " & ".join(f"o!A({n})" for n in range(100))
        )
        assert (result.verdict, result.steps) == ("Terminated", 100)
        assert calls["fits"] == 1

    def test_monitors_can_be_disabled(self):
        result = run_source(
            "new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B",
            monitors=False,
        )
        assert result.verdict in ("Terminated", "Deadlocked")

    # Accepted, though the tag A alone does not pin down x's type: only the
    # whole pattern A & B does.
    AMBIGUOUS_TAG = """
    type #Cell = *Get(Reply(#Number))
    new g : *Get(Reply(#Number)) [ Get(r) |> r!Reply(7) ] in
    new o : 1 + (A(#Cell) . B) + (A(#Number) . C) [
        A(x) & B |> System!Print(x.Get)
      | A(y) & C |> System!Print(y)
    ] in o!(A(g) & B)
    """

    def test_accepted_programs_never_violate(self):
        for rel in ("accepted/future-user.cob", "accepted/future-class.cob"):
            for seed in range(5):
                result = run(load_file(rel), seed=seed)
                assert result.verdict == "Terminated", (rel, seed)
        program = load_program(self.AMBIGUOUS_TAG)
        assert check_program(program).verdict == "accepted"
        for seed in range(5):
            result = run(program, seed=seed)
            assert result.verdict == "Terminated", (seed, result.violation)
            assert result.outputs == [7.0]


class TestPrograms:
    def test_future_class_prints_twice(self):
        result = run(load_file("accepted/future-class.cob"), seed=3)
        assert result.verdict == "Terminated"
        assert result.outputs == [42.0, 42.0]

    def test_pi_small_depth(self):
        src = (PROGRAMS / "accepted" / "pi.cob").read_text()
        src = src.replace("Worker.New(10, 0)", "Worker.New(3, 0)")
        result = run_source(src, seed=1)
        assert result.verdict == "Terminated"
        [value] = result.outputs
        # First 8 Leibniz terms.
        expected = sum(4.0 * (-1) ** n / (2 * n + 1) for n in range(8))
        assert value == pytest.approx(expected)

    def test_pi_full_depth(self):
        result = run(load_file("accepted/pi.cob"), seed=0)
        assert result.verdict == "Terminated"
        [value] = result.outputs
        assert abs(value - math.pi) <= 4 / 2049
        # A full binary tree of depth 10: 1024 leaves and 1023 branches.
        assert result.created["this"] == 2047

    def test_sieve_prints_primes(self):
        result = run(load_file("accepted/sieve.cob"), seed=0, max_steps=20000)
        assert result.verdict == "StepBudgetExhausted"
        assert result.outputs[:5] == [2.0, 3.0, 5.0, 7.0, 11.0]


class TestCheckSolution:
    def test_invariant_holds_along_a_run(self):
        program = load_program(
            (PROGRAMS / "accepted" / "future-class.cob").read_text()
        )
        soup = Soup(program, seed=11)
        assert soup.check_solution()
        while soup.steps < 200 and soup.step():
            assert soup.check_solution()

    def test_plain_run_records_nothing(self):
        soup = Soup(load_file("accepted/sieve.cob"), seed=0)
        while soup.steps < 300 and soup.step():
            pass
        assert soup._misfits is None

    def test_caps_are_looked_up_once_per_node(self, monkeypatch):
        # Each `new` node's caps are looked up when the soup compiles it,
        # monitors on or off; no spawn looks them up again (714 lookups for
        # these 2,000 monitored steps when each spawn did).
        calls = Counter()

        def counted(alg, t):
            calls["tag_caps"] += 1
            return tag_caps(alg, t)

        monkeypatch.setattr("joinstate.runtime.tag_caps", counted)
        program = load_file("accepted/sieve.cob")
        for monitors in (False, True):
            calls.clear()
            result = run(program, seed=0, max_steps=2000, monitors=monitors)
            assert result.steps == 2000 and sum(result.created.values()) > 700
            assert calls["tag_caps"] == len(new_nodes(program.process)) == 10

    # Two As against a strictly one-A protocol, run unmonitored: the
    # invariant fails at first and holds once an A & B pair has reacted.
    BREACH = "new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B"

    @pytest.mark.parametrize(
        "src,steps,monitors",
        [
            ("accepted/future-class.cob", 4, True),
            ("accepted/sieve.cob", 300, True),
            (BREACH, 0, False),
            (BREACH, 1, False),
        ],
    )
    def test_first_check_covers_every_object(self, src, steps, monitors):
        program = load_file(src) if src.endswith(".cob") else load_program(src)
        answers = set()
        for seed in range(3):
            soup = Soup(program, seed=seed, monitors=monitors)
            while soup.steps < steps and soup.step():
                pass
            expected = all(
                soup.alg.usable(soup.alg.derivative_config(inst.kind.decl, inst.tags()))
                for inst in soup.instances.values()
            )
            assert soup.check_solution() == expected
            answers.add(expected)
        assert answers == {src != self.BREACH or steps > 0}

    def test_a_misfit_that_shrinks_is_tested_again(self):
        # A mailbox that only shrank is tested again when it did not fit.
        soup = Soup(load_program(self.BREACH), seed=0, monitors=False)
        assert not soup.check_solution()
        assert soup.step()
        assert soup.check_solution()

    # Unmonitored, with check_solution asked once before the first step:
    # the rule either overfills obj's one-A mailbox (settle records it) or
    # creates an object whose type has no configuration (spawn does).
    @pytest.mark.parametrize("src", [
        "new obj : A [ A |> done ] in new t : T [ T |> obj!A & obj!A ] in t!T",
        "new t : T [ T |> new z : 0 [ A |> done ] in done ] in t!T",
    ], ids=["mailbox-grows-out", "spawns-type-0"])
    def test_a_step_that_breaks_the_invariant_is_recorded(self, src):
        soup = Soup(load_program(src), seed=0, monitors=False)
        assert soup.check_solution()
        assert soup.step()
        assert not soup.check_solution()
        assert soup.violation is None

    def test_only_changed_objects_are_derived_again(self, monkeypatch):
        # Rechecking every object after every step made a run quadratic in
        # the objects it creates: 739,960 derivations for these 2,000 steps.
        calls = Counter()

        def counted(caps, counts):
            calls["fits"] += 1
            return fits(caps, counts)

        monkeypatch.setattr("joinstate.runtime.fits", counted)
        program = load_file("accepted/sieve.cob")
        run(program, seed=0, max_steps=2000)
        monitors_only = calls.pop("fits")
        result = run(program, seed=0, max_steps=2000, check_solution=True)
        assert result.steps == 2000 and not result.invariant_failed
        # The monitors' test answers check_solution too: only each object
        # is tested once more, when created or at the first check.
        assert calls["fits"] <= monitors_only + sum(result.created.values())


def new_nodes(p) -> list[NewObj]:
    """Every `new` node of a core process, in the order of the source."""
    if isinstance(p, Par):
        return [n for q in p.parts for n in new_nodes(q)]
    if isinstance(p, If):
        return new_nodes(p.then) + new_nodes(p.els)
    if isinstance(p, NewObj):
        rules = [n for r in p.rules for n in new_nodes(r.body)]
        return [p] + rules + new_nodes(p.body)
    return []


def reference_decls(program):
    """Reference walk: every object's, continuation's and rule variable's
    declared type, by binder, declared over the whole program before it
    runs.  A continuation's type is `closure_base` (1 where the checker
    rejects it) with its captured names' declared types, and each rule's
    variables are declared by `bind_pattern`."""
    checker = Checker(program)
    decls = checker.decls

    def resolve(p):
        if isinstance(p, Par):
            for q in p.parts:
                resolve(q)
        elif isinstance(p, If):
            resolve(p.then)
            resolve(p.els)
        elif isinstance(p, NewObj):
            spec = p.closure
            if spec is None:
                decl = p.decl
            else:
                base = checker.closure_base(spec, p.pos) or ty.ONE
                decl = closure_decl(
                    base, tuple(decls.get(n, ty.ONE) for n in spec.captured)
                )
            decls[p.name] = decl
            for rule in p.rules:
                checker.bind_pattern(decl, rule.pattern, "rule", p.pos)
                resolve(rule.body)
            resolve(p.body)

    resolve(program.process)
    return decls


CORPUS = sorted(str(p.relative_to(PROGRAMS)) for p in PROGRAMS.rglob("*.cob"))


class TestOneWalk:
    """A soup declares each object as it compiles its `new` node, and a rule
    variable only when a continuation reads it."""

    @pytest.mark.parametrize("checked", [False, True])
    @pytest.mark.parametrize("rel", CORPUS)
    def test_instances_follow_their_binders_decl(self, rel, checked, monkeypatch):
        program = load_file(rel)
        if checked:
            check_program(program)
        reference = reference_decls(program)
        checkers = []
        resolve_closure_types = runtime.resolve_closure_types

        def spied(checker, p):
            checkers.append(checker)
            return resolve_closure_types(checker, p)

        monkeypatch.setattr(runtime, "resolve_closure_types", spied)
        for monitors in (True, False):
            checkers.clear()
            soup = Soup(program, seed=1, monitors=monitors)
            # The reference's declarations by binder: every `new` binder,
            # and each name a continuation reads, declared or not alike.
            assert {id(c) for c in checkers} == {id(checkers[0])}
            decls = checkers[0].decls
            assert all(reference[n] == t for n, t in decls.items())
            nodes = new_nodes(program.process)
            assert all(node.name in decls for node in nodes)
            for spec in (node.closure for node in nodes if node.closure):
                for name in (spec.target, *spec.captured):
                    assert decls.get(name) == reference.get(name), name
            seen = 0
            while True:
                if soup.steps in (0, 1, 10, 100):
                    for inst in soup.instances.values():
                        assert inst.kind.decl == reference[inst.kind.node.name], inst.oid
                        assert inst.kind.caps == tag_caps(soup.alg, inst.kind.decl)
                        seen += 1
                if soup.violation is not None or soup.steps >= 100 or not soup.step():
                    break
            assert seen

    @pytest.mark.parametrize(
        "rel, declared, resolves",
        [("accepted/future-user.cob", 0, False), ("accepted/future-class.cob", 1, True)],
    )
    def test_rule_variables_are_declared_on_demand(
        self, rel, declared, resolves, monkeypatch
    ):
        # future-user has no continuation, so its plan declares none of its 4
        # rule variables and resolves no slots; of future-class's 7, only
        # `future`, the target of its `future.Get` calls, is declared.
        checkers, resolved = [], []
        resolve_closure_types = runtime.resolve_closure_types
        arg_determinate = checker_module.arg_determinate

        def spied(checker, p):
            checkers.append(checker)
            return resolve_closure_types(checker, p)

        def counted(*args):
            resolved.append(args)
            return arg_determinate(*args)

        monkeypatch.setattr(runtime, "resolve_closure_types", spied)
        monkeypatch.setattr(checker_module, "arg_determinate", counted)
        program = load_file(rel)
        runtime.Plan(program)
        nodes = new_nodes(program.process)
        variables = {param for node in nodes for r in node.rules
                     for m in r.pattern for param in m.params}
        decls = checkers[0].decls
        assert sum(v in decls for v in variables) == declared
        assert len(variables) == declared + len(checkers[0].pending)
        assert bool(resolved) == resolves

    @pytest.mark.parametrize("monitors", [True, False])
    @pytest.mark.parametrize("rel", CORPUS)
    def test_each_node_is_declared_once(self, rel, monitors, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("resolve_closure_types", "tag_caps"):
            monkeypatch.setattr(runtime, name, counted(name, getattr(runtime, name)))
        program = load_file(rel)
        nodes = len(new_nodes(program.process))
        soup = Soup(program, seed=0, monitors=monitors)
        assert calls == {"resolve_closure_types": nodes, "tag_caps": nodes}
        while soup.violation is None and soup.steps < 300 and soup.step():
            pass
        soup.check_solution()
        assert calls == {"resolve_closure_types": nodes, "tag_caps": nodes}


def free_names(node) -> set[int]:
    """Reference walk: the binder uids a core process or expression reads
    from outside itself."""
    if isinstance(node, Var):
        return {node.name.uid}
    if isinstance(node, BinOp):
        return free_names(node.left) | free_names(node.right)
    if isinstance(node, Send):
        args = [a for m in node.molecule for a in m.args]
        return {node.target.uid}.union(*map(free_names, args))
    if isinstance(node, Par):
        return set().union(*map(free_names, node.parts))
    if isinstance(node, If):
        return free_names(node.cond) | free_names(node.then) | free_names(node.els)
    if isinstance(node, NewObj):
        return (rule_names(node) | free_names(node.body)) - {node.name.uid}
    return set()  # done, or a literal


def rule_names(obj: NewObj) -> set[int]:
    """What obj's rules read, less the parameters their patterns bind."""
    return set().union(*(
        free_names(r.body) - {n.uid for m in r.pattern for n in m.params}
        for r in obj.rules
    ))


class TestFlatEnvs:
    """Each object keeps only the names its rules read."""

    @pytest.mark.parametrize("rel", CORPUS)
    def test_env_is_the_rules_free_names(self, rel):
        program = load_file(rel)
        soup = Soup(program, seed=1)
        seen = 0
        while True:
            if soup.steps in (0, 1, 3, 10, 100, 1000):
                for inst in soup.instances.values():
                    assert set(inst.env) == rule_names(inst.kind.node), inst.oid
                    if inst.kind.node.name.uid in inst.env:
                        assert inst.env[inst.kind.node.name.uid] is inst.oid
                    seen += 1
                # Objects whose rules read no outer name share one mapping.
                empty = {id(i.env) for i in soup.instances.values() if not i.env}
                assert len(empty) <= 1
            if soup.violation is not None or soup.steps >= 1000 or not soup.step():
                break
        assert seen

    def test_pi_workers_hold_empty_envs(self):
        soup = Soup(load_file("accepted/pi.cob"), seed=1)
        while soup.steps < 500 and soup.step():
            pass
        workers = [i for i in soup.instances.values() if i.oid.text == "this"]
        assert workers and all(i.env == {} for i in workers)

    def test_rule_reading_an_outer_object(self):
        # The checker rejects b's rule for reading a, which is not stateless;
        # unchecked, b keeps a in its env and the run goes on as before.
        src = "new a : *X [ X |> System!Print(1) ] in new b : *M [ M |> a!X ] in b!M"
        assert check_program(load_program(src)).verdict == "rejected"
        result = run_source(src)
        assert (result.verdict, result.steps, result.outputs) == (
            "Terminated", 2, [1.0]
        )

    def test_pi_run_keeps_little_memory(self):
        # Copying the whole enclosing scope into every object, and keeping
        # each drained mailbox's table, peaked at 6.2 MB.
        program = load_file("accepted/pi.cob")
        tracemalloc.start()
        try:
            result = run(program, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "Terminated"
        assert peak < 4 << 20, peak


def reference_reachable(soup) -> set[runtime.ObjId]:
    """Reference walk: the ids of the objects holding a message, and of
    every object that the env or a payload of a reached object names."""
    by_id = {inst.oid: inst for inst in soup.instances.values()}
    todo = [oid for oid, inst in by_id.items() if inst.tags()]
    seen = set()
    while todo:
        oid = todo.pop()
        if oid in seen or oid.serial < 1:  # System and Number are no objects
            continue
        seen.add(oid)
        inst = by_id.get(oid)
        if inst is not None:
            names = list(inst.env.values()) + [
                v for msgs in inst.mailbox.values() for _, args in msgs for v in args
            ]
            todo += [v for v in names if isinstance(v, runtime.ObjId)]
    return seen


def fenwick_weight(soup, serial) -> int:
    """The weight the soup's Fenwick tree holds at serial."""
    tree = soup._enabled.tree

    def prefix(i):
        total = 0
        while i:
            total += tree[i]
            i -= i & -i
        return total

    return prefix(serial) - prefix(serial - 1) if serial < len(tree) else 0


class TestCollection:
    """Between steps the soup drops every object no reaction can reach."""

    @pytest.mark.parametrize("min_collect", [1, runtime._MIN_COLLECT])
    @pytest.mark.parametrize("rel", CORPUS)
    def test_held_objects_cover_the_reachable_ones(
        self, rel, min_collect, monkeypatch
    ):
        monkeypatch.setattr(runtime, "_MIN_COLLECT", min_collect)
        collect, dropped = Soup.collect, []

        def checked(soup):
            before = dict(soup.instances)
            collect(soup)
            for serial, inst in before.items():
                if serial not in soup.instances:
                    # Nothing it could still do, and nothing quiesce reads.
                    assert not inst.mailbox and not any(inst.weights)
                    assert fenwick_weight(soup, serial) == 0
                    assert soup.alg.nullable(inst.kind.decl)
                    dropped.append(inst)

        monkeypatch.setattr(Soup, "collect", checked)
        program = load_file(rel)  # rejected programs run unchecked
        for seed in range(2):
            soup = Soup(program, seed=seed, monitors=False)
            while True:
                if soup.steps in (0, 1, 10, 100, 1000, 3000):
                    held = soup.instances.keys()
                    assert {o.serial for o in reference_reachable(soup)} <= held
                if soup.steps >= 3000 or not soup.step():
                    break
        if min_collect == 1 and rel in ("accepted/pi.cob", "accepted/sieve.cob"):
            assert len(dropped) > 1000

    @pytest.mark.parametrize("rel", CORPUS)
    def test_collection_changes_no_run(self, rel, monkeypatch):
        program = load_file(rel)
        max_steps = 3000 if "sieve" in rel else 100_000
        results = []
        for min_collect in (1, 1 << 62):
            monkeypatch.setattr(runtime, "_MIN_COLLECT", min_collect)
            results.append([
                run(program, seed=seed, max_steps=max_steps, trace=True,
                    check_solution=True)
                for seed in range(3)
            ])
        assert results[0] == results[1]

    def test_empty_mailboxes_share_one_mapping(self):
        # Two empty dicts per object took 0.59 MB at pi's peak.
        soup = Soup(load_file("accepted/pi.cob"), seed=1)
        while soup.steps < 3000:
            assert soup.step()
            if soup.steps % 100 == 0:
                empty = [i for i in soup.instances.values() if not i.tags()]
                assert empty
                assert len({id(d) for i in empty for d in (i.mailbox, i.counts)}) == 1

    def test_sieve_holds_few_unreachable_objects(self):
        soup = Soup(load_file("accepted/sieve.cob"), seed=1)
        while soup.steps < 20_000:
            assert soup.step()
        assert sum(soup.created.values()) > 5000
        assert len(soup.instances) <= 3 * len(reference_reachable(soup))

    # `lost` is never sent the A its type demands, and nobody can reach it;
    # the ticker's garbage makes the soup collect many times.
    UNREACHABLE_DEBTOR = (
        "new lost : A [ A |> done ] in"
        " new t : *T(#Number) [ T(n) |> if n = 0 then done"
        " else new g : *G [ G |> done ] in t!T(n - 1) ] in t!T(2000)"
    )

    def test_unreachable_object_short_of_its_protocol_is_kept(self, monkeypatch):
        collections = Counter()
        collect = Soup.collect

        def counted(soup):
            collections["collect"] += 1
            collect(soup)

        monkeypatch.setattr(Soup, "collect", counted)
        program = load_program(self.UNREACHABLE_DEBTOR)
        assert check_program(program).verdict == "rejected"
        result = run(program, seed=0)
        assert collections["collect"] >= 5
        assert result.verdict == "MonitorViolation"
        assert result.violation == (
            "lost@1 ends with messages [], short of a whole configuration"
            " of its protocol A"
        )

    @pytest.mark.parametrize(
        "rel,max_steps,limit",
        [
            ("accepted/pi.cob", 100_000, 3 << 20),
            ("accepted/sieve.cob", 20_000, 1 << 20),
        ],
    )
    def test_memory_follows_the_live_objects(self, rel, max_steps, limit):
        # Holding every object ever created peaked at 3.26 MB for pi and
        # 2.76 MB for 20,000 sieve steps.
        program = load_file(rel)
        tracemalloc.start()
        try:
            result = run(program, seed=1, max_steps=max_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict in ("Terminated", "StepBudgetExhausted")
        assert peak < limit, peak


class TestPlan:
    """A program compiled once runs every seed as a fresh compile does."""

    @staticmethod
    def runs(rel):
        """The runs to compare for one corpus program: (seed, max_steps)."""
        seeds = range(3) if rel == "accepted/pi.cob" else range(10)
        return [(seed, 3000 if "sieve" in rel else 100_000) for seed in seeds]

    @staticmethod
    def run_both(plan, program, seed, max_steps, monitors):
        shared, fresh = (
            run(p, seed=seed, max_steps=max_steps, monitors=monitors,
                trace=True, check_solution=True)
            for p in (plan, program)
        )
        assert shared.trace
        # Every field: verdict, steps, outputs, trace, deadlocked,
        # violation, created and invariant_failed.
        assert shared == fresh, (seed, monitors)

    @pytest.mark.parametrize("rel", CORPUS)
    def test_shared_plan_runs_as_a_fresh_compile(self, rel):
        program = load_file(rel)
        plan = runtime.Plan(program)
        for monitors in (True, False):
            for seed, max_steps in self.runs(rel):
                self.run_both(plan, program, seed, max_steps, monitors)

    def test_interleaved_plans_run_as_fresh_compiles(self):
        rels = ["accepted/future-class.cob", "accepted/sieve.cob",
                "rejected/future-user-deadlock.cob"]
        programs = [load_file(rel) for rel in rels]
        plans = [runtime.Plan(p) for p in programs]
        for seed in range(5):
            for monitors in (True, False):
                for plan, program in zip(plans, programs):
                    self.run_both(plan, program, seed, 500, monitors)

    def test_instances_hold_only_run_state(self):
        assert [f.name for f in dataclasses.fields(runtime.Instance)] == [
            "oid", "kind", "env", "weights", "picks", "mailbox", "counts",
        ]
        # One kind per `new` node, shared by every object the node spawns.
        program = load_file("accepted/sieve.cob")
        soup = Soup(program, seed=0)
        while soup.steps < 300 and soup.step():
            pass
        kinds = {}
        for inst in soup.instances.values():
            assert kinds.setdefault(id(inst.kind.node), inst.kind) is inst.kind
        assert 1 < len(kinds) <= len(new_nodes(program.process))
