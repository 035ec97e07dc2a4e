"""Execution tests: termination, outputs, determinism, monitors, deadlock."""

import math
import pathlib
from collections import Counter

import pytest

from joinstate.checker import check_program
from joinstate.desugar import load_program
from joinstate.oracle import enabled_reactions
from joinstate.runtime import Soup, run

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


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

    def test_trace_format(self):
        result = run_source(
            "new obj : *Ping(#Number) [ Ping(n) |> System!Print(n) ]"
            " in obj!Ping(5)",
            trace=True,
        )
        kinds = [e.kind for e in result.trace]
        assert "new" in kinds and "react" in kinds and "print" in kinds
        for event in result.trace:
            assert event.line().count("\t") == 4


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
            inst, rule_idx, selection = soup.reaction(i)
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

    def test_indices_match_enabled_reactions_in_pi(self):
        src = (PROGRAMS / "accepted" / "pi.cob").read_text()
        src = src.replace("Worker.New(10, 0)", "Worker.New(3, 0)")
        self.check_along_run(load_program(src), seed=2)


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

    def test_monitors_can_be_disabled(self):
        result = run_source(
            "new obj : A · B [ A & B |> done ] in obj!A & obj!A & obj!B",
            monitors=False,
        )
        assert result.verdict in ("Terminated", "Deadlocked")

    def test_accepted_programs_never_violate(self):
        for rel in ("accepted/future-user.cob", "accepted/future-class.cob"):
            for seed in range(5):
                result = run(load_file(rel), seed=seed)
                assert result.verdict == "Terminated", (rel, seed)


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
