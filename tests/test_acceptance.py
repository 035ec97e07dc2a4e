"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion carries a wall-clock budget; a slow pass is a failure.
"""

import json
import math
import pathlib
import random
import time

import pytest

from joinstate import types as ty
from joinstate.checker import check_program
from joinstate.deps import DependencyRelation, Incompatible, join
from joinstate.desugar import load_program
from joinstate.oracle import config_le, oracle_subtype, random_type
from joinstate.parser import parse_type
from joinstate.runtime import Plan, Soup, run
from joinstate.semilinear import SubtypeEngine
from joinstate.types import TypeAlgebra

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
MANIFEST = json.loads((PROGRAMS / "manifest.json").read_text())

PI_BOUND = 4 / 2049


def load_file(rel):
    path = PROGRAMS / rel
    return load_program(path.read_text(), str(path))


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.seconds else "FAIL"
        print(f"criterion {self.name}: {status} ({elapsed:.2f}s / {self.seconds:g}s)")
        if exc_type is None:
            assert elapsed <= self.seconds, (
                f"{self.name} exceeded its {self.seconds:g}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_ill_typed_corpus_rejected():
    with _Budget("1 corpus rejection", 1.0):
        for rel, code in sorted(MANIFEST["rejected"].items()):
            report = check_program(load_file(rel))
            assert report.verdict == "rejected", rel
            assert set(report.codes()) == {code}, (rel, report.codes())


def test_criterion_2_well_typed_corpus_accepted():
    with _Budget("2 corpus acceptance", 5.0):
        for rel in MANIFEST["accepted"]:
            report = check_program(load_file(rel))
            assert report.verdict == "accepted", (
                rel,
                [str(d) for d in report.diagnostics],
            )


def test_criterion_3_pi_value_and_worker_count():
    program = load_file("accepted/pi.cob")
    with _Budget("3 pi execution", 20 * 10.0):
        for seed in range(20):
            start = time.monotonic()
            result = run(program, seed=seed)
            assert time.monotonic() - start <= 10.0, seed
            assert result.verdict == "Terminated", seed
            assert result.created["this"] == 2047, seed
            [value] = result.outputs
            assert abs(value - math.pi) <= PI_BOUND, (seed, value)


def test_criterion_4_sieve_prints_first_primes():
    with _Budget("4 sieve execution", 30.0):
        result = run(load_file("accepted/sieve.cob"), seed=0, max_steps=20000)
        assert result.verdict == "StepBudgetExhausted"
        assert result.outputs[:5] == [2.0, 3.0, 5.0, 7.0, 11.0]


def test_criterion_5_derivative_facts():
    with _Budget("5 derivative facts", 5.0):
        program = load_file("accepted/future-user.cob")
        alg = TypeAlgebra(program.table)
        engine = SubtypeEngine(alg)
        future = program.table["#FutureT"]

        after_get = alg.derivative_config(future, ("EMPTY", "Get"))
        expected = parse_type("Resolve(#Number) . *Get(Reply(#Number))")
        assert engine.equivalent(after_get, expected).kind == "yes"
        assert alg.usable(after_get) and alg.relevant(after_get)

        star = parse_type("*(A . B)")
        assert (
            engine.equivalent(
                alg.derivative(star, "B"), parse_type("A . *(A . B)")
            ).kind
            == "yes"
        )

        resolved = alg.derivative_config(future, ("RESOLVED",))
        assert not alg.relevant(resolved)


def test_criterion_6_fuzz_accepted_programs():
    # The sieve never terminates by design; it gets a step cap.  Everything
    # still runs with monitors on and must never violate or deadlock.
    budgets = {"accepted/sieve.cob": 3000}
    with _Budget("6 schedule fuzzing", 120.0):
        for rel in MANIFEST["accepted"]:
            plan = Plan(load_file(rel))
            for seed in range(100):
                result = run(
                    plan,
                    seed=seed,
                    max_steps=budgets.get(rel, 100_000),
                )
                assert result.verdict not in ("Deadlocked", "MonitorViolation"), (
                    rel,
                    seed,
                    result.verdict,
                    result.violation,
                )


def test_criterion_7_preservation_along_runs():
    with _Budget("7 preservation", 120.0):
        for rel in MANIFEST["accepted"]:
            plan = Plan(load_file(rel))
            for seed in range(10):
                soup = Soup(plan, seed=seed)
                assert soup.check_solution(), (rel, seed, 0)
                while soup.steps < 200 and soup.step():
                    assert soup.check_solution(), (rel, seed, soup.steps)


def _random_partition(rng, names):
    blocks = []
    pool = list(names)
    rng.shuffle(pool)
    while pool:
        size = rng.randint(1, min(3, len(pool)))
        block, pool = pool[:size], pool[size:]
        if len(block) >= 2:
            blocks.append(frozenset(block))
    return DependencyRelation(frozenset(blocks))


def _join3(a, b, c, left_first):
    first = join(a, b) if left_first else join(b, c)
    if isinstance(first, Incompatible):
        return "incompatible"
    result = join(first, c) if left_first else join(a, first)
    return "incompatible" if isinstance(result, Incompatible) else result


def test_criterion_8_algebra_property_suite():
    alg = TypeAlgebra({})
    rng = random.Random(42)
    samples = [random_type(rng) for _ in range(500)]
    with _Budget("8 algebra properties", 120.0):
        engine = SubtypeEngine(alg)
        for i, t in enumerate(samples):
            s = samples[(i + 1) % len(samples)]
            u = samples[(i + 2) % len(samples)]
            ctx = (ty.render(t), ty.render(s), ty.render(u))

            # Subtyping laws: order, units, distributivity, star.
            assert engine.subtype(t, t).holds, ctx
            assert engine.subtype(ty.Sum((t, s)), t).holds, ctx
            assert engine.equivalent(ty.Sum((t, t)), t).holds, ctx
            assert engine.equivalent(ty.Sum((t, s)), ty.Sum((s, t))).holds, ctx
            assert engine.equivalent(ty.Sum((t, ty.ZERO)), t).holds, ctx
            assert engine.equivalent(ty.Prod((t, ty.ONE)), t).holds, ctx
            assert engine.equivalent(ty.Prod((t, ty.ZERO)), ty.ZERO).holds, ctx
            assert engine.equivalent(
                ty.Prod((t, ty.Sum((s, u)))),
                ty.Sum((ty.Prod((t, s)), ty.Prod((t, u)))),
            ).holds, ctx
            assert engine.subtype(
                ty.Prod((t, ty.Sum((s, u)))), ty.Prod((t, u))
            ).holds, ctx
            star = ty.Star(t)
            assert engine.subtype(star, ty.Prod((star, star))).holds, ctx
            assert engine.subtype(star, t).holds, ctx
            assert engine.equivalent(
                star, ty.Sum((ty.ONE, ty.Prod((t, star))))
            ).holds, ctx

            # Derivatives commute with each other and respect subtyping.
            tags = sorted({m.tag for m in alg.heads(t)})
            if len(tags) >= 2:
                m1, m2 = tags[0], tags[-1]
                assert engine.equivalent(
                    alg.derivative(alg.derivative(t, m1), m2),
                    alg.derivative(alg.derivative(t, m2), m1),
                ).holds, ctx
            verdict = engine.subtype(t, s)
            if verdict.kind == "yes":
                for tag in sorted({m.tag for m in alg.heads(s)}):
                    assert engine.subtype(
                        alg.derivative(t, tag), alg.derivative(s, tag)
                    ).holds, (ctx, tag)

            # Engine and enumeration oracle agree at bound 6.
            if verdict.kind == "yes":
                assert oracle_subtype(alg, t, s, size=6), ctx
            elif verdict.kind == "no":
                cex = verdict.counterexample
                candidates = [
                    c
                    for c in alg.enumerate_configs(t, len(cex))
                    if len(c) == len(cex)
                ]
                assert not any(config_le(alg, cex, c) for c in candidates), ctx

        # Dependency join is associative, including on failure.
        names = "abcdef"
        for _ in range(500):
            rels = [_random_partition(rng, names) for _ in range(3)]
            assert _join3(*rels, True) == _join3(*rels, False), rels
