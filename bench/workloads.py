"""The benchmark's four closed-loop workloads.

Each workload is set up from the imported joinstate modules, the checkout
root and the workload seed.  `round(r)` lists the ops of round r; `call(op)`
is the timed part and makes only calls into joinstate's public functions,
looked up on their modules at call time so a tracer can wrap them;
`check(op, out)` returns None or what is wrong with the output, and is never
timed.  `units(op, out)` counts the op's inner work (reaction steps, engine
queries or source tokens) and `exact(op, out)` its verdicts that no bound
cut short.
"""

from __future__ import annotations

import json
import math
import random
from types import SimpleNamespace

SAMPLES = 500  # criterion 8's samples, drawn from random.Random(42)
# Sample #173 takes most of a pass by itself.  The other samples run this
# many times per round, so that their op times are spread over more of the
# run than the few seconds one pass of them takes.
FAST_COPIES = 3
SLOW_SAMPLE = 173
SIEVE_CAP = 10_000  # sieve steps; the sieve then takes about half of an op
PI_WORKERS = 2047
PI_LEAVES = 1024
PI_TOLERANCE = 1e-12


def _leibniz(n: int) -> float:
    return math.fsum(4 * (-1) ** k / (2 * k + 1) for k in range(n))


def _primes(k: int) -> list[float]:
    """The first k primes, by trial division."""
    out: list[int] = []
    n = 2
    while len(out) < k:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return [float(p) for p in out]


class CheckCorpus:
    """`load_program` + `check_program` round-robin over the 12 corpus
    programs, in an order shuffled by the seed each round."""

    def __init__(self, js, root, seed):
        self.js = js
        programs = root / "programs"
        manifest = json.loads((programs / "manifest.json").read_text())
        self.expected = {rel: ("accepted", set()) for rel in manifest["accepted"]}
        for rel, code in manifest["rejected"].items():
            self.expected[rel] = ("rejected", {code})
        self.rels = sorted(self.expected)
        self.sources = {rel: (programs / rel).read_text() for rel in self.rels}
        self.tokens = {
            rel: len(js.parser.tokenize(src)) for rel, src in self.sources.items()
        }
        self.rng = random.Random(seed)

    def round(self, r):
        order = list(self.rels)
        self.rng.shuffle(order)
        return order

    def call(self, rel):
        js = self.js
        return js.checker.check_program(
            js.desugar.load_program(self.sources[rel], rel))

    def check(self, rel, report):
        verdict, codes = self.expected[rel]
        if report.verdict != verdict or set(report.codes()) != codes:
            return f"{rel}: {report.verdict} {sorted(report.codes())}, expected {verdict} {sorted(codes)}"
        return None

    def units(self, rel, report):
        return self.tokens[rel]

    def exact(self, rel, report):
        return int(not report.bounded_subtype_uses)


class SubtypeLaws:
    """Criterion 8's law battery, one fresh algebra and SubtypeEngine per
    op.  A round holds sample #173 once and every other sample FAST_COPIES
    times, in an order shuffled by the seed; an op is (sample, copy)."""

    LAWS = 12

    def __init__(self, js, root, seed):
        self.js = js
        rng = random.Random(42)
        self.samples = [js.oracle.random_type(rng) for _ in range(SAMPLES)]
        self.rng = random.Random(seed)
        self.check_alg = js.types.TypeAlgebra({})

    def round(self, r):
        order = [
            (i, copy) for i in range(len(self.samples))
            for copy in range(1 if i == SLOW_SAMPLE else FAST_COPIES)
        ]
        self.rng.shuffle(order)
        return order

    def triple(self, i):
        n = len(self.samples)
        return self.samples[i], self.samples[(i + 1) % n], self.samples[(i + 2) % n]

    def call(self, op):
        i, _ = op
        js = self.js
        ty = js.types
        Sum, Prod, ONE, ZERO = ty.Sum, ty.Prod, ty.ONE, ty.ZERO
        t, s, u = self.triple(i)
        alg = ty.TypeAlgebra({})
        e = js.semilinear.SubtypeEngine(alg)
        star = ty.Star(t)
        laws = [
            e.subtype(t, t),
            e.subtype(Sum((t, s)), t),
            e.equivalent(Sum((t, t)), t),
            e.equivalent(Sum((t, s)), Sum((s, t))),
            e.equivalent(Sum((t, ZERO)), t),
            e.equivalent(Prod((t, ONE)), t),
            e.equivalent(Prod((t, ZERO)), ZERO),
            e.equivalent(Prod((t, Sum((s, u)))), Sum((Prod((t, s)), Prod((t, u))))),
            e.subtype(Prod((t, Sum((s, u)))), Prod((t, u))),
            e.subtype(star, Prod((star, star))),
            e.subtype(star, t),
            e.equivalent(star, Sum((ONE, Prod((t, star))))),
        ]
        derived = []
        tags = sorted({m.tag for m in alg.heads(ty.normalize(t))})
        if len(tags) >= 2:
            m1, m2 = tags[0], tags[-1]
            derived.append(e.equivalent(
                alg.derivative(alg.derivative(t, m1), m2),
                alg.derivative(alg.derivative(t, m2), m1),
            ))
        pair = e.subtype(t, s)
        if pair.kind == "yes":
            for tag in sorted({m.tag for m in alg.heads(ty.normalize(s))}):
                derived.append(e.subtype(alg.derivative(t, tag), alg.derivative(s, tag)))
        return SimpleNamespace(laws=laws, derived=derived, pair=pair)

    def check(self, op, out):
        i, _ = op
        js, alg = self.js, self.check_alg
        t, s, _ = self.triple(i)
        broken = [k for k, v in enumerate(out.laws + out.derived) if not v.holds]
        if broken or len(out.laws) != self.LAWS:
            return f"sample {i}: laws {broken} do not hold"
        if out.pair.kind == "yes" and not js.oracle.oracle_subtype(alg, t, s, size=6):
            return f"sample {i}: engine says t <= s, the oracle disagrees"
        if out.pair.kind == "no":
            cex = out.pair.counterexample
            covered = any(
                js.oracle.config_le(alg, cex, c)
                for c in alg.enumerate_configs(js.types.normalize(t), len(cex))
                if len(c) == len(cex)
            )
            if covered:
                return f"sample {i}: counterexample {cex} is a configuration of t"
        return None

    def units(self, op, out):
        return len(out.laws) + len(out.derived) + 1

    def exact(self, op, out):
        # Counted once per sample, so a round reads like one pass.
        return sum(v.kind == "yes" for v in out.laws) if op[1] == 0 else 0


def _load_checked(js, root, rel):
    program = js.desugar.load_program((root / "programs" / rel).read_text(), rel)
    report = js.checker.check_program(program)
    if report.verdict != "accepted":
        raise ValueError(f"{rel} is {report.verdict}: {report.codes()}")
    return program


class FuzzFutures:
    """`run` with monitors on over successive runtime seeds, alternating
    future-user.cob and future-class.cob; programs are checked at set-up,
    as `joinstate fuzz` does."""

    EXPECTED = {"future-user": [42.0], "future-class": [42.0, 42.0]}

    def __init__(self, js, root, seed):
        self.js = js
        self.programs = {
            name: _load_checked(js, root, f"accepted/{name}.cob")
            for name in self.EXPECTED
        }
        self.base = seed * 1_000_000

    def round(self, r):
        return [(name, self.base + r) for name in self.EXPECTED]

    def call(self, op):
        name, seed = op
        return self.js.runtime.run(self.programs[name], seed=seed, monitors=True)

    def check(self, op, result):
        name, seed = op
        if result.verdict != "Terminated" or result.outputs != self.EXPECTED[name]:
            return f"{name} seed {seed}: {result.verdict} {result.outputs}"
        return None

    def units(self, op, result):
        return result.steps

    def exact(self, op, result):
        return int(result.verdict == "Terminated")


class FuzzPiSieve:
    """Per runtime seed, one pi.cob run to termination and one sieve.cob run
    to SIEVE_CAP steps, both with monitors on; one op is one seed."""

    def __init__(self, js, root, seed):
        self.js = js
        self.pi = _load_checked(js, root, "accepted/pi.cob")
        self.sieve = _load_checked(js, root, "accepted/sieve.cob")
        self.pi_value = _leibniz(PI_LEAVES)
        self.base = seed * 1_000_000
        self.labels = {id(self.pi): "pi", id(self.sieve): "sieve"}

    def round(self, r):
        return [self.base + r]

    def call(self, seed):
        run = self.js.runtime.run
        return (
            run(self.pi, seed=seed, monitors=True),
            run(self.sieve, seed=seed, max_steps=SIEVE_CAP, monitors=True),
        )

    def check(self, seed, out):
        pi, sieve = out
        if pi.verdict != "Terminated" or pi.created.get("this") != PI_WORKERS:
            return f"pi seed {seed}: {pi.verdict}, {pi.created.get('this')} workers"
        if len(pi.outputs) != 1 or abs(pi.outputs[0] - self.pi_value) > PI_TOLERANCE:
            return f"pi seed {seed}: printed {pi.outputs}, expected {self.pi_value!r}"
        if sieve.verdict != "StepBudgetExhausted":
            return f"sieve seed {seed}: {sieve.verdict}"
        k = len(sieve.outputs)
        if k < 5 or sieve.outputs != _primes(k):
            return f"sieve seed {seed}: printed {sieve.outputs[:10]}..., not the first {k} primes"
        return None

    def units(self, seed, out):
        return out[0].steps + out[1].steps

    def exact(self, seed, out):
        return sum(r.verdict == "Terminated" for r in out)


WORKLOADS = {
    "check-corpus": CheckCorpus,
    "subtype-laws": SubtypeLaws,
    "fuzz-futures": FuzzFutures,
    "fuzz-pi-sieve": FuzzPiSieve,
}
