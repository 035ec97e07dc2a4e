"""Tests for Parikh images, the subtype engine, liveness and argument resolution."""

import hashlib
import itertools
import random

import pytest

from joinstate import types as ty
from joinstate.oracle import oracle_subtype, random_type
from joinstate.semilinear import (
    AMBIGUOUS,
    DEAD,
    LinearSet,
    SubtypeEngine,
    _bounded_coeffs,
    _Box,
    _Matcher,
    _transport_exists,
    arg_determinate,
    joint_alphabet,
    live,
    member,
    parikh,
)
from joinstate.types import (
    NUMBER,
    ONE,
    ZERO,
    Msg,
    Prod,
    Ref,
    Star,
    Sum,
    TypeAlgebra,
    normalize,
    resolve_types,
)


def msg(tag, *args):
    return Msg(tag, tuple(args))


A = msg("A")
B = msg("B")
C = msg("C")
M = msg("M")


def future_table():
    reply = msg("Reply", NUMBER)
    return resolve_types(
        [
            (
                "#FutureT",
                Prod(
                    (
                        Sum(
                            (
                                Prod((msg("EMPTY"), msg("Resolve", NUMBER))),
                                msg("RESOLVED", NUMBER),
                            )
                        ),
                        Star(msg("Get", reply)),
                    )
                ),
            )
        ]
    )


class TestParikh:
    def test_star_of_pair(self):
        alg = TypeAlgebra()
        t = normalize(Star(Prod((A, B))))
        alphabet = joint_alphabet(alg, t)
        comps = parikh(alg, t, alphabet)
        assert comps == [LinearSet((0, 0), frozenset({(1, 1)}))]

    def test_one_is_zero_vector(self):
        alg = TypeAlgebra()
        comps = parikh(alg, ONE, ())
        assert comps == [LinearSet((), frozenset())]

    def test_zero_is_empty(self):
        alg = TypeAlgebra()
        assert parikh(alg, ZERO, ()) == []

    def test_member_against_enumeration(self):
        alg = TypeAlgebra()
        t = normalize(Star(Prod((A, B))))
        alphabet = joint_alphabet(alg, t)
        comps = parikh(alg, t, alphabet)
        assert member((2, 2), comps)
        assert not member((1, 0), comps)
        assert member((0, 0), comps)

    def test_future_components_match_enumeration(self):
        alg = TypeAlgebra(future_table())
        t = Ref("#FutureT")
        alphabet = joint_alphabet(alg, t)
        comps = parikh(alg, t, alphabet)
        index = {m.tag: i for i, m in enumerate(alphabet)}
        enum = alg.enumerate_configs(t, 5)
        for cfg in enum:
            v = [0] * len(alphabet)
            for m in cfg:
                v[index[m.tag]] += 1
            assert member(tuple(v), comps), cfg
        # and a few non-configurations
        for tags in [("EMPTY",), ("EMPTY", "RESOLVED"), ("Resolve",)]:
            v = [0] * len(alphabet)
            for tag in tags:
                v[index[tag]] += 1
            assert not member(tuple(v), comps), tags


class TestSubtype:
    def setup_method(self):
        self.engine = SubtypeEngine(TypeAlgebra())

    def test_sum_can_forget_alternatives(self):
        assert self.engine.subtype(Sum((A, B)), A).kind == "yes"

    def test_argument_contravariance(self):
        sub = msg("M", A)
        sup = msg("M", Sum((A, B)))
        assert self.engine.subtype(sub, sup).kind == "yes"
        assert self.engine.subtype(sup, sub).kind == "no"

    def test_product_choice_narrowing(self):
        t = Prod((A, Sum((B, C))))
        assert self.engine.subtype(t, Prod((A, C))).kind == "yes"

    def test_counterexample_is_exact(self):
        v = self.engine.subtype(A, Sum((A, B)))
        assert v.kind == "no"
        assert v.counterexample == (B,)

    def test_zero_is_top(self):
        for t in [A, ONE, ZERO, Star(A)]:
            assert self.engine.subtype(t, ZERO).holds

    def test_star_laws(self):
        t = Star(M)
        assert self.engine.subtype(t, Prod((t, t))).holds
        assert self.engine.subtype(t, M).holds

    def test_unit_product_equivalence(self):
        left = Prod((ONE, A, Sum((B, C))))
        right = Prod((A, Sum((B, C))))
        assert self.engine.equivalent(left, right).kind == "yes"

    def test_absorbed_zero_equivalence(self):
        assert self.engine.equivalent(ZERO, Prod((A, ZERO))).kind == "yes"

    def test_star_not_equivalent_to_body(self):
        v = self.engine.equivalent(Star(M), M)
        assert v.kind == "no"

    def test_nullability_gate_counterexample(self):
        v = self.engine.subtype(M, Star(M))
        assert v.kind == "no" and v.counterexample == ()


def random_linear_set(rng, n):
    base = tuple(rng.randint(0, 2) for _ in range(n))
    periods = frozenset(
        tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))
    )
    return LinearSet(base, periods)


def candidates(comps, bound):
    """The vectors the bounded fallback asks about: base plus at most bound
    periods."""
    for c in comps:
        periods = sorted(p for p in c.periods if any(p))
        for coeffs in _bounded_coeffs(len(periods), bound):
            v = c.base
            for p, k in zip(periods, coeffs):
                v = tuple(a + k * b for a, b in zip(v, p))
            yield v


class TestMembershipTable:
    """The table behind bounded inclusion against brute-force membership."""

    @pytest.mark.parametrize("seed", range(40))
    def test_box_agrees_with_member(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        comps = [random_linear_set(rng, n) for _ in range(rng.randint(1, 4))]
        hi = [rng.randint(0, 5) for _ in range(n)]
        box = _Box(comps, hi)
        for v in itertools.product(*(range(h + 1) for h in hi)):
            assert (box.index(v) in box) == member(v, comps), (comps, hi, v)

    @pytest.mark.parametrize("seed", range(40))
    def test_matcher_agrees_with_brute_force(self, seed):
        # M has three slots, so a match may put v's M messages on other
        # slots, and whether it may is decided by transport.
        a, b = msg("A"), msg("B")
        alphabet = joint_alphabet(
            TypeAlgebra(), msg("M", a), msg("M", b), msg("M", Sum((a, b))), C
        )
        tag_of = [slot.tag for slot in alphabet]
        engine = SubtypeEngine(TypeAlgebra(), bound=2)
        rng = random.Random(seed)
        t_comps = [random_linear_set(rng, 4) for _ in range(rng.randint(1, 3))]
        s_comps = [random_linear_set(rng, 4) for _ in range(rng.randint(1, 2))]
        matcher = _Matcher(engine, t_comps, s_comps, alphabet)
        for v in candidates(s_comps, engine.bound):
            counts = {tag: 0 for tag in tag_of}
            for x, tag in zip(v, tag_of):
                counts[tag] += x
            same_tags = [
                w
                for w in itertools.product(*(range(counts[g] + 1) for g in tag_of))
                if all(
                    sum(x for x, g in zip(w, tag_of) if g == tag) == k
                    for tag, k in counts.items()
                )
            ]
            expect = any(
                member(w, t_comps) and engine._transport_ok(v, w, alphabet)
                for w in same_tags
            )
            assert matcher.matches(v) == expect, (t_comps, v)

    def test_transport_decides(self):
        a, b = msg("A"), msg("B")
        wide = msg("M", Sum((a, b)))
        narrow = Prod((msg("M", a), msg("M", b)))
        engine = SubtypeEngine(TypeAlgebra())
        # Each M(A + B) is matched by M(A) or M(B), never the other way.
        assert engine.subtype(narrow, Prod((wide, wide))).kind == "yes-bounded"
        verdict = engine.subtype(Prod((wide, wide)), narrow)
        assert verdict.kind == "no"
        assert verdict.counterexample == (msg("M", a), msg("M", b))
        alg = TypeAlgebra()
        assert oracle_subtype(alg, narrow, Prod((wide, wide)), size=6)
        assert not oracle_subtype(alg, Prod((wide, wide)), narrow, size=6)
        assert _transport_exists([2], [1, 1], [[True, True]])
        assert not _transport_exists([1, 1], [2], [[False], [True]])


def law_battery(alg, engine, t, s, u):
    """Every query criterion 8 asks about one sample, in its order."""
    star = ty.Star(t)
    out = [
        engine.subtype(t, t),
        engine.subtype(Sum((t, s)), t),
        engine.equivalent(Sum((t, t)), t),
        engine.equivalent(Sum((t, s)), Sum((s, t))),
        engine.equivalent(Sum((t, ZERO)), t),
        engine.equivalent(Prod((t, ONE)), t),
        engine.equivalent(Prod((t, ZERO)), ZERO),
        engine.equivalent(Prod((t, Sum((s, u)))), Sum((Prod((t, s)), Prod((t, u))))),
        engine.subtype(Prod((t, Sum((s, u)))), Prod((t, u))),
        engine.subtype(star, Prod((star, star))),
        engine.subtype(star, t),
        engine.equivalent(star, Sum((ONE, Prod((t, star))))),
    ]
    tags = sorted({m.tag for m in alg.heads(normalize(t))})
    if len(tags) >= 2:
        m1, m2 = tags[0], tags[-1]
        out.append(
            engine.equivalent(
                alg.derivative(alg.derivative(t, m1), m2),
                alg.derivative(alg.derivative(t, m2), m1),
            )
        )
    pair = engine.subtype(t, s)
    out.append(pair)
    if pair.kind == "yes":
        for tag in sorted({m.tag for m in alg.heads(normalize(s))}):
            out.append(engine.subtype(alg.derivative(t, tag), alg.derivative(s, tag)))
    return out


def test_law_battery_fingerprint():
    """Verdict kinds and counterexamples of criterion 8's 500 samples, pinned:
    a faster engine must answer exactly as the reference search did (6,641
    queries: 5,981 yes, 270 yes-bounded, 390 no)."""
    rng = random.Random(42)
    samples = [random_type(rng) for _ in range(500)]
    alg = TypeAlgebra({})
    engine = SubtypeEngine(alg)
    digest = hashlib.sha256()
    kinds = {}
    for i, t in enumerate(samples):
        s, u = samples[(i + 1) % 500], samples[(i + 2) % 500]
        for v in law_battery(alg, engine, t, s, u):
            digest.update(f"{i}|{v.kind}|{v.counterexample!r}\n".encode())
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
    assert kinds == {"yes": 5981, "yes-bounded": 270, "no": 390}
    assert digest.hexdigest() == (
        "c9aa6f12c8366e72b2d794ae5ed99c697587b6862391a760f6fc6f352db34caa"
    )


class TestDerivativeFacts:
    """The protocol-residual facts the checker and monitors rely on."""

    def setup_method(self):
        self.alg = TypeAlgebra(future_table())
        self.engine = SubtypeEngine(self.alg)

    def test_future_after_empty_get(self):
        t = self.alg.derivative_config(Ref("#FutureT"), ["EMPTY", "Get"])
        expect = Prod((msg("Resolve", NUMBER), Star(msg("Get", msg("Reply", NUMBER)))))
        assert self.engine.equivalent(t, expect).kind == "yes"
        assert self.alg.relevant(t)
        assert self.alg.usable(t)

    def test_star_residual_is_relevant(self):
        t = self.alg.derivative(Star(Prod((A, B))), "B")
        expect = Prod((A, Star(Prod((A, B)))))
        assert self.engine.equivalent(t, expect).kind == "yes"
        assert self.alg.relevant(t)

    def test_future_after_resolved_is_irrelevant(self):
        t = self.alg.derivative(Ref("#FutureT"), "RESOLVED")
        assert self.alg.nullable(t)


class TestLive:
    def test_future_patterns(self):
        alg = TypeAlgebra(future_table())
        X = [{"EMPTY": 1, "Resolve": 1}, {"RESOLVED": 1, "Get": 1}]
        assert live(alg, Ref("#FutureT"), X)

    def test_unfireable_relevant_message(self):
        alg = TypeAlgebra()
        t = msg("M", msg("Reply", NUMBER))
        assert not live(alg, t, [{"M": 2}])

    def test_vacuous(self):
        alg = TypeAlgebra()
        assert live(alg, ONE, [])

    def test_irrelevant_arguments_do_not_matter(self):
        alg = TypeAlgebra()
        t = msg("M", NUMBER)
        assert live(alg, t, [{"M": 2}])


class TestArgDeterminate:
    def setup_method(self):
        self.alg = TypeAlgebra()
        # A . M(B)  +  C . M(A): M's argument depends on context.
        self.t = Sum((Prod((A, msg("M", B))), Prod((C, msg("M", A)))))

    def test_ambiguous_alone(self):
        assert arg_determinate(self.alg, self.t, {"M": 1}) is AMBIGUOUS

    def test_context_disambiguates(self):
        v = arg_determinate(self.alg, self.t, {"A": 1, "M": 1})
        assert v.kind == "determinate"
        assert v.assignment == {"A": A, "M": msg("M", B)}

    def test_dead_tag(self):
        assert arg_determinate(self.alg, A, {"B": 1}) is DEAD

    def test_multiplicity_respects_periods(self):
        t = Star(msg("Get", msg("Reply", NUMBER)))
        v = arg_determinate(self.alg, t, {"Get": 2})
        assert v.kind == "determinate"
