"""Tests for Parikh images, the subtype engine, liveness and argument resolution."""

import hashlib
import itertools
import math
import operator
import pathlib
import random
import time
import tracemalloc

import pytest

from joinstate import semilinear
from joinstate import types as ty
from joinstate.desugar import load_program
from joinstate.oracle import (
    _linear_member,
    config_le,
    member,
    oracle_subtype,
    random_type,
)
from joinstate.semilinear import (
    AMBIGUOUS,
    ArgVerdict,
    DEAD,
    LinearSet,
    SubtypeEngine,
    _bounded_coeffs,
    _Query,
    _prune,
    _add,
    _slot_bounds,
    _star,
    _tag_slots,
    _transport_exists,
    arg_determinate,
    fits,
    joint_alphabet,
    live,
    parikh,
    tag_caps,
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
    resolve_types,
)
from joinstate.runtime import Plan, run

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


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
        t = Star(Prod((A, B)))
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
        t = Star(Prod((A, B)))
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

    def test_product_with_a_name_for_zero(self):
        # #Z has no configurations, so neither has A . #Z, though A heads it.
        alg = TypeAlgebra(resolve_types([("#Z", ZERO)]))
        t = Prod((A, Ref("#Z")))
        assert parikh(alg, t, joint_alphabet(alg, t)) == []
        assert tag_caps(alg, t) == []
        assert not alg.usable(t) and alg.heads(t) == {A}


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

    def test_equivalence_fails_forward_first(self):
        # M <= *M fails, while *M <= M holds: the forward verdict is the
        # answer, counterexample included.
        assert self.engine.subtype(Star(M), M).holds
        v = self.engine.equivalent(M, Star(M))
        assert v.kind == "no" and v.counterexample == ()

    def test_nullability_gate_counterexample(self):
        v = self.engine.subtype(M, Star(M))
        assert v.kind == "no" and v.counterexample == ()

    def test_recursive_question_is_assumed_to_hold(self):
        # Comparing M's arguments asks #A <= #B again while it is open.
        table = resolve_types(
            [("#A", msg("M", Ref("#A"))), ("#B", msg("M", Ref("#B")))]
        )
        engine = SubtypeEngine(TypeAlgebra(table))
        assert engine.subtype(Ref("#A"), Ref("#B")).kind == "yes"

    def test_bounded_argument_keeps_the_bound(self):
        # Criterion 8's sample #173: star <= unfold is proved exactly, while
        # unfold <= star holds only up to the bound.  Arguments are
        # contravariant, and a message carrying one side against the other
        # keeps exactly its argument's verdict kind.
        rng = random.Random(42)
        t = [random_type(rng) for _ in range(174)][173]
        assert ty.render(t) == "(B + D + *C) . (M(C) + C . D)"
        star = Star(t)
        unfold = Sum((ONE, Prod((t, star))))
        assert self.engine.subtype(star, unfold).kind == "yes"
        assert self.engine.subtype(unfold, star).kind == "yes-bounded"
        for a, b, kind in [(star, unfold, "yes-bounded"), (unfold, star, "yes")]:
            assert SubtypeEngine(TypeAlgebra()).subtype(
                msg("K", a), msg("K", b)
            ).kind == kind, (a, b)

    def test_wide_alphabet_keeps_little_memory(self):
        # Eight tags, each checked up to the bound's counts: membership is a
        # cone walk per vector, not a table over every count up to them.
        tags = tuple(msg(tag) for tag in "ABCDEFGH")
        t = Star(Prod(tags))
        s = Star(Prod(tuple(m for m in tags for _ in range(2))))
        tracemalloc.start()
        try:
            verdict = SubtypeEngine(TypeAlgebra()).subtype(t, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.kind == "yes-bounded"
        assert peak < 1 << 20, peak


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


def reference_prune(components):
    """Pruning as it was first written: each containment test a fresh
    `_linear_member` search."""

    def subsumed(a, b):
        return a.periods <= b.periods and _linear_member(
            a.base, b.base, sorted(b.periods)
        )

    out = []
    for c in components:
        if any(subsumed(c, d) for d in out):
            continue
        out = [d for d in out if not subsumed(d, c)]
        out.append(c)
    return out


class TestPrune:
    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_member_search(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        pool = [random_linear_set(rng, n) for _ in range(rng.randint(1, 5))]
        for c in list(pool):
            # Variants of c: its base moved along its periods, under some
            # of them and the zero period; and its base under other periods.
            base = c.base
            for p in c.periods:
                base = tuple(a + rng.randint(0, 3) * b for a, b in zip(base, p))
            kept = frozenset(p for p in c.periods if rng.random() < 0.5)
            pool.append(LinearSet(base, kept | {(0,) * n}))
            pool.append(LinearSet(c.base, random_linear_set(rng, n).periods))
        comps = [rng.choice(pool) for _ in range(rng.randint(0, 16))]
        pruned = _prune(comps)
        assert pruned == reference_prune(comps), comps
        # What is left contains no other, so pruning it again changes nothing.
        assert _prune(pruned) == pruned

    def test_deep_deficit(self):
        unit = frozenset({(1,)})
        near = LinearSet((0,), unit)
        assert _prune([LinearSet((3000,), unit), near]) == [near]
        even = frozenset({(2,)})
        odd = [LinearSet((2999,), even), LinearSet((0,), even)]
        assert _prune(odd) == odd


class TestMembershipTable:
    """Bounded inclusion's membership questions against brute force."""

    @pytest.mark.parametrize("seed", range(40))
    def test_box_agrees_with_member(self, seed):
        # Every vector of a random box, asked of a matcher whose slots are
        # distinct tags, so that matching is plain membership.
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        comps = [random_linear_set(rng, n) for _ in range(rng.randint(1, 4))]
        hi = [rng.randint(0, 5) for _ in range(n)]
        query = _Query(SubtypeEngine(TypeAlgebra()), comps, (A, B, C)[:n])
        for v in itertools.product(*(range(h + 1) for h in hi)):
            assert query.matches(v) == member(v, comps), (comps, hi, v)

    @pytest.mark.parametrize("seed", range(40))
    def test_matcher_agrees_with_brute_force(self, seed):
        # M has three slots, so a match may put v's M messages on other
        # slots; the expectation pairs messages off by the oracle.
        a, b = msg("A"), msg("B")
        alg = TypeAlgebra()
        alphabet = joint_alphabet(
            alg, msg("M", a), msg("M", b), msg("M", Sum((a, b))), C
        )
        tag_of = [slot.tag for slot in alphabet]

        def config(v):
            return tuple(m for k, m in zip(v, alphabet) for _ in range(k))

        engine = SubtypeEngine(TypeAlgebra(), bound=2)
        rng = random.Random(seed)
        t_comps = [random_linear_set(rng, 4) for _ in range(rng.randint(1, 3))]
        s_comps = [random_linear_set(rng, 4) for _ in range(rng.randint(1, 2))]
        query = _Query(engine, t_comps, alphabet)
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
                member(w, t_comps) and config_le(alg, config(v), config(w))
                for w in same_tags
            )
            assert query.matches(v) == expect, (t_comps, v)

    def test_transport_decides(self):
        a, b = msg("A"), msg("B")
        wide = msg("M", Sum((a, b)))
        narrow = Prod((msg("M", a), msg("M", b)))
        engine = SubtypeEngine(TypeAlgebra())
        # Each M(A + B) is matched by M(A) or M(B), never the other way.  The
        # supertype's one vector is checked exhaustively, so the yes is exact.
        assert engine.subtype(narrow, Prod((wide, wide))).kind == "yes"
        verdict = engine.subtype(Prod((wide, wide)), narrow)
        assert verdict.kind == "no"
        assert verdict.counterexample == (msg("M", a), msg("M", b))
        alg = TypeAlgebra()
        assert oracle_subtype(alg, narrow, Prod((wide, wide)), size=6)
        assert not oracle_subtype(alg, Prod((wide, wide)), narrow, size=6)
        assert _transport_exists([2], [1, 1], [[True, True]])
        assert not _transport_exists([1, 1], [2], [[False], [True]])

    @pytest.mark.parametrize("seed", range(20))
    def test_transport_agrees_with_placement(self, seed):
        """The supply-demand test against trying every placement."""

        def placeable(supply, demand, allowed):
            # Each row's units spread over its allowed columns in every way.
            ways = [
                [
                    split
                    for split in itertools.product(
                        *(range(k + 1) if ok else (0,) for ok in row)
                    )
                    if sum(split) == k
                ]
                for k, row in zip(supply, allowed)
            ]
            return any(
                [sum(col) for col in zip(*rows)] == demand
                for rows in itertools.product(*ways)
            )

        rng = random.Random(seed)
        outcomes = set()
        for _ in range(50):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            supply = [rng.randint(0, 3) for _ in range(rows)]
            demand = [0] * cols
            if rng.random() < 0.8:
                # Same total, most of the time, or the answer is trivial.
                for _ in range(sum(supply)):
                    demand[rng.randrange(cols)] += 1
            else:
                demand = [rng.randint(0, 3) for _ in range(cols)]
            allowed = [[rng.random() < 0.6 for _ in range(cols)] for _ in range(rows)]
            expect = placeable(supply, demand, allowed)
            assert _transport_exists(supply, demand, allowed) == expect, (
                supply,
                demand,
                allowed,
            )
            outcomes.add(expect)
        assert outcomes == {True, False}


def reference_fast_include(engine, comp, t_comps, alphabet):
    """The fast path as first written: candidate lists afresh on every call,
    every map's vectors remapped per target, and a fresh `_linear_member`
    search per (map, target).  Returns the answer and whether an argument
    check on the way answered yes-bounded (arguments are contravariant, and
    a check stops at its first failing argument)."""
    n = len(alphabet)
    bounded = False

    def args_ok(sup, sub):
        nonlocal bounded
        if sup.tag != sub.tag or len(sup.args) != len(sub.args):
            return False
        for a, b in zip(sup.args, sub.args):
            verdict = engine.subtype(a, b)
            if not verdict.holds:
                return False
            bounded = bounded or verdict.kind == "yes-bounded"
        return True

    used = [
        i
        for i in range(n)
        if comp.base[i] or any(p[i] for p in comp.periods)
    ]
    candidates = [
        [j for j in range(n) if args_ok(alphabet[i], alphabet[j])]
        for i in used
    ]
    if not used:
        return True, bounded

    def remap(v, sigma):
        out = [0] * n
        for i, j in zip(used, sigma):
            out[j] += v[i]
        return tuple(out)

    total = 1
    for c in candidates:
        total *= len(c)
        if total > 256:
            return False, bounded
    for sigma in itertools.product(*candidates):
        for target in t_comps:
            if not all(
                remap(p, sigma) in target.periods for p in comp.periods if any(p)
            ):
                continue
            if _linear_member(
                remap(comp.base, sigma), target.base, sorted(target.periods)
            ):
                return True, bounded
    return False, bounded


# X <= Y holds only up to the bound, so matching M(X) against M(Y) sets the
# query's yes-bounded flag.
X = Sum((Star(Prod((A, A))), Prod((A, Star(Prod((A, A)))))))
Y = Star(A)
FAST_ALPHABETS = (
    (msg("M", A), msg("M", B), msg("M", Sum((A, B))), C),
    (msg("M", X), msg("M", Y), msg("M", A), A, msg("K", A), msg("K", Y)),
)


def random_embedding(rng, comp, alphabet):
    """A component that comp may embed in: comp moved along a random
    tag-preserving slot map, its base moved down along some period or up a
    little, and periods dropped or added at random."""
    n = len(alphabet)
    sigma = [
        rng.choice([j for j in range(n) if alphabet[j].tag == alphabet[i].tag])
        for i in range(n)
    ]

    def remap(v):
        out = [0] * n
        for i, j in enumerate(sigma):
            out[j] += v[i]
        return tuple(out)

    base = remap(comp.base)
    periods = {remap(p) for p in comp.periods if rng.random() < 0.9}
    for p in list(periods):
        k = rng.randint(0, 2)
        if all(b >= k * x for b, x in zip(base, p)):
            base = tuple(b - k * x for b, x in zip(base, p))
    if rng.random() < 0.3:
        i = rng.randrange(n)
        base = base[:i] + (max(0, base[i] + rng.choice((-1, 1))),) + base[i + 1:]
    periods |= random_linear_set(rng, n).periods if rng.random() < 0.3 else set()
    return LinearSet(base, frozenset(periods))


class TestFastInclude:
    """The fast path against its first version, on alphabets whose tags
    have several slots, so that maps other than the identity are tried."""

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_reference(self, seed):
        rng = random.Random(seed)
        alphabet = rng.choice(FAST_ALPHABETS)
        n = len(alphabet)
        reference = SubtypeEngine(TypeAlgebra())
        # One table per `_subtype` call, shared by its components; only the
        # subtype side changes between them here.
        query = _Query(SubtypeEngine(TypeAlgebra()), [], alphabet)
        reference_bounded = False
        for _ in range(6):
            comp = random_linear_set(rng, n)
            t_comps = [
                random_embedding(rng, comp, alphabet)
                if rng.random() < 0.7
                else random_linear_set(rng, n)
                for _ in range(rng.randint(1, 3))
            ]
            expect, bounded = reference_fast_include(
                reference, comp, t_comps, alphabet
            )
            reference_bounded = reference_bounded or bounded
            query.t_comps = t_comps
            got = query.embeds(comp)
            assert got == expect, (alphabet, comp, t_comps)
            assert query.args_bounded == reference_bounded

    # Nine tags, each with a wide and a narrow argument variant: a wide slot
    # fits both, so a supertype component over the nine wide slots has
    # 2^9 = 512 slot maps, past the fast path's 256, and the matcher alone
    # answers.
    @pytest.mark.parametrize(
        "sub,sup", [("both", "wide"), ("wide", "both"), ("narrow", "wide")]
    )
    def test_too_many_slot_maps_leave_it_to_the_matcher(self, sub, sup):
        def slots(*variants):
            return Prod(tuple(
                Sum(tuple(msg(tag, v) for v in variants)) for tag in "ABCDEFGHI"
            ))

        wide, narrow = Star(M), Sum((ONE, M))
        types = {"wide": slots(wide), "narrow": slots(narrow),
                 "both": slots(wide, narrow)}
        sub, sup = types[sub], types[sup]
        alg = TypeAlgebra()
        engine = SubtypeEngine(alg)
        alphabet = joint_alphabet(alg, sub, sup)
        query = _Query(engine, parikh(alg, sub, alphabet), alphabet)
        comp = parikh(alg, sup, alphabet)[0]
        assert not query.embeds(comp)
        used = [i for i, n in enumerate(comp.base) if n]
        assert math.prod(len(query.candidates[i]) for i in used) == 512
        verdict = engine.subtype(sub, sup)
        assert verdict.holds == oracle_subtype(alg, sub, sup, size=9)

    def test_cone_memo_keeps_dimensions_apart(self):
        # Empty period sets are one frozenset in every dimension; the
        # engine keeps one cone memo across alphabets, so a memo keyed by
        # period set alone would take two slots' zero for three slots'.
        engine = SubtypeEngine(TypeAlgebra())
        rng = random.Random(7)
        for alphabet in [(A, B), (A, B, C), (A, B), (A, B, C)]:
            n = len(alphabet)
            here = LinearSet((1,) + (0,) * (n - 1), frozenset())
            assert _Query(engine, [here], alphabet).embeds(here)
            for _ in range(40):
                comp, *t_comps = [
                    LinearSet(tuple(rng.randint(0, 2) for _ in range(n)), frozenset())
                    for _ in range(rng.randint(2, 4))
                ]
                expect, _ = reference_fast_include(
                    SubtypeEngine(TypeAlgebra()), comp, t_comps, alphabet
                )
                got = _Query(engine, t_comps, alphabet).embeds(comp)
                assert got == expect, (comp, t_comps)


def reference_star(body, n):
    """A star's image as first written: one component per subset of the
    body's components, then pruned."""
    out = [LinearSet((0,) * n, frozenset())]
    for r in range(1, len(body) + 1):
        for subset in itertools.combinations(body, r):
            if all(not comp.periods for comp in subset):
                periods = {comp.base for comp in subset if any(comp.base)}
                out.append(LinearSet((0,) * n, frozenset(periods)))
                continue
            base = (0,) * n
            periods = set()
            for comp in subset:
                base = tuple(a + b for a, b in zip(base, comp.base))
                periods |= comp.periods
                if any(comp.base):
                    periods.add(comp.base)
            out.append(LinearSet(base, frozenset(periods)))
    return _prune(out)


class TestStar:
    @pytest.mark.parametrize("seed", range(30))
    def test_period_free_body_agrees_with_enumeration(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randint(1, 3)
            body = _prune(
                LinearSet(tuple(rng.randint(0, 2) for _ in range(n)), frozenset())
                for _ in range(rng.randint(0, 7))
            )
            assert _star(body, n) == reference_star(body, n), body

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_brute_force(self, seed):
        # Bodies with periods, zero bases and duplicate components, unpruned.
        rng = random.Random(seed)
        n = rng.randint(1, 2)
        body = [random_linear_set(rng, n) for _ in range(rng.randint(0, 3))]
        if body and rng.random() < 0.5:
            body.append(rng.choice(body))
        if rng.random() < 0.5:
            body.append(LinearSet((0,) * n, random_linear_set(rng, n).periods))
        image = _star(body, n)
        # v is in the star when it is zero, or some nonzero member u <= v of
        # the body leaves v - u in it; v - u has a smaller sum than v.
        box = sorted(itertools.product(range(6), repeat=n), key=sum)
        units = [u for u in box if any(u) and member(u, body)]
        in_star = {}
        for v in box:
            in_star[v] = not any(v) or any(
                all(a <= b for a, b in zip(u, v))
                and in_star[tuple(b - a for a, b in zip(u, v))]
                for u in units
            )
            assert member(v, image) == in_star[v], (body, image, v)

    def test_sixteen_alternatives(self):
        alg = TypeAlgebra()
        tags = [msg(f"T{i}") for i in range(16)]
        t = Star(Sum(tuple(tags)))
        alphabet = joint_alphabet(alg, t)
        start = time.perf_counter()
        comps = parikh(alg, t, alphabet)
        assert time.perf_counter() - start < 1.0
        units = frozenset(
            tuple(int(j == i) for j in range(16)) for i in range(16)
        )
        assert comps == [LinearSet((0,) * 16, units)]


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
    tags = sorted({m.tag for m in alg.heads(t)})
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
        for tag in sorted({m.tag for m in alg.heads(s)}):
            out.append(engine.subtype(alg.derivative(t, tag), alg.derivative(s, tag)))
    return out


def test_law_battery_fingerprint():
    """Verdict kinds and counterexamples of criterion 8's 500 samples, pinned
    (6,641 queries: 6,018 yes, 233 yes-bounded, 390 no).  The positions
    (sample, query) that answer no are pinned on their own: a change that
    proves more inclusions exactly must leave them where they are."""
    rng = random.Random(42)
    samples = [random_type(rng) for _ in range(500)]
    alg = TypeAlgebra({})
    engine = SubtypeEngine(alg)
    digest = hashlib.sha256()
    no_digest = hashlib.sha256()
    kinds = {}
    for i, t in enumerate(samples):
        s, u = samples[(i + 1) % 500], samples[(i + 2) % 500]
        for q, v in enumerate(law_battery(alg, engine, t, s, u)):
            digest.update(f"{i}|{v.kind}|{v.counterexample!r}\n".encode())
            if v.kind == "no":
                no_digest.update(f"{i}|{q}\n".encode())
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
    assert kinds == {"yes": 6018, "yes-bounded": 233, "no": 390}
    assert no_digest.hexdigest() == (
        "bf720bb7c0da17aa985b14d50f9b37213592552c0f4104971eeca90bb6f59594"
    )
    assert digest.hexdigest() == (
        "92732038432306b29f7fe85849d70c0b9efd0d034919efbd316caaf77403e7af"
    )


def assert_uncovered(alg, t, s, cex):
    """cex is a configuration of s that no configuration of t covers."""
    assert cex in alg.enumerate_configs(s, len(cex))
    assert not any(
        config_le(alg, cex, c)
        for c in alg.enumerate_configs(t, len(cex))
        if len(c) == len(cex)
    ), (t, s, cex)


def test_battery_counterexample_is_uncovered():
    # Sample 77 against sample 78, where s has several uncovered
    # configurations: the one the engine names must be one of them.
    rng = random.Random(42)
    samples = [random_type(rng) for _ in range(79)]
    t, s = samples[77], samples[78]
    assert ty.render(t) == "*(A + D) + A . B . N(1 + D)"
    assert ty.render(s) == "*(N(C) + *N(#Number))"
    alg = TypeAlgebra({})
    verdict = SubtypeEngine(alg).subtype(t, s)
    assert verdict.kind == "no"
    assert verdict.counterexample == (msg("N", NUMBER),)
    assert_uncovered(alg, t, s, verdict.counterexample)


def random_term(rng, atoms, depth=2):
    """A sum, product or star of the given atoms, at most depth deep."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    parts = [random_term(rng, atoms, depth - 1) for _ in range(2)]
    roll = rng.random()
    if roll < 0.4:
        return Sum(parts)
    if roll < 0.8:
        return Prod(parts)
    return Star(parts[0])


class TestMixedArities:
    """One tag with slots of several arities, which `random_type` never
    draws: M, M(#Number) and M(A) are three slots of M."""

    ATOMS = (M, msg("M", NUMBER), msg("M", A), A, B)

    @classmethod
    def pair(cls, rng):
        """A supertype s and a subtype candidate t, built from s most of
        the time so that about half the pairs hold."""
        s = random_term(rng, cls.ATOMS)
        roll = rng.random()
        if roll < 0.4:
            return random_term(rng, cls.ATOMS), s
        if roll < 0.7:
            return Sum((s, random_term(rng, cls.ATOMS, 1))), s
        if roll < 0.85:
            return Star(s), s
        return Prod((s, Star(random_term(rng, cls.ATOMS, 1)))), s

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_oracle(self, seed):
        rng = random.Random(seed)
        alg = TypeAlgebra()
        kinds = set()
        for _ in range(500):
            t, s = self.pair(rng)
            verdict = SubtypeEngine(alg).subtype(t, s)
            kinds.add(verdict.kind)
            if verdict.kind == "yes":
                assert oracle_subtype(alg, t, s, size=5), (t, s)
            elif verdict.kind == "no":
                assert_uncovered(alg, t, s, verdict.counterexample)
        assert {"yes", "no"} <= kinds


class TestTransportEndToEnd:
    """Pairs in which only transport can match: the supertype carries
    M(A + B), the subtype M(A) and M(B), so a configuration of the
    supertype may need its M messages spread over both subtype slots,
    which no single slot map does."""

    SUB = (msg("M", A), msg("M", B), A)
    SUP = (msg("M", Sum((A, B))), msg("M", A), A)

    def test_agrees_with_oracle(self, monkeypatch):
        outcomes = []
        transport_ok = _Query._transport_ok

        def counted(query, v, w):
            outcomes.append(transport_ok(query, v, w))
            return outcomes[-1]

        monkeypatch.setattr(_Query, "_transport_ok", counted)
        alg = TypeAlgebra()
        for seed in range(3):
            rng = random.Random(seed)
            for _ in range(500):
                t = random_term(rng, self.SUB)
                s = random_term(rng, self.SUP)
                verdict = SubtypeEngine(alg).subtype(t, s)
                if verdict.kind == "yes":
                    assert oracle_subtype(alg, t, s, size=5), (t, s)
                elif verdict.kind == "no":
                    assert_uncovered(alg, t, s, verdict.counterexample)
        assert set(outcomes) == {True, False}

    def test_split_tags_wait_for_the_bounded_check(self, monkeypatch):
        # Most calls are decided by the fast path, which needs no split tags.
        calls = []
        tag_slots = semilinear._tag_slots

        def counted(alphabet):
            calls.append(alphabet)
            return tag_slots(alphabet)

        monkeypatch.setattr(semilinear, "_tag_slots", counted)
        missing = []
        query_missing = _Query.missing

        def spied(query, comp):
            missing.append(comp)
            return query_missing(query, comp)

        monkeypatch.setattr(_Query, "missing", spied)
        wide = msg("M", Sum((A, B)))
        narrow = Prod((msg("M", A), msg("M", B)))
        # The last embeds M(A + B) by sending it to M(A), not by the identity.
        for t, s in [(Star(A), Prod((A, A))), (Sum((A, B)), A),
                     (msg("M", A), wide)]:
            assert SubtypeEngine(TypeAlgebra()).subtype(t, s).kind == "yes"
        assert missing == [] and calls == []
        # Each M(A + B) goes to a different slot: only transport matches.
        verdict = SubtypeEngine(TypeAlgebra()).subtype(narrow, Prod((wide, wide)))
        assert verdict.kind == "yes"
        assert len(missing) == 1 and len(calls) == 1


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


class TestTagCaps:
    """`fits` over a type's `tag_caps` is the monitors' test: whether the
    type derived by a mailbox's tags is usable."""

    ATOMS = (M, msg("M", NUMBER), msg("M", A), A, B)
    # Z is in no type; N only as a message with an argument.
    TAGS = ("A", "B", "C", "D", "M", "N", "Z")

    @classmethod
    def random_type(cls, rng):
        roll = rng.random()
        if roll < 0.5:
            return random_type(rng)
        mixed = random_term(rng, cls.ATOMS)
        if roll < 0.7:
            return mixed
        return (Sum if roll < 0.85 else Prod)((random_type(rng), mixed))

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_derivatives(self, seed):
        rng = random.Random(seed)
        alg = TypeAlgebra()
        answers = set()
        for _ in range(900):
            t = self.random_type(rng)
            caps = tag_caps(alg, t)
            for _ in range(10):
                counts = {
                    tag: rng.randint(1, 3)
                    for tag in rng.sample(self.TAGS, rng.randint(0, 3))
                }
                tags = [tag for tag, n in counts.items() for _ in range(n)]
                expected = alg.usable(alg.derivative_config(t, tags))
                assert fits(caps, counts) == expected, (t, counts)
                answers.add(expected)
        assert answers == {True, False}


def reference_slot_bounds(alg, t):
    """Per-slot bounds as they were first read off the Parikh image: per
    component, infinity where a period touches the slot, else the base's
    count."""
    for comp in parikh(alg, t, joint_alphabet(alg, t)):
        bound = list(comp.base)
        for i, col in enumerate(zip(*comp.periods)):
            if any(col):
                bound[i] = math.inf
        yield tuple(bound)


def maximal(vectors):
    """The set of vectors no other vector of the list is at least as large
    as everywhere."""
    vectors = set(vectors)
    return {
        v for v in vectors
        if not any(w != v and all(map(operator.le, v, w)) for w in vectors)
    }


class TestSlotBounds:
    """`_slot_bounds` reads each slot's bound from the type's structure; the
    Parikh image's components give the same maximal vectors."""

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_reference(self, seed):
        rng = random.Random(seed)
        alg = TypeAlgebra()
        for _ in range(2000):
            t = TestTagCaps.random_type(rng)
            alphabet = joint_alphabet(alg, t)
            bounds = _slot_bounds(alg, t, alphabet)
            assert maximal(bounds) == maximal(reference_slot_bounds(alg, t)), t
            # Only maximal vectors, each once.
            assert len(maximal(bounds)) == len(bounds), (t, bounds)
            assert _slot_bounds(alg, t, alphabet) is bounds

    def test_star_is_infinite_where_its_body_reaches(self):
        alg = TypeAlgebra({"#Z": ZERO})
        # A . *(B + C . #Z): C sits only under 0, so its slot stays 0.
        t = Prod((A, Star(Sum((B, Prod((C, Ref("#Z"))))))))
        alphabet = joint_alphabet(alg, t)
        assert alphabet == (A, B, C)
        assert _slot_bounds(alg, t, alphabet) == [(1, math.inf, 0)]
        assert _slot_bounds(alg, Prod((A, Ref("#Z"))), (A,)) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_runs_need_no_parikh_image(self, seed, monkeypatch):
        # A plan's slot resolution and caps, and the run's monitors, read
        # only `_slot_bounds`: every corpus program compiles and runs as it
        # does with Parikh images at hand.
        def refused(*args):
            raise AssertionError("parikh called")

        def outcome(path):
            plan = Plan(load_program(path.read_text(), path.name))
            steps = 1000 if path.name == "sieve.cob" else 100_000
            result = run(plan, seed=seed, max_steps=steps)
            return result.verdict, result.steps, result.outputs

        paths = sorted(PROGRAMS.rglob("*.cob"))
        assert len(paths) == 12
        expected = [outcome(path) for path in paths]
        monkeypatch.setattr(semilinear, "parikh", refused)
        assert [outcome(path) for path in paths] == expected


def reference_live(alg, t, patterns):
    """Liveness as it was first written: one short tag chosen per pattern,
    every choice tried, each bounding a component's base and its base plus
    one period."""
    alphabet = joint_alphabet(alg, t)
    relevant_slots = [
        i
        for i, slot in enumerate(alphabet)
        if any(alg.relevant(a) for a in slot.args)
    ]
    if not relevant_slots:
        return True
    tag_slots = _tag_slots(alphabet)
    choice_sets = []
    for pat in patterns:
        options = []
        for tag, k in pat.items():
            if tag not in tag_slots:
                options = [None]
                break
            options.append((tag, k - 1))
        choice_sets.append(options)
    for comp in parikh(alg, t, alphabet):
        for choice in itertools.product(*choice_sets):
            bounds = {}
            for c in choice:
                if c is not None:
                    tag, cap = c
                    bounds[tag] = min(bounds.get(tag, cap), cap)

            def within(v):
                return all(
                    sum(v[i] for i in tag_slots[tag]) <= cap
                    for tag, cap in bounds.items()
                )

            if not within(comp.base):
                continue
            for c in relevant_slots:
                if comp.base[c] >= 1 or any(
                    p[c] >= 1 and within(_add(comp.base, p)) for p in comp.periods
                ):
                    return False
    return True


class TestLive:
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_reference(self, seed):
        # The types and tags of TestTagCaps, and up to four patterns.
        rng = random.Random(seed)
        alg = TypeAlgebra()
        answers = set()
        for _ in range(2000):
            t = TestTagCaps.random_type(rng)
            patterns = [
                {tag: rng.randint(1, 2) for tag in rng.sample(TestTagCaps.TAGS, k)}
                for k in rng.choices((1, 2, 3), k=rng.randint(0, 4))
            ]
            answer = live(alg, t, patterns)
            assert answer == reference_live(alg, t, patterns), (t, patterns)
            answers.add(answer)
        assert answers == {True, False}

    def test_many_patterns(self):
        # R(Reply(#Number)) . T0 . ... . T15 with rules Ti & Ti+1 & Ti+2:
        # a product over one short tag per pattern tries 3^12 choices.
        ts = [f"T{i}" for i in range(16)]
        t = Prod((msg("R", msg("Reply", NUMBER)), *map(msg, ts)))
        patterns = [dict.fromkeys(ts[i : i + 3], 1) for i in range(12)]
        start = time.perf_counter()
        assert live(TypeAlgebra(), t, patterns)
        assert time.perf_counter() - start < 0.5

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


def reference_arg_determinate(alg, t, tags):
    """Argument determinacy as it was first written: every way of taking
    each tag's copies from its slots, the product over tags, each demand
    vector tried against every component."""
    alphabet = joint_alphabet(alg, t)
    n = len(alphabet)
    tag_slots = _tag_slots(alphabet)
    if any(tag not in tag_slots for tag in tags):
        return DEAD
    per_tag = [
        list(itertools.combinations_with_replacement(tag_slots[tag], tags[tag]))
        for tag in sorted(tags)
    ]
    components = parikh(alg, t, alphabet)
    feasible = set()
    for combo in itertools.product(*per_tag):
        demand = [0] * n
        for group in combo:
            for i in group:
                demand[i] += 1
        for comp in components:
            if all(
                demand[i] <= comp.base[i] or any(p[i] > 0 for p in comp.periods)
                for i in range(n)
            ):
                feasible.add(tuple(demand))
                break
    if not feasible:
        return DEAD
    if len(feasible) > 1:
        return AMBIGUOUS
    (demand,) = feasible
    assignment = {}
    for i, count in enumerate(demand):
        if not count:
            continue
        slot = alphabet[i]
        if slot.tag in assignment and assignment[slot.tag] != slot:
            return AMBIGUOUS
        assignment[slot.tag] = slot
    return ArgVerdict("determinate", assignment=assignment)


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

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_reference(self, seed):
        # The types of TestTagCaps; most multisets take the type's own tags,
        # as a rule's pattern does, the rest any of TestTagCaps.TAGS.
        rng = random.Random(seed)
        alg = TypeAlgebra()
        kinds = set()
        for _ in range(1500):
            t = TestTagCaps.random_type(rng)
            own = sorted({m.tag for m in alg.heads(t)})
            pool = own if own and rng.random() < 0.8 else TestTagCaps.TAGS
            chosen = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            tags = {tag: rng.randint(1, 3) for tag in chosen}
            v = arg_determinate(alg, t, tags)
            ref = reference_arg_determinate(alg, t, tags)
            assert (v.kind, v.assignment) == (ref.kind, ref.assignment), (t, tags)
            kinds.add(v.kind)
        assert kinds == {"determinate", "ambiguous", "dead"}

    def test_infeasible_component_is_not_ambiguous(self):
        # M . M(#Number) . B  +  A: the first component has room for M twice
        # but none for A, the second none for M.
        t = Sum((Prod((M, msg("M", NUMBER), B)), A))
        assert arg_determinate(self.alg, t, {"M": 1, "A": 1}) is DEAD

    def test_forced_spread_over_two_slots(self):
        # M . M(#Number): M taken twice fills both slots, one copy each.
        t = Prod((M, msg("M", NUMBER)))
        assert arg_determinate(self.alg, t, {"M": 2}) is AMBIGUOUS
