"""Tests for the behavioral type algebra: normalization, derivatives, enumeration."""

import dataclasses
import gc
import random
import time
import weakref

import pytest

from joinstate import types
from joinstate.oracle import random_type
from joinstate.types import (
    BOOL,
    NUMBER,
    ONE,
    ZERO,
    Base,
    Msg,
    One,
    Prod,
    Ref,
    Star,
    Sum,
    TypeAlgebra,
    TypeDeclError,
    Zero,
    config_of,
    normalize,
    render,
    resolve_types,
    sort_key,
)


def msg(tag, *args):
    return Msg(tag, tuple(args))


A = msg("A")
B = msg("B")
C = msg("C")
D = msg("D")


def future_table():
    # type #FutureT = (EMPTY . Resolve(#Number) + RESOLVED(#Number)) . *Get(Reply(#Number))
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


class TestNormalize:
    def test_one_is_dropped_in_products(self):
        t = Prod((ONE, A, Sum((B, C))))
        assert normalize(t) == Prod((A, Sum((B, C))))

    def test_sum_idempotent(self):
        t = Sum((A, A))
        assert normalize(t) == A

    def test_zero_absorbs_product(self):
        assert normalize(Prod((A, ZERO))) == ZERO

    def test_zero_dropped_in_sums(self):
        assert normalize(Sum((A, ZERO))) == A
        assert normalize(Sum((ZERO, ZERO))) == ZERO

    def test_flatten_and_sort(self):
        assert normalize(Sum((B, Sum((C, A))))) == Sum((A, B, C))
        assert normalize(Prod((B, Prod((C, A))))) == Prod((A, B, C))

    def test_star_collapses_trivial_bodies(self):
        assert normalize(Star(ZERO)) == ONE
        assert normalize(Star(ONE)) == ONE
        assert normalize(Star(Star(A))) == Star(A)

    def test_idempotent(self):
        t = Prod((ONE, Sum((B, ZERO, B)), Star(Prod((A, ONE)))))
        n = normalize(t)
        assert normalize(n) == n

    def test_distributed_forms_stay_distinct(self):
        # a.b + a.c and a.(b+c) have the same configurations but distinct
        # normal forms; enumeration agrees (see TestEnumerate).
        left = normalize(Sum((Prod((A, B)), Prod((A, C)))))
        right = normalize(Prod((A, Sum((B, C)))))
        assert left != right


class TestInterning:
    def test_equal_sums_are_one_object(self):
        s = Sum((B, A))
        assert s is Sum((A, B))
        # Returning the interned instance must not reset its fields.
        assert s.parts == (A, B)

    def test_unit_is_dropped_at_construction(self):
        assert Prod((A, ONE)) is A

    def test_star_of_star_is_the_star(self):
        assert Star(Star(A)) is Star(A)

    def test_table_drops_unreferenced_terms(self):
        t = Msg("Unshared", (Msg("Inner"),))
        ref = weakref.ref(t)
        before = len(types._TERMS)
        del t
        gc.collect()
        assert ref() is None
        assert len(types._TERMS) <= before - 2

    def test_terms_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            A.tag = "B"

    def test_repr_is_the_dataclass_form(self):
        assert repr(Msg("A", (NUMBER,))) == (
            "Msg(tag='A', args=(Base(name='#Number'),))"
        )


class TestNullableUsable:
    def test_basics(self):
        alg = TypeAlgebra()
        assert not alg.nullable(ZERO)
        assert alg.nullable(ONE)
        assert not alg.nullable(A)
        assert alg.nullable(Star(Prod((A, B))))
        assert alg.nullable(NUMBER) and alg.nullable(BOOL)

    def test_worker_type_is_nullable(self):
        # #Worker = #Leaf + #Branch + 1
        table = resolve_types(
            [
                ("#Leaf", msg("LEAF", NUMBER)),
                ("#Branch", Prod((msg("BRANCH"), msg("Left", NUMBER)))),
                ("#Worker", Sum((Ref("#Leaf"), Ref("#Branch"), ONE))),
            ]
        )
        alg = TypeAlgebra(table)
        assert alg.nullable(Ref("#Worker"))
        assert not alg.nullable(Ref("#Leaf"))

    def test_usable(self):
        alg = TypeAlgebra()
        assert not alg.usable(ZERO)
        assert alg.usable(ONE)
        assert alg.usable(A)
        assert not alg.usable(Prod((A, ZERO)))
        assert alg.usable(Sum((A, ZERO)))
        assert alg.usable(NUMBER)


class TestDerivative:
    def test_matching_tag(self):
        alg = TypeAlgebra()
        t = Prod((A, Sum((B, C))))
        assert alg.derivative(t, "A") == Sum((B, C))

    def test_unmatched_tag_gives_zero(self):
        alg = TypeAlgebra()
        t = Prod((A, Sum((B, C))))
        assert alg.derivative(t, "D") == ZERO

    def test_star_rule(self):
        alg = TypeAlgebra()
        t = Star(Prod((A, B)))
        assert alg.derivative(t, "B") == Prod((A, t))
        assert alg.relevant(alg.derivative(t, "B"))

    def test_matches_by_tag_only(self):
        alg = TypeAlgebra()
        t = msg("M", A)
        assert alg.derivative(t, "M") == ONE

    def test_future_residuals(self):
        alg = TypeAlgebra(future_table())
        t = Ref("#FutureT")
        reply = msg("Reply", NUMBER)
        after = alg.derivative_config(t, ["EMPTY", "Get"])
        assert after == Prod((msg("Resolve", NUMBER), Star(msg("Get", reply))))
        assert alg.relevant(after)
        assert alg.nullable(alg.derivative(t, "RESOLVED"))

    def test_empty_fold_is_identity(self):
        alg = TypeAlgebra()
        t = normalize(Prod((A, Sum((B, C)))))
        assert alg.derivative_config(t, []) == t


def reference_nullable(alg, t):
    """Nullability as its own walk, unmemoized."""
    if isinstance(t, Ref):
        return reference_nullable(alg, alg.unfold(t))
    if isinstance(t, (One, Base, Star)):
        return True
    if isinstance(t, (Zero, Msg)):
        return False
    if isinstance(t, Sum):
        return any(reference_nullable(alg, p) for p in t.parts)
    return all(reference_nullable(alg, p) for p in t.parts)


def reference_usable(alg, t):
    """Usability as its own walk, unmemoized."""
    if isinstance(t, Ref):
        return reference_usable(alg, alg.unfold(t))
    if isinstance(t, Zero):
        return False
    if isinstance(t, (One, Base, Msg, Star)):
        return True
    if isinstance(t, Sum):
        return any(reference_usable(alg, p) for p in t.parts)
    return all(reference_usable(alg, p) for p in t.parts)


def reference_heads(alg, t):
    """The head messages as their own walk, unmemoized."""
    if isinstance(t, (Zero, One, Base)):
        return frozenset()
    if isinstance(t, Msg):
        return frozenset({t})
    if isinstance(t, Star):
        return reference_heads(alg, t.body)
    if isinstance(t, Ref):
        return reference_heads(alg, alg.unfold(t))
    return frozenset().union(*(reference_heads(alg, p) for p in t.parts))


def reference_derivative(alg, t, a):
    """The Brzozowski derivative by plain recursion, memoized on nothing."""
    if isinstance(t, (Zero, One, Base)):
        return ZERO
    if isinstance(t, Msg):
        hit = t.tag == a if isinstance(a, str) else t == a
        return ONE if hit else ZERO
    if isinstance(t, Sum):
        return Sum(tuple(reference_derivative(alg, p, a) for p in t.parts))
    if isinstance(t, Prod):
        terms = []
        for i, p in enumerate(t.parts):
            d = reference_derivative(alg, p, a)
            terms.append(Prod(t.parts[:i] + (d,) + t.parts[i + 1 :]))
        return Sum(tuple(terms))
    if isinstance(t, Star):
        return Prod((reference_derivative(alg, t.body, a), t))
    return reference_derivative(alg, alg.unfold(t), a)


class TestMemoizedWalks:
    """`facts` answers nullable, usable and heads in one memoized walk, and
    `derivative` memoizes every subterm; both agree with the plain
    recursions, on one algebra shared by all draws of a seed."""

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_reference(self, seed):
        rng = random.Random(seed)
        p, q, z = Ref("#P"), Ref("#Q"), Ref("#Z")
        decls = [("#P", random_type(rng)), ("#Q", Sum((random_type(rng), p)))]
        alg = TypeAlgebra(resolve_types(decls + [("#Z", ZERO)]))
        seen = set()
        for _ in range(2000):
            t = random_type(rng)
            shapes = (t, Prod((p, q)), Sum((z, t)), Prod((t, z)), Star(q), Prod((t, p)))
            for s in shapes:
                facts = (
                    reference_nullable(alg, s),
                    reference_usable(alg, s),
                    reference_heads(alg, s),
                )
                assert alg.facts(s) == facts, s
                assert (alg.nullable(s), alg.usable(s), alg.heads(s)) == facts, s
                seen.add(facts[:2])
                heads = sorted(facts[2], key=sort_key)[:2]
                for a in ("A", "B", "M", *heads):
                    d = reference_derivative(alg, s, a)
                    assert alg.derivative(s, a) is d, (s, a)
        assert seen == {(False, False), (False, True), (True, True)}

    def test_doubling_table_derives_in_linear_time(self):
        # #T0 = A, #Ti+1 = #Ti . #Ti: each level shares one subterm, which
        # plain recursion derives 2^i times.
        table = doubling_table(24)
        start = time.perf_counter()
        d = TypeAlgebra(table).derivative(Ref("#T24"), "A")
        assert time.perf_counter() - start < 0.5
        assert d is Prod(tuple(Ref(f"#T{i}") for i in range(24)))


def doubling_table(levels):
    decls = [("#T0", A)]
    for i in range(levels):
        decls.append((f"#T{i + 1}", Prod((Ref(f"#T{i}"), Ref(f"#T{i}")))))
    return resolve_types(decls)


class TestEnumerate:
    def test_product_with_choice(self):
        alg = TypeAlgebra()
        t = Prod((A, Sum((B, C))))
        assert alg.enumerate_configs(t, 3) == {config_of([A, B]), config_of([A, C])}

    def test_star(self):
        alg = TypeAlgebra()
        t = Star(Prod((A, B)))
        expect = {config_of([]), config_of([A, B]), config_of([A, A, B, B])}
        assert alg.enumerate_configs(t, 4) == expect

    def test_zero_is_empty(self):
        alg = TypeAlgebra()
        assert alg.enumerate_configs(ZERO, 10) == frozenset()

    def test_distribution_has_equal_configs(self):
        alg = TypeAlgebra()
        left = Sum((Prod((A, B)), Prod((A, C))))
        right = Prod((A, Sum((B, C))))
        for n in range(4):
            assert alg.enumerate_configs(left, n) == alg.enumerate_configs(right, n)

    def test_nullable_agrees_with_enumeration(self):
        alg = TypeAlgebra()
        for t in [ZERO, ONE, A, Star(A), Prod((A, B)), Sum((ONE, A))]:
            t = normalize(t)
            assert alg.nullable(t) == (() in alg.enumerate_configs(t, 0))


class TestResolveTypes:
    def test_mutual_recursion_through_arguments(self):
        # #Get and #Reply refer to each other only inside message arguments.
        table = resolve_types(
            [
                ("#Get", msg("Get", Ref("#Reply"))),
                ("#Reply", msg("Reply", NUMBER, Ref("#Get"))),
                ("#Generator", Prod((msg("FROM", NUMBER), Ref("#Get")))),
                ("#Printer", msg("RUN", Ref("#Get"))),
            ]
        )
        assert len(table) == 4 + 2  # declarations plus builtins

    def test_head_cycle_rejected(self):
        with pytest.raises(TypeDeclError, match="cycle"):
            resolve_types([("#T", Sum((Ref("#T"), A)))])

    def test_argument_guarded_recursion_accepted(self):
        table = resolve_types([("#T", msg("M", Ref("#T")))])
        assert "#T" in table

    def test_duplicate_rejected(self):
        with pytest.raises(TypeDeclError, match="duplicate"):
            resolve_types([("#T", A), ("#T", B)])

    def test_unknown_name_rejected(self):
        with pytest.raises(TypeDeclError, match="unknown"):
            resolve_types([("#T", Ref("#Missing"))])

    def test_tag_with_several_arities_accepted(self):
        # M(#Number) and M are two slots of one tag, within one declaration
        # or across two.
        t = Prod((msg("M", NUMBER), msg("M")))
        table = resolve_types([("#T", t), ("#U", Sum((msg("M"), ONE)))])
        assert table["#T"] == t


class TestRender:
    def test_roundtrip_shapes(self):
        assert render(Prod((A, Sum((B, C))))) == "A . (B + C)"
        assert render(Star(Prod((A, B)))) == "*(A . B)"
        assert render(msg("Get", msg("Reply", NUMBER))) == "Get(Reply(#Number))"
        assert render(ZERO) == "0" and render(ONE) == "1"

    def test_sum_and_prod_helpers(self):
        assert Sum([A, ZERO]) == A
        assert Prod([A, ONE]) == A
