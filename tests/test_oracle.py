"""Cross-checks between the semilinear engine and the enumeration oracle."""

import itertools
import random
from collections import Counter

import pytest

from joinstate import types as ty
from joinstate.oracle import (
    config_le,
    member,
    oracle_live,
    oracle_subtype,
    random_patterns,
    random_type,
)
from joinstate.parser import parse_type
from joinstate.semilinear import (
    SubtypeEngine,
    joint_alphabet,
    live,
    parikh,
)
from joinstate.types import TypeAlgebra

ALG = TypeAlgebra({})


def t(src):
    return parse_type(src)


class TestOracleDirect:
    def test_reflexive(self):
        for src in ("1", "A", "A + B", "*(A . B)", "A(Reply(#Number))"):
            assert oracle_subtype(ALG, t(src), t(src))

    def test_sum_forgets(self):
        assert oracle_subtype(ALG, t("A + B"), t("A"))
        assert not oracle_subtype(ALG, t("A"), t("A + B"))

    def test_contravariant_arguments(self):
        # Sending an A-or-B handler where an A handler is expected is fine.
        assert oracle_subtype(ALG, t("M(A)"), t("M(A + B)"))
        assert not oracle_subtype(ALG, t("M(A + B)"), t("M(A)"))

    def test_star_unrolls(self):
        assert oracle_subtype(ALG, t("*A"), t("1 + A + A . A"))
        assert not oracle_subtype(ALG, t("1 + A"), t("A . A"))

    def test_zero_is_top(self):
        assert oracle_subtype(ALG, t("A + B . C"), t("0"))
        assert not oracle_subtype(ALG, t("0"), t("A"))

    def test_config_matching_is_a_bijection(self):
        a, b = ty.Msg("A"), ty.Msg("B")
        assert config_le(ALG, (a, b), (b, a))
        assert not config_le(ALG, (a, a), (a, b))

    def test_live_matches_semantics(self):
        # One pending A with a relevant payload and no rule to consume it.
        decl = t("A(Reply(#Number)) + B")
        assert not oracle_live(ALG, decl, [{"B": 1}])
        assert oracle_live(ALG, t("A + B"), [{"B": 1}])


class TestRandomTypes:
    def test_generator_is_deterministic(self):
        a = [random_type(random.Random(5)) for _ in range(20)]
        b = [random_type(random.Random(5)) for _ in range(20)]
        assert a == b

    def test_generator_covers_the_grammar(self):
        rng = random.Random(0)
        kinds = {type(random_type(rng)) for _ in range(200)}
        assert {ty.Sum, ty.Prod, ty.Star, ty.Msg} <= kinds


def pairs(n, seed=0):
    rng = random.Random(seed)
    return [(random_type(rng), random_type(rng)) for _ in range(n)]


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_yes_verdicts_confirmed_by_enumeration(self, seed):
        for a, b in pairs(60, seed):
            verdict = SubtypeEngine(ALG).subtype(a, b)
            if verdict.kind == "yes":
                assert oracle_subtype(ALG, a, b, size=6), (
                    ty.render(a),
                    ty.render(b),
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_counterexamples_are_real(self, seed):
        # Every "no" comes with a configuration of the supertype; the oracle
        # must agree that no configuration of the subtype matches it.
        for a, b in pairs(60, seed):
            verdict = SubtypeEngine(ALG).subtype(a, b)
            if verdict.kind == "no":
                cex = verdict.counterexample
                size = len(cex)
                candidates = [
                    c
                    for c in ALG.enumerate_configs(a, size)
                    if len(c) == size
                ]
                assert not any(config_le(ALG, cex, c) for c in candidates), (
                    ty.render(a),
                    ty.render(b),
                    cex,
                )

    def test_oracle_refutations_never_contradict_a_yes(self):
        for a, b in pairs(150, seed=9):
            if not oracle_subtype(ALG, a, b, size=5):
                assert SubtypeEngine(ALG).subtype(a, b).kind != "yes", (
                    ty.render(a),
                    ty.render(b),
                )

    def test_parikh_membership_matches_enumeration(self):
        # At every weight up to 4, a vector over the slot alphabet lies in
        # the Parikh image exactly when the corresponding configuration is
        # enumerable.
        rng = random.Random(7)
        for _ in range(60):
            t = random_type(rng, depth=2)
            alphabet = joint_alphabet(ALG, t)
            if not alphabet:
                continue
            components = parikh(ALG, t, alphabet)
            enumerated = {
                tuple(Counter(c)[slot] for slot in alphabet)
                for c in ALG.enumerate_configs(t, 4)
            }
            for size in range(5):
                for combo in itertools.combinations_with_replacement(
                    range(len(alphabet)), size
                ):
                    vector = tuple(
                        combo.count(i) for i in range(len(alphabet))
                    )
                    assert member(vector, components) == (
                        vector in enumerated
                    ), (ty.render(t), vector)

    def test_liveness_agreement(self):
        # Arguments make slots relevant, and patterns may name their tags.
        rng = random.Random(3)
        verdicts = set()
        for _ in range(300):
            decl = random_type(rng, depth=2, arg_depth=1)
            patterns = random_patterns(rng)
            verdict = live(ALG, decl, patterns)
            assert verdict == oracle_live(ALG, decl, patterns), (
                ty.render(decl),
                patterns,
            )
            verdicts.add(verdict)
        assert verdicts == {True, False}
