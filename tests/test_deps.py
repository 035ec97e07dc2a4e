"""Tests for dependency-relation partitions and their merge operations."""

import random

import pytest

from joinstate.deps import (
    EMPTY_DEPS,
    DependencyRelation,
    Incompatible,
    SelfDependencyError,
    clique,
    join,
    merge,
)


def rel(*blocks):
    return DependencyRelation(frozenset(frozenset(b) for b in blocks))


class TestBasics:
    def test_pair(self):
        d = clique(["user", "future"])
        assert d.related("user", "future")
        assert d.related("future", "user")
        assert not d.related("user", "user")

    def test_self_pair_rejected(self):
        with pytest.raises(SelfDependencyError):
            clique(["a", "a"])

    def test_clique_with_duplicate_rejected(self):
        with pytest.raises(SelfDependencyError):
            clique(["a", "b", "a"])

    def test_small_cliques_vanish(self):
        assert clique(["a"]) == EMPTY_DEPS
        assert clique([]) == EMPTY_DEPS


class TestJoin:
    def test_shared_pair_incompatible(self):
        d = clique(["user", "future"])
        assert isinstance(join(d, d), Incompatible)

    def test_four_cycle_incompatible(self):
        d1 = rel({"a", "b"}, {"c", "d"})
        d2 = rel({"a", "c"}, {"b", "d"})
        assert isinstance(join(d1, d2), Incompatible)

    def test_disjoint_union(self):
        assert join(rel({"a", "b"}), rel({"c", "d"})) == rel({"a", "b"}, {"c", "d"})

    def test_transitive_closure_of_chain(self):
        d = join(rel({"a", "b"}), rel({"b", "c"}))
        assert d == rel({"a", "b", "c"})

    def test_empty_is_unit(self):
        d = rel({"a", "b"}, {"c", "d", "e"})
        assert join(d, EMPTY_DEPS) == d
        assert join(EMPTY_DEPS, d) == d

    def test_commutative(self):
        d1 = rel({"a", "b"}, {"x", "y"})
        d2 = rel({"b", "c"})
        assert join(d1, d2) == join(d2, d1)


class TestRestrict:
    def test_removes_from_block(self):
        assert rel({"a", "b", "c"}).restrict("a") == rel({"b", "c"})

    def test_absent_name_noop(self):
        assert rel({"a", "b"}).restrict("c") == rel({"a", "b"})

    def test_pair_dissolves(self):
        assert rel({"a", "b"}).restrict("a") == EMPTY_DEPS


class TestMerge:
    def test_overlapping_branches_coarsen(self):
        d1 = rel({"a", "b", "c"})
        d2 = rel({"a", "b"})
        assert merge(d1, d2) == rel({"a", "b", "c"})

    def test_compatible_inputs_behave_like_join(self):
        d1 = rel({"a", "b"})
        d2 = rel({"c", "d"})
        assert merge(d1, d2) == join(d1, d2)

    def test_cycle_coarsens_into_one_block(self):
        d1 = rel({"a", "b"}, {"c", "d"})
        d2 = rel({"a", "c"}, {"b", "d"})
        assert merge(d1, d2) == rel({"a", "b", "c", "d"})


def random_relation(rng, names):
    pool = list(names)
    rng.shuffle(pool)
    blocks = []
    while len(pool) >= 2 and rng.random() < 0.8:
        size = rng.randint(2, min(3, len(pool)))
        blocks.append({pool.pop() for _ in range(size)})
    return DependencyRelation(frozenset(frozenset(b) for b in blocks))


class TestAlgebraicProperties:
    def test_join_associative(self):
        rng = random.Random(20260827)
        names = list("abcdefgh")
        for _ in range(300):
            d1, d2, d3 = (random_relation(rng, names) for _ in range(3))
            left_inner = join(d1, d2)
            right_inner = join(d2, d3)
            left = (
                left_inner
                if isinstance(left_inner, Incompatible)
                else join(left_inner, d3)
            )
            right = (
                right_inner
                if isinstance(right_inner, Incompatible)
                else join(d1, right_inner)
            )
            if isinstance(left, Incompatible) or isinstance(right, Incompatible):
                assert isinstance(left, Incompatible) and isinstance(
                    right, Incompatible
                )
            else:
                assert left == right

    def test_restrict_of_unrelated_name_preserves_compatibility(self):
        rng = random.Random(7)
        for _ in range(300):
            d1 = random_relation(rng, list("abcdef"))
            d2 = random_relation(rng, list("uvwxyz"))  # 'a' never appears here
            assert isinstance(join(d1, d2), Incompatible) == isinstance(
                join(d1.restrict("a"), d2), Incompatible
            )

    def test_join_result_needs_no_further_closure(self):
        rng = random.Random(99)
        for _ in range(200):
            d1 = random_relation(rng, list("abcdefgh"))
            d2 = random_relation(rng, list("cdefghij"))
            d = join(d1, d2)
            if isinstance(d, Incompatible):
                continue
            assert join(d, EMPTY_DEPS) == d
            for b1 in d.blocks:
                for b2 in d.blocks:
                    assert b1 == b2 or not (b1 & b2)
