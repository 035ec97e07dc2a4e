"""Dependency relations between object names, kept as clique partitions.

A relation records which objects' pending obligations may wait on each
other.  Every relation the checker builds is a union of cliques, so the
partition-into-blocks form represents it exactly: two names are related iff
they share a block.  Merging two relations fails precisely when it would
relate a pair twice or close a cycle — both show up as a union of two
already-connected names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

Name = Hashable


class SelfDependencyError(Exception):
    def __init__(self, name):
        super().__init__(f"name depends on itself: {name}")
        self.name = name


@dataclass(frozen=True)
class Incompatible:
    """Witness that two relations cannot be merged: the offending pair."""

    u: Name
    v: Name


@dataclass(frozen=True)
class DependencyRelation:
    blocks: frozenset[frozenset[Name]]

    def __post_init__(self):
        assert all(len(b) >= 2 for b in self.blocks)

    def related(self, u: Name, v: Name) -> bool:
        return u != v and any(u in b and v in b for b in self.blocks)

    def restrict(self, name: Name) -> "DependencyRelation":
        out = []
        for b in self.blocks:
            if name in b:
                b = b - {name}
            if len(b) >= 2:
                out.append(b)
        return DependencyRelation(frozenset(out))


EMPTY_DEPS = DependencyRelation(frozenset())


def clique(names: Iterable[Name]) -> DependencyRelation:
    group = list(names)
    if len(set(group)) != len(group):
        dupes = [n for n in group if group.count(n) > 1]
        raise SelfDependencyError(dupes[0])
    if len(group) < 2:
        return EMPTY_DEPS
    return DependencyRelation(frozenset({frozenset(group)}))


def _ordered(d: DependencyRelation) -> list[list[Name]]:
    """The blocks of d as sorted lists, in sorted order: a walk that does not
    depend on string hashing, so clash reports are the same in every run."""
    blocks = [sorted(block, key=repr) for block in d.blocks]
    blocks.sort(key=lambda block: [repr(name) for name in block])
    return blocks


def _union(
    d1: DependencyRelation, d2: DependencyRelation
) -> tuple[DependencyRelation, Incompatible | None]:
    """Connect everything either relation connects (union-find), and report
    the first pair of d2, in `_ordered` order, that d1 and the earlier pairs
    of d2 had already connected: a pair related twice, or the edge that
    closes a cycle."""
    parent: dict[Name, Name] = {}
    clash: Incompatible | None = None

    def find(x: Name) -> Name:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for block in d1.blocks:
        it = iter(block)
        first = find(next(it))
        for other in it:
            parent[find(other)] = first
    # Only this walk picks the reported pair; d1's only builds connectivity.
    for block in _ordered(d2):
        first = block[0]
        for other in block[1:]:
            ru, rv = find(first), find(other)
            if ru == rv:
                if clash is None:
                    clash = Incompatible(first, other)
            else:
                parent[rv] = ru

    groups: dict[Name, set[Name]] = {}
    for block in d1.blocks | d2.blocks:
        for name in block:
            groups.setdefault(find(name), set()).add(name)
    union = DependencyRelation(
        frozenset(frozenset(g) for g in groups.values() if len(g) >= 2)
    )
    return union, clash


def join(
    d1: DependencyRelation, d2: DependencyRelation
) -> DependencyRelation | Incompatible:
    """Merge two relations; Incompatible when they share a pair or their
    union closes a cycle (both surface as a union of connected names)."""
    union, clash = _union(d1, d2)
    return union if clash is None else clash


def merge(d1: DependencyRelation, d2: DependencyRelation) -> DependencyRelation:
    """Connect everything either relation connects, without the
    incompatibility check.  Used where the two relations describe mutually
    exclusive branches."""
    return _union(d1, d2)[0]
