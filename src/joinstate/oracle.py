"""Slow-but-obvious reference implementations used to cross-check the
semilinear engine.

The oracle answers subtyping and liveness questions by brute force over
explicitly enumerated configurations, so it shares no code path with the
Parikh-image machinery.  It is exact up to the enumeration size and the
argument-recursion depth, which is what the property tests need.
`member` decides membership in a union of linear sets by a plain search
over period multiples, the reference for the engine's tables and cones.
`reaction` decodes a soup's reaction index by scanning objects and rules,
the reference for the runtime's one-pass `Soup.fire`.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterable, Mapping, Sequence

from . import types as ty
from .runtime import _unrank_picks
from .semilinear import LinearSet, Vector
from .types import Config, Msg, TypeAlgebra, TypeExpr


def config_le(
    alg: TypeAlgebra, cs: Config, ct: Config, depth: int = 3
) -> bool:
    """Whether supertype-side configuration cs is matched by subtype-side ct:
    same length, tags paired off, arguments compared contravariantly."""
    if len(cs) != len(ct):
        return False
    remaining = list(ct)

    def match(i: int) -> bool:
        if i == len(cs):
            return True
        sup = cs[i]
        for j, sub in enumerate(remaining):
            if sub is None or sub.tag != sup.tag:
                continue
            if len(sub.args) != len(sup.args):
                continue
            if all(
                oracle_subtype(alg, a, b, depth=depth - 1)
                for a, b in zip(sup.args, sub.args)
            ):
                remaining[j] = None
                if match(i + 1):
                    return True
                remaining[j] = sub
        return False

    return match(0)


def oracle_subtype(
    alg: TypeAlgebra, t: TypeExpr, s: TypeExpr, size: int = 4, depth: int = 3
) -> bool:
    """Reference subtype check: every configuration of s up to the given size
    appears among t's configurations.  Beyond the argument depth budget the
    comparison degrades to syntactic equality of normal forms."""
    if t == s:
        return True
    if depth < 0:
        return False
    for cs in sorted(alg.enumerate_configs(s, size), key=len):
        candidates = [
            ct for ct in alg.enumerate_configs(t, len(cs)) if len(ct) == len(cs)
        ]
        if not any(config_le(alg, cs, ct, depth) for ct in candidates):
            return False
    return True


def _linear_member(v: Vector, base: Vector, periods: Sequence[Vector]) -> bool:
    """Whether v is base plus a sum of the periods, by trying every
    multiple of each period in turn."""
    deficit = tuple(a - b for a, b in zip(v, base))
    if any(d < 0 for d in deficit):
        return False
    if not any(deficit):
        return True

    def search(d: Vector, ps: Sequence[Vector]) -> bool:
        if not any(d):
            return True
        if not ps:
            return False
        p, rest = ps[0], ps[1:]
        k = 0
        cur = d
        while all(c >= 0 for c in cur):
            if search(cur, rest):
                return True
            k += 1
            cur = tuple(c - e for c, e in zip(d, tuple(k * x for x in p)))
        return False

    return search(deficit, [p for p in periods if any(p)])


def member(v: Vector, components: Iterable[LinearSet]) -> bool:
    """Whether v lies in some component, each one a fresh search."""
    return any(_linear_member(v, c.base, sorted(c.periods)) for c in components)


def oracle_live(
    alg: TypeAlgebra,
    t: TypeExpr,
    patterns: Iterable[Mapping[str, int]],
    size: int = 5,
) -> bool:
    """Reference liveness: no configuration up to the given size both fails
    to trigger every pattern and holds a message with a relevant argument."""
    pats = [dict(p) for p in patterns]
    for config in alg.enumerate_configs(t, size):
        counts: dict[str, int] = {}
        for m in config:
            counts[m.tag] = counts.get(m.tag, 0) + 1
        if any(
            all(counts.get(tag, 0) >= k for tag, k in pat.items())
            for pat in pats
        ):
            continue
        if any(any(alg.relevant(a) for a in m.args) for m in config):
            return False
    return True


TAGS = ("A", "B", "C", "D")
# Tags that always carry exactly one argument, kept disjoint from the plain
# ones so every generated tag has a single arity.
ARG_TAGS = ("M", "N")


def random_type(rng: random.Random, depth: int = 3, arg_depth: int = 1) -> TypeExpr:
    """A random closed behavioral type.  Message arguments are drawn from a
    shallower distribution so enumeration stays cheap."""
    if depth <= 0:
        return rng.choice((ty.ONE, _random_msg(rng, arg_depth)))
    roll = rng.random()
    if roll < 0.08:
        return ty.ZERO
    if roll < 0.18:
        return ty.ONE
    if roll < 0.45:
        return _random_msg(rng, arg_depth)
    if roll < 0.65:
        return ty.Sum(
            tuple(random_type(rng, depth - 1, arg_depth) for _ in range(2))
        )
    if roll < 0.85:
        return ty.Prod(
            tuple(random_type(rng, depth - 1, arg_depth) for _ in range(2))
        )
    return ty.Star(random_type(rng, depth - 1, arg_depth))


def _random_msg(rng: random.Random, arg_depth: int) -> Msg:
    if arg_depth > 0 and rng.random() < 0.3:
        arg = rng.choice(
            (
                ty.NUMBER,
                ty.Msg(rng.choice(TAGS)),
                random_type(rng, 1, arg_depth - 1),
            )
        )
        return ty.Msg(rng.choice(ARG_TAGS), (arg,))
    return ty.Msg(rng.choice(TAGS))


def random_patterns(rng: random.Random) -> list[dict[str, int]]:
    out = []
    for _ in range(rng.randint(1, 3)):
        tags = rng.sample(TAGS, rng.randint(1, 2))
        out.append({tag: rng.randint(1, 2) for tag in tags})
    return out


def enabled_reactions(soup) -> list[tuple]:
    """Every enabled (object, rule, selection) triple of a runtime soup,
    found by trying every sub-multiset of every mailbox against every
    pattern.  A selection is a frozenset of (message, copies) pairs, so
    equal payloads count once and each triple is listed once."""
    out = []
    for inst in soup.instances:
        msgs = [
            msg
            for group in inst.mailbox.values()
            for msg, copies in group.items()
            for _ in range(copies)
        ]
        for rule_idx, rule in enumerate(inst.node.rules):
            want = Counter(p.tag for p in rule.pattern)
            selections = {
                frozenset(Counter(combo).items())
                for combo in itertools.combinations(msgs, len(rule.pattern))
                if Counter(m[0] for m in combo) == want
            }
            out.extend((inst.oid, rule_idx, sel) for sel in selections)
    return out


def reaction(soup, index: int) -> tuple:
    """The reaction that index names among a runtime soup's enabled ones,
    0 <= index < soup.enabled_count(), decoded the slow way: a scan of the
    objects in serial order, then of the object's rules, then the rule's
    selection in mixed radix, one digit per tag it takes, in tag order.
    Returns the object, the rule index, and the selection as (message,
    copies) pairs, for checking `Soup.fire`, which decodes in one pass."""
    r = index
    for inst in soup.instances:
        total = sum(inst.weights)
        if r < total:
            break
        r -= total
    for rule_idx, w in enumerate(inst.weights):
        if r < w:
            break
        r -= w
    selection = []
    for tag, k, _ in inst.rules[rule_idx][0]:
        msgs = inst.mailbox[tag]
        if k == 1:
            r, j = divmod(r, len(msgs))
            selection.append((list(msgs)[j], 1))
        else:
            r, picks = _unrank_picks(list(msgs.items()), k, r)
            selection.extend(picks)
    return inst, rule_idx, selection
