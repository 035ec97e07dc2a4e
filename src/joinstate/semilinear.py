"""Semantic predicates over configuration sets, via Parikh images.

A type's configurations, projected to counts per message slot, form a
semilinear set: a finite union of linear sets (base vector plus any natural
combination of period vectors).  On that representation subtyping and
liveness become vector problems; argument determinacy and the monitors'
test of a mailbox by its per-tag counts (`tag_caps`, `fits`) read only
each component's per-slot bounds, which come from the type without one.

Subtyping is exact whenever it answers No or proves inclusion through the
fast path; otherwise it checks every vector of the supertype with at most
`bound` periods added.  That is exhaustive for a component without
periods; when some checked component has periods, or an argument check
answered YesBounded, the answer is YesBounded, which callers may treat as
success with a recorded caveat.

One containment test serves the whole module: (b, P) lies in (a, Q) when
P is among Q and b - a is a sum of Q's periods (`_lies_in`, by a memoized
cone walk, `_in_cone`).  With P empty that is exact membership of b.

Each `_subtype` call keeps one table of candidate slots, row i the slots
whose arguments fit slot i's, filled on first use (`SubtypeEngine._fits`):
the fast path takes its slot maps from it and the bounded check its
transports.

The fast path embeds a whole supertype component (b, P) into one subtype
component through a slot map that sends each slot to a candidate: the
identity first, then each other map, applied once to b and P.  A target
takes the image when it contains it by `_lies_in`.  The sums reachable
from each period set are memoized on the engine and live as long as it.

Each bounded check is a membership question.  A vector v matches when it,
or another split w of its tag counts over the slots of a tag, lies in some
subtype component and v's messages can move onto w's slots, each to a
candidate (`_Matcher`): by the supply-demand theorem (Gale 1957), when no
set of v's slots holds more messages than w has on the slots they may use
(`_transport_exists`).  Memberships share the fast path's cone memo.

Sums, products and stars prune components as they build them (`_prune`):
a component goes when another contains it by the same test.  There the
sums are memoized for one `_prune` call, so many component pairs share one
walk of a cone.  A star takes one rule (`_star`): each body component
without periods lends its base as a period to every component, and each
subset of the components with periods, taken at least once, gives one.

Liveness tests only each component's least configurations: its base, and
its base plus one period (`live`).  The monitors' caps and argument
determinacy read one bound per slot (`_slot_bounds`), tag by tag: per
component, a slot's most messages in one configuration, infinite when a
period touches it.  Both answer from the maximal bounds alone, which a
recursion over the type gives as `_parikh` builds the components, with no
image: a message its unit vector, a sum its parts' bounds, a product the
sums of one bound per part, and a star one bound, infinite on every slot
its body reaches.  They are memoized on the algebra per (term, alphabet),
as the images are.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .types import Config, Msg, TypeAlgebra, TypeExpr, sort_key

Vector = tuple[int, ...]


@dataclass(frozen=True)
class LinearSet:
    base: Vector
    periods: frozenset[Vector]


# A slot is a message type; the alphabet fixes coordinate order.
Alphabet = tuple[Msg, ...]


def _zero(n: int) -> Vector:
    return (0,) * n


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _scale_add(u: Vector, v: Vector, k: int) -> Vector:
    return tuple(a + k * b for a, b in zip(u, v))


def joint_alphabet(alg: TypeAlgebra, *types: TypeExpr) -> Alphabet:
    """The message slots of the given types, in sort order; memoized on alg.
    Messages of one tag with different arities are different slots."""
    alphabet = alg.alphabet_memo.get(types)
    if alphabet is not None:
        return alphabet
    slots: set[Msg] = set()
    for t in types:
        slots |= alg.heads(t)
    alphabet = tuple(sorted(slots, key=sort_key))
    alg.alphabet_memo[types] = alphabet
    return alphabet


def _in_cone(d: Vector, periods: Sequence[Vector], memo: dict[Vector, bool]) -> bool:
    """Whether d is a sum of the given periods (nonzero, nonnegative).
    Depth first, one period off at a time, on an explicit stack; memo holds
    the answers known for these periods, zero's included."""
    hit = memo.get(d)
    if hit is not None:
        return hit
    stack = [(d, iter(periods))]
    while stack:
        v, rest = stack[-1]
        for p in rest:
            w = tuple(map(operator.sub, v, p))
            if min(w) < 0:
                continue
            hit = memo.get(w)
            if hit is None:
                stack.append((w, iter(periods)))
                break
            if hit:
                # Every residual on the stack reaches w, so zero.
                for u, _ in stack:
                    memo[u] = True
                return True
        else:
            memo[v] = False
            stack.pop()
    return False


def _lies_in(
    base: Vector, periods: frozenset[Vector], big: LinearSet, cones: dict
) -> bool:
    """Whether big = (a, P) contains (base, periods) by the cheap test:
    periods <= P and base - a a sum of P's periods.  Enough for inclusion,
    not needed for it.  cones memoizes `_in_cone` per (dimension, P); the
    dimension is in the key because the empty set is one frozenset in every
    dimension."""
    if not periods <= big.periods:
        return False
    deficit = tuple(map(operator.sub, base, big.base))
    if min(deficit, default=0) < 0:
        return False
    key = (len(deficit), big.periods)
    cone = cones.get(key)
    if cone is None:
        nonzero = [p for p in big.periods if any(p)]
        cone = cones[key] = (nonzero, {_zero(len(deficit)): True})
    return _in_cone(deficit, *cone)


def _prune(components: Iterable[LinearSet]) -> list[LinearSet]:
    """The components, in order, less each one another contains by
    `_lies_in` (of equal ones, the first stays)."""
    cones: dict = {}
    out: list[LinearSet] = []
    for c in components:
        if any(_lies_in(c.base, c.periods, d, cones) for d in out):
            continue
        out = [d for d in out if not _lies_in(d.base, d.periods, c, cones)]
        out.append(c)
    return out


def parikh(alg: TypeAlgebra, t: TypeExpr, alphabet: Alphabet) -> list[LinearSet]:
    """Components of the Parikh image of t over the given slot alphabet.

    Memoized on alg per (term, alphabet), subterms included; the list is
    shared between callers, so none may change it."""
    key = (t, alphabet)
    image = alg.parikh_memo.get(key)
    if image is None:
        image = alg.parikh_memo[key] = _parikh(alg, t, alphabet)
    return image


def _parikh(alg: TypeAlgebra, t: TypeExpr, alphabet: Alphabet) -> list[LinearSet]:
    n = len(alphabet)
    heads = alg.heads(t)
    if not heads:
        # 0, or a name for it, has no configurations; the rest are just 1.
        if not alg.usable(t):
            return []
        return [LinearSet(_zero(n), frozenset())]
    if isinstance(t, Msg):
        i = alphabet.index(t)
        unit = tuple(1 if j == i else 0 for j in range(n))
        return [LinearSet(unit, frozenset())]
    kind = type(t).__name__
    if kind == "Sum":
        out: list[LinearSet] = []
        for p in t.parts:  # type: ignore[attr-defined]
            out.extend(parikh(alg, p, alphabet))
        return _prune(out)
    if kind == "Prod":
        acc = [LinearSet(_zero(n), frozenset())]
        for p in t.parts:  # type: ignore[attr-defined]
            parts = parikh(alg, p, alphabet)
            # Pruned as generated, so the full product never exists.
            acc = _prune(
                LinearSet(_add(a.base, b.base), a.periods | b.periods)
                for a in acc
                for b in parts
            )
            if not acc:
                return []
        return acc
    if kind == "Star":
        return _star(parikh(alg, t.body, alphabet), n)  # type: ignore[attr-defined]
    if kind == "Ref":
        return parikh(alg, alg.unfold(t), alphabet)
    raise TypeError(f"not a type expression: {t!r}")


def _star(body: list[LinearSet], n: int) -> list[LinearSet]:
    """The Parikh image of a star over n slots, from its body's image.

    A body component without periods may be taken any number of times, zero
    included, so its base is a period of every component.  A component with
    periods adds its periods only once taken, so each subset of those is
    taken at least once: one component per subset, 2^|periodic| in all."""
    free = frozenset(c.base for c in body if not c.periods and any(c.base))
    periodic = [c for c in body if c.periods]
    out = [LinearSet(_zero(n), free)]
    for r in range(1, len(periodic) + 1):
        for subset in itertools.combinations(periodic, r):
            base = _zero(n)
            periods = set(free)
            for comp in subset:
                base = _add(base, comp.base)
                periods |= comp.periods
                if any(comp.base):
                    periods.add(comp.base)
            out.append(LinearSet(base, frozenset(periods)))
    # Without periodic components there is one component, nothing to prune.
    return _prune(out) if periodic else out


def _slot_bounds(
    alg: TypeAlgebra, t: TypeExpr, alphabet: Alphabet
) -> list[tuple[float, ...]]:
    """Over the given slot alphabet, the maximal vectors of each slot's most
    messages in one configuration of a component of t's Parikh image:
    infinity where a period touches the slot, else the base's count.
    Memoized on alg per (term, alphabet), subterms included, and shared:
    read-only."""
    key = (t, alphabet)
    bounds = alg.bounds_memo.get(key)
    if bounds is None:
        bounds = alg.bounds_memo[key] = _bounds_of(alg, t, alphabet)
    return bounds


def _bounds_of(
    alg: TypeAlgebra, t: TypeExpr, alphabet: Alphabet
) -> list[tuple[float, ...]]:
    """By structure, as `_parikh` builds the components: a sum's parts'
    bounds, a product's sums of one bound per part, and a star's one bound,
    infinite on every slot its body's bounds touch.  Only sums and products
    can give several, so only they drop the vectors others dominate."""
    n = len(alphabet)
    if not alg.heads(t):
        return [_zero(n)] if alg.usable(t) else []
    if isinstance(t, Msg):
        i = alphabet.index(t)
        return [tuple(1 if j == i else 0 for j in range(n))]
    kind = type(t).__name__
    if kind == "Sum":
        parts = t.parts  # type: ignore[attr-defined]
        return _maximal([b for p in parts for b in _slot_bounds(alg, p, alphabet)])
    if kind == "Prod":
        acc: list[tuple[float, ...]] = [_zero(n)]
        for p in t.parts:  # type: ignore[attr-defined]
            bounds = _slot_bounds(alg, p, alphabet)
            acc = _maximal([_add(a, b) for a in acc for b in bounds])
            if not acc:
                break
        return acc
    if kind == "Star":
        body = _slot_bounds(alg, t.body, alphabet)  # type: ignore[attr-defined]
        return [tuple(math.inf if any(b[i] for b in body) else 0 for i in range(n))]
    if kind == "Ref":
        return _slot_bounds(alg, alg.unfold(t), alphabet)
    raise TypeError(f"not a type expression: {t!r}")


def _maximal(vectors: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """The vectors, in order, less each one another is at least as large as
    everywhere (of equal ones, the first stays)."""
    out: list[tuple[float, ...]] = []
    for v in vectors:
        if any(all(map(operator.le, v, w)) for w in out):
            continue
        out = [w for w in out if not all(map(operator.le, w, v))]
        out.append(v)
    return out


def tag_caps(alg: TypeAlgebra, t: TypeExpr) -> list[dict[str, float]]:
    """Per vector of t's `_slot_bounds`, the most messages of each tag one
    configuration of a component holds: its slots' bounds summed."""
    alphabet = joint_alphabet(alg, t)
    caps = []
    for bound in _slot_bounds(alg, t, alphabet):
        cap: dict[str, float] = {}
        for slot, n in zip(alphabet, bound):
            cap[slot.tag] = cap.get(slot.tag, 0) + n
        caps.append(cap)
    return caps


def fits(caps: list[dict[str, float]], counts: Mapping[str, int]) -> bool:
    """Whether some component's caps cover the per-tag counts: whether a
    mailbox holding them is part of a configuration, as a component's
    periods are nonnegative and so reach all its caps at once."""
    for cap in caps:
        for tag in counts:
            if cap.get(tag, 0) < counts[tag]:
                break
        else:
            return True
    return False


# --- subtyping -------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str  # "yes" | "no" | "yes-bounded"
    counterexample: Config | None = None
    bound: int | None = None

    @property
    def holds(self) -> bool:
        return self.kind != "no"


YES = Verdict("yes")


def _tag_slots(alphabet: Alphabet) -> dict[str, list[int]]:
    """The slot indices of each tag, in alphabet order."""
    out: dict[str, list[int]] = {}
    for i, slot in enumerate(alphabet):
        out.setdefault(slot.tag, []).append(i)
    return out


def _transport_exists(
    supply: list[int], demand: list[int], allowed: list[list[bool]]
) -> bool:
    """Whether all supply units can be distributed into demand along allowed
    edges.  By the supply-demand theorem (Gale 1957), exactly when the
    totals are equal and no set of rows supplies more than the columns it
    may use demand.  Rows are a tag's slots, a handful at most, so every
    set is tried."""
    if sum(supply) != sum(demand):
        return False
    rows = range(len(supply))
    for r in range(1, len(supply) + 1):
        for subset in itertools.combinations(rows, r):
            cols = {j for i in subset for j, ok in enumerate(allowed[i]) if ok}
            if sum(supply[i] for i in subset) > sum(demand[j] for j in cols):
                return False
    return True


class SubtypeEngine:
    """Decides `t <= s` with coinductive memoization and a bounded fallback.

    One engine instance owns its verdict cache and the fast path's cone
    memo; share an instance to amortize them.  Parikh images are memoized
    on the algebra.
    """

    def __init__(self, alg: TypeAlgebra, bound: int = 4):
        self.alg = alg
        self.bound = bound
        self._cache: dict[tuple[TypeExpr, TypeExpr], Verdict] = {}
        self._in_progress: set[tuple[TypeExpr, TypeExpr]] = set()
        # Set when an argument check of the current `_subtype` call answered
        # yes-bounded, so that the call cannot answer an exact yes.
        self._args_bounded = False
        self._cones: dict = {}  # `_lies_in`'s memo for the fast path

    def subtype(self, t: TypeExpr, s: TypeExpr) -> Verdict:
        key = (t, s)
        if key in self._cache:
            return self._cache[key]
        if key in self._in_progress:
            return YES  # coinductive assumption
        outermost = not self._in_progress
        self._in_progress.add(key)
        outer_bounded, self._args_bounded = self._args_bounded, False
        try:
            verdict = self._subtype(t, s)
            if verdict.kind == "yes" and self._args_bounded:
                verdict = Verdict("yes-bounded", bound=self.bound)
        finally:
            self._in_progress.discard(key)
            self._args_bounded = outer_bounded
        # Positive verdicts reached under pending assumptions are provisional;
        # only negative ones are stable enough to keep in that case.
        if outermost or not verdict.holds:
            self._cache[key] = verdict
        return verdict

    def equivalent(self, t: TypeExpr, s: TypeExpr) -> Verdict:
        forward = self.subtype(t, s)
        if not forward.holds:
            return forward
        backward = self.subtype(s, t)
        if not backward.holds:
            return backward
        for v in (forward, backward):
            if v.kind == "yes-bounded":
                return v
        return YES

    def _args_ok(self, sup: Msg, sub: Msg) -> bool:
        # Matching a supertype-side message against a subtype-side one:
        # arguments are contravariant.
        if sup.tag != sub.tag or len(sup.args) != len(sub.args):
            return False
        for a, b in zip(sup.args, sub.args):
            verdict = self.subtype(a, b)
            if not verdict.holds:
                return False
            if verdict.kind == "yes-bounded":
                self._args_bounded = True
        return True

    def _subtype(self, t: TypeExpr, s: TypeExpr) -> Verdict:
        alg = self.alg
        if t == s:
            return YES
        if alg.nullable(s) and not alg.nullable(t):
            return Verdict("no", counterexample=())
        alphabet = joint_alphabet(alg, t, s)
        t_comps = parikh(alg, t, alphabet)
        s_comps = parikh(alg, s, alphabet)
        matcher: _Matcher | None = None
        # Each slot's candidate list, filled on first use and shared by the
        # supertype components and the matcher.
        candidates: list[list[int] | None] = [None] * len(alphabet)
        # A component without periods is one vector, which the matcher
        # checks exhaustively; only periods leave vectors past the bound.
        bounded = False
        for comp in s_comps:
            if self._fast_include(comp, t_comps, alphabet, candidates):
                continue
            if matcher is None:
                matcher = _Matcher(self, t_comps, alphabet, candidates)
            missing = matcher.missing(comp)
            if missing is not None:
                return Verdict("no", counterexample=missing)
            bounded = bounded or any(any(p) for p in comp.periods)
        return Verdict("yes-bounded", bound=self.bound) if bounded else YES

    def _fast_include(
        self,
        comp: LinearSet,
        t_comps: list[LinearSet],
        alphabet: Alphabet,
        candidates: list[list[int] | None],
    ) -> bool:
        """Try to embed a whole supertype component into one subtype component
        through a single slot-to-slot map, each slot sent to a candidate."""
        n = len(alphabet)
        used = [i for i, col in enumerate(zip(comp.base, *comp.periods)) if any(col)]
        if not used:
            # Only the zero vector; nullability was already checked.
            return True
        lists = [self._fits(i, alphabet, candidates) for i in used]
        if math.prod(map(len, lists)) > 256:
            return False

        def embeds(base: Vector, periods: frozenset[Vector]) -> bool:
            return any(_lies_in(base, periods, c, self._cones) for c in t_comps)

        periods = [p for p in comp.periods if any(p)]
        # The identity first, without remapping: most often the only map.
        if embeds(comp.base, frozenset(periods)):
            return True
        identity = tuple(used)
        for sigma in itertools.product(*lists):
            if sigma == identity:
                continue
            mapped = []
            for v in [comp.base, *periods]:
                out = [0] * n
                for i, j in zip(used, sigma):
                    out[j] += v[i]
                mapped.append(tuple(out))
            if embeds(mapped[0], frozenset(mapped[1:])):
                return True
        return False

    def _fits(
        self, i: int, alphabet: Alphabet, candidates: list[list[int] | None]
    ) -> list[int]:
        """candidates[i], the slots whose arguments fit slot i's, filled on
        first use; never empty, as a slot fits itself."""
        row = candidates[i]
        if row is None:
            sup = alphabet[i]
            row = candidates[i] = [
                j for j, sub in enumerate(alphabet) if self._args_ok(sup, sub)
            ]
        return row


def _bounded_coeffs(n: int, total: int) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _bounded_coeffs(n - 1, total - head):
            yield (head,) + rest


class _Matcher:
    """Whether a supertype-side vector is matched by some vector of the
    subtype's components, for one `_subtype` call.

    A match w has v's count for every tag and lies in the subtype's Parikh
    image; a transport of v's messages onto w's slots along the call's
    candidate slots must exist.  Membership is `_lies_in` with no periods,
    through the engine's cone memo; answers are memoized per vector."""

    def __init__(
        self,
        engine: SubtypeEngine,
        t_comps: list[LinearSet],
        alphabet: Alphabet,
        candidates: list[list[int] | None],
    ):
        self.engine = engine
        self.t_comps = t_comps
        self.alphabet = alphabet
        self.candidates = candidates
        # A tag with one slot can split its count only as v does, and a slot
        # always fits itself, so only tags with several slots need transport.
        self.split_tags = [s for s in _tag_slots(alphabet).values() if len(s) > 1]
        self.memo: dict[Vector, bool] = {}

    def missing(self, comp: LinearSet) -> Config | None:
        """A configuration of comp with at most `bound` periods added that
        no vector matches, or None."""
        periods = sorted(p for p in comp.periods if any(p))
        for coeffs in _bounded_coeffs(len(periods), self.engine.bound):
            v = comp.base
            for p, k in zip(periods, coeffs):
                v = _scale_add(v, p, k)
            if not self.matches(v):
                return tuple(m for k, m in zip(v, self.alphabet) for _ in range(k))
        return None

    def matches(self, v: Vector) -> bool:
        hit = self.memo.get(v)
        if hit is None:
            # v itself needs no transport: every message keeps its slot.
            hit = self._member(v) or any(
                w != v and self._member(w) and self._transport_ok(v, w)
                for w in self._splits(v)
            )
            self.memo[v] = hit
        return hit

    def _member(self, v: Vector) -> bool:
        """Whether v lies in the subtype's Parikh image."""
        empty: frozenset[Vector] = frozenset()
        cones = self.engine._cones
        return any(_lies_in(v, empty, c, cones) for c in self.t_comps)

    def _transport_ok(self, v: Vector, w: Vector) -> bool:
        """Whether v's messages can move onto w's slots, each to one of its
        candidates."""
        for slots in self.split_tags:
            sup = [i for i in slots if v[i]]
            sub = [j for j in slots if w[j]]
            rows = [self.engine._fits(i, self.alphabet, self.candidates) for i in sup]
            allowed = [[j in row for j in sub] for row in rows]
            supply = [v[i] for i in sup]
            if not _transport_exists(supply, [w[j] for j in sub], allowed):
                return False
        return True

    def _splits(self, v: Vector) -> Iterable[Vector]:
        """Every vector with v's count for each tag."""
        options = []
        for slots in self.split_tags:
            total = sum(v[i] for i in slots)
            options.append(
                [
                    head + (total - sum(head),)
                    for head in _bounded_coeffs(len(slots) - 1, total)
                ]
            )
        w = list(v)
        for choice in itertools.product(*options):
            for slots, counts in zip(self.split_tags, choice):
                for i, k in zip(slots, counts):
                    w[i] = k
            yield tuple(w)


# --- liveness and argument determinacy ------------------------------------

TagMultiset = Mapping[str, int]


def live(alg: TypeAlgebra, t: TypeExpr, patterns: Iterable[TagMultiset]) -> bool:
    """Whether every configuration of t that triggers none of the given
    pattern tag multisets carries only irrelevant-argument messages.

    Triggering none stays true as messages go, and periods only add them
    (Ginsburg & Spanier 1966), so a least counterexample is some
    component's base, or its base plus one period."""
    alphabet = joint_alphabet(alg, t)
    relevant_slots = [
        i
        for i, slot in enumerate(alphabet)
        if any(alg.relevant(a) for a in slot.args)
    ]
    if not relevant_slots:
        return True
    tag_slots = _tag_slots(alphabet)
    # Per pattern, (a tag's slots, count) pairs; a tag not in t has none.
    pats = [[(tag_slots.get(tag, ()), k) for tag, k in p.items()] for p in patterns]
    for comp in parikh(alg, t, alphabet):
        for v in (comp.base, *(_add(comp.base, p) for p in comp.periods)):
            if any(v[i] for i in relevant_slots) and not any(
                all(sum(v[i] for i in slots) >= k for slots, k in pat)
                for pat in pats
            ):
                return False
    return True


@dataclass(frozen=True)
class ArgVerdict:
    kind: str  # "determinate" | "ambiguous" | "dead"
    assignment: dict[str, Msg] | None = None


AMBIGUOUS = ArgVerdict("ambiguous")
DEAD = ArgVerdict("dead")


def arg_determinate(alg: TypeAlgebra, t: TypeExpr, tags: TagMultiset) -> ArgVerdict:
    """Resolve a tag multiset against t: which message types must those tags
    denote in any configuration extending the multiset?  Memoized on alg;
    the verdict is shared, so its assignment must not be changed."""
    key = (t, tuple(sorted(tags.items())))
    verdict = alg.slots_memo.get(key)
    if verdict is None:
        verdict = alg.slots_memo[key] = _arg_determinate(alg, t, tags)
    return verdict


def _arg_determinate(alg: TypeAlgebra, t: TypeExpr, tags: TagMultiset) -> ArgVerdict:
    """A tag taken k times has room sum(min(bound, k)) over its slots in a
    component: below k no spread of its copies fits there, at k one (each
    slot filled to min(bound, k)), above k two, as any spread leaves a slot
    below min(bound, k) that a copy from another slot can move to.  Slots of
    different tags are independent.  Determinate iff every component with
    room for all tags has exactly k for each, and all agree on one spread
    that puts each tag on one slot."""
    alphabet = joint_alphabet(alg, t)
    tag_slots = _tag_slots(alphabet)
    if any(tag not in tag_slots for tag in tags):
        return DEAD
    demand: dict[int, float] | None = None  # slot index -> copies, if any
    for bound in _slot_bounds(alg, t, alphabet):
        fill, spare = {}, 0
        for tag, k in tags.items():
            room = 0
            for i in tag_slots[tag]:
                n = min(bound[i], k)
                if n:
                    fill[i] = n
                    room += n
            if room < k:
                break  # no room for this tag: the others' room says nothing
            spare += room - k
        else:
            if spare or (demand is not None and demand != fill):
                return AMBIGUOUS
            demand = fill
    if demand is None:
        return DEAD
    used = [alphabet[i] for i in demand]
    assignment = {slot.tag: slot for slot in used}
    if len(assignment) < len(used):
        return AMBIGUOUS
    return ArgVerdict("determinate", assignment=assignment)
