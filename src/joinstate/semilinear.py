"""Semantic predicates over configuration sets, via Parikh images.

A type's configurations, projected to counts per message slot, form a
semilinear set: a finite union of linear sets (base vector plus any natural
combination of period vectors).  On that representation subtyping, liveness
and argument determinacy become vector problems.

Subtyping is exact whenever it answers No or proves inclusion through the
syntactic fast path; otherwise it checks every vector of the supertype with
at most `bound` periods added.  That is exhaustive for a component without
periods; when some checked component has periods, or an argument check
answered YesBounded, the answer is YesBounded, which callers may treat as
success with a recorded caveat.

Each of those checks is a table lookup.  One `_subtype` call builds a bitset
of the subtype's Parikh image over the box of counts the checked vectors can
reach: one cone of period sums per distinct period set, shifted by each base
that has it (`_Box`).  A vector matches when it, or another split of its tag
counts over the slots of a tag, is in the bitset and its messages can be
transported onto that split along argument subtyping (`_Matcher`).  The
table takes one bit per point of the box; criterion 8's largest has 10,368.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .types import Config, Msg, TypeAlgebra, TypeDeclError, TypeExpr, sort_key

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
    A tag that comes with two arities is a TypeDeclError."""
    alphabet = alg.alphabet_memo.get(types)
    if alphabet is not None:
        return alphabet
    slots: set[Msg] = set()
    for t in types:
        slots |= alg.heads(t)
    alphabet = tuple(sorted(slots, key=sort_key))
    arities: dict[str, int] = {}
    for m in alphabet:
        if arities.setdefault(m.tag, len(m.args)) != len(m.args):
            raise TypeDeclError(f"tag {m.tag} used with inconsistent arities")
    alg.alphabet_memo[types] = alphabet
    return alphabet


def _linear_member(v: Vector, base: Vector, periods: Sequence[Vector]) -> bool:
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
    return any(_linear_member(v, c.base, sorted(c.periods)) for c in components)


def _subsumed(a: LinearSet, b: LinearSet) -> bool:
    return a.periods <= b.periods and _linear_member(a.base, b.base, sorted(b.periods))


def _prune(components: Iterable[LinearSet]) -> list[LinearSet]:
    out: list[LinearSet] = []
    for c in components:
        if any(_subsumed(c, d) for d in out):
            continue
        out = [d for d in out if not _subsumed(d, c)]
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
        body = _prune(parikh(alg, t.body, alphabet))  # type: ignore[attr-defined]
        out = [LinearSet(_zero(n), frozenset())]
        for subset in itertools.chain.from_iterable(
            itertools.combinations(body, r) for r in range(1, len(body) + 1)
        ):
            if all(not comp.periods for comp in subset):
                # Pure bases: any number of copies of each, including zero,
                # so the whole subset collapses to periods over origin.
                periods = {comp.base for comp in subset if any(comp.base)}
                out.append(LinearSet(_zero(n), frozenset(periods)))
                continue
            base = _zero(n)
            periods = set()
            for comp in subset:
                base = _add(base, comp.base)
                periods |= comp.periods
                if any(comp.base):
                    periods.add(comp.base)
            out.append(LinearSet(base, frozenset(periods)))
        return _prune(out)
    if kind == "Ref":
        return parikh(alg, alg.unfold(t), alphabet)
    raise TypeError(f"not a type expression: {t!r}")


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


def _config_of_vector(v: Vector, alphabet: Alphabet) -> Config:
    out: list[Msg] = []
    for count, slot in zip(v, alphabet):
        out.extend([slot] * count)
    return tuple(out)


def _tag_counts(v: Vector, tag_of: Sequence[int], n_tags: int) -> list[int]:
    """Message counts per tag, where tag_of gives each coordinate's tag."""
    counts = [0] * n_tags
    for i, count in zip(tag_of, v):
        counts[i] += count
    return counts


def _transport_exists(
    supply: list[int], demand: list[int], allowed: list[list[bool]]
) -> bool:
    """Whether all supply units can be distributed into demand along allowed
    edges.  Instances are tiny (a handful of units), so backtracking suffices."""
    if sum(supply) != sum(demand):
        return False

    def place(i: int, demand: list[int]) -> bool:
        if i == len(supply):
            return True
        cols = [j for j in range(len(demand)) if allowed[i][j]]

        def split(k: int, need: int) -> bool:
            if need == 0:
                return place(i + 1, demand)
            if k == len(cols):
                return False
            j = cols[k]
            for take in range(min(need, demand[j]), -1, -1):
                demand[j] -= take
                if split(k + 1, need - take):
                    return True
                demand[j] += take
            return False

        return split(0, supply[i])

    return place(0, list(demand))


class SubtypeEngine:
    """Decides `t <= s` with coinductive memoization and a bounded fallback.

    One engine instance owns its verdict cache; share an instance to amortize
    it.  Parikh images are memoized on the algebra.
    """

    def __init__(self, alg: TypeAlgebra, bound: int = 4):
        self.alg = alg
        self.bound = bound
        self._cache: dict[tuple[TypeExpr, TypeExpr], Verdict] = {}
        self._in_progress: set[tuple[TypeExpr, TypeExpr]] = set()
        # Set when an argument check of the current `_subtype` call answered
        # yes-bounded, so that the call cannot answer an exact yes.
        self._args_bounded = False

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
        # A component without periods is one vector, which the matcher
        # checks exhaustively; only periods leave vectors past the bound.
        bounded = False
        for comp in s_comps:
            if self._fast_include(comp, t_comps, alphabet):
                continue
            if matcher is None:
                matcher = _Matcher(self, t_comps, s_comps, alphabet)
            missing = self._bounded_include(comp, matcher, alphabet)
            if missing is not None:
                return Verdict("no", counterexample=missing)
            bounded = bounded or any(any(p) for p in comp.periods)
        return Verdict("yes-bounded", bound=self.bound) if bounded else YES

    def _fast_include(
        self, comp: LinearSet, t_comps: list[LinearSet], alphabet: Alphabet
    ) -> bool:
        """Try to embed a whole supertype component into one subtype component
        through a single slot-to-slot map."""
        n = len(alphabet)
        used = [
            i
            for i in range(n)
            if comp.base[i] or any(p[i] for p in comp.periods)
        ]
        candidates: list[list[int]] = []
        for i in used:
            cands = [j for j in range(n) if self._args_ok(alphabet[i], alphabet[j])]
            if not cands:
                return False
            candidates.append(cands)
        if not used:
            # Only the zero vector; nullability was already checked.
            return True

        def remap(v: Vector, sigma: tuple[int, ...]) -> Vector:
            out = [0] * n
            for i, j in zip(used, sigma):
                out[j] += v[i]
            return tuple(out)

        total = 1
        for c in candidates:
            total *= len(c)
            if total > 256:
                return False
        for sigma in itertools.product(*candidates):
            for target in t_comps:
                if not all(
                    remap(p, sigma) in target.periods for p in comp.periods if any(p)
                ):
                    continue
                if _linear_member(
                    remap(comp.base, sigma), target.base, sorted(target.periods)
                ):
                    return True
        return False

    def _bounded_include(
        self, comp: LinearSet, matcher: "_Matcher", alphabet: Alphabet
    ) -> Config | None:
        """Check vectors of comp with period-coefficient sum <= bound; return a
        counterexample configuration if one has no match."""
        periods = sorted(p for p in comp.periods if any(p))
        for coeffs in _bounded_coeffs(len(periods), self.bound):
            v = comp.base
            for p, k in zip(periods, coeffs):
                v = _scale_add(v, p, k)
            if not matcher.matches(v):
                return _config_of_vector(v, alphabet)
        return None

    def _transport_ok(self, v: Vector, w: Vector, alphabet: Alphabet) -> bool:
        tags = {alphabet[i].tag for i in range(len(v)) if v[i]}
        for tag in tags:
            sup = [i for i in range(len(v)) if v[i] and alphabet[i].tag == tag]
            sub = [j for j in range(len(w)) if w[j] and alphabet[j].tag == tag]
            supply = [v[i] for i in sup]
            demand = [w[j] for j in sub]
            allowed = [
                [self._args_ok(alphabet[i], alphabet[j]) for j in sub] for i in sup
            ]
            if not _transport_exists(supply, demand, allowed):
                return False
        return True


def _bounded_coeffs(n: int, total: int) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _bounded_coeffs(n - 1, total - head):
            yield (head,) + rest


class _Box:
    """Membership in a union of linear sets, for vectors inside the box
    0 <= x <= hi, as one bitset indexed in mixed radix.

    Components are grouped by period set.  A group's cone holds every sum of
    its periods that fits in the box; a component (b, P) adds the cone of P
    shifted by b.  Sums only grow, so the cone cut to the box is exact."""

    def __init__(self, comps: Iterable[LinearSet], hi: Sequence[int]):
        self.hi = hi
        self.strides = [0] * len(hi)
        size = 1
        for j in reversed(range(len(hi))):
            self.strides[j] = size
            size *= hi[j] + 1
        groups: dict[frozenset[Vector], list[Vector]] = {}
        for c in comps:
            groups.setdefault(c.periods, []).append(c.base)
        bits = 0
        for periods, bases in groups.items():
            cone = self._cone(periods)
            for b in bases:
                bits |= (cone & self._room(b)) << self.index(b)
        self._bits = bits.to_bytes((size + 7) // 8, "little")

    def index(self, v: Vector) -> int:
        return sum(x * s for x, s in zip(v, self.strides))

    def __contains__(self, idx: int) -> bool:
        return bool(self._bits[idx >> 3] >> (idx & 7) & 1)

    def _room(self, v: Vector) -> int:
        """The points x of the box with x + v still inside it."""
        mask = 1
        for h, x, s in zip(reversed(self.hi), reversed(v), reversed(self.strides)):
            if x > h:
                return 0
            mask = sum(mask << (k * s) for k in range(h - x + 1))
        return mask

    def _cone(self, periods: Iterable[Vector]) -> int:
        cone = 1
        for p in periods:
            if not any(p):
                continue
            # Adding p, 2p, 4p, ... in turn reaches every multiple of p
            # that fits.
            step = p
            while all(x <= h for x, h in zip(step, self.hi)):
                cone |= (cone & self._room(step)) << self.index(step)
                step = _add(step, step)
        return cone


class _Matcher:
    """Whether a supertype-side vector is matched by some vector of the
    subtype's components, for one `_subtype` call.

    A match w has v's count for every tag and lies in the subtype's Parikh
    image; a transport of v's messages onto w's slots along `_args_ok` must
    exist.  Membership is looked up in a `_Box` built once over every count
    a candidate of the supertype can reach, and answers are memoized per
    vector."""

    def __init__(
        self,
        engine: SubtypeEngine,
        t_comps: list[LinearSet],
        s_comps: list[LinearSet],
        alphabet: Alphabet,
    ):
        self.engine = engine
        self.alphabet = alphabet
        tags = sorted({slot.tag for slot in alphabet})
        tag_of = [tags.index(slot.tag) for slot in alphabet]
        # The box bounds each slot by the most messages of its tag that a
        # candidate (base plus at most `bound` periods) can carry.
        top = [0] * len(tags)
        for c in s_comps:
            grow = [0] * len(tags)
            for p in c.periods:
                grow = list(map(max, grow, _tag_counts(p, tag_of, len(tags))))
            base = _tag_counts(c.base, tag_of, len(tags))
            top = [max(a, b + engine.bound * g) for a, b, g in zip(top, base, grow)]
        self.box = _Box(t_comps, [top[g] for g in tag_of])
        slots: list[list[int]] = [[] for _ in tags]
        for i, g in enumerate(tag_of):
            slots[g].append(i)
        # A tag with one slot can split its count only as v does.
        self.split_tags = [s for s in slots if len(s) > 1]
        self.memo: dict[int, bool] = {}

    def matches(self, v: Vector) -> bool:
        key = self.box.index(v)
        hit = self.memo.get(key)
        if hit is None:
            # v itself needs no transport: every message keeps its slot.
            hit = key in self.box or any(
                w != v
                and self.box.index(w) in self.box
                and self.engine._transport_ok(v, w, self.alphabet)
                for w in self._splits(v)
            )
            self.memo[key] = hit
        return hit

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
    pattern tag multisets carries only irrelevant-argument messages."""
    alphabet = joint_alphabet(alg, t)
    relevant_slots = [
        i
        for i, slot in enumerate(alphabet)
        if any(alg.relevant(a) for a in slot.args)
    ]
    if not relevant_slots:
        return True
    pats = [dict(p) for p in patterns]
    tag_slots: dict[str, list[int]] = {}
    for i, slot in enumerate(alphabet):
        tag_slots.setdefault(slot.tag, []).append(i)

    # For each pattern B we pick one tag on which the configuration falls
    # short (count <= B(tag) - 1); a pattern tag absent from the alphabet
    # always falls short, imposing no constraint.
    choice_sets: list[list[tuple[str, int] | None]] = []
    for pat in pats:
        options: list[tuple[str, int] | None] = []
        for tag, k in pat.items():
            if tag not in tag_slots:
                options = [None]
                break
            options.append((tag, k - 1))
        choice_sets.append(options)

    for comp in parikh(alg, t, alphabet):
        for choice in itertools.product(*choice_sets):
            bounds: dict[str, int] = {}
            for c in choice:
                if c is None:
                    continue
                tag, cap = c
                bounds[tag] = min(bounds.get(tag, cap), cap)

            def within(v: Vector) -> bool:
                return all(
                    sum(v[i] for i in tag_slots[tag]) <= cap
                    for tag, cap in bounds.items()
                )

            if not within(comp.base):
                continue
            # Is there a configuration under these bounds that carries a
            # relevant-argument message?  Upper bounds shrink monotonically as
            # periods are added, and the single lower bound (one message at a
            # relevant slot) needs at most one period, so checking the base
            # plus at most one period is complete.
            for c in relevant_slots:
                if comp.base[c] >= 1 or any(
                    p[c] >= 1 and within(_add(comp.base, p)) for p in comp.periods
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
    alphabet = joint_alphabet(alg, t)
    n = len(alphabet)
    tag_slots: dict[str, list[int]] = {}
    for i, slot in enumerate(alphabet):
        tag_slots.setdefault(slot.tag, []).append(i)
    if any(tag not in tag_slots for tag in tags):
        return DEAD

    # All ways of attributing each tag occurrence to a slot class.
    per_tag: list[list[tuple[int, ...]]] = []
    tag_order = sorted(tags)
    for tag in tag_order:
        k = tags[tag]
        per_tag.append(
            list(itertools.combinations_with_replacement(tag_slots[tag], k))
        )
    components = parikh(alg, t, alphabet)

    feasible: set[tuple[int, ...]] = set()
    for combo in itertools.product(*per_tag):
        demand = [0] * n
        for group in combo:
            for i in group:
                demand[i] += 1
        for comp in components:
            if all(
                demand[i] <= comp.base[i]
                or any(p[i] > 0 for p in comp.periods)
                for i in range(n)
            ):
                feasible.add(tuple(demand))
                break
    if not feasible:
        return DEAD
    if len(feasible) > 1:
        return AMBIGUOUS
    (demand,) = feasible
    assignment: dict[str, Msg] = {}
    for i, count in enumerate(demand):
        if not count:
            continue
        slot = alphabet[i]
        if slot.tag in assignment and assignment[slot.tag] != slot:
            return AMBIGUOUS
        assignment[slot.tag] = slot
    return ArgVerdict("determinate", assignment=assignment)
