"""Behavioral type expressions over a table of named, possibly recursive definitions.

A type describes the multisets of messages ("configurations") that may be
concurrently targeted at an object:

    0           absurd, no valid configuration
    1           only the empty configuration
    m(t1..tn)   exactly one m-tagged message, arguments used at t1..tn
    t + s       either t or s
    t . s       both t and s, by possibly concurrent senders
    *t          any number of interleaved copies of t

Terms are canonical when built.  Each constructor flattens, sorts and applies
the unit and absorption laws, then interns the result (hash-consing,
Filliatre & Conchon 2006), so equal types are one object: `==` and `hash`
go by identity, and every memo keyed on a type is sound.  `normalize` is the
identity, kept for outside callers.

Recursion goes through a table of named definitions; reference cycles are
only allowed through message-argument positions (contractiveness), so every
type has a finite head unfolding.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator


class TypeDeclError(Exception):
    """Raised for ill-formed type declarations (unknown name, head cycle, ...)."""


class TypeExpr:
    """A canonical type term, built only through its subclasses' constructors.

    A constructor returns the one live instance of its normal form, which
    may belong to another subclass (`Prod((t, ONE))` is `t`).  Each term
    computes its sort key once, at construction."""

    __slots__ = ("_key", "__weakref__")

    def __deepcopy__(self, memo):
        # Equal terms must stay one object, so a term is its own copy.
        return self


# Every live term, by class and fields.  Entries go when nothing else
# references the term, so the table never outgrows the types in use.
_TERMS: weakref.WeakValueDictionary[tuple, TypeExpr] = weakref.WeakValueDictionary()


def _intern(cls: type, fields: tuple, key: tuple) -> TypeExpr:
    """The one instance of cls with these fields, which must be canonical."""
    ident = (cls, *fields)
    t = _TERMS.get(ident)
    if t is None:
        t = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(t, name, value)
        object.__setattr__(t, "_key", key)
        _TERMS[ident] = t
    return t


# Terms order by class (0, 1, #Base, Msg, #Ref, *t, products, sums), then
# by their fields.
sort_key = operator.attrgetter("_key")

# The constructors are __new__ alone (init=False): Python would otherwise
# run a generated __init__ over an interned instance it returns.
_term = dataclass(frozen=True, eq=False, init=False)


@_term
class Zero(TypeExpr):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, (), (0,))


@_term
class One(TypeExpr):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, (), (1,))


@_term
class Base(TypeExpr):
    """A builtin value type (numbers, booleans): usable, nullable, no messages."""

    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str):
        return _intern(cls, (name,), (2, name))


@_term
class Msg(TypeExpr):
    __slots__ = ("tag", "args")
    tag: str
    args: tuple[TypeExpr, ...]

    def __new__(cls, tag: str, args: Iterable[TypeExpr] = ()):
        args = tuple(args)
        return _intern(cls, (tag, args), (3, tag, tuple(a._key for a in args)))


@_term
class Ref(TypeExpr):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str):
        return _intern(cls, (name,), (4, name))


@_term
class Star(TypeExpr):
    __slots__ = ("body",)
    body: TypeExpr

    def __new__(cls, body: TypeExpr):
        if isinstance(body, (Zero, One, Base)):
            return ONE
        if isinstance(body, Star):
            return body
        return _intern(cls, (body,), (5, body._key))


@_term
class Prod(TypeExpr):
    __slots__ = ("parts",)
    parts: tuple[TypeExpr, ...]

    def __new__(cls, parts: Iterable[TypeExpr]):
        flat: list[TypeExpr] = []
        for p in parts:
            if isinstance(p, Zero):
                return ZERO
            if isinstance(p, Prod):
                flat.extend(p.parts)
            elif not isinstance(p, One):
                flat.append(p)
        if len(flat) > 1:
            flat = [p for p in flat if not isinstance(p, Base)]
        if not flat:
            return ONE
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=sort_key)
        return _intern(cls, (tuple(flat),), (6, tuple(p._key for p in flat)))


@_term
class Sum(TypeExpr):
    __slots__ = ("parts",)
    parts: tuple[TypeExpr, ...]

    def __new__(cls, parts: Iterable[TypeExpr]):
        flat: set[TypeExpr] = set()
        for p in parts:
            if isinstance(p, Sum):
                flat.update(p.parts)
            elif not isinstance(p, Zero):
                flat.add(p)
        if not flat:
            return ZERO
        if len(flat) == 1:
            return flat.pop()
        uniq = sorted(flat, key=sort_key)
        return _intern(cls, (tuple(uniq),), (7, tuple(p._key for p in uniq)))


ZERO = Zero()
ONE = One()
NUMBER = Base("#Number")
BOOL = Base("#Bool")

BUILTIN_TYPES: dict[str, TypeExpr] = {"#Number": NUMBER, "#Bool": BOOL}


def normalize(t: TypeExpr) -> TypeExpr:
    """The canonical form of t, which is t itself: the constructors already
    flatten, sort and apply the unit and absorbing laws."""
    return t


def render(t: TypeExpr, *, parens: bool = False) -> str:
    """Print a type in the surface syntax."""
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, (Base, Ref)):
        return t.name
    if isinstance(t, Msg):
        if not t.args:
            return t.tag
        return f"{t.tag}({', '.join(render(a) for a in t.args)})"
    if isinstance(t, Star):
        return f"*{render(t.body, parens=True)}"
    if isinstance(t, Prod):
        s = " . ".join(render(p, parens=True) for p in t.parts)
        return f"({s})" if parens else s
    if isinstance(t, Sum):
        s = " + ".join(render(p, parens=isinstance(p, Sum)) for p in t.parts)
        return f"({s})" if parens else s
    raise TypeError(f"not a type expression: {t!r}")


def _refs(t: TypeExpr, head_only: bool) -> Iterator[str]:
    if isinstance(t, Ref):
        yield t.name
    elif isinstance(t, Msg):
        if not head_only:
            for a in t.args:
                yield from _refs(a, head_only)
    elif isinstance(t, Star):
        yield from _refs(t.body, head_only)
    elif isinstance(t, (Sum, Prod)):
        for p in t.parts:
            yield from _refs(p, head_only)


def resolve_types(decls: Iterable[tuple[str, TypeExpr]]) -> dict[str, TypeExpr]:
    """Build a type table from declarations, rejecting unknown names,
    duplicates and head-position reference cycles.  A tag may come with
    several arities: each message type is its own slot."""
    table: dict[str, TypeExpr] = dict(BUILTIN_TYPES)
    for name, expr in decls:
        if name in table:
            raise TypeDeclError(f"duplicate type declaration {name}")
        table[name] = expr

    for name, expr in table.items():
        for ref in _refs(expr, head_only=False):
            if ref not in table:
                raise TypeDeclError(f"unknown type name {ref} in {name}")

    # Head-position references must form an acyclic graph so that every
    # type has a finite head unfolding.
    color: dict[str, int] = {}

    def visit(name: str, trail: tuple[str, ...]) -> None:
        state = color.get(name)
        if state == 2:
            return
        if state == 1:
            cycle = " -> ".join(trail + (name,))
            raise TypeDeclError(f"head-position reference cycle: {cycle}")
        color[name] = 1
        for ref in _refs(table[name], head_only=True):
            visit(ref, trail + (name,))
        color[name] = 2

    for name in table:
        visit(name, ())
    return table


# A configuration is a multiset of message types, kept as a sorted tuple of
# Msg terms.
Config = tuple[Msg, ...]

EMPTY_CONFIG: Config = ()


def config_of(msgs: Iterable[Msg]) -> Config:
    return tuple(sorted(msgs, key=sort_key))


class TypeAlgebra:
    """Structural operations over a fixed type table.

    All results are memoized; instances are cheap to share between callers
    that only read them.
    """

    def __init__(self, table: dict[str, TypeExpr] | None = None):
        self.table: dict[str, TypeExpr] = dict(BUILTIN_TYPES)
        if table:
            self.table.update(table)
        # One memo per walk below, filled for every term the walk visits:
        # (nullable, usable, heads) by term, derivatives by (term, tag or
        # message), and configuration sets by (term, size bound).
        self._facts: dict[TypeExpr, tuple[bool, bool, frozenset[Msg]]] = {}
        self._deriv: dict[tuple[TypeExpr, str | Msg], TypeExpr] = {}
        self._enum: dict[tuple[TypeExpr, int], frozenset[Config]] = {}
        # Kept for `semilinear`: Parikh images and per-slot bounds by (term,
        # alphabet), alphabets by type tuple, and from the bounds slot
        # resolutions by (type, sorted tag counts).
        self.parikh_memo: dict[tuple, list] = {}
        self.bounds_memo: dict[tuple, list] = {}
        self.slots_memo: dict[tuple, object] = {}
        self.alphabet_memo: dict[tuple, tuple[Msg, ...]] = {}

    def unfold(self, t: TypeExpr) -> TypeExpr:
        while isinstance(t, Ref):
            try:
                t = self.table[t.name]
            except KeyError:
                raise TypeDeclError(f"unknown type name {t.name}") from None
        return t

    def facts(self, t: TypeExpr) -> tuple[bool, bool, frozenset[Msg]]:
        """(nullable, usable, heads) of t, by one walk of its head unfolding."""
        facts = self._facts.get(t)
        if facts is not None:
            return facts
        if isinstance(t, Zero):
            facts = (False, False, frozenset())
        elif isinstance(t, (One, Base)):
            facts = (True, True, frozenset())
        elif isinstance(t, Msg):
            facts = (False, True, frozenset({t}))
        elif isinstance(t, Star):
            facts = (True, True, self.facts(t.body)[2])
        elif isinstance(t, (Sum, Prod)):
            nullable, usable, heads = zip(*map(self.facts, t.parts))
            some = any if isinstance(t, Sum) else all
            facts = (some(nullable), some(usable), frozenset().union(*heads))
        elif isinstance(t, Ref):
            facts = self.facts(self.unfold(t))
        else:
            raise TypeError(f"not a type expression: {t!r}")
        self._facts[t] = facts
        return facts

    def nullable(self, t: TypeExpr) -> bool:
        """Whether the empty configuration is valid, i.e. t <= 1."""
        return self.facts(t)[0]

    def relevant(self, t: TypeExpr) -> bool:
        return not self.nullable(t)

    def usable(self, t: TypeExpr) -> bool:
        """Whether at least one valid configuration exists."""
        return self.facts(t)[1]

    def heads(self, t: TypeExpr) -> frozenset[Msg]:
        """All message types in the head unfolding (argument positions excluded)."""
        return self.facts(t)[2]

    def derivative(self, t: TypeExpr, a: str | Msg) -> TypeExpr:
        """Residual protocol after one message (Brzozowski 1964).  Given a
        tag, any message with that tag matches; given a message type, only
        messages equal to it do."""
        key = (t, a)
        d = self._deriv.get(key)
        if d is not None:
            return d
        if isinstance(t, (Zero, One, Base)):
            d = ZERO
        elif isinstance(t, Msg):
            hit = t.tag == a if isinstance(a, str) else t == a
            d = ONE if hit else ZERO
        elif isinstance(t, Sum):
            d = Sum(tuple(self.derivative(p, a) for p in t.parts))
        elif isinstance(t, Prod):
            terms = []
            for i, p in enumerate(t.parts):
                rest = t.parts[:i] + (self.derivative(p, a),) + t.parts[i + 1 :]
                terms.append(Prod(rest))
            d = Sum(tuple(terms))
        elif isinstance(t, Star):
            d = Prod((self.derivative(t.body, a), t))
        elif isinstance(t, Ref):
            d = self.derivative(self.unfold(t), a)
        else:
            raise TypeError(f"not a type expression: {t!r}")
        self._deriv[key] = d
        return d

    def derivative_config(self, t: TypeExpr, tags: Iterable[str]) -> TypeExpr:
        for tag in tags:
            t = self.derivative(t, tag)
        return t

    def enumerate_configs(self, t: TypeExpr, max_size: int) -> frozenset[Config]:
        """All valid configurations with at most max_size messages, computed by
        breadth-first search over derivatives by whole messages."""
        key = (t, max_size)
        cached = self._enum.get(key)
        if cached is not None:
            return cached
        out: set[Config] = set()
        if self.nullable(t):
            out.add(EMPTY_CONFIG)
        if max_size > 0:
            for msg in sorted(self.heads(t), key=sort_key):
                rest = self.derivative(t, msg)
                if isinstance(rest, Zero):
                    continue
                for cfg in self.enumerate_configs(rest, max_size - 1):
                    out.add(config_of((msg,) + cfg))
        r = frozenset(out)
        self._enum[key] = r
        return r
