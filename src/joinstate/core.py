"""Core process representation: what programs look like after desugaring.

A core program is built from four process forms — inert `done`, message
sends, parallel composition, and object definitions with join-pattern
reaction rules — plus a conditional and arithmetic over literals.  All
binders carry globally unique identities so later passes never worry about
shadowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .types import TypeExpr

Pos = tuple[int, int]  # (line, column), 1-based


@dataclass(frozen=True)
class Name:
    """A resolved identifier: spelling plus unique binder id."""

    text: str
    uid: int

    # The uid alone identifies a binder; equality still compares both.
    def __hash__(self):
        return self.uid

    def __repr__(self):
        return f"{self.text}#{self.uid}"


# Builtin objects have fixed negative ids.
SYSTEM = Name("System", -1)
NUMBER_OBJ = Name("Number", -2)
BUILTIN_OBJECTS = (SYSTEM, NUMBER_OBJ)


# --- expressions ----------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: Name


@dataclass(frozen=True)
class NumLit(Expr):
    value: float


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / % == != < <= > >=
    left: Expr
    right: Expr


# --- processes ------------------------------------------------------------


@dataclass
class Process:
    pass


@dataclass
class Done(Process):
    pass


@dataclass(frozen=True)
class SendMsg:
    tag: str
    args: tuple[Expr, ...] = ()


@dataclass
class Send(Process):
    target: Name
    molecule: tuple[SendMsg, ...]
    pos: Optional[Pos] = None


@dataclass
class Par(Process):
    parts: tuple[Process, ...]


@dataclass
class If(Process):
    cond: Expr
    then: Process
    els: Process
    pos: Optional[Pos] = None


@dataclass(frozen=True)
class PatMsg:
    tag: str
    params: tuple[Name, ...] = ()


@dataclass
class Rule:
    pattern: tuple[PatMsg, ...]
    body: Process


# Tag of the message that threads a continuation's captured names into it.
CLOSURE_TAG = "CLOSURE"


@dataclass(frozen=True)
class ClosureSpec:
    """How a desugared continuation object relates to its environment.

    `captured` are the outer names threaded through an initial CLOSURE
    message, positionally aligned with the CLOSURE pattern variables of the
    object's single rule.  The object's base protocol is argument `index`
    of the `tag` slot of `target`; index -1 is the trailing argument, the
    reply of a synchronous call.  `checker.Checker.closure_base` is the one
    reader of that slot, for the checker and for the runtime alike: a soup
    declares the object by binder when it compiles the `new` node
    (`checker.resolve_closure_types`, one node at a time).  Neither writes
    the type into the program, whose `NewObj.decl` stays None."""

    captured: tuple[Name, ...]
    target: Name
    tag: str
    index: int


@dataclass
class NewObj(Process):
    name: Name
    decl: Optional[TypeExpr]  # None when the type comes from a ClosureSpec
    rules: list[Rule]
    body: Process
    stateless: bool = False
    closure: Optional[ClosureSpec] = None
    pos: Optional[Pos] = None


@dataclass
class CoreProgram:
    table: dict[str, TypeExpr]
    process: Process
    source_name: str = "<input>"
