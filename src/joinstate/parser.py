"""Lexer and recursive-descent parser for the surface language.

A source file is an optional block of `type` declarations followed by a
process.  Classes, synchronous calls (`o.M(...)`), `let`, `if` and anonymous
reaction blocks are surface conveniences that the desugarer lowers away.

`&` means three different things depending on position: between processes it
is parallel composition, inside a send after `!(` it joins messages into one
molecule, and inside a join pattern it joins the pattern's messages.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from . import types as ty
from .types import TypeExpr

Pos = tuple[int, int]


class ParseError(Exception):
    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        self.pos = pos
        self.plain_message = message


# --- surface AST ----------------------------------------------------------


@dataclass
class SExpr:
    pass


@dataclass
class SVar(SExpr):
    name: str
    pos: Pos


@dataclass
class SNum(SExpr):
    value: float


@dataclass
class SBool(SExpr):
    value: bool


@dataclass
class SBinOp(SExpr):
    op: str
    left: SExpr
    right: SExpr
    pos: Pos


@dataclass
class SCall(SExpr):
    """Synchronous call o.M(args): send plus implicit reply continuation."""

    target: str
    tag: str
    args: list[SExpr]
    pos: Pos


@dataclass
class SBlock(SExpr):
    """Anonymous reaction block in argument position."""

    rules: list["SRule"]
    pos: Pos


@dataclass
class SPatMsg:
    tag: str
    params: list[tuple[str, Optional[TypeExpr]]]
    pos: Pos


@dataclass
class SRule:
    pattern: list[SPatMsg]
    body: "SProc"


@dataclass
class SProc:
    pass


@dataclass
class SDone(SProc):
    pass


@dataclass
class SMsg:
    tag: str
    args: list[SExpr]
    pos: Pos


@dataclass
class SSend(SProc):
    target: str
    msgs: list[SMsg]
    pos: Pos


@dataclass
class SPar(SProc):
    parts: list[SProc]


@dataclass
class SNew(SProc):
    name: str
    type: TypeExpr
    rules: list[SRule]
    body: SProc
    pos: Pos


@dataclass
class SClass(SProc):
    name: str
    rules: list[SRule]
    body: SProc
    pos: Pos


@dataclass
class SLet(SProc):
    names: list[str]
    rhs: SExpr
    body: SProc
    pos: Pos


@dataclass
class SIf(SProc):
    cond: SExpr
    then: SProc
    els: SProc
    pos: Pos


@dataclass
class SurfaceAST:
    type_decls: list[tuple[str, TypeExpr]]
    process: SProc
    # Every declared-type name read in a type, where it was read.
    type_refs: list[tuple[str, Pos]]


# --- lexer ----------------------------------------------------------------

KEYWORDS = {
    "type",
    "and",
    "new",
    "class",
    "let",
    "in",
    "if",
    "then",
    "else",
    "done",
    "true",
    "false",
}

# Blanks, then one alternative per token class, tried in order; `other`
# takes any other character but a blank, so trailing blanks match nothing.
# `\w` is exactly `str.isalnum()` or `_`, and `\d` the decimal digits, the
# only digits `float()` reads.  A dot joins a number unless a letter follows.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<number>\d+(?:\.(?![^\W\d_])\d*)?)"
    r"|(?P<word>\w+)"
    r"|(?P<symbol>\|>|!=|<=|>=|[!.,:()\[\]|&+\-*/%=<>▶·])"
    r"|(?P<tyname>#\w*)"
    r"|(?P<other>[^ \t\r\n]))"
)
_ALIASES = {"▶": "|>", "·": "."}


@dataclass
class Token:
    kind: str  # keyword text, "ident", "uident", "tyname", "number", symbol, "eof"
    text: str
    pos: Pos


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    end = len(source)
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        i = m.start(kind)
        text = m.group(kind)
        pos = (line, i - line_start + 1)
        if kind == "word":
            head = text[0]
            if not (head.isalpha() or head == "_"):
                raise ParseError(f"unexpected character {head!r}", pos)
            if text in KEYWORDS:
                kind = text
            else:
                kind = "uident" if head.isupper() else "ident"
        elif kind == "symbol":
            kind = _ALIASES.get(text, text)
        elif kind == "comment":
            if m.end() == end:
                # A comment takes no columns: eof sits where it starts.
                end = i
            continue
        elif kind == "other":
            raise ParseError(f"unexpected character {text!r}", pos)
        elif text == "#":
            raise ParseError("bad type name", pos)
        tokens.append(Token(kind, text, pos))
    tokens.append(Token("eof", "", (line, end - line_start + 1)))
    return tokens


# --- parser ---------------------------------------------------------------

# Every pass after the parser recurses on the tree, a few frames per level,
# so input nested deeper than this is rejected here rather than overflowing
# Python's stack later.
MAX_NESTING = 100


def _nested(rule):
    """Count one level of nesting while a recursive grammar rule runs."""

    def counted(self):
        self.enter()
        out = rule(self)
        self.depth -= 1
        return out

    return counted


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.kinds = [t.kind for t in tokens]
        self.i = 0
        self.depth = 0
        self.type_refs: list[tuple[str, Pos]] = []

    def enter(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"nested more than {MAX_NESTING} levels deep", self.tokens[self.i].pos
            )

    def accept(self, kind: str) -> bool:
        """Step over a token of the given kind, if one is next."""
        if self.kinds[self.i] == kind:
            self.i += 1
            return True
        return False

    def advance(self) -> Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.advance()
        if t.kind != kind:
            raise ParseError(f"expected {what or kind}, found {t.text!r}", t.pos)
        return t

    def listed(self, item, sep: str) -> list:
        """One or more items, separated by `sep`."""
        out = [item()]
        while self.accept(sep):
            out.append(item())
        return out

    def arguments(self, item) -> list:
        """An optional parenthesized list, possibly empty: `(a, b)`, `()`."""
        if not self.accept("(") or self.accept(")"):
            return []
        out = self.listed(item, ",")
        self.expect(")")
        return out

    def block(self) -> list[SRule]:
        self.expect("[")
        rules = self.listed(self.rule, "|")
        self.expect("]")
        return rules

    # types

    @_nested
    def type_expr(self) -> TypeExpr:
        parts = self.listed(self.type_prod, "+")
        return parts[0] if len(parts) == 1 else ty.Sum(tuple(parts))

    def type_prod(self) -> TypeExpr:
        parts = self.listed(self.type_star, ".")
        return parts[0] if len(parts) == 1 else ty.Prod(tuple(parts))

    @_nested
    def type_star(self) -> TypeExpr:
        if self.accept("*"):
            return ty.Star(self.type_star())
        return self.type_atom()

    def type_atom(self) -> TypeExpr:
        t = self.advance()
        if t.kind == "number" and t.text in ("0", "1"):
            return ty.ZERO if t.text == "0" else ty.ONE
        if t.kind == "tyname":
            if t.text in ty.BUILTIN_TYPES:
                return ty.BUILTIN_TYPES[t.text]
            self.type_refs.append((t.text, t.pos))
            return ty.Ref(t.text)
        if t.kind == "uident":
            args: list[TypeExpr] = []
            if self.accept("("):
                args = self.listed(self.type_expr, ",")
                self.expect(")")
            return ty.Msg(t.text, tuple(args))
        if t.kind == "(":
            inner = self.type_expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a type, found {t.text!r}", t.pos)

    # processes

    def program(self) -> SurfaceAST:
        decls: list[tuple[str, TypeExpr]] = []
        while self.accept("type"):
            decls += self.listed(self.type_decl, "and")
        proc = self.process()
        self.expect("eof", "end of input")
        return SurfaceAST(decls, proc, self.type_refs)

    def type_decl(self) -> tuple[str, TypeExpr]:
        name = self.expect("tyname", "a type name").text
        self.expect("=")
        return (name, self.type_expr())

    @_nested
    def process(self) -> SProc:
        parts = self.listed(self.proc_term, "&")
        return parts[0] if len(parts) == 1 else SPar(parts)

    def proc_term(self) -> SProc:
        t = self.tokens[self.i]
        if t.kind in ("ident", "uident"):
            return self.send()
        self.i += 1
        if t.kind == "done":
            return SDone()
        if t.kind == "new":
            name = self.name_token().text
            self.expect(":")
            decl = self.type_expr()
            self.accept("=")
            rules = self.block()
            self.expect("in")
            return SNew(name, decl, rules, self.process(), t.pos)
        if t.kind == "class":
            name = self.expect("uident", "a class name").text
            rules = self.block()
            # A class scopes over everything that follows it.
            return SClass(name, rules, self.process(), t.pos)
        if t.kind == "let":
            names = self.listed(lambda: self.expect("ident", "a variable").text, ",")
            self.expect("=")
            rhs = self.expr()
            self.expect("in")
            return SLet(names, rhs, self.process(), t.pos)
        if t.kind == "if":
            cond = self.expr()
            self.expect("then")
            then = self.process()
            self.expect("else")
            return SIf(cond, then, self.process(), t.pos)
        if t.kind == "(":
            inner = self.process()
            self.expect(")")
            return inner
        raise ParseError(f"expected a process, found {t.text!r}", t.pos)

    def name_token(self) -> Token:
        t = self.advance()
        if t.kind in ("ident", "uident"):
            return t
        raise ParseError(f"expected a name, found {t.text!r}", t.pos)

    def send(self) -> SSend:
        target = self.name_token()
        self.expect("!")
        if self.accept("("):
            msgs = self.listed(self.message, "&")
            self.expect(")")
        else:
            msgs = [self.message()]
        return SSend(target.text, msgs, target.pos)

    def message(self) -> SMsg:
        tag = self.expect("uident", "a message tag")
        return SMsg(tag.text, self.arguments(self.expr), tag.pos)

    def rule(self) -> SRule:
        pattern = self.listed(self.pat_msg, "&")
        self.expect("|>", "'|>' or '▶'")
        return SRule(pattern, self.process())

    def pat_msg(self) -> SPatMsg:
        tag = self.expect("uident", "a message tag")
        return SPatMsg(tag.text, self.arguments(self.pat_param), tag.pos)

    def pat_param(self) -> tuple[str, Optional[TypeExpr]]:
        name = self.expect("ident", "a pattern variable").text
        return (name, self.type_expr() if self.accept(":") else None)

    # expressions

    @_nested
    def expr(self) -> SExpr:
        left = self.additive()
        if self.kinds[self.i] in ("=", "!=", "<", "<=", ">", ">="):
            op = self.advance()
            right = self.additive()
            text = "==" if op.kind == "=" else op.kind
            return SBinOp(text, left, right, op.pos)
        return left

    def additive(self) -> SExpr:
        return self.chain(("+", "-"), self.multiplicative)

    def multiplicative(self) -> SExpr:
        return self.chain(("*", "/", "%"), self.unary)

    def chain(self, ops: tuple[str, ...], operand) -> SExpr:
        """`a op b op ...`, nested to the left: each operator is a level."""
        depth = self.depth
        left = operand()
        while self.kinds[self.i] in ops:
            op = self.advance()
            self.enter()
            left = SBinOp(op.kind, left, operand(), op.pos)
        self.depth = depth
        return left

    @_nested
    def unary(self) -> SExpr:
        if self.kinds[self.i] == "-":
            op = self.advance()
            return SBinOp("-", SNum(0.0), self.unary(), op.pos)
        return self.primary()

    def primary(self) -> SExpr:
        t = self.tokens[self.i]
        if t.kind == "[":
            return SBlock(self.block(), t.pos)
        self.i += 1
        if t.kind == "number":
            if math.isinf(value := float(t.text)):
                raise ParseError("number too large", t.pos)
            return SNum(value)
        if t.kind in ("true", "false"):
            return SBool(t.kind == "true")
        if t.kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if t.kind in ("ident", "uident"):
            if self.accept("."):
                tag = self.expect("uident", "a message tag")
                return SCall(t.text, tag.text, self.arguments(self.expr), t.pos)
            return SVar(t.text, t.pos)
        raise ParseError(f"expected an expression, found {t.text!r}", t.pos)


def parse_program(source: str) -> SurfaceAST:
    return _Parser(tokenize(source)).program()


def parse_type(source: str) -> TypeExpr:
    """Parse a standalone type expression (used by the explain command).

    It declares no type names, so the first `#Name` other than a builtin
    is a ParseError at its position."""
    p = _Parser(tokenize(source))
    t = p.type_expr()
    p.expect("eof", "end of type")
    if p.type_refs:
        name, pos = p.type_refs[0]
        raise ParseError(f"unknown type name {name}", pos)
    return t
