"""Lowering from the surface language to core processes.

Four conveniences disappear here:

* ``class K [ M(x: t, ...) |> P ]`` becomes a stateless object declared at
  ``*(M(t, ...) + ...)`` whose scope extends over the rest of the program;
* ``let x, y = o.M(e...) in P`` becomes a fresh continuation object that
  receives the reply.  When the continuation body mentions names from the
  enclosing scope, they are threaded through an initial CLOSURE message so
  the continuation's protocol stays self-contained;
* anonymous reaction blocks in argument position become fresh objects whose
  protocol is dictated by the receiving message slot;
* synchronous calls nested inside expressions are lifted into the enclosing
  process, each wrapping only the send (or branch) that consumes its value.

Every binder is renamed to a globally unique :class:`~joinstate.core.Name`,
so later passes never deal with shadowing.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import parser as sf
from . import types as ty
from .core import (
    BUILTIN_OBJECTS,
    CLOSURE_TAG,
    NUMBER_OBJ,
    SYSTEM,
    BinOp,
    BoolLit,
    ClosureSpec,
    CoreProgram,
    Done,
    Expr,
    If,
    Name,
    NewObj,
    NumLit,
    Par,
    PatMsg,
    Process,
    Rule,
    Send,
    SendMsg,
    Var,
)
from .types import TypeExpr

Pos = Optional[tuple[int, int]]


class DesugarError(Exception):
    def __init__(self, message: str, pos: Pos = None):
        if pos:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)
        self.pos = pos


REPLY_TAG = "Reply"

# A wrapper closes over a lifted construct and installs it around the
# process that consumes its value.
Wrapper = Callable[[Process], Process]


def ordered_free_names(p: Process) -> list[Name]:
    """Free names of a core process in first-occurrence order."""
    seen: list[Name] = []
    bound: set[Name] = set()

    def use(n: Name):
        if n not in bound and n not in seen:
            seen.append(n)

    def expr(e: Expr):
        if isinstance(e, Var):
            use(e.name)
        elif isinstance(e, BinOp):
            expr(e.left)
            expr(e.right)

    def go(q: Process):
        if isinstance(q, Send):
            use(q.target)
            for m in q.molecule:
                for a in m.args:
                    expr(a)
        elif isinstance(q, Par):
            for part in q.parts:
                go(part)
        elif isinstance(q, If):
            expr(q.cond)
            go(q.then)
            go(q.els)
        elif isinstance(q, NewObj):
            bound.add(q.name)
            if q.closure:
                for n in q.closure.captured:
                    use(n)
            for rule in q.rules:
                bound.update(x for m in rule.pattern for x in m.params)
                go(rule.body)
            go(q.body)

    go(p)
    return [n for n in seen if n not in bound and n not in BUILTIN_OBJECTS]


def rename(p: Process, mapping: dict[Name, Name]) -> Process:
    """Substitute free name occurrences.  Binders are globally unique, so no
    capture is possible and the traversal is straightforward."""
    if not mapping:
        return p

    def name(n: Name) -> Name:
        return mapping.get(n, n)

    def expr(e: Expr) -> Expr:
        if isinstance(e, Var):
            return Var(name(e.name))
        if isinstance(e, BinOp):
            return BinOp(e.op, expr(e.left), expr(e.right))
        return e

    def go(q: Process) -> Process:
        if isinstance(q, Done):
            return q
        if isinstance(q, Send):
            mol = tuple(
                SendMsg(m.tag, tuple(expr(a) for a in m.args)) for m in q.molecule
            )
            return Send(name(q.target), mol, q.pos)
        if isinstance(q, Par):
            return Par(tuple(go(part) for part in q.parts))
        if isinstance(q, If):
            return If(expr(q.cond), go(q.then), go(q.els), q.pos)
        if isinstance(q, NewObj):
            closure = q.closure
            if closure:
                closure = ClosureSpec(
                    tuple(name(n) for n in closure.captured),
                    name(closure.target),
                    closure.tag,
                    closure.index,
                )
            rules = [Rule(r.pattern, go(r.body)) for r in q.rules]
            return NewObj(
                q.name, q.decl, rules, go(q.body), q.stateless, closure, q.pos
            )
        raise TypeError(f"not a process: {q!r}")

    return go(p)


class Desugarer:
    def __init__(self):
        self._uid = 0
        # Class objects are replicated definitions in scope for the rest of
        # the program; continuations never need to capture them.
        self.stateless: set[Name] = set()

    def fresh(self, text: str) -> Name:
        self._uid += 1
        return Name(text, self._uid)

    # --- environment helpers ----------------------------------------------

    def lookup(self, env: dict[str, Expr], ident: str, pos: Pos) -> Expr:
        try:
            return env[ident]
        except KeyError:
            raise DesugarError(f"unknown name {ident!r}", pos) from None

    def lookup_object(self, env: dict[str, Expr], ident: str, pos: Pos) -> Name:
        e = self.lookup(env, ident, pos)
        if not isinstance(e, Var):
            raise DesugarError(f"{ident!r} does not name an object here", pos)
        return e.name

    # --- continuation construction ----------------------------------------

    def closure(
        self,
        obj: Name,
        pattern: tuple[PatMsg, ...],
        body: Process,
        target: Name,
        tag: str,
        index: int,
        pos: Pos,
    ) -> Wrapper:
        """Build the continuation object ``obj`` with the single rule
        ``pattern |> body``, passed as argument ``index`` (-1: the last) of
        ``target!tag(...)``.  Names the body takes from the enclosing scope
        are renamed to fresh copies bound by a CLOSURE message; the returned
        wrapper sends that message alongside the process it installs ``obj``
        around."""
        bound = {x for m in pattern for x in m.params}
        captured = [
            n
            for n in ordered_free_names(body)
            if n not in bound and n not in self.stateless
        ]
        if captured:
            copies = [self.fresh(n.text) for n in captured]
            body = rename(body, dict(zip(captured, copies)))
            pattern = (PatMsg(CLOSURE_TAG, tuple(copies)),) + pattern
        rule = Rule(pattern, body)
        spec = ClosureSpec(tuple(captured), target, tag, index)

        def wrap(proc: Process) -> Process:
            if captured:
                prime = Send(
                    obj, (SendMsg(CLOSURE_TAG, tuple(Var(n) for n in captured)),), pos
                )
                proc = Par((prime, proc))
            return NewObj(obj, None, [rule], proc, False, spec, pos)

        return wrap

    def make_continuation(
        self,
        target: Name,
        tag: str,
        args: list[Expr],
        results: list[Name],
        body: Process,
        pos: Pos,
    ) -> Process:
        """Build the continuation object for ``let results = target.tag(args)
        in body`` and return the process that replaces the let."""
        cont = self.fresh("cont")
        call = Send(target, (SendMsg(tag, tuple(args) + (Var(cont),)),), pos)
        reply = (PatMsg(REPLY_TAG, tuple(results)),)
        return self.closure(cont, reply, body, target, tag, -1, pos)(call)

    def make_anonymous(
        self,
        block: sf.SBlock,
        receiver: Name,
        tag: str,
        index: int,
        env: dict[str, Expr],
    ) -> tuple[Name, Wrapper]:
        """Lower an anonymous reaction block used as message argument
        ``index`` of ``receiver!tag(...)``."""
        if len(block.rules) != 1:
            raise DesugarError(
                "an anonymous block must contain exactly one rule", block.pos
            )
        anon = self.fresh("anon")
        rule, _ = self.lower_rule(
            block.rules[0],
            env,
            "anonymous block parameters take their types from the receiving "
            "slot and cannot be annotated",
        )
        wrap = self.closure(
            anon, rule.pattern, rule.body, receiver, tag, index, block.pos
        )
        return anon, wrap

    # --- expressions -------------------------------------------------------

    def expr(
        self, e: sf.SExpr, env: dict[str, Expr], wrappers: list[Wrapper]
    ) -> Expr:
        if isinstance(e, sf.SVar):
            return self.lookup(env, e.name, e.pos)
        if isinstance(e, sf.SNum):
            return NumLit(e.value)
        if isinstance(e, sf.SBool):
            return BoolLit(e.value)
        if isinstance(e, sf.SBinOp):
            left = self.expr(e.left, env, wrappers)
            right = self.expr(e.right, env, wrappers)
            return BinOp(e.op, left, right)
        if isinstance(e, sf.SCall):
            target = self.lookup_object(env, e.target, e.pos)
            args = self.message_args(target, e.tag, e.args, env, wrappers)
            tmp = self.fresh("v")

            def wrap(proc: Process, t=target, g=e.tag, a=args, r=tmp, p=e.pos):
                return self.make_continuation(t, g, a, [r], proc, p)

            wrappers.append(wrap)
            return Var(tmp)
        if isinstance(e, sf.SBlock):
            raise DesugarError(
                "a reaction block can only appear as a message argument", e.pos
            )
        raise TypeError(f"not an expression: {e!r}")

    def message_args(
        self,
        receiver: Name,
        tag: str,
        args: list[sf.SExpr],
        env: dict[str, Expr],
        wrappers: list[Wrapper],
    ) -> list[Expr]:
        out: list[Expr] = []
        for i, a in enumerate(args):
            if isinstance(a, sf.SBlock):
                anon, wrap = self.make_anonymous(a, receiver, tag, i, env)
                wrappers.append(wrap)
                out.append(Var(anon))
            else:
                out.append(self.expr(a, env, wrappers))
        return out

    @staticmethod
    def apply_wrappers(proc: Process, wrappers: list[Wrapper]) -> Process:
        for wrap in reversed(wrappers):
            proc = wrap(proc)
        return proc

    # --- processes ----------------------------------------------------------

    def process(self, p: sf.SProc, env: dict[str, Expr]) -> Process:
        if isinstance(p, sf.SDone):
            return Done()
        if isinstance(p, sf.SPar):
            return Par(tuple(self.process(q, env) for q in p.parts))
        if isinstance(p, sf.SIf):
            wrappers: list[Wrapper] = []
            cond = self.expr(p.cond, env, wrappers)
            out: Process = If(
                cond, self.process(p.then, env), self.process(p.els, env), p.pos
            )
            return self.apply_wrappers(out, wrappers)
        if isinstance(p, sf.SSend):
            target = self.lookup_object(env, p.target, p.pos)
            wrappers = []
            molecule = tuple(
                SendMsg(
                    m.tag,
                    tuple(self.message_args(target, m.tag, m.args, env, wrappers)),
                )
                for m in p.msgs
            )
            return self.apply_wrappers(Send(target, molecule, p.pos), wrappers)
        if isinstance(p, sf.SLet):
            return self.let(p, env)
        if isinstance(p, sf.SNew):
            return self.new_object(p, env)
        if isinstance(p, sf.SClass):
            return self.class_object(p, env)
        raise TypeError(f"not a process: {p!r}")

    def let(self, p: sf.SLet, env: dict[str, Expr]) -> Process:
        if isinstance(p.rhs, sf.SCall):
            target = self.lookup_object(env, p.rhs.target, p.rhs.pos)
            wrappers: list[Wrapper] = []
            args = self.message_args(target, p.rhs.tag, p.rhs.args, env, wrappers)
            results = [self.fresh(n) for n in p.names]
            env2 = dict(env)
            for src, res in zip(p.names, results):
                env2[src] = Var(res)
            body = self.process(p.body, env2)
            out = self.make_continuation(
                target, p.rhs.tag, args, results, body, p.pos
            )
            return self.apply_wrappers(out, wrappers)
        if len(p.names) != 1:
            raise DesugarError(
                "multiple results require a synchronous call on the right-hand "
                "side",
                p.pos,
            )
        wrappers = []
        value = self.expr(p.rhs, env, wrappers)
        env2 = dict(env)
        env2[p.names[0]] = value
        return self.apply_wrappers(self.process(p.body, env2), wrappers)

    def lower_rule(
        self, srule: sf.SRule, env: dict[str, Expr], refuse: str | None
    ) -> tuple[Rule, list[TypeExpr]]:
        """Lower one rule with fresh binders for its pattern variables.
        `refuse` is the error for an annotated variable; with None, as for
        class rules, every variable needs an annotation, and the annotations
        are returned in order."""
        seen: set[str] = set()
        pattern: list[PatMsg] = []
        env2 = dict(env)
        anns: list[TypeExpr] = []
        for pat in srule.pattern:
            params = []
            for pname, ann in pat.params:
                if pname in seen:
                    raise DesugarError(f"pattern variable {pname!r} repeated", pat.pos)
                seen.add(pname)
                if refuse is None:
                    if ann is None:
                        raise DesugarError(
                            f"class rule parameter {pname!r} needs a type annotation",
                            pat.pos,
                        )
                    anns.append(ann)
                elif ann is not None:
                    raise DesugarError(refuse, pat.pos)
                fresh = self.fresh(pname)
                params.append(fresh)
                env2[pname] = Var(fresh)
            pattern.append(PatMsg(pat.tag, tuple(params)))
        return Rule(tuple(pattern), self.process(srule.body, env2)), anns

    def new_object(self, p: sf.SNew, env: dict[str, Expr]) -> Process:
        name = self.fresh(p.name)
        env2 = dict(env)
        env2[p.name] = Var(name)
        refuse = "only class rule parameters take annotations"
        rules = [self.lower_rule(r, env2, refuse)[0] for r in p.rules]
        body = self.process(p.body, env2)
        return NewObj(name, p.type, rules, body, False, None, p.pos)

    def class_object(self, p: sf.SClass, env: dict[str, Expr]) -> Process:
        name = self.fresh(p.name)
        self.stateless.add(name)
        env2 = dict(env)
        env2[p.name] = Var(name)
        if any(len(srule.pattern) != 1 for srule in p.rules):
            raise DesugarError("a class rule matches exactly one message", p.pos)
        rules, slots = [], []
        for srule in p.rules:
            rule, anns = self.lower_rule(srule, env2, None)
            rules.append(rule)
            slots.append(ty.Msg(srule.pattern[0].tag, tuple(anns)))
        decl = ty.Star(ty.Sum(slots))
        body = self.process(p.body, env2)
        return NewObj(name, decl, rules, body, True, None, p.pos)


def desugar(ast: sf.SurfaceAST, source_name: str = "<input>") -> CoreProgram:
    table = ty.resolve_types(ast.type_decls)
    # Checked on the names as read: a constructor may already have dropped
    # a reference, as in `#Missing . 0`.
    for name, pos in ast.type_refs:
        if name not in table:
            raise DesugarError(f"unknown type name {name}", pos)
    d = Desugarer()
    env: dict[str, Expr] = {"System": Var(SYSTEM), "Number": Var(NUMBER_OBJ)}
    return CoreProgram(table, d.process(ast.process, env), source_name)


def load_program(source: str, source_name: str = "<input>") -> CoreProgram:
    return desugar(sf.parse_program(source), source_name)
