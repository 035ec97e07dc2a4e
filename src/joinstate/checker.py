"""Static checking of core programs.

Two properties are established together:

* **protocol conformance** — every object's aggregate usage (the product of
  all message sends it receives, across parallel branches and reaction
  firings) refines its declared type, and every reaction leaves the object
  in a state its type permits;
* **deadlock freedom** — each send makes the receiving object depend on the
  objects passed as arguments; those dependencies must never relate the
  same pair twice or close a cycle, and every declared type must be live
  for the object's rule patterns (some rule fires in every reachable
  configuration that still owes messages).

The checker threads a usage environment (name -> type) bottom-up and a
dependency relation alongside it, reporting problems as diagnostics rather
than exceptions so one run surfaces as many issues as possible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

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
    Process,
    Rule,
    Send,
    Var,
)
from .deps import (
    EMPTY_DEPS,
    DependencyRelation,
    Incompatible,
    clique,
    join,
    merge,
)
from .semilinear import SubtypeEngine, arg_determinate, live
from .types import Msg, TypeAlgebra, TypeExpr, render

Pos = Optional[tuple[int, int]]

SYSTEM_TYPE = ty.Star(ty.Msg("Print", (ty.NUMBER,)))
NUMBER_TYPE = ty.Star(
    ty.Msg("Pow", (ty.NUMBER, ty.NUMBER, ty.Msg("Reply", (ty.NUMBER,))))
)
BUILTIN_DECLS: dict[Name, TypeExpr] = {SYSTEM: SYSTEM_TYPE, NUMBER_OBJ: NUMBER_TYPE}

DIAGNOSTIC_CODES = (
    "ProtocolViolation",
    "SelfDependency",
    "DuplicateArgument",
    "IncompatibleDeps",
    "NotLive",
    "AmbiguousArgs",
    "DeadReaction",
    "UnusableArg",
    "ObligationUnmet",
    "AritySumError",
)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    pos: Pos = None

    def __str__(self):
        where = f"{self.pos[0]}:{self.pos[1]}: " if self.pos else ""
        return f"{where}{self.code}: {self.message}"

    def to_json(self):
        out = {"code": self.code, "message": self.message}
        if self.pos:
            out["line"], out["column"] = self.pos
        return out


@dataclass
class ObjectInfo:
    name: Name
    decl: TypeExpr
    patterns: list[dict[str, int]]
    live: bool
    stateless: bool

    def to_json(self):
        return {
            "name": str(self.name),
            "type": render(self.decl),
            "patterns": self.patterns,
            "live": self.live,
        }


@dataclass
class Report:
    diagnostics: list[Diagnostic] = field(default_factory=list)
    objects: list[ObjectInfo] = field(default_factory=list)
    bounded_subtype_uses: list[dict] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "rejected" if self.diagnostics else "accepted"

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def to_json(self):
        return {
            "verdict": self.verdict,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "objects": [o.to_json() for o in self.objects],
            "boundedSubtypeUses": self.bounded_subtype_uses,
        }


Env = dict[Name, TypeExpr]


def closure_decl(base: TypeExpr, captured: tuple[TypeExpr, ...]) -> TypeExpr:
    """A continuation's protocol: nothing, or its base protocol together
    with one CLOSURE message carrying the captured names, if any."""
    if captured:
        base = ty.Prod((ty.Msg(CLOSURE_TAG, captured), base))
    return ty.Sum((ty.ONE, base))


def _is_value_type(t: TypeExpr) -> bool:
    return isinstance(t, ty.Base)


class Checker:
    def __init__(self, program: CoreProgram, bound: int = 4):
        self.program = program
        self.alg = TypeAlgebra(program.table)
        self.engine = SubtypeEngine(self.alg, bound)
        self.report = Report()
        self.decls: dict[Name, TypeExpr] = dict(BUILTIN_DECLS)
        self.stateless: set[Name] = set(BUILTIN_OBJECTS)
        self.top_deps = EMPTY_DEPS

    # --- reporting helpers -------------------------------------------------

    def diag(self, code: str, message: str, pos: Pos = None):
        assert code in DIAGNOSTIC_CODES
        self.report.diagnostics.append(Diagnostic(code, message, pos))

    def require_subtype(
        self, t: TypeExpr, s: TypeExpr, context: str, pos: Pos, code: str
    ) -> bool:
        verdict = self.engine.subtype(t, s)
        if not verdict.holds:
            extra = ""
            if verdict.counterexample is not None:
                tags = ", ".join(m.tag for m in verdict.counterexample) or "empty"
                extra = f" (configuration not covered: {tags})"
            self.diag(
                code,
                f"{context}: {render(s)} does not refine {render(t)}{extra}",
                pos,
            )
            return False
        if verdict.kind == "yes-bounded":
            self.report.bounded_subtype_uses.append(
                {
                    "context": context,
                    "declared": render(t),
                    "usage": render(s),
                    "bound": verdict.bound,
                }
            )
        return True

    # --- environments ------------------------------------------------------

    @staticmethod
    def combine(env1: Env, env2: Env) -> Env:
        out = dict(env1)
        for name, t in env2.items():
            if name in out:
                out[name] = ty.Prod((out[name], t))
            else:
                out[name] = t
        return out

    @staticmethod
    def branch_combine(env1: Env, env2: Env) -> Env:
        # Names in first-seen order, so diagnostics that walk the result
        # come out alike under every hash seed.
        return {
            name: ty.Sum((env1.get(name, ty.ONE), env2.get(name, ty.ONE)))
            for name in env1 | env2
        }

    def join_deps(
        self, d1: DependencyRelation, d2: DependencyRelation, pos: Pos
    ) -> DependencyRelation:
        d = join(d1, d2)
        if isinstance(d, Incompatible):
            self.diag(
                "IncompatibleDeps",
                f"objects {d.u} and {d.v} may wait on each other",
                pos,
            )
            return merge(d1, d2)
        return d

    # --- expressions --------------------------------------------------------

    def expr_kind(self, e: Expr, pos: Pos) -> str:
        """Classify an expression as 'num', 'bool' or 'obj'."""
        if isinstance(e, NumLit):
            return "num"
        if isinstance(e, BoolLit):
            return "bool"
        if isinstance(e, Var):
            t = self.decls.get(e.name)
            if t == ty.NUMBER:
                return "num"
            if t == ty.BOOL:
                return "bool"
            return "obj"
        if isinstance(e, BinOp):
            lk = self.expr_kind(e.left, pos)
            rk = self.expr_kind(e.right, pos)
            arithmetic = e.op in ("+", "-", "*", "/", "%")
            for k in (lk, rk):
                if k != "num":
                    self.diag(
                        "ProtocolViolation",
                        f"operator {e.op!r} needs numeric operands",
                        pos,
                    )
                    break
            return "num" if arithmetic else "bool"
        raise TypeError(f"not an expression: {e!r}")

    # --- sends --------------------------------------------------------------

    def resolve_slots(
        self, decl: TypeExpr, tags: dict[str, int], what: str, pos: Pos
    ) -> Optional[dict[str, Msg]]:
        """Determine which message slot each tag of a molecule or join pattern
        refers to; None (with a diagnostic) when that fails."""
        if _is_value_type(decl) or not self.alg.usable(decl):
            self.diag(
                "ProtocolViolation",
                f"{what}: {render(decl)} accepts no messages",
                pos,
            )
            return None
        verdict = arg_determinate(self.alg, decl, tags)
        if verdict.kind == "determinate":
            return verdict.assignment
        pretty = " & ".join(
            tag if k == 1 else f"{tag} x{k}" for tag, k in sorted(tags.items())
        )
        if verdict.kind == "dead":
            self.diag(
                "ProtocolViolation"
                if what.startswith("send")
                else "DeadReaction",
                f"{what}: {pretty} fits no configuration of {render(decl)}",
                pos,
            )
        else:
            self.diag(
                "AmbiguousArgs",
                f"{what}: {pretty} does not pin down argument types in "
                f"{render(decl)}",
                pos,
            )
        return None

    def check_send(self, p: Send) -> tuple[Env, DependencyRelation]:
        target = p.target
        decl = self.decls.get(target)
        if decl is None:
            self.diag("ProtocolViolation", f"unknown object {target}", p.pos)
            return {}, EMPTY_DEPS
        tags = Counter(m.tag for m in p.molecule)
        slots = self.resolve_slots(decl, tags, f"send to {target}", p.pos)
        if slots is None:
            return {}, EMPTY_DEPS

        env: Env = {}
        obj_args: list[Name] = []
        usage_parts: list[TypeExpr] = []
        ok = True
        for m in p.molecule:
            slot = slots[m.tag]
            usage_parts.append(slot)
            if len(m.args) != len(slot.args):
                self.diag(
                    "AritySumError",
                    f"send to {target}: {m.tag} takes {len(slot.args)} "
                    f"argument(s), got {len(m.args)}",
                    p.pos,
                )
                ok = False
                continue
            for arg, expected in zip(m.args, slot.args):
                if not self.alg.usable(expected):
                    self.diag(
                        "UnusableArg",
                        f"send to {target}: argument type {render(expected)} of "
                        f"{m.tag} has no valid configuration",
                        p.pos,
                    )
                    ok = False
                    continue
                if _is_value_type(expected):
                    kind = self.expr_kind(arg, p.pos)
                    want = "num" if expected == ty.NUMBER else "bool"
                    if kind != want:
                        self.diag(
                            "ProtocolViolation",
                            f"send to {target}: {m.tag} expects a "
                            f"{render(expected)} argument",
                            p.pos,
                        )
                        ok = False
                    continue
                if not isinstance(arg, Var) or self.expr_kind(arg, p.pos) != "obj":
                    self.diag(
                        "ProtocolViolation",
                        f"send to {target}: {m.tag} expects an object with "
                        f"protocol {render(expected)}",
                        p.pos,
                    )
                    ok = False
                    continue
                env = self.combine(env, {arg.name: expected})
                obj_args.append(arg.name)
        if not ok:
            return env, EMPTY_DEPS

        if target not in self.stateless:
            env = self.combine(env, {target: ty.Prod(usage_parts)})

        # Dependency bookkeeping: sending makes the target wait on the
        # argument objects, and ties the arguments to one another.
        if target in obj_args:
            self.diag(
                "SelfDependency",
                f"object {target} is sent to itself",
                p.pos,
            )
            return env, EMPTY_DEPS
        dep_names = [n for n in obj_args if n not in self.stateless]
        if len(set(dep_names)) != len(dep_names):
            dupe = next(n for n in dep_names if dep_names.count(n) > 1)
            self.diag(
                "DuplicateArgument",
                f"object {dupe} appears twice in one send to {target}",
                p.pos,
            )
            return env, EMPTY_DEPS
        if target not in self.stateless:
            dep_names.append(target)
        return env, clique(dep_names)

    # --- processes ----------------------------------------------------------

    def check_process(self, p: Process) -> tuple[Env, DependencyRelation]:
        if isinstance(p, Done):
            return {}, EMPTY_DEPS
        if isinstance(p, Send):
            return self.check_send(p)
        if isinstance(p, Par):
            env: Env = {}
            deps = EMPTY_DEPS
            for q in p.parts:
                e, d = self.check_process(q)
                env = self.combine(env, e)
                deps = self.join_deps(deps, d, None)
            return env, deps
        if isinstance(p, If):
            if self.expr_kind(p.cond, p.pos) != "bool":
                self.diag(
                    "ProtocolViolation", "condition must be a boolean", p.pos
                )
            env1, d1 = self.check_process(p.then)
            env2, d2 = self.check_process(p.els)
            # The branches are mutually exclusive, so their dependency
            # relations are overlaid rather than conjoined.
            return self.branch_combine(env1, env2), merge(d1, d2)
        if isinstance(p, NewObj):
            return self.check_new(p)
        raise TypeError(f"not a process: {p!r}")

    # --- objects ------------------------------------------------------------

    def check_new(self, p: NewObj) -> tuple[Env, DependencyRelation]:
        if p.closure is not None:
            decl = self.check_closure_object(p)
        else:
            decl = p.decl
            self.decls[p.name] = decl
            if p.stateless:
                self.stateless.add(p.name)
            for rule in p.rules:
                self.check_rule(p.name, decl, rule, p.pos)

        patterns = [
            dict(Counter(m.tag for m in rule.pattern)) for rule in p.rules
        ]
        is_live = live(self.alg, decl, patterns)
        if not is_live:
            self.diag(
                "NotLive",
                f"{p.name}: some configuration of {render(decl)} still owes "
                "messages but triggers no rule",
                p.pos,
            )
        self.report.objects.append(
            ObjectInfo(p.name, decl, patterns, is_live, p.stateless)
        )

        env, deps = self.check_process(p.body)
        self.check_obligation(p.name, decl, env, p.pos)
        env.pop(p.name, None)
        return env, deps.restrict(p.name)

    def check_obligation(self, name: Name, decl: TypeExpr, env: Env, pos: Pos):
        usage = env.get(name, ty.ONE)
        if name in self.stateless:
            return
        if usage == ty.ONE and not self.alg.nullable(decl):
            self.diag(
                "ObligationUnmet",
                f"{name} is never sent the messages {render(decl)} requires",
                pos,
            )
            return
        self.require_subtype(
            decl, usage, f"usage of {name}", pos, "ProtocolViolation"
        )

    def bind_pattern(
        self, decl: TypeExpr, pattern, what: str, pos: Pos
    ) -> Optional[list[Name]]:
        """Declare each variable of a join pattern at the argument type of
        the message slot its tag refers to in decl; None (with a diagnostic)
        when the slots or the arities do not fit."""
        tags = Counter(m.tag for m in pattern)
        slots = self.resolve_slots(decl, tags, what, pos)
        if slots is None:
            return None
        params: list[Name] = []
        for m in pattern:
            slot = slots[m.tag]
            if len(m.params) != len(slot.args):
                self.diag(
                    "AritySumError",
                    f"{what}: {m.tag} carries {len(slot.args)} argument(s), "
                    f"pattern binds {len(m.params)}",
                    pos,
                )
                return None
            for param, t in zip(m.params, slot.args):
                if not self.alg.usable(t):
                    self.diag(
                        "UnusableArg",
                        f"{what}: argument type {render(t)} of {m.tag} has no "
                        "valid configuration",
                        pos,
                    )
                self.decls[param] = t
                params.append(param)
        return params

    def check_rule(self, obj: Name, t0: TypeExpr, rule: Rule, pos: Pos):
        pretty = " & ".join(m.tag for m in rule.pattern)
        what = f"rule {pretty} of {obj}"
        params = self.bind_pattern(t0, rule.pattern, what, pos)
        if params is None:
            return
        env, _deps = self.check_process(rule.body)
        self.close_rule(obj, t0, rule, params, env, what, f"rule {pretty}", pos)

    def close_rule(
        self,
        obj: Name,
        decl: TypeExpr,
        rule: Rule,
        params: list[Name],
        env: Env,
        what: str,
        after: str,
        pos: Pos,
    ):
        """Discharge a rule whose body used env: each pattern variable's
        obligations, no other name from the enclosing scope, and a state of
        obj after the rule fires that decl still permits."""
        for param in params:
            self.check_obligation(param, self.decls[param], env, pos)
            env.pop(param, None)
        s0 = env.pop(obj, ty.ONE)
        for name in env:
            if name not in self.stateless:
                self.diag(
                    "ProtocolViolation",
                    f"{what} uses {name} from the enclosing scope; thread it "
                    "through a message instead",
                    pos,
                )
        consumed = Counter(m.tag for m in rule.pattern).elements()
        residual = ty.Prod((self.alg.derivative_config(decl, consumed), s0))
        self.require_subtype(
            decl, residual, f"state of {obj} after {after}", pos, "ProtocolViolation"
        )

    # --- continuation objects ----------------------------------------------

    def closure_base(self, spec: ClosureSpec, pos: Pos) -> Optional[TypeExpr]:
        """The protocol the continuation must offer: argument spec.index of
        the message slot it is passed to; None (with a diagnostic) when that
        slot has no such argument or it accepts no continuation."""
        target, tag = spec.target, spec.tag
        decl = self.decls.get(target)
        if decl is None:
            self.diag("ProtocolViolation", f"unknown object {target}", pos)
            return None
        slots = self.resolve_slots(decl, {tag: 1}, f"send to {target}", pos)
        if slots is None:
            return None
        args = slots[tag].args
        if not args:
            self.diag(
                "AritySumError",
                f"{tag} of {render(decl)} has no continuation argument",
                pos,
            )
            return None
        if spec.index >= len(args):
            self.diag(
                "AritySumError",
                f"{tag} of {render(decl)} has no argument {spec.index}",
                pos,
            )
            return None
        base = args[spec.index]
        if _is_value_type(base) or not self.alg.usable(base):
            self.diag(
                "UnusableArg",
                f"{tag} of {render(decl)} does not accept a continuation "
                f"there (argument type {render(base)})",
                pos,
            )
            return None
        return base

    def check_closure_object(self, p: NewObj) -> TypeExpr:
        spec = p.closure
        base = self.closure_base(spec, p.pos)
        if base is None:
            return ty.ONE
        [rule] = p.rules
        closure_params: list[Name] = []
        reply_pattern = rule.pattern
        if spec.captured:
            closure_params = list(rule.pattern[0].params)
            reply_pattern = rule.pattern[1:]
        # Captured names keep their declared protocols inside the body; the
        # reply parameters take theirs from the base slot.
        for param, source in zip(closure_params, spec.captured):
            if source not in self.decls:
                self.diag(
                    "ProtocolViolation", f"unknown object {source}", p.pos
                )
            self.decls[param] = self.decls.get(source, ty.ONE)
        reply_params = self.bind_pattern(
            base, reply_pattern, f"reply to {p.name}", p.pos
        )
        if reply_params is None:
            return ty.ONE

        # Check the body once; how it uses each captured name is exactly the
        # CLOSURE argument type the object demands.
        env, _deps = self.check_process(rule.body)
        # Captured names' CLOSURE argument types are their synthesized usages;
        # value-typed captures keep their base type (values have no usage).
        captured_usage = []
        for param in closure_params:
            if _is_value_type(self.decls[param]):
                captured_usage.append(self.decls[param])
                env.pop(param, None)
            else:
                captured_usage.append(env.pop(param, ty.ONE))
        decl = closure_decl(base, tuple(captured_usage))
        self.decls[p.name] = decl
        what = f"continuation {p.name}"
        self.close_rule(p.name, decl, rule, reply_params, env, what, "its reply", p.pos)
        return decl

    # --- entry ---------------------------------------------------------------

    def run(self) -> Report:
        env, self.top_deps = self.check_process(self.program.process)
        for name in env:
            if name not in BUILTIN_DECLS:
                self.diag(
                    "ProtocolViolation", f"unbound name {name}", None
                )
        return self.report


def check_program(program: CoreProgram, bound: int = 4) -> Report:
    return Checker(program, bound).run()


def resolve_closure_types(program: CoreProgram) -> dict[Name, TypeExpr]:
    """Every object's, continuation's and rule variable's declared type, by
    binder: the checker's own declarations, made without full checking and
    without writing into the program, so the runtime executes checked and
    unchecked programs alike.  A continuation's base is `closure_base` (1
    where the checker rejects it), with CLOSURE argument types approximated
    by the captured names' declared types: the runtime follows message
    tags, and only asks whether a leftover CLOSURE message's arguments are
    relevant.  `bind_pattern` declares each rule's variables up to where
    it rejects the pattern; the rest stay undeclared, that is of type 1."""
    checker = Checker(program)  # only its declarations are kept
    decls = checker.decls

    def resolve(p: Process):
        if isinstance(p, Par):
            for q in p.parts:
                resolve(q)
        elif isinstance(p, If):
            resolve(p.then)
            resolve(p.els)
        elif isinstance(p, NewObj):
            spec = p.closure
            if spec is None:
                decl = p.decl
            else:
                base = checker.closure_base(spec, p.pos) or ty.ONE
                decl = closure_decl(
                    base, tuple(decls.get(n, ty.ONE) for n in spec.captured)
                )
            decls[p.name] = decl
            for rule in p.rules:
                checker.bind_pattern(decl, rule.pattern, "rule", p.pos)
                resolve(rule.body)
            resolve(p.body)

    resolve(program.process)
    return decls
