"""Execution of core programs as a chemical soup.

Objects are molecules-with-rules: each carries a mailbox (a multiset of
messages) and fires a rule whenever the mailbox covers the rule's pattern.
The scheduler repeatedly picks one enabled reaction uniformly at random,
so runs are reproducible from the seed alone.  A reaction is an (object,
rule, selection) triple, where equal payloads count once.  Rather than list
the triples, the soup keeps how many selections each rule of each object
has and draws an index by weight (Gillespie's direct method, with a Fenwick
tree over objects), then decodes the index into a selection.

Optional monitors track every object's declared type derived by the tags
sitting in its mailbox; if that residual becomes unusable the program has
broken its protocol and the run stops.  When no reaction is enabled
the run has quiesced.  It is a deadlock if some leftover message still
carries an argument the type marks as relevant, as somebody is waiting
forever.  Otherwise, with monitors on, every residual must be nullable:
a mailbox holding only part of a configuration of its protocol means a
message was sent too many or too few times.  Arithmetic faults and sends
to methods the builtin objects lack end the run as a RuntimeFault.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

from . import types as ty
from .checker import resolve_closure_types
from .core import (
    NUMBER_OBJ,
    SYSTEM,
    BinOp,
    BoolLit,
    CoreProgram,
    Done,
    Expr,
    If,
    NewObj,
    NumLit,
    Par,
    Process,
    Send,
    Var,
)
from .types import TypeAlgebra, TypeExpr

Value = object  # float | bool | ObjId


@dataclass(frozen=True, order=True)
class ObjId:
    serial: int
    text: str = field(compare=False)

    def __hash__(self):
        return self.serial

    def __repr__(self):
        return f"{self.text}@{self.serial}"


SYSTEM_ID = ObjId(-1, "System")
NUMBER_ID = ObjId(-2, "Number")

# A message is (tag, argument values); mailboxes collapse equal payloads.
Message = tuple[str, tuple[Value, ...]]
# Binder uid -> value.  Environments are never mutated once built, so the
# closures below share them freely.
Env = dict[int, Value]
ProcCode = Callable[["Soup", Env], None]


@dataclass(eq=False)
class Instance:
    oid: ObjId
    node: NewObj
    env: Env
    # Per rule: the (tag, copies) pairs it needs, sorted by tag; each
    # pattern message's tag and parameter uids; and its compiled body.
    rules: list[tuple[list[tuple[str, int]], list, ProcCode]]
    decl: TypeExpr
    # tag -> distinct message -> multiplicity; tags with no messages absent.
    mailbox: dict[str, dict[Message, int]] = field(default_factory=dict)
    # Per rule, the number of distinct selections the mailbox allows.
    weights: list[int] = field(default_factory=list)
    # The declared type derived by every tag in the mailbox (tracked only
    # when monitors are on).
    residual: Optional[TypeExpr] = None

    def tags(self) -> list[str]:
        """The mailbox's tags, one per message, sorted."""
        return sorted(
            tag for tag, msgs in self.mailbox.items()
            for _ in range(sum(msgs.values()))
        )


@dataclass(frozen=True)
class TraceEvent:
    step: int
    kind: str  # "new" | "react" | "print" | "deadlock"
    obj: str
    tags: str
    detail: str

    def line(self) -> str:
        return "\t".join(
            (str(self.step), self.kind, self.obj, self.tags, self.detail)
        )


@dataclass
class RunResult:
    # Terminated | Deadlocked | StepBudgetExhausted | MonitorViolation |
    # RuntimeFault
    verdict: str
    steps: int
    outputs: list[float]
    trace: list[TraceEvent]
    deadlocked: list[str] = field(default_factory=list)
    # What broke the protocol, or the fault.
    violation: Optional[str] = None
    created: dict[str, int] = field(default_factory=dict)
    # Whether Soup.check_solution failed along the run, when it was tested.
    invariant_failed: bool = False


def _fmt(v: Value) -> str:
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


class RuntimeError_(Exception):
    pass


# What a well-formed program can still raise while it runs: `/` or `%` by
# zero (math.fmod raises ValueError), overflow, and sends to methods the
# builtin objects lack.
RUNTIME_FAULTS = (ArithmeticError, ValueError, RuntimeError_)


class Soup:
    def __init__(
        self,
        program: CoreProgram,
        seed: int = 0,
        monitors: bool = True,
        trace: bool = False,
    ):
        self.decls = resolve_closure_types(program)
        self.alg = TypeAlgebra(program.table)
        self.rng = random.Random(seed)
        self.monitors = monitors
        self.tracing = trace
        self.trace: list[TraceEvent] = []
        self.outputs: list[float] = []
        # Indexed by serial - 1.
        self.instances: list[Instance] = []
        self.created: dict[str, int] = {}
        self.steps = 0
        self.violation: Optional[str] = None
        # Each object's total selection count, indexed by serial; objects
        # whose mailbox changed are re-weighed in settle().
        self._enabled = _Fenwick()
        # An ordered set, so monitors run in a seed-determined order.
        self._touched: dict[Instance, None] = {}
        # (declared type, per-tag message counts) -> residual, for
        # consumption.  Types are interned, so equal protocols share entries.
        self._residuals: dict[tuple[TypeExpr, tuple], TypeExpr] = {}
        _compile(program.process)(
            self, {SYSTEM.uid: SYSTEM_ID, NUMBER_OBJ.uid: NUMBER_ID}
        )
        self.settle()

    # --- tracing ------------------------------------------------------------

    def emit(self, kind: str, obj: str, tags: str, detail: str):
        if self.tracing:
            self.trace.append(TraceEvent(self.steps, kind, obj, tags, detail))

    # --- heating ------------------------------------------------------------

    def spawn(self, node: NewObj, rules: list, env: Env) -> Env:
        """Create an object for node with its compiled rules; returns env
        extended with it, the object's own env and its body's too."""
        oid = ObjId(len(self.instances) + 1, node.name.text)
        env = {**env, node.name.uid: oid}
        inst = Instance(oid, node, env, rules, self.decls[node.name])
        if self.monitors:
            # The mailbox is empty, so nothing has been derived yet.
            inst.residual = inst.decl
        self.instances.append(inst)
        self.created[node.name.text] = self.created.get(node.name.text, 0) + 1
        if self.tracing:
            self.emit("new", repr(oid), "", ty.render(inst.decl))
        return env

    def call_builtin(self, target: ObjId, msg: Message):
        tag, args = msg
        if target is SYSTEM_ID and tag == "Print" and len(args) == 1:
            self.outputs.append(args[0])
            self.emit("print", "System", tag, _fmt(args[0]))
        elif target is NUMBER_ID and tag == "Pow" and len(args) == 3:
            base, exp, reply = args
            self.deliver(reply, ("Reply", (float(base) ** float(exp),)))
        else:
            raise RuntimeError_(f"{target.text} has no method {tag}/{len(args)}")

    def deliver(self, target: Value, msg: Message):
        if not isinstance(target, ObjId) or target.serial < 1:
            raise RuntimeError_(f"message {msg[0]} sent to non-object {target!r}")
        inst = self.instances[target.serial - 1]
        msgs = inst.mailbox.setdefault(msg[0], {})
        msgs[msg] = msgs.get(msg, 0) + 1
        if self.monitors:
            inst.residual = self.alg.derivative(inst.residual, msg[0])
        self._touched[inst] = None

    # --- monitors -----------------------------------------------------------

    def residual(self, inst: Instance) -> TypeExpr:
        """The declared type derived afresh by the mailbox's tags."""
        key = (inst.decl, tuple(
            (tag, sum(msgs.values())) for tag, msgs in sorted(inst.mailbox.items())
        ))
        out = self._residuals.get(key)
        if out is None:
            out = self.alg.derivative_config(inst.decl, inst.tags())
            self._residuals[key] = out
        return out

    # --- reactions ----------------------------------------------------------

    def settle(self):
        """Re-weigh the objects whose mailbox changed and run monitors."""
        for inst in self._touched:
            weights = []
            for need, _, _ in inst.rules:
                w = 1
                for tag, k in need:
                    msgs = inst.mailbox.get(tag)
                    if not msgs:
                        w = 0
                        break
                    w *= len(msgs) if k == 1 else _count_picks(msgs.values(), k)
                weights.append(w)
            delta = sum(weights) - sum(inst.weights)
            if delta:
                self._enabled.add(inst.oid.serial, delta)
            inst.weights = weights
            if (self.monitors and self.violation is None
                    and not self.alg.usable(inst.residual)):
                self.violation = (
                    f"{inst.oid!r} holds messages [{','.join(inst.tags())}] "
                    f"outside its protocol {ty.render(inst.decl)}"
                )
        self._touched.clear()

    def enabled_count(self) -> int:
        """The number of enabled (object, rule, selection) triples."""
        return self._enabled.total

    def reaction(
        self, index: int
    ) -> tuple[Instance, int, list[tuple[Message, int]]]:
        """The enabled reaction with the given index, 0 <= index <
        enabled_count(): an object, a rule index, and a selection of
        (message, copies) pairs.  Each index decodes to a distinct triple."""
        serial, r = self._enabled.find(index)
        inst = self.instances[serial - 1]
        for rule_idx, w in enumerate(inst.weights):
            if r < w:
                break
            r -= w
        # r now indexes the rule's selections in mixed radix, one digit per
        # needed tag.
        selection: list[tuple[Message, int]] = []
        for tag, k in inst.rules[rule_idx][0]:
            msgs = inst.mailbox[tag]
            if k == 1:
                r, j = divmod(r, len(msgs))
                selection.append((next(islice(msgs, j, None)), 1))
            else:
                r, j = divmod(r, _count_picks(msgs.values(), k))
                picks = _multiset_picks(list(msgs.items()), k)
                selection.extend(next(islice(picks, j, None)))
        return inst, rule_idx, selection

    def step(self) -> bool:
        """Fire one enabled reaction; False when the soup has quiesced."""
        if not self._enabled.total:
            return False
        inst, rule_idx, selection = self.reaction(
            self.rng.randrange(self._enabled.total)
        )
        self.steps += 1

        # The consumed messages by tag, in selection order.
        by_tag: dict[str, list[Message]] = {}
        for msg, count in selection:
            msgs = inst.mailbox[msg[0]]
            left = msgs[msg] - count
            if left:
                msgs[msg] = left
            else:
                del msgs[msg]
                if not msgs:
                    del inst.mailbox[msg[0]]
            by_tag.setdefault(msg[0], []).extend([msg] * count)
        if self.monitors:
            inst.residual = self.residual(inst)
        self._touched[inst] = None

        _, binders, body = inst.rules[rule_idx]
        if self.tracing:
            self.emit(
                "react",
                repr(inst.oid),
                ",".join(tag for tag, _ in binders),
                " ".join(
                    f"{t}({', '.join(_fmt(v) for v in vs)})"
                    for msgs in by_tag.values() for t, vs in msgs
                ),
            )
        env = dict(inst.env)
        for tag, params in binders:
            env.update(zip(params, by_tag[tag].pop()[1]))
        body(self, env)
        self.settle()
        return True

    # --- end states ---------------------------------------------------------

    def stuck_objects(self) -> list[ObjId]:
        """Objects whose leftover messages carry arguments somebody still
        relies on; nonempty at quiescence means deadlock."""
        out = []
        for inst in self.instances:
            if inst.mailbox and any(
                slot.tag in inst.mailbox
                and any(self.alg.relevant(a) for a in slot.args)
                for slot in self.alg.heads(inst.decl)
            ):
                out.append(inst.oid)
        return out

    def quiesce(self) -> list[ObjId]:
        """Judge a soup where no reaction is enabled: the stuck objects,
        each traced.  With none stuck and monitors on, the first mailbox
        holding only part of a configuration of its protocol (a residual
        that is not nullable) is a violation."""
        stuck = self.stuck_objects()
        for oid in stuck:
            inst = self.instances[oid.serial - 1]
            self.emit(
                "deadlock",
                repr(oid),
                ",".join(sorted(
                    tag for tag, msgs in inst.mailbox.items() for _ in msgs
                )),
                "",
            )
        if stuck or not self.monitors:
            return stuck
        for inst in self.instances:
            if not self.alg.nullable(inst.residual):
                self.violation = (
                    f"{inst.oid!r} ends with messages "
                    f"[{','.join(inst.tags())}], short of a whole "
                    f"configuration of its protocol {ty.render(inst.decl)}"
                )
                break
        return stuck

    def check_solution(self) -> bool:
        """Whether every object's mailbox still fits its protocol: the
        re-typing invariant the scheduler is expected to preserve."""
        return all(self.alg.usable(self.residual(inst)) for inst in self.instances)


def run(
    program: CoreProgram,
    seed: int = 0,
    max_steps: int = 100_000,
    monitors: bool = True,
    trace: bool = False,
    check_solution: bool = False,
) -> RunResult:
    """Run program from seed until it quiesces, a monitor or fault stops
    it, or max_steps steps have fired.  With check_solution, the soup's
    re-typing invariant is tested on the initial soup and after every step
    until it first fails."""
    soup: Optional[Soup] = None
    verdict, stuck, failed = "StepBudgetExhausted", [], False
    try:
        soup = Soup(program, seed=seed, monitors=monitors, trace=trace)
        failed = check_solution and not soup.check_solution()
        while soup.violation is None and soup.steps < max_steps:
            if not soup.step():
                stuck = soup.quiesce()
                verdict = "Deadlocked" if stuck else "Terminated"
                break
            if check_solution and not failed:
                failed = not soup.check_solution()
    except RUNTIME_FAULTS as exc:
        fault = f"{type(exc).__name__}: {exc}"
        if soup is None:
            return RunResult("RuntimeFault", 0, [], [], violation=fault)
        verdict, soup.violation = "RuntimeFault", fault
    if soup.violation is not None and verdict != "RuntimeFault":
        verdict = "MonitorViolation"
    return RunResult(
        verdict,
        soup.steps,
        soup.outputs,
        soup.trace,
        deadlocked=[repr(o) for o in stuck],
        violation=soup.violation,
        created=soup.created,
        invariant_failed=failed,
    )


# --- compilation ------------------------------------------------------------
#
# A process compiles to a closure taking (soup, env) and an expression to
# one taking env (Feeley & Lapalme 1987).  Closures run the parts of a
# process depth first, left to right, so serials, mailbox order and with
# them the RNG draws follow the order of the source.

_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": math.fmod,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile(p: Process) -> ProcCode:
    if isinstance(p, Send):
        uid = p.target.uid
        molecule = [(m.tag, [_compile_expr(a) for a in m.args]) for m in p.molecule]

        def send(soup, env):
            target = env[uid]
            builtin = target is SYSTEM_ID or target is NUMBER_ID
            deliver = soup.call_builtin if builtin else soup.deliver
            for tag, args in molecule:
                deliver(target, (tag, tuple([a(env) for a in args])))

        return send
    if isinstance(p, Par):
        parts = [_compile(q) for q in p.parts]

        def par(soup, env):
            for part in parts:
                part(soup, env)

        return par
    if isinstance(p, NewObj):
        rules = []
        for r in p.rules:
            tags = [m.tag for m in r.pattern]
            needs = sorted({tag: tags.count(tag) for tag in tags}.items())
            binders = [(m.tag, [n.uid for n in m.params]) for m in r.pattern]
            rules.append((needs, binders, _compile(r.body)))
        body = _compile(p.body)
        return lambda soup, env: body(soup, soup.spawn(p, rules, env))
    if isinstance(p, If):
        cond, then, els = _compile_expr(p.cond), _compile(p.then), _compile(p.els)
        return lambda soup, env: (then if cond(env) else els)(soup, env)
    if isinstance(p, Done):
        return lambda soup, env: None
    raise TypeError(f"not a process: {p!r}")


def _compile_expr(e: Expr) -> Callable[[Env], Value]:
    if isinstance(e, Var):
        return operator.itemgetter(e.name.uid)
    if isinstance(e, (NumLit, BoolLit)):
        value = e.value
        return lambda env: value
    if isinstance(e, BinOp):
        left, right = _compile_expr(e.left), _compile_expr(e.right)
        op, apply = e.op, _BINOPS[e.op]

        def binop(env):
            a = left(env)
            b = right(env)
            # Only an unchecked program gets here with an object operand.
            try:
                return apply(a, b)
            except TypeError:
                raise RuntimeError_(
                    f"cannot apply {op} to {_fmt(a)} and {_fmt(b)}"
                ) from None

        return binop
    raise TypeError(f"not an expression: {e!r}")


def _multiset_picks(groups, k):
    """Ways to take k items from payload groups with the given capacities."""
    if k == 0:
        yield ()
        return
    if not groups:
        return
    (msg, cap), rest = groups[0], groups[1:]
    for take in range(min(k, cap), -1, -1):
        for tail in _multiset_picks(rest, k - take):
            yield ((msg, take),) + tail if take else tail


def _count_picks(caps, k):
    """How many ways _multiset_picks has to take k items from payload
    groups with the given capacities."""
    ways = [1] + [0] * k
    for cap in caps:
        ways = [
            sum(ways[j - take] for take in range(min(cap, j) + 1))
            for j in range(k + 1)
        ]
    return ways[k]


class _Fenwick:
    """Nonnegative integer weights indexed from 1, all zero at first, with
    O(log n) update and weighted draw (Fenwick 1994).  The capacity is a
    power of two and doubles on demand."""

    def __init__(self):
        self.tree = [0, 0]
        self.total = 0

    def add(self, i: int, delta: int):
        tree = self.tree
        while i >= len(tree):
            # The new slots hold zeros, so only the new root node, which
            # covers every slot, is nonzero.
            size = len(tree) - 1
            tree.extend([0] * size)
            tree[2 * size] = self.total
        self.total += delta
        n = len(tree)
        while i < n:
            tree[i] += delta
            i += i & -i

    def find(self, r: int) -> tuple[int, int]:
        """For 0 <= r < total: the index i whose weight covers r in the
        cumulative order, and r's offset within that weight."""
        tree = self.tree
        pos = 0
        bit = len(tree) - 1
        while bit:
            nxt = pos + bit
            if tree[nxt] <= r:
                pos = nxt
                r -= tree[nxt]
            bit >>= 1
        return pos + 1, r
