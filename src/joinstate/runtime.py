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

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from . import types as ty
from .checker import BUILTIN_DECLS, resolve_closure_types
from .core import (
    NUMBER_OBJ,
    SYSTEM,
    BinOp,
    BoolLit,
    CoreProgram,
    Done,
    Expr,
    If,
    Name,
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

    def __repr__(self):
        return f"{self.text}@{self.serial}"


SYSTEM_ID = ObjId(-1, "System")
NUMBER_ID = ObjId(-2, "Number")

# A message is (tag, argument values); mailboxes collapse equal payloads.
Message = tuple[str, tuple[Value, ...]]


@dataclass(eq=False)
class Instance:
    oid: ObjId
    node: NewObj
    env: dict[Name, Value]
    # Per rule, the (tag, copies) pairs its pattern needs, sorted by tag.
    needs: list[list[tuple[str, int]]]
    decl: TypeExpr
    # tag -> distinct message -> multiplicity; tags with no messages absent.
    mailbox: dict[str, dict[Message, int]] = field(default_factory=dict)
    # Per rule, the number of distinct selections the mailbox allows.
    weights: list[int] = field(default_factory=list)
    # Monitor state of the declared type derived by every tag in the
    # mailbox (tracked only when monitors are on).
    residual: int = 0

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
        # Monitors run each declared protocol as a lazily built automaton
        # of derivatives: a residual type is interned as an integer state,
        # so following a message is one dict lookup.
        self._types: list[TypeExpr] = []
        self._state_of: dict[TypeExpr, int] = {}
        self._usable: list[bool] = []
        self._delta: dict[tuple[int, str], int] = {}
        # (node id, per-tag message counts) -> state, for consumption.
        self._residuals: dict[tuple[int, tuple], int] = {}
        self._needs: dict[int, list[list[tuple[str, int]]]] = {}
        self.heat(program.process, {SYSTEM: SYSTEM_ID, NUMBER_OBJ: NUMBER_ID})
        self.settle()

    # --- tracing ------------------------------------------------------------

    def emit(self, kind: str, obj: str, tags: str, detail: str):
        if self.tracing:
            self.trace.append(TraceEvent(self.steps, kind, obj, tags, detail))

    # --- heating ------------------------------------------------------------

    def heat(self, proc: Process, env: dict[Name, Value]):
        stack: list[tuple[Process, dict[Name, Value]]] = [(proc, env)]
        while stack:
            p, env = stack.pop()
            if isinstance(p, Done):
                continue
            if isinstance(p, Par):
                stack.extend((q, env) for q in reversed(p.parts))
            elif isinstance(p, If):
                branch = p.then if self.eval(p.cond, env) else p.els
                stack.append((branch, env))
            elif isinstance(p, NewObj):
                oid = self.spawn(p, env)
                env2 = dict(env)
                env2[p.name] = oid
                stack.append((p.body, env2))
            elif isinstance(p, Send):
                self.send(p, env)
            else:
                raise TypeError(f"not a process: {p!r}")

    def spawn(self, node: NewObj, env: dict[Name, Value]) -> ObjId:
        oid = ObjId(len(self.instances) + 1, node.name.text)
        env2 = dict(env)
        env2[node.name] = oid
        needs = self._needs.get(id(node))
        if needs is None:
            needs = self._needs[id(node)] = [
                sorted(Counter(m.tag for m in rule.pattern).items())
                for rule in node.rules
            ]
        inst = Instance(oid, node, env2, needs, self.decls[node.node_id])
        if self.monitors:
            inst.residual = self.residual(inst)
        self.instances.append(inst)
        self.created[node.name.text] = self.created.get(node.name.text, 0) + 1
        if self.tracing:
            self.emit("new", repr(oid), "", ty.render(inst.decl))
        return oid

    def send(self, p: Send, env: dict[Name, Value]):
        target = env[p.target]
        for m in p.molecule:
            args = tuple(self.eval(a, env) for a in m.args)
            if target is SYSTEM_ID:
                if m.tag == "Print" and len(args) == 1:
                    self.outputs.append(args[0])
                    self.emit("print", "System", m.tag, _fmt(args[0]))
                    continue
                raise RuntimeError_(f"System has no method {m.tag}/{len(args)}")
            if target is NUMBER_ID:
                if m.tag == "Pow" and len(args) == 3:
                    base, exp, reply = args
                    self.deliver(reply, ("Reply", (float(base) ** float(exp),)))
                    continue
                raise RuntimeError_(f"Number has no method {m.tag}/{len(args)}")
            self.deliver(target, (m.tag, args))

    def deliver(self, target: Value, msg: Message):
        if not isinstance(target, ObjId) or target.serial < 1:
            raise RuntimeError_(f"message {msg[0]} sent to non-object {target!r}")
        inst = self.instances[target.serial - 1]
        msgs = inst.mailbox.setdefault(msg[0], {})
        msgs[msg] = msgs.get(msg, 0) + 1
        if self.monitors:
            inst.residual = self._derive(inst.residual, msg[0])
        self._touched[inst] = None

    def eval(self, e: Expr, env: dict[Name, Value]) -> Value:
        if isinstance(e, NumLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, BinOp):
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            op = e.op
            # Only an unchecked program gets here with an object operand.
            try:
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                if op == "/":
                    return a / b
                if op == "%":
                    return math.fmod(a, b)
                if op == "==":
                    return a == b
                if op == "!=":
                    return a != b
                if op == "<":
                    return a < b
                if op == "<=":
                    return a <= b
                if op == ">":
                    return a > b
                if op == ">=":
                    return a >= b
            except TypeError:
                raise RuntimeError_(
                    f"cannot apply {op} to {_fmt(a)} and {_fmt(b)}"
                ) from None
        raise TypeError(f"not an expression: {e!r}")

    # --- monitors -----------------------------------------------------------

    def monitor(self, inst: Instance):
        if not self._usable[inst.residual]:
            self.violation = (
                f"{inst.oid!r} holds messages [{','.join(inst.tags())}] "
                f"outside its protocol {ty.render(inst.decl)}"
            )

    def residual(self, inst: Instance) -> int:
        """The state of the declared type derived afresh by the mailbox's
        tags."""
        key = (
            id(inst.node),
            tuple(
                (tag, sum(inst.mailbox[tag].values()))
                for tag in sorted(inst.mailbox)
            ),
        )
        out = self._residuals.get(key)
        if out is None:
            out = self._state(inst.decl)
            for tag in inst.tags():
                out = self._derive(out, tag)
            self._residuals[key] = out
        return out

    def _state(self, t: TypeExpr) -> int:
        state = self._state_of.get(t)
        if state is None:
            state = self._state_of[t] = len(self._types)
            self._types.append(t)
            self._usable.append(self.alg.usable(t))
        return state

    def _derive(self, state: int, tag: str) -> int:
        out = self._delta.get((state, tag))
        if out is None:
            out = self._delta[state, tag] = self._state(
                self.alg.derivative(self._types[state], tag)
            )
        return out

    # --- reactions ----------------------------------------------------------

    def settle(self):
        """Re-weigh the objects whose mailbox changed and run monitors."""
        for inst in self._touched:
            weights = []
            for need in inst.needs:
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
            if self.monitors and self.violation is None:
                self.monitor(inst)
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
        for tag, k in inst.needs[rule_idx]:
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
        rule = inst.node.rules[rule_idx]
        self.steps += 1

        consumed: list[Message] = []
        for msg, count in selection:
            msgs = inst.mailbox[msg[0]]
            left = msgs[msg] - count
            if left:
                msgs[msg] = left
            else:
                del msgs[msg]
                if not msgs:
                    del inst.mailbox[msg[0]]
            consumed.extend([msg] * count)
        if self.monitors:
            inst.residual = self.residual(inst)
        self._touched[inst] = None

        env = dict(inst.env)
        by_tag: dict[str, list[Message]] = {}
        for msg in consumed:
            by_tag.setdefault(msg[0], []).append(msg)
        for pat in rule.pattern:
            msg = by_tag[pat.tag].pop()
            for param, value in zip(pat.params, msg[1]):
                env[param] = value
        if self.tracing:
            self.emit(
                "react",
                repr(inst.oid),
                ",".join(m.tag for m in rule.pattern),
                " ".join(
                    f"{t}({', '.join(_fmt(v) for v in vs)})"
                    for t, vs in consumed
                ),
            )
        self.heat(rule.body, env)
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
        nullable = functools.cache(lambda s: self.alg.nullable(self._types[s]))
        for inst in self.instances:
            if not nullable(inst.residual):
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
        return all(self._usable[self.residual(inst)] for inst in self.instances)


def run(
    program: CoreProgram,
    seed: int = 0,
    max_steps: int = 100_000,
    monitors: bool = True,
    trace: bool = False,
) -> RunResult:
    soup: Optional[Soup] = None
    verdict, stuck = "StepBudgetExhausted", []
    try:
        soup = Soup(program, seed=seed, monitors=monitors, trace=trace)
        while soup.violation is None and soup.steps < max_steps:
            if not soup.step():
                stuck = soup.quiesce()
                verdict = "Deadlocked" if stuck else "Terminated"
                break
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
    )


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
        while i < len(tree):
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
