"""Execution of core programs as a chemical soup.

Objects are molecules-with-rules: each carries a mailbox (a multiset of
messages) and fires a rule whenever the mailbox covers the rule's pattern.
The scheduler repeatedly picks one enabled reaction uniformly at random,
so runs are reproducible from the seed alone.  A reaction is an (object,
rule, selection) triple, where equal payloads count once.  Rather than list
the triples, the soup keeps how many selections each rule of each object
has and draws an index by weight (Gillespie's direct method, with a Fenwick
tree over objects).  `step` draws the index; `fire` descends the tree to
the object, picks the rule by its weight, then walks the rule's tags once,
in sorted order: each tag's digit of the index (a mixed radix) names the
message, which is taken out of the mailbox and bound to the parameters
that `_compile` aligned with that order.  A rule taking one tag k >= 2
times keeps, per object and tag, the ways to take m <= k messages as a
polynomial truncated after x^k, so a delivery or a consumption updates
the count in O(k) instead of recounting every payload; a firing decodes
its pick from a copy of the same polynomial.  An object's env holds only
its rules' free names; a firing copies it into a frame of its own.  A
`Plan` compiles a program once (`joinstate fuzz` runs every seed on one),
into one `Kind` per `new` node that every object the node spawns shares,
so an `Instance` holds only run state.  Its set-up is the checker's own
declarations, made as the walk reaches each `new` node: a rule variable
is declared only when a continuation's type reads it, and the caps come
from per-slot bounds read off the type, with no Parikh image.

The soup holds only objects that can still act, and those quiescence
reads.  Between steps, once it holds 1.5 times what the last collection
kept (and at least 256 objects), it drops every object that no object
holding a message reaches through the ids in envs and payloads: a
reaction sends only to what its object's env and messages name, or to
what it creates (Kafura, Washabaugh & Nelson 1990).  A dropped object
holds no message, so its weight is already 0 and no draw changes.  An
object whose declared type is not nullable is kept.  Every object holding
no message shares one empty mailbox.

Optional monitors ask, of each object whose mailbox grew, whether the
per-tag message counts that `deliver` and `fire` keep fit its declared
type's caps (`semilinear.fits`), which a plan looks up once per `new`
node; a mailbox that only shrank still fits.  If not, the program has
broken its protocol and the run stops.  When no reaction is enabled the
run has quiesced, even on its last allowed step.  It is a deadlock if
some leftover message carries an object at an argument that a slot of its
tag and arity marks as relevant: somebody waits forever.
Otherwise, with monitors on, the declared type derived by each mailbox's
tags must be nullable: a mailbox holding only part of a configuration of
its protocol means a message was sent too many or too few times.
Arithmetic faults (overflow: a result that is not finite), arithmetic on
booleans, a condition that is not a boolean, `Pow` outside its domain,
objects passed to a builtin as numbers, sends to methods the builtin
objects lack and a message taken by a pattern of another arity end the run
as a RuntimeFault.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Optional

from . import types as ty
from .checker import Checker, resolve_closure_types
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
from .semilinear import fits, tag_caps
from .types import TypeExpr

Value = object  # float | bool | ObjId


@dataclass(frozen=True, order=True, slots=True)
class ObjId:
    serial: int
    text: str = field(compare=False)

    def __hash__(self):
        return self.serial

    def __deepcopy__(self, memo):
        # Immutable, and call_builtin tests SYSTEM_ID and NUMBER_ID by
        # identity, so an id is its own copy.
        return self

    def __repr__(self):
        return f"{self.text}@{self.serial}"


SYSTEM_ID = ObjId(-1, "System")
NUMBER_ID = ObjId(-2, "Number")

# A message is (tag, argument values); mailboxes collapse equal payloads.
Message = tuple[str, tuple[Value, ...]]
# Binder uid -> value.  An object's env is never written; a frame belongs
# to one firing, or to the soup's start, and `spawn` binds in it in place.
Env = dict[int, Value]
# The one env of every object whose rules read no outer name, and the one
# mailbox and counts of every object holding no message.  Never written:
# `deliver` gives an empty mailbox dicts of its own.
_EMPTY: dict = {}
ProcCode = Callable[["Soup", Env], None]


@dataclass(frozen=True, eq=False, slots=True)
class Kind:
    """What every object of one `new` node shares, fixed at compile time."""

    node: NewObj
    decl: TypeExpr
    # The declared type's `tag_caps`, which the monitors test counts against.
    caps: list[dict[str, float]]
    # Per rule: the (tag, copies, parameter uids) it takes, sorted by tag;
    # its compiled body; and its pattern's tags, for the trace.  With k >= 2
    # copies of a tag, the parameters are k uid lists in reverse pattern
    # order, so they zip with the messages in the order they are taken.
    rules: tuple[tuple[tuple[tuple[str, int, list], ...], ProcCode, str], ...]
    # Each tag a rule takes k >= 2 copies of -> its largest k; the names the
    # rules read, less their parameters: all an object's env keeps.
    multi: dict[str, int]
    free: frozenset[int]


@dataclass(eq=False, slots=True)
class Instance:
    oid: ObjId
    kind: Kind
    env: Env
    # Per rule, the number of distinct selections the mailbox allows.
    weights: list[int]
    # For each tag of kind.multi, the ways to take m messages of it, for m up
    # to its k; None when no rule takes a tag twice.
    picks: Optional[dict[str, list[int]]]
    # tag -> distinct message -> multiplicity; tags with no messages absent.
    mailbox: dict[str, dict[Message, int]]
    # tag -> number of messages, copies counted; kept beside the mailbox.
    counts: dict[str, int]

    def tags(self) -> list[str]:
        """The mailbox's tags, one per message, sorted."""
        return [tag for tag in sorted(self.counts) for _ in range(self.counts[tag])]


@dataclass(frozen=True)
class TraceEvent:
    step: int
    kind: str  # "new" | "react" | "print" | "deadlock"
    obj: str
    tags: str
    detail: str


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
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


class RuntimeError_(Exception):
    pass


def _numbers(target: ObjId, tag: str, values: tuple[Value, ...]):
    # Only an unchecked program passes an object; booleans print as such.
    for v in values:
        if isinstance(v, ObjId):
            raise RuntimeError_(f"{target.text}!{tag} takes numbers, not {v!r}")


def _arity_fault(tag: str, args: tuple, params: list) -> RuntimeError_:
    # Only an unchecked program sends a message its pattern does not fit.
    return RuntimeError_(
        f"message {tag}/{len(args)} taken by a pattern {tag}/{len(params)}"
    )


# What a well-formed program can still raise while it runs: `/` or `%` by
# zero and `Pow` outside its domain (math.fmod and math.pow raise
# ValueError), overflow, and sends to methods the builtin objects lack.
RUNTIME_FAULTS = (ArithmeticError, ValueError, RuntimeError_)

# The fewest held objects that start a collection; after one, the soup
# collects again once it holds 1.5 times what that one kept, so the walks
# cost O(1) amortized per object created.
_MIN_COLLECT = 256


class Plan:
    """A program compiled once: its type algebra and its start closure."""

    __slots__ = ("alg", "start")

    def __init__(self, program: CoreProgram):
        checker = Checker(program)  # _compile declares each object in it
        self.alg, self.start = checker.alg, _compile(program.process, set(), checker)


class Soup:
    def __init__(
        self, program: Plan | CoreProgram, seed: int = 0, monitors: bool = True,
        trace: bool = False,
    ):
        plan = program if isinstance(program, Plan) else Plan(program)
        self.alg = plan.alg
        self.rng = random.Random(seed)
        self.monitors = monitors
        self.tracing = trace
        self.trace: list[TraceEvent] = []
        self.outputs: list[float] = []
        # Serial -> object, in serial order: every object that can still
        # act, and maybe some that cannot, until the next collection.
        self.instances: dict[int, Instance] = {}
        self._serial = 0
        # Collect once this many objects are held.
        self._collect_at = _MIN_COLLECT
        self.created: dict[str, int] = {}
        self.steps = 0
        self.violation: Optional[str] = None
        # Each object's total selection count, indexed by serial; objects
        # whose mailbox changed are re-weighed in settle().
        self._enabled = _Fenwick()
        # Object -> whether its mailbox grew; ordered, so monitors run in a
        # seed-determined order.
        self._touched: dict[Instance, bool] = {}
        # Objects whose mailbox does not fit their protocol, kept by spawn
        # and settle from the first check_solution call on (None before).
        self._misfits: Optional[set[Instance]] = None
        plan.start(self, {SYSTEM.uid: SYSTEM_ID, NUMBER_OBJ.uid: NUMBER_ID})
        self.settle()

    # --- tracing ------------------------------------------------------------

    def emit(self, kind: str, obj: str, tags: str, detail: str):
        if self.tracing:
            self.trace.append(TraceEvent(self.steps, kind, obj, tags, detail))

    # --- heating ------------------------------------------------------------

    def spawn(self, kind: Kind, env: Env):
        """Create an object of kind and bind it in the frame env, which its
        body runs in.  It keeps only the entries for the kind's free names."""
        self._serial += 1
        name, free, multi = kind.node.name, kind.free, kind.multi
        oid = ObjId(self._serial, name.text)
        env[name.uid] = oid
        inst = Instance(
            oid, kind, {uid: env[uid] for uid in free} if free else _EMPTY,
            [0] * len(kind.rules),
            {tag: [1] + [0] * k for tag, k in multi.items()} if multi else None,
            _EMPTY, _EMPTY,
        )
        self.instances[self._serial] = inst
        if self._misfits is not None and not fits(kind.caps, inst.counts):
            self._misfits.add(inst)
        self.created[name.text] = self.created.get(name.text, 0) + 1
        if self.tracing:
            self.emit("new", repr(oid), "", ty.render(kind.decl))

    def call_builtin(self, target: ObjId, msg: Message):
        tag, args = msg
        if target is SYSTEM_ID and tag == "Print" and len(args) == 1:
            _numbers(target, tag, args)
            self.outputs.append(args[0])
            self.emit("print", "System", tag, _fmt(args[0]))
        elif target is NUMBER_ID and tag == "Pow" and len(args) == 3:
            base, exp, reply = args
            _numbers(target, tag, (base, exp))
            self.deliver(reply, ("Reply", (math.pow(base, exp),)))
        else:
            raise RuntimeError_(f"{target.text} has no method {tag}/{len(args)}")

    def deliver(self, target: Value, msg: Message):
        if not isinstance(target, ObjId) or target.serial < 1:
            raise RuntimeError_(f"message {msg[0]} sent to non-object {target!r}")
        inst = self.instances[target.serial]
        tag = msg[0]
        mailbox = inst.mailbox
        if not mailbox:
            inst.mailbox, inst.counts = {tag: {msg: 1}}, {tag: 1}
            copies = 1
        elif (msgs := mailbox.get(tag)) is None:
            mailbox[tag] = {msg: 1}
            inst.counts[tag] = copies = 1
        else:
            copies = msgs.get(msg, 0) + 1
            msgs[msg] = copies
            inst.counts[tag] += 1
        if inst.picks and tag in inst.picks:
            _regroup(inst.picks[tag], copies - 1, copies)
        self._touched[inst] = True

    # --- reactions ----------------------------------------------------------

    def settle(self):
        """Re-weigh the objects whose mailbox changed, and run monitors and
        the check_solution test on them: one `fits` call each, skipped for
        a mailbox that only shrank and fitted, as `fits` is downward
        closed."""
        misfits = self._misfits
        tested = misfits is not None or self.monitors
        for inst, grew in self._touched.items():
            mailbox, picks, weights = inst.mailbox, inst.picks, inst.weights
            delta = 0
            for i, (takes, _, _) in enumerate(inst.kind.rules):
                w = 1
                for tag, k, _ in takes:
                    msgs = mailbox.get(tag)
                    if not msgs:
                        w = 0
                        break
                    w *= len(msgs) if k == 1 else picks[tag][k]
                if w != weights[i]:
                    delta += w - weights[i]
                    weights[i] = w
            if delta:
                self._enabled.add(inst.oid.serial, delta)
            if not tested or not (grew or (misfits and inst in misfits)):
                continue
            if fits(inst.kind.caps, inst.counts):
                if misfits:
                    misfits.discard(inst)
                continue
            if misfits is not None:
                misfits.add(inst)
            if self.monitors and self.violation is None:
                self.violation = (
                    f"{inst.oid!r} holds messages [{','.join(inst.tags())}] "
                    f"outside its protocol {ty.render(inst.kind.decl)}"
                )
        self._touched.clear()

    def enabled_count(self) -> int:
        """The number of enabled (object, rule, selection) triples."""
        return self._enabled.total

    def fire(self, index: int):
        """Fire the enabled reaction with the given index, 0 <= index <
        enabled_count(), and settle the soup.  Indices run over objects by
        serial, then over each object's rules in order, then over a rule's
        selections in mixed radix, one digit per tag it takes, in tag
        order; each index names a distinct (object, rule, selection) triple.
        One walk of the rule decodes each digit, takes the messages out of
        the mailbox and binds the rule's parameters to them."""
        # Descend the Fenwick tree to the object whose weight covers index.
        tree = self._enabled.tree
        pos, bit, r = 0, len(tree) - 1, index
        while bit:
            nxt = pos + bit
            if tree[nxt] <= r:
                pos = nxt
                r -= tree[nxt]
            bit >>= 1
        inst = self.instances[pos + 1]
        rule_idx = 0
        for w in inst.weights:
            if r < w:
                break
            r -= w
            rule_idx += 1
        takes, body, label = inst.kind.rules[rule_idx]
        self.steps += 1

        mailbox, counts, picks = inst.mailbox, inst.counts, inst.picks
        tracing = self.tracing
        env = dict(inst.env)
        consumed: list[Message] = []
        for tag, k, params in takes:
            msgs = mailbox[tag]
            if k == 1:
                if len(msgs) > 1:
                    r, j = divmod(r, len(msgs))
                    msg, copies = next(islice(msgs.items(), j, None))
                else:
                    msg, copies = next(iter(msgs.items()))
                if len(msg[1]) != len(params):
                    raise _arity_fault(tag, msg[1], params)
                env.update(zip(params, msg[1]))
                if tracing:
                    consumed.append(msg)
                if picks and tag in picks:
                    _regroup(picks[tag], copies, copies - 1)
                if copies > 1:
                    msgs[msg] = copies - 1
                elif len(msgs) > 1:
                    del msgs[msg]
                else:
                    del mailbox[tag], counts[tag]
                    continue
                counts[tag] -= 1
            else:
                r, taken = _unrank_picks(picks[tag], msgs.items(), k, r)
                group: list[Message] = []
                for msg, n in taken:
                    copies = msgs[msg]
                    if copies > n:
                        msgs[msg] = copies - n
                    else:
                        del msgs[msg]
                    _regroup(picks[tag], copies, copies - n)
                    group += [msg] * n
                for uids, msg in zip(params, group):
                    if len(msg[1]) != len(uids):
                        raise _arity_fault(tag, msg[1], uids)
                    env.update(zip(uids, msg[1]))
                consumed += group
                if msgs:
                    counts[tag] -= k
                else:
                    del mailbox[tag], counts[tag]
        if not mailbox:  # A dict keeps its table after its last key goes.
            inst.mailbox = inst.counts = _EMPTY
        self._touched[inst] = False

        if tracing:
            self.emit(
                "react",
                repr(inst.oid),
                label,
                " ".join(
                    f"{t}({', '.join(_fmt(v) for v in vs)})" for t, vs in consumed
                ),
            )
        body(self, env)
        self.settle()

    def step(self) -> bool:
        """Fire one reaction drawn uniformly from the enabled ones, then
        collect if the soup holds enough objects; False when the soup has
        quiesced."""
        if not self._enabled.total:
            return False
        self.fire(self.rng.randrange(self._enabled.total))
        if len(self.instances) >= self._collect_at:
            self.collect()
        return True

    # --- collection ---------------------------------------------------------

    def reachable(self, roots: Iterable[Instance]) -> set[int]:
        """The serials of the held objects that the given objects reach,
        themselves included, through the object ids in envs and in mailbox
        payloads."""
        instances = self.instances
        seen: set[int] = set()
        todo = [inst.oid.serial for inst in roots]
        while todo:
            serial = todo.pop()
            # System and Number are not held, nor what a kept unreachable
            # object names.
            if serial in seen or (inst := instances.get(serial)) is None:
                continue
            seen.add(serial)
            for v in inst.env.values():
                if v.__class__ is ObjId and v.serial not in seen:
                    todo.append(v.serial)
            for msgs in inst.mailbox.values():
                for _, args in msgs:
                    for v in args:
                        if v.__class__ is ObjId and v.serial not in seen:
                            todo.append(v.serial)
        return seen

    def collect(self):
        """Drop every object that no reaction can reach again: those that
        no object holding a message reaches (a reaction only sends to what
        its object's env and messages name, or to what it creates).  An
        object whose declared type is not nullable stays, so that `quiesce`
        still finds it short of a configuration.  A dropped object holds no
        message, so its weight is already 0 and no draw changes."""
        held, nullable = self.instances, self.alg.nullable
        live = self.reachable([inst for inst in held.values() if inst.mailbox])
        # Asked here rather than once per `new` node when the program is
        # compiled, so a run that never collects never asks; memoized by term.
        self.instances = {
            serial: inst for serial, inst in held.items()
            if serial in live or not nullable(inst.kind.decl)
        }
        self._collect_at = max(_MIN_COLLECT, len(self.instances) * 3 // 2)

    # --- end states ---------------------------------------------------------

    def stuck_objects(self) -> list[ObjId]:
        """Objects holding a leftover message that carries an object at an
        argument somebody still relies on: a relevant argument of a slot of
        the message's tag and arity.  Nonempty at quiescence means
        deadlock."""
        alg, out = self.alg, []
        for inst in self.instances.values():
            mailbox = inst.mailbox
            if mailbox and any(
                isinstance(args[i], ObjId)
                for slot in alg.heads(inst.kind.decl) if slot.tag in mailbox
                for i, a in enumerate(slot.args) if alg.relevant(a)
                for _, args in mailbox[slot.tag] if len(args) == len(slot.args)
            ):
                out.append(inst.oid)
        return out

    def quiesce(self) -> list[ObjId]:
        """Judge a soup where no reaction is enabled: the stuck objects,
        each traced.  With none stuck and monitors on, the first mailbox
        holding only part of a configuration of its protocol (the declared
        type derived by its tags is not nullable) is a violation."""
        stuck = self.stuck_objects()
        for oid in stuck:
            tags = ",".join(self.instances[oid.serial].tags())
            self.emit("deadlock", repr(oid), tags, "")
        if stuck or not self.monitors:
            return stuck
        alg = self.alg
        for inst in self.instances.values():
            if not alg.nullable(alg.derivative_config(inst.kind.decl, inst.tags())):
                self.violation = (
                    f"{inst.oid!r} ends with messages "
                    f"[{','.join(inst.tags())}], short of a whole "
                    f"configuration of its protocol {ty.render(inst.kind.decl)}"
                )
                break
        return stuck

    def check_solution(self) -> bool:
        """Whether every object's mailbox still fits its protocol: the
        re-typing invariant the scheduler is expected to preserve.  The
        first call tests every object; from then on spawn tests each new
        one and settle each one whose mailbox grew or did not fit, so a
        call only reads the answer."""
        if self._misfits is None:
            self._misfits = {
                i for i in self.instances.values() if not fits(i.kind.caps, i.counts)
            }
        return not self._misfits


def run(
    program: Plan | CoreProgram,
    seed: int = 0,
    max_steps: int = 100_000,
    monitors: bool = True,
    trace: bool = False,
    check_solution: bool = False,
) -> RunResult:
    """Run program, or a plan of it, from seed until it quiesces, a monitor
    or fault stops it, or max_steps steps have fired and a step is still
    enabled.  With check_solution, the soup's re-typing invariant is tested
    on the initial soup and after every step until it first fails."""
    soup: Optional[Soup] = None
    verdict, stuck, failed = "StepBudgetExhausted", [], False
    try:
        soup = Soup(program, seed=seed, monitors=monitors, trace=trace)
        failed = check_solution and not soup.check_solution()
        while soup.violation is None:
            # A soup that quiesced on its last allowed step is judged.
            if soup.steps >= max_steps and soup.enabled_count():
                break
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
# them the RNG draws follow the order of the source.  The same walk adds to
# `reads` the uids the code reads from outside it (Shao & Appel 1994), and
# declares each object in `checker` before the code that can refer to it;
# rule variables wait in `checker.pending` until a continuation reads one.

_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": math.fmod,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile(p: Process, reads: set[int], checker: Checker) -> ProcCode:
    if isinstance(p, Send):
        uid = p.target.uid
        reads.add(uid)
        molecule = [
            (m.tag, [_compile_expr(a, reads) for a in m.args]) for m in p.molecule
        ]

        def send(soup, env):
            target = env[uid]
            builtin = target is SYSTEM_ID or target is NUMBER_ID
            deliver = soup.call_builtin if builtin else soup.deliver
            for tag, args in molecule:
                deliver(target, (tag, tuple([a(env) for a in args])))

        return send
    if isinstance(p, Par):
        parts = [_compile(q, reads, checker) for q in p.parts]

        def par(soup, env):
            for part in parts:
                part(soup, env)

        return par
    if isinstance(p, NewObj):
        decl = resolve_closure_types(checker, p)
        caps = tag_caps(checker.alg, decl)
        rules = []
        multi: dict[str, int] = {}
        # What the rule bodies read, less the parameters they bind.
        free: set[int] = set()
        bound: list[int] = []
        for r in p.rules:
            params: dict[str, list[list[int]]] = {}
            for m in r.pattern:
                uids = [n.uid for n in m.params]
                params.setdefault(m.tag, []).append(uids)
                bound += uids
            takes = []
            for tag, uids in sorted(params.items()):
                k = len(uids)
                if k == 1:
                    takes.append((tag, 1, uids[0]))
                else:
                    # The first pattern message binds the last copy taken.
                    takes.append((tag, k, uids[::-1]))
                    multi[tag] = max(k, multi.get(tag, 0))
            label = ",".join([m.tag for m in r.pattern])
            rules.append((tuple(takes), _compile(r.body, free, checker), label))
        free.difference_update(bound)
        kind = Kind(p, decl, caps, tuple(rules), multi, frozenset(free))
        body = _compile(p.body, reads, checker)
        reads |= free
        reads.discard(p.name.uid)

        def new(soup, env):
            soup.spawn(kind, env)
            body(soup, env)

        return new
    if isinstance(p, If):
        cond = _compile_expr(p.cond, reads)
        then, els = _compile(p.then, reads, checker), _compile(p.els, reads, checker)

        def if_(soup, env):
            c = cond(env)
            if c.__class__ is not bool:  # only in an unchecked program
                raise RuntimeError_(f"condition must be a boolean, got {_fmt(c)}")
            (then if c else els)(soup, env)

        return if_
    if isinstance(p, Done):
        return lambda soup, env: None
    raise TypeError(f"not a process: {p!r}")


def _compile_expr(e: Expr, reads: set[int]) -> Callable[[Env], Value]:
    if isinstance(e, Var):
        reads.add(e.name.uid)
        return operator.itemgetter(e.name.uid)
    if isinstance(e, (NumLit, BoolLit)):
        value = e.value
        return lambda env: value
    if isinstance(e, BinOp):
        left, right = _compile_expr(e.left, reads), _compile_expr(e.right, reads)
        op, apply, arith = e.op, _BINOPS[e.op], e.op in ("+", "-", "*", "/", "%")
        isfinite = math.isfinite

        def binop(env):
            a = left(env)
            b = right(env)
            # Only an unchecked program gets here with an object, or a bool
            # in arithmetic (Python's bool is an int).
            try:
                if arith and (a.__class__ is bool or b.__class__ is bool):
                    raise TypeError
                value = apply(a, b)
            except TypeError:
                raise RuntimeError_(
                    f"cannot apply {op} to {_fmt(a)} and {_fmt(b)}"
                ) from None
            if arith and not isfinite(value):  # a float overflows to inf
                raise OverflowError(f"{_fmt(a)} {op} {_fmt(b)} overflows")
            return value

        return binop
    raise TypeError(f"not an expression: {e!r}")


def _regroup(ways, old, new):
    """Change one payload group's capacity from old to new in ways, where
    ways[m] counts the ways to take m items from all groups (m <= k).  ways
    holds the product of each group's 1 + x + ... + x^cap truncated after
    x^k.  As 1 + x + ... + x^cap is (1 - x^(cap+1)) / (1 - x), the group's
    factor is swapped in place, in exact integers and O(k): divide by
    1 - x^(old+1), then multiply by 1 - x^(new+1)."""
    k = len(ways) - 1
    step = old + 1
    for j in range(step, k + 1):
        ways[j] += ways[j - step]
    step = new + 1
    for j in range(k, step - 1, -1):
        ways[j] -= ways[j - step]


def _unrank_picks(ways, groups, k, r):
    """Split r into (r // ways[k], pick), where ways counts the ways to take
    m items from the (payload, capacity) groups, as `_regroup` keeps it,
    and pick is way number r % ways[k] to take k items, as (payload, taken)
    pairs.  Ways are ordered by the first group's take, largest first, then
    by the ways of the rest, whose count is what dividing that group's
    factor out of a copy of ways leaves."""
    r, j = divmod(r, ways[k])
    rest = list(ways)
    pick = []
    for msg, cap in groups:
        _regroup(rest, cap, 0)
        for take in range(min(k, cap), -1, -1):
            count = rest[k - take]
            if j < count:
                break
            j -= count
        if take:
            pick.append((msg, take))
            k -= take
            if not k:
                break
    return r, pick


class _Fenwick:
    """Nonnegative integer weights indexed from 1, all zero at first, with
    O(log n) update (Fenwick 1994); Soup.fire descends the tree to draw by
    weight.  The capacity is a power of two and doubles on demand."""

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
