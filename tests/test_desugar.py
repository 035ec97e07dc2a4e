"""Lowering tests: classes, synchronous calls, closures, anonymous blocks."""

import pytest

from joinstate import types as ty
from joinstate.core import (
    NUMBER_OBJ,
    SYSTEM,
    BinOp,
    Done,
    If,
    NewObj,
    Par,
    Send,
    Var,
)
from joinstate.desugar import (
    CLOSURE_TAG,
    DesugarError,
    capture,
    load_program,
)

FUTURE_CLASS = """
type #Future = (EMPTY · Resolve(#Number) + RESOLVED(#Number)) · *Get(Reply(#Number))
and  #FutureUse = Resolve(#Number) · *Get(Reply(#Number))

class Future [
  New(r: Reply(#FutureUse)) |>
    new this : #Future [
        EMPTY & Resolve(n) |> this!RESOLVED(n)
      | RESOLVED(n) & Get(user) |> user!Reply(n) & this!RESOLVED(n)
    ] in this!EMPTY & r!Reply(this)
]
"""


def collect_news(p, out=None):
    if out is None:
        out = []
    if isinstance(p, NewObj):
        out.append(p)
        for r in p.rules:
            collect_news(r.body, out)
        collect_news(p.body, out)
    elif isinstance(p, Par):
        for q in p.parts:
            collect_news(q, out)
    elif isinstance(p, If):
        collect_news(p.then, out)
        collect_news(p.els, out)
    return out


def by_text(news, text):
    return [n for n in news if n.name.text == text]


class TestBasics:
    def test_names_become_unique(self):
        prog = load_program(
            "new a : A [ A |> done ] in new a : A [ A |> done ] in a!A"
        )
        outer = prog.process
        inner = outer.body
        assert outer.name.text == inner.name.text == "a"
        assert outer.name != inner.name
        assert inner.body.target == inner.name

    def test_builtins_resolve(self):
        prog = load_program("System!Print(1) & Number!Pow(2, 3, System)")
        first, second = prog.process.parts
        assert first.target == SYSTEM
        assert second.target == NUMBER_OBJ

    def test_unknown_name_rejected(self):
        with pytest.raises(DesugarError, match="unknown name"):
            load_program("obj!A")

    def test_unknown_type_rejected(self):
        with pytest.raises(DesugarError, match="unknown type name"):
            load_program("new a : #Missing [ A |> done ] in a!A")

    @pytest.mark.parametrize(
        "src,where",
        [
            ("new a : #Missing . 0 [ A |> done ] in done", "1:9"),
            ("type #T = #Missing . 0\nnew a : #T [ A |> done ] in done", "1:11"),
            ("type #A = M(#Missing)\nnew o : #A [ M(x) |> done ] in done", "1:13"),
        ],
    )
    def test_unknown_type_rejected_where_zero_absorbs_it(self, src, where):
        with pytest.raises(DesugarError, match=f"{where}: unknown type name #Missing"):
            load_program(src)

    def test_pure_let_substitutes(self):
        prog = load_program("let x = 1 + 2 in System!Print(x)")
        send = prog.process
        assert isinstance(send, Send)
        arg = send.molecule[0].args[0]
        assert isinstance(arg, BinOp) and arg.op == "+"

    def test_repeated_pattern_variable_rejected(self):
        with pytest.raises(DesugarError, match="repeated"):
            load_program("new a : A(B, B) [ A(x, x) |> done ] in done")

    @pytest.mark.parametrize(
        "src,message",
        [
            (
                "new a : A(B) [ A(x: B) |> done ] in done",
                "1:16: only class rule parameters take annotations",
            ),
            (
                "class K [ New(n: #Number, r) |> done ] done",
                "1:11: class rule parameter 'r' needs a type annotation",
            ),
            (
                "class K [ M(n: #Number) & N |> done ] done",
                "1:1: a class rule matches exactly one message",
            ),
            (
                "new o : M(R(#Number)) [ M(r) |> done ] in "
                "o!M([ R(v: #Number) |> done ])",
                "1:49: anonymous block parameters take their types from the "
                "receiving slot and cannot be annotated",
            ),
            # Repetition is reported first in every kind of block.
            (
                "new o : M(R(#Number, #Number)) [ M(r) |> done ] in "
                "o!M([ R(v, v: #Number) |> done ])",
                "1:58: pattern variable 'v' repeated",
            ),
            # A let that binds a value, or binds two results of no call.
            ("let x = 1 in x!A", "1:14: 'x' does not name an object here"),
            (
                "let a, b = 1 in done",
                "1:1: multiple results require a synchronous call on the "
                "right-hand side",
            ),
        ],
    )
    def test_pattern_variable_errors(self, src, message):
        with pytest.raises(DesugarError) as info:
            load_program(src)
        assert str(info.value) == message


class TestClasses:
    def test_class_becomes_stateless_star(self):
        prog = load_program(FUTURE_CLASS + "Future!New(System)")
        cls = prog.process
        assert isinstance(cls, NewObj) and cls.stateless
        assert cls.decl == ty.Star(
            ty.Msg("New", (ty.Msg("Reply", (ty.Ref("#FutureUse"),)),))
        )
        assert isinstance(cls.body, Send) and cls.body.target == cls.name

    def test_class_rule_needs_annotations(self):
        with pytest.raises(DesugarError, match="annotation"):
            load_program("class K [ New(r) |> done ] done")

    def test_class_is_recursive(self):
        prog = load_program(
            "class K [ New(n: #Number) |> K!New(n) ] K!New(1)"
        )
        cls = prog.process
        assert cls.rules[0].body.target == cls.name


class TestSyncCalls:
    def test_capture_free_call(self):
        # The reply value flows straight into a print: nothing is captured.
        prog = load_program(
            FUTURE_CLASS + "let f = Future.New in System!Print(f.Get)"
        )
        news = collect_news(prog.process)
        conts = by_text(news, "cont")
        assert len(conts) == 2
        for cont in conts:
            assert cont.closure is not None
            assert cont.closure.captured == ()
            [rule] = cont.rules
            assert [m.tag for m in rule.pattern] == ["Reply"]

    def test_let_with_capture_threads_closure(self):
        src = FUTURE_CLASS + (
            "let future = Future.New in"
            " future!Resolve(41) & System!Print(future.Get)"
        )
        prog = load_program(src)
        news = collect_news(prog.process)
        outer = by_text(news, "cont")[0]
        # The outer continuation binds `future`; the inner Get continuation
        # only prints, so it captures nothing.
        inner = by_text(news, "cont")[1]
        assert outer.closure.captured == ()
        assert inner.closure.captured == ()
        [rule] = outer.rules
        assert rule.pattern[0].params[0].text == "future"

    def test_nested_call_in_expression_captures(self):
        # future.Get feeds future!Resolve, so the inner continuation must
        # capture `future` through a CLOSURE message.
        src = FUTURE_CLASS + (
            "let future = Future.New in future!Resolve(future.Get)"
        )
        prog = load_program(src)
        news = collect_news(prog.process)
        conts = by_text(news, "cont")
        inner = [c for c in conts if c.closure.captured][0]
        assert [n.text for n in inner.closure.captured] == ["future"]
        [rule] = inner.rules
        assert [m.tag for m in rule.pattern] == [CLOSURE_TAG, "Reply"]
        # The CLOSURE send and the Get send sit side by side.
        assert isinstance(inner.body, Par)
        tags = sorted(s.molecule[0].tag for s in inner.body.parts)
        assert tags == [CLOSURE_TAG, "Get"]

    def test_sync_origin_points_at_slot(self):
        prog = load_program(FUTURE_CLASS + "let f = Future.New in f!Resolve(1)")
        cont = by_text(collect_news(prog.process), "cont")[0]
        spec = cont.closure
        assert spec.index == -1 and spec.tag == "New"
        assert spec.target.text == "Future"

    def test_multi_result_let(self):
        src = """
        new src : FROM(#Number) · Get(Reply(#Number, Get(Reply(#Number)))) [
            FROM(n) & Get(target) |> target!Reply(n, src)
        ] in
        src!FROM(7) &
        let n, rest = src.Get in System!Print(n) & rest!Get(rest)
        """
        prog = load_program(src)
        cont = by_text(collect_news(prog.process), "cont")[0]
        [rule] = cont.rules
        reply = rule.pattern[-1]
        assert [p.text for p in reply.params] == ["n", "rest"]

    def test_closed_program_has_no_free_names(self):
        prog = load_program(
            FUTURE_CLASS + "let f = Future.New in System!Print(f.Get)"
        )
        assert capture(prog.process, lambda n: n)[1] == {}


class TestAnonymousBlocks:
    SRC = """
    class Worker [
      New(n: #Number, parent: Reply(#Number)) |>
        new this : Reply(#Number) · Left(#Number) [
          Reply(v) & Left(w) |> parent!Reply(v + w)
        ] in
        if n = 0 then this!(Reply(1) & Left(2))
        else Worker!New(n - 1, [ Reply(v) |> this!Left(v) ]) & this!Reply(3)
    ]
    Worker!New(2, System)
    """

    def test_anon_block_captures_receiver(self):
        prog = load_program(self.SRC)
        anon = by_text(collect_news(prog.process), "anon")[0]
        assert [n.text for n in anon.closure.captured] == ["this"]
        spec = anon.closure
        assert spec.tag == "New" and spec.index == 1
        assert spec.target.text == "Worker"
        [rule] = anon.rules
        assert [m.tag for m in rule.pattern] == [CLOSURE_TAG, "Reply"]

    def test_anon_wraps_only_consuming_send(self):
        prog = load_program(self.SRC)
        anon = by_text(collect_news(prog.process), "anon")[0]
        # body is CLOSURE send & the spawning call, not the sibling Reply.
        assert isinstance(anon.body, Par) and len(anon.body.parts) == 2
        tags = sorted(p.molecule[0].tag for p in anon.body.parts)
        assert tags == [CLOSURE_TAG, "New"]

    def test_block_outside_argument_position_rejected(self):
        with pytest.raises(DesugarError, match="message argument"):
            load_program("let x = [ A |> done ] in done")

    def test_block_with_two_rules_rejected(self):
        with pytest.raises(DesugarError, match="exactly one rule"):
            load_program(
                "new a : A(B + C) [ A(x) |> x!B ] in"
                " a!A([ B |> done | C |> done ])"
            )


class TestOrderedFreeNames:
    def test_order_is_first_occurrence(self):
        prog = load_program(
            "new a : A(B(C), B(C)) [ A(x, y) |> y!B(x) & x!B(y) ] in done"
        )
        body = prog.process.rules[0].body
        assert [n.text for n in capture(body, lambda n: n)[1]] == ["y", "x"]
