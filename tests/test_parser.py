"""Parser tests over the full surface language."""

import pytest

from joinstate import types as ty
from joinstate.parser import (
    MAX_NESTING,
    ParseError,
    SBlock,
    SCall,
    SClass,
    SDone,
    SIf,
    SLet,
    SNew,
    SPar,
    SSend,
    SVar,
    parse_program,
    parse_type,
    tokenize,
)

FUTURE_SRC = """
type #FutureT = (EMPTY · Resolve(#Number) + RESOLVED(#Number)) · *Get(Reply(#Number))
and  #UserT   = READ(Resolve(#Number) · Get(Reply(#Number)))
              + WRITE(Resolve(#Number)) · Reply(#Number) + DONE + 1

new future : #FutureT [
    EMPTY & Resolve(n) |> future!RESOLVED(n)
  | RESOLVED(n) & Get(r) |> future!RESOLVED(n) & r!Reply(n)
] in
future!EMPTY &
new user : #UserT [
    READ(f) |> user!WRITE(f) & f!Get(user)
  | WRITE(f) & Reply(n) |> user!DONE & f!Resolve(n)
] in
user!READ(future)
"""

PI_SRC = """
class Worker [
  New(depth: #Number, from: #Number, parent: Reply(#Number)) |>
    new this : #Worker [
        LEAF(n, parent) |> parent!Reply(4. * (1 - (n % 2) * 2) / (2 * n + 1))
      | BRANCH(parent) & Left(x) & Right(y) |> parent!Reply(x + y)
    ] in
    if depth = 0 then this!LEAF(from, parent)
    else this!BRANCH(parent) &
         let half = from + Number.Pow(2, depth - 1) in
         Worker!New(depth - 1, from, [ Reply(v) |> this!Left(v) ]) &
         Worker!New(depth - 1, half, [ Reply(v) |> this!Right(v) ])
]
System!Print(Worker.New(10, 0))
"""

SIEVE_SRC = """
class Generator [
  New(n: #Number, r: Reply(#Get)) |>
    new this : #Generator [
      FROM(n) & Get(target) |> this!FROM(n + 1) & target!Reply(n, this)
    ] in this!FROM(n) & r!Reply(this)
]
class Filter [
  New(k: #Number, source: #Get, r: Reply(#Get)) |>
    new this : #Filter [
        READY(k, source) & Get(target) |> this!WAIT(k, source, target)
      | WAIT(k, source, target) |>
          let n, source = source.Get in
          if n % k = 0 then this!WAIT(k, source, target)
          else this!READY(k, source) & target!Reply(n, this)
    ] in this!READY(k, source) & r!Reply(this)
]
class Printer [
  New(source: #Get) |>
    new this : #Printer [
      RUN(source) |>
        let n, source = source.Get in
        this!RUN(Filter.New(n, source)) & System!Print(n)
    ] in this!RUN(source)
]
Printer!New(Generator.New(2))
"""


class TestTokenizer:
    def test_unicode_aliases(self):
        toks = tokenize("A · B ▶ done")
        assert [t.kind for t in toks] == ["uident", ".", "uident", "|>", "done", "eof"]

    def test_trailing_dot_number(self):
        toks = tokenize("4. * n")
        assert toks[0].kind == "number" and toks[0].text == "4."
        assert toks[1].kind == "*"

    def test_comments_and_positions(self):
        toks = tokenize("done // trailing\n  obj")
        assert toks[0].pos == (1, 1)
        assert toks[1].text == "obj" and toks[1].pos == (2, 3)

    def test_type_names(self):
        toks = tokenize("#Number #Get")
        assert [t.text for t in toks[:2]] == ["#Number", "#Get"]

    def test_trailing_comment_does_not_move_eof(self):
        assert tokenize("a\n//x")[-1].pos == (2, 1)
        assert tokenize("done // c")[-1].pos == (1, 6)

    @pytest.mark.parametrize(
        "src,expected",
        [
            ("1.a", [("number", "1", (1, 1)), (".", ".", (1, 2)),
                     ("ident", "a", (1, 3)), ("eof", "", (1, 4))]),
            ("1.é", [("number", "1", (1, 1)), (".", ".", (1, 2)),
                     ("ident", "é", (1, 3)), ("eof", "", (1, 4))]),
            ("4.", [("number", "4.", (1, 1)), ("eof", "", (1, 3))]),
            ("1._", [("number", "1.", (1, 1)), ("ident", "_", (1, 3)),
                     ("eof", "", (1, 4))]),
            ("12abc", [("number", "12", (1, 1)), ("ident", "abc", (1, 3)),
                       ("eof", "", (1, 6))]),
            ("\tA\r\n\tB\r C", [("uident", "A", (1, 2)), ("uident", "B", (2, 2)),
                               ("uident", "C", (2, 5)), ("eof", "", (2, 6))]),
            ("A \t\r", [("uident", "A", (1, 1)), ("eof", "", (1, 5))]),
            ("x²", [("ident", "x²", (1, 1)), ("eof", "", (1, 3))]),
            ("é", [("ident", "é", (1, 1)), ("eof", "", (1, 2))]),
            ("٣", [("number", "٣", (1, 1)), ("eof", "", (1, 2))]),
        ],
    )
    def test_token_kinds_texts_and_positions(self, src, expected):
        assert [(t.kind, t.text, t.pos) for t in tokenize(src)] == expected

    @pytest.mark.parametrize(
        "src,message,pos",
        [
            ("#", "bad type name", (1, 1)),
            ("x #", "bad type name", (1, 3)),
            ("@", "unexpected character '@'", (1, 1)),
            ("Ⅻ", "unexpected character 'Ⅻ'", (1, 1)),
            ("a\n\t @", "unexpected character '@'", (2, 3)),
        ],
    )
    def test_errors_name_their_position(self, src, message, pos):
        with pytest.raises(ParseError) as info:
            tokenize(src)
        assert (info.value.plain_message, info.value.pos) == (message, pos)

    @pytest.mark.parametrize(
        "src,pos", [("1²", (1, 2)), ("²", (1, 1)), ("1.²", (1, 3)), ("½", (1, 1))]
    )
    def test_only_decimal_digits_make_numbers(self, src, pos):
        # float() takes exactly the decimal digits; any other digit-like
        # character starts no token.
        with pytest.raises(ParseError) as info:
            tokenize(src)
        assert info.value.pos == pos
        assert info.value.plain_message.startswith("unexpected character")


class TestTypes:
    def test_precedence(self):
        t = parse_type("A · B + *C(D, #Number)")
        assert t == ty.Sum(
            (
                ty.Prod((ty.Msg("A"), ty.Msg("B"))),
                ty.Star(ty.Msg("C", (ty.Msg("D"), ty.NUMBER))),
            )
        )

    def test_units_and_refs(self):
        assert parse_type("0") == ty.ZERO
        assert parse_type("1 + #Number") == ty.Sum((ty.ONE, ty.NUMBER))
        # A standalone type declares no names, so any other one is unknown.
        with pytest.raises(ParseError, match="^1:5: unknown type name #Worker$"):
            parse_type("1 + #Worker")

    def test_star_binds_tighter_than_product(self):
        assert parse_type("*A · B") == ty.Prod((ty.Star(ty.Msg("A")), ty.Msg("B")))


class TestPrograms:
    def test_future_program_shape(self):
        ast = parse_program(FUTURE_SRC)
        assert [name for name, _ in ast.type_decls] == ["#FutureT", "#UserT"]
        outer = ast.process
        assert isinstance(outer, SNew) and outer.name == "future"
        assert len(outer.rules) == 2
        assert [m.tag for m in outer.rules[0].pattern] == ["EMPTY", "Resolve"]
        body = outer.body
        assert isinstance(body, SPar) and len(body.parts) == 2
        assert isinstance(body.parts[0], SSend)
        inner = body.parts[1]
        assert isinstance(inner, SNew) and inner.name == "user"
        assert isinstance(inner.body, SSend) and inner.body.target == "user"

    def test_rule_bodies_are_greedy(self):
        ast = parse_program(FUTURE_SRC)
        rule = ast.process.rules[1]
        assert isinstance(rule.body, SPar) and len(rule.body.parts) == 2

    def test_pi_listing(self):
        ast = parse_program(PI_SRC)
        cls = ast.process
        assert isinstance(cls, SClass) and cls.name == "Worker"
        [rule] = cls.rules
        [pat] = rule.pattern
        assert pat.tag == "New"
        assert [p[0] for p in pat.params] == ["depth", "from", "parent"]
        assert pat.params[0][1] == ty.NUMBER
        assert pat.params[2][1] == ty.Msg("Reply", (ty.NUMBER,))
        constructor = rule.body
        assert isinstance(constructor, SNew)
        branch = constructor.body
        assert isinstance(branch, SIf)
        # The else branch keeps all three parallel parts under the if.
        assert isinstance(branch.els, SPar) and len(branch.els.parts) == 2
        let = branch.els.parts[1]
        assert isinstance(let, SLet) and let.names == ["half"]
        assert isinstance(let.rhs.right, SCall)
        assert let.rhs.right.target == "Number" and let.rhs.right.tag == "Pow"
        spawn = let.body
        assert isinstance(spawn, SPar)
        first = spawn.parts[0]
        assert isinstance(first, SSend)
        assert isinstance(first.msgs[0].args[2], SBlock)
        main = cls.body
        assert isinstance(main, SSend) and main.target == "System"
        assert isinstance(main.msgs[0].args[0], SCall)

    def test_sieve_listing(self):
        ast = parse_program(SIEVE_SRC)
        gen = ast.process
        assert isinstance(gen, SClass) and gen.name == "Generator"
        filt = gen.body
        assert isinstance(filt, SClass) and filt.name == "Filter"
        wait_rule = filt.rules[0].body.rules[1]
        assert [m.tag for m in wait_rule.pattern] == ["WAIT"]
        let = wait_rule.body
        assert isinstance(let, SLet) and let.names == ["n", "source"]
        assert isinstance(let.rhs, SCall) and let.rhs.args == []
        assert isinstance(let.body, SIf)
        printer = filt.body
        assert isinstance(printer, SClass)
        main = printer.body
        assert isinstance(main, SSend) and main.target == "Printer"
        assert isinstance(main.msgs[0].args[0], SCall)

    def test_molecule_send(self):
        ast = parse_program("obj!(A & B(1, x))")
        send = ast.process
        assert isinstance(send, SSend)
        assert [m.tag for m in send.msgs] == ["A", "B"]
        assert isinstance(send.msgs[1].args[1], SVar)

    def test_if_branches_are_greedy(self):
        ast = parse_program("if x = 1 then a!A & b!B else c!C & done")
        assert isinstance(ast.process.then, SPar)
        assert isinstance(ast.process.els, SPar)
        assert isinstance(ast.process.els.parts[1], SDone)

    def test_parenthesized_process_scopes_par(self):
        ast = parse_program("(if x = 1 then done else done) & a!A")
        assert isinstance(ast.process, SPar)
        assert isinstance(ast.process.parts[0], SIf)


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as info:
            parse_program("new x : [ A |> done ] in done")
        assert info.value.pos == (1, 9)

    def test_missing_in(self):
        with pytest.raises(ParseError):
            parse_program("new x : A [ A |> done ] done")

    def test_bad_type_name(self):
        with pytest.raises(ParseError):
            parse_type("# ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_program("done done")

    @pytest.mark.parametrize(
        "parse,src,message,pos",
        [
            (parse_type, "M()", "expected a type, found ')'", (1, 3)),
            (parse_program, "o!M(1,)", "expected an expression, found ')'", (1, 7)),
            (parse_program, "o!()", "expected a message tag, found ')'", (1, 4)),
            (
                parse_program,
                "new x : A [ A(y,) |> done ] in done",
                "expected a pattern variable, found ')'",
                (1, 17),
            ),
            (
                parse_program,
                "let a, = o.M in done",
                "expected a variable, found '='",
                (1, 8),
            ),
            (
                parse_program,
                "type #A = 1 and done",
                "expected a type name, found 'done'",
                (1, 17),
            ),
            (
                parse_program,
                "class K [ M(n: #Number) |> done | ] done",
                "expected a message tag, found ']'",
                (1, 35),
            ),
            (parse_program, "if x then done", "expected else, found ''", (1, 15)),
            (parse_program, "new : 1 in done", "expected a name, found ':'", (1, 5)),
            (parse_program, "| done", "expected a process, found '|'", (1, 1)),
        ],
    )
    def test_list_and_keyword_errors(self, parse, src, message, pos):
        with pytest.raises(ParseError) as info:
            parse(src)
        assert (info.value.plain_message, info.value.pos) == (message, pos)

    @pytest.mark.parametrize(
        "src",
        [
            "o!M()",
            "new x : A [ A() |> done ] in done",
            "let v = o.M() in done",
            "new x : A = [ A |> done ] in done",
            "type #A = 1 and #B = #A done",
        ],
    )
    def test_empty_lists_and_optional_tokens_parse(self, src):
        parse_program(src)


class TestNesting:
    # Far past Python's recursion limit for a recursive-descent parser.
    DEEP = 3000

    def test_deep_type_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested more than"):
            parse_type("(" * self.DEEP + "A" + ")" * self.DEEP)

    def test_deep_expression_is_a_parse_error(self):
        src = "System!Print(" + "(" * self.DEEP + "1" + ")" * self.DEEP + ")"
        with pytest.raises(ParseError, match="nested more than"):
            parse_program(src)

    def test_long_operator_chain_counts_as_nesting(self):
        # 1 + 1 + ... nests its additions, so later passes recurse on it.
        with pytest.raises(ParseError, match="nested more than"):
            parse_program("System!Print(" + " + ".join(["1"] * self.DEEP) + ")")

    def test_nesting_within_the_limit_parses(self):
        depth = MAX_NESTING // 2 - 1
        t = parse_type("(" * depth + "A" + ")" * depth)
        assert t == ty.Msg("A")
        src = "System!Print(" + " + ".join(["1"] * (MAX_NESTING - 2)) + ")"
        assert isinstance(parse_program(src).process, SSend)
