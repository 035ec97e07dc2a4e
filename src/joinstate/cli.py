"""Command-line entry point: check, run, explain, fuzz.

Exit codes:
  check    0 accepted, 1 rejected
  run      0 Terminated, 2 MonitorViolation, 3 Deadlocked,
           4 StepBudgetExhausted (a reaction is still enabled after
           --max-steps steps; not a failure: some programs are
           intentionally infinite), 5 RuntimeFault, 1 rejected by the
           type checker, 73 when the --trace-json file cannot be written
  fuzz     0 if the summary assertion holds, 1 otherwise
  any      64 usage error, 65 parse or type-declaration error, or a
           source file that is not UTF-8

A run with monitors on ends in MonitorViolation when a mailbox leaves its
protocol, and also when the run quiesces with some mailbox holding only
part of a configuration of its protocol (a message sent too many or too
few times); Deadlocked takes precedence.  RuntimeFault is an arithmetic
fault (`/` or `%` by zero, overflow), a send to a method the builtin
objects lack, or an unchecked `if` on a non-boolean; fuzz counts it as a
violation.  A number literal too large for a float, or input nested more
than parser.MAX_NESTING levels deep, is a parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from collections import Counter

from .checker import Checker, check_program
from .desugar import DesugarError, load_program
from .parser import ParseError, parse_type
from .runtime import Plan, _fmt, run
from .semilinear import joint_alphabet, parikh
from .types import BUILTIN_TYPES, TypeAlgebra, TypeDeclError, render

EX_USAGE = 64
EX_DATAERR = 65
EX_CANTCREAT = 73

RUN_EXIT = {
    "Terminated": 0,
    "MonitorViolation": 2,
    "Deadlocked": 3,
    "StepBudgetExhausted": 4,
    "RuntimeFault": 5,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="joinstate")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, runtime=False):
        p.add_argument("--bound", type=_int_at_least(0), default=4, metavar="K",
                       help="coefficient bound for the subtype engine")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output on stdout")
        if runtime:
            p.add_argument("--seed", type=int, default=None, metavar="N",
                           help="scheduler seed (default: $JOINSTATE_SEED or 0)")
            p.add_argument("--max-steps", type=_int_at_least(0), default=100_000,
                           metavar="N")
            p.add_argument("--monitors", choices=("on", "off"), default="on")

    p_check = sub.add_parser("check", help="type-check a program")
    p_check.add_argument("input", type=pathlib.Path)
    common(p_check)

    p_run = sub.add_parser("run", help="type-check and execute a program")
    p_run.add_argument("input", type=pathlib.Path)
    common(p_run, runtime=True)
    p_run.add_argument("--no-typecheck", action="store_true",
                       help="skip the checker and rely on runtime monitors")
    p_run.add_argument("--trace-json", type=pathlib.Path, metavar="PATH",
                       help="write the event trace to PATH as JSON")

    p_explain = sub.add_parser(
        "explain", help="show types, patterns and liveness"
    )
    p_explain.add_argument("input", type=pathlib.Path, nargs="?")
    p_explain.add_argument("--type", dest="type_expr", metavar="EXPR",
                           help="explain a standalone type expression")
    p_explain.add_argument("--parikh", action="store_true",
                           help="print semilinear representations")
    common(p_explain)

    p_fuzz = sub.add_parser("fuzz", help="run many seeds and summarize")
    p_fuzz.add_argument("input", type=pathlib.Path)
    common(p_fuzz, runtime=True)
    p_fuzz.add_argument("--seeds", type=_int_at_least(1), default=100, metavar="N",
                        help="number of seeds to run, from --seed on")
    p_fuzz.add_argument("--expect-violation", action="store_true",
                        help="the program is known bad; assert it misbehaves")
    p_fuzz.add_argument("--check-solution", action="store_true",
                        help="test each mailbox's per-tag counts against its "
                             "declared type's caps after every step")
    return parser


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("JOINSTATE_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        print(f"joinstate: JOINSTATE_SEED must be an integer, got {env!r}",
              file=sys.stderr)
        sys.exit(EX_USAGE)


def _load(path: pathlib.Path):
    if not path.is_file():
        print(f"joinstate: no such file: {path}", file=sys.stderr)
        sys.exit(EX_USAGE)
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        print(f"joinstate: {path}: {exc}", file=sys.stderr)
        sys.exit(EX_DATAERR)
    return load_program(source, str(path))


def _print_diagnostics(report):
    for d in report.diagnostics:
        print(str(d), file=sys.stderr)


def cmd_check(args) -> int:
    report = check_program(_load(args.input), bound=args.bound)
    _print_diagnostics(report)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"verdict: {report.verdict}", file=sys.stderr)
    return 0 if report.verdict == "accepted" else 1


def cmd_run(args) -> int:
    program = _load(args.input)
    if not args.no_typecheck:
        report = check_program(program, bound=args.bound)
        if report.verdict == "rejected":
            _print_diagnostics(report)
            return 1
    seed = _seed(args)
    # Opened before the run, so a path that cannot be written fails at once.
    try:
        trace_file = args.trace_json and args.trace_json.open("w")
        result = run(program, seed=seed, max_steps=args.max_steps,
                     monitors=args.monitors == "on", trace=bool(trace_file))
        if trace_file:
            with trace_file:
                events = [vars(e) for e in result.trace]
                trace_file.write(json.dumps(events, indent=2))
    except OSError as exc:
        print(f"joinstate: cannot write {args.trace_json}: {exc.strerror}",
              file=sys.stderr)
        return EX_CANTCREAT
    if args.json:
        keys = ("verdict", "steps", "outputs", "deadlocked", "violation", "created")
        print(json.dumps({key: getattr(result, key) for key in keys}, indent=2))
    else:
        for value in result.outputs:
            print(_fmt(value))
        detail = ""
        if result.deadlocked:
            detail = f" ({', '.join(result.deadlocked)})"
        if result.violation:
            detail = f" ({result.violation})"
        print(
            f"verdict: {result.verdict}{detail} after {result.steps} steps",
            file=sys.stderr,
        )
    return RUN_EXIT[result.verdict]


def _vector_str(vector, alphabet) -> str:
    parts = []
    for count, slot in zip(vector, alphabet):
        if count == 1:
            parts.append(render(slot))
        elif count > 1:
            parts.append(f"{count}·{render(slot)}")
    return " + ".join(parts) if parts else "⟨⟩"


def _parikh_lines(alg, t) -> list[str]:
    alphabet = joint_alphabet(alg, t)
    lines = []
    for comp in parikh(alg, t, alphabet):
        line = _vector_str(comp.base, alphabet)
        for p in sorted(comp.periods):
            line += f" + N·({_vector_str(p, alphabet)})"
        lines.append(line)
    return lines


def _explain_type(args) -> int:
    try:
        t = parse_type(args.type_expr)
    except ParseError as exc:
        print(f"joinstate: {exc}", file=sys.stderr)
        return EX_DATAERR
    alg = TypeAlgebra({})
    info = {
        "type": render(t),
        "nullable": alg.nullable(t),
        "relevant": alg.relevant(t),
        "usable": alg.usable(t),
    }
    if args.parikh:
        info["parikh"] = _parikh_lines(alg, t)
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"normal form: {info['type']}")
        for key in ("nullable", "relevant", "usable"):
            print(f"{key}: {'yes' if info[key] else 'no'}")
        for line in info.get("parikh", ()):
            print(f"parikh: {line}")
    return 0


def cmd_explain(args) -> int:
    if args.type_expr is not None:
        return _explain_type(args)
    if args.input is None:
        print("joinstate: explain needs a file or --type EXPR", file=sys.stderr)
        return EX_USAGE
    program = _load(args.input)
    checker = Checker(program, bound=args.bound)
    report = checker.run()
    alg = checker.alg
    out = {"verdict": report.verdict, "types": {}, "objects": []}
    for name, t in sorted(program.table.items()):
        if name in BUILTIN_TYPES:
            continue
        entry = {"definition": render(t)}
        if args.parikh:
            entry["parikh"] = _parikh_lines(alg, t)
        out["types"][name] = entry
    for obj in report.objects:
        out["objects"].append(obj.to_json())
    if args.json:
        out["diagnostics"] = [d.to_json() for d in report.diagnostics]
        print(json.dumps(out, indent=2))
        return 0 if report.verdict == "accepted" else 1
    _print_diagnostics(report)
    for name, entry in out["types"].items():
        print(f"type {name} = {entry['definition']}")
        for line in entry.get("parikh", ()):
            print(f"  parikh: {line}")
    for obj in out["objects"]:
        print(f"object {obj['name']} : {obj['type']}")
        for pattern in obj["patterns"]:
            joined = " & ".join(
                tag if k == 1 else f"{k}×{tag}" for tag, k in sorted(pattern.items())
            )
            print(f"  pattern: {joined or 'done'}")
        print(f"  live: {'yes' if obj['live'] else 'no'}")
    return 0 if report.verdict == "accepted" else 1


def cmd_fuzz(args) -> int:
    program = _load(args.input)
    report = check_program(program, bound=args.bound)
    if report.verdict == "rejected" and not args.expect_violation:
        _print_diagnostics(report)
        print(
            "joinstate: program rejected; use --expect-violation to fuzz it",
            file=sys.stderr,
        )
        return 1
    plan = Plan(program)
    verdicts: Counter = Counter()
    invariant_failures = 0
    first = _seed(args)
    for seed in range(first, first + args.seeds):
        result = run(plan, seed=seed, max_steps=args.max_steps,
                     monitors=args.monitors == "on", check_solution=args.check_solution)
        verdicts[result.verdict] += 1
        invariant_failures += result.invariant_failed
    bad = ("MonitorViolation", "Deadlocked", "RuntimeFault")
    violations = sum(verdicts[verdict] for verdict in bad)
    if args.expect_violation:
        ok = violations == args.seeds
    else:
        ok = violations == 0 and invariant_failures == 0
    summary = {
        "program": str(args.input),
        "seeds": args.seeds,
        "firstSeed": first,
        "verdicts": dict(verdicts),
        "violations": violations,
        "invariantFailures": invariant_failures,
        "ok": ok,
    }
    print(json.dumps(summary, indent=2))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        handler = {
            "check": cmd_check,
            "run": cmd_run,
            "explain": cmd_explain,
            "fuzz": cmd_fuzz,
        }[args.command]
        return handler(args)
    except (ParseError, TypeDeclError, DesugarError) as exc:
        print(f"joinstate: {exc}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
