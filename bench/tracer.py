"""Spans around joinstate's layer boundaries, recorded from outside.

The tracer replaces each boundary function with a wrapper in every
joinstate module that bound it, and on the class for methods: `runtime`
imports `resolve_closure_types` itself and `checker` imports `normalize`,
so patching the defining module alone would miss those callers.

A span is (op, parent, name, start, end) plus optional counts taken at the
same boundary.  Spans live in flat arrays while the benchmark runs and are
written out when it ends.  Only calls inside an op are recorded, so the
output checks between ops leave no spans.  A call nested inside an open
span of the same name (recursion, or `subtype` reached again through
argument checks) gets no span of its own, so every `_calls` and `_ms`
figure is over outermost calls.  Everything runs on one thread with no
queue, so no span ever waits on another layer: there is no wait time to
report.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

LAYERS = ("parser", "desugar", "checker", "deps", "types", "semilinear", "runtime")


def _tokens(args, result):
    return {"tokens": len(result)}


def _bounded(args, result):
    return {"yes_bounded": int(result.kind == "yes-bounded")}


def _enabled(args):
    return {"enabled": args[0].enabled_count()}


def _run_counts(args, result):
    return {"steps": result.steps, "objects": sum(result.created.values())}


# (module, function or Class.method, counts before the call, counts after it)
BOUNDARIES = (
    ("parser", "tokenize", None, _tokens),
    ("parser", "parse_program", None, None),
    ("desugar", "desugar", None, None),
    ("desugar", "load_program", None, None),
    ("checker", "check_program", None, None),
    ("checker", "resolve_closure_types", None, None),
    ("deps", "join", None, None),
    ("deps", "merge", None, None),
    ("types", "normalize", None, None),
    ("types", "resolve_types", None, None),
    ("types", "TypeAlgebra.derivative", None, None),
    ("semilinear", "parikh", None, None),
    ("semilinear", "live", None, None),
    ("semilinear", "arg_determinate", None, None),
    ("semilinear", "SubtypeEngine.subtype", None, _bounded),
    ("semilinear", "SubtypeEngine.equivalent", None, None),
    ("runtime", "run", None, _run_counts),
    ("runtime", "Soup.__init__", None, None),
    ("runtime", "Soup.step", _enabled, None),
    ("runtime", "Soup.settle", None, None),
    ("runtime", "Soup.stuck_objects", None, None),
)

OP = "bench.op"
GROUPS = ("pi", "sieve")  # runtime figures are split by these program labels


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.op_of = array("q")
        self.parent = array("q")
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[int, dict] = {}
        # Group labels by id of runtime.run's program argument, so runtime
        # figures can be split per program.
        self.labels: dict[int, str] = {}
        self.group: dict[int, str] = {}
        self.op = -1
        self._stack = [-1]
        self._open: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def ops(self, fn):
        """fn as the benchmark's op: each call gets a new op id and a root
        span, and boundaries record spans only inside one."""
        span = self.wrap(OP, fn, root=True)

        def op(arg):
            self.op += 1
            return span(arg)

        return op

    def wrap(self, name, fn, before=None, after=None, root=False):
        """fn with a span named `name` around each outermost call inside an
        op (or, for the root, outside any op)."""
        name_id = self._name_index.setdefault(name, len(self._name_index))
        if name_id == len(self.names):
            self.names.append(name)
        op_of, parent, name_of = self.op_of, self.parent, self.name_of
        start, end, stack, open_ = self.start, self.end, self._stack, self._open
        counts = self.counts
        clock = time.perf_counter_ns
        tracer = self
        is_run = name == "runtime.run"

        def wrapper(*args, **kwargs):
            if name in open_ or (len(stack) == 1) != root:
                return fn(*args, **kwargs)
            sid = len(start)
            if before is not None:
                counts[sid] = before(args)
            if is_run:
                label = tracer.labels.get(id(args[0]))
                if label is not None:
                    tracer.group[sid] = label
            op_of.append(tracer.op)
            parent.append(stack[-1])
            name_of.append(name_id)
            end.append(0)
            stack.append(sid)
            open_.add(name)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.discard(name)
                stack.pop()
            if after is not None:
                counts[sid] = after(args, result)
            return result

        return wrapper

    # --- installing ----------------------------------------------------------

    def install(self):
        """Wrap every boundary of the currently imported joinstate."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "joinstate" or n.startswith("joinstate."))
        ]
        for module_name, qualname, before, after in BOUNDARIES:
            home = sys.modules[f"joinstate.{module_name}"]
            span = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, orig, self.wrap(span, orig, before, after))
                continue
            orig = getattr(home, qualname)
            wrapper = self.wrap(span, orig, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # --- analysis ------------------------------------------------------------

    def rows(self):
        """Yield every span as (op, parent, name, start_ns, end_ns, self_ns,
        group, counts).  Self time is the duration less the time covered
        by direct children; spans nest, so children never overlap."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        groups: list[str | None] = [None] * n
        for sid in range(n):
            p = self.parent[sid]
            groups[sid] = self.group.get(sid, groups[p] if p >= 0 else None)
            dur = self.end[sid] - self.start[sid]
            yield (
                self.op_of[sid], p, self.names[self.name_of[sid]],
                self.start[sid], self.end[sid], dur - child[sid],
                groups[sid], self.counts.get(sid),
            )

    def write(self, path):
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\top\tparent\tname\tstart_ns\tend_ns\tself_ns\tgroup\tcounts\n")
            for sid, (op, p, name, s, e, own, group, counts) in enumerate(self.rows()):
                f.write(
                    f"{sid}\t{op}\t{p}\t{name}\t{s}\t{e}\t{own}\t{group or ''}\t"
                    f"{json.dumps(counts) if counts else ''}\n"
                )


def layer_metrics(rows) -> dict[str, tuple[float, str]]:
    """Per-layer figures from spans: times and calls are per op, runtime
    figures per step or per run of each program group."""
    self_ns = {layer: 0 for layer in LAYERS + ("bench",)}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    by_group = {
        g: {"steps": 0, "step_self": 0, "settles": 0, "settle": 0,
            "enabled": 0, "runs": 0, "run": 0, "run_steps": 0, "objects": 0}
        for g in GROUPS
    }
    op_ns = 0
    for op, parent, name, s, e, own, group, counts in rows:
        self_ns[name.split(".", 1)[0]] += own
        total_ns[name] = total_ns.get(name, 0) + e - s
        calls[name] = calls.get(name, 0) + 1
        if name == OP:
            op_ns += e - s
        if counts:
            for key, value in counts.items():
                counted[key] = counted.get(key, 0) + value
        g = by_group.get(group)
        if g is None:
            continue
        if name == "runtime.Soup.step":
            g["steps"] += 1
            g["step_self"] += own
            g["enabled"] += counts["enabled"]
        elif name == "runtime.Soup.settle":
            g["settles"] += 1
            g["settle"] += e - s
        elif name == "runtime.run":
            g["runs"] += 1
            g["run"] += e - s
            g["run_steps"] += counts["steps"]
            g["objects"] += counts["objects"]

    per_op = 1 / max(calls.get(OP, 0), 1)

    def ms(name):
        return (total_ns.get(name, 0) / 1e6 * per_op, "ms")

    def per(name):
        return (calls.get(name, 0) * per_op, "count")

    out = {
        "parser.parse_ms": (self_ns["parser"] / 1e6 * per_op, "ms"),
        "parser.tokens": (counted.get("tokens", 0) * per_op, "count"),
        "desugar.desugar_ms": (self_ns["desugar"] / 1e6 * per_op, "ms"),
        "checker.check_ms": (self_ns["checker"] / 1e6 * per_op, "ms"),
        "checker.resolve_closure_ms": ms("checker.resolve_closure_types"),
        "deps.join_calls": per("deps.join"),
        "deps.join_ms": ms("deps.join"),
        "deps.self_ms": (self_ns["deps"] / 1e6 * per_op, "ms"),
        "types.normalize_calls": per("types.normalize"),
        "types.normalize_ms": ms("types.normalize"),
        "types.derivative_calls": per("types.TypeAlgebra.derivative"),
        "types.derivative_ms": ms("types.TypeAlgebra.derivative"),
        "types.self_ms": (self_ns["types"] / 1e6 * per_op, "ms"),
        "semilinear.parikh_calls": per("semilinear.parikh"),
        "semilinear.parikh_ms": ms("semilinear.parikh"),
        "semilinear.arg_determinate_ms": ms("semilinear.arg_determinate"),
        "semilinear.live_ms": ms("semilinear.live"),
        "semilinear.subtype_calls": per("semilinear.SubtypeEngine.subtype"),
        "semilinear.subtype_ms": ms("semilinear.SubtypeEngine.subtype"),
        "semilinear.yes_bounded": (counted.get("yes_bounded", 0) * per_op, "count"),
        "semilinear.self_ms": (self_ns["semilinear"] / 1e6 * per_op, "ms"),
        "runtime.soup_init_ms": ms("runtime.Soup.__init__"),
        "runtime.stuck_ms": ms("runtime.Soup.stuck_objects"),
        "runtime.self_ms": (self_ns["runtime"] / 1e6 * per_op, "ms"),
        "bench.self_ms": (self_ns["bench"] / 1e6 * per_op, "ms"),
        "bench.op_ms": (op_ns / 1e6 * per_op, "ms"),
    }
    for name, g in by_group.items():
        steps, runs = max(g["steps"], 1), max(g["runs"], 1)
        out[f"runtime.run_ms.{name}"] = (g["run"] / 1e6 / runs, "ms")
        out[f"runtime.step_us.{name}"] = (g["step_self"] / 1e3 / steps, "us")
        out[f"runtime.settle_us.{name}"] = (
            g["settle"] / 1e3 / max(g["settles"], 1), "us")
        out[f"runtime.enabled_mean.{name}"] = (g["enabled"] / steps, "count")
        out[f"runtime.steps.{name}"] = (g["run_steps"] / runs, "count")
        out[f"runtime.objects.{name}"] = (g["objects"] / runs, "count")
    return out
