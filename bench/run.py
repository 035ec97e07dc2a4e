"""Benchmark of joinstate's checker and soup.

    python3 bench/run.py --workload check-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: joinstate is imported from `src/` and the
corpus read from `programs/`.  One process, one thread, closed loop: each op
starts when the previous one has been checked.  Only the calls into
joinstate are timed; outputs are checked between ops, outside the timing.
The loop runs whole rounds until `--seconds` have passed.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` the first half of the run is untraced
and the second half traced, and the metrics are the per-layer figures from
the spans plus the slowdown of the traced half against the untraced one.
Results and spans are also written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("parser", "desugar", "types", "semilinear", "deps", "checker",
           "runtime", "oracle")
SETUPS = 7  # set-ups per untraced run; setup_s is their median

sys.path.insert(0, str(HERE))
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_joinstate(root: pathlib.Path):
    """Import joinstate afresh from the checkout's src/, so every set-up
    pays for its imports."""
    src = str(root / "src")
    for name in [n for n in sys.modules if n == "joinstate" or n.startswith("joinstate.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    mods = {m: importlib.import_module(f"joinstate.{m}") for m in MODULES}
    origin = pathlib.Path(mods["runtime"].__file__).resolve()
    if not origin.is_relative_to(root / "src"):
        raise ImportError(f"joinstate was imported from {origin}, not {root / 'src'}")
    return SimpleNamespace(**mods)


def set_up(workload_cls, root, seed):
    start = time.perf_counter()
    js = import_joinstate(root)
    workload = workload_cls(js, root, seed)
    return time.perf_counter() - start, workload


class Loop:
    """Runs whole rounds of a workload's ops, timing each call."""

    def __init__(self, workload):
        self.w = workload
        self.rounds = 0
        self.times: list[float] = []
        self.units = 0
        self.exact = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds, call, between_ops=None):
        """Run whole rounds until `seconds` have passed; after each op,
        untimed, `between_ops` gets the share of `seconds` used so far."""
        w, clock = self.w, time.perf_counter
        begin = clock()
        while True:
            for op in w.round(self.rounds):
                start = clock()
                try:
                    out = call(op)
                except Exception:  # a failed op is counted, not fatal
                    self.failed += 1
                    self.times.append(clock() - start)
                    traceback.print_exc(file=sys.stderr)
                    continue
                self.times.append(clock() - start)
                problem = w.check(op, out)
                if problem is not None:
                    self.errors.append(problem)
                self.units += w.units(op, out)
                self.exact += w.exact(op, out)
                if between_ops is not None:
                    between_ops((clock() - begin) / seconds)
            self.rounds += 1
            if clock() - begin >= seconds:
                return

    def metrics(self):
        busy = sum(self.times)
        p90 = statistics.quantiles(self.times, n=10)[-1] if len(self.times) > 1 else self.times[0]
        return {
            "op_p50_ms": (statistics.median(self.times) * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "ops_per_s": (len(self.times) / busy, "1/s"),
            "steps_per_s": (self.units / busy, "1/s"),
            "exact_verdicts": (self.exact / self.rounds, "count"),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in ("src/joinstate/__init__.py", "programs/manifest.json"):
        if not (ROOT / needed).is_file():
            print(f"bench: {ROOT / needed} is missing; run from a joinstate checkout",
                  file=sys.stderr)
            return 2

    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    elapsed, workload = set_up(cls, ROOT, args.seed)
    setups = [elapsed]

    def set_up_again(used=1.0):
        # The ops keep the first set-up's state; the others are spread over
        # the run, so that their median sees the host the ops see.
        while len(setups) < SETUPS and used >= len(setups) / SETUPS:
            setups.append(set_up(cls, ROOT, args.seed)[0])
            gc.collect()

    loop = Loop(workload)
    if not args.trace:
        loop.run(args.seconds, workload.call, set_up_again)
        set_up_again()
        metrics = loop.metrics()
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        loop.run(args.seconds / 2, workload.call)
        untraced = loop.metrics()["ops_per_s"][0]
        tracer = Tracer()
        tracer.labels.update(getattr(workload, "labels", {}))
        tracer.install()
        traced = Loop(workload)
        traced.rounds = loop.rounds
        try:
            traced.run(args.seconds / 2, tracer.ops(workload.call))
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.rows())
        metrics["bench.trace_slowdown"] = (untraced / traced.metrics()["ops_per_s"][0], "ratio")
        loop.times += traced.times
        loop.errors += traced.errors
        loop.failed += traced.failed
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    for problem in loop.errors[:10]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not loop.errors,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
