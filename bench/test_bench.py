"""Tests of the benchmark itself: its workloads run clean, its output checks
reject corrupted answers, its spans account for each op, and its result line
names exactly the metrics BENCHMARK.json declares.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402
from tracer import OP, Tracer, layer_metrics  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def setup_workload(name, seed=3):
    return run.set_up(WORKLOADS[name], run.ROOT, seed)[1]


@pytest.fixture(scope="module")
def pi_sieve():
    w = setup_workload("fuzz-pi-sieve")
    seed = w.round(0)[0]
    return w, seed, w.call(seed)


def result_line(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["check-corpus", "fuzz-futures", "fuzz-pi-sieve"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_is_clean_and_reports_declared_metrics(workload, trace):
    proc, lines = result_line("--workload", workload, "--seed", "7",
                              "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_subtype_laws_slice_is_clean():
    # A whole round takes about 40 s (sample 173 alone takes 18-28 s of
    # it), so the test runs a slice of one.
    w = setup_workload("subtype-laws")
    whole = w.round(0)
    assert len(whole) == 1 + 499 * workloads.FAST_COPIES
    assert sorted(set(whole)) == sorted(whole)
    ops = [op for op in whole if op[0] != workloads.SLOW_SAMPLE][:40]
    w.round = lambda r: ops
    loop = run.Loop(w)
    loop.run(0, w.call)
    assert loop.failed == 0 and not loop.errors
    assert len(loop.times) == 40 and loop.exact > 0


def test_inputs_follow_the_seed():
    for name in WORKLOADS:
        assert setup_workload(name, 5).round(0) == setup_workload(name, 5).round(0)
    assert setup_workload("check-corpus", 5).round(0) != setup_workload("check-corpus", 6).round(0)


def test_wrong_diagnostic_code_is_rejected():
    w = setup_workload("check-corpus")
    rel = "rejected/self-dependency.cob"
    report = w.call(rel)
    assert w.check(rel, report) is None
    report.diagnostics = [dataclasses.replace(d, code="NotLive") for d in report.diagnostics]
    assert w.check(rel, report) is not None
    accepted = "accepted/pi.cob"
    assert w.check(accepted, report) is not None


def test_perturbed_pi_sum_is_rejected(pi_sieve):
    w, seed, (pi, sieve) = pi_sieve
    assert w.check(seed, (pi, sieve)) is None
    nudged = dataclasses.replace(pi, outputs=[pi.outputs[0] + 1e-9])
    assert w.check(seed, (nudged, sieve)) is not None


def test_composite_in_sieve_output_is_rejected(pi_sieve):
    w, seed, (pi, sieve) = pi_sieve
    outputs = list(sieve.outputs)
    outputs[3] = 9.0
    assert w.check(seed, (pi, dataclasses.replace(sieve, outputs=outputs))) is not None


def test_no_counterexample_that_t_covers_is_rejected():
    w = setup_workload("subtype-laws")
    js = w.js
    for i in range(len(w.samples)):
        t = js.types.normalize(w.samples[i])
        configs = [c for c in w.check_alg.enumerate_configs(t, 2) if c]
        if configs:
            break
    out = w.call((i, 0))
    assert w.check((i, 0), out) is None
    out.pair = js.semilinear.Verdict("no", counterexample=configs[0])
    assert w.check((i, 0), out) is not None


def test_self_times_account_for_each_op():
    w = setup_workload("fuzz-futures")
    resolve, run_fn = w.js.checker.resolve_closure_types, w.js.runtime.run
    tracer = Tracer()
    tracer.install()
    # Patched where the caller looks it up, not only where it is defined.
    assert w.js.runtime.resolve_closure_types is not resolve
    call = tracer.ops(w.call)
    try:
        for r in range(3):
            for op in w.round(r):
                call(op)
                # Calls outside an op, like the output checks, leave no span.
                w.js.runtime.run(w.programs["future-user"], seed=r)
    finally:
        tracer.uninstall()
    rows = list(tracer.rows())
    assert sum(row[2] == "runtime.run" for row in rows) == 6
    for op in range(tracer.op + 1):
        mine = [row for row in rows if row[0] == op]
        [root] = [row for row in mine if row[2] == OP]
        assert sum(row[5] for row in mine) == root[4] - root[3]
        assert all(row[5] >= 0 for row in mine)
    metrics = layer_metrics(rows)
    assert metrics["checker.resolve_closure_ms"][0] > 0
    assert metrics["types.derivative_calls"][0] > 0
    assert w.js.runtime.resolve_closure_types is resolve
    assert w.js.runtime.run is run_fn


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = result_line("--workload", "check-corpus", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and not lines
