"""Golden digests of the CLI's output on the whole corpus.

The digests were computed before type terms were interned, so a change of
representation (or of the scheduler) must keep every verdict, diagnostic,
output and trace byte for byte, and the seed -> trajectory mapping with
them.  Runs of rejected programs skip the checker; every run stops at
MAX_STEPS.  The output contains nothing that depends on the hash seed.
"""

import hashlib
import json
import pathlib

from joinstate.cli import main

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
MANIFEST = json.loads((PROGRAMS / "manifest.json").read_text())
SEEDS = range(3)
MAX_STEPS = 2000

GOLDEN = {
    "accepted/future-class.cob":
        "da30201a6f4e6aeb73a9d179ef3c49926506e5a5d1a2158c58aaa6b466d5ad4d",
    "accepted/future-user.cob":
        "34b2823265191da8861060b8bde95ee688eaaceec9871c79a1bdeec62bcd2c2b",
    "accepted/pi.cob":
        "b0d9d79a39b8463369b7fdcc9668e55d299836b221fed604d573cd8cf3edc452",
    "accepted/sieve.cob":
        "586e4224277dd9d9200919180cb4f2fdf19c9ce98213bbf2dc4fcf707a919422",
    "rejected/double-dependency.cob":
        "2942be50f6dcc5bfd5ee33c4975e4741b8c659d28de3950cd4764a6b1a90b48d",
    "rejected/duplicate-argument.cob":
        "f4be0d18e8244a093229c00312013078c12446675a06c1d1f7105ead37e55d90",
    "rejected/extra-message.cob":
        "06e7f342a41fb4a9a639486b6f432b6cc0fdbaf03e7cdcc0d7939deb93226eee",
    "rejected/future-user-deadlock.cob":
        "77105931b4d0c0ceb0ee1d92a90af9907758da3720b995f6687003ec55183517",
    "rejected/missing-message.cob":
        "1ecd8c2bb04d53319359c31a8c0de44e2349fb356581e8c76cc2aa0b385a5f3a",
    "rejected/mutual-dependency.cob":
        "f93947a71f0a77105de77df5dd6dddd2c859c828ac0e5fbed201cb04e8c5af36",
    "rejected/nested-call-deadlock.cob":
        "c743667c00ffc8bd11f167abf58faee07c694f3aa3865f4d506b97253928375e",
    "rejected/self-dependency.cob":
        "813fab25a714b1cf2950461933fd2aaa3533fc746154f7fbdb7b783d33a0e004",
}


def corpus_digests(tmp_path, capsys) -> dict[str, str]:
    """Per corpus program, the sha256 of `check --json` and of `run --json`
    plus `--trace-json` for each seed: exit codes and stdout included."""
    trace = tmp_path / "trace.json"
    out = {}
    for rel in sorted(MANIFEST["accepted"] + list(MANIFEST["rejected"])):
        path = str(PROGRAMS / rel)
        digest = hashlib.sha256()
        code = main(["check", "--json", path])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        unchecked = ["--no-typecheck"] if rel in MANIFEST["rejected"] else []
        for seed in SEEDS:
            code = main([
                "run", "--json", "--seed", str(seed), "--max-steps",
                str(MAX_STEPS), "--trace-json", str(trace), path, *unchecked,
            ])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
            digest.update(trace.read_bytes())
        out[rel] = digest.hexdigest()
    return out


def test_corpus_outputs_match_golden_digests(tmp_path, capsys):
    assert corpus_digests(tmp_path, capsys) == GOLDEN
