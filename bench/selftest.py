"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that the same seed gives the same corpus and the same traced counters,
that the correctness gate rejects a flipped answer, and that the benchmark
refuses to run without the package next to it.  Exits 0 when all pass.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus
import run
from oracle import LANGUAGE_GAP, Oracle, load_reference
from tracing import Tracer
from workloads import WORKLOADS

COUNTERS = ("minimize.candidates", "determinize.subsets")


def _build(name, seed, workdir):
    """The workload's jobs, and the files they read from workdir."""
    fk = run._import_fresh()
    draw, build = WORKLOADS[name]
    jobs, _ = build(fk, draw(seed), workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return jobs, files


def _workdir():
    return tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT)


def _canonical(value):
    """A comparable text for a job input: filter, automaton, family or argument."""
    if hasattr(value, "to_dict"):
        return json.dumps(value.to_dict(), sort_keys=True)
    if hasattr(value, "accepting"):
        return repr((value.states, sorted(value.initial), sorted(value.accepting),
                     sorted((k, sorted(v)) for k, v in value.transitions.items())))
    if isinstance(value, list):
        return repr([_canonical(v) for v in value])
    return Path(value).name if "/" in value else value


def _corpus_key(name, seed, oracle):
    with _workdir() as workdir:
        jobs, files = _build(name, seed, Path(workdir))
    return [(j.id, j.group, j.in_states, repr(j.expect(oracle)),
             [_canonical(v) for v in j.inputs]) for j in jobs], files


def test_same_seed_same_corpus(oracle):
    for name in WORKLOADS:
        first = _corpus_key(name, 7, oracle)
        assert first == _corpus_key(name, 7, oracle), f"{name}: corpus differs for one seed"
        assert first != _corpus_key(name, 8, oracle), f"{name}: seed has no effect"
    for seed in (1, 2):
        a = corpus.random_filter(random.Random(seed), 9, 2, 3, branches=2)
        b = corpus.random_filter(random.Random(seed), 9, 2, 3, branches=2)
        assert corpus.spec_fingerprint(a) == corpus.spec_fingerprint(b)


def _traced_pass(name, seed, oracle):
    with _workdir() as workdir:
        jobs, _ = _build(name, seed, Path(workdir))
        for job in jobs:
            job.expected = job.expect(oracle)
        tracer = Tracer()
        tracer.install()
        gate = run.Gate(oracle)
        run.run_passes(jobs, 0, gate, tracer)
    assert gate.failed == 0, gate.failures
    calls = {k: v for k, v in tracer.calls.items()}
    counters = {k: tracer.counters[k] for k in COUNTERS}
    return calls, counters


def test_same_seed_same_counters(oracle):
    for name in WORKLOADS:
        first = _traced_pass(name, 3, oracle)
        again = _traced_pass(name, 3, oracle)
        assert first == again, f"{name}: traced counters differ for one seed"
        assert sum(first[0].values()) > 0, f"{name}: nothing was traced"


def test_gate_rejects_flipped_verdict(oracle):
    with _workdir() as workdir:
        jobs, _ = _build("simcheck", 5, Path(workdir))
    holds = next(j for j in jobs if j.expect(oracle) == ("holds",))
    fails = next(j for j in jobs if j.expect(oracle)[0] == "fails")
    holds.expected = ("fails", LANGUAGE_GAP, 0)
    fails.expected = ("holds",)
    gate = run.Gate(oracle)
    for job in (holds, fails):
        gate.record(job, job.run(), None)
    assert gate.failed == 2, gate.failures

    with _workdir() as workdir:
        cli_jobs, _ = _build("cli", 5, Path(workdir))
        validate = next(j for j in cli_jobs if j.id.startswith("validate:"))
        validate.expected = 1
        gate = run.Gate(oracle)
        gate.record(validate, validate.run(), None)
    assert gate.failed == 1, gate.failures


def test_refuses_without_package():
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(Path(__file__).parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the package"
    assert '"metrics"' not in proc.stdout, "printed a result without the package"


def main():
    run.OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    oracle = Oracle(load_reference(run.ROOT))
    tests = [(test_same_seed_same_corpus, (oracle,)),
             (test_same_seed_same_counters, (oracle,)),
             (test_gate_rejects_flipped_verdict, (oracle,)),
             (test_refuses_without_package, ())]
    failed = 0
    for test, args in tests:
        try:
            test(*args)
            print(f"ok   {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
