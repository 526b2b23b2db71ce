"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload simcheck --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` and
the expected answers come from ``tests/oracles.py``.  One client runs one job
at a time in a closed loop, in this process, with no threads and no child
processes.  The job list is run in whole passes until ``--seconds`` have
passed.

Before the clock starts, one untimed pass checks every answer in full
against the oracle; the timed passes must then repeat those answers.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
same loop untraced for half the time, then with spans around every layer for
the other half, and prints the per-layer metrics, including the tracing
overhead.  Either way a wrong answer, an exception or an unexpected exit code
is a failure and makes the run exit with 1.
Scratch files, a run summary and the spans of the first traced pass go to
``.bench_out/`` in the checkout.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# In an untraced run, every job that took less than SHORT_JOB_S in the check
# pass runs SHORT_REPEATS times in a row in each timed pass.  A job's time is
# its fastest execution, and on a shared core the fastest of few executions
# of a short job is a noisy estimate; the repeats give short jobs about three
# times the samples while the long jobs, which set the length of a pass, run
# once.  The threshold lies between the slowest short CLI commands (under
# 30 ms) and the six long ones (90 ms and more).  Only donut and fig3 in
# search can fall on either side of it, which moves that workload's figures
# by well under 1%.
SHORT_JOB_S = 0.06
SHORT_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "decided_frac": "ratio",
}


def _import_fresh():
    """Import filterkit from scratch, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "filterkit" or n.startswith("filterkit.")]:
        del sys.modules[name]
    fk = importlib.import_module("filterkit")
    importlib.import_module("filterkit.cli")
    return fk


class Gate:
    """Checks every execution of every job against its expected answer.

    The first execution of a job is checked in full against the oracle, and
    its output size kept; each later one must give exactly the same answer.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.first = {}
        self.sizes = {}
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.failures = []

    def record(self, job, result, error):
        self.attempted += 1
        size = None
        if error is None:
            try:
                answer, decided, size = job.read(result)
                if job.id not in self.first:
                    error = job.check(self.oracle, answer, result, job.expected)
                    self.first[job.id] = answer
                    self.sizes[job.id] = size
                elif self.first[job.id] != answer:
                    error = "answer differs from the first pass"
                self.decided += bool(decided) and error is None
            except Exception:  # a malformed result is a failure of this job
                error = traceback.format_exc(limit=3)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.id}: {error}")


def set_up(build, drawn, workdir):
    """Import filterkit from scratch and build the jobs; returns (seconds,
    jobs, why)."""
    gc.collect()
    t0 = time.perf_counter()
    fk = _import_fresh()
    jobs, why = build(fk, drawn, workdir)
    return time.perf_counter() - t0, jobs, why


def run_passes(jobs, seconds, gate, tracer=None, before_pass=None, repeats=None):
    """Closed loop over whole passes until `seconds` have passed.

    before_pass, if given, is called before each pass, outside its time.
    repeats, if given, is how many times in a row each job runs in a pass.
    Returns (per-pass seconds, per-pass lists of per-job seconds, where a
    repeated job has the fastest of its executions in the pass).
    """
    pass_times, job_times = [], []
    start = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        pass_start = time.perf_counter()
        job_times.append([])
        for job, count in zip(jobs, repeats or [1] * len(jobs)):
            fastest = None
            for _ in range(count):
                if tracer is not None:
                    tracer.job = job.id
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    result, error = job.run(), None
                except Exception:  # any raise is a failed job, never a crash of the run
                    result, error = None, traceback.format_exc(limit=5)
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.active = False
                fastest = t1 - t0 if fastest is None else min(fastest, t1 - t0)
                gate.record(job, result, error)
            job_times[-1].append(fastest)
        pass_times.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start >= seconds:
            return pass_times, job_times


def _best_times(job_times):
    """Each job's fastest timed execution, from per-pass lists of job times.

    On a shared machine the slower executions of a job measure the load of
    other processes; its fastest one is the steadiest measure of its cost.
    """
    return [min(times) for times in zip(*job_times)]


def _throughput(job_times):
    best = _best_times(job_times)
    return len(best) / sum(best)


def _percentile_ms(job_times, k):
    """k-th percentile over jobs of each job's fastest time."""
    return statistics.quantiles(_best_times(job_times), n=100)[k - 1] * 1000


def _machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "filterkit").glob("*.py"))
    )
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "src_filterkit_lines": src_lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "filterkit" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} is not a filterkit checkout (src/filterkit and "
              "tests/oracles.py are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from oracle import Oracle, load_reference
    from tracing import Tracer, group_breakdown, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        draw, build = WORKLOADS[args.workload]
        drawn = draw(args.seed)
        seconds, jobs, why = set_up(build, drawn, workdir)
        setup_times = [seconds]
        oracle = Oracle(load_reference(ROOT))
        for job in jobs:
            job.expected = job.expect(oracle)
        gate = Gate(oracle)
        _, check_times = run_passes(jobs, 0, gate)
        # Every job ran once, so this is the share of jobs with a definite
        # answer; later executions must repeat the same answers.
        decided_frac = gate.decided / gate.attempted
        gc.collect()

        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "jobs_per_pass": len(jobs), "groups": why, **_machine()}
        if args.trace == 0:
            # The set-up is timed again before every pass, so that its figure
            # samples the machine over the whole run, as the job times do;
            # the jobs keep running on the first set-up's inputs.
            def time_set_up():
                setup_times.append(set_up(build, drawn, workdir)[0])

            repeats = [SHORT_REPEATS if t < SHORT_JOB_S else 1 for t in check_times[0]]
            pass_times, job_times = run_passes(jobs, args.seconds, gate,
                                               before_pass=time_set_up, repeats=repeats)
            values = {
                "setup_s": min(setup_times),
                "jobs_per_s": _throughput(job_times),
                "job_ms.p50": _percentile_ms(job_times, 50),
                "job_ms.p90": _percentile_ms(job_times, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "decided_frac": decided_frac,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            info.update(passes=len(pass_times), samples=gate.attempted,
                        repeated_jobs=repeats.count(SHORT_REPEATS))
        else:
            _, plain_jobs = run_passes(jobs, args.seconds / 2, gate)
            tracer = Tracer()
            absent = tracer.install()
            # spans and counts come from the first traced pass, times from all
            tracer.keep_spans = True
            traced_times, traced_jobs = run_passes(jobs, 0, gate, tracer)
            tracer.keep_spans = False
            calls, counters = dict(tracer.calls), tracer.counters.copy()
            more_times, more_jobs = run_passes(
                jobs, args.seconds / 2 - sum(traced_times), gate, tracer)
            traced_times += more_times
            traced_jobs += more_jobs
            passes = len(traced_times)
            values = layer_metrics(calls, tracer.self_s, counters, passes)
            sized = [job for job in jobs
                     if job.in_states is not None and gate.sizes.get(job.id) is not None]
            out_states = sum(gate.sizes[job.id] for job in sized)
            in_states = sum(job.in_states for job in sized)
            values["minimize.size_ratio"] = (out_states / in_states if in_states else 0.0,
                                             "ratio")
            untraced, traced = _throughput(plain_jobs), _throughput(traced_jobs)
            values["trace.jobs_per_s_untraced"] = (untraced, "1/s")
            values["trace.jobs_per_s_traced"] = (traced, "1/s")
            values["trace.overhead_frac"] = (untraced / traced - 1, "ratio")
            values["trace.job_s"] = (sum(map(sum, traced_jobs)) / passes, "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            group_of = {job.id: job.group for job in jobs}
            info.update(passes=len(plain_jobs), traced_passes=passes,
                        absent_layers=absent, hook_errors=sorted(tracer.hook_errors),
                        self_s_by_group=group_breakdown(tracer.spans, group_of))
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as f:
                for span in tracer.spans:
                    f.write(json.dumps(dict(zip(
                        ("id", "parent", "job", "layer", "start", "end", "self_s"), span))))
                    f.write("\n")
            info["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["failures"] = gate.failures
    correct = gate.failed == 0
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    summary = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n",
                       encoding="utf-8")
    for failure in gate.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
