"""Benchmark for regdensity: how soon exact answers arrive, end to end and
layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload density-engine --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's own ``src/``.  One process runs
one workload as a closed loop with a single client and no threads.  Every
output is checked.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jobs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"
GOLDEN = BENCH_DIR / "golden"

DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it
# Host-speed calibration: reference_loop() runs before the first job of a
# pass and after each job, for this share of the job's time (at least once).
# Each job's time is scaled to a host on which one reference_loop() takes
# REFERENCE_S.
CALIBRATION_SHARE = 0.1
REFERENCE_S = 0.003

# tiny jobs that touch every subcommand once before anything is timed
WARM_UP = (
    ["density", "--dfa", "modk:3"],
    ["census", "--oracle", "dyck", "--max", "4"],
    ["gap", "--family", "modk", "--k", "3", "--max", "4"],
    ["monoid", "--dfa", "modk:3"],
    ["check", "--only", "textbook"],
)


def tail_percentile(jobs_per_pass):
    """Highest whole percentile with TAIL_BEYOND jobs beyond it in the
    fewest passes a run makes."""
    return math.floor(100 * (1 - TAIL_BEYOND / (MIN_PASSES * jobs_per_pass)))


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def digest(code, text):
    return hashlib.sha256(("%s\n%s" % (code, text)).encode()).hexdigest()


def import_program():
    sys.path.insert(0, str(SRC))
    import regdensity.cli

    if Path(regdensity.__file__).resolve().parent != SRC / "regdensity":
        raise ImportError("regdensity was not imported from %s" % SRC)
    return regdensity


def reference_loop():
    """Fixed pure-Python work sharing no code with the program: integer
    arithmetic, a dict and Fractions, the operations regdensity spends its
    time on."""
    counts = {}
    x = 1
    for _ in range(8000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        counts[x & 511] = counts.get(x & 511, 0) + 1
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    return len(counts), total


class HostSpeed:
    """How fast the host runs fixed Python code while the jobs run.

    On a shared host one core's speed can change by 1.7x for seconds at a
    time, as other tenants come and go.  The reference loop runs right
    before and after each job, so it runs in the same slow or fast spell as
    the job; dividing by its time there takes the spell out of the job's
    time.
    """

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0

    def calibrate(self, job_seconds):
        """Run the reference loop for CALIBRATION_SHARE of ``job_seconds``,
        at least once; return (loops, seconds)."""
        loops, spent = 0, 0.0
        while not loops or spent < CALIBRATION_SHARE * job_seconds:
            start = time.perf_counter()
            reference_loop()
            spent += time.perf_counter() - start
            loops += 1
        self.loops += loops
        self.seconds += spent
        return loops, spent

    def scale(self):
        """Factor from measured seconds to reference seconds, over the run."""
        return REFERENCE_S * self.loops / self.seconds


def set_up(rd, build, seed, inputs_dir):
    """Median over SETUP_REPEATS of: a fresh interpreter importing the
    program, as measured, plus input generation and the warm-up jobs, in
    reference seconds from the reference loop run right after them.  An
    interpreter start is mostly the kernel's work, which the reference loop
    does not track."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import regdensity.cli"],
                       cwd=ROOT, env=env, check=True)
        interpreter = time.perf_counter() - start
        start = time.perf_counter()
        job_list = build(rd, seed, str(inputs_dir))
        for argv in WARM_UP:
            jobs.cli_job(rd, "warm-up", argv, None).run()
        seconds = time.perf_counter() - start
        loops, spent = HostSpeed().calibrate(seconds)
        samples.append(interpreter + seconds * REFERENCE_S * loops / spent)
    return statistics.median(samples), job_list


def run_pass(job_list, tracer=None, speed=None):
    """Run every job once; return the pass time (the sum of the job times)
    and (job, seconds, exit code, text) per job.  With ``speed``, each job
    time is in reference seconds, from the reference loop run before and
    after it."""
    gc.collect()
    records = []
    before = speed.calibrate(0) if speed is not None else None
    for job in job_list:
        if tracer is not None:
            tracer.job = job.id
            tracer.enter("bench.job")
        t0 = time.perf_counter()
        try:
            code, text = job.run()
        except Exception as exc:  # a raising job is a failed job; keep going
            code, text = None, "raised %s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit()
        if speed is not None:
            after = speed.calibrate(seconds)
            seconds *= REFERENCE_S * (before[0] + after[0]) / (before[1] + after[1])
            before = after
        records.append((job, seconds, code, text))
    return math.fsum(r[1] for r in records), records


def verify(records, expected_digests, seen):
    """Failure reasons by job id.  ``expected_digests`` maps job ids to the
    digest the output must have (golden or first pass); it is filled in
    for jobs it does not know yet.  ``seen`` collects the first digest of
    every job."""
    failures = {}
    for job, _, code, text in records:
        got = digest(code, text)
        seen.setdefault(job.id, got)
        if code != job.expected_code:
            problem = "exit code %r, expected %d: %s" % (code, job.expected_code, text[:200])
        else:
            try:
                problem = job.check(text)
            except Exception as exc:  # malformed output: the job failed
                problem = "unreadable output (%s: %s)" % (type(exc).__name__, exc)
        if problem is None and expected_digests.setdefault(job.id, got) != got:
            problem = "output differs from the expected digest"
        if problem is not None:
            failures[job.id] = problem
    return failures


class Run:
    """Passes of one workload, with their outcomes."""

    def __init__(self, job_list, expected_digests):
        self.job_list = job_list
        self.expected = expected_digests
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.by_job = {}  # job id -> untraced seconds, one per pass
        self.problems = {}
        self.speed = HostSpeed()

    def passes(self, until, tracer=None, minimum=1, each=None):
        walls = []
        while len(walls) < minimum or time.perf_counter() < until:
            if tracer is not None:
                tracer.reset()
            wall, records = run_pass(self.job_list, tracer, self.speed)
            failures = verify(records, self.expected, self.seen)
            self.attempted += len(records)
            self.failed += len(failures)
            self.problems.update(failures)
            walls.append(wall)
            if tracer is None:
                for job, seconds, _, _ in records:
                    self.latencies.append(seconds)
                    self.by_job.setdefault(job.id, []).append(seconds)
            if each is not None:
                each()
        return walls


def end_to_end(run, deadline, setup_s):
    """Times in reference seconds.  A job's latency is its mean over the
    passes, and ``job_s.p50`` the median of those over the jobs: it does
    not jump between two jobs of different size, as the median of pooled
    samples does."""
    walls = run.passes(deadline, minimum=MIN_PASSES)
    typical = [statistics.fmean(run.by_job[job.id]) for job in run.job_list]
    q = tail_percentile(len(run.job_list))
    print("passes=%d jobs/pass=%d tail=p%d" % (len(walls), len(run.job_list), q))
    print("reference loop: %d runs, mean %.6f s (reference %.6f s)"
          % (run.speed.loops, run.speed.seconds / run.speed.loops, REFERENCE_S))
    return {
        "wall_s": (statistics.fmean(walls), "s"),
        "job_s.p50": (statistics.median(typical), "s"),
        "job_s.tail": (percentile(run.latencies, q), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(run, begin, deadline, label):
    """Untraced passes for the first half of the time, traced passes for
    the rest; per-pass layer metrics (median times in reference seconds,
    exact counts)."""
    untraced = run.passes(begin + (deadline - begin) / 2)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    monoid_jobs = {j.id for j in run.job_list if j.kind == "monoid" and j.expected_code == 0}
    per_pass = []
    spans = []

    def collect():
        per_pass.append(tracing.layer_metrics(tracer, monoid_jobs))
        if not spans:
            spans.extend(tracer.spans)

    try:
        traced = run.passes(deadline, tracer, each=collect)
    finally:
        installed.restore()
    scale = run.speed.scale()
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit != "s" and len(set(values)) > 1:
            print("warning: %s differs between passes: %s" % (name, values), file=sys.stderr)
        metrics[name] = (scale * statistics.median(values) if unit == "s" else values[0], unit)
    metrics["bench.trace_overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    for name in installed.missing:
        print("missing layer: %s" % name, file=sys.stderr)
    for name in sorted(tracer.broken):
        print("counter not computed (arguments changed): %s" % name, file=sys.stderr)
    with open(RUNS / ("%s.spans.jsonl" % label), "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regdensity" / "__init__.py").is_file():
        print("error: no program at %s; run from a regdensity checkout" % SRC, file=sys.stderr)
        return 2
    rd = import_program()
    if args.workload not in jobs.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(jobs.WORKLOADS)))
    build, seeded = jobs.WORKLOADS[args.workload]
    seed = args.seed if seeded else None
    label = "%s-seed%s" % (args.workload, args.seed)
    inputs_dir = RUNS / "inputs" / label
    inputs_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    setup_s, job_list = set_up(rd, build, args.seed, inputs_dir)
    golden_file = GOLDEN / ("%s.json" % args.workload)
    expected = {}
    if golden_file.is_file():
        golden = json.loads(golden_file.read_text())
        if golden["seed"] == seed:
            expected = dict(golden["digests"])
    run = Run(job_list, expected)

    begin = time.perf_counter()
    if args.trace:
        metrics = per_layer(run, begin, begin + args.seconds, label)
        declared_key = "per_layer"
    else:
        metrics = end_to_end(run, begin + args.seconds, setup_s)
        declared_key = "end_to_end"

    with open(RUNS / ("%s.jobs.json" % label), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": seed,
                   "digests": {j.id: run.seen[j.id] for j in job_list},
                   "median_s": {j.id: statistics.median(run.by_job[j.id]) for j in job_list}},
                  handle, indent=1)
        handle.write("\n")
    for job_id, problem in sorted(run.problems.items()):
        print("FAILED %s: %s" % (job_id, problem), file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[declared_key]
    if {m["name"]: m["unit"] for m in declared} != {k: u for k, (_, u) in metrics.items()}:
        print("error: metrics do not match BENCHMARK.json %s" % declared_key, file=sys.stderr)
        return 1
    print("fail_ratio %.6f (%d of %d jobs)" % (run.failed / run.attempted, run.failed,
                                                run.attempted))
    for name, (value, unit) in metrics.items():
        print("%s %r %s" % (name, value, unit))
    print("total_s %.3f" % (time.perf_counter() - start))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
