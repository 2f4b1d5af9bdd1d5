"""qfsplit benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload hypersurface --seed 1 --seconds 40 --trace 0

Run from the repository root.  A pass decides every job of the workload
once, each job starting when the previous one has finished; passes repeat
until the next one would overrun ``--seconds`` (at least one always runs).
Every output is checked against the job's independent expectation.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end figures (see README.md).  With ``--trace 1`` untraced and
traced passes alternate and the metrics are the per-layer figures of the
traced passes (in unscaled seconds), plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qfsplit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# Yardstick time on each side of a job: YARDSTICK_SHARE of the job's last
# measured time, and at least YARDSTICK_MIN_S.
YARDSTICK_MIN_S = 0.002
YARDSTICK_SHARE = 0.15

# Layers each workload must reach; a traced pass that records no call in
# one of them means a wrapper missed a call path.
ACTIVE_LAYERS = {
    "hypersurface": ("ring", "witt", "criteria", "report"),
    "doublecover": ("ring", "localcoh", "linalg", "report"),
    "cross-check": ("ring", "witt", "localcoh", "linalg", "splitting_oracle"),
}


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} values, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(workload: str, seed: int) -> float:
    """Median of several fresh-interpreter set-ups."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Pass:
    """One pass over the jobs: outputs, measured times, and times scaled by
    the yardstick runs on both sides of each job (see yardstick.py)."""

    def __init__(self, jobs, inputs, previous=None):
        gc.collect()
        self.times = []
        self.scaled = []
        self.outputs = []
        for i, (job, prepared) in enumerate(zip(jobs, inputs)):
            guess = previous.times[i] if previous else 0.0
            before = yardstick.run(max(YARDSTICK_MIN_S, YARDSTICK_SHARE * guess))
            t0 = time.perf_counter()
            self.outputs.append(workloads.execute(job, prepared))
            elapsed = time.perf_counter() - t0
            after = yardstick.run(max(YARDSTICK_MIN_S, YARDSTICK_SHARE * elapsed))
            self.times.append(elapsed)
            self.scaled.append(elapsed * yardstick.scale(before, after))
        self.failures = [
            job.name for job, out in zip(jobs, self.outputs) if not workloads.check(job, out)
        ]


def per_job_median(passes, field="scaled"):
    """Median over passes of each job's time."""
    return [statistics.median(getattr(p, field)[i] for p in passes) for i in range(len(passes[0].times))]


def run_passes(seconds: float, make_round):
    """Call make_round(previous round or None) until another round would
    overrun ``seconds``."""
    rounds, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(make_round(rounds[-1] if rounds else None))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return rounds


def end_to_end(jobs, passes, setup_s):
    per_job = per_job_median(passes)
    tail_s, tail_pct = tail(per_job)
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "wall_s": (sum(per_job), "s"),
        "entry_p50_ms": (statistics.median(per_job) * 1000.0, "ms"),
        "entry_tail_ms": (tail_s * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    note = (
        f"passes={len(passes)} entries={len(jobs)} "
        f"unscaled_wall_s={sum(per_job_median(passes, 'times'))!r} "
        f"entry_tail_ms=p{tail_pct:.1f} (per-entry medians; {TAIL_BEYOND} entries beyond it)"
    )
    return metrics, note


def traced(workload, jobs, inputs, seconds):
    def one_round(previous):
        plain = Pass(jobs, inputs, previous and previous[0])
        recorder = tracing.SpanRecorder()
        with tracing.install(recorder):
            traced_pass = Pass(jobs, inputs, previous and previous[1])
        return plain, traced_pass, tracing.layer_metrics(recorder), tracing.layer_calls(recorder)

    rounds = run_passes(seconds, one_round)
    problems = set()
    reference = rounds[0][0].outputs
    for plain, traced_pass, _, calls in rounds:
        if plain.outputs != reference or traced_pass.outputs != reference:
            problems.add("traced and untraced outputs differ")
        idle = [layer for layer in ACTIVE_LAYERS[workload] if not calls[layer]]
        if idle:
            problems.add(f"no traced calls in active layers {idle}")
    metrics = {
        name: (statistics.median(r[2][name][0] for r in rounds), unit)
        for name, (_, unit) in rounds[0][2].items()
    }
    overhead = sum(per_job_median([r[1] for r in rounds])) / sum(
        per_job_median([r[0] for r in rounds])
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    traced_wall = sum(per_job_median([r[1] for r in rounds], "times"))
    passes = [p for r in rounds for p in r[:2]]
    note = f"rounds={len(rounds)} (untraced + traced pass each) traced_unscaled_wall_s={traced_wall!r}"
    return metrics, passes, sorted(problems), note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not qfsplit.__file__.startswith(os.path.join(ROOT, "src", "")):
        sys.exit(f"qfsplit was imported from {qfsplit.__file__}, not from this checkout")

    jobs = workloads.generate(args.workload, args.seed)
    inputs = [workloads.prepare(job) for job in jobs]
    if args.trace:
        metrics, passes, problems, note = traced(args.workload, jobs, inputs, args.seconds)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        passes = run_passes(args.seconds, lambda previous: Pass(jobs, inputs, previous))
        metrics, note = end_to_end(jobs, passes, setup_s)
        problems = []

    failures = sorted({name for p in passes for name in p.failures})
    unexpected = [name for name in failures if name not in workloads.KNOWN_DEFECTS]
    problems += [f"wrong output: {name}" for name in unexpected]
    known = [name for name in failures if name in workloads.KNOWN_DEFECTS]
    print(f"# {args.workload} seed={args.seed} {note}")
    if known:
        print(f"# known defects counted as failed: {', '.join(known)}")
    for problem in problems:
        print(f"# ERROR {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(jobs) * len(passes),
        "failed": sum(len(p.failures) for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
