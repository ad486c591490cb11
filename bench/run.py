"""flowpoly benchmark: closed-loop workloads with checked values.

    python3 bench/run.py --workload lidskii-sweep --seed 1 --seconds 30 --trace 0

One client, one process, no threads: each job starts only after the
previous one has finished.  A run repeats passes over the workload's pool
(see workloads.py) while one more pass, at the mean length so far, still
ends within `--seconds`; it runs at least one pass and 100 jobs.  Every
pass begins with a fresh import of flowpoly, so no memo carries over from
one pass to the next.  Every job's value is checked outside its timing; a
failed check makes the run print `"correct": false` and exit 1.

`--trace 0` prints the end-to-end metrics.  `--trace 1` repeats the first
pass alternately untraced and traced (tracer.py), at least twice each and
by the same rule for `--seconds`.  It prints the per-layer metrics of the
traced repetitions, and fails unless every repetition gave identical
counts and every function the workload is expected to reach recorded a
call.  The last line of stdout is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import re
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_JOBS = 100
FIRST_SETUPS = 5  # set-ups timed before the first pass; later passes add one each
MIN_TRACED = 2

# The host's speed changes by up to 2x, in bursts of about a second and in
# spells of minutes, in CPU time as much as in wall time.  The reference
# loop below therefore runs right before every timed interval, and each
# interval is scaled to the seconds it would take while the loop takes
# REF_SECONDS, by the mean of the samples just before and just after it.
# Samples further away track the bursts worse.  The loop is dict- and
# tuple-heavy like flowpoly, so it slows down with it.
REF_SECONDS = 0.003

# the report's wall_time is the only byte of output that changes between runs
WALL_TIME = re.compile(r'"wall_time": [^,}]*|wall_time: [0-9.]*s')


def reference_loop() -> int:
    """Fixed pure-Python work: build and probe a dict of 6000 tuple keys."""
    d = {}
    for i in range(6000):
        d[(i, i * 7 % 13, i >> 2)] = i
    return sum(d.get((i, i * 7 % 13, i >> 2), 0) for i in range(6000))


class Clock:
    """Timed intervals, each between two reference-loop samples."""

    def __init__(self) -> None:
        self.took: list[float] = []
        self.raw: list[float] = []
        self.before: list[int] = []  # index of the sample preceding each interval

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        self.took.append(perf_counter() - t0)

    def record(self, seconds: float) -> int:
        """Store an interval timed since the latest sample; returns its id."""
        self.raw.append(seconds)
        self.before.append(len(self.took) - 1)
        return len(self.raw) - 1

    def scaled(self) -> list[float]:
        """Every interval at reference speed; call after a closing sample."""
        return [
            t * 2 * REF_SECONDS / (self.took[b] + self.took[b + 1])
            for t, b in zip(self.raw, self.before)
        ]


def plan(workload: str, seed: int, pass_no: int):
    return WORKLOADS[workload][0](random.Random(f"{workload}/{seed}/{pass_no}"))


def setup(jobs, clock: Clock, tracer: Tracer | None = None) -> int:
    """Import flowpoly afresh and prepare the pass's jobs; returns the
    clock's interval id."""
    clock.sample()
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "flowpoly" or m.startswith("flowpoly.")]:
        del sys.modules[name]
    importlib.import_module("flowpoly")
    importlib.import_module("flowpoly.cli")
    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    graphs: dict = {}
    for job in jobs:
        job.prepare(graphs)
    if tracer is not None:
        tracer.enabled = False
    return clock.record(perf_counter() - t0)


def run_job(job, tracer: Tracer | None = None):
    """Run one job; returns (seconds, outcome, error or None)."""
    if job.argv is not None:
        call, args = importlib.import_module("flowpoly.cli").main, (job.argv,)
    else:
        call, args = getattr(sys.modules["flowpoly"], job.func), job.args
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = call(*args)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
    outcome = (value, out.getvalue()) if job.argv is not None else value
    try:
        error = job.check(outcome)
    except Exception as exc:
        error = f"check raised {type(exc).__name__}: {exc}"
    if error and err.getvalue():
        error += f" (stderr: {err.getvalue().strip()[:200]})"
    return elapsed, outcome, error


def run_pass(jobs, failures: list, clock: Clock, tracer: Tracer | None = None):
    """Run every job of a pass, collecting garbage before each one so no job
    pays for another's.  Returns (interval ids, output bytes with the
    report's wall_time blanked)."""
    ids, output_bytes = [], 0
    for job in jobs:
        gc.collect()
        clock.sample()
        elapsed, outcome, error = run_job(job, tracer)
        ids.append(clock.record(elapsed))
        if error:
            failures.append(f"{job.label}: {error}")
        elif job.argv is not None:
            output_bytes += len(WALL_TIME.sub("wall_time", outcome[1]).encode())
    return ids, output_bytes


def fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, at the mean length of the `done` so far,
    ends within `seconds` of `start`."""
    elapsed = perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def measure(workload: str, seed: int, seconds: float):
    """End-to-end run: passes while another one fits into `seconds`, and
    until MIN_JOBS jobs have run."""
    clock = Clock()
    setup_ids: list[int] = []
    job_ids: list[int] = []
    failures: list[str] = []
    start = perf_counter()
    pass_no = 0
    while pass_no == 0 or len(job_ids) < MIN_JOBS or fits(start, pass_no, seconds):
        jobs = plan(workload, seed, pass_no)
        for _ in range(FIRST_SETUPS if pass_no == 0 else 1):
            setup_ids.append(setup(jobs, clock))
        job_ids += run_pass(jobs, failures, clock)[0]
        pass_no += 1
    clock.sample()
    scaled = clock.scaled()
    times = [scaled[i] for i in job_ids]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_ms.p50": (1000 * statistics.median(times), "ms"),
        "job_ms.p90": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(scaled[i] for i in setup_ids), "s"),
    }
    samples = {
        "passes": pass_no,
        "jobs": len(times),
        "job_ms.p90_beyond": sum(t > deciles[8] for t in times),
        "setup_s": len(setup_ids),
        "reference_samples": len(clock.took),
        "reference_s.median": statistics.median(clock.took),
        "unscaled_jobs_per_s": len(times) / sum(clock.raw[i] for i in job_ids),
    }
    return metrics, samples, len(times), failures, []


def layer_metrics(tracer: Tracer, output_bytes: int, scale: float) -> dict[str, float]:
    """The named per-layer metrics of one traced pass; times are multiplied
    by the pass's reference `scale`."""
    layers = tracer.layer_totals()

    def total(layer: str, key: str) -> float:
        value = layers.get(layer, {}).get(key, 0)
        return value * scale if key == "self_s" else value

    kostant_calls = tracer.calls("kostant.kostant")
    terms = sum(
        st.items
        for st in tracer.stats.values()
        if st.name == "combinat.dominating_compositions" and st.parent == "lidskii"
    )
    out = {
        "kostant.calls": kostant_calls,
        "kostant.self_s": total("kostant", "self_s"),
        "kostant.nonzero_frac": tracer.kostant_nonzero / kostant_calls if kostant_calls else 0.0,
        "kostant.repeat_frac": 1 - len(tracer.kostant_keys) / kostant_calls if kostant_calls else 0.0,
        "kostant.flows": sum(
            st.items for st in tracer.stats.values() if st.name == "kostant.integral_flows"
        ),
        "lidskii.calls": total("lidskii", "calls"),
        "lidskii.self_s": total("lidskii", "self_s"),
        "lidskii.terms": terms,
        "lidskii.kostant_per_term": (
            tracer.calls("kostant.kostant", parent="lidskii") / terms if terms else 0.0
        ),
    }
    for layer in ("unified", "gravity", "paths", "combinat"):
        out[f"{layer}.self_s"] = total(layer, "self_s")
        out[f"{layer}.items"] = total(layer, "items")
    out["cli.self_s"] = total("cli", "self_s")
    out["cli.output_bytes"] = output_bytes
    out["graphs.calls"] = total("graphs", "calls")
    out["graphs.build_s"] = total("graphs", "self_s")
    return out


UNITS = {"calls": "count", "items": "count", "terms": "count", "flows": "count",
         "output_bytes": "bytes", "self_s": "s", "build_s": "s",
         "nonzero_frac": "frac", "repeat_frac": "frac", "kostant_per_term": "calls/term"}


def measure_traced(workload: str, seed: int, seconds: float):
    """Per-layer run: pass 0 alternately untraced and traced."""
    expected = WORKLOADS[workload][1]
    jobs = plan(workload, seed, 0)
    clock = Clock()
    plain: list[list[int]] = []
    traced: list[list[int]] = []
    tracers: list[tuple[Tracer, int]] = []
    failures: list[str] = []
    problems: list[str] = []
    start = perf_counter()
    while len(traced) < MIN_TRACED or fits(start, len(traced), seconds):
        setup(jobs, clock)
        plain.append(run_pass(jobs, failures, clock)[0])
        tracer = Tracer()
        setup(jobs, clock, tracer)
        ids, output_bytes = run_pass(jobs, failures, clock, tracer)
        traced.append(ids)
        tracers.append((tracer, output_bytes))
        missed = [name for name in expected if tracer.calls(name) == 0]
        if missed:
            problems.append(f"expected functions recorded no call: {missed}")
    clock.sample()
    scaled = clock.scaled()
    counts = [{**t.counts(), "cli.output_bytes": b} for t, b in tracers]
    if any(c != counts[0] for c in counts):
        diff = sorted(k for c in counts for k in c if c.get(k) != counts[0].get(k))
        problems.append(f"traced counts differ between repetitions: {diff[:10]}")
    layer_runs = [
        layer_metrics(t, b, sum(scaled[i] for i in ids) / sum(clock.raw[i] for i in ids))
        for (t, b), ids in zip(tracers, traced)
    ]
    metrics = {}
    for name, first in layer_runs[0].items():
        unit = UNITS[name.split(".", 1)[1]]
        # counts repeat exactly (checked above); times are medians
        value = statistics.median(run[name] for run in layer_runs) if unit == "s" else first
        metrics[name] = (value, unit)
    plain_s = statistics.median(sum(scaled[i] for i in ids) for ids in plain)
    traced_s = statistics.median(sum(scaled[i] for i in ids) for ids in traced)
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1, "frac")
    metrics["traced_pass_s"] = (traced_s, "s")
    samples = {"traced_passes": len(traced), "untraced_passes": len(plain),
               "jobs_per_pass": len(jobs)}
    return metrics, samples, len(jobs) * (len(plain) + len(traced)), failures, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        package = importlib.import_module("flowpoly")
    except ImportError as exc:
        print(f"error: cannot import flowpoly from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        print(f"error: flowpoly was imported from {package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = measure_traced if args.trace else measure
    metrics, samples, attempted, failures, problems = run(args.workload, args.seed, args.seconds)
    for line in failures[:20] + problems:
        print(f"FAIL {line}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "samples": samples, "failed_frac": len(failures) / attempted}
    print(json.dumps(summary))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
