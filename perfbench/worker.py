"""One benchmark process: import, warm up, then run one workload's jobs.

Started by run.py, one fresh process per set-up sample and per measured run.
It writes a ``ready`` line on stdout once the package import, the lazy
``numpy.random`` import and one untimed warm-up job are done (run.py times
process start to that line as ``setup_s``). With ``--probe`` it stops
there; otherwise it runs jobs in a closed loop, one ``cli.main`` call after
the other, for ``--seconds`` and prints one JSON line of raw results.

With ``--trace 0`` every job is timed untraced, and the host speed is read
(``pace.reference()``) before the first job and after each job, so that
run.py can scale each job by the speed around it. With ``--trace 1`` each job's
inputs run twice, untraced and then traced, so the tracing overhead is the
difference of the two medians. Times per layer are means per traced job;
counts are totals over the first ``COUNT_JOBS`` traced jobs, so they repeat
exactly for a given seed however many jobs the time allows.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import pace
import workloads
from tracer import Tracer

#: Traced jobs whose counts make up the per-layer count metrics.
COUNT_JOBS = 3
#: Untraced runs always time at least this many jobs.
MIN_JOBS = 3


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at root, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, workload, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "commit": git_commit(root),
        "seed": seed,
        "workload": workload.name,
        "sizes": workload.sizes,
    }


def make_executor(cli):
    """execute(argv) -> (exit code, captured stdout, seconds in cli.main).

    An exception escaping cli.main is reported in place of the exit code,
    since any escape is a failed job.
    """

    def execute(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape fails the job
            rc = f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue(), time.perf_counter() - start

    return execute


class Tally:
    """Job times, completed ops and failures of one loop; for a timed loop
    also the reference readings, one before each job and one after the last."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.ops = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, workload, job, rc, stdout, seconds):
        outcome = workload.check(job, rc, stdout)
        self.times.append(seconds)
        if outcome.ok:
            self.ops += outcome.ops
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(outcome.reason)


def timed_loop(workload, seed: int, seconds: float, execute) -> Tally:
    """Closed loop: job i + 1 starts when job i's output has been checked."""
    tally = Tally()
    tally.refs.append(pace.reference())
    start = time.perf_counter()
    index = 0
    while index < MIN_JOBS or time.perf_counter() - start < seconds:
        job = workload.job(seed, index)
        tally.add(workload, job, *execute(job.argv))
        tally.refs.append(pace.reference())
        index += 1
    return tally


def traced_loop(workload, seed: int, seconds: float, execute, tracer):
    """Each job untraced, then traced; returns both tallies."""
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    index = 0
    while index < COUNT_JOBS or time.perf_counter() - start < seconds:
        job = workload.job(seed, index)
        plain.add(workload, job, *execute(job.argv))
        tracer.job = index
        tracer.install()
        try:
            result = execute(job.argv)
        finally:
            tracer.uninstall()
        traced.add(workload, job, *result)
        index += 1
    return plain, traced


def layer_metrics(tracer, jobs: int, overhead: float) -> dict[str, float]:
    inclusive, own = tracer.seconds(range(jobs))
    counts = tracer.total_counts(range(COUNT_JOBS))
    values = {}
    for name in workloads.metric_units("per_layer"):
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name.endswith(".self_s"):
            values[name] = own[name[: -len(".self_s")]] / jobs
        elif name.endswith(".s"):
            values[name] = inclusive[name[: -len(".s")]] / jobs
        else:
            values[name] = counts[name]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import dqc1lpn.cli as cli
    import numpy.random  # noqa: F401 - lazy in numpy, paid here as set-up

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported dqc1lpn from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    execute = make_executor(cli)
    warmup = Tally()
    job = workload.job(args.seed, -1)
    warmup.add(workload, job, *execute(job.argv))
    print("ready", flush=True)
    if args.probe:
        return 0

    result = {"env": environment(args.root, workload, args.seed)}
    if args.trace:
        tracer = Tracer()
        plain, traced = traced_loop(workload, args.seed, args.seconds, execute, tracer)
        tallies = (warmup, plain, traced)
        overhead = statistics.median(traced.times) - statistics.median(plain.times)
        result["metrics"] = layer_metrics(tracer, len(traced.times), overhead)
        result["traced_job_p50_s"] = statistics.median(traced.times)
        result["untraced_job_p50_s"] = statistics.median(plain.times)
        result["count_jobs"] = COUNT_JOBS
        tracer.write(args.root / ".bench_out" / f"spans-{workload.name}.jsonl")
    else:
        timed = timed_loop(workload, args.seed, args.seconds, execute)
        tallies = (warmup, timed)
        result["times"] = timed.times
        result["refs"] = timed.refs
        result["ops"] = timed.ops
    result["attempted"] = sum(len(t.times) for t in tallies)
    result["failed"] = sum(t.failed for t in tallies)
    result["reasons"] = [r for t in tallies for r in t.reasons][:5]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
