"""dqc1lpn benchmark: five CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload learn-sampled --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Each run starts fresh worker processes (perfbench/worker.py) that import the
package from ./src and call ``dqc1lpn.cli.main(argv)`` in-process with the
output captured; one client, closed loop, OpenBLAS held to one thread.

``--trace 0`` reports the end-to-end metrics:

    setup_s      s     median of SETUPS fresh processes, process start to
                       package import, numpy.random import and one untimed
                       warm-up job done
    job_p50_s    s     median wall time of one cli.main call
    ops_per_s    op/s  ops completed / time spent in cli.main
    peak_rss_mb  MiB   peak resident memory of the measured process

Every time in them is calibrated (pace.py), so that the host's own drift
in speed does not move the figures: each job is scaled by the host speed
read just before and just after it, and the set-up times by the median of
all the run's readings. (A reading taken just after a worker process
exits is often slowed by the exit itself, so the parent takes none.) The
raw wall-clock medians are printed beside them (not gated), with the job
count, the highest percentile with at least ten jobs beyond it, and
``fail_ratio``: failed / attempted jobs. A job fails on a nonzero exit
code, an exception, unparsable output, a non-finite number or a failed
output check (workloads.py).

``--trace 1`` reports the per-layer metrics BENCHMARK.json lists, from a
traced run (tracer.py), with ``trace.overhead_s`` = traced minus
untraced job_p50_s. Spans go to .bench_out/spans-<workload>.jsonl.

Every run also prints its environment (nproc, Python, numpy, BLAS and its
thread count, commit, seed, sizes, job count), writes it with the results
to .bench_out/<workload>-trace<0|1>.json, and ends stdout with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pace
import workloads

HERE = Path(__file__).resolve().parent

#: Fresh processes whose set-up time makes up setup_s (the last one measures).
SETUPS = 5
#: Wall-clock limit of a whole run.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(cmd: list[str], env: dict, timeout: float) -> tuple[float, str]:
    """Run one worker; return (seconds to its ready line, the rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker exited with {proc.returncode}")
    return ready, rest


def percentile_beside(times: list[float]) -> str:
    """Highest whole percentile with at least ten jobs beyond it."""
    n = len(times)
    if n <= 10:
        return "no percentile with 10 jobs beyond it"
    pct = math.floor(100 * (n - 10) / n)
    ranked = sorted(times)
    return f"p{pct} {ranked[math.ceil(pct / 100 * n) - 1]:.6g} s"


def calibrated(raw: dict) -> list[float]:
    """Job times in nominal seconds, each scaled by the readings around it."""
    refs = raw["refs"]
    return [pace.scale(t, refs[i], refs[i + 1]) for i, t in enumerate(raw["times"])]


def end_to_end(setups: list[float], raw: dict) -> dict[str, float]:
    times = calibrated(raw)
    speed = statistics.median(raw["refs"])
    return {
        "setup_s": pace.scale(statistics.median(setups), speed, speed),
        "job_p50_s": statistics.median(times),
        "ops_per_s": raw["ops"] / sum(times),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def report(args, workload, setups, raw) -> dict[str, float]:
    """Print the human-readable lines and return the metrics."""
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    if args.trace:
        metrics = raw["metrics"]
        print(f"untraced job_p50_s {raw['untraced_job_p50_s']:.6g} s, "
              f"traced {raw['traced_job_p50_s']:.6g} s; counts over the first "
              f"{raw['count_jobs']} traced jobs, times per traced job")
    else:
        metrics = end_to_end(setups, raw)
    units = workloads.metric_units("per_layer" if args.trace else "end_to_end")
    for name, value in metrics.items():
        extra = ""
        if name == "setup_s":
            extra = (f"  (median of {len(setups)}, raw: "
                     + ", ".join(f"{s:.4g}" for s in setups) + " s)")
        elif name == "job_p50_s":
            times = calibrated(raw)
            extra = (f"  ({len(times)} jobs, {percentile_beside(times)};"
                     f" raw median {statistics.median(raw['times']):.6g} s)")
        elif name == "ops_per_s":
            extra = f"  (op = one {workload.op}; raw {raw['ops'] / sum(raw['times']):.6g})"
        elif units[name] in ("B", "flop"):
            extra = "  (computed from array sizes, not measured)"
        print(f"{name} {value:.6g} {units[name]}{extra}")
    print(f"fail_ratio {raw['failed'] / raw['attempted']:.6g} 1  "
          f"({raw['failed']}/{raw['attempted']} jobs failed)")
    for reason in raw["reasons"]:
        print(f"  failure: {reason}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def run_workload(args, root: Path, name: str) -> int:
    workload = workloads.WORKLOADS[name](tiny=args.tiny)
    # one BLAS thread (never above nproc) and a fixed hash seed, so that
    # processes differ only in the machine's own noise
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    try:
        setups = []
        for _ in range(SETUPS - 1 if not args.trace else 0):
            ready, _ = spawn(cmd + ["--probe"], env, DEADLINE_S - (time.perf_counter() - start))
            setups.append(ready)
        ready, rest = spawn(cmd, env, DEADLINE_S - (time.perf_counter() - start))
        setups.append(ready)
        raw = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1

    metrics = report(args, workload, setups, raw)
    out = root / ".bench_out" / f"{name}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**raw, "setups_s": setups, "metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True,
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dqc1lpn" / "cli.py").is_file():
        print(f"error: no dqc1lpn sources under {root / 'src'}; run from the repo root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max([run_workload(args, root, name) for name in names])


if __name__ == "__main__":
    raise SystemExit(main())
